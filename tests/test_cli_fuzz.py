"""Whole CLI requests over generated trace text, formula text (deep and long
ones included) and well-formed argv.

Every request must end with exit 0, 1 or 2 and write the same bytes when it
is repeated.  Exit 1 belongs to ``laws`` and ``oracle`` alone.  Exit 2
writes exactly one ``error:`` line on stderr, never the catch-all's repr of
an unexpected exception, except that ``validate`` prints its report on
stdout instead.  An orthologic ``eval`` value is a closed set.
"""

import contextlib
import io
import json
import re
from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import pytest

from orthochron import happened_before, parse_trace
from orthochron.cli import main
from orthochron.ortholattice import LAWS

import oracles

PROCESS_NAMES = ["a", "b", "c", "p1", "p2", "q1", "q2", "r", "x_1"]
HALVES = [Fraction(k, 2) for k in range(-2, 7)]
GARBAGE = " \tsitemg:->.=01x#é"
FORMULA_SOUP = "pq12rz~!&|()/\\ anotd0"
FORMATS = {
    "timepoints": ["text", "json"],
    "hb": ["text", "json"],
    "lattice": ["text", "json", "dot"],
    "eval": ["text", "json"],
}


def _number(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else str(float(x))


@st.composite
def traces(draw):
    """Trace text and its process names: up to three sites of up to three
    processes, tiled timing half the time, and up to three messages, which
    on a timed trace mostly end before they start; then, a third of the
    time, one line inserted, dropped, doubled or re-timed."""
    pool = iter(draw(st.permutations(PROCESS_NAMES)))
    sites = [[next(pool) for _ in range(draw(st.integers(1, 3)))] for _ in range(draw(st.integers(1, 3)))]
    names = [name for site in sites for name in site]
    lines = [f"site s{i} : " + " ".join(site) for i, site in enumerate(sites)]
    pairs = [(a, b) for i, x in enumerate(sites) for j, y in enumerate(sites) if i != j for a in x for b in y]
    timing = {}
    if draw(st.booleans()):
        for site in sites:
            clock = draw(st.sampled_from(HALVES))
            for name in site:
                timing[name] = (clock, clock + draw(st.sampled_from(HALVES[3:])))
                clock = timing[name][1]
        timely = [(a, b) for a, b in pairs if timing[a][1] < timing[b][0]]
        pairs = timely if timely and draw(st.integers(0, 3)) else pairs
    for _ in range(draw(st.integers(0, 3)) if pairs else 0):
        lines.append("msg {} -> {}".format(*draw(st.sampled_from(pairs))))
    for name, (start, end) in timing.items():
        lines.append(f"time {name} = {_number(start)} .. {_number(end)}")
    mutation = draw(st.sampled_from(["none"] * 8 + ["insert", "drop", "double", "retime"]))
    at = draw(st.integers(0, len(lines) - 1))
    if mutation == "insert":
        lines.insert(at, draw(st.text(GARBAGE, max_size=20)))
    elif mutation == "drop":
        del lines[at]
    elif mutation == "double":
        lines.insert(at, lines[at])
    elif mutation == "retime":
        name = draw(st.sampled_from(names))
        lines.append(f"time {name} = {_number(draw(st.sampled_from(HALVES)))} .. 3")
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n", "\n# end\n"])), names


def formula_texts(names):
    """Formulas over the trace's names, "0" and "1", and now and then an
    unknown atom: trees, 3,000-deep parentheses or negations, 2,000-term
    chains and character soup."""
    atoms = st.sampled_from(names * 4 + ["zz", "0", "1"])
    connectives = st.sampled_from(["&", "|", "and", "or", "/\\", "\\/"])
    trees = st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.builds("{}{}".format, st.sampled_from(["~", "!", "not "]), inner),
            st.builds("({} {} {})".format, inner, connectives, inner),
        ),
        max_leaves=10,
    )
    depths = st.integers(0, 3000)
    return st.one_of(
        trees,
        st.builds(lambda n, atom: "(" * n + atom + ")" * n, depths, atoms),
        st.builds(lambda n, atom: "~" * n + atom, depths, atoms),
        st.builds(lambda n, atom, op: f" {op} ".join([atom] * n), st.integers(1, 2000), atoms, connectives),
        st.text(FORMULA_SOUP, max_size=30),
    )


@st.composite
def argvs(draw, command: str, path: str, names: list[str]):
    if command == "gen":
        shape = [draw(st.integers(-5, 5)), draw(st.integers(-1, 4)), draw(st.integers(-1, 4)), draw(st.integers(-1, 8))]
        return ["gen", *[f"--{flag}={n}" for flag, n in zip(["seed", "sites", "procs", "messages"], shape)]]
    argv = [command, path]
    if command in FORMATS:
        argv.append(f"--format={draw(st.sampled_from(FORMATS[command]))}")
    if command == "eval":
        argv.append(f"--formula={draw(formula_texts(names))}")
    if command == "laws":
        argv.append(f"--law={draw(st.sampled_from(list(LAWS)))}")
    if command in ("eval", "laws"):
        argv.append(f"--semantics={draw(st.sampled_from(['ortho', 'boolean']))}")
    if command in ("lattice", "laws") and draw(st.booleans()):
        argv.append(f"--cap={draw(st.integers(-1, 40))}")
    return argv


def _request(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _ortho_value(argv, out):
    if "--format=json" in argv:
        payload = json.loads(out)
        assert payload["closed"] is True
        return frozenset(payload["value"])
    return frozenset(name for name in out.strip()[1:-1].split(", ") if name)


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "request.trace"


@pytest.mark.parametrize("command", ["validate", "timepoints", "hb", "lattice", "eval", "laws", "oracle", "gen"])
@hypothesis.settings(max_examples=50, deadline=None)
@hypothesis.given(data=st.data(), trace=traces())
def test_cli_requests_end_cleanly_and_repeat(trace_path, command, data, trace):
    text, names = trace
    trace_path.write_text(text)
    argv = data.draw(argvs(command, str(trace_path), names))
    code, out, err = _request(argv)
    assert _request(argv) == (code, out, err)
    assert code in (0, 1, 2)
    hypothesis.event(f"{argv[0]} exit {code}")
    if code == 1:
        assert argv[0] in ("laws", "oracle")
    if code != 2:
        assert err == ""
    elif argv[0] == "validate" and not err:
        assert out and "" not in out.splitlines()
    else:
        assert re.fullmatch(r"error: [^\n]*\n", err)
        assert not re.match(r"error: [A-Z]\w*\(", err)
    if code == 0 and argv[0] == "eval" and "--semantics=ortho" in argv:
        cs = happened_before(parse_trace(text))
        value = _ortho_value(argv, out)
        assert value == oracles.brute_ortho(cs, oracles.brute_ortho(cs, value))
