import argparse
import contextlib
import gc
import io
import json
import random
import time
import tracemalloc

import pytest

from orthochron import (
    CausalStructure,
    OrthoLattice,
    enumerate_closed,
    gen_random,
    happened_before,
    parse_trace,
    serialize_trace,
)
from orthochron import cli as cli_module
from orthochron.cli import _COMMANDS, build_parser, closed_sets_by_definition, main

import oracles
from conftest import fixture_path, random_trace

FIG2 = str(fixture_path("fig2.trace"))
FIG5 = str(fixture_path("fig5.trace"))
FIG7 = str(fixture_path("fig7.trace"))
MO2 = str(fixture_path("mo2.trace"))
SINGLE = str(fixture_path("single-site.trace"))

# stdout of `hb` on fig2 and fig5
FIG2_HB = (
    "happened-before\n"
    "    p1 p2 p3 p4 q1 q2 q3 q4 q5 r1 r2 r3\n"
    "  p1  0  1  1  1  0  0  0  0  0  0  0  0\n"
    "  p2  0  0  1  1  0  0  0  0  0  0  0  0\n"
    "  p3  0  0  0  1  0  0  0  0  0  0  0  0\n"
    "  p4  0  0  0  0  0  0  0  0  0  0  0  0\n"
    "  q1  0  0  0  0  0  1  1  1  1  0  0  0\n"
    "  q2  0  0  0  0  0  0  1  1  1  0  0  0\n"
    "  q3  0  0  0  0  0  0  0  1  1  0  0  0\n"
    "  q4  0  0  0  0  0  0  0  0  1  0  0  0\n"
    "  q5  0  0  0  0  0  0  0  0  0  0  0  0\n"
    "  r1  0  0  0  0  0  0  0  0  0  0  1  1\n"
    "  r2  0  0  0  0  0  0  0  0  0  0  0  1\n"
    "  r3  0  0  0  0  0  0  0  0  0  0  0  0\n"
    "causality\n"
    "    p1 p2 p3 p4 q1 q2 q3 q4 q5 r1 r2 r3\n"
    "  p1  0  1  1  1  0  0  0  0  0  0  0  0\n"
    "  p2  1  0  1  1  0  0  0  0  0  0  0  0\n"
    "  p3  1  1  0  1  0  0  0  0  0  0  0  0\n"
    "  p4  1  1  1  0  0  0  0  0  0  0  0  0\n"
    "  q1  0  0  0  0  0  1  1  1  1  0  0  0\n"
    "  q2  0  0  0  0  1  0  1  1  1  0  0  0\n"
    "  q3  0  0  0  0  1  1  0  1  1  0  0  0\n"
    "  q4  0  0  0  0  1  1  1  0  1  0  0  0\n"
    "  q5  0  0  0  0  1  1  1  1  0  0  0  0\n"
    "  r1  0  0  0  0  0  0  0  0  0  0  1  1\n"
    "  r2  0  0  0  0  0  0  0  0  0  1  0  1\n"
    "  r3  0  0  0  0  0  0  0  0  0  1  1  0\n"
)
FIG5_HB = (
    "happened-before\n"
    "    x1 x2 x3 y1 y2 y3\n"
    "  x1  0  1  1  0  1  1\n"
    "  x2  0  0  1  0  0  0\n"
    "  x3  0  0  0  0  0  0\n"
    "  y1  0  0  1  0  1  1\n"
    "  y2  0  0  1  0  0  1\n"
    "  y3  0  0  0  0  0  0\n"
    "causality\n"
    "    x1 x2 x3 y1 y2 y3\n"
    "  x1  0  1  1  0  1  1\n"
    "  x2  1  0  1  0  0  0\n"
    "  x3  1  1  0  1  1  0\n"
    "  y1  0  0  1  0  1  1\n"
    "  y2  1  0  1  1  0  1\n"
    "  y3  1  0  0  1  1  0\n"
)

MO2_JSON = {
    "elements": [[], ["p1"], ["p2"], ["q1"], ["q2"], ["p1", "p2", "q1", "q2"]],
    "complement": [5, 2, 1, 4, 3, 0],
    "hasse": [[0, 1], [0, 2], [0, 3], [0, 4], [1, 5], [2, 5], [3, 5], [4, 5]],
}

# stdout of `lattice fig2 --format json`; the dot pin is built from its elements and edges
FIG2_LATTICE_JSON = (
    '{"elements": [[], ["p1"], ["p2"], ["p3"], ["p4"], ["q1"], ["q2"], ["q3"], '
    '["q4"], ["q5"], ["r1"], ["r2"], ["r3"], ["p1", "p2"], ["p1", "p3"], ["p1", '
    '"p4"], ["p2", "p3"], ["p2", "p4"], ["p3", "p4"], ["q1", "q2"], ["q1", "q3"], '
    '["q1", "q4"], ["q1", "q5"], ["q2", "q3"], ["q2", "q4"], ["q2", "q5"], ["q3", '
    '"q4"], ["q3", "q5"], ["q4", "q5"], ["r1", "r2"], ["r1", "r3"], ["r2", "r3"], '
    '["p1", "p2", "p3"], ["p1", "p2", "p4"], ["p1", "p3", "p4"], ["p2", "p3", "p4"], '
    '["q1", "q2", "q3"], ["q1", "q2", "q4"], ["q1", "q2", "q5"], ["q1", "q3", "q4"], '
    '["q1", "q3", "q5"], ["q1", "q4", "q5"], ["q2", "q3", "q4"], ["q2", "q3", "q5"], '
    '["q2", "q4", "q5"], ["q3", "q4", "q5"], ["q1", "q2", "q3", "q4"], ["q1", "q2", '
    '"q3", "q5"], ["q1", "q2", "q4", "q5"], ["q1", "q3", "q4", "q5"], ["q2", "q3", '
    '"q4", "q5"], ["p1", "p2", "p3", "p4", "q1", "q2", "q3", "q4", "q5", "r1", "r2", '
    '"r3"]], "complement": [51, 35, 34, 33, 32, 50, 49, 48, 47, 46, 31, 30, 29, 18, '
    "17, 16, 15, 14, 13, 45, 44, 43, 42, 41, 40, 39, 38, 37, 36, 12, 11, 10, 4, 3, 2, "
    '1, 28, 27, 26, 25, 24, 23, 22, 21, 20, 19, 9, 8, 7, 6, 5, 0], "hasse": [[0, 1], '
    "[0, 2], [0, 3], [0, 4], [0, 5], [0, 6], [0, 7], [0, 8], [0, 9], [0, 10], [0, "
    "11], [0, 12], [1, 13], [1, 14], [1, 15], [2, 13], [2, 16], [2, 17], [3, 14], [3, "
    "16], [3, 18], [4, 15], [4, 17], [4, 18], [5, 19], [5, 20], [5, 21], [5, 22], [6, "
    "19], [6, 23], [6, 24], [6, 25], [7, 20], [7, 23], [7, 26], [7, 27], [8, 21], [8, "
    "24], [8, 26], [8, 28], [9, 22], [9, 25], [9, 27], [9, 28], [10, 29], [10, 30], "
    "[11, 29], [11, 31], [12, 30], [12, 31], [13, 32], [13, 33], [14, 32], [14, 34], "
    "[15, 33], [15, 34], [16, 32], [16, 35], [17, 33], [17, 35], [18, 34], [18, 35], "
    "[19, 36], [19, 37], [19, 38], [20, 36], [20, 39], [20, 40], [21, 37], [21, 39], "
    "[21, 41], [22, 38], [22, 40], [22, 41], [23, 36], [23, 42], [23, 43], [24, 37], "
    "[24, 42], [24, 44], [25, 38], [25, 43], [25, 44], [26, 39], [26, 42], [26, 45], "
    "[27, 40], [27, 43], [27, 45], [28, 41], [28, 44], [28, 45], [29, 51], [30, 51], "
    "[31, 51], [32, 51], [33, 51], [34, 51], [35, 51], [36, 46], [36, 47], [37, 46], "
    "[37, 48], [38, 47], [38, 48], [39, 46], [39, 49], [40, 47], [40, 49], [41, 48], "
    "[41, 49], [42, 46], [42, 50], [43, 47], [43, 50], [44, 48], [44, 50], [45, 49], "
    "[45, 50], [46, 51], [47, 51], [48, 51], [49, 51], [50, 51]]}\n"
)
_FIG2_LATTICE = json.loads(FIG2_LATTICE_JSON)
FIG2_LATTICE_DOT = "".join(
    ["digraph ortholattice {\n", "  rankdir=BT;\n"]
    + [f'  n{i} [label="{{{", ".join(e)}}}"];\n' for i, e in enumerate(_FIG2_LATTICE["elements"])]
    + [f"  n{a} -> n{b};\n" for a, b in _FIG2_LATTICE["hasse"]]
    + ["}\n"]
)


@pytest.fixture
def cli(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def test_validate_ok(cli):
    code, out, err = cli("validate", FIG2)
    assert (code, out, err) == (0, "valid\n", "")


def test_validate_reports_problems(cli, tmp_path):
    bad = tmp_path / "gap.trace"
    bad.write_text("site s : a b\ntime a = 0 .. 1\ntime b = 2 .. 3\n")
    code, out, _ = cli("validate", str(bad))
    assert code == 2
    assert out == "gap at site s between a and b\n"


def test_missing_file(cli):
    code, out, err = cli("validate", "no-such-file.trace")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_unparsable_trace(cli, tmp_path):
    bad = tmp_path / "broken.trace"
    bad.write_text("site s :\n")
    code, _, err = cli("validate", str(bad))
    assert code == 2
    assert "error: line 1" in err


def test_time_line_without_a_process(cli, tmp_path):
    bad = tmp_path / "nameless.trace"
    bad.write_text("site x : a\ntime = 0 .. 1\n")
    assert cli("validate", str(bad)) == (2, "", "error: line 2, column 6: expected process name, found '='\n")


def test_timepoints_text(cli):
    code, out, _ = cli("timepoints", FIG2)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert lines[0] == "T1: p1 q1 r1"
    assert lines[9] == "T10: p4 q5 r3"


def test_timepoints_json(cli):
    code, out, _ = cli("timepoints", SINGLE, "--format", "json")
    assert code == 0
    assert json.loads(out) == [["a"], ["b"], ["c"]]


def test_timepoints_requires_timed_trace(cli):
    code, _, err = cli("timepoints", FIG5)
    assert code == 2
    assert "error: " in err


def test_hb_text(cli):
    code, out, _ = cli("hb", MO2)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "happened-before"
    assert lines[6] == "causality"
    assert lines.count("    p1 p2 q1 q2") == 2
    assert lines.count("  p1  0  1  0  0") == 2
    assert lines[5] == "  q2  0  0  0  0"
    assert lines[11] == "  q2  0  0  1  0"


@pytest.mark.parametrize("path, expected", [(FIG2, FIG2_HB), (FIG5, FIG5_HB)], ids=["fig2", "fig5"])
def test_hb_text_pinned(cli, path, expected):
    assert cli("hb", path) == (0, expected, "")


def test_hb_text_right_aligns_cells_to_the_widest_name(cli, tmp_path):
    path = tmp_path / "widths.trace"
    path.write_text("site x : a bb\nsite y : ccc d\nmsg a -> d\n")
    trace = parse_trace(path.read_text())
    cs = happened_before(trace)
    before = oracles.brute_happened_before(trace)
    expected = []
    for title, related in (
        ("happened-before", lambda a, b: (a, b) in before),
        ("causality", cs.causally_related),
    ):
        expected += [title, "     " + " ".join(n.rjust(3) for n in cs.names)]
        for a in cs.names:
            cells = " ".join(("1" if related(a, b) else "0").rjust(3) for b in cs.names)
            expected.append(f"  {a.rjust(3)} {cells}")
    assert cli("hb", str(path)) == (0, "\n".join(expected) + "\n", "")


def test_hb_json(cli):
    code, out, _ = cli("hb", FIG5, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["happened_before"] == {
        "x1": ["x2", "x3", "y2", "y3"],
        "x2": ["x3"],
        "x3": [],
        "y1": ["x3", "y2", "y3"],
        "y2": ["x3", "y3"],
        "y3": [],
    }
    assert payload["causality"]["x2"] == ["x1", "x3"]
    assert payload["causality"]["y2"] == ["x1", "x3", "y1", "y3"]


def _hb_document(names, before):
    """``hb --format json`` stdout by ``json.dumps``, from a happened-before
    predicate on names; causality is happened-before either way."""
    payload = {
        "happened_before": {a: [b for b in names if before(a, b)] for a in names},
        "causality": {a: [b for b in names if before(a, b) or before(b, a)] for a in names},
    }
    return json.dumps(payload) + "\n"


@pytest.mark.parametrize(
    "shape",
    [(1, 1, 0), (1, 6, 0), (3, 1, 0), (3, 1, 2), (6, 1, 9), (4, 3, 0), (2, 5, 40), (6, 3, 400)],
)
@pytest.mark.parametrize("seed", range(3))
def test_hb_json_matches_brute_force(cli, tmp_path, shape, seed):
    """Seeded traces of 1-6 sites, one-process sites among them, with no
    messages and with as many as fit."""
    trace = random_trace(seed, *shape)
    path = tmp_path / "random.trace"
    path.write_text(serialize_trace(trace))
    before = oracles.brute_happened_before(trace)
    expected = _hb_document(trace.processes, lambda a, b: (a, b) in before)
    assert cli("hb", str(path), "--format", "json") == (0, expected, "")


def test_hb_json_of_barrier_rounds(cli, tmp_path):
    """320 processes: a round-r process happened before every process of a
    later round, and is causally related to every process outside round r."""
    trace = oracles.barrier_trace(40, 8)
    path = tmp_path / "barrier.trace"
    path.write_text(serialize_trace(trace))
    round_of = {name: int(name.rpartition("r")[2]) for name in trace.processes}
    expected = _hb_document(trace.processes, lambda a, b: round_of[a] < round_of[b])
    assert cli("hb", str(path), "--format", "json") == (0, expected, "")


def test_lattice_text(cli):
    code, out, _ = cli("lattice", MO2)
    assert code == 0
    assert out.splitlines() == [
        "{}",
        "{p1}",
        "{p2}",
        "{q1}",
        "{q2}",
        "{p1, p2, q1, q2}",
    ]


def test_lattice_json(cli):
    code, out, _ = cli("lattice", MO2, "--format", "json")
    assert code == 0
    assert json.loads(out) == MO2_JSON


def test_lattice_json_fig7_element_count(cli):
    code, out, _ = cli("lattice", FIG7, "--format", "json")
    assert code == 0
    assert len(json.loads(out)["elements"]) == 52


def test_lattice_dot(cli):
    code, out, _ = cli("lattice", MO2, "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert 'n1 [label="{p1}"];' in out
    assert "n4 -> n5;" in out


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_lattice_fig2_export_bytes(cli, fmt):
    expected = FIG2_LATTICE_JSON if fmt == "json" else FIG2_LATTICE_DOT
    assert cli("lattice", FIG2, "--format", fmt) == (0, expected, "")


def test_lattice_cap(cli):
    code, out, err = cli("lattice", FIG2, "--cap", "3")
    assert (code, out, err) == (
        2,
        "",
        "error: closed-set enumeration exceeded cap 3 (reached 13 elements)\n",
    )


CHAIN_10 = "site x : " + " ".join(f"p{i}" for i in range(1, 11)) + "\n"
LATTICE_EXPORTS = [
    *[pytest.param(fixture_path(f"{name}.trace").read_text(), id=name)
      for name in ("fig2", "fig5", "fig7", "mo2", "single-site")],
    *[pytest.param(serialize_trace(random_trace(seed, n, k, m)), id=f"timed-{seed}-{n}-{k}-{m}")
      for seed in range(3) for n, k, m in [(1, 4, 0), (3, 3, 4), (4, 3, 6), (5, 4, 8)]],
    *[pytest.param(serialize_trace(oracles.untimed_trace(seed, n, k, m)), id=f"untimed-{seed}-{n}-{k}-{m}")
      for seed in range(3) for n, k, m in [(2, 3, 2), (4, 3, 6), (6, 4, 10)]],
    pytest.param(serialize_trace(oracles.twins_trace(3, 5)), id="twins-3-5"),
    pytest.param(serialize_trace(oracles.barrier_trace(6, 4)), id="barrier-6-4"),
    pytest.param(CHAIN_10, id="chain-10"),
]


@pytest.mark.parametrize("text", LATTICE_EXPORTS)
def test_lattice_json_is_the_library_dict_export(cli, tmp_path, text):
    """The CLI writes its JSON text itself; it must stay ``json.dumps`` of
    ``OrthoLattice.to_json_dict``, byte for byte.  chain-10 has 1,024 elements."""
    path = tmp_path / "export.trace"
    path.write_text(text)
    lattice = enumerate_closed(happened_before(parse_trace(text)))
    expected = json.dumps(lattice.to_json_dict()) + "\n"
    assert cli("lattice", str(path), "--format", "json") == (0, expected, "")


EXPORT_PEAK_TEXTS = pytest.mark.parametrize(
    "text", [CHAIN_10, serialize_trace(gen_random(3, 6, 8, 10))], ids=["chain-10", "random-2290"]
)


def _export_peak_ratio(tmp_path, text, fmt):
    """The tracemalloc peak of one ``lattice --format fmt`` request, after a
    warm-up request, over the length of its output."""
    path = tmp_path / "export.trace"
    path.write_text(text)
    argv = ["lattice", str(path), "--format", fmt]
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / len(out.getvalue())


@EXPORT_PEAK_TEXTS
def test_lattice_json_export_holds_little_beyond_its_output(tmp_path, text):
    """Writing the JSON text from names quoted once, rather than through one
    ``json.dumps`` of the whole payload, keeps the request's allocation peak
    under ten times the output's length."""
    assert _export_peak_ratio(tmp_path, text, "json") < 10


@EXPORT_PEAK_TEXTS
def test_lattice_dot_export_holds_little_beyond_its_output(tmp_path, text):
    """The DOT text is written as the node lines in one piece and the edge
    lines as one format over the cover pairs, with no list of lines or string
    per edge: the request's allocation peak stays under six times the output's
    length (7.6 and 6.7 times when every line was listed and joined)."""
    assert _export_peak_ratio(tmp_path, text, "dot") < 6


def test_eval_ortho_text(cli):
    code, out, _ = cli("eval", FIG7, "--formula", "(p2 | p3) & q3")
    assert (code, out) == (0, "{q3}\n")


def test_eval_ortho_json(cli):
    code, out, _ = cli("eval", FIG7, "--formula", "p2 | p3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "semantics": "ortho",
        "value": ["p2", "p3", "q3"],
        "closed": True,
    }


def test_eval_boolean_text(cli):
    code, out, _ = cli("eval", FIG2, "--formula", "p1", "--semantics", "boolean")
    assert (code, out) == (0, "{T1, T2}\n")


def test_eval_boolean_json(cli):
    code, out, _ = cli(
        "eval", FIG2, "--formula", "r1", "--semantics", "boolean", "--format", "json"
    )
    assert json.loads(out) == {"semantics": "boolean", "value": [0, 1, 2], "closed": True}
    assert code == 0


DEEP_FORMULAS = [
    " | ".join(["p1"] * 1_000),
    "~" * 1_000 + "p1",
    "(" * 10_000 + "p1" + ")" * 10_000,
]


@pytest.mark.parametrize("semantics", ["ortho", "boolean"])
@pytest.mark.parametrize("formula", DEEP_FORMULAS, ids=["or-chain", "negations", "parentheses"])
def test_eval_deep_formulas_equal_their_atom(cli, formula, semantics):
    _, expected, _ = cli("eval", FIG7, "--formula", "p1", "--semantics", semantics)
    assert cli("eval", FIG7, "--formula", formula, "--semantics", semantics) == (0, expected, "")


def test_eval_unknown_atom(cli):
    code, _, err = cli("eval", MO2, "--formula", "zz")
    assert code == 2
    assert "unknown atom" in err


def test_eval_syntax_error(cli):
    code, _, err = cli("eval", MO2, "--formula", "p1 &")
    assert code == 2
    assert "error: position 5" in err


def test_laws_distributivity_counterexample(cli):
    code, out, _ = cli("laws", FIG7, "--law", "distributivity")
    assert code == 1
    assert out == (
        "distributivity: counterexample\n"
        "  a = {p1}\n"
        "  b = {q1}\n"
        "  c = {q2}\n"
        "  (a | b) & c = {q2} but (a & c) | (b & c) = {}\n"
    )


def test_laws_axioms_hold(cli):
    code, out, _ = cli("laws", FIG7, "--law", "ortholattice-axioms")
    assert (code, out) == (0, "ortholattice-axioms: holds (52 elements)\n")
    code, out, _ = cli("laws", MO2, "--law", "orthomodularity")
    assert (code, out) == (0, "orthomodularity: holds (6 elements)\n")


def test_laws_mo2_distributivity(cli):
    code, out, _ = cli("laws", MO2, "--law", "distributivity")
    assert code == 1
    assert "a = {p1}" in out
    assert "b = {p2}" in out
    assert "c = {q1}" in out


def test_laws_boolean_distributivity(cli):
    code, out, _ = cli(
        "laws", FIG2, "--law", "distributivity", "--semantics", "boolean"
    )
    assert code == 0
    assert out == (
        "distributivity: (a | b) & c = (a & c) | (b & c) holds "
        "(exhaustive over 1728 instantiations)\n"
    )


def test_laws_boolean_axiom_bundle(cli):
    code, out, _ = cli(
        "laws", FIG2, "--law", "ortholattice-axioms", "--semantics", "boolean"
    )
    assert code == 0
    assert out.count("holds") == 3


def test_laws_orthomodularity_counterexample(cli):
    code, out, _ = cli("laws", FIG7, "--law", "orthomodularity")
    assert code == 1
    assert out == (
        "orthomodularity: counterexample\n"
        "  a = {p1}\n"
        "  b = {p1, q1, q2}\n"
        "  a <= b but a | (~a & b) = {p1} != b at a = {p1}, b = {p1, q1, q2}\n"
    )


def test_laws_boolean_de_morgan(cli):
    code, out, _ = cli("laws", FIG2, "--law", "de-morgan", "--semantics", "boolean")
    assert code == 0
    assert out == (
        "de-morgan: ~(a & b) = ~a | ~b holds (exhaustive over 144 instantiations)\n"
        "de-morgan: ~(a | b) = ~a & ~b holds (exhaustive over 144 instantiations)\n"
    )


def test_laws_boolean_orthomodularity(cli):
    code, out, _ = cli(
        "laws", FIG2, "--law", "orthomodularity", "--semantics", "boolean"
    )
    assert code == 0
    assert out == (
        "orthomodularity: a | (~a & (a | b)) = a | b holds "
        "(exhaustive over 144 instantiations)\n"
    )


def test_laws_boolean_requires_timed_trace(cli):
    code, _, err = cli("laws", FIG5, "--law", "distributivity", "--semantics", "boolean")
    assert code == 2
    assert "error: " in err


@pytest.mark.parametrize(
    "argv",
    [
        ("timepoints",),
        ("hb",),
        ("eval", "--formula", "a1", "--semantics", "boolean"),
        ("laws", "--law", "distributivity", "--semantics", "boolean"),
    ],
    ids=["timepoints", "hb", "eval-boolean", "laws-boolean"],
)
def test_invalid_timing_is_an_error(cli, tmp_path, argv):
    bad = tmp_path / "backwards.trace"
    bad.write_text(
        "site s : a1 a2\nsite t : b1\n"
        "time a1 = 2 .. 1\ntime a2 = 1 .. 3\ntime b1 = 0 .. 3\n"
    )
    code, out, err = cli(argv[0], str(bad), *argv[1:])
    assert (code, out) == (2, "")
    assert err == "error: process a1 has non-positive duration\n"


def test_unexpected_exception_is_one_error_line(cli, monkeypatch):
    def broken(args, out):
        raise KeyError("p9")

    monkeypatch.setitem(_COMMANDS, "lattice", broken)
    code, out, err = cli("lattice", MO2)
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: KeyError('p9')"]


def test_oracle_match(cli):
    code, out, _ = cli("oracle", MO2)
    assert (code, out) == (0, "match: fast enumeration = brute force (6 elements)\n")
    code, out, _ = cli("oracle", FIG7)
    assert (code, out) == (0, "match: fast enumeration = brute force (52 elements)\n")


def test_oracle_mismatch_lists_sets_in_canonical_order(cli, monkeypatch):
    """An enumeration that drops three closed sets and adds three sets that
    are not closed, in reverse order: both listings come out canonical."""

    def faulty(cs):
        dropped = {cs.mask_of(s) for s in (["q4"], ["p2"], ["p1", "p3"])}
        added = [cs.mask_of(s) for s in (["p3", "q1"], ["p1", "q4"], ["p1", "q1"])]
        kept = [m for m in reversed(enumerate_closed(cs).masks) if m not in dropped]
        return OrthoLattice(cs, tuple(kept + added))

    monkeypatch.setattr(cli_module, "enumerate_closed", faulty)
    code, out, err = cli("oracle", FIG7)
    assert (code, err) == (1, "")
    assert out == (
        "mismatch between fast enumeration and brute force\n"
        "  only-fast: {p1, q1}\n"
        "  only-fast: {p1, q4}\n"
        "  only-fast: {p3, q1}\n"
        "  only-brute: {p2}\n"
        "  only-brute: {q4}\n"
        "  only-brute: {p1, p3}\n"
    )


def test_oracle_process_limit(cli, tmp_path):
    code, out, _ = cli("gen", "--seed", "1", "--sites", "3", "--procs", "7", "--messages", "0")
    assert code == 0
    big = tmp_path / "big.trace"
    big.write_text(out)
    code, _, err = cli("oracle", str(big))
    assert code == 2
    assert "limited to 20 processes" in err


def test_gen_round_trips(cli):
    code, out, _ = cli("gen", "--seed", "11", "--sites", "2", "--procs", "3", "--messages", "2")
    assert code == 0
    trace = parse_trace(out)
    assert len(trace.sites) == 2
    assert len(trace.messages) == 2
    assert trace.timing is not None


def test_gen_is_deterministic(cli):
    first = cli("gen", "--seed", "4", "--sites", "3", "--procs", "2", "--messages", "1")
    second = cli("gen", "--seed", "4", "--sites", "3", "--procs", "2", "--messages", "1")
    assert first == second


def test_gen_budget_error(cli):
    code, _, err = cli("gen", "--seed", "1", "--sites", "1", "--procs", "3", "--messages", "5")
    assert code == 2
    assert "error: requested 5 messages" in err


def test_version(cli):
    code, out, _ = cli("--version")
    assert code == 0
    assert out.startswith("orthochron ")


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("frobnicate", MO2),
        ("eval", MO2),
        ("laws", MO2),
        ("laws", MO2, "--law", "associativity"),
        ("timepoints", FIG2, "--format", "dot"),
    ],
)
def test_usage_errors(cli, argv):
    code, _, err = cli(*argv)
    assert code == 2
    assert err


def test_output_is_byte_stable(cli):
    first = cli("lattice", FIG7, "--format", "json")
    second = cli("lattice", FIG7, "--format", "json")
    assert first == second


# valid requests, and requests that end inside argparse, sent between them
REQUESTS = [
    ("laws", FIG7, "--law", "distributivity"),
    ("laws", FIG2, "--law", "de-morgan", "--semantics", "boolean"),
    ("eval", FIG7, "--formula", "(p2 | p3) & q3", "--format", "json"),
    ("hb", FIG5),
    ("lattice", MO2, "--format", "dot", "--cap", "9"),
    ("oracle", FIG7),
    ("gen", "--seed", "1", "--sites", "2", "--procs", "2", "--messages", "1"),
]
PARSER_EXITS = [
    ("--help",),
    ("laws", "--help"),
    ("--version",),
    (),
    ("laws", MO2, "--law", "associativity"),
    ("eval", MO2),
    ("lattice", MO2, "--cap", "many"),
]


def test_main_builds_no_parser_after_the_first(cli, monkeypatch):
    cli(*REQUESTS[0])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in REQUESTS + PARSER_EXITS + REQUESTS:
        cli(*argv)
    assert built == []


def test_parser_exits_between_requests_change_no_bytes(cli, monkeypatch):
    sequence = [argv for pair in zip(REQUESTS, PARSER_EXITS) for argv in pair] * 2
    shared = [cli(*argv) for argv in sequence]
    # the same requests, each parsed by a parser built for it alone
    monkeypatch.setattr(cli_module, "_main_parser", build_parser)
    fresh = [cli(*argv) for argv in sequence]
    assert shared == fresh
    assert [code for code, _, _ in fresh] == [1, 0, 0, 0, 0, 0, 0, 2, 0, 2, 0, 2, 0, 2] * 2


def test_requests_leave_free_lists_for_no_collection_to_empty():
    """A full collection empties CPython's tuple free lists.  A tuple built
    from a generator starts at 10 slots and is shrunk to its size, so each
    request would move one tuple per size onto them; after 200 bursts a full
    collection would then reclaim hundreds of kilobytes."""
    burst = [
        ["laws", FIG7, "--law", "distributivity"],
        ["eval", FIG7, "--formula", "(p2 | p3) & q3"],
        ["hb", FIG7, "--format", "json"],
        ["oracle", FIG7],
    ]

    def send(count):
        for _ in range(count):
            for argv in burst:
                with contextlib.redirect_stdout(io.StringIO()):
                    main(argv)

    send(20)
    gc.collect()
    tracemalloc.start()
    try:
        send(200)
        before = tracemalloc.get_traced_memory()[0]
        gc.collect()
        reclaimed = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert reclaimed < 64 * 1024


def test_oracle_limit_states_the_bound(cli, tmp_path):
    code, out, _ = cli("gen", "--seed", "2", "--sites", "3", "--procs", "7", "--messages", "1")
    big = tmp_path / "big.trace"
    big.write_text(out)
    code, out, err = cli("oracle", str(big))
    assert (code, out) == (2, "")
    assert err == (
        "error: oracle tabulates all 2^P subsets and is limited to 20 processes, "
        "trace has 21\n"
    )


def test_oracle_at_the_process_limit_is_fast(cli, tmp_path):
    code, out, _ = cli("gen", "--seed", "3", "--sites", "4", "--procs", "5", "--messages", "4")
    trace = tmp_path / "twenty.trace"
    trace.write_text(out)
    started = time.perf_counter()
    code, out, _ = cli("oracle", str(trace))
    assert time.perf_counter() - started < 3.0
    assert code == 0
    assert out.startswith("match: fast enumeration = brute force (")


@pytest.mark.parametrize(
    "shape", [(s, n_sites, procs, s % 6) for s in range(1, 6) for n_sites, procs in
              ((1, 5), (2, 3), (2, 6), (3, 4), (4, 3))],
)
def test_oracle_matches_literal_reference_on_random_traces(shape):
    cs = happened_before(random_trace(*shape))
    assert cs.size <= 12
    assert closed_sets_by_definition(cs) == oracles.closed_sets_by_definition(cs)


@pytest.mark.parametrize("seed", range(8))
def test_oracle_reads_asymmetric_rows_literally(seed):
    """Rows and columns differ once causality is not symmetric, so the
    tabulated primes must use them the way the definition does."""
    rng = random.Random(seed)
    size = 6 + seed % 3
    names = tuple(f"p{k}" for k in range(size))
    rows = tuple(rng.getrandbits(size) for _ in range(size))
    cs = CausalStructure(names, (0,) * size, rows)
    assert any(cs.causally_related(a, b) != cs.causally_related(b, a)
               for a in cs.names for b in cs.names)
    assert closed_sets_by_definition(cs) == oracles.closed_sets_by_definition(cs)
