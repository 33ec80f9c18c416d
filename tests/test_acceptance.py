"""End-to-end acceptance checks, one test per shipped behavioral guarantee.

Each test wraps its assertions in ``criterion(...)``, which records exactly
one PASS or FAIL line in RESULTS; the terminal-summary hook in conftest
prints the collected lines after the run.
"""

import io
import time
from contextlib import contextmanager
from itertools import product

from orthochron import (
    close,
    compare_laws,
    enumerate_closed,
    eval_ortho,
    gen_random,
    happened_before,
    ortho,
    parse_formula,
    time_points,
    validate,
)
from orthochron.cli import build_parser, closed_sets_by_definition, run

from conftest import fixture_path, random_trace
from fig7_family import DOCUMENTED, EXTRA, FULL

RESULTS: list[str] = []

CORPUS_SHAPES = [
    (1, 1), (1, 3), (1, 6), (2, 2), (2, 3), (2, 4),
    (2, 6), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3),
]

FIG2_POINTS = [
    ["p1", "q1", "r1"],
    ["p1", "q2", "r1"],
    ["p2", "q2", "r1"],
    ["p2", "q2", "r2"],
    ["p2", "q3", "r2"],
    ["p3", "q3", "r2"],
    ["p3", "q4", "r2"],
    ["p3", "q4", "r3"],
    ["p4", "q4", "r3"],
    ["p4", "q5", "r3"],
]

MO2_ELEMENTS = [
    frozenset(),
    frozenset({"p1"}),
    frozenset({"p2"}),
    frozenset({"q1"}),
    frozenset({"q2"}),
    frozenset({"p1", "p2", "q1", "q2"}),
]


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        RESULTS.append(f"criterion {number} FAIL: {description}")
        raise
    RESULTS.append(f"criterion {number} PASS: {description}")


def run_command(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = run(build_parser().parse_args(argv), out=out, err=out)
    return code, out.getvalue()


_corpus_cache: list | None = None


def get_corpus():
    """200 generated traces with their causal structures and lattices,
    shapes cycled to stay within 4 sites, 12 processes and 6 messages."""
    global _corpus_cache
    if _corpus_cache is None:
        corpus = []
        for seed in range(1, 201):
            n_sites, procs = CORPUS_SHAPES[(seed - 1) % len(CORPUS_SHAPES)]
            trace = random_trace(seed, n_sites, procs, seed % 7)
            cs = happened_before(trace)
            corpus.append((seed, trace, cs, enumerate_closed(cs)))
        _corpus_cache = corpus
    return _corpus_cache


def test_criterion_01(fig2):
    with criterion(
        1, "three-site timed trace: ten time points in order, exact atom intervals (<1s)"
    ):
        started = time.perf_counter()
        timeline = time_points(fig2)
        assert timeline.member_lists() == FIG2_POINTS
        assert timeline.interval("p1") == {0, 1}
        assert timeline.interval("q1") == {0}
        assert timeline.interval("r1") == {0, 1, 2}
        path = str(fixture_path("fig2.trace"))
        code, out = run_command("timepoints", path)
        assert code == 0
        assert out.splitlines() == [
            f"T{i + 1}: " + " ".join(members) for i, members in enumerate(FIG2_POINTS)
        ]
        for atom, points in (
            ("p1", "{T1, T2}"),
            ("q1", "{T1}"),
            ("r1", "{T1, T2, T3}"),
        ):
            code, out = run_command("eval", path, "--formula", atom, "--semantics", "boolean")
            assert (code, out) == (0, points + "\n")
        assert time.perf_counter() - started < 1.0


def test_criterion_02(fig7):
    with criterion(
        2,
        "reconstructed four-message trace: all 51 documented closed sets, "
        "one forced extra (neighborhood of q1)",
    ):
        cs = happened_before(fig7)
        assert close(cs, {"p2", "p3"}) == {"p2", "p3", "q3"}
        assert close(cs, {"r1"}) == {"q1", "r1"}
        assert close(cs, {"r3"}) == {"q5", "r3"}
        family = set(enumerate_closed(cs).elements)
        assert set(DOCUMENTED) - family == set()
        assert family - set(DOCUMENTED) == {EXTRA}
        assert ortho(cs, {"q1"}) == cs.neighborhood("q1") == EXTRA
        assert family == FULL


def test_criterion_03(fig7):
    with criterion(
        3,
        "distributivity counterexample: (p2|p3)&q3 = {q3} but "
        "(p2&q3)|(p3&q3) = {}; laws exits 1",
    ):
        cs = happened_before(fig7)

        def value(source: str) -> frozenset[str]:
            return eval_ortho(parse_formula(source), cs)

        assert value("p2 | p3") == {"p2", "p3", "q3"}
        assert value("(p2 | p3) & q3") == {"q3"}
        assert value("p2 & q3") == frozenset()
        assert value("p3 & q3") == frozenset()
        assert value("(p2 & q3) | (p3 & q3)") == frozenset()
        code, out = run_command("laws", str(fixture_path("fig7.trace")), "--law", "distributivity")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "distributivity: counterexample"
        assert lines[1:4] == ["  a = {p1}", "  b = {q1}", "  c = {q2}"]


def test_criterion_04():
    with criterion(
        4,
        "200 generated traces: fast closed-set enumeration equals the "
        "brute-force subset filter on every one (<60s)",
    ):
        started = time.perf_counter()
        corpus = get_corpus()
        assert [seed for seed, *_ in corpus] == list(range(1, 201))
        for seed, trace, cs, lattice in corpus:
            assert len(trace.sites) <= 4, seed
            assert cs.size <= 12, seed
            assert len(trace.messages) <= 6, seed
            assert validate(trace) == [], seed
            assert set(lattice.elements) == closed_sets_by_definition(cs), seed
        assert time.perf_counter() - started < 60.0


def _assert_axioms(seed, cs, lattice):
    n = len(lattice.masks)
    masks = lattice.masks
    comp = lattice.complement
    down = lattice.downset_masks
    up = [0] * n
    for j in range(n):
        rest = down[j]
        while rest:
            low = rest & -rest
            up[low.bit_length() - 1] |= 1 << j
            rest ^= low
    position = {m: i for i, m in enumerate(masks)}
    assert masks[0] == 0 and masks[-1] == cs.full_mask, seed
    for i in range(n):
        assert comp[comp[i]] == i, seed
        assert lattice._meet_index(i, comp[i]) == 0, seed
        assert lattice._join_index(i, comp[i]) == n - 1, seed
        for j in range(n):
            assert masks[i] & masks[j] in position, seed
            assert (down[j] >> i & 1) == (down[comp[i]] >> comp[j] & 1), seed
            met = lattice._meet_index(i, j)
            joined = lattice._join_index(i, j)
            assert down[met] == down[i] & down[j], seed
            assert up[joined] == up[i] & up[j], seed
            assert comp[met] == lattice._join_index(comp[i], comp[j]), seed
            assert comp[joined] == lattice._meet_index(comp[i], comp[j]), seed


def test_criterion_05():
    with criterion(
        5,
        "every lattice from the 200-trace corpus passes the exhaustive "
        "ortholattice axiom sweep with zero violations",
    ):
        for seed, _, cs, lattice in get_corpus():
            _assert_axioms(seed, cs, lattice)


def test_criterion_06():
    with criterion(
        6,
        "single-site chains n = 1..6: exactly 2^n closed sets, complement = "
        "set complement, distributivity holds",
    ):
        for n in range(1, 7):
            trace = gen_random(n, 1, n, 0)
            cs = happened_before(trace)
            lattice = enumerate_closed(cs)
            names = frozenset(trace.processes)
            # 2^n distinct subsets of an n-process universe is the powerset
            assert len(lattice) == 2 ** n
            for members in lattice.elements:
                assert lattice.complement_of(members) == names - members
            assert lattice.check_laws("distributivity").holds


def test_criterion_07(mo2):
    with criterion(
        7,
        "two disconnected two-process sites: the six-element MO2 lattice, "
        "non-distributive, cross-site atom joins reach the top",
    ):
        lattice = enumerate_closed(happened_before(mo2))
        assert list(lattice.elements) == MO2_ELEMENTS
        assert not lattice.check_laws("distributivity").holds
        for p, q in product(("p1", "p2"), ("q1", "q2")):
            assert lattice.join({p}, {q}) == lattice.top


def test_criterion_08(fig5):
    with criterion(
        8,
        "round-trip message scenario: {x2} temporally contains y2 but {y2} "
        "does not contain x2",
    ):
        cs = happened_before(fig5)
        assert cs.temporally_contains({"x2"}, "y2") is True
        assert cs.temporally_contains({"y2"}, "x2") is False


def test_criterion_09(fig2):
    with criterion(
        9,
        "Boolean semantics: distributivity holds exhaustively over all 1728 "
        "atom triples (<5s)",
    ):
        started = time.perf_counter()
        result = compare_laws(time_points(fig2), ("(a | b) & c", "(a & c) | (b & c)"))
        assert result.holds and result.exhaustive
        assert result.checked == result.total == 1728
        assert time.perf_counter() - started < 5.0
