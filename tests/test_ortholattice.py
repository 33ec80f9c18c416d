import dataclasses
import random
import time

import hypothesis
import hypothesis.strategies as st
import pytest

from orthochron import (
    CapExceededError,
    CausalStructure,
    close,
    enumerate_closed,
    gen_random,
    happened_before,
    is_closed,
    ortho,
    parse_trace,
)
from orthochron.ortholattice import (
    LAWS,
    LawCheck,
    OrthoLattice,
    _boolean,
    _canonical_order,
    format_members,
    ortho_mask,
)

from conftest import load_fixture, random_trace
from fig7_family import DOCUMENTED, EXTRA, FULL
from oracles import (
    REFERENCE_SCANS,
    barrier_lattice,
    barrier_trace,
    brute_closed_family,
    brute_covers,
    brute_ortho,
    canonical_key,
    certified,
    generator_covers,
    next_closure,
    orthogonal,
    twins_lattice,
    twins_trace,
    untimed_trace,
)
from test_acceptance import get_corpus

MO2_ELEMENTS = (
    frozenset(),
    frozenset({"p1"}),
    frozenset({"p2"}),
    frozenset({"q1"}),
    frozenset({"q2"}),
    frozenset({"p1", "p2", "q1", "q2"}),
)

MO2_HASSE = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 5), (3, 5), (4, 5)]


@pytest.fixture(scope="module")
def mo2_lattice(mo2):
    return enumerate_closed(happened_before(mo2))


@pytest.fixture(scope="module")
def fig7_lattice(fig7):
    return enumerate_closed(happened_before(fig7))


def test_ortho_of_extremes(mo2):
    cs = happened_before(mo2)
    everyone = set(cs.names)
    assert ortho(cs, set()) == everyone
    assert ortho(cs, everyone) == set()


def test_ortho_in_single_site(single_site):
    cs = happened_before(single_site)
    assert ortho(cs, {"a"}) == {"b", "c"}
    assert brute_ortho(cs, {"a"}) == {"b", "c"}


def test_close_examples(mo2, fig7):
    cs = happened_before(mo2)
    assert close(cs, set()) == set()
    assert close(cs, {"p1", "q1"}) == {"p1", "p2", "q1", "q2"}
    cs7 = happened_before(fig7)
    assert close(cs7, {"p2", "p3"}) == {"p2", "p3", "q3"}
    assert close(cs7, {"r1"}) == {"q1", "r1"}
    assert close(cs7, {"r3"}) == {"q5", "r3"}


_UNKNOWN_PROCESS_CALLS = {
    "ortho": lambda cs, lat: ortho(cs, {"p1", "ghost"}),
    "close": lambda cs, lat: close(cs, {"ghost"}),
    "is_closed": lambda cs, lat: is_closed(cs, {"ghost"}),
    "index_of": lambda cs, lat: lat.index_of({"ghost"}),
    "meet": lambda cs, lat: lat.meet(set(), {"ghost"}),
    "join": lambda cs, lat: lat.join({"ghost"}, set()),
    "complement_of": lambda cs, lat: lat.complement_of({"ghost"}),
    "causally_related": lambda cs, lat: cs.causally_related("p1", "ghost"),
    "neighborhood": lambda cs, lat: cs.neighborhood("ghost"),
    "temporally_contains": lambda cs, lat: cs.temporally_contains(["p1"], "ghost"),
    "mask_of": lambda cs, lat: cs.mask_of(["ghost"]),
    "ordinal": lambda cs, lat: cs.ordinal("ghost"),
}


@pytest.mark.parametrize("call", _UNKNOWN_PROCESS_CALLS)
def test_unknown_process_names_raise_value_error(fig7_lattice, call):
    with pytest.raises(ValueError, match="^unknown process 'ghost'$"):
        _UNKNOWN_PROCESS_CALLS[call](fig7_lattice.structure, fig7_lattice)


def test_is_closed_examples(fig7):
    cs = happened_before(fig7)
    assert is_closed(cs, set(cs.names))
    assert is_closed(cs, {"q2", "q3", "q4", "r2"})
    assert not is_closed(cs, {"p2", "p3"})


def test_family_is_not_union_closed(fig7):
    cs = happened_before(fig7)
    assert is_closed(cs, {"p1"})
    assert is_closed(cs, {"q1"})
    assert not is_closed(cs, {"p1", "q1"})


def test_mo2_enumeration(mo2_lattice):
    assert mo2_lattice.elements == MO2_ELEMENTS
    assert mo2_lattice.bottom == frozenset()
    assert mo2_lattice.top == frozenset({"p1", "p2", "q1", "q2"})


def test_fig7_enumeration(fig7_lattice):
    elements = set(fig7_lattice.elements)
    assert len(fig7_lattice) == 52
    assert elements == FULL
    assert set(DOCUMENTED) <= elements
    assert elements - set(DOCUMENTED) == {EXTRA}


def test_fig7_extra_element_is_a_neighborhood(fig7):
    # the one element beyond the documented family is forced: it is the
    # orthocomplement of {q1}, and orthocomplements are always closed
    cs = happened_before(fig7)
    assert ortho(cs, {"q1"}) == EXTRA
    assert cs.neighborhood("q1") == EXTRA
    assert is_closed(cs, EXTRA)


def test_canonical_element_order(fig7_lattice):
    cs = fig7_lattice.structure
    keys = [
        (len(members), sorted(cs.ordinal(x) for x in members))
        for members in fig7_lattice.elements
    ]
    assert keys == sorted(keys)


# the key pads each mask to whole bytes, so cross byte boundaries too
@pytest.mark.parametrize("width", [*range(1, 41), 63, 64, 65, 127, 128, 129, 560])
def test_int_key_sorts_as_the_ordinal_key(width):
    rng = random.Random(width)
    full = (1 << width) - 1
    for _ in range(20):
        family = {0, full, *(1 << i for i in range(width))}
        family.update(rng.getrandbits(width) & rng.getrandbits(width) for _ in range(rng.randint(0, 60)))
        family.update(rng.getrandbits(width) | rng.getrandbits(width) for _ in range(rng.randint(0, 60)))
        assert _canonical_order(family, width) == tuple(sorted(family, key=canonical_key))


def _masks_by_ordinal_key(trace):
    lattice = enumerate_closed(happened_before(trace))
    return lattice.masks, tuple(sorted(lattice.masks, key=canonical_key))


@pytest.mark.parametrize("name", ["fig2.trace", "fig5.trace", "fig7.trace", "mo2.trace", "single-site.trace"])
def test_masks_in_ordinal_key_order_on_fixtures(name):
    masks, expected = _masks_by_ordinal_key(load_fixture(name))
    assert masks == expected


@pytest.mark.parametrize("seed", range(1, 13))
def test_masks_in_ordinal_key_order_on_random_traces(seed):
    masks, expected = _masks_by_ordinal_key(random_trace(seed, seed % 4 + 2, seed % 3 + 2, seed % 5))
    assert masks == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_single_site_powerset(n):
    names = " ".join(f"a{i}" for i in range(1, n + 1))
    trace = parse_trace(f"site s : {names}\n")
    lattice = enumerate_closed(happened_before(trace))
    assert len(lattice) == 2**n
    everyone = set(trace.processes)
    for members in lattice.elements:
        assert lattice.complement_of(members) == everyone - members
    assert lattice.check_laws("distributivity").holds


def test_meet_and_join_identities(fig7_lattice):
    top = fig7_lattice.top
    bottom = fig7_lattice.bottom
    for members in fig7_lattice.elements:
        assert fig7_lattice.meet(members, top) == members
        assert fig7_lattice.join(members, bottom) == members
        other = fig7_lattice.complement_of(members)
        assert fig7_lattice.complement_of(other) == members
        assert fig7_lattice.meet(members, other) == bottom
        assert fig7_lattice.join(members, other) == top


def test_fig7_meet_and_join(fig7_lattice):
    assert fig7_lattice.meet({"p2"}, {"q3"}) == frozenset()
    assert fig7_lattice.join({"p2"}, {"p3"}) == {"p2", "p3", "q3"}


def test_join_is_least_closed_superset(mo2_lattice, fig7_lattice):
    cases = [
        (mo2_lattice, mo2_lattice.elements),
        (fig7_lattice, fig7_lattice.elements[:16]),
    ]
    for lattice, sample in cases:
        for a in sample:
            for b in sample:
                joined = lattice.join(a, b)
                assert a | b <= joined
                for c in lattice.elements:
                    if a | b <= c:
                        assert joined <= c


def test_meet_is_greatest_lower_bound(mo2_lattice):
    for a in mo2_lattice.elements:
        for b in mo2_lattice.elements:
            met = mo2_lattice.meet(a, b)
            assert met <= a and met <= b
            for c in mo2_lattice.elements:
                if c <= a and c <= b:
                    assert c <= met


def test_index_of_rejects_unclosed_sets(fig7_lattice):
    with pytest.raises(ValueError):
        fig7_lattice.index_of({"p2", "p3"})


def test_hasse_edges_two_element_lattice():
    lattice = enumerate_closed(happened_before(parse_trace("site s : a\n")))
    assert lattice.hasse_edges() == [(0, 1)]


def test_hasse_edges_mo2(mo2_lattice):
    assert mo2_lattice.hasse_edges() == MO2_HASSE


def test_hasse_edges_are_covers(fig7_lattice):
    elements = fig7_lattice.elements
    for a, b in fig7_lattice.hasse_edges():
        assert elements[a] < elements[b]
        for c in elements:
            assert not (elements[a] < c < elements[b])


COVER_SHAPES = [(2, 4), (3, 3), (2, 5), (3, 4), (4, 3), (2, 6)]


def _cover_case(kind, seed):
    if kind == "boolean":
        return gen_random(seed, 1, seed, 0)
    n_sites, procs = COVER_SHAPES[seed % len(COVER_SHAPES)]
    if kind == "timed":
        return random_trace(seed, n_sites, procs, seed % 7)
    return untimed_trace(seed + 100, n_sites, procs, seed % 7)


@pytest.mark.parametrize("kind", ["timed", "untimed", "boolean"])
@pytest.mark.parametrize("seed", range(1, 8))
def test_hasse_edges_match_brute_covers(kind, seed):
    cs = happened_before(_cover_case(kind, seed))
    lattice = enumerate_closed(cs)
    expected = [
        (lattice.index_of(a), lattice.index_of(b))
        for a, b in brute_covers(brute_closed_family(cs))
    ]
    assert lattice.hasse_edges() == sorted(expected)


def _assert_boolean_of_blocks(trace, blocks, closed_form):
    """The closed sets and the covers equal ``closed_form``, the
    ``block_lattice`` of ``blocks`` blocks, and every law holds."""
    lattice = enumerate_closed(happened_before(trace))
    family, covers = closed_form
    elements = lattice.elements
    assert len(elements) == 2**blocks and set(elements) == family
    edges = lattice.hasse_edges()
    assert len(edges) == blocks * 2 ** (blocks - 1)
    assert {(elements[a], elements[b]) for a, b in edges} == covers
    for law in LAWS:
        assert lattice.check_laws(law).holds, law


@pytest.mark.parametrize("n_sites, rounds", [(40, 8), (100, 6), (200, 10)])
def test_barrier_rounds_give_the_boolean_algebra_of_rounds(n_sites, rounds):
    """320, 600 and 2,000 processes, far past the brute-force oracles: the
    closed sets, the covers and every law verdict match the closed form."""
    _assert_boolean_of_blocks(barrier_trace(n_sites, rounds), rounds, barrier_lattice(n_sites, rounds))


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(st.integers(1, 6), st.integers(0, 8))
def test_twins_match_brute_force(k, m):
    """Up to 14 processes, of which the m one-process sites are twins: the
    family and the covers equal the oracles'."""
    cs = happened_before(twins_trace(k, m))
    lattice = enumerate_closed(cs)
    family = brute_closed_family(cs)
    assert lattice.masks == tuple(sorted(map(cs.mask_of, family), key=canonical_key))
    expected = [(lattice.index_of(a), lattice.index_of(b)) for a, b in brute_covers(family)]
    assert lattice.hasse_edges() == sorted(expected)


def test_twins_give_the_boolean_algebra_of_blocks():
    """510 processes, far past the brute-force oracles, of which 500 are
    twins: the closed sets are the 2^11 unions of the 11 blocks of
    "concurrent or equal", the covers add one block, and every law holds."""
    _assert_boolean_of_blocks(twins_trace(10, 500), 11, twins_lattice(10, 500))


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def test_hasse_edges_boolean_2048():
    lattice = enumerate_closed(happened_before(gen_random(11, 1, 11, 0)))
    assert len(lattice) == 2**11
    edges = lattice.hasse_edges()
    assert len(edges) == 11 * 2**10
    # reference: a strict subset that is not inside another strict subset
    down = lattice.downset_masks
    reference = []
    for b in range(len(lattice)):
        strict = down[b] & ~(1 << b)
        shadowed = 0
        for c in _bits(strict):
            shadowed |= down[c] & ~(1 << c)
        reference += [(a, b) for a in _bits(strict & ~shadowed)]
    assert edges == sorted(reference)


@st.composite
def orthogonal_rows(draw, n):
    """n hand-built causality rows made irreflexive and symmetric: bit q of
    row p is drawn once for each pair p < q."""
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    return tuple(
        sum(((rows[min(p, q)] >> max(p, q)) & 1) << q for q in range(n) if q != p) for p in range(n)
    )


@st.composite
def cover_lattices(draw):
    """The lattice of a small timed (gen_random), untimed, twins or barrier
    trace, or of hand-built irreflexive symmetric causality rows: at most 128
    elements, so that ``brute_covers`` runs."""
    kind = draw(st.sampled_from(["timed", "untimed", "twins", "barrier", "rows"]))
    if kind == "rows":
        n = draw(st.integers(2, 5))
        names = tuple(f"p{i}" for i in range(n))
        return enumerate_closed(CausalStructure(names, (0,) * n, draw(orthogonal_rows(n))))
    if kind == "twins":
        trace = twins_trace(draw(st.integers(1, 6)), draw(st.integers(0, 8)))
    elif kind == "barrier":
        trace = barrier_trace(draw(st.integers(2, 5)), draw(st.integers(1, 7)))
    else:
        make = random_trace if kind == "timed" else untimed_trace
        shape = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 8))
        trace = make(draw(st.integers(0, 10**6)), *shape)
    try:
        return enumerate_closed(happened_before(trace), cap=128)
    except CapExceededError:
        hypothesis.reject()


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(cover_lattices())
def test_mirrored_covers_are_brute_covers(lattice):
    """The covers searched over the upper half and mirrored through the
    complement are the per-generator search's, and each mirrored edge, whose
    upper end b has |b| < |~b|, is a cover by comparing every triple."""
    edges = lattice.hasse_edges()
    assert edges == generator_covers(lattice)
    masks, comp, elements = lattice.masks, lattice.complement, lattice.elements
    mirrored = {
        (elements[a], elements[b]) for a, b in edges if masks[b].bit_count() < masks[comp[b]].bit_count()
    }
    assert mirrored <= brute_covers(set(elements))


NOT_CERTIFIED = "Hasse covers are found only on the closed-set lattice of a causal structure"


def test_hasse_edges_need_an_involutive_complement(fig7_lattice):
    """fig7 with the unclosed {p1, q1} added, in canonical order: the rows are
    orthogonal, the top is full and every m & N_p is an element, but the
    complement is not an involution, so no cover is mirrored."""
    cs = fig7_lattice.structure
    family = _canonical_order(fig7_lattice.masks + (cs.mask_of({"p1", "q1"}),), cs.size)
    unclosed = OrthoLattice(cs, family)
    assert set(family) >= {m & row for m in family for row in cs.causality_masks}
    assert any(unclosed.complement[c] != i for i, c in enumerate(unclosed.complement))
    assert not unclosed._certified and not certified(unclosed)
    for export in (unclosed.hasse_edges, unclosed.to_dot, unclosed.to_json_dict):
        with pytest.raises(ValueError, match=f"^{NOT_CERTIFIED}$"):
            export()


def test_hasse_edges_need_symmetric_rows():
    """c relates to a, but a not to c: the family {}, {a}, {b, c}, {a, b, c}
    has a complement that is an involution, yet ~z is not the set of
    processes whose rows hold z, so the complement test would drop the covers
    {} < {b, c} and {a} < {a, b, c}.  enumerate_closed refuses the rows, and
    the family built by hand fails the certificate, so its exports raise."""
    cs = CausalStructure(("a", "b", "c"), (0, 0, 0), (0b110, 0b001, 0b111))
    with pytest.raises(ValueError, match="^closed sets are enumerated only over one irreflexive, symmetric"):
        enumerate_closed(cs)
    lattice = OrthoLattice(cs, (0, 0b001, 0b110, 0b111))
    assert all(lattice.complement[c] == i for i, c in enumerate(lattice.complement))
    assert generator_covers(lattice) == [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert not lattice._certified and not certified(lattice)
    for export in (lattice.hasse_edges, lattice.to_dot, lattice.to_json_dict):
        with pytest.raises(ValueError, match=f"^{NOT_CERTIFIED}$"):
            export()


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(st.integers(1, 6), st.integers(0, 8))
def test_twin_skipping_complement_on_twins(k, m):
    """The complement ANDs one row per twin class; it is the quantified
    orthocomplement of every element."""
    cs = happened_before(twins_trace(k, m))
    lattice = enumerate_closed(cs)
    for element, c in zip(lattice.elements, lattice.complement):
        assert lattice.elements[c] == brute_ortho(cs, element)


@pytest.mark.parametrize("trace", [twins_trace(10, 500), barrier_trace(40, 6)], ids=["twins-10-500", "barrier-40-6"])
def test_twin_skipping_complement_past_the_brute_force(trace):
    """510 and 240 processes in 11 and 6 twin classes: each complement is the
    member-by-member ``ortho_mask``."""
    cs = happened_before(trace)
    lattice = enumerate_closed(cs)
    assert [lattice.masks[c] for c in lattice.complement] == [ortho_mask(cs, m) for m in lattice.masks]


def test_check_laws_fig7(fig7_lattice):
    assert fig7_lattice.check_laws("ortholattice-axioms").holds
    assert fig7_lattice.check_laws("de-morgan").holds

    result = fig7_lattice.check_laws("distributivity")
    assert not result.holds
    assert result.counterexample == (
        frozenset({"p1"}),
        frozenset({"q1"}),
        frozenset({"q2"}),
    )
    assert result.detail == "(a | b) & c = {q2} but (a & c) | (b & c) = {}"

    ortho_result = fig7_lattice.check_laws("orthomodularity")
    assert not ortho_result.holds
    assert ortho_result.counterexample == (
        frozenset({"p1"}),
        frozenset({"p1", "q1", "q2"}),
    )
    assert ortho_result.detail == (
        "a <= b but a | (~a & b) = {p1} != b at a = {p1}, b = {p1, q1, q2}"
    )


def test_check_laws_mo2(mo2_lattice):
    assert mo2_lattice.check_laws("ortholattice-axioms").holds
    assert mo2_lattice.check_laws("de-morgan").holds
    assert mo2_lattice.check_laws("orthomodularity").holds

    result = mo2_lattice.check_laws("distributivity")
    assert not result.holds
    assert result.counterexample == (
        frozenset({"p1"}),
        frozenset({"p2"}),
        frozenset({"q1"}),
    )
    assert result.detail == "(a | b) & c = {q1} but (a & c) | (b & c) = {}"


def _reference_check(lattice, law):
    failure = REFERENCE_SCANS[law](lattice)
    if failure is None:
        return LawCheck(law, True)
    indices, detail = failure
    return LawCheck(law, False, tuple(lattice.elements[i] for i in indices), detail)


def _law_case(kind, n):
    if kind == "fixture":
        return load_fixture(n)
    if kind == "boolean":
        return gen_random(n, 1, n, 0)
    if kind == "nondistributive":
        return random_trace(n, 2 + n % 2, 3 + n % 2, n % 4)
    return random_trace(n, 2 + n % 3, 2 + n % 3, n % 4)


LAW_CASES = (
    [("fixture", "fig7.trace"), ("fixture", "mo2.trace")]
    + [("boolean", n) for n in range(1, 9)]
    + [("nondistributive", seed) for seed in range(1, 33)]
    + [("mixed", seed) for seed in range(1, 13)]
)


@pytest.mark.parametrize("kind, n", LAW_CASES)
def test_check_laws_match_reference_scans(kind, n):
    lattice = enumerate_closed(happened_before(_law_case(kind, n)))
    assert lattice._certified and certified(lattice)
    for law in LAWS:
        if law == "distributivity" and len(lattice) > 128:
            # a Boolean algebra is distributive; the reference scan needs ~15 s here
            expected = LawCheck(law, True)
        else:
            expected = _reference_check(lattice, law)
        assert lattice.check_laws(law) == expected
        if kind == "nondistributive" and law == "distributivity":
            assert not expected.holds


def test_distributive_lattices_have_power_of_two_size():
    """A distributive ortholattice is Boolean, so every lattice the
    distributivity check passes has a power-of-two size."""
    lattices = [lattice for *_, lattice in get_corpus()]
    lattices += [enumerate_closed(happened_before(_law_case(kind, n))) for kind, n in LAW_CASES]
    sizes = [len(lattice) for lattice in lattices if lattice.check_laws("distributivity").holds]
    assert len(sizes) > len(LAW_CASES) // 4
    assert all(size & (size - 1) == 0 for size in sizes)


@st.composite
def small_lattices(draw):
    """Closed-set lattices of at most 128 elements: random traces of two to
    four sites, timed (gen_random) and untimed, twins traces (chains when
    m = 0) and barrier rounds."""
    kind = draw(st.sampled_from([random_trace, untimed_trace, twins_trace, barrier_trace]))
    if kind is twins_trace:
        trace = twins_trace(draw(st.integers(1, 5)), draw(st.integers(0, 5)))
    elif kind is barrier_trace:
        trace = barrier_trace(draw(st.integers(2, 4)), draw(st.integers(1, 6)))
    else:
        shape = (draw(st.integers(2, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 8)))
        trace = kind(draw(st.integers(0, 10**6)), *shape)
    lattice = enumerate_closed(happened_before(trace))
    hypothesis.assume(len(lattice) <= 128)
    return lattice


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(small_lattices())
def test_distributivity_matches_reference_scan(lattice):
    """The verdict and triple are the reference scan's, and the decision alone
    already knows the verdict, even where a process lies in no atom."""
    law = "distributivity"
    expected = _reference_check(lattice, law)
    assert lattice.check_laws(law) == expected
    assert _boolean(lattice) == expected.holds


# three sites without messages: 16 elements, orthomodular but not Boolean
THREE_SITES = "site x : a b c\nsite y : d e f\nsite z : g h\n"


def test_distributivity_reads_no_covers(monkeypatch):
    def no_covers(self):
        raise AssertionError("hasse_edges called")

    monkeypatch.setattr(OrthoLattice, "hasse_edges", no_covers)
    # a 12-process chain (4,096 sets) and 8 barrier rounds (256 sets) are Boolean
    for trace in (gen_random(12, 1, 12, 0), barrier_trace(40, 8)):
        assert enumerate_closed(happened_before(trace)).check_laws("distributivity").holds
    lattice = enumerate_closed(happened_before(parse_trace(THREE_SITES)))
    assert len(lattice) == 16
    result = lattice.check_laws("distributivity")
    assert not result.holds
    assert result == _reference_check(lattice, "distributivity")
    monkeypatch.undo()
    assert lattice.check_laws("orthomodularity").holds


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(small_lattices())
def test_orthomodularity_matches_reference_scan(lattice):
    """The verdict and pair are the reference scan's, whether the scan of the
    first rows, the covers or the resumed scan decides."""
    law = "orthomodularity"
    assert lattice.check_laws(law) == _reference_check(lattice, law)


def _spy_on_covers(monkeypatch):
    """The sizes of the lattices whose hasse_edges is called, in call order."""
    calls = []
    hasse_edges = OrthoLattice.hasse_edges

    def spy(self):
        calls.append(len(self))
        return hasse_edges(self)

    monkeypatch.setattr(OrthoLattice, "hasse_edges", spy)
    return calls


def test_orthomodularity_reads_covers_only_past_the_first_rows(monkeypatch, fig7):
    calls = _spy_on_covers(monkeypatch)
    # fig7 fails at its element 1, inside the rows scanned first
    result = enumerate_closed(happened_before(fig7)).check_laws("orthomodularity")
    assert result.counterexample == (frozenset({"p1"}), frozenset({"p1", "q1", "q2"}))
    assert calls == []
    # 11 barrier rounds: a Boolean algebra of 2,048 sets, decided on its covers
    assert enumerate_closed(happened_before(barrier_trace(40, 11))).check_laws("orthomodularity").holds
    assert calls == [2048]


def _k8_beside_fig5_twins(fig5):
    """a0 ... a7 pairwise related (K8), and beside them fig5's six processes,
    each doubled into two twins related as in fig5; nothing is related across
    the parts.  The closed sets are those of the two parts glued at the bottom
    and the top: 2 + 254 + 12 = 268 elements over 14 distinct rows."""
    k = 8
    names = [f"a{i}" for i in range(k)] + [f"{p}{t}" for p in fig5.names for t in "ab"]
    rows = [((1 << k) - 1) & ~(1 << i) for i in range(k)]
    for row in fig5.causality_masks:
        twins = sum(0b11 << (k + 2 * q) for q in range(fig5.size) if row >> q & 1)
        rows += [twins, twins]
    return CausalStructure(tuple(names), (0,) * len(names), tuple(rows))


def test_orthomodularity_resumes_the_scan_where_a_cover_fails(monkeypatch, fig5):
    """The K8 part is Boolean and comes first in canonical order, so the first
    rows scanned hold; fig5's part fails on a cover, and the scan resumes for
    the reference's first pair, past the 268 * 14 = 3,752 pairs scanned first."""
    lattice = enumerate_closed(_k8_beside_fig5_twins(happened_before(fig5)))
    assert (len(lattice), len(lattice.structure._twin_classes)) == (268, 14)
    calls = _spy_on_covers(monkeypatch)
    result = lattice.check_laws("orthomodularity")
    assert calls == [268]
    assert REFERENCE_SCANS["orthomodularity"](lattice)[0] == (37, 167)
    assert result == _reference_check(lattice, "orthomodularity")
    assert result.detail == (
        "a <= b but a | (~a & b) = {x1a, x1b} != b at a = {x1a, x1b}, b = {x1a, x1b, y1a, y1b}"
    )


def test_failing_verdicts_name_only_their_elements(fig7):
    lattice = enumerate_closed(happened_before(fig7))
    for law in ("distributivity", "orthomodularity"):
        assert not lattice.check_laws(law).holds
    assert "elements" not in lattice.__dict__


def test_distributivity_where_the_axioms_fail():
    """A reflexive structure built by hand, a related to itself: its closed
    sets {}, {a}, {a, b} fail {a} & ~{a} = {}.  enumerate_closed refuses the
    rows, and the family built by hand gets no verdict on any law."""
    cs = CausalStructure(("a", "b"), (0, 0), (0b01, 0b00))
    with pytest.raises(ValueError, match="^closed sets are enumerated only over one irreflexive, symmetric"):
        enumerate_closed(cs)
    lattice = OrthoLattice(cs, (0, 0b01, 0b11))
    assert lattice.masks[1] & lattice.masks[lattice.complement[1]] == 0b01
    assert not lattice._certified and not certified(lattice)
    for law in LAWS:
        with pytest.raises(ValueError, match=f"^{law} is decided only on the closed-set"):
            lattice.check_laws(law)


def test_check_laws_reject_uncertified_lattices(mo2_lattice, fig7_lattice):
    # fig7 with the unclosed {p1, q1} added: the complement is not an involution
    cs = fig7_lattice.structure
    unclosed = OrthoLattice(cs, _canonical_order(fig7_lattice.masks + (cs.mask_of({"p1", "q1"}),), cs.size))
    # only the bottom and the top of mo2: not closed under meeting a neighbourhood
    mo2 = mo2_lattice.structure
    ends = OrthoLattice(mo2, (0, mo2.full_mask))
    # mo2's bottom, {p1} and top: the orthocomplement of {p1} is missing too
    partial = OrthoLattice(mo2, (0, mo2.mask_of({"p1"}), mo2.full_mask))
    for lattice in (unclosed, ends, partial):
        assert not lattice._certified and not certified(lattice)
        for law in LAWS:
            with pytest.raises(ValueError, match=f"^{law} is decided only on the closed-set"):
                lattice.check_laws(law)


def test_hand_built_families_raise_value_errors(mo2_lattice, fig7_lattice):
    """Only mo2's bottom and top: every complement is an element, but the top
    meets a neighbourhood outside the family.  mo2's closed sets reversed, and
    fig7's with all but the top shuffled, hold every closed set but not in
    canonical order, which the cover search reads.  mo2's closed sets with a
    set past its processes, or a negative mask, added.  mo2's bottom, {p1, p2},
    {p2, q1} and top: not closed under meets.  All six fail the certificate,
    so the exports, every law, meet, join and complement_of raise ValueError,
    and an empty family raises it at construction; none raises KeyError or
    IndexError or returns wrong covers or a wrong join.  The complement of a
    family with a bit past the processes names the element instead of
    reading past the rows."""
    mo2, fig7 = mo2_lattice.structure, fig7_lattice.structure
    body = list(fig7_lattice.masks[:-1])
    random.Random(7).shuffle(body)
    lattices = (
        OrthoLattice(mo2, (0, mo2.full_mask)),
        OrthoLattice(mo2, mo2_lattice.masks[::-1]),
        OrthoLattice(fig7, (*body, fig7.full_mask)),
        OrthoLattice(mo2, (*mo2_lattice.masks[:-1], 1 << 20, mo2.full_mask)),
        OrthoLattice(mo2, (-1, *mo2_lattice.masks)),
        OrthoLattice(mo2, (0, 0b0011, 0b0110, mo2.full_mask)),
    )
    for lattice in lattices:
        assert not lattice._certified and not certified(lattice)
        for export in (lattice.hasse_edges, lattice.to_dot, lattice.to_json_dict):
            with pytest.raises(ValueError, match=f"^{NOT_CERTIFIED}$"):
                export()
        for law in LAWS:
            with pytest.raises(ValueError, match=f"^{law} is decided only on the closed-set"):
                lattice.check_laws(law)
        a, b = lattice.elements[1], lattice.elements[-2]
        for operation in (lambda: lattice.meet(a, b), lambda: lattice.join(a, b), lambda: lattice.complement_of(a)):
            with pytest.raises(ValueError, match="^meets, joins and complements are taken only on the closed-set"):
                operation()
    for masks, index in (((0, 1 << 20, mo2.full_mask), 1), ((-1, 0, mo2.full_mask), 0)):
        with pytest.raises(ValueError, match=f"^element {index}, mask {masks[index]}, is not a set of this structure's processes$"):
            OrthoLattice(mo2, masks).complement
    with pytest.raises(ValueError, match="^an ortholattice needs a nonempty family$"):
        OrthoLattice(mo2, ())


def test_enumerated_lattices_are_closed_by_construction(fig7_lattice):
    """enumerate_closed fills in the certificate, and happened_before the
    orthogonality it rests on; a copy made by dataclasses.replace is
    hand-built and pays the full check."""
    lattice = enumerate_closed(fig7_lattice.structure)
    assert lattice.__dict__["_certified"] is True
    assert lattice.structure.__dict__["_orthogonal"] is True
    copy = dataclasses.replace(lattice)
    assert "_certified" not in copy.__dict__
    assert copy._certified and copy.__dict__["_certified"] is True
    assert lattice._certified and certified(lattice)


@st.composite
def certificate_cases(draw):
    """The lattice of a small timed (gen_random), untimed, barrier or twins
    trace, or of hand-built irreflexive symmetric rows on 1-5 processes; or,
    on a coin, a hand-built family: that lattice with up to three sets dropped
    and three arbitrary ones added, if any set is left, in canonical order,
    with all but the last shuffled, or all shuffled."""
    kind = draw(st.sampled_from(["timed", "untimed", "barrier", "twins", "rows"]))
    if kind == "rows":
        n = draw(st.integers(1, 5))
        cs = CausalStructure(tuple(f"p{i}" for i in range(n)), (0,) * n, draw(orthogonal_rows(n)))
    else:
        if kind == "twins":
            trace = twins_trace(draw(st.integers(1, 5)), draw(st.integers(0, 6)))
        elif kind == "barrier":
            trace = barrier_trace(draw(st.integers(2, 4)), draw(st.integers(1, 6)))
        else:
            make = random_trace if kind == "timed" else untimed_trace
            shape = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 8))
            trace = make(draw(st.integers(0, 10**6)), *shape)
        cs = happened_before(trace)
    try:
        lattice = enumerate_closed(cs, cap=128)
    except CapExceededError:
        hypothesis.reject()
    if not draw(st.booleans()):
        return lattice
    closed = set(lattice.masks)
    dropped = draw(st.sets(st.sampled_from(sorted(closed)), max_size=3))
    added = draw(st.sets(st.integers(0, cs.full_mask), max_size=3))
    family = sorted((closed - dropped) | added, key=canonical_key)
    # an empty family raises at construction
    hypothesis.assume(family)
    order = draw(st.sampled_from(["canonical", "body", "all"]))
    if order == "body":
        family = draw(st.permutations(family[:-1])) + family[-1:]
    elif order == "all":
        family = draw(st.permutations(family))
    return OrthoLattice(cs, tuple(family))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(certificate_cases())
def test_certificate_is_the_full_check(lattice):
    """The certificate, which trusts enumerate_closed, gives the oracle's full
    verdict on enumerated lattices and hand-built families alike."""
    assert lattice._certified == certified(lattice)


@st.composite
def hand_built_rows(draw):
    """Rows on 1-5 processes, made symmetric, made irreflexive, given a bit
    past the last process and cut short by one on drawn coins."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    if draw(st.booleans()):
        rows = [row | sum((rows[q] >> p & 1) << q for q in range(n)) for p, row in enumerate(rows)]
    if draw(st.booleans()):
        rows = [row & ~(1 << p) for p, row in enumerate(rows)]
    if draw(st.integers(0, 3)) == 0:
        rows[draw(st.integers(0, n - 1))] |= 1 << n
    if draw(st.integers(0, 3)) == 0:
        rows.pop()
    return CausalStructure(tuple(f"p{i}" for i in range(n)), (0,) * n, tuple(rows))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(hand_built_rows())
def test_enumerate_closed_refuses_rows_that_are_not_orthogonal(cs):
    """The check over the distinct rows is the bit-by-bit one, and
    enumerate_closed raises ValueError exactly where it fails."""
    assert cs._orthogonal == orthogonal(cs)
    if cs._orthogonal:
        assert certified(enumerate_closed(cs))
    else:
        with pytest.raises(ValueError, match="^closed sets are enumerated only over one irreflexive, symmetric"):
            enumerate_closed(cs)


def test_law_decisions_scale():
    boolean_512 = enumerate_closed(happened_before(gen_random(9, 1, 9, 0)))
    start = time.perf_counter()
    assert boolean_512.check_laws("distributivity").holds
    assert time.perf_counter() - start < 2
    boolean_2048 = enumerate_closed(happened_before(gen_random(11, 1, 11, 0)))
    start = time.perf_counter()
    assert boolean_2048.check_laws("de-morgan").holds
    assert time.perf_counter() - start < 1


def test_first_distributivity_counterexample_scale():
    # 2,290 elements: the exhaustive triple scan takes several seconds to this triple
    lattice = enumerate_closed(happened_before(gen_random(3, 6, 8, 10)))
    start = time.perf_counter()
    result = lattice.check_laws("distributivity")
    assert time.perf_counter() - start < 2
    assert result.counterexample == (
        frozenset({"s1p1"}),
        frozenset({"s2p1"}),
        frozenset({"s1p2"}),
    )
    assert result.detail == "(a | b) & c = {s1p2} but (a & c) | (b & c) = {}"


def test_check_laws_rejects_unknown_law(mo2_lattice):
    with pytest.raises(ValueError):
        mo2_lattice.check_laws("modularity")


def test_cap_guard(fig2):
    cs = happened_before(fig2)
    with pytest.raises(CapExceededError) as excinfo:
        enumerate_closed(cs, cap=3)
    assert excinfo.value.cap == 3
    assert excinfo.value.count > 3
    with pytest.raises(ValueError):
        enumerate_closed(cs, cap=0)
    lattice = enumerate_closed(cs)
    assert len(lattice) == 52
    assert enumerate_closed(cs, cap=len(lattice)).masks == lattice.masks
    with pytest.raises(CapExceededError) as excinfo:
        enumerate_closed(cs, cap=len(lattice) - 1)
    assert excinfo.value.count == len(lattice)


@pytest.mark.parametrize(
    "trace",
    [
        load_fixture("fig2.trace"),
        *(random_trace(seed, 3, 3, seed) for seed in range(1, 5)),
        twins_trace(3, 4),
        barrier_trace(3, 4),
    ],
    ids=["fig2", *(f"random{seed}" for seed in range(1, 5)), "twins-3-4", "barrier-3-4"],
)
def test_cap_boundary_of_each_pass(trace):
    """Every cap: the count is the seed family's size when the seeds exceed
    the cap, else cap + 1, as if sets were added one at a time; at the
    family's size nothing is cut.  Twins and barrier rounds have fewer
    distinct rows than processes (7 and 12 processes, 4 rows each), so the
    seeds are the distinct rows and the full set; the family is NextClosure's
    on every shape."""
    cs = happened_before(trace)
    masks = enumerate_closed(cs).masks
    assert masks == tuple(sorted(next_closure(cs), key=canonical_key))
    n = len(masks)
    seeds = len({cs.full_mask, *cs.causality_masks})
    for cap in range(1, n):
        with pytest.raises(CapExceededError) as excinfo:
            enumerate_closed(cs, cap=cap)
        assert excinfo.value.count == (seeds if cap < seeds else cap + 1), cap
    assert enumerate_closed(cs, cap=n).masks == masks


def test_enumeration_matches_brute_force_on_fixtures(fig2, fig5, mo2, single_site):
    for trace in (fig2, fig5, mo2, single_site):
        cs = happened_before(trace)
        lattice = enumerate_closed(cs)
        assert set(lattice.elements) == brute_closed_family(cs)


def test_mo2_json_export(mo2_lattice):
    payload = mo2_lattice.to_json_dict()
    assert payload == {
        "elements": [[], ["p1"], ["p2"], ["q1"], ["q2"], ["p1", "p2", "q1", "q2"]],
        "complement": [5, 2, 1, 4, 3, 0],
        "hasse": [[0, 1], [0, 2], [0, 3], [0, 4], [1, 5], [2, 5], [3, 5], [4, 5]],
    }


def test_mo2_dot_export(mo2_lattice):
    dot = mo2_lattice.to_dot()
    assert dot.startswith("digraph")
    assert "rankdir=BT" in dot
    assert 'n0 [label="{}"];' in dot
    assert 'n5 [label="{p1, p2, q1, q2}"];' in dot
    assert "n0 -> n1;" in dot


def test_format_members():
    assert format_members([]) == "{}"
    assert format_members(["p1", "q1"]) == "{p1, q1}"


def _random_subset(names, seed):
    rng = random.Random(seed)
    return {name for name in names if rng.random() < 0.5}


@hypothesis.given(st.integers(min_value=1, max_value=10**9))
def test_close_is_a_closure_operator(seed):
    trace = random_trace(seed, seed % 3 + 1, seed % 3 + 1, seed % 5)
    cs = happened_before(trace)
    a = _random_subset(cs.names, seed)
    b = a | _random_subset(cs.names, seed + 1)
    # extensive, monotone, idempotent
    assert a <= close(cs, a)
    assert close(cs, a) <= close(cs, b)
    assert close(cs, close(cs, a)) == close(cs, a)


@hypothesis.given(st.integers(min_value=1, max_value=10**9))
def test_ortho_is_antitone_with_triple_collapse(seed):
    trace = random_trace(seed, seed % 3 + 1, seed % 3 + 1, seed % 4)
    cs = happened_before(trace)
    a = _random_subset(cs.names, seed)
    b = a | _random_subset(cs.names, seed + 1)
    assert ortho(cs, b) <= ortho(cs, a)
    assert ortho(cs, ortho(cs, ortho(cs, a))) == ortho(cs, a)
    assert is_closed(cs, ortho(cs, a))
    assert ortho(cs, a) == brute_ortho(cs, a)


@hypothesis.given(st.integers(min_value=1, max_value=10**9))
def test_enumeration_matches_brute_force_on_random_traces(seed):
    trace = random_trace(seed, seed % 2 + 1, seed % 3 + 1, seed % 4)
    cs = happened_before(trace)
    lattice = enumerate_closed(cs)
    assert set(lattice.elements) == brute_closed_family(cs)
    assert lattice._certified and certified(lattice)


@st.composite
def wide_closed_sets(draw):
    """The structure of a random trace of 21-40 processes, timed (gen_random)
    or untimed, and its closed sets, at most 4,000 of them."""
    kind = draw(st.sampled_from([random_trace, untimed_trace]))
    n_sites = draw(st.integers(5, 8))
    procs = draw(st.integers(-(-21 // n_sites), min(6, 40 // n_sites)))
    n_messages = draw(st.integers(0, 3 * n_sites * procs))
    cs = happened_before(kind(draw(st.integers(0, 10**6)), n_sites, procs, n_messages))
    try:
        return cs, enumerate_closed(cs, cap=4000)
    except CapExceededError:
        hypothesis.reject()


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(wide_closed_sets())
def test_enumeration_matches_next_closure_past_20_processes(case):
    """Past the brute-force oracles: the family is NextClosure's and the covers
    are the per-generator search's; up to 300 elements the covers are also the
    brute-force covers of that family, up to 1,000 each complement is the
    quantified orthocomplement, and up to 128 every law verdict is the
    reference scan's."""
    cs, lattice = case
    family = next_closure(cs)
    assert lattice.masks == tuple(sorted(family, key=canonical_key))
    edges = lattice.hasse_edges()
    assert edges == generator_covers(lattice)
    if len(lattice) <= 300:
        covers = brute_covers({cs.names_of(m) for m in family})
        assert edges == sorted((lattice.index_of(a), lattice.index_of(b)) for a, b in covers)
    if len(lattice) <= 1000:
        for element, c in zip(lattice.elements, lattice.complement):
            assert lattice.elements[c] == brute_ortho(cs, element)
    if len(lattice) <= 128:
        for law in LAWS:
            assert lattice.check_laws(law) == _reference_check(lattice, law)


@hypothesis.given(st.integers(min_value=1, max_value=10**9))
def test_family_is_intersection_closed(seed):
    trace = random_trace(seed, seed % 3 + 1, seed % 3 + 1, seed % 5)
    lattice = enumerate_closed(happened_before(trace))
    elements = set(lattice.elements)
    for a in elements:
        for b in elements:
            assert a & b in elements
