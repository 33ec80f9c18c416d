import random

import hypothesis
import hypothesis.strategies as st
import pytest

from orthochron import (
    CapExceededError,
    close,
    enumerate_closed,
    happened_before,
    is_closed,
    ortho,
    parse_trace,
)
from orthochron.ortholattice import format_members

from conftest import random_trace
from fig7_family import DOCUMENTED, EXTRA, FULL
from oracles import brute_closed_family, brute_ortho

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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_single_site_powerset(n):
    names = " ".join(f"a{i}" for i in range(1, n + 1))
    trace = parse_trace(f"site s : {names}\n")
    lattice = enumerate_closed(happened_before(trace))
    assert len(lattice) == 2**n
    everyone = set(trace.names)
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


@hypothesis.given(st.integers(min_value=1, max_value=10**9))
def test_family_is_intersection_closed(seed):
    trace = random_trace(seed, seed % 3 + 1, seed % 3 + 1, seed % 5)
    lattice = enumerate_closed(happened_before(trace))
    elements = set(lattice.elements)
    for a in elements:
        for b in elements:
            assert a & b in elements
