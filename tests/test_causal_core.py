import dataclasses
import itertools
import random

import hypothesis
import hypothesis.strategies as st
import pytest

from orthochron import CycleError, happened_before, parse_trace
from orthochron.causal_core import CausalStructure
from orthochron.trace_model import Message, Site, Trace

from conftest import random_trace
from oracles import barrier_trace, bit_indices, brute_happened_before, orthogonal, twins_trace, untimed_trace

FIG5_ORDER = {
    ("x1", "x2"), ("x1", "x3"), ("x2", "x3"),
    ("y1", "y2"), ("y1", "y3"), ("y2", "y3"),
    ("x1", "y2"), ("x1", "y3"), ("y1", "x3"), ("y2", "x3"),
}


def _pairs(cs):
    return {
        (a, b)
        for a in cs.names
        for b in cs.names
        if cs.before_masks[cs.ordinal(a)] >> cs.ordinal(b) & 1
    }


def test_single_site_total_order(single_site):
    cs = happened_before(single_site)
    assert _pairs(cs) == {("a", "b"), ("a", "c"), ("b", "c")}


def test_two_sites_without_messages_are_causally_disjoint(mo2):
    cs = happened_before(mo2)
    assert _pairs(cs) == {("p1", "p2"), ("q1", "q2")}
    assert not cs.causally_related("p1", "q1")
    assert cs.neighborhood("p1") == {"p2"}


def test_fig5_round_trip_order(fig5):
    assert _pairs(happened_before(fig5)) == FIG5_ORDER


def test_causality_is_irreflexive_and_symmetric(fig5):
    cs = happened_before(fig5)
    for a in cs.names:
        assert not cs.causally_related(a, a)
        for b in cs.names:
            assert cs.causally_related(a, b) == cs.causally_related(b, a)


def test_fig5_cross_site_causality(fig5):
    cs = happened_before(fig5)
    assert cs.causally_related("x1", "y2")
    assert not cs.causally_related("x2", "y2")
    assert cs.neighborhood("x2") == {"x1", "x3"}


def test_same_site_processes_are_always_related(fig7):
    cs = happened_before(fig7)
    for site in fig7.sites:
        for a, b in itertools.combinations(site.processes, 2):
            assert cs.causally_related(a, b)


def test_temporal_containment_round_trip(fig5):
    cs = happened_before(fig5)
    assert cs.temporally_contains({"x2"}, "y2")
    assert not cs.temporally_contains({"y2"}, "x2")


def test_temporal_containment_is_reflexive(fig7):
    cs = happened_before(fig7)
    for name in cs.names:
        assert cs.temporally_contains({name}, name)


def test_temporal_containment_rejects_empty_covers(fig5):
    with pytest.raises(ValueError):
        happened_before(fig5).temporally_contains([], "x1")


def test_single_site_containment_is_membership(single_site):
    # with every set closed, containment collapses to r in covers
    cs = happened_before(single_site)
    for p in cs.names:
        for q in cs.names:
            assert cs.temporally_contains({p}, q) == (p == q)
            for r in cs.names:
                assert cs.temporally_contains({p, q}, r) == (r in {p, q})


def test_cycle_detection():
    text = "site x : a1 a2\nsite y : b1 b2\nmsg a2 -> b1\nmsg b2 -> a1\n"
    with pytest.raises(CycleError) as excinfo:
        happened_before(parse_trace(text))
    edges = excinfo.value.edges
    assert len(edges) >= 2
    for (_, head), (tail, _) in zip(edges, edges[1:]):
        assert head == tail
    assert edges[-1][1] == edges[0][0]
    assert str(excinfo.value).startswith("causal cycle: ")


def test_two_message_cycle():
    text = "site x : a\nsite y : b\nmsg a -> b\nmsg b -> a\n"
    with pytest.raises(CycleError) as excinfo:
        happened_before(parse_trace(text))
    assert str(excinfo.value) in ("causal cycle: a -> b -> a", "causal cycle: b -> a -> b")


def test_duplicate_names_rejected():
    site_x = Site("x", ("a",))
    site_y = Site("y", ("a",))
    with pytest.raises(ValueError):
        happened_before(Trace((site_x, site_y)))


def test_unknown_message_endpoint_rejected():
    site_x = Site("x", ("a",))
    site_y = Site("y", ("b",))
    ghost = Message("a", "ghost")
    with pytest.raises(ValueError, match="^message endpoint ghost is not a process of this trace$"):
        happened_before(Trace((site_x, site_y), (ghost,)))


def test_intra_site_message_rejected():
    # a hand-built Trace is checked on construction, before happened_before
    site_x = Site("x", ("a", "b"))
    with pytest.raises(ValueError, match="^intra-site message a -> b$"):
        happened_before(Trace((site_x, Site("y", ("c",))), (Message("a", "b"),)))


def test_mask_round_trip(fig7):
    cs = happened_before(fig7)
    mask = cs.mask_of(["q3", "p1"])
    assert cs.names_of(mask) == {"p1", "q3"}
    assert cs.sorted_names_of(mask) == ["p1", "q3"]
    assert cs.ordinal("p1") == 0


@hypothesis.given(st.integers(min_value=1, max_value=10**9))
def test_matches_fixpoint_closure_oracle(seed):
    trace = random_trace(seed, seed % 4 + 1, seed % 3 + 1, seed % 6)
    cs = happened_before(trace)
    before = brute_happened_before(trace)
    assert _pairs(cs) == before
    causality = {(a, b) for a in cs.names for b in cs.names if cs.causally_related(a, b)}
    assert causality == before | {(b, a) for a, b in before}


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.sampled_from(["timed", "untimed", "twins", "barrier"]), st.integers(0, 10**6))
def test_happened_before_rows_are_orthogonal(kind, seed):
    """happened_before fills in _orthogonal without checking it; a copy made
    by dataclasses.replace checks its rows, and they are irreflexive and
    symmetric."""
    rng = random.Random(seed)
    if kind == "twins":
        trace = twins_trace(rng.randint(1, 6), rng.randint(0, 8))
    elif kind == "barrier":
        trace = barrier_trace(rng.randint(2, 5), rng.randint(1, 7))
    else:
        make = random_trace if kind == "timed" else untimed_trace
        trace = make(seed, rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 8))
    cs = happened_before(trace)
    assert cs.__dict__["_orthogonal"] is True
    copy = dataclasses.replace(cs)
    assert "_orthogonal" not in copy.__dict__
    assert copy._orthogonal is True and orthogonal(cs)


@hypothesis.given(st.integers(min_value=1, max_value=10**9))
def test_order_is_strict_and_transitive(seed):
    trace = random_trace(seed, seed % 3 + 1, seed % 4 + 1, seed % 5)
    cs = happened_before(trace)
    pairs = _pairs(cs)
    for a, b in pairs:
        assert a != b
        for c, d in pairs:
            if b == c:
                assert (a, d) in pairs


@hypothesis.given(st.integers(min_value=1, max_value=10**9))
def test_containment_is_monotone_in_covers(seed):
    trace = random_trace(seed, seed % 3 + 2, seed % 3 + 1, seed % 5)
    cs = happened_before(trace)
    names = list(cs.names)
    covers = {names[seed % len(names)]}
    wider = covers | {names[(seed // 7) % len(names)]}
    for r in names:
        if cs.temporally_contains(covers, r):
            assert cs.temporally_contains(wider, r)


@pytest.mark.parametrize("size", [1, 7, 64, 1300])
def test_mask_decoding_matches_bit_indices(size):
    cs = CausalStructure(tuple(f"p{i}" for i in range(size)), (), ())
    rng = random.Random(size)
    sparse = [rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size) for _ in range(20)]
    dense = [rng.getrandbits(size) | rng.getrandbits(size) for _ in range(20)]
    for mask in [0, cs.full_mask, *(1 << i for i in range(size)), *sparse, *dense]:
        expected = [cs.names[i] for i in bit_indices(mask)]
        assert cs.sorted_names_of(mask) == expected
        assert cs.names_of(mask) == frozenset(expected)
