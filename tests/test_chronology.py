import hypothesis
import hypothesis.strategies as st
import pytest

from orthochron import (
    UntimedTraceError,
    parse_trace,
    simultaneity,
    simultaneous,
    time_points,
)
from orthochron.chronology import earlier

from conftest import random_trace
from oracles import brute_time_points

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


def test_fig2_time_points_in_order(fig2):
    assert time_points(fig2).member_lists() == FIG2_POINTS


def test_fig2_intervals(fig2):
    timeline = time_points(fig2)
    assert timeline.interval("p1") == {0, 1}
    assert timeline.interval("q1") == {0}
    assert timeline.interval("r1") == {0, 1, 2}
    assert timeline.interval("q5") == {9}


def test_single_site_gives_singleton_points(single_site):
    assert time_points(single_site).member_lists() == [["a"], ["b"], ["c"]]


def test_touching_intervals_are_not_simultaneous():
    trace = parse_trace(
        "site x : a\nsite y : b\ntime a = 0 .. 1\ntime b = 1 .. 2\n"
    )
    assert earlier(trace, "a", "b")
    assert not simultaneous(trace, "a", "b")
    assert time_points(trace).member_lists() == [["a"], ["b"]]


def test_overlapping_intervals_are_simultaneous():
    trace = parse_trace(
        "site x : a\nsite y : b\ntime a = 0 .. 2\ntime b = 1 .. 3\n"
    )
    assert simultaneous(trace, "a", "b")
    assert not earlier(trace, "a", "b")
    assert not earlier(trace, "b", "a")
    assert time_points(trace).member_lists() == [["a", "b"]]


def test_simultaneity_is_reflexive_and_symmetric(fig2):
    relation = simultaneity(fig2)
    for a in fig2.names:
        assert a in relation[a]
        for b in relation[a]:
            assert a in relation[b]


def test_simultaneity_is_not_transitive(fig2):
    # q1 overlaps r1 and r1 overlaps q2, but q1 only touches q2
    assert simultaneous(fig2, "q1", "r1")
    assert simultaneous(fig2, "r1", "q2")
    assert not simultaneous(fig2, "q1", "q2")


def test_ragged_site_spans():
    trace = parse_trace(
        "site x : a\nsite y : b\ntime a = 0 .. 1\ntime b = 5 .. 6\n"
    )
    assert time_points(trace).member_lists() == [["a"], ["b"]]


def test_untimed_trace_is_rejected(fig5):
    with pytest.raises(UntimedTraceError):
        time_points(fig5)
    with pytest.raises(UntimedTraceError):
        simultaneous(fig5, "x1", "y1")


def test_unknown_process_interval(fig2):
    with pytest.raises(KeyError):
        time_points(fig2).interval("nope")


def _check_linear_order(trace, timeline):
    # emitted order is the derived order: some member of the earlier point
    # precedes some member of the later one, and never the other way round
    points = [set(point) for point in timeline]
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            forward = any(
                earlier(trace, p, q)
                for p in points[i] - points[j]
                for q in points[j] - points[i]
            )
            backward = any(
                earlier(trace, q, p)
                for p in points[i] - points[j]
                for q in points[j] - points[i]
            )
            assert forward and not backward


@hypothesis.given(st.integers(min_value=1, max_value=10**9))
def test_sweep_matches_brute_force_cliques(seed):
    trace = random_trace(seed, seed % 3 + 1, seed % 3 + 1, seed % 4)
    timeline = time_points(trace)
    assert set(timeline) == brute_time_points(trace)
    assert len(set(timeline)) == len(timeline)


@hypothesis.given(st.integers(min_value=1, max_value=10**9))
def test_time_point_shape_invariants(seed):
    trace = random_trace(seed, seed % 4 + 1, seed % 3 + 1, seed % 4)
    timeline = time_points(trace)
    covered = set()
    for index in range(len(timeline)):
        members = timeline[index]
        sites = [trace.process(name).site_index for name in members]
        assert len(sites) == len(set(sites))
        covered |= members
    assert covered == set(trace.names)
    _check_linear_order(trace, timeline)


@hypothesis.given(st.integers(min_value=1, max_value=10**9))
def test_intervals_are_contiguous_runs(seed):
    trace = random_trace(seed, seed % 3 + 1, seed % 4 + 1, seed % 3)
    timeline = time_points(trace)
    for name in trace.names:
        indices = sorted(timeline.interval(name))
        assert indices
        assert indices == list(range(indices[0], indices[-1] + 1))
