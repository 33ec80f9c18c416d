from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import pytest

from orthochron import UntimedTraceError, happened_before, parse_trace, time_points, validate
from orthochron.trace_model import Trace

from conftest import random_trace, rational_traces
from oracles import brute_time_points, earlier

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
    assert time_points(trace).member_lists() == [["a"], ["b"]]


def test_overlapping_intervals_are_simultaneous():
    trace = parse_trace(
        "site x : a\nsite y : b\ntime a = 0 .. 2\ntime b = 1 .. 3\n"
    )
    assert time_points(trace).member_lists() == [["a", "b"]]


def test_simultaneity_is_not_transitive(fig2):
    # q1 overlaps r1 and r1 overlaps q2, but q1 only touches q2
    timeline = time_points(fig2)
    assert timeline.interval("q1") & timeline.interval("r1")
    assert timeline.interval("r1") & timeline.interval("q2")
    assert not timeline.interval("q1") & timeline.interval("q2")


def test_ragged_site_spans():
    trace = parse_trace(
        "site x : a\nsite y : b\ntime a = 0 .. 1\ntime b = 5 .. 6\n"
    )
    assert time_points(trace).member_lists() == [["a"], ["b"]]


def test_untimed_trace_is_rejected(fig5):
    with pytest.raises(UntimedTraceError):
        time_points(fig5)


@pytest.mark.parametrize("span", [(1, 1), (2, 1)])
def test_non_positive_duration_is_a_value_error(fig2, span):
    # only a directly built Trace can hold such timing; the CLI loader rejects it
    trace = Trace(fig2.sites, fig2.messages, {**fig2.timing, "p1": tuple(map(Fraction, span))})
    with pytest.raises(ValueError, match="^process p1 has non-positive duration$"):
        time_points(trace)


def test_missing_time_entry_is_a_value_error(fig2):
    # a Trace with partial timing cannot be built, so time_points never sees one
    timing = {name: span for name, span in fig2.timing.items() if name != "p1"}
    with pytest.raises(ValueError, match="^partial timing: no entry for 'p1'$"):
        Trace(fig2.sites, fig2.messages, timing)


def test_unknown_process_interval(fig2):
    with pytest.raises(ValueError, match="^unknown process 'nope'$"):
        time_points(fig2).interval("nope")


def _check_linear_order(trace, timeline):
    # emitted order is the derived order: some member of the earlier point
    # precedes some member of the later one, and never the other way round
    points = [set(point) for point in timeline.points]
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
    assert set(timeline.points) == brute_time_points(trace)
    assert len(set(timeline.points)) == len(timeline)


@hypothesis.given(rational_traces(tiled=True))
def test_sweep_on_non_decimal_and_negative_times(trace):
    timeline = time_points(trace)
    assert set(timeline.points) == brute_time_points(trace)
    assert len(set(timeline.points)) == len(timeline)
    _check_linear_order(trace, timeline)


@hypothesis.given(st.integers(min_value=1, max_value=10**9))
def test_time_point_shape_invariants(seed):
    trace = random_trace(seed, seed % 4 + 1, seed % 3 + 1, seed % 4)
    timeline = time_points(trace)
    site_of = {name: i for i, site in enumerate(trace.sites) for name in site.processes}
    covered = set()
    for members in timeline.points:
        sites = [site_of[name] for name in members]
        assert len(sites) == len(set(sites))
        covered |= members
    assert covered == set(trace.processes)
    _check_linear_order(trace, timeline)


@hypothesis.given(st.integers(min_value=1, max_value=10**9))
def test_intervals_are_contiguous_runs(seed):
    trace = random_trace(seed, seed % 3 + 1, seed % 4 + 1, seed % 3)
    timeline = time_points(trace)
    for name in trace.processes:
        indices = sorted(timeline.interval(name))
        assert indices
        assert indices == list(range(indices[0], indices[-1] + 1))


def _check_points_are_antichains(trace):
    # causally related processes are disjoint in time, so no time point
    # holds two of them
    cs = happened_before(trace)
    for point in time_points(trace).points:
        members = cs.mask_of(point)
        for name in point:
            assert cs.causality_masks[cs.ordinal(name)] & members == 0


@hypothesis.given(st.integers(min_value=1, max_value=10**9))
def test_time_points_are_causal_antichains(seed):
    _check_points_are_antichains(random_trace(seed, seed % 3 + 2, seed % 4 + 2, seed % 7))


@hypothesis.given(rational_traces(tiled=True))
def test_rational_time_points_are_causal_antichains(trace):
    hypothesis.assume(validate(trace) == [])
    _check_points_are_antichains(trace)
