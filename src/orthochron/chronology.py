"""Timed-mode analysis: the time points, maximal cliques of the
simultaneity relation, in their linear order, and per-process intervals.

Two processes are simultaneous when their open time intervals overlap;
touching intervals (end of one equals start of the next) are not
simultaneous, so within a site simultaneity coincides with identity.
A time point is a maximal clique of the simultaneity relation.  Since the
relation is an interval graph, the cliques are found by one boundary sweep
and come out already sorted by the derived linear order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .trace_model import Trace, UntimedTraceError


@dataclass(frozen=True)
class TimeLine:
    """Time points (member sets) in their linear order plus the process
    names in ordinal order, for deterministic rendering."""

    points: tuple[frozenset[str], ...]
    process_order: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def _rank(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.process_order)}

    def sorted_members(self, index: int) -> list[str]:
        return sorted(self.points[index], key=self._rank.__getitem__)

    def member_lists(self) -> list[list[str]]:
        return [self.sorted_members(i) for i in range(len(self.points))]

    def interval(self, name: str) -> frozenset[int]:
        if name not in self._rank:
            raise ValueError(f"unknown process {name!r}")
        return frozenset(i for i, point in enumerate(self.points) if name in point)


def time_points(trace: Trace) -> TimeLine:
    """Sweep the interval boundaries and emit every maximal simultaneity
    clique, in the derived linear order.

    At equal instants, interval ends are processed before starts, so touching
    intervals are never co-active.  A clique is emitted just before the first
    removal that follows at least one insertion; for interval graphs this
    yields exactly the maximal cliques, each once, ordered by their common
    overlap window.  A ``Trace``'s timing is total by construction; raises
    ValueError naming the first process whose interval does not end after
    it starts.
    """
    if trace.timing is None:
        raise UntimedTraceError("operation requires a timed trace")
    ticks = trace.ticks
    names = trace.processes
    events = []
    for i, name in enumerate(names):
        start, end = ticks[name]
        if end <= start:
            raise ValueError(f"process {name} has non-positive duration")
        events.append((end, 0, i))
        events.append((start, 1, i))
    events.sort()

    active: set[int] = set()
    grew = False
    cliques: list[frozenset[str]] = []
    for _, kind, i in events:
        if kind == 1:
            active.add(i)
            grew = True
        else:
            if grew:
                cliques.append(frozenset(map(names.__getitem__, active)))
                grew = False
            active.remove(i)
    return TimeLine(tuple(cliques), names)

