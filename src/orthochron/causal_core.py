"""Causal structure of a trace: the happened-before strict partial order
(same-site succession, messages, transitivity) and the symmetric causality
relation it induces.

Process sets are handled as integer bitmasks indexed by process ordinal,
a name's index in ``Trace.processes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable

from .trace_model import Trace


class CycleError(ValueError):
    """The order/message edges of a trace admit a causal cycle."""

    def __init__(self, edges: list[tuple[str, str]]):
        chain = " -> ".join([a for a, _ in edges] + [edges[0][0]])
        super().__init__(f"causal cycle: {chain}")
        self.edges = edges


class _Ordinals(dict):
    """Process name -> ordinal; an unknown name raises ValueError."""

    def __missing__(self, name: str) -> int:
        raise ValueError(f"unknown process {name!r}")


@dataclass(frozen=True)
class CausalStructure:
    """Bitmask rows of happened-before and of the causality relation over the
    process names, in ordinal order.  ``happened_before`` makes causality
    irreflexive and symmetric; ``enumerate_closed`` refuses rows that are not."""

    names: tuple[str, ...]
    before_masks: tuple[int, ...]
    causality_masks: tuple[int, ...]

    @cached_property
    def _ordinals(self) -> _Ordinals:
        return _Ordinals(zip(self.names, range(len(self.names))))

    @cached_property
    def _twin_classes(self) -> dict[int, int]:
        """Each distinct causality row, with the mask of the processes that have it."""
        classes: dict[int, int] = {}
        for i, row in enumerate(self.causality_masks):
            classes[row] = classes.get(row, 0) | 1 << i
        return classes

    @cached_property
    def _orthogonal(self) -> bool:
        """Whether causality, one row per process, is irreflexive and symmetric:
        over the distinct rows, none holds a process of its twin class c or past
        the last, and each q it holds has all of c in its row.
        ``happened_before`` fills this in."""
        rows, processes = self.causality_masks, range(len(self.names))
        return len(rows) == len(processes) and all(
            not (row & c or row >> len(rows))
            and all(rows[q] & c == c for q in compress(processes, _selectors(row)))
            for row, c in self._twin_classes.items()
        )

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.names)) - 1

    def ordinal(self, name: str) -> int:
        return self._ordinals[name]

    def mask_of(self, members: Iterable[str]) -> int:
        mask = 0
        for name in members:
            mask |= 1 << self._ordinals[name]
        return mask

    def names_of(self, mask: int) -> frozenset[str]:
        return frozenset(compress(self.names, _selectors(mask)))

    def sorted_names_of(self, mask: int) -> list[str]:
        return _selected(self.names, mask)

    def causally_related(self, p: str, q: str) -> bool:
        """Happened-before in either direction; irreflexive and symmetric."""
        return bool(self.causality_masks[self.ordinal(p)] >> self.ordinal(q) & 1)

    def neighborhood(self, p: str) -> frozenset[str]:
        """All processes causally related to p."""
        return self.names_of(self.causality_masks[self.ordinal(p)])

    def temporally_contains(self, covers: Iterable[str], r: str) -> bool:
        """True when every process causally related to all of ``covers`` is
        causally related to ``r``; rejects an empty cover set."""
        cover_list = list(covers)
        if not cover_list:
            raise ValueError("covers must be non-empty")
        premise = self.full_mask
        for q in cover_list:
            premise &= self.causality_masks[self.ordinal(q)]
        return premise & ~self.causality_masks[self.ordinal(r)] == 0


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _selectors(mask: int) -> bytes:
    """One byte per ordinal, lowest first: 1 where the mask has the bit."""
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


def _selected(items: tuple[str, ...], mask: int) -> list[str]:
    """The items at the mask's bits, lowest first: found bit by bit when the
    mask holds at most one in eight of the items, else by ``compress``."""
    if mask.bit_count() * 8 > len(items):
        return list(compress(items, _selectors(mask)))
    out = []
    while mask:
        low = mask & -mask
        out.append(items[low.bit_length() - 1])
        mask ^= low
    return out


def _topological_order(n: int, direct: list[list[int]]) -> list[int]:
    indegree = [0] * n
    for succs in direct:
        for j in succs:
            indegree[j] += 1
    order = [i for i in range(n) if indegree[i] == 0]
    cursor = 0
    while cursor < len(order):
        for j in direct[order[cursor]]:
            indegree[j] -= 1
            if indegree[j] == 0:
                order.append(j)
        cursor += 1
    return order


def _find_cycle(
    names: tuple[str, ...], direct: list[list[int]], leftover: set[int]
) -> list[tuple[str, str]]:
    # every leftover node keeps an unprocessed predecessor, so walking
    # predecessors inside the leftover set must revisit a node
    preds: dict[int, list[int]] = {i: [] for i in leftover}
    for a in leftover:
        for b in direct[a]:
            if b in leftover:
                preds[b].append(a)
    node = min(leftover)
    path = [node]
    position = {node: 0}
    while True:
        node = min(preds[node])
        if node in position:
            tail = path[position[node] :]
            nodes = [tail[0]] + tail[1:][::-1]
            closed = nodes + [nodes[0]]
            return [(names[a], names[b]) for a, b in zip(closed, closed[1:])]
        position[node] = len(path)
        path.append(node)


def happened_before(trace: Trace) -> CausalStructure:
    """Build the happened-before order of a trace, or raise CycleError with
    one cycle's edge list if the relation is not acyclic.  A ``Trace`` is
    well formed by construction, so every edge joins two of its processes."""
    names = trace.processes
    n = len(names)
    index = {name: i for i, name in enumerate(names)}
    direct: list[list[int]] = [[] for _ in range(n)]
    for site in trace.sites:
        for a, b in zip(site.processes, site.processes[1:]):
            direct[index[a]].append(index[b])
    for message in trace.messages:
        direct[index[message.sender]].append(index[message.receiver])

    order = _topological_order(n, direct)
    if len(order) < n:
        leftover = set(range(n)) - set(order)
        raise CycleError(_find_cycle(names, direct, leftover))

    reach = [0] * n
    for i in reversed(order):
        acc = 0
        for j in direct[i]:
            acc |= (1 << j) | reach[j]
        reach[i] = acc
    ancestors = [0] * n
    for i in order:
        for j in direct[i]:
            ancestors[j] |= ancestors[i] | 1 << i
    causality = tuple([r | a for r, a in zip(reach, ancestors)])
    structure = CausalStructure(names, tuple(reach), causality)
    # the slot cached_property fills: a strict order's comparability is orthogonal
    structure.__dict__["_orthogonal"] = True
    return structure
