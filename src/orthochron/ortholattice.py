"""Bi-orthogonally closed process sets over a causal structure, and the
finite ortholattice they form.

The orthocomplement of a set is the intersection of the causality
neighborhoods of its members (the empty intersection being the full process
set).  Every orthocomplement is itself closed, so the closed sets are
exactly the intersection closure of the neighborhoods together with the
full set: a Moore family, enumerated by a pairwise-intersection worklist.

Meet is set intersection; join is the orthocomplement of the meet of the
orthocomplements, equivalently the least closed superset of the union.
Elements are kept in canonical order: by cardinality, then lexicographically
by sorted member ordinals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .causal_core import CausalStructure, _bit_indices

__all__ = [
    "DEFAULT_CAP",
    "CapExceededError",
    "LawCheck",
    "LAWS",
    "OrthoLattice",
    "ortho",
    "ortho_mask",
    "close",
    "is_closed",
    "enumerate_closed",
    "format_members",
]

DEFAULT_CAP = 1_000_000


class CapExceededError(RuntimeError):
    """Closed-set enumeration grew past the configured cap."""

    def __init__(self, cap: int, count: int):
        super().__init__(
            f"closed-set enumeration exceeded cap {cap} (reached {count} elements)"
        )
        self.cap = cap
        self.count = count


def ortho_mask(cs: CausalStructure, mask: int) -> int:
    """Orthocomplement at the bitmask level."""
    out = cs.full_mask
    rest = mask
    while rest:
        low = rest & -rest
        out &= cs.causality_masks[low.bit_length() - 1]
        rest ^= low
    return out


def ortho(cs: CausalStructure, members: Iterable[str]) -> frozenset[str]:
    """Processes causally related to every member of the given set."""
    return cs.names_of(ortho_mask(cs, cs.mask_of(members)))


def close(cs: CausalStructure, members: Iterable[str]) -> frozenset[str]:
    """Least bi-orthogonally closed superset (double orthocomplement)."""
    return cs.names_of(ortho_mask(cs, ortho_mask(cs, cs.mask_of(members))))


def is_closed(cs: CausalStructure, members: Iterable[str]) -> bool:
    mask = cs.mask_of(members)
    return ortho_mask(cs, ortho_mask(cs, mask)) == mask


def _canonical_key(mask: int):
    return (mask.bit_count(), tuple(_bit_indices(mask)))


def enumerate_closed(cs: CausalStructure, cap: int = DEFAULT_CAP) -> OrthoLattice:
    """Enumerate every closed set as a Moore family.

    Seeds the worklist with the full set and all neighborhoods, then closes
    under pairwise intersection.  Raises CapExceededError as soon as the
    family exceeds ``cap`` elements.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    family = {cs.full_mask}
    family.update(cs.causality_masks)
    if len(family) > cap:
        raise CapExceededError(cap, len(family))
    frontier = list(family)
    while frontier:
        a = frontier.pop()
        for b in list(family):
            c = a & b
            if c not in family:
                family.add(c)
                frontier.append(c)
                if len(family) > cap:
                    raise CapExceededError(cap, len(family))
    masks = tuple(sorted(family, key=_canonical_key))
    position = {m: i for i, m in enumerate(masks)}
    complement = tuple(position[ortho_mask(cs, m)] for m in masks)
    return OrthoLattice(cs, masks, complement)


def format_members(names: Iterable[str]) -> str:
    return "{" + ", ".join(names) + "}"


@dataclass(frozen=True)
class LawCheck:
    """Outcome of one law check; counterexample elements are in the scan's
    variable order, detail holds the evaluated sides."""

    law: str
    holds: bool
    counterexample: tuple[frozenset[str], ...] | None = None
    detail: str = ""


@dataclass(frozen=True)
class OrthoLattice:
    """All closed sets of a causal structure, in canonical order."""

    structure: CausalStructure
    masks: tuple[int, ...]
    complement: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.masks)

    @cached_property
    def _position(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self.masks)}

    @cached_property
    def elements(self) -> tuple[frozenset[str], ...]:
        return tuple(self.structure.names_of(m) for m in self.masks)

    @property
    def bottom(self) -> frozenset[str]:
        return self.elements[0]

    @property
    def top(self) -> frozenset[str]:
        return self.elements[-1]

    @cached_property
    def downset_masks(self) -> tuple[int, ...]:
        """For each element, the bitmask over element indices of all elements
        included in it (itself included)."""
        down = []
        for i, m in enumerate(self.masks):
            d = 0
            # canonical order is cardinality-major, so subsets sit at or below i
            for j in range(i + 1):
                mj = self.masks[j]
                if mj & m == mj:
                    d |= 1 << j
            down.append(d)
        return tuple(down)

    def index_of(self, members: Iterable[str]) -> int:
        mask = self.structure.mask_of(members)
        try:
            return self._position[mask]
        except KeyError:
            raise ValueError(
                f"{format_members(self.structure.sorted_names_of(mask))} "
                "is not a closed set of this lattice"
            ) from None

    def complement_of(self, members: Iterable[str]) -> frozenset[str]:
        return self.elements[self.complement[self.index_of(members)]]

    def meet(self, a: Iterable[str], b: Iterable[str]) -> frozenset[str]:
        return self.elements[self._meet_index(self.index_of(a), self.index_of(b))]

    def join(self, a: Iterable[str], b: Iterable[str]) -> frozenset[str]:
        return self.elements[self._join_index(self.index_of(a), self.index_of(b))]

    def _meet_index(self, i: int, j: int) -> int:
        return self._position[self.masks[i] & self.masks[j]]

    def _join_index(self, i: int, j: int) -> int:
        return self.complement[self._meet_index(self.complement[i], self.complement[j])]

    def hasse_edges(self) -> list[tuple[int, int]]:
        """Cover pairs (lower index, upper index) of inclusion, ascending."""
        edges = []
        down = self.downset_masks
        for b in range(len(self.masks)):
            strict = down[b] & ~(1 << b)
            shadowed = 0
            for c in _bit_indices(strict):
                shadowed |= down[c] & ~(1 << c)
            for a in _bit_indices(strict & ~shadowed):
                edges.append((a, b))
        edges.sort()
        return edges

    def _fmt(self, index: int) -> str:
        return format_members(self.structure.sorted_names_of(self.masks[index]))

    def check_laws(self, law: str) -> LawCheck:
        """Exhaustively check one law over the whole lattice.

        Counterexamples are the first found scanning element tuples in
        lexicographic canonical-index order, which keeps them stable.
        """
        if law not in LAWS:
            raise ValueError(f"unknown law {law!r}; expected one of {', '.join(LAWS)}")
        failure = LAWS[law][1](self)
        if failure is None:
            return LawCheck(law, True)
        indices, detail = failure
        return LawCheck(law, False, tuple(self.elements[i] for i in indices), detail)

    def to_json_dict(self) -> dict:
        return {
            "elements": [self.structure.sorted_names_of(m) for m in self.masks],
            "complement": list(self.complement),
            "hasse": [list(edge) for edge in self.hasse_edges()],
        }

    def to_dot(self) -> str:
        lines = ["digraph ortholattice {", "  rankdir=BT;"]
        for i in range(len(self.masks)):
            lines.append(f'  n{i} [label="{self._fmt(i)}"];')
        for a, b in self.hasse_edges():
            lines.append(f"  n{a} -> n{b};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _scan_axioms(lat: OrthoLattice):
    n = len(lat.masks)
    masks = lat.masks
    comp = lat.complement
    if masks[0] != 0 or masks[-1] != lat.structure.full_mask:
        return (), "bottom or top missing"
    for i in range(n):
        if comp[comp[i]] != i:
            return (i,), f"complement not involutive at a = {lat._fmt(i)}"
        if masks[i] & masks[comp[i]] != 0:
            return (i,), f"a & ~a != {{}} at a = {lat._fmt(i)}"
        if lat._join_index(i, comp[i]) != n - 1:
            return (i,), f"a | ~a != top at a = {lat._fmt(i)}"
    for i in range(n):
        for j in range(n):
            forward = masks[i] & masks[j] == masks[i]
            mirrored = masks[comp[j]] & masks[comp[i]] == masks[comp[j]]
            if forward != mirrored:
                return (i, j), (
                    f"inclusion not antitone under complement at "
                    f"a = {lat._fmt(i)}, b = {lat._fmt(j)}"
                )
    return None


def _scan_de_morgan(lat: OrthoLattice):
    n = len(lat.masks)
    comp = lat.complement
    for i in range(n):
        for j in range(n):
            if comp[lat._join_index(i, j)] != lat._meet_index(comp[i], comp[j]):
                return (i, j), f"~(a | b) != ~a & ~b at a = {lat._fmt(i)}, b = {lat._fmt(j)}"
            if comp[lat._meet_index(i, j)] != lat._join_index(comp[i], comp[j]):
                return (i, j), f"~(a & b) != ~a | ~b at a = {lat._fmt(i)}, b = {lat._fmt(j)}"
    return None


def _scan_distributivity(lat: OrthoLattice):
    n = len(lat.masks)
    masks = lat.masks
    for i in range(n):
        for j in range(n):
            join_mask = masks[lat._join_index(i, j)]
            for k in range(n):
                lhs = join_mask & masks[k]
                rhs_index = lat._join_index(lat._meet_index(i, k), lat._meet_index(j, k))
                if lhs != masks[rhs_index]:
                    lhs_names = format_members(lat.structure.sorted_names_of(lhs))
                    return (i, j, k), (
                        f"(a | b) & c = {lhs_names} but "
                        f"(a & c) | (b & c) = {lat._fmt(rhs_index)}"
                    )
    return None


def _scan_orthomodularity(lat: OrthoLattice):
    n = len(lat.masks)
    masks = lat.masks
    comp = lat.complement
    for i in range(n):
        for j in range(n):
            if masks[i] & masks[j] != masks[i]:
                continue
            rhs = lat._join_index(i, lat._meet_index(comp[i], j))
            if rhs != j:
                return (i, j), (
                    f"a <= b but a | (~a & b) = {lat._fmt(rhs)} != b "
                    f"at a = {lat._fmt(i)}, b = {lat._fmt(j)}"
                )
    return None


# law name -> (Boolean identity templates, lattice scan).  Template atoms are
# metavariables instantiated with process names; a scan returns the first
# failing (element indices, detail) in canonical-index order, or None.
LAWS = {
    "ortholattice-axioms": ((("~~a", "a"), ("a & ~a", "0"), ("a | ~a", "1")), _scan_axioms),
    "de-morgan": ((("~(a & b)", "~a | ~b"), ("~(a | b)", "~a & ~b")), _scan_de_morgan),
    "distributivity": ((("(a | b) & c", "(a & c) | (b & c)"),), _scan_distributivity),
    "orthomodularity": ((("a | (~a & (a | b))", "a | b"),), _scan_orthomodularity),
}
