"""Bi-orthogonally closed process sets over a causal structure, and the
finite ortholattice they form.

The orthocomplement of a set is the intersection of the causality
neighborhoods of its members (the empty intersection being the full process
set).  Every orthocomplement is itself closed, so the closed sets are
exactly the intersection closure of the neighborhoods together with the
full set: the Moore family generated by the P neighborhoods.  It is closed
from the full set alone, intersecting the whole family with one distinct
generator per pass, smallest first: after pass i it is the Moore family of
the first i generators, so a pass adds only closed sets, and the result is
closed by construction.  Processes with one neighborhood ("twins")
contribute one AND to a complement.  The generators give the Hasse covers
too: the lower covers of a closed y are the maximal sets y & N_p other than
y, for a closed z strictly below y is the meet of the N_q, q in ortho(z); one
misses y, so z lies in y & N_q, closed and below y.  A candidate z is
maximal iff ~z = ~y | Q_z, Q_z being the processes q with y & N_q = z
(Lindig, "Fast concept analysis", 2000): each q in ~z outside ~y has z
inside y & N_q, strictly below y, and a closed w strictly between z and y
gives a q in ~w outside ~y and Q_z.  This reads ~z as the processes whose
neighborhoods hold z, as symmetry gives.  The covers are searched from
the top down: a lower cover z of y has
z & N_p = z & (y & N_p), so z draws its candidates, with their Q, from the
few distinct y & N_p of the first upper cover y found for it, not from every
generator.  The orthocomplement reverses the order and is an involution, so
z covers y iff ~y covers ~z: only the up-set S of the y with |y| >= |~y| is
searched, and a cover (z, y) found there is mirrored as (~y, ~z) when ~z is
outside S.  A cover with its upper end outside S has |~z| > |~y| > |y| > |z|,
so its mirror lies in S.

Meet is set intersection; join is the orthocomplement of the meet of the
orthocomplements, equivalently the least closed superset of the union.
Elements are kept in canonical order: by cardinality, then lexicographically
by sorted member ordinals.  Causality must be irreflexive and symmetric, so
that the closed sets form an ortholattice (Birkhoff, *Lattice Theory*, 1967,
on polarities); one certificate guards every law and the Hasse covers.
The law scans read each element's orthocomplement as a mask, so a join
is ~(~a & ~b) in masks; orthomodularity holds iff ~a & b != 0 on every
cover a < b (Kalmbach, *Orthomodular Lattices*, 1983), which is read after
a scan of the first rows, where failing lattices fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable

from .causal_core import CausalStructure

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


# each byte value with its eight bits in reverse order
_REVERSED = bytes([int(f"{b:08b}"[::-1], 2) for b in range(256)])


def _canonical_order(family: Iterable[int], width: int) -> tuple[int, ...]:
    """Masks of ``width`` bits by cardinality, then lexicographically by sorted
    member ordinals, in two sorts: descending by the mask's bytes, little-endian
    and each bit-reversed, then stably by cardinality.  Of two equal-size masks
    the lexicographically first holds their lowest differing bit, which the
    reversal makes the highest."""
    nbytes = (width + 7) // 8
    ordered = sorted(
        family, key=lambda m: m.to_bytes(nbytes, "little").translate(_REVERSED), reverse=True
    )
    ordered.sort(key=int.bit_count)
    return tuple(ordered)


def enumerate_closed(cs: CausalStructure, cap: int = DEFAULT_CAP) -> OrthoLattice:
    """Enumerate every closed set as a Moore family.

    Starts from the full set alone and, for each distinct neighborhood in turn,
    smallest first, adds its intersection with every member so far in one pass;
    after pass i the family is the Moore family of the first i neighborhoods,
    so each pass only adds sets of the final family, and after the last one
    the family is closed under intersection, an ortholattice, so it is marked
    certified.  Raises ValueError unless each process has one irreflexive,
    symmetric row, and CapExceededError if the seeds, the full set and the
    distinct neighborhoods, none full, exceed ``cap``, with their count, or
    after the first pass that leaves more than ``cap`` elements.  Added one at
    a time, that family would first have exceeded the cap at ``cap + 1``
    elements, the count reported; a pass may hold up to ``cap`` extra sets
    before its check.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    if not cs._orthogonal:
        raise ValueError("closed sets are enumerated only over one irreflexive, symmetric causality row per process")
    distinct = cs._twin_classes
    seeds = len(distinct) + 1
    if seeds > cap:
        raise CapExceededError(cap, seeds)
    family = {cs.full_mask}
    for generator in sorted(distinct, key=int.bit_count):
        family |= {member & generator for member in family}
        if len(family) > cap:
            raise CapExceededError(cap, cap + 1)
    lattice = OrthoLattice(cs, _canonical_order(family, cs.size))
    # the slot cached_property fills: an ortholattice by construction, not re-proved
    lattice.__dict__["_certified"] = True
    return lattice


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
    """All closed sets of a causal structure, in canonical order; the complement
    of each is looked up, when first needed, as its ``ortho_mask``."""

    structure: CausalStructure
    masks: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.masks:
            raise ValueError("an ortholattice needs a nonempty family")

    def __len__(self) -> int:
        return len(self.masks)

    @cached_property
    def _position(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self.masks)}

    @cached_property
    def complement(self) -> tuple[int, ...]:
        """For each element, the index of its orthocomplement; ValueError names
        the first element that is not a set of processes, or else the first
        whose orthocomplement is not an element.  A member's row is ANDed once
        for its whole twin class."""
        cs, pos = self.structure, self._position
        rows, full, classes = cs.causality_masks, cs.full_mask, cs._twin_classes
        others = [~classes[row] for row in rows]
        indices = []
        try:
            for rest in self.masks:
                out = full
                while rest:
                    p = (rest & -rest).bit_length() - 1
                    out &= rows[p]
                    rest &= others[p]
                indices.append(pos.get(out))
        except IndexError:
            # a bit past the last process, or a negative mask, reads past the rows
            i = len(indices)
            raise ValueError(f"element {i}, mask {self.masks[i]}, is not a set of this structure's processes") from None
        if None in indices:
            missing = self._fmt(indices.index(None))
            raise ValueError(f"the orthocomplement of {missing} is not an element of this lattice")
        return tuple(indices)

    @cached_property
    def _co(self) -> dict[int, int]:
        """Each element's mask -> its orthocomplement's mask, read by the law scans."""
        masks = self.masks
        return dict(zip(masks, [masks[c] for c in self.complement]))

    @cached_property
    def elements(self) -> tuple[frozenset[str], ...]:
        return tuple([self.structure.names_of(m) for m in self.masks])

    @property
    def bottom(self) -> frozenset[str]:
        return self.elements[0]

    @property
    def top(self) -> frozenset[str]:
        return self.elements[-1]

    @cached_property
    def downset_masks(self) -> tuple[int, ...]:
        """The full inclusion relation, not used for rendering: for each element,
        the bitmask over element indices of the elements included in it."""
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

    def _operands(self, *sets: Iterable[str]) -> list[int]:
        """The indices of the sets, on a lattice that passes the certificate,
        else ValueError."""
        if not self._certified:
            raise ValueError("meets, joins and complements are taken only on the closed-set lattice of a causal structure")
        return [self.index_of(members) for members in sets]

    def complement_of(self, members: Iterable[str]) -> frozenset[str]:
        [i] = self._operands(members)
        return self.elements[self.complement[i]]

    def meet(self, a: Iterable[str], b: Iterable[str]) -> frozenset[str]:
        return self.elements[self._meet_index(*self._operands(a, b))]

    def join(self, a: Iterable[str], b: Iterable[str]) -> frozenset[str]:
        return self.elements[self._join_index(*self._operands(a, b))]

    def _meet_index(self, i: int, j: int) -> int:
        return self._position[self.masks[i] & self.masks[j]]

    def _join_index(self, i: int, j: int) -> int:
        return self.complement[self._meet_index(self.complement[i], self.complement[j])]

    def hasse_edges(self) -> list[tuple[int, int]]:
        """Cover pairs (lower index, upper index), ascending, searched over the
        up-set S and mirrored as the module docstring sets out; the top takes
        the twin classes as its candidates.  Raises ValueError on a lattice that
        fails the certificate."""
        if not self._certified:
            raise ValueError("Hasse covers are found only on the closed-set lattice of a causal structure")
        masks, position, comp = self.masks, self._position, self.complement
        searched = [m.bit_count() >= masks[c].bit_count() for m, c in zip(masks, comp)]
        handed = [None] * len(masks)
        handed[-1] = self.structure._twin_classes
        uppers = [[] for _ in masks]
        for b in reversed(range(len(masks))):
            candidates = handed[b]
            if candidates is None:
                continue
            handed[b] = None
            y, outside = masks[b], masks[comp[b]]
            below: dict[int, int] = {}
            for w, q in candidates.items():
                z = y & w
                below[z] = below.get(z, 0) | q
            # the processes of ~y give y itself here, and z itself inside any z
            below.pop(y, None)
            for z, q in below.items():
                a = position[z]
                if masks[comp[a]] == outside | q:
                    uppers[a].append(b)
                    if searched[a] and handed[a] is None:
                        handed[a] = below
                    if not searched[comp[a]]:
                        uppers[comp[b]].append(comp[a])
        for ups in uppers:
            ups.sort()
        return [(a, b) for a, ups in enumerate(uppers) for b in ups]

    def _fmt(self, index: int) -> str:
        return format_members(self.structure.sorted_names_of(self.masks[index]))

    @cached_property
    def _certified(self) -> bool:
        """Whether this is the closed-set family of its structure, in canonical
        order: the rows are orthogonal, the elements range from the empty to the
        full set, every m & N_p is an element (so every ortho_mask is one; n*P'
        intersections), and the complement is an involution (so every element
        is closed).  Only a hand-built lattice pays: ``enumerate_closed`` fills
        this in."""
        cs, masks = self.structure, self.masks
        return (
            cs._orthogonal
            and min(masks) == 0
            and max(masks) == cs.full_mask
            and self._position.keys() >= {m & g for m in masks for g in cs._twin_classes}
            and all(self.complement[c] == i for i, c in enumerate(self.complement))
            and masks == _canonical_order(masks, cs.size)
        )

    def check_laws(self, law: str) -> LawCheck:
        """Decide one law over the whole lattice and scan only a failing one, for the
        first failing tuple in lexicographic canonical-index order.  Every law
        needs the certificate, else ValueError; see ``LAWS``."""
        if law not in LAWS:
            raise ValueError(f"unknown law {law!r}; expected one of {', '.join(LAWS)}")
        if not self._certified:
            raise ValueError(f"{law} is decided only on the closed-set lattice of a causal structure")
        failure = LAWS[law][1](self)
        if failure is None:
            return LawCheck(law, True)
        indices, detail = failure
        names_of, masks = self.structure.names_of, self.masks
        return LawCheck(law, False, tuple([names_of(masks[i]) for i in indices]), detail)

    def to_json_dict(self) -> dict:
        hasse = [list(edge) for edge in self.hasse_edges()]
        return {
            "elements": [self.structure.sorted_names_of(m) for m in self.masks],
            "complement": list(self.complement),
            "hasse": hasse,
        }

    def to_dot(self) -> str:
        """The Hasse diagram in Graphviz DOT, bottom up: the node lines joined,
        then the edge lines as one format over the flattened cover pairs, so
        that no string is made per edge."""
        edges = self.hasse_edges()
        nodes = "".join([f'  n{i} [label="{self._fmt(i)}"];\n' for i in range(len(self.masks))])
        edge_lines = "  n%d -> n%d;\n" * len(edges) % tuple(chain.from_iterable(edges))
        return f"digraph ortholattice {{\n  rankdir=BT;\n{nodes}{edge_lines}}}\n"


def _boolean(lat: OrthoLattice) -> bool:
    """Whether this certified ortholattice is Boolean: 2^k elements over k
    pairwise orthogonal atoms, whose 2^k joins are then distinct and all of it.
    Every nonzero element holds the closure ~N_p of some {p}, so the atoms are
    the minimal such closures; atoms meet in 0, so visited by index (by size),
    one is an atom iff it misses every atom kept before it."""
    masks, comp, pos = lat.masks, lat.complement, lat._position
    atoms, union = [], 0
    for i in sorted({comp[pos[row]] for row in lat.structure.causality_masks}):
        if not masks[i] & union:
            atoms.append(i)
            union |= masks[i]
    return len(masks) == 1 << len(atoms) and all(
        masks[x] & masks[comp[y]] == masks[x] for x in atoms for y in atoms if x != y
    )


def _names(lat: OrthoLattice, mask: int) -> str:
    return format_members(lat.structure.sorted_names_of(mask))


def _scan_distributivity(lat: OrthoLattice):
    # a distributive ortholattice is Boolean.  The scan skips the triples
    # where the law holds in any lattice: a and b comparable, c <= a, c <= b,
    # c >= a | b, or c & (a | b) = 0, and compares the sides' complements,
    # ~((a | b) & c) and ~(a & c) & ~(b & c), as masks
    if _boolean(lat):
        return None
    masks, co = lat.masks, lat._co
    for i, a in enumerate(masks):
        for j, b in enumerate(masks):
            if a & b in (a, b):
                continue
            join = co[co[a] & co[b]]
            for k, c in enumerate(masks):
                lhs = join & c
                if not lhs or lhs == join or c & a == c or c & b == c:
                    continue
                rhs = co[a & c] & co[b & c]
                if co[lhs] != rhs:
                    return (i, j, k), (
                        f"(a | b) & c = {_names(lat, lhs)} but "
                        f"(a & c) | (b & c) = {_names(lat, co[rhs])}"
                    )
    return None


def _orthomodular_rows(lat: OrthoLattice, rows: range):
    """The first pair a <= b, a in ``rows``, with a | (~a & b) != b, that is
    ~a & ~(~a & b) != ~b; canonical order puts every b > a after a."""
    masks, co = lat.masks, lat._co
    for i in rows:
        a = masks[i]
        na = co[a]
        for j in range(i + 1, len(masks)):
            b = masks[j]
            if a & b == a and na & co[na & b] != co[b]:
                return (i, j), (
                    f"a <= b but a | (~a & b) = {_names(lat, co[na & co[na & b]])} != b "
                    f"at a = {lat._fmt(i)}, b = {lat._fmt(j)}"
                )
    return None


def _scan_orthomodularity(lat: OrthoLattice):
    # the first rows, about n*P' pairs, are scanned, where failing lattices
    # fail; the rest is decided on the covers: an ortholattice is orthomodular
    # iff ~a & b != 0 for every cover a < b (Kalmbach, *Orthomodular
    # Lattices*, 1983), and scanned on only if some cover fails
    n, masks, co = len(lat.masks), lat.masks, lat._co
    budget, stop = n * len(lat.structure._twin_classes), 0
    while stop < n and budget > 0:
        budget -= n - stop
        stop += 1
    failure = _orthomodular_rows(lat, range(stop))
    if failure or stop == n or all(co[masks[a]] & masks[b] for a, b in lat.hasse_edges()):
        return failure
    return _orthomodular_rows(lat, range(stop, n))


# law name -> (Boolean identity templates, lattice check).  Template atoms are
# metavariables instantiated with process names; a check returns the first
# failing (element indices, detail) in canonical-index order, or None.  Every
# check runs only on a certified lattice, where the axioms and De Morgan are
# theorems, distributivity is decided from the atoms, and orthomodularity on
# the Hasse covers after a scan of the first rows; the scans read masks
# through ``_co``.
LAWS = {
    "ortholattice-axioms": ((("~~a", "a"), ("a & ~a", "0"), ("a | ~a", "1")), lambda lat: None),
    "de-morgan": ((("~(a & b)", "~a | ~b"), ("~(a | b)", "~a & ~b")), lambda lat: None),
    "distributivity": ((("(a | b) & c", "(a & c) | (b & c)"),), _scan_distributivity),
    "orthomodularity": ((("a | (~a & (a | b))", "a | b"),), _scan_orthomodularity),
}
