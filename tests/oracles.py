"""Naive reference implementations used only by the tests.

Everything here recomputes results directly from definitions, by plain
enumeration over subsets, tuples or fixpoint iteration.  The law scans at the
end try every element pair or triple of an ``OrthoLattice``, the reference for
``OrthoLattice.check_laws``, which decides most verdicts without them.
"""

from itertools import combinations

from orthochron.ortholattice import OrthoLattice, format_members


def brute_happened_before(trace):
    """Transitive closure of same-site order plus message edges, by fixpoint."""
    rel = set()
    for site in trace.sites:
        for i, a in enumerate(site.processes):
            for b in site.processes[i + 1:]:
                rel.add((a.name, b.name))
    for message in trace.messages:
        rel.add((message.sender.name, message.receiver.name))
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return rel


def brute_overlap(trace, p, q):
    start_p, end_p = trace.timing[p]
    start_q, end_q = trace.timing[q]
    return start_p < end_q and start_q < end_p


def brute_time_points(trace):
    """Maximal pairwise-overlapping subsets, by powerset filtering."""
    names = [p.name for p in trace.processes]
    cliques = []
    for r in range(1, len(names) + 1):
        for combo in combinations(names, r):
            if all(brute_overlap(trace, a, b) for a in combo for b in combo):
                cliques.append(frozenset(combo))
    return {c for c in cliques if not any(c < d for d in cliques)}


def brute_ortho(cs, members):
    """Processes causally related to every member, by direct quantification."""
    return frozenset(
        q for q in cs.names if all(cs.causally_related(q, r) for r in members)
    )


def brute_closed_family(cs):
    """Subsets equal to their double orthocomplement, from the powerset."""
    names = list(cs.names)
    family = set()
    for r in range(len(names) + 1):
        for combo in combinations(names, r):
            subset = frozenset(combo)
            if brute_ortho(cs, brute_ortho(cs, subset)) == subset:
                family.add(subset)
    return family


def brute_covers(family):
    """Pairs (a, b) of members with a strictly inside b and no member
    strictly between them, by comparing every triple."""
    return {
        (a, b)
        for a in family
        for b in family
        if a < b and not any(a < c < b for c in family)
    }


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


REFERENCE_SCANS = {
    "ortholattice-axioms": _scan_axioms,
    "de-morgan": _scan_de_morgan,
    "distributivity": _scan_distributivity,
    "orthomodularity": _scan_orthomodularity,
}
