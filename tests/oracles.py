"""Naive reference implementations used only by the tests.

Everything here recomputes results directly from definitions, by plain
enumeration over subsets or fixpoint iteration, sharing no code or data
layout with the package internals.
"""

from itertools import combinations


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
