"""Expected CLI answers, computed without orthochron.

For every request of a workload this module derives the exit code and the
exact stdout bytes from the benchmark's own model of the trace, so the
timed run can check each response by sha256.  The model follows the
definitions in the README: happened-before is the transitive closure of
site order and messages, time points are the maximal sets of overlapping
open intervals, and the closed sets are the intersections of causality
neighbourhoods (a Moore family generated by the P neighbourhoods).

Law verdicts are decided here by other means than the program's scans:
ortholattice axioms and De Morgan follow from the complement being an
involution, distributivity is decided by testing that every
join-irreducible element is join-prime, and identities under Boolean
semantics hold because time-point sets form a powerset algebra.  Only
when a law fails is the lexicographic scan run, to name the same first
counterexample the CLI reports.

Run as a script it prints the expected answers and cross-checks for one
workload as JSON; ``run.py`` calls it in a child process so that its
memory does not count towards the measured peak RSS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import deque
from functools import cached_property

import tracegen

# identity templates the CLI instantiates under --semantics boolean
LAW_IDENTITIES = {
    "ortholattice-axioms": [("~~a", "a"), ("a & ~a", "0"), ("a | ~a", "1")],
    "de-morgan": [("~(a & b)", "~a | ~b"), ("~(a | b)", "~a & ~b")],
    "distributivity": [("(a | b) & c", "(a & c) | (b & c)")],
    "orthomodularity": [("a | (~a & (a | b))", "a | b")],
}
LAWS = tuple(LAW_IDENTITIES)
EXHAUSTIVE_LIMIT = 10_000
SAMPLED_TRIALS = 1000
BRUTE_FORCE_LIMIT = 14

README_FIG7_DISTRIBUTIVITY = """\
distributivity: counterexample
  a = {p1}
  b = {q1}
  c = {q2}
  (a | b) & c = {q2} but (a & c) | (b & c) = {}
"""


def fmt(names) -> str:
    return "{" + ", ".join(names) + "}"


def bits(mask: int) -> list[int]:
    return [i for i, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1"]


class Model:
    """Causal structure, time points and closed-set lattice of one trace."""

    def __init__(self, trace: tracegen.Trace):
        self.trace = trace
        self.names = trace.names
        n = len(self.names)
        index = {name: i for i, name in enumerate(self.names)}
        succ: list[list[int]] = [[] for _ in range(n)]
        for site in trace.sites:
            for a, b in zip(site, site[1:]):
                succ[index[a]].append(index[b])
        for a, b in trace.messages:
            succ[index[a]].append(index[b])
        indegree = [0] * n
        for targets in succ:
            for j in targets:
                indegree[j] += 1
        queue = deque(i for i in range(n) if indegree[i] == 0)
        order = []
        while queue:
            i = queue.popleft()
            order.append(i)
            for j in succ[i]:
                indegree[j] -= 1
                if indegree[j] == 0:
                    queue.append(j)
        if len(order) != n:
            raise ValueError("benchmark trace has a causal cycle")
        ancestors = [0] * n
        for i in order:
            for j in succ[i]:
                ancestors[j] |= ancestors[i] | 1 << i
        descendants = [0] * n
        for i in reversed(order):
            for j in succ[i]:
                descendants[i] |= descendants[j] | 1 << j
        self.before = descendants
        self.causality = [a | d for a, d in zip(ancestors, descendants)]
        self.full = (1 << n) - 1

    def members(self, mask: int) -> list[str]:
        return [self.names[i] for i in bits(mask)]

    def ortho(self, mask: int) -> int:
        out = self.full
        for i in bits(mask):
            out &= self.causality[i]
        return out

    @cached_property
    def family(self) -> set[int]:
        family = {self.full}
        for neighbourhood in self.causality:
            family |= {f & neighbourhood for f in family}
        return family

    @cached_property
    def elements(self) -> list[int]:
        """The closed sets by size, then by their sorted member ordinals.
        Of two sets of one size, the one holding the lowest member where
        they differ comes first: the larger mask once bits are reversed."""
        width = len(self.names)

        def reversed_bits(mask: int) -> int:
            return int(bin(mask)[2:].zfill(width)[::-1], 2)

        return sorted(self.family, key=lambda m: (m.bit_count(), -reversed_bits(m)))

    @cached_property
    def position(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self.elements)}

    @cached_property
    def comp(self) -> dict[int, int]:
        return {m: self.ortho(m) for m in self.elements}

    def join(self, a: int, b: int) -> int:
        return self.comp[self.comp[a] & self.comp[b]]

    @cached_property
    def hasse(self) -> list[tuple[int, int]]:
        """Cover pairs by index.  Every upper cover of a closed set ``a`` is
        the closure of ``a`` plus one process, and the minimal such closures
        are exactly the covers."""
        edges = []
        for lower, a in enumerate(self.elements):
            candidates = sorted(
                {
                    self.comp[self.comp[a] & self.causality[p]]
                    for p in range(len(self.names))
                    if not a >> p & 1
                },
                key=int.bit_count,
            )
            for k, c in enumerate(candidates):
                if not any(d & c == d for d in candidates[:k]):
                    edges.append((lower, self.position[c]))
        return sorted(edges)

    @cached_property
    def time_points(self) -> list[list[str]]:
        """Maximal cliques of the open-interval overlap relation.  By the
        Helly property each is the active set of an elementary segment
        between consecutive boundaries, and a segment's set is maximal
        exactly when it is not inside a neighbouring segment's set."""
        timing = self.trace.timing
        assert timing is not None
        bounds = sorted({t for span in timing.values() for t in span})
        rank = {t: i for i, t in enumerate(bounds)}
        active: list[list[str]] = [[] for _ in bounds[1:]]
        for name in self.names:
            start, end = timing[name]
            for segment in range(rank[start], rank[end]):
                active[segment].append(name)
        points = []
        for k, members in enumerate(active):
            current = set(members)
            neighbours = active[max(k - 1, 0) : k] + active[k + 1 : k + 2]
            if current and not any(current < set(other) for other in neighbours):
                points.append(members)
        return points

    def distributive(self) -> bool:
        """Every join-irreducible j is join-prime: j is not below the join
        of all elements that are not above it."""
        lower_covers = [0] * len(self.elements)
        for _, upper in self.hasse:
            lower_covers[upper] += 1
        for k, j in enumerate(self.elements):
            if lower_covers[k] != 1:
                continue
            acc = self.full
            for x in self.elements:
                if j & x != j:
                    acc &= self.comp[x]
            if j & self.comp[acc] == j:
                return False
        return True

    def closed_by_brute_force(self) -> list[int]:
        """Every subset that equals its double orthocomplement."""
        return [m for m in range(self.full + 1) if self.ortho(self.ortho(m)) == m]


# -- expected CLI output per command -----------------------------------------


def _eval(model: Model, node, semantics: str):
    op = node[0]
    if op == "atom":
        if semantics == "ortho":
            return model.ortho(model.causality[model.names.index(node[1])])
        return {i for i, point in enumerate(model.time_points) if node[1] in point}
    if op in ("top", "bottom"):
        if semantics == "ortho":
            return model.full if op == "top" else 0
        return set(range(len(model.time_points))) if op == "top" else set()
    args = [_eval(model, child, semantics) for child in node[1:]]
    if op == "not":
        if semantics == "ortho":
            return model.ortho(args[0])
        return set(range(len(model.time_points))) - args[0]
    if op == "and":
        return args[0] & args[1]
    if semantics == "ortho":
        return model.ortho(model.ortho(args[0]) & model.ortho(args[1]))
    return args[0] | args[1]


def _eval_output(model: Model, request) -> str:
    value = _eval(model, request.formula, request.semantics)
    if request.semantics == "ortho":
        shown = model.members(value)
        text = fmt(shown)
    else:
        shown = sorted(value)
        text = fmt(f"T{i + 1}" for i in shown)
    if request.fmt == "json":
        return json.dumps({"semantics": request.semantics, "value": shown, "closed": True}) + "\n"
    return text + "\n"


def _law_boolean(model: Model, law: str) -> tuple[int, str]:
    lines = []
    for lhs, rhs in LAW_IDENTITIES[law]:
        metavars = len({ch for ch in lhs + rhs if ch.isalpha()})
        total = len(model.names) ** metavars
        scope = (
            f"exhaustive over {total} instantiations"
            if total <= EXHAUSTIVE_LIMIT
            else f"sampled {SAMPLED_TRIALS} of {total} instantiations"
        )
        lines.append(f"{law}: {lhs} = {rhs} holds ({scope})\n")
    return 0, "".join(lines)


def _first_distributivity_failure(model: Model):
    els = model.elements
    for a in els:
        for b in els:
            ab = model.join(a, b)
            for c in els:
                rhs = model.join(a & c, b & c)
                if ab & c != rhs:
                    return (a, b, c), (
                        f"(a | b) & c = {fmt(model.members(ab & c))} but "
                        f"(a & c) | (b & c) = {fmt(model.members(rhs))}"
                    )
    raise AssertionError("non-distributive lattice without a failing triple")


def _first_orthomodularity_failure(model: Model):
    for a in model.elements:
        for b in model.elements:
            if a & b != a:
                continue
            rhs = model.join(a, model.comp[a] & b)
            if rhs != b:
                return (a, b), (
                    f"a <= b but a | (~a & b) = {fmt(model.members(rhs))} != b "
                    f"at a = {fmt(model.members(a))}, b = {fmt(model.members(b))}"
                )
    return None


def _law_ortho(model: Model, law: str) -> tuple[int, str]:
    if any(model.comp[model.comp[m]] != m for m in model.elements):
        raise AssertionError("orthocomplement is not an involution")
    if model.elements[0] != 0 or model.elements[-1] != model.full:
        raise AssertionError("bottom or top missing")
    failure = None
    if law == "distributivity" and not model.distributive():
        failure = _first_distributivity_failure(model)
    elif law == "orthomodularity":
        failure = _first_orthomodularity_failure(model)
    if failure is None:
        return 0, f"{law}: holds ({len(model.elements)} elements)\n"
    tuple_, detail = failure
    lines = [f"{law}: counterexample\n"]
    lines += [f"  {var} = {fmt(model.members(m))}\n" for var, m in zip("abc", tuple_)]
    lines.append(f"  {detail}\n")
    return 1, "".join(lines)


def expected(model: Model, request) -> tuple[int, str]:
    """Exit code and stdout the CLI must produce for one request."""
    command = request.command
    if command == "validate":
        return 0, "valid\n"
    if command == "timepoints":
        return 0, json.dumps(model.time_points) + "\n"
    if command == "hb":
        payload = {
            "happened_before": {
                a: model.members(model.before[i]) for i, a in enumerate(model.names)
            },
            "causality": {
                a: model.members(model.causality[i]) for i, a in enumerate(model.names)
            },
        }
        return 0, json.dumps(payload) + "\n"
    if command == "lattice":
        if request.cap is not None and len(model.elements) > request.cap:
            return 2, ""
        if request.fmt == "text":
            return 0, "".join(fmt(model.members(m)) + "\n" for m in model.elements)
        if request.fmt == "json":
            payload = {
                "elements": [model.members(m) for m in model.elements],
                "complement": [model.position[model.comp[m]] for m in model.elements],
                "hasse": [list(edge) for edge in model.hasse],
            }
            return 0, json.dumps(payload) + "\n"
        lines = ["digraph ortholattice {", "  rankdir=BT;"]
        lines += [
            f'  n{i} [label="{fmt(model.members(m))}"];' for i, m in enumerate(model.elements)
        ]
        lines += [f"  n{a} -> n{b};" for a, b in model.hasse]
        return 0, "\n".join(lines + ["}"]) + "\n"
    if command == "eval":
        return 0, _eval_output(model, request)
    if command == "laws":
        if request.semantics == "boolean":
            return _law_boolean(model, request.law)
        return _law_ortho(model, request.law)
    if command == "oracle":
        return 0, f"match: fast enumeration = brute force ({len(model.elements)} elements)\n"
    raise ValueError(f"no reference for command {command!r}")


def _ortholattice_by_pairs(model: Model) -> bool:
    """The ortholattice axioms and both De Morgan laws, pair by pair."""
    comp, full = model.comp, model.full
    for a in model.elements:
        if comp[comp[a]] != a or a & comp[a] or model.join(a, comp[a]) != full:
            return False
        for b in model.elements:
            if (a & b == a) != (comp[b] & comp[a] == comp[b]):
                return False
            if comp[model.join(a, b)] != comp[a] & comp[b]:
                return False
            if comp[a & b] != model.join(comp[a], comp[b]):
                return False
    return True


def cross_checks(workload, answers: list[tuple[int, str]]) -> tuple[list[str], list[str]]:
    """Checks of the recorded answers by independent means.  Returns the
    names of the checks passed and of the checks failed."""
    passed: list[str] = []
    failed: list[str] = []

    def check(name: str, ok: bool):
        (passed if ok else failed).append(name)

    for name, trace in workload.traces.items():
        if len(trace.names) > BRUTE_FORCE_LIMIT:
            continue
        model = Model(trace)
        check(
            f"closed family of {name} equals brute force",
            model.closed_by_brute_force() == sorted(model.elements),
        )
        check(f"axioms and De Morgan hold pair by pair on {name}", _ortholattice_by_pairs(model))
        if len(trace.sites) == 1:
            # the powerset with set complement satisfies all four laws
            check(
                f"{name} is a Boolean algebra",
                len(model.elements) == 2 ** len(trace.names)
                and all(model.comp[m] == model.full ^ m for m in model.elements),
            )
    for request, (code, out) in zip(workload.requests, answers):
        if request.command != "laws" or request.semantics != "ortho":
            continue
        where = f"recorded {request.law} on {request.trace}"
        if request.law in ("ortholattice-axioms", "de-morgan"):
            check(f"{where} holds", code == 0)
        if len(workload.traces[request.trace].sites) == 1:
            check(f"{where} holds on a Boolean lattice", code == 0)
        if request.trace == "fig7" and request.law == "distributivity":
            check(f"{where} is the README's counterexample", (code, out) == (1, README_FIG7_DISTRIBUTIVITY))
    return passed, failed


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    import workloads  # imports this module, so not at the top

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True, choices=workloads.SCALES)
    args = parser.parse_args(argv)
    workload = workloads.build(args.workload, args.seed, args.scale)
    models = {name: Model(trace) for name, trace in workload.traces.items()}
    answers = [expected(models[r.trace], r) for r in workload.requests]
    passed, failed = cross_checks(workload, answers)
    json.dump(
        {
            "expected": [[code, digest(out)] for code, out in answers],
            "checks_passed": passed,
            "checks_failed": failed,
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
