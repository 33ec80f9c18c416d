"""The benchmark's three workloads: seeded traces plus the CLI requests
sent against them.

Each workload is one pass of requests; ``run.py`` repeats whole passes,
reshuffled, so every run sends the same mix.  Sizes are fixed per scale
and only the trace contents follow the seed.  Where a cost depends on the
closed-set count rather than on the process count, each trace is the
candidate whose lattice size is nearest a fixed target, so that seeds
differ in structure but not in load.

* ``timeline-wide``: timed traces of 250..1,200 processes on 4..12 sites
  with as many messages as processes.  Happened-before, validation,
  time points and the O(P^2) ``hb`` JSON dominate; ``ortholattice`` is
  never called.  Sizes stop at 1,200 (``hb`` JSON only up to 600) so that
  a 25 s run holds well over 100 requests, which the p90 needs.
* ``lattice-dense``: untimed and timed traces of about 20..40 processes on
  4..6 sites with few messages, chosen for lattices of 400..1,200 closed
  sets, spaced evenly in n^2.  ``lattice`` in text, json and dot:
  enumeration and Hasse covers dominate, and text skips the covers.  One
  request per pass is refused by ``--cap`` and must exit 2.
* ``law-verdicts``: many small traces -- the fixtures, Boolean lattices of
  single-site traces with 6 and 7 processes, and non-distributive lattices
  of 60..400 elements.  All four laws under orthologic, the Boolean
  identity checks on timed traces of at most 21 processes, ``oracle`` on
  at most 14 processes, and formula evaluation.  Verdicts mix "holds"
  (every Boolean lattice, scanned over all n^3 triples) with early
  counterexamples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import reference
import tracegen

NAMES = ("timeline-wide", "lattice-dense", "law-verdicts")
SCALES = ("full", "smoke")
FIXTURES = Path(__file__).resolve().parent / "fixtures"
FIXTURE_NAMES = ("fig2", "fig5", "fig7", "mo2", "single-site")

_AND = ("&", "/\\", "and")
_OR = ("|", "\\/", "or")
_NOT = ("~", "!", "not ")


@dataclass(frozen=True)
class Request:
    """One CLI command against one trace of the workload."""

    trace: str
    command: str
    fmt: str = "text"
    semantics: str = "ortho"
    law: str | None = None
    formula: tuple | None = None
    formula_text: str | None = None
    cap: int | None = None

    def argv(self, path: str) -> list[str]:
        argv = [self.command, path]
        if self.command == "eval":
            argv += ["--formula", self.formula_text, "--semantics", self.semantics]
        elif self.command == "laws":
            argv += ["--law", self.law, "--semantics", self.semantics]
        if self.cap is not None:
            argv += ["--cap", str(self.cap)]
        if self.fmt != "text":
            argv += ["--format", self.fmt]
        return argv


@dataclass
class Workload:
    traces: dict[str, tracegen.Trace] = field(default_factory=dict)
    texts: dict[str, str] = field(default_factory=dict)
    requests: list[Request] = field(default_factory=list)
    warmup: list[Request] = field(default_factory=list)

    def add(self, name: str, trace: tracegen.Trace, text: str | None = None):
        self.traces[name] = trace
        self.texts[name] = tracegen.render(trace) if text is None else text


def _formula(rng: random.Random, atoms: list[str], leaves: int) -> tuple[tuple, str]:
    if leaves == 1:
        name = rng.choice(atoms)
        node, text = ("atom", name), name
    else:
        split = rng.randint(1, leaves - 1)
        left, left_text = _formula(rng, atoms, split)
        right, right_text = _formula(rng, atoms, leaves - split)
        op = rng.choice(("and", "or"))
        spelled = rng.choice(_AND if op == "and" else _OR)
        node, text = (op, left, right), f"({left_text} {spelled} {right_text})"
    if rng.random() < 0.3:
        node, text = ("not", node), rng.choice(_NOT) + text
    return node, text


def _eval(rng: random.Random, trace_name: str, trace, semantics: str, fmt: str, leaves: int = 3):
    node, text = _formula(rng, trace.names, leaves)
    return Request(trace_name, "eval", fmt, semantics, formula=node, formula_text=text)


def _split(total: int, parts: int) -> list[int]:
    return [total // parts + (i < total % parts) for i in range(parts)]


CLOSE_ENOUGH = 0.02


def _nearest(rng: random.Random, target: int, attempts: int, sites: int, timed: bool):
    """The first trace whose lattice size is within 2% of ``target``, or the
    nearest of ``attempts`` candidates, with its lattice size.  A site of s
    processes alone contributes about 2^s closed sets, so each miss shrinks
    the largest or grows the smallest site."""
    sizes = [max(2, (target // sites).bit_length() - 1)] * sites
    best = None
    for _ in range(attempts):
        try:
            trace = tracegen.generate(rng, sizes, rng.randint(2, sites + 2), timed)
        except ValueError:  # sites too short for that many messages
            size = 0
        else:
            size = len(reference.Model(trace).family)
            if best is None or abs(size - target) < best[0]:
                best = (abs(size - target), trace, size)
            if best[0] <= target * CLOSE_ENOUGH:
                break
        if size > target:
            sizes[sizes.index(max(sizes))] -= 1
        else:
            sizes[sizes.index(min(sizes))] += 1
    if best is None:
        raise ValueError(f"no trace placed for a lattice of {target} elements")
    return best[1], best[2]


def _spread(lo: int, hi: int, count: int, power: int = 1) -> list[int]:
    """``count`` sizes from lo to hi, evenly spaced in size**power."""
    return [
        round((lo**power + (hi**power - lo**power) * k / (count - 1)) ** (1 / power))
        for k in range(count)
    ]


# -- timeline-wide -------------------------------------------------------------

TIMELINE = {"full": (250, 1200, 12, 600), "smoke": (40, 80, 2, 60)}
TIMELINE_SITES = (4, 12, 6, 10, 8, 5, 11, 7, 9)


def _timeline_requests(rng, name, trace, k, hb_limit):
    json_first = k % 2 == 0
    requests = [
        Request(name, "validate"),
        Request(name, "timepoints", "json"),
        _eval(rng, name, trace, "ortho", "json" if json_first else "text"),
        _eval(rng, name, trace, "boolean", "text" if json_first else "json"),
    ]
    if len(trace.names) <= hb_limit:
        requests.append(Request(name, "hb", "json"))
    return requests


def _timeline_wide(rng: random.Random, scale: str) -> Workload:
    lo, hi, count, hb_limit = TIMELINE[scale]
    w = Workload()
    for k, procs in enumerate(_spread(lo, hi, count)):
        sites = TIMELINE_SITES[k % len(TIMELINE_SITES)]
        trace = tracegen.generate(rng, _split(procs, sites), procs, timed=True)
        name = f"wide{k + 1}-p{procs}"
        w.add(name, trace)
        w.requests += _timeline_requests(rng, name, trace, k, hb_limit)
    warm = tracegen.generate(rng, _split(24, 4), 24, timed=True)
    w.add("warmup", warm)
    w.warmup = _timeline_requests(rng, "warmup", warm, 0, hb_limit)
    return w


# -- lattice-dense -------------------------------------------------------------

LATTICE = {"full": (400, 1200, 20, 24), "smoke": (30, 60, 2, 4)}


def _lattice_dense(rng: random.Random, scale: str) -> Workload:
    lo, hi, count, candidates = LATTICE[scale]
    w = Workload()
    for k, target in enumerate(_spread(lo, hi, count, power=2)):
        trace, size = _nearest(rng, target, candidates, 4 + k % 3, timed=k % 2 == 1)
        name = f"dense{k + 1}-n{target}"
        w.add(name, trace)
        w.requests += [Request(name, "lattice", fmt) for fmt in ("text", "json", "dot")]
        if k == count // 2:
            w.requests.append(Request(name, "lattice", cap=size // 2))
    warm = tracegen.generate(rng, [3, 3, 3, 3], 0, timed=False)
    w.add("warmup", warm)
    w.warmup = [Request("warmup", "lattice", fmt) for fmt in ("text", "json", "dot")]
    return w


# -- law-verdicts --------------------------------------------------------------

LAWS_SCALE = {"full": (60, 400, 6, 24, (6, 6, 7)), "smoke": (10, 30, 2, 3, (4,))}
# 21^3 = 9,261 distributivity instantiations: still exhaustive, not sampled
BOOLEAN_LAW_LIMIT = 21


def _law_requests(rng, name, trace) -> list[Request]:
    timed = trace.timing is not None
    size = len(trace.names)
    requests = [Request(name, "laws", law=law, semantics="ortho") for law in reference.LAWS]
    if timed and size <= BOOLEAN_LAW_LIMIT:
        requests += [Request(name, "laws", law=law, semantics="boolean") for law in reference.LAWS]
    if size <= reference.BRUTE_FORCE_LIMIT:
        requests.append(Request(name, "oracle"))
    requests.append(_eval(rng, name, trace, "ortho", "text", leaves=4))
    if timed:
        requests.append(_eval(rng, name, trace, "boolean", "json", leaves=4))
    return requests


def _law_verdicts(rng: random.Random, scale: str) -> Workload:
    lo, hi, count, candidates, boolean_sizes = LAWS_SCALE[scale]
    w = Workload()
    for name in FIXTURE_NAMES:
        text = (FIXTURES / f"{name}.trace").read_text()
        w.add(name, tracegen.parse(text), text)
    for k, size in enumerate(boolean_sizes):
        w.add(f"boolean{k + 1}-p{size}", tracegen.generate(rng, [size], 0, timed=k % 2 == 0))
    for k, target in enumerate(_spread(lo, hi, count)):
        trace, _ = _nearest(rng, target, candidates, 3 + k % 3, timed=k % 2 == 0)
        w.add(f"ortho{k + 1}-n{target}", trace)
    for name, trace in w.traces.items():
        w.requests += _law_requests(rng, name, trace)
    warm = tracegen.generate(rng, [3, 3], 0, timed=True)
    w.add("warmup", warm)
    w.warmup = _law_requests(rng, "warmup", warm)
    return w


_BUILDERS = {
    "timeline-wide": _timeline_wide,
    "lattice-dense": _lattice_dense,
    "law-verdicts": _law_verdicts,
}


def build(name: str, seed: int, scale: str) -> Workload:
    """The workload's traces and one pass of requests; the same
    (name, seed, scale) always gives the same workload."""
    return _BUILDERS[name](random.Random(f"{name}/{seed}"), scale)
