"""Seeded, stdlib-only trace generator for the benchmark.

The benchmark does not use ``orthochron.gen_random``: that function builds
all O(P^2) candidate message pairs (14.9 s at 4,000 processes) and its
sampling is expected to change, which would silently change the benchmark's
inputs.  Everything here is O(P + M log P) and depends only on
``random.Random`` seeded by the caller.

Shapes, and why:

* Every site tiles one contiguous interval with durations drawn in halves
  (0.5 .. 4), so timed traces exercise exact-decimal parsing and every
  site boundary is a time-point boundary.  Sites start at staggered clocks
  so the first and last time points hold fewer than all sites.
* Messages are drawn from a hidden timing: a sender, a target site, and a
  receiver among the first ``WINDOW`` processes of that site that start
  strictly after the sender ends.  That makes every trace valid and
  acyclic in both timed and untimed form, and ``WINDOW`` bounds how far a
  message jumps ahead, which keeps happened-before from being trivially
  total on wide traces.
* Untimed traces are the same construction with the timing dropped.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from fractions import Fraction

WINDOW = 3


@dataclass(frozen=True)
class Trace:
    """A trace as the benchmark knows it: process names per site in site
    order, messages in declaration order, and timing or ``None``."""

    sites: tuple[tuple[str, ...], ...]
    messages: tuple[tuple[str, str], ...]
    timing: dict[str, tuple[Fraction, Fraction]] | None

    @property
    def names(self) -> list[str]:
        return [name for site in self.sites for name in site]


def generate(
    rng: random.Random,
    site_sizes: list[int],
    n_messages: int,
    timed: bool,
) -> Trace:
    """Build one valid trace with the given processes per site and exactly
    ``n_messages`` distinct cross-site messages."""
    sites: list[tuple[str, ...]] = []
    timing: dict[str, tuple[Fraction, Fraction]] = {}
    for s, size in enumerate(site_sizes):
        clock = Fraction(rng.randint(0, 6), 2)
        names = []
        for k in range(size):
            name = f"s{s + 1}p{k + 1}"
            duration = Fraction(rng.randint(1, 8), 2)
            timing[name] = (clock, clock + duration)
            clock += duration
            names.append(name)
        sites.append(tuple(names))
    starts = [[timing[name][0] for name in site] for site in sites]
    everyone = [(s, name) for s, site in enumerate(sites) for name in site]

    messages: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    attempts = 0
    while len(messages) < n_messages:
        attempts += 1
        if len(sites) < 2 or attempts > 100 * n_messages:
            raise ValueError(
                f"placed {len(messages)} of {n_messages} messages on {site_sizes}"
            )
        s, sender = everyone[rng.randrange(len(everyone))]
        t = rng.randrange(len(sites) - 1)
        t += t >= s
        first = bisect.bisect_right(starts[t], timing[sender][1])
        if first >= len(sites[t]):
            continue
        last = min(len(sites[t]), first + WINDOW)
        pair = (sender, sites[t][rng.randrange(first, last)])
        if pair not in seen:
            seen.add(pair)
            messages.append(pair)
    return Trace(tuple(sites), tuple(messages), timing if timed else None)


def _decimal(x: Fraction) -> str:
    # timestamps are whole or half units, which a float holds exactly
    return str(x.numerator) if x.denominator == 1 else str(float(x))


def render(trace: Trace) -> str:
    """Trace file text in the documented line format."""
    lines = [f"site s{s + 1} : " + " ".join(site) for s, site in enumerate(trace.sites)]
    lines += [f"msg {a} -> {b}" for a, b in trace.messages]
    if trace.timing is not None:
        for name in trace.names:
            start, end = trace.timing[name]
            lines.append(f"time {name} = {_decimal(start)} .. {_decimal(end)}")
    return "\n".join(lines) + "\n"


def parse(text: str) -> Trace:
    """Read the benchmark's own fixture files.  They are fixed and well
    formed, so this handles only ``site``, ``msg`` and ``time`` lines."""
    sites: list[tuple[str, ...]] = []
    messages: list[tuple[str, str]] = []
    timing: dict[str, tuple[Fraction, Fraction]] = {}
    for line in text.splitlines():
        words = line.split("#", 1)[0].split()
        if not words:
            continue
        if words[0] == "site":
            sites.append(tuple(words[3:]))
        elif words[0] == "msg":
            messages.append((words[1], words[3]))
        elif words[0] == "time":
            timing[words[1]] = (Fraction(words[3]), Fraction(words[5]))
    return Trace(tuple(sites), tuple(messages), timing or None)
