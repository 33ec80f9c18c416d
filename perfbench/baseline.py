"""The layer timings of ROADMAP's "Baseline" section, measured again at
the sizes it names, each once, with the ROADMAP figure beside it.

The 2,290-set lattice is ``gen_random(3, 6, 8, 10)`` as the ROADMAP ran
it, saved as ``fixtures/roadmap-2290.trace`` so later changes to
``gen_random`` cannot change it.  The ROADMAP does not give the shape of
its 4,000-process trace; this one has 8 sites of 500 and 8,000 messages
from the benchmark's generator.  2,048 elements is the Boolean lattice of
an 11-process single-site trace.
"""

from __future__ import annotations

import random
import time

import tracegen
from workloads import FIXTURES

# metric, what was timed, ROADMAP seconds
ROWS = [
    ("baseline.happened_before_4000p_s", "happened_before, 4,000 processes, 8,000 messages", 4.9),
    ("baseline.enumerate_closed_2290_s", "enumerate_closed, 2,290 closed sets", 0.37),
    ("baseline.covers_2048_s", "downset_masks + hasse_edges, 2,048 elements", 0.36),
    ("baseline.de_morgan_2290_s", "check_laws('de-morgan'), 2,290 elements", 6.7),
]
# smoke scale: the same calls on small inputs
SIZES = {"full": (8, 500, 8000, 11), "smoke": (4, 50, 100, 6)}


def _timed(call):
    start = time.perf_counter()
    result = call()
    return time.perf_counter() - start, result


def measure(orthochron, seed: int, scale: str) -> list[dict]:
    """One timing per ROADMAP row.  Raises if a result is not what the row
    names, so a row is never reported for the wrong input."""
    sites, per_site, messages, boolean = SIZES[scale]
    wide = tracegen.generate(
        random.Random(f"baseline/{seed}"), [per_site] * sites, messages, timed=False
    )
    wide_trace = orthochron.parse_trace(tracegen.render(wide))
    hb_s, _ = _timed(lambda: orthochron.happened_before(wide_trace))

    roadmap_trace = orthochron.parse_trace((FIXTURES / "roadmap-2290.trace").read_text())
    cs = orthochron.happened_before(roadmap_trace)
    enumerate_s, lattice = _timed(lambda: orthochron.enumerate_closed(cs))
    if len(lattice) != 2290:
        raise AssertionError(f"roadmap-2290.trace gave {len(lattice)} closed sets")

    single = tracegen.generate(random.Random(0), [boolean], 0, timed=False)
    boolean_lattice = orthochron.enumerate_closed(
        orthochron.happened_before(orthochron.parse_trace(tracegen.render(single)))
    )
    covers_s, _ = _timed(lambda: (boolean_lattice.downset_masks, boolean_lattice.hasse_edges()))

    # de Morgan always holds, so the check scans all n^2 pairs
    law_lattice = lattice if scale == "full" else boolean_lattice
    de_morgan_s, verdict = _timed(lambda: law_lattice.check_laws("de-morgan"))
    if not verdict.holds:
        raise AssertionError("de-morgan failed on the baseline lattice")

    measured = {  # metric: (seconds, size of the input)
        "baseline.happened_before_4000p_s": (hb_s, len(wide_trace.processes)),
        "baseline.enumerate_closed_2290_s": (enumerate_s, len(lattice)),
        "baseline.covers_2048_s": (covers_s, len(boolean_lattice)),
        "baseline.de_morgan_2290_s": (de_morgan_s, len(law_lattice)),
    }
    return [
        {"metric": metric, "what": what, "size": measured[metric][1],
         "measured_s": measured[metric][0], "roadmap_s": roadmap_s}
        for metric, what, roadmap_s in ROWS
    ]
