import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest

from orthochron import MessageBudgetError, gen_random, parse_trace
from orthochron.trace_model import Message, Site, Trace

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def fixture_text(name: str) -> str:
    return fixture_path(name).read_text()


def load_fixture(name: str):
    return parse_trace(fixture_text(name))


def random_trace(seed: int, n_sites: int, procs_per_site: int, n_messages: int):
    """gen_random, shrinking the message count to the reported budget."""
    try:
        return gen_random(seed, n_sites, procs_per_site, n_messages)
    except MessageBudgetError as exc:
        return gen_random(seed, n_sites, procs_per_site, exc.available)


# non-decimal, negative and mixed-place times, which only a directly built
# Trace can hold together
RATIONAL_TIMES = tuple(
    map(Fraction, ["-3/2", "-1", "-1/3", "0", "2/7", "1/3", "0.5", "0.75", "1", "1.125", "5/2", "3"])
)


@st.composite
def rational_traces(draw, tiled: bool):
    """Traces built directly with times from RATIONAL_TIMES.  Tiled sites
    split a sorted run of distinct times into consecutive processes; untiled
    ones draw each (start, end) freely, so gaps, overlaps and non-positive
    durations occur.  Up to four cross-site messages, timely or not."""
    sites, timing = [], {}
    times = st.sampled_from(RATIONAL_TIMES)
    for i in range(draw(st.integers(1, 3))):
        if tiled:
            bounds = sorted(draw(st.sets(times, min_size=2, max_size=4)))
            spans = list(zip(bounds, bounds[1:]))
        else:
            spans = draw(st.lists(st.tuples(times, times), min_size=1, max_size=3))
        procs = tuple(f"s{i}p{k}" for k in range(len(spans)))
        timing.update(zip(procs, spans))
        sites.append(Site(f"s{i}", procs))
    everyone = [(i, p) for i, site in enumerate(sites) for p in site.processes]
    pairs = [(a, b) for i, a in everyone for j, b in everyone if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    return Trace(tuple(sites), tuple(Message(a, b) for a, b in chosen), timing)


@pytest.fixture(scope="session")
def fig2():
    return load_fixture("fig2.trace")


@pytest.fixture(scope="session")
def fig5():
    return load_fixture("fig5.trace")


@pytest.fixture(scope="session")
def fig7():
    return load_fixture("fig7.trace")


@pytest.fixture(scope="session")
def mo2():
    return load_fixture("mo2.trace")


@pytest.fixture(scope="session")
def single_site():
    return load_fixture("single-site.trace")


def pytest_terminal_summary(terminalreporter):
    acceptance = sys.modules.get("test_acceptance")
    if acceptance is None or not acceptance.RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in acceptance.RESULTS:
        terminalreporter.write_line(line)
