import dataclasses
import itertools
import time
from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import pytest

from orthochron import (
    MessageBudgetError,
    Trace,
    TraceParseError,
    UntimedTraceError,
    gen_random,
    happened_before,
    parse_trace,
    serialize_trace,
    validate,
)
from orthochron import trace_model
from orthochron.trace_model import Message, Site, timing_problems

import oracles
from conftest import fixture_text, random_trace, rational_traces


def test_parse_fig2_structure(fig2):
    assert [site.name for site in fig2.sites] == ["x", "y", "z"]
    assert fig2.processes == (
        "p1", "p2", "p3", "p4", "q1", "q2", "q3", "q4", "q5", "r1", "r2", "r3",
    )
    assert fig2.timing["p2"] == (Fraction(2), Fraction(5))
    assert fig2.timing["q3"][0] == 4
    assert fig2.timing["r3"][1] == 10


def test_parse_keeps_process_names_in_site_order(fig7):
    assert fig7.sites[1].processes[2] == "q3"
    assert fig7.processes.index("q3") == len(fig7.sites[0].processes) + 2
    assert fig7.messages[0] == Message("p1", "q3")


def test_parse_untimed_trace(fig5):
    assert fig5.timing is None
    with pytest.raises(UntimedTraceError):
        fig5.ticks


def test_comments_and_blank_lines_ignored():
    trace = parse_trace("# header\n\nsite x : a b  # inline\n\nsite y : c\n")
    assert trace.processes == ("a", "b", "c")


def test_decimal_timestamps_are_exact_rationals():
    trace = parse_trace("site x : a\ntime a = 0.5 .. 1.25\n")
    assert trace.timing["a"] == (Fraction(1, 2), Fraction(5, 4))
    assert "time a = 0.5 .. 1.25" in serialize_trace(trace)


def test_negative_timestamps_round_trip():
    text = "site x : a b\ntime a = -2 .. -0.5\ntime b = -0.5 .. 1\n"
    assert serialize_trace(parse_trace(text)) == text


@pytest.mark.parametrize(
    "name",
    ["fig2.trace", "fig5.trace", "fig7.trace", "mo2.trace", "single-site.trace"],
)
def test_fixtures_serialize_byte_stable(name):
    text = fixture_text(name)
    assert serialize_trace(parse_trace(text)) == text


def test_serialize_rejects_non_decimal_rational():
    site = Site("x", ("a",))
    trace = Trace((site,), (), {"a": (Fraction(0), Fraction(1, 3))})
    with pytest.raises(ValueError):
        serialize_trace(trace)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty trace"),
        ("site x :\n", "has no processes"),
        ("site x : a\nsite x : b\n", "duplicate site name"),
        ("site x : a\nsite y : a\n", "duplicate process name"),
        ("msg a -> b\n", "unknown process 'a'"),
        ("site x : a b\nmsg a -> b\n", "intra-site message"),
        ("site x : a\nsite y : b\nmsg a -> b\nsite z : c\n", "must precede"),
        ("site x : a\ntime a = 0 .. 1\ntime a = 1 .. 2\n", "duplicate time entry"),
        ("site x : a b\ntime a = 0 .. 1\n", "partial timing"),
        ("site x : a\ntime a = 0\n", "expected '..'"),
        ("site x : a\ntime b = 0 .. 1\n", "unknown process 'b'"),
        ("site x : a\nsite y : b\nmsg a -> b extra\n", "trailing token"),
        ("site x : a$\n", "unexpected character"),
        ("blob x : a\n", "expected 'site', 'msg' or 'time'"),
        ("site x:a b\nmsg a->b\n", "intra-site message a -> b"),
        ("site x:a\nsite y:b\nmsg a->c\n", "unknown process 'c'"),
        ("site x:a\nsite x:b\n", "duplicate site name 'x'"),
        ("site\tx\t:\ta\nsite\ty\t:\ta\n", "duplicate process name 'a'"),
        ("site\tx\t:\ta\ntime\ta\t=\t0\t..\t1\ttime\n", "trailing token 'time'"),
        ("site x : a\ntime a = 0 .. 1.\n", "unexpected character '.'"),
        ("site x : a\nmsg a -> 5\n", "expected receiver process name, found '5'"),
        ("site x : a\ntime = 0 .. 1\n", "line 2, column 6: expected process name, found '='"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(TraceParseError) as excinfo:
        parse_trace(text)
    assert fragment in str(excinfo.value)


def test_parse_error_carries_position():
    with pytest.raises(TraceParseError) as excinfo:
        parse_trace("site x : a\nsite x : b\n")
    assert excinfo.value.line == 2
    assert excinfo.value.column == 6


def test_punctuation_needs_no_spaces():
    spaced = "site x : a b\nsite y : c\nmsg a -> c\n" + "".join(
        f"time {p} = {s} .. {e}\n" for p, s, e in (("a", 0, 1), ("b", 1, 2.5), ("c", 2, 3))
    )
    compact = "site x:a b\nsite\ty:c\nmsg a->c\ntime a=0..1\ntime\tb=1..2.5\ntime c=2..3 #end\n"
    assert parse_trace(compact) == parse_trace(spaced)


def _outcome(parse, text):
    try:
        return parse(text)
    except TraceParseError as exc:
        return str(exc), exc.line, exc.column


_NAMES = st.sampled_from(["a", "b", "c", "x", "site", "p_1", "1a"])
_SITE_NAMES = st.sampled_from(["x", "y", "z", "1a"])
_NUMBERS = st.sampled_from(["0", "1", "-1", "+2", "0.5", "-0.25", "1.50", "\u0663", "1."])
_PUNCT = st.sampled_from(["->", "..", ":", "="])
_STRAY = st.sampled_from(["-", ">", ".", "$", "\u00a0", "#", "# note", "\r", "\x0c", "1.", "..."])
_GAPS = st.sampled_from(["", " ", " ", " ", "\t", "  \t"])
_HEADERS = [
    "",
    "site x : a b\nsite y : c\n",
    "site x : a b\nsite y : c\nmsg a -> c\n",
    "site x : a b\nsite y : c\ntime a = 0 .. 1\ntime b = 1 .. 2\n",
]


@st.composite
def _trace_line(draw):
    """A directive's tokens, or random ones, with at most one token inserted,
    dropped or replaced, and sometimes a trailing comment.  Names include the
    invalid ``1a``, and an empty token makes a double space.  About half the
    lines join the tokens with single spaces, the form ``serialize_trace``
    writes; the rest put random runs of spaces and tabs, some empty, before
    and after every token."""
    shape = draw(st.sampled_from(["site", "site", "msg", "msg", "time", "time", "time", "junk"]))
    if shape == "site":
        tokens = ["site", draw(_SITE_NAMES), ":", *draw(st.lists(_NAMES, min_size=1, max_size=3))]
    elif shape == "msg":
        tokens = ["msg", draw(_NAMES), "->", draw(_NAMES)]
    elif shape == "time":
        tokens = ["time", draw(_NAMES), "=", draw(_NUMBERS), "..", draw(_NUMBERS)]
    else:
        tokens = draw(st.lists(st.one_of(_NAMES, _NUMBERS, _PUNCT), max_size=6))
    if draw(st.integers(0, 2)) == 0:
        at = draw(st.integers(0, len(tokens)))
        edit = st.one_of(_STRAY, _NAMES, _NUMBERS, _PUNCT, st.just(""))
        tokens[at : at + draw(st.integers(0, 1))] = draw(st.lists(edit, max_size=1))
    if draw(st.integers(0, 5)) == 0:
        tokens.append("# note")
    if draw(st.booleans()):
        return " ".join(tokens)
    return draw(_GAPS) + "".join(token + draw(_GAPS) for token in tokens)


# single-spaced site lines that the split path hands to the token reader: a
# site after a msg or time line, a repeated site name, a process name declared
# before or repeated within the line, an invalid name, an empty name between
# two spaces, and a comment
@hypothesis.example(_HEADERS[2], [("site z : d", "\n")])
@hypothesis.example(_HEADERS[3], [("site z : d", "\n")])
@hypothesis.example(_HEADERS[1], [("site x : d", "\n")])
@hypothesis.example(_HEADERS[1], [("site z : d d", "\n")])
@hypothesis.example(_HEADERS[1], [("site z : d a", "\n")])
@hypothesis.example(_HEADERS[1], [("site z : 1a", "\n")])
@hypothesis.example(_HEADERS[1], [("site 1a : d", "\n")])
@hypothesis.example(_HEADERS[1], [("site z : d  e", "\n")])
@hypothesis.example(_HEADERS[1], [("site z : d # note", "\n")])
@hypothesis.settings(max_examples=500)
@hypothesis.given(
    st.sampled_from(_HEADERS),
    st.lists(st.tuples(_trace_line(), st.sampled_from(["\n", "\r\n", "\r", "\x0c"])), max_size=5),
)
def test_parse_matches_token_reader(header, lines):
    text = header + "".join(line + end for line, end in lines)
    assert _outcome(parse_trace, text) == _outcome(oracles.parse_trace, text)


@pytest.mark.parametrize("seed", range(1, 9))
def test_canonical_documents_never_reach_the_token_reader(seed, monkeypatch):
    timed = random_trace(seed, 1 + seed % 4, 1 + seed, 3 * seed)
    untimed = dataclasses.replace(timed, timing=None)

    def tokenize(line, lineno):
        raise AssertionError(f"line {lineno} left the split path: {line!r}")

    monkeypatch.setattr(trace_model, "_tokenize", tokenize)
    for trace in (timed, untimed):
        assert parse_trace(serialize_trace(trace)) == trace


def test_validate_accepts_fixtures(fig2, fig5, fig7, mo2, single_site):
    for trace in (fig2, fig5, fig7, mo2, single_site):
        assert validate(trace) == []


def test_validate_reports_gap():
    trace = parse_trace("site s : a b\ntime a = 0 .. 1\ntime b = 2 .. 3\n")
    assert validate(trace) == ["gap at site s between a and b"]


def test_validate_reports_overlap():
    trace = parse_trace("site s : a b\ntime a = 0 .. 2\ntime b = 1 .. 3\n")
    assert validate(trace) == ["overlap at site s between a and b"]


def test_validate_reports_non_positive_duration():
    trace = parse_trace("site s : a b\ntime a = 0 .. 0\ntime b = 0 .. 1\n")
    assert "process a has non-positive duration" in validate(trace)


def test_validate_reports_untimely_message():
    text = (
        "site x : a\nsite y : b\nmsg a -> b\n"
        "time a = 0 .. 2\ntime b = 1 .. 3\n"
    )
    report = validate(parse_trace(text))
    assert any("not causally timed" in entry for entry in report)


def _two_sites(a_span, b_span):
    """Processes a on site x and b on site y, and a message a -> b."""
    return Trace((Site("x", ("a",)), Site("y", ("b",))), (Message("a", "b"),), {"a": a_span, "b": b_span})


def test_untimely_message_prints_fractions():
    trace = _two_sites((Fraction(1, 3), Fraction(5, 2)), (Fraction(5, 2), Fraction(3)))
    assert validate(trace) == [
        "message a -> b is not causally timed (sender ends at 5/2, receiver starts at 5/2)"
    ]


def test_ticks_put_every_time_on_the_common_denominator():
    trace = _two_sites((Fraction(-1, 3), Fraction(2, 7)), (Fraction(2, 7), Fraction("1.25")))
    assert trace.ticks == {"a": (-28, 24), "b": (24, 105)}
    assert trace.timing["b"] == (Fraction(2, 7), Fraction(5, 4))
    with pytest.raises(UntimedTraceError):
        dataclasses.replace(trace, timing=None).ticks


@hypothesis.given(rational_traces(tiled=False))
def test_timing_problems_match_fraction_comparisons(trace):
    assert timing_problems(trace) == oracles.timing_problems(trace)


@hypothesis.given(
    st.one_of(
        rational_traces(tiled=True),
        st.builds(random_trace, st.integers(0, 10**6), st.integers(1, 4), st.integers(1, 6), st.integers(0, 12)),
    )
)
def test_valid_timing_rules_out_a_causal_cycle(trace):
    """validate searches only untimed traces for a cycle."""
    if not timing_problems(trace):
        happened_before(trace)  # raises CycleError on a cycle


def test_validate_reports_causal_cycle():
    text = "site x : a1 a2\nsite y : b1 b2\nmsg a2 -> b1\nmsg b2 -> a1\n"
    report = validate(parse_trace(text))
    assert len(report) == 1
    assert report[0].startswith("causal cycle: ")


def test_validate_reports_duplicate_process_names():
    """validate never sees this fault: building the Trace raises it."""
    site_a = Site("x", ("a",))
    site_b = Site("y", ("a",))
    with pytest.raises(ValueError) as excinfo:
        Trace((site_a, site_b))
    assert str(excinfo.value) == "duplicate process name 'a'"


_X, _Y = Site("x", ("a", "b")), Site("y", ("c",))
_ONE = (Fraction(0), Fraction(1))


@pytest.mark.parametrize(
    "change, error",
    [
        pytest.param({"sites": (_X, Site("x", ("c",)))}, "duplicate site name 'x'", id="duplicate site name x"),
        pytest.param({"sites": (_X, Site("y", ()))}, "site 'y' has no processes", id="site y has no processes"),
        pytest.param({"sites": (Site("x", ("1a",)), _Y)}, "invalid process name '1a'", id="invalid process name '1a'"),
        # every token of the joined names is valid, but one name holds the separator
        pytest.param(
            {"sites": (Site("x", ("a b", "c")), Site("y", ("d",)))},
            "invalid process name 'a b'",
            id="invalid process name 'a b'",
        ),
        pytest.param({"sites": (_X, Site("y", ("a",)))}, "duplicate process name 'a'", id="duplicate process name a"),
        pytest.param(
            {"messages": (Message("a", "ghost"),)},
            "message endpoint ghost is not a process of this trace",
            id="message endpoint ghost is not a process of this trace",
        ),
        pytest.param(
            {"messages": (Message("a", "b"), Message("a", "c"))},
            "intra-site message a -> b",
            id="intra-site message a -> b",
        ),
        pytest.param(
            {"timing": {"a": _ONE, "b": _ONE, "c": _ONE, "ghost": _ONE}},
            "time entry for unknown process 'ghost'",
            id="time entry for unknown process ghost",
        ),
    ],
)
def test_validate_reports_structural_entries(change, error):
    """Each change puts exactly one structural fault into a valid Trace.

    validate no longer reports these: the Trace refuses them when it is
    built, and dataclasses.replace builds it again, so a valid Trace cannot
    be edited into a faulty one either."""
    valid = Trace((_X, _Y))
    with pytest.raises(ValueError) as excinfo:
        dataclasses.replace(valid, **change)
    assert str(excinfo.value) == error


def test_validate_reports_partial_timing():
    """validate never sees this fault: building the Trace raises it."""
    site = Site("x", ("a", "b"))
    with pytest.raises(ValueError) as excinfo:
        Trace((site,), (), {"a": _ONE})
    assert str(excinfo.value) == "partial timing: no entry for 'b'"


def test_gen_random_single_site():
    trace = gen_random(1, 1, 3, 0)
    assert len(trace.sites) == 1
    assert trace.processes == ("s1p1", "s1p2", "s1p3")
    assert trace.messages == ()
    assert trace.timing["s1p1"][1] == trace.timing["s1p2"][0]


def test_gen_random_is_deterministic():
    assert gen_random(42, 3, 4, 3) == gen_random(42, 3, 4, 3)


def test_gen_random_rejects_bad_shapes():
    with pytest.raises(ValueError):
        gen_random(1, 0, 3, 0)
    with pytest.raises(ValueError):
        gen_random(1, 1, 0, 0)
    with pytest.raises(ValueError):
        gen_random(1, 1, 1, -1)


def test_gen_random_reports_message_budget():
    # a single site has no cross-site pairs at all
    with pytest.raises(MessageBudgetError) as excinfo:
        gen_random(1, 1, 3, 5)
    assert excinfo.value.requested == 5
    assert excinfo.value.available == 0

    with pytest.raises(MessageBudgetError) as excinfo:
        gen_random(3, 2, 2, 99)
    budget = excinfo.value.available
    assert 0 <= budget < 99
    retry = gen_random(3, 2, 2, budget)
    assert len(retry.messages) == budget


@hypothesis.given(st.integers(min_value=1, max_value=10**9))
def test_generated_traces_are_valid(seed):
    trace = random_trace(seed, seed % 4 + 1, seed % 3 + 1, seed % 5)
    assert validate(trace) == []


@hypothesis.given(st.integers(min_value=1, max_value=10**9))
def test_serialize_parse_round_trip(seed):
    trace = random_trace(seed, seed % 3 + 1, seed % 4 + 1, seed % 6)
    assert parse_trace(serialize_trace(trace)) == trace


@hypothesis.given(st.integers(min_value=1, max_value=10**9))
def test_generated_sites_partition_their_span(seed):
    trace = random_trace(seed, seed % 4 + 1, seed % 4 + 1, 0)
    for site in trace.sites:
        for a, b in zip(site.processes, site.processes[1:]):
            assert trace.timing[a][1] == trace.timing[b][0]
        for p in site.processes:
            assert trace.timing[p][0] < trace.timing[p][1]


def test_untimed_variant_of_generated_trace_is_valid():
    trace = gen_random(9, 2, 3, 2)
    untimed = dataclasses.replace(trace, timing=None)
    assert untimed.timing is None
    assert validate(untimed) == []


def _generated(generate, *shape):
    try:
        return serialize_trace(generate(*shape))
    except MessageBudgetError as exc:
        return ("budget", exc.requested, exc.available)


@pytest.mark.parametrize("seed", range(10))
def test_gen_random_matches_list_based_reference(seed):
    for n_sites, procs, messages in itertools.product((1, 2, 3, 5), (1, 2, 4, 7), (0, 1, 4, 30)):
        shape = (seed, n_sites, procs, messages)
        assert _generated(gen_random, *shape) == _generated(oracles.gen_random, *shape), shape


def test_gen_random_scales_without_listing_pairs():
    started = time.perf_counter()
    trace = gen_random(0, 2, 3000, 10)
    assert time.perf_counter() - started < 3.0
    assert len(trace.processes) == 6000
    assert len(trace.messages) == 10
