"""Trace data model: sites of consecutive processes, cross-site messages,
and optional exact-rational timing.

Trace files are line oriented.  ``#`` starts a comment, blank lines are
ignored, tokens are separated by spaces or tabs (punctuation needs none),
and ``site`` lines must precede ``msg`` and ``time`` lines::

    site x : p1 p2 p3
    site y : q1 q2
    msg p1 -> q2
    time p1 = 0 .. 2.5

Numbers are exact rationals written as integers or decimal literals
(optional sign, digits, at most one decimal point).  They are stored as
``fractions.Fraction``, never as binary floating point, so boundary
comparisons are exact.

A process is its name.  A ``Site`` holds its name and its process names in
order, a ``Message`` holds the sender's and the receiver's names, and
``Trace.processes`` lists every name site by site; a process's index in that
tuple is its ordinal.  Serialization emits sites in order, messages in
declaration order and times in ordinal order with exactly one space around
each token, which makes it byte-stable under re-parsing.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NUMBER = r"[+-]?\d+(?:\.\d+)?"
_KEYWORD = "'site', 'msg' or 'time'"

NAME_PATTERN = re.compile(_NAME + r"\Z")
_NUMBER_PATTERN = re.compile(_NUMBER + r"\Z")
_NAMES = re.compile(rf"{_NAME}(?: {_NAME})*\Z")

_TOKEN = re.compile(rf"(?P<number>{_NUMBER})|(?P<name>{_NAME})|(?P<punct>->|\.\.|[:=])")


class TraceParseError(ValueError):
    """A trace document could not be parsed; carries the offending position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f"line {line}: " if column is None else f"line {line}, column {column}: "
        super().__init__(where + message)
        self.line = line
        self.column = column


class UntimedTraceError(ValueError):
    """A timed-mode operation was applied to a trace without timestamps."""


class MessageBudgetError(ValueError):
    """gen_random could not place the requested number of messages."""

    def __init__(self, requested: int, available: int):
        super().__init__(
            f"requested {requested} messages but only {available} "
            "timestamp-compatible sender/receiver pairs exist"
        )
        self.requested = requested
        self.available = available


@dataclass(frozen=True)
class Message:
    """A message edge between two process names: the sender ends with the
    send event, the receiver begins with the receive event."""

    sender: str
    receiver: str


@dataclass(frozen=True)
class Site:
    name: str
    processes: tuple[str, ...]


@dataclass(frozen=True)
class Trace:
    """An immutable, well-formed trace.  ``timing`` maps process name to
    (start, end) and is either total over all processes or ``None``.

    Construction raises ValueError on a structural fault: a duplicate site
    or process name, an invalid process name, a site without processes, a
    message endpoint that is unknown or on the sender's site, or timing not
    keyed by exactly the processes.  Timing values are ``validate``'s job."""

    sites: tuple[Site, ...]
    messages: tuple[Message, ...] = ()
    timing: dict[str, tuple[Fraction, Fraction]] | None = None

    def __post_init__(self):
        names = self.processes
        site_of = {name: i for i, site in enumerate(self.sites) for name in site.processes}
        site_names = [site.name for site in self.sites]
        if len(set(site_names)) < len(site_names):
            raise ValueError(f"duplicate site name {_first_repeat(site_names)!r}")
        for site in self.sites:
            if not site.processes:
                raise ValueError(f"site {site.name!r} has no processes")
        # one match over the joined names; counting the separators rules out
        # a name that contains one
        joined = " ".join(names)
        if names and (joined.count(" ") != len(names) - 1 or not _NAMES.match(joined)):
            invalid = next(name for name in names if not NAME_PATTERN.match(name))
            raise ValueError(f"invalid process name {invalid!r}")
        if len(site_of) < len(names):
            raise ValueError(f"duplicate process name {_first_repeat(names)!r}")
        for message in self.messages:
            sender, receiver = site_of.get(message.sender), site_of.get(message.receiver)
            if sender is None or receiver is None:
                unknown = message.receiver if sender is not None else message.sender
                raise ValueError(f"message endpoint {unknown} is not a process of this trace")
            if sender == receiver:
                raise ValueError(f"intra-site message {message.sender} -> {message.receiver}")
        if self.timing is not None and self.timing.keys() != site_of.keys():
            for name in names:
                if name not in self.timing:
                    raise ValueError(f"partial timing: no entry for {name!r}")
            unknown = next(name for name in self.timing if name not in site_of)
            raise ValueError(f"time entry for unknown process {unknown!r}")

    @cached_property
    def processes(self) -> tuple[str, ...]:
        """Every process name, in ordinal order."""
        return tuple([name for site in self.sites for name in site.processes])

    @cached_property
    def ticks(self) -> dict[str, tuple[int, int]]:
        """``timing`` as whole multiples of one tick, 1 / the lcm of every
        denominator, so that ticks compare exactly as the times do."""
        if self.timing is None:
            raise UntimedTraceError("trace has no timestamps")
        scale = math.lcm(*{t.denominator for span in self.timing.values() for t in span})
        return {
            name: (start.numerator * scale // start.denominator, end.numerator * scale // end.denominator)
            for name, (start, end) in self.timing.items()
        }


def _first_repeat(names: list[str] | tuple[str, ...]) -> str:
    """The first name that occurs a second time."""
    seen: set[str] = set()
    return next(name for name in names if name in seen or seen.add(name))


def _tokenize(line: str, lineno: int) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(line):
        ch = line[pos]
        if ch in " \t":
            pos += 1
            continue
        match = _TOKEN.match(line, pos)
        if match is None:
            raise TraceParseError(f"unexpected character {ch!r}", lineno, pos + 1)
        tokens.append((match.lastgroup or "", match.group(), pos + 1))
        pos = match.end()
    return tokens


class _LineReader:
    """Cursor over one line's tokens with uniform error reporting."""

    def __init__(self, tokens: list[tuple[str, str, int]], lineno: int):
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0

    def _fail(self, expected: str):
        if self.pos < len(self.tokens):
            _, value, col = self.tokens[self.pos]
            raise TraceParseError(f"expected {expected}, found {value!r}", self.lineno, col)
        col = self.tokens[-1][2] if self.tokens else 1
        raise TraceParseError(f"expected {expected} at end of line", self.lineno, col)

    def take(self, kind: str, expected: str, literal: str | None = None) -> tuple[str, int]:
        if self.pos < len(self.tokens):
            tok_kind, value, col = self.tokens[self.pos]
            if tok_kind == kind and (literal is None or value == literal):
                self.pos += 1
                return value, col
        self._fail(expected)
        raise AssertionError("unreachable")

    def process(self, expected: str, site_of: dict[str, int]) -> str:
        """Take a name that must be a declared process."""
        name, col = self.take("name", expected)
        if name not in site_of:
            raise TraceParseError(f"unknown process {name!r}", self.lineno, col)
        return name

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def expect_end(self):
        if not self.done():
            _, value, col = self.tokens[self.pos]
            raise TraceParseError(f"unexpected trailing token {value!r}", self.lineno, col)


def parse_trace(text: str) -> Trace:
    """Parse a trace document.  Raises TraceParseError with the line and
    column of a syntax error, a duplicate or unknown name or an intra-site
    message, and without a position for an empty trace or partial timing,
    which the ``Trace`` constructor finds.

    Lines are read two ways.  The split path splits a line on single spaces
    and takes it as it stands when it is in the canonical form
    ``serialize_trace`` writes and passes every check: ``site S : A B ...``
    before any msg or time line, with S and every A a valid new name;
    ``msg A -> B`` with A and B declared on different sites; or
    ``time P = S .. E`` with P declared and not yet timed and S and E number
    literals.  Every other line, and every line with a fault, goes to the
    token reader (``_tokenize`` and ``_LineReader``), where each check runs
    as its token is read and names that token's column."""
    sites: list[Site] = []
    site_names: set[str] = set()
    site_of: dict[str, int] = {}
    messages: list[Message] = []
    timing: dict[str, tuple[Fraction, Fraction]] = {}
    numbers = _Numbers()
    past_sites = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = raw.split(" ")
        if len(words) == 4 and words[0] == "msg" and words[2] == "->":
            sender, receiver = words[1], words[3]
            if sender in site_of and receiver in site_of and site_of[sender] != site_of[receiver]:
                past_sites = True
                messages.append(Message(sender, receiver))
                continue
        elif len(words) == 6 and words[0] == "time" and words[2] == "=" and words[4] == "..":
            process, start, end = words[1], words[3], words[5]
            if (
                process in site_of
                and process not in timing
                and (start in numbers or _NUMBER_PATTERN.match(start))
                and (end in numbers or _NUMBER_PATTERN.match(end))
            ):
                past_sites = True
                timing[process] = (numbers[start], numbers[end])
                continue
        elif len(words) > 3 and words[0] == "site" and words[2] == ":" and not past_sites:
            site_name, names = words[1], words[3:]
            if (
                NAME_PATTERN.match(site_name)
                and site_name not in site_names
                and _NAMES.match(" ".join(names))
                and site_of.keys().isdisjoint(names)
                and len(set(names)) == len(names)
            ):
                site_names.add(site_name)
                site_of.update(dict.fromkeys(names, len(sites)))
                sites.append(Site(site_name, tuple(names)))
                continue
        tokens = _tokenize(raw.split("#", 1)[0], lineno)
        if not tokens:
            continue
        reader = _LineReader(tokens, lineno)
        keyword, col = reader.take("name", _KEYWORD)
        if keyword == "site":
            if past_sites:
                raise TraceParseError("site lines must precede msg/time lines", lineno, col)
            site_name, name_col = reader.take("name", "site name")
            if site_name in site_names:
                raise TraceParseError(f"duplicate site name {site_name!r}", lineno, name_col)
            site_names.add(site_name)
            reader.take("punct", "':'", ":")
            procs: list[str] = []
            while not reader.done():
                name, name_col = reader.take("name", "process name")
                if name in site_of:
                    raise TraceParseError(f"duplicate process name {name!r}", lineno, name_col)
                site_of[name] = len(sites)
                procs.append(name)
            if not procs:
                raise TraceParseError(f"site {site_name!r} has no processes", lineno, col)
            sites.append(Site(site_name, tuple(procs)))
        elif keyword == "msg":
            past_sites = True
            sender = reader.process("sender process name", site_of)
            reader.take("punct", "'->'", "->")
            receiver = reader.process("receiver process name", site_of)
            reader.expect_end()
            if site_of[sender] == site_of[receiver]:
                raise TraceParseError(f"intra-site message {sender} -> {receiver}", lineno, col)
            messages.append(Message(sender, receiver))
        elif keyword == "time":
            past_sites = True
            process = reader.process("process name", site_of)
            reader.take("punct", "'='", "=")
            start = reader.take("number", "start time")[0]
            reader.take("punct", "'..'", "..")
            end = reader.take("number", "end time")[0]
            reader.expect_end()
            if process in timing:
                raise TraceParseError(f"duplicate time entry for {process!r}", lineno, col)
            timing[process] = (numbers[start], numbers[end])
        else:
            raise TraceParseError(f"expected {_KEYWORD}, found {keyword!r}", lineno, col)

    if not sites:
        raise TraceParseError("empty trace: no site lines")
    try:
        return Trace(tuple(sites), tuple(messages), timing or None)
    except ValueError as exc:  # only partial timing is left; the rest failed above
        raise TraceParseError(str(exc)) from None


class _Numbers(dict):
    """Number literal -> Fraction, built once per distinct literal from its
    digits as an integer over a power of ten."""

    def __missing__(self, literal: str) -> Fraction:
        whole, _, places = literal.partition(".")
        value = self[literal] = Fraction(int(whole + places), 10 ** len(places))
        return value


def _format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    rest = x.denominator
    twos = fives = 0
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        raise ValueError(f"{x} has no finite decimal representation")
    places = max(twos, fives)
    scaled = abs(x.numerator) * 10**places // x.denominator
    digits = str(scaled).rjust(places + 1, "0")
    sign = "-" if x.numerator < 0 else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def serialize_trace(trace: Trace) -> str:
    lines = []
    for site in trace.sites:
        lines.append(f"site {site.name} : " + " ".join(site.processes))
    for message in trace.messages:
        lines.append(f"msg {message.sender} -> {message.receiver}")
    if trace.timing is not None:
        for name in trace.processes:
            start, end = trace.timing[name]
            lines.append(f"time {name} = {_format_rational(start)} .. {_format_rational(end)}")
    return "\n".join(lines) + "\n"


def timing_problems(trace: Trace) -> list[str]:
    """validate's timing entries: durations, tiling, message order.  Times
    are compared as ``Trace.ticks`` and printed as Fractions."""
    if trace.timing is None:
        return []
    problems: list[str] = []
    timing, ticks = trace.timing, trace.ticks
    for site in trace.sites:
        for name in site.processes:
            start, end = ticks[name]
            if end <= start:
                problems.append(f"process {name} has non-positive duration")
        for a, b in zip(site.processes, site.processes[1:]):
            end_a = ticks[a][1]
            start_b = ticks[b][0]
            if end_a < start_b:
                problems.append(f"gap at site {site.name} between {a} and {b}")
            elif end_a > start_b:
                problems.append(f"overlap at site {site.name} between {a} and {b}")
    for message in trace.messages:
        s, r = message.sender, message.receiver
        if ticks[s][1] >= ticks[r][0]:
            problems.append(
                f"message {s} -> {r} is not causally timed "
                f"(sender ends at {timing[s][1]}, receiver starts at {timing[r][0]})"
            )
    return problems


def validate(trace: Trace) -> list[str]:
    """Return violated invariants as human-readable entries; empty means valid.

    A ``Trace`` is well formed by construction, so this covers what one can
    still get wrong: non-positive durations, gaps and overlaps within a
    site, untimely messages, and a cycle in the happened-before relation.
    Only an untimed trace is searched for a cycle: valid timing moves every
    edge to a strictly later start, since sites tile and each message ends
    before its receiver starts.
    """
    if trace.timing is not None:
        return timing_problems(trace)
    from .causal_core import CycleError, happened_before

    try:
        happened_before(trace)
    except CycleError as exc:
        return [str(exc)]
    return []


def gen_random(seed: int, n_sites: int, procs_per_site: int, n_messages: int) -> Trace:
    """Deterministically generate a valid timed trace.

    Integer timestamps are drawn first; messages are then sampled without
    replacement from the cross-site pairs with end(sender) < start(receiver),
    which guarantees timed validity and acyclicity.  The pairs, ordered by
    sender and then receiver, are counted per sender and never listed; on
    each other site a sender's receivers are the suffix that starts after it
    ends.  Raises MessageBudgetError when fewer pairs exist than requested.
    """
    if n_sites < 1 or procs_per_site < 1:
        raise ValueError("need at least one site and one process per site")
    if n_messages < 0:
        raise ValueError("n_messages must be non-negative")
    rng = random.Random(seed)
    sites: list[Site] = []
    timing: dict[str, tuple[Fraction, Fraction]] = {}
    for i in range(n_sites):
        clock = Fraction(rng.randint(0, 3))
        procs: list[str] = []
        for k in range(procs_per_site):
            name = f"s{i + 1}p{k + 1}"
            duration = rng.randint(1, 3)
            timing[name] = (clock, clock + duration)
            clock += duration
            procs.append(name)
        sites.append(Site(f"s{i + 1}", tuple(procs)))
    everyone = list(timing)  # in ordinal order: ordinal k is on site k // procs_per_site
    starts = [[timing[p][0] for p in site.processes] for site in sites]
    ordered = sorted([start for start, _ in timing.values()])

    def later(row: list[Fraction], p: str) -> int:
        """How many of the sorted starts in row come after p ends."""
        return len(row) - bisect.bisect_right(row, timing[p][1])

    counts = [
        later(ordered, a) - later(starts[k // procs_per_site], a) for k, a in enumerate(everyone)
    ]
    cumulative = list(itertools.accumulate(counts))
    if n_messages > cumulative[-1]:
        raise MessageBudgetError(n_messages, cumulative[-1])
    messages = []
    for index in rng.sample(range(cumulative[-1]), n_messages):
        sender = bisect.bisect_right(cumulative, index)
        a, rest = everyone[sender], index - cumulative[sender] + counts[sender]
        for j, site in enumerate(sites):
            suffix = later(starts[j], a) if j != sender // procs_per_site else 0
            if rest < suffix:
                messages.append(Message(a, site.processes[len(site.processes) - suffix + rest]))
                break
            rest -= suffix
    return Trace(tuple(sites), tuple(messages), timing)
