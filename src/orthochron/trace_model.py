"""Trace data model: sites of consecutive processes, cross-site messages,
and optional exact-rational timing.

Trace files are line oriented.  ``#`` starts a comment, blank lines are
ignored, and ``site`` lines must precede ``msg`` and ``time`` lines::

    site x : p1 p2 p3
    site y : q1 q2
    msg p1 -> q2
    time p1 = 0 .. 2.5

Numbers are exact rationals written as integers or decimal literals
(optional sign, digits, at most one decimal point).  They are stored as
``fractions.Fraction``, never as binary floating point, so boundary
comparisons are exact.  Serialization emits sites in index order, messages
in declaration order and times in (site, position) order with exactly one
space around each token, which makes it byte-stable under re-parsing.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

__all__ = [
    "ProcessId",
    "Message",
    "Site",
    "Trace",
    "TraceParseError",
    "UntimedTraceError",
    "MessageBudgetError",
    "parse_trace",
    "serialize_trace",
    "validate",
    "gen_random",
]

NAME_PATTERN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_TOKEN = re.compile(
    r"(?P<number>[+-]?\d+(?:\.\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>->|\.\.|[:=])"
)


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
class ProcessId:
    """A process, identified by site index, position within the site, and a
    globally unique name."""

    site_index: int
    position: int
    name: str


@dataclass(frozen=True)
class Message:
    """A message edge: the sender ends with the send event, the receiver
    begins with the receive event."""

    sender: ProcessId
    receiver: ProcessId


@dataclass(frozen=True)
class Site:
    name: str
    processes: tuple[ProcessId, ...]


@dataclass(frozen=True)
class Trace:
    """An immutable trace.  ``timing`` maps process name to (start, end) and
    is either total over all processes or ``None``."""

    sites: tuple[Site, ...]
    messages: tuple[Message, ...] = ()
    timing: dict[str, tuple[Fraction, Fraction]] | None = None

    @cached_property
    def processes(self) -> tuple[ProcessId, ...]:
        return tuple(p for site in self.sites for p in site.processes)

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.processes)

    @cached_property
    def _by_name(self) -> dict[str, ProcessId]:
        return {p.name: p for p in self.processes}

    @property
    def is_timed(self) -> bool:
        return self.timing is not None

    def process(self, name: str) -> ProcessId:
        return self._by_name[name]

    def span(self, name: str) -> tuple[Fraction, Fraction]:
        if self.timing is None:
            raise UntimedTraceError("trace has no timestamps")
        return self.timing[name]

    def start(self, name: str) -> Fraction:
        return self.span(name)[0]

    def end(self, name: str) -> Fraction:
        return self.span(name)[1]


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

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def expect_end(self):
        if not self.done():
            _, value, col = self.tokens[self.pos]
            raise TraceParseError(f"unexpected trailing token {value!r}", self.lineno, col)


def parse_trace(text: str) -> Trace:
    """Parse a trace document.  Raises TraceParseError on syntax errors,
    duplicate or unknown names, intra-site messages and partial timing."""
    sites: list[Site] = []
    site_names: set[str] = set()
    by_name: dict[str, ProcessId] = {}
    messages: list[Message] = []
    timing: dict[str, tuple[Fraction, Fraction]] = {}
    past_sites = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw.split("#", 1)[0], lineno)
        if not tokens:
            continue
        reader = _LineReader(tokens, lineno)
        keyword, col = reader.take("name", "'site', 'msg' or 'time'")
        if keyword == "site":
            if past_sites:
                raise TraceParseError("site lines must precede msg/time lines", lineno, col)
            site_name, name_col = reader.take("name", "site name")
            if site_name in site_names:
                raise TraceParseError(f"duplicate site name {site_name!r}", lineno, name_col)
            site_names.add(site_name)
            reader.take("punct", "':'", ":")
            procs: list[ProcessId] = []
            while not reader.done():
                proc_name, proc_col = reader.take("name", "process name")
                if proc_name in by_name:
                    raise TraceParseError(f"duplicate process name {proc_name!r}", lineno, proc_col)
                pid = ProcessId(len(sites), len(procs), proc_name)
                by_name[proc_name] = pid
                procs.append(pid)
            if not procs:
                raise TraceParseError(f"site {site_name!r} has no processes", lineno, col)
            sites.append(Site(site_name, tuple(procs)))
        elif keyword == "msg":
            past_sites = True
            sender = _resolve(reader, by_name, "sender")
            reader.take("punct", "'->'", "->")
            receiver = _resolve(reader, by_name, "receiver")
            reader.expect_end()
            if sender.site_index == receiver.site_index:
                raise TraceParseError(
                    f"intra-site message {sender.name} -> {receiver.name}", lineno, col
                )
            messages.append(Message(sender, receiver))
        elif keyword == "time":
            past_sites = True
            pid = _resolve(reader, by_name, "process")
            reader.take("punct", "'='", "=")
            start_text, _ = reader.take("number", "start time")
            reader.take("punct", "'..'", "..")
            end_text, _ = reader.take("number", "end time")
            reader.expect_end()
            if pid.name in timing:
                raise TraceParseError(f"duplicate time entry for {pid.name!r}", lineno, col)
            timing[pid.name] = (Fraction(start_text), Fraction(end_text))
        else:
            raise TraceParseError(
                f"expected 'site', 'msg' or 'time', found {keyword!r}", lineno, col
            )

    if not sites:
        raise TraceParseError("empty trace: no site lines")
    if timing:
        for pid in by_name.values():
            if pid.name not in timing:
                raise TraceParseError(f"partial timing: no entry for {pid.name!r}")
    return Trace(tuple(sites), tuple(messages), timing or None)


def _resolve(reader: _LineReader, by_name: dict[str, ProcessId], role: str) -> ProcessId:
    name, col = reader.take("name", f"{role} process name")
    if name not in by_name:
        raise TraceParseError(f"unknown process {name!r}", reader.lineno, col)
    return by_name[name]


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
        lines.append(f"site {site.name} : " + " ".join(p.name for p in site.processes))
    for message in trace.messages:
        lines.append(f"msg {message.sender.name} -> {message.receiver.name}")
    if trace.timing is not None:
        for pid in trace.processes:
            start, end = trace.timing[pid.name]
            lines.append(f"time {pid.name} = {_format_rational(start)} .. {_format_rational(end)}")
    return "\n".join(lines) + "\n"


def timing_problems(trace: Trace) -> list[str]:
    """validate's timing entries: totality, durations, tiling, message order."""
    if trace.timing is None:
        return []
    problems: list[str] = []
    timing = trace.timing
    for name in trace.names:
        if name not in timing:
            problems.append(f"partial timing: no entry for {name}")
    for name in timing:
        if name not in trace._by_name:
            problems.append(f"time entry for unknown process {name}")
    for site in trace.sites:
        timed = [p for p in site.processes if p.name in timing]
        for pid in timed:
            start, end = timing[pid.name]
            if end <= start:
                problems.append(f"process {pid.name} has non-positive duration")
        for a, b in zip(timed, timed[1:]):
            end_a = timing[a.name][1]
            start_b = timing[b.name][0]
            if end_a < start_b:
                problems.append(f"gap at site {site.name} between {a.name} and {b.name}")
            elif end_a > start_b:
                problems.append(f"overlap at site {site.name} between {a.name} and {b.name}")
    for message in trace.messages:
        s, r = message.sender.name, message.receiver.name
        if s in timing and r in timing and timing[s][1] >= timing[r][0]:
            problems.append(
                f"message {s} -> {r} is not causally timed "
                f"(sender ends at {timing[s][1]}, receiver starts at {timing[r][0]})"
            )
    return problems


def validate(trace: Trace) -> list[str]:
    """Return violated invariants as human-readable entries; empty means valid.

    Covers structural consistency (dense indices, unique names, non-empty
    sites), timing totality and per-site partitioning, message timing, and
    acyclicity of the happened-before relation.
    """
    problems: list[str] = []
    seen_sites: set[str] = set()
    seen: set[str] = set()
    for i, site in enumerate(trace.sites):
        if site.name in seen_sites:
            problems.append(f"duplicate site name {site.name}")
        seen_sites.add(site.name)
        if not site.processes:
            problems.append(f"site {site.name} has no processes")
        for k, pid in enumerate(site.processes):
            if not NAME_PATTERN.match(pid.name):
                problems.append(f"invalid process name {pid.name!r}")
            if pid.name in seen:
                problems.append(f"duplicate process name {pid.name}")
            seen.add(pid.name)
            if pid.site_index != i or pid.position != k:
                problems.append(f"process {pid.name} has inconsistent site/position indices")

    for message in trace.messages:
        for pid in (message.sender, message.receiver):
            if trace._by_name.get(pid.name) != pid:
                problems.append(f"message endpoint {pid.name} is not a process of this trace")
        if message.sender.site_index == message.receiver.site_index:
            problems.append(
                f"intra-site message {message.sender.name} -> {message.receiver.name}"
            )

    problems.extend(timing_problems(trace))

    if not problems:
        from .causal_core import CycleError, happened_before

        try:
            happened_before(trace)
        except CycleError as exc:
            problems.append(str(exc))
    return problems


def gen_random(seed: int, n_sites: int, procs_per_site: int, n_messages: int) -> Trace:
    """Deterministically generate a valid timed trace.

    Integer timestamps are drawn first; messages are then sampled without
    replacement from the cross-site pairs with end(sender) < start(receiver),
    which guarantees timed validity and acyclicity.  Raises
    MessageBudgetError when fewer pairs exist than requested.
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
        procs: list[ProcessId] = []
        for k in range(procs_per_site):
            name = f"s{i + 1}p{k + 1}"
            duration = rng.randint(1, 3)
            timing[name] = (clock, clock + duration)
            clock += duration
            procs.append(ProcessId(i, k, name))
        sites.append(Site(f"s{i + 1}", tuple(procs)))
    everyone = [p for site in sites for p in site.processes]
    candidates = [
        (a, b)
        for a in everyone
        for b in everyone
        if a.site_index != b.site_index and timing[a.name][1] < timing[b.name][0]
    ]
    if n_messages > len(candidates):
        raise MessageBudgetError(n_messages, len(candidates))
    messages = tuple(Message(a, b) for a, b in rng.sample(candidates, n_messages))
    return Trace(tuple(sites), messages, timing)
