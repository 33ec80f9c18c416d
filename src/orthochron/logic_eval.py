r"""Propositional formulas over process atoms, with two semantics: Boolean
over time points of a timed trace, and orthologic over closed process sets
of a causal structure.

Grammar (ASCII synonyms accepted)::

    formula := or
    or      := and { ("|" | "\/" | "or") and }
    and     := not { ("&" | "/\" | "and") not }
    not     := ("~" | "!" | "not") not | atom
    atom    := NAME | "0" | "1" | "(" formula ")"

Precedence is not > and > or, both binary operators left-associative.
``parse_formula`` reads the grammar into its postfix program: a tuple of
process names, "0", "1", "~", "&" and "|", with the operands in text order
and each operator after its operands.  Parsing and evaluation keep explicit
stacks, so only the length of the text bounds the nesting depth.
Under Boolean semantics an atom denotes the set of time points its process
belongs to; negation is set complement.  Under orthologic semantics an atom
denotes the closure of its singleton; negation is the orthocomplement and
disjunction is the lattice join, so a formula's value is always closed.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import re
from dataclasses import dataclass

from .causal_core import CausalStructure
from .chronology import TimeLine
from .ortholattice import ortho_mask


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"position {position}: {message}")
        self.position = position


_FORMULA_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|/\\|\\/|[~!&|()01]")

# token text -> its program symbol or parenthesis; names, "0" and "1" are operands
_KINDS = {
    "not": "~",
    "~": "~",
    "!": "~",
    "and": "&",
    "&": "&",
    "/\\": "&",
    "or": "|",
    "|": "|",
    "\\/": "|",
    "(": "(",
    ")": ")",
}
_PRECEDENCE = {"(": 0, "|": 1, "&": 2, "~": 3}
_SYMBOLS = frozenset({"0", "1", "~", "&", "|"})
_EXPECTED_OPERAND = "expected an atom, '0', '1', '(' or a negation"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _FORMULA_TOKEN.match(text, pos)
        if match is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos + 1)
        value = match.group()
        tokens.append((_KINDS.get(value, "atom"), value, pos + 1))
        pos = match.end()
    return tokens


def parse_formula(text: str) -> tuple[str, ...]:
    """The formula's postfix program, by precedence climbing over an explicit
    stack of pending operators and open parentheses."""
    program: list[str] = []
    pending: list[str] = []
    depth = 0  # open parentheses on ``pending``
    operand = True  # whether the next token must start an operand
    for kind, value, position in _tokenize(text):
        if operand and kind == "atom":
            program.append(value)
            operand = False
        elif operand and kind in ("~", "("):
            pending.append(kind)
            depth += kind == "("
        elif not operand and kind in ("&", "|"):
            while pending and _PRECEDENCE[pending[-1]] >= _PRECEDENCE[kind]:
                program.append(pending.pop())
            pending.append(kind)
            operand = True
        elif not operand and depth and kind == ")":
            while (op := pending.pop()) != "(":
                program.append(op)
            depth -= 1
        else:
            message = (
                _EXPECTED_OPERAND if operand
                else "expected ')'" if depth
                else "unexpected trailing input"
            )
            raise FormulaSyntaxError(f"{message}, found {value!r}", position)
    if operand or depth:
        message = _EXPECTED_OPERAND if operand else "expected ')'"
        raise FormulaSyntaxError(f"{message} at end of input", len(text) + 1)
    program.extend(reversed(pending))
    return tuple(program)


def _algebra(model: TimeLine | CausalStructure):
    """The model's atoms, the value of one atom, and (complement, join, top)
    on int masks: of time points on a TimeLine (Boolean semantics), of
    processes on a CausalStructure (orthologic).  Meet is & and bottom 0."""
    if isinstance(model, TimeLine):
        top = (1 << len(model)) - 1

        def value(name: str) -> int:
            return sum(1 << i for i in model.interval(name))

        return model.process_order, value, (top.__xor__, operator.or_, top)
    complement = functools.cache(functools.partial(ortho_mask, model))

    def value(name: str) -> int:
        return complement(complement(1 << model.ordinal(name)))

    def join(a: int, b: int) -> int:
        return complement(complement(a) & complement(b))

    return model.names, value, (complement, join, model.full_mask)


def _run(program: tuple[str, ...], columns: dict[str, list[int]], algebra) -> list[int]:
    """The program's values, one per instantiation: operands are looked up in
    ``columns``, "~" maps the complement over the top column of the stack, and
    "&" and "|" map meet and join over the top two."""
    complement, join, _ = algebra
    binary = {"&": operator.and_, "|": join}
    stack = []
    for token in program:
        if token == "~":
            stack[-1] = list(map(complement, stack[-1]))
        elif token in binary:
            right = stack.pop()
            stack[-1] = list(map(binary[token], stack[-1], right))
        else:
            stack.append(columns[token])
    return stack[-1]


def _decode(model: TimeLine | CausalStructure, mask: int) -> frozenset:
    """Time point indices or process names of a mask."""
    if isinstance(model, TimeLine):
        return frozenset(i for i in range(len(model)) if mask >> i & 1)
    return model.names_of(mask)


def _evaluate(program: tuple[str, ...], model: TimeLine | CausalStructure) -> frozenset:
    _, value, algebra = _algebra(model)
    columns = {"0": [0], "1": [algebra[2]]}
    for token in program:
        if token not in _SYMBOLS and token not in columns:
            try:
                columns[token] = [value(token)]
            except ValueError:
                raise ValueError(f"unknown atom {token!r}") from None
    return _decode(model, _run(program, columns, algebra)[0])


def eval_boolean(formula: tuple[str, ...], timeline: TimeLine) -> frozenset[int]:
    """Set of time point indices at which the formula's program holds."""
    return _evaluate(formula, timeline)


def eval_ortho(formula: tuple[str, ...], cs: CausalStructure) -> frozenset[str]:
    """Closed process set denoted by the formula's program."""
    return _evaluate(formula, cs)


EXHAUSTIVE_LIMIT = 10_000


@dataclass(frozen=True)
class LawComparison:
    """Result of instantiating an identity over a trace's atoms."""

    lhs: str
    rhs: str
    semantics: str
    holds: bool
    exhaustive: bool
    checked: int
    total: int
    counterexample: dict[str, str] | None = None
    lhs_value: frozenset | None = None
    rhs_value: frozenset | None = None


def compare_laws(
    model: TimeLine | CausalStructure,
    identity: tuple[str, str],
    trials: int = 1000,
    seed: int = 0,
) -> LawComparison:
    """Instantiate the identity's metavariables with the model's atoms and
    compare both sides: under Boolean semantics on a TimeLine, under
    orthologic on a CausalStructure.

    Runs exhaustively when the instantiation count is at most
    EXHAUSTIVE_LIMIT, otherwise samples ``trials`` assignments from
    ``random.Random(seed)``; the report says which happened.  Each side runs
    once over all instantiations, one column per metavariable, and the first
    instantiation where the sides differ is the counterexample.  Raises
    ValueError when ``trials`` is below 1.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    lhs_source, rhs_source = identity
    lhs, rhs = parse_formula(lhs_source), parse_formula(rhs_source)
    metavars = list(dict.fromkeys(token for token in lhs + rhs if token not in _SYMBOLS))
    atoms, value, algebra = _algebra(model)
    values = {atom: value(atom) for atom in atoms}

    total = len(atoms) ** len(metavars)
    exhaustive = total <= EXHAUSTIVE_LIMIT
    if exhaustive:
        combos = list(itertools.product(atoms, repeat=len(metavars)))
    else:
        rng = random.Random(seed)
        combos = [tuple([rng.choice(atoms) for _ in metavars]) for _ in range(trials)]
    columns = {"0": [0] * len(combos), "1": [algebra[2]] * len(combos)}
    for k, var in enumerate(metavars):
        columns[var] = [values[combo[k]] for combo in combos]
    left = _run(lhs, columns, algebra)
    right = _run(rhs, columns, algebra)

    semantics = "boolean" if isinstance(model, TimeLine) else "ortho"
    first = next((i for i, (a, b) in enumerate(zip(left, right)) if a != b), None)
    if first is None:
        return LawComparison(lhs_source, rhs_source, semantics, True, exhaustive, len(combos), total)
    return LawComparison(
        lhs_source,
        rhs_source,
        semantics,
        False,
        exhaustive,
        first + 1,
        total,
        dict(zip(metavars, combos[first])),
        _decode(model, left[first]),
        _decode(model, right[first]),
    )
