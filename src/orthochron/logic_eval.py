r"""Propositional formulas over process atoms, with two semantics: Boolean
over time points of a timed trace, and orthologic over closed process sets
of a causal structure.

Grammar (recursive descent, ASCII synonyms accepted)::

    formula := or
    or      := and { ("|" | "\/" | "or") and }
    and     := not { ("&" | "/\" | "and") not }
    not     := ("~" | "!" | "not") not | atom
    atom    := NAME | "0" | "1" | "(" formula ")"

Precedence is not > and > or, both binary operators left-associative.
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

__all__ = [
    "Formula",
    "Atom",
    "Not",
    "And",
    "Or",
    "Bottom",
    "Top",
    "FormulaSyntaxError",
    "parse_formula",
    "format_formula",
    "eval_boolean",
    "eval_ortho",
    "compare_laws",
    "LawComparison",
]


class Formula:
    """Base class of formula nodes."""


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class Top(Formula):
    pass


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"position {position}: {message}")
        self.position = position


_FORMULA_TOKEN = re.compile(r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>/\\|\\/|[~!&|()01])")

_WORD_KINDS = {"not": "not", "and": "and", "or": "or"}
_SYMBOL_KINDS = {
    "~": "not",
    "!": "not",
    "&": "and",
    "/\\": "and",
    "|": "or",
    "\\/": "or",
    "(": "lparen",
    ")": "rparen",
    "0": "bottom",
    "1": "top",
}


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
        if match.lastgroup == "name":
            kind = _WORD_KINDS.get(value, "atom")
        else:
            kind = _SYMBOL_KINDS[value]
        tokens.append((kind, value, pos + 1))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.end_position = len(text) + 1
        self.cursor = 0

    def peek(self) -> str | None:
        if self.cursor < len(self.tokens):
            return self.tokens[self.cursor][0]
        return None

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.cursor]
        self.cursor += 1
        return token

    def fail(self, message: str):
        if self.cursor < len(self.tokens):
            _, value, position = self.tokens[self.cursor]
            raise FormulaSyntaxError(f"{message}, found {value!r}", position)
        raise FormulaSyntaxError(f"{message} at end of input", self.end_position)

    def parse_or(self) -> Formula:
        node = self.parse_and()
        while self.peek() == "or":
            self.advance()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> Formula:
        node = self.parse_not()
        while self.peek() == "and":
            self.advance()
            node = And(node, self.parse_not())
        return node

    def parse_not(self) -> Formula:
        if self.peek() == "not":
            self.advance()
            return Not(self.parse_not())
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        kind = self.peek()
        if kind == "atom":
            return Atom(self.advance()[1])
        if kind == "bottom":
            self.advance()
            return Bottom()
        if kind == "top":
            self.advance()
            return Top()
        if kind == "lparen":
            self.advance()
            node = self.parse_or()
            if self.peek() != "rparen":
                self.fail("expected ')'")
            self.advance()
            return node
        self.fail("expected an atom, '0', '1', '(' or a negation")
        raise AssertionError("unreachable")


def parse_formula(text: str) -> Formula:
    parser = _Parser(text)
    node = parser.parse_or()
    if parser.peek() is not None:
        parser.fail("unexpected trailing input")
    return node


def format_formula(formula: Formula) -> str:
    """Render with the canonical ~ & | spelling and minimal parentheses."""

    def go(node: Formula, needed: int) -> str:
        if isinstance(node, Atom):
            return node.name
        if isinstance(node, Bottom):
            return "0"
        if isinstance(node, Top):
            return "1"
        if isinstance(node, Not):
            text, precedence = "~" + go(node.child, 3), 3
        elif isinstance(node, And):
            text, precedence = f"{go(node.left, 2)} & {go(node.right, 3)}", 2
        elif isinstance(node, Or):
            text, precedence = f"{go(node.left, 1)} | {go(node.right, 2)}", 1
        else:
            raise TypeError(f"not a formula node: {node!r}")
        return f"({text})" if precedence < needed else text

    return go(formula, 0)


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


def _compile(node: Formula, algebra, atoms: dict[str, None]):
    """Closure from an atom -> value environment to the formula's value in
    the algebra; adds the formula's atoms to ``atoms`` in order of first use."""
    complement, join, top = algebra
    if isinstance(node, Atom):
        atoms.setdefault(node.name)
        return operator.itemgetter(node.name)
    if isinstance(node, Not):
        child = _compile(node.child, algebra, atoms)
        return lambda env: complement(child(env))
    if isinstance(node, (And, Or)):
        left = _compile(node.left, algebra, atoms)
        right = _compile(node.right, algebra, atoms)
        op = operator.and_ if isinstance(node, And) else join
        return lambda env: op(left(env), right(env))
    if isinstance(node, (Bottom, Top)):
        constant = top if isinstance(node, Top) else 0
        return lambda env: constant
    raise TypeError(f"not a formula node: {node!r}")


def _decode(model: TimeLine | CausalStructure, mask: int) -> frozenset:
    """Time point indices or process names of a mask."""
    if isinstance(model, TimeLine):
        return frozenset(i for i in range(len(model)) if mask >> i & 1)
    return model.names_of(mask)


def _evaluate(formula: Formula, model: TimeLine | CausalStructure) -> frozenset:
    _, value, algebra = _algebra(model)
    atoms: dict[str, None] = {}
    evaluate = _compile(formula, algebra, atoms)
    try:
        env = {name: value(name) for name in atoms}
    except KeyError as exc:
        raise ValueError(f"unknown atom {exc.args[0]!r}") from None
    return _decode(model, evaluate(env))


def eval_boolean(formula: Formula, timeline: TimeLine) -> frozenset[int]:
    """Set of time point indices at which the formula holds."""
    return _evaluate(formula, timeline)


def eval_ortho(formula: Formula, cs: CausalStructure) -> frozenset[str]:
    """Closed process set denoted by the formula."""
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
    ``random.Random(seed)``; the report says which happened.
    """
    lhs_source, rhs_source = identity
    atoms, value, algebra = _algebra(model)
    seen: dict[str, None] = {}
    left_of = _compile(parse_formula(lhs_source), algebra, seen)
    right_of = _compile(parse_formula(rhs_source), algebra, seen)
    metavars = list(seen)
    values = {atom: value(atom) for atom in atoms}

    total = len(atoms) ** len(metavars)
    exhaustive = total <= EXHAUSTIVE_LIMIT
    if exhaustive:
        assignments = itertools.product(atoms, repeat=len(metavars))
    else:
        rng = random.Random(seed)
        assignments = (
            tuple([rng.choice(atoms) for _ in metavars]) for _ in range(trials)
        )

    checked = 0
    failure = {}
    for combo in assignments:
        env = {var: values[atom] for var, atom in zip(metavars, combo)}
        left = left_of(env)
        right = right_of(env)
        checked += 1
        if left != right:
            failure = {
                "counterexample": dict(zip(metavars, combo)),
                "lhs_value": _decode(model, left),
                "rhs_value": _decode(model, right),
            }
            break
    semantics = "boolean" if isinstance(model, TimeLine) else "ortho"
    return LawComparison(
        lhs_source, rhs_source, semantics, not failure, exhaustive, checked, total, **failure
    )
