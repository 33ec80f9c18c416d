import itertools
import random
import re

import hypothesis
import hypothesis.strategies as st
import pytest

from orthochron import (
    LAWS,
    FormulaSyntaxError,
    compare_laws,
    eval_boolean,
    eval_ortho,
    gen_random,
    happened_before,
    parse_formula,
    parse_trace,
    time_points,
)
from orthochron.logic_eval import EXHAUSTIVE_LIMIT

import oracles
from conftest import random_trace

DISTRIBUTIVITY = ("(a | b) & c", "(a & c) | (b & c)")
NOT = ["~", "!", "not "]
AND = ["&", "/\\", "and"]
OR = ["|", "\\/", "or"]
SPACE = [" ", "  ", "\t"]


def _maybe_parenthesized(text):
    """The text, in zero to two redundant pairs of parentheses."""
    return st.integers(0, 2).map(lambda depth: "(" * depth + text + ")" * depth)


def formulas(names):
    """Formula text with random operator spellings, spacing and redundant
    parentheses; every generated text parses."""
    leaves = st.sampled_from([*names, "0", "1"])

    def extend(children):
        operand = children.flatmap(_maybe_parenthesized)
        return st.one_of(
            st.builds(lambda op, child: op + child, st.sampled_from(NOT), operand),
            st.builds(
                lambda left, space, op, right: f"{left}{space}{op} {right}",
                operand,
                st.sampled_from(SPACE),
                st.sampled_from(AND + OR),
                operand,
            ),
        )

    return st.recursive(leaves, extend, max_leaves=12).flatmap(_maybe_parenthesized)


SOUP_TOKENS = st.sampled_from(
    ["p1", "q1", "not", "and", "or", "notp1", "0", "1", "01"]
    + NOT + AND + OR + ["(", ")", "@", "/", "\\"] + SPACE
)


def _edit(text, piece, at, cut):
    """The text with ``cut`` characters from ``at`` replaced by ``piece``."""
    at %= len(text) + 1
    return text[:at] + piece + text[at + cut:]


# token strings, and formula text with a few characters replaced by tokens
TOKEN_SOUP = st.one_of(
    st.lists(SOUP_TOKENS, max_size=14).map("".join),
    st.builds(
        _edit,
        formulas(["p1", "q1"]),
        st.lists(SOUP_TOKENS, max_size=3).map("".join),
        st.integers(0, 200),
        st.integers(0, 4),
    ),
)


def _parsed(parse, text):
    try:
        return parse(text)
    except FormulaSyntaxError as exc:
        return str(exc), exc.position


def test_parse_atom():
    assert parse_formula("p1") == ("p1",)


def test_parse_precedence():
    assert parse_formula("p1 & q1 | r1") == ("p1", "q1", "&", "r1", "|")
    assert parse_formula("~p1 & q1") == ("p1", "~", "q1", "&")
    assert parse_formula("p1 & (q1 | r1)") == ("p1", "q1", "r1", "|", "&")


def test_parse_left_associativity():
    assert parse_formula("p1 | q1 | r1") == ("p1", "q1", "|", "r1", "|")
    assert parse_formula("p1 & q1 & r1") == ("p1", "q1", "&", "r1", "&")


def test_parse_synonyms():
    canonical = parse_formula("~(p1 & q1) | r1")
    assert canonical == ("p1", "q1", "&", "~", "r1", "|")
    assert parse_formula("not (p1 and q1) or r1") == canonical
    assert parse_formula(r"!(p1 /\ q1) \/ r1") == canonical


def test_parse_constants():
    assert parse_formula("0") == ("0",)
    assert parse_formula("1") == ("1",)
    assert parse_formula("~0 & 1") == ("0", "~", "1", "&")


def test_parse_double_negation():
    assert parse_formula("~~p1") == ("p1", "~", "~")
    assert parse_formula("not not p1") == ("p1", "~", "~")


@pytest.mark.parametrize(
    "text, position",
    [
        ("", 1),
        ("p1 &", 5),
        ("(p1", 4),
        (")", 1),
        ("p1 q1", 4),
        ("@", 1),
        ("p1 | | q1", 6),
    ],
)
def test_parse_errors_carry_positions(text, position):
    with pytest.raises(FormulaSyntaxError) as excinfo:
        parse_formula(text)
    assert excinfo.value.position == position


def test_parse_deep_nesting():
    assert parse_formula("(" * 10_000 + "p1" + ")" * 10_000) == ("p1",)
    assert parse_formula("~" * 1_000 + "p1") == ("p1",) + ("~",) * 1_000
    assert parse_formula(" | ".join(["p1"] * 1_000)) == ("p1",) + ("p1", "|") * 999


@hypothesis.given(formulas(["p1", "q1", "r1"]))
def test_parse_program_is_postorder_of_reference_tree(text):
    assert parse_formula(text) == oracles.postorder(oracles.parse_formula(text))


@hypothesis.given(TOKEN_SOUP)
def test_parse_matches_reference_on_token_soup(text):
    expected = _parsed(lambda t: oracles.postorder(oracles.parse_formula(t)), text)
    assert _parsed(parse_formula, text) == expected


def test_eval_boolean_fig2(fig2):
    timeline = time_points(fig2)
    assert eval_boolean(parse_formula("p1"), timeline) == {0, 1}
    assert eval_boolean(parse_formula("q1"), timeline) == {0}
    assert eval_boolean(parse_formula("r1"), timeline) == {0, 1, 2}
    assert eval_boolean(parse_formula("p1 & q1"), timeline) == {0}
    assert eval_boolean(parse_formula("p1 | ~p1"), timeline) == frozenset(range(10))
    assert eval_boolean(parse_formula("0"), timeline) == frozenset()
    assert eval_boolean(parse_formula("1"), timeline) == frozenset(range(10))


def test_eval_boolean_unknown_atom(fig2):
    with pytest.raises(ValueError):
        eval_boolean(parse_formula("nope"), time_points(fig2))


def test_eval_ortho_distributivity_sides(fig7):
    cs = happened_before(fig7)
    assert eval_ortho(parse_formula("p2 | p3"), cs) == {"p2", "p3", "q3"}
    assert eval_ortho(parse_formula("(p2 | p3) & q3"), cs) == {"q3"}
    assert eval_ortho(parse_formula("p2 & q3"), cs) == frozenset()
    assert eval_ortho(parse_formula("p3 & q3"), cs) == frozenset()
    assert eval_ortho(parse_formula("(p2 & q3) | (p3 & q3)"), cs) == frozenset()


def test_eval_ortho_atom_is_singleton_closure(fig7):
    cs = happened_before(fig7)
    assert eval_ortho(parse_formula("r1"), cs) == {"q1", "r1"}
    assert eval_ortho(parse_formula("q1"), cs) == {"q1"}


def test_eval_ortho_constants_and_negation(mo2):
    cs = happened_before(mo2)
    everyone = frozenset(cs.names)
    assert eval_ortho(parse_formula("0"), cs) == frozenset()
    assert eval_ortho(parse_formula("1"), cs) == everyone
    assert eval_ortho(parse_formula("p1 | q1"), cs) == everyone
    for name in cs.names:
        assert eval_ortho(parse_formula(f"~~{name}"), cs) == eval_ortho(
            parse_formula(name), cs
        )


def test_eval_ortho_unknown_atom(mo2):
    with pytest.raises(ValueError):
        eval_ortho(parse_formula("zz"), happened_before(mo2))


@hypothesis.given(formulas(["x1", "x2", "x3", "x4"]), st.integers(1, 10**9))
def test_eval_ortho_results_are_closed(mo2, formula, seed):
    """On mo2 and on a generated trace, under every rotation of a seeded
    binding of x1..x4 to processes, the value equals its double
    orthocomplement by the oracles' definition."""
    generated = random_trace(seed, seed % 3 + 1, seed % 3 + 2, seed % 5)
    for trace in (mo2, generated):
        cs = happened_before(trace)
        rng = random.Random(seed)
        offsets = [rng.randrange(cs.size) for _ in range(4)]
        for shift in range(cs.size):
            atoms = {f"x{k + 1}": cs.names[(shift + offset) % cs.size] for k, offset in enumerate(offsets)}
            value = eval_ortho(parse_formula(re.sub(r"x[1-4]", lambda m: atoms[m.group()], formula)), cs)
            assert value == oracles.brute_ortho(cs, oracles.brute_ortho(cs, value))


@hypothesis.given(formulas(["p1", "q1", "q2"]), formulas(["p1", "q1", "q2"]))
def test_eval_ortho_is_monotone_across_connectives(fig7, left, right):
    cs = happened_before(fig7)
    conjunction = eval_ortho(parse_formula(f"({left}) & ({right})"), cs)
    disjunction = eval_ortho(parse_formula(f"({left}) | ({right})"), cs)
    value = eval_ortho(parse_formula(left), cs)
    assert conjunction <= value <= disjunction


def _set_algebra(node, atom, everyone):
    """The reference tree's value with ~, & and | as complement in
    ``everyone``, intersection and union, and each name as ``atom(name)``."""
    if node == "0":
        return frozenset()
    if node == "1":
        return everyone
    if isinstance(node, str):
        return atom(node)
    if node[0] == "~":
        return everyone - _set_algebra(node[1], atom, everyone)
    left, right = (_set_algebra(child, atom, everyone) for child in node[1:])
    return left & right if node[0] == "&" else left | right


@hypothesis.given(formulas(["a", "b", "c"]))
def test_single_site_degenerates_to_boolean_sets(formula):
    trace = parse_trace("site s : a b c\n")
    cs = happened_before(trace)
    everyone = frozenset(trace.processes)
    expected = _set_algebra(oracles.parse_formula(formula), lambda name: frozenset({name}), everyone)
    assert eval_ortho(parse_formula(formula), cs) == expected


BARRIER = oracles.barrier_trace(40, 8)


@pytest.fixture(scope="module")
def barrier_rounds():
    """The causal structure of BARRIER and each process's round, the atoms
    of the closed form."""
    family, _ = oracles.barrier_lattice(40, 8)
    return happened_before(BARRIER), {name: r for r in family if len(r) == 40 for name in r}


@hypothesis.given(formulas(BARRIER.processes))
def test_eval_ortho_is_set_algebra_over_barrier_rounds(barrier_rounds, formula):
    """On 320 processes, past the brute-force oracles: a process denotes its
    round, ~ the other rounds, & and | intersection and union of rounds."""
    cs, round_of = barrier_rounds
    everyone = frozenset(cs.names)
    assert round_of.keys() == everyone
    expected = _set_algebra(oracles.parse_formula(formula), round_of.__getitem__, everyone)
    assert eval_ortho(parse_formula(formula), cs) == expected


def test_compare_laws_boolean_distributivity(fig2):
    result = compare_laws(time_points(fig2), DISTRIBUTIVITY)
    assert result.holds
    assert result.exhaustive
    assert result.checked == result.total == 12**3


def test_compare_laws_ortho_distributivity_first_failure(fig7):
    cs = happened_before(fig7)
    result = compare_laws(cs, DISTRIBUTIVITY)
    assert not result.holds

    # independently rescan the instantiations to find the first mismatch
    expected = None
    count = 0
    for a, b, c in itertools.product(fig7.processes, repeat=3):
        count += 1
        left = eval_ortho(parse_formula(f"({a} | {b}) & {c}"), cs)
        right = eval_ortho(parse_formula(f"({a} & {c}) | ({b} & {c})"), cs)
        if left != right:
            expected = ({"a": a, "b": b, "c": c}, count, left, right)
            break
    assert expected is not None
    mapping, checked, left, right = expected
    assert result.counterexample == mapping == {"a": "p1", "b": "q1", "c": "q2"}
    assert result.checked == checked == 54
    assert result.lhs_value == left == {"q2"}
    assert result.rhs_value == right == frozenset()


def test_compare_laws_ortho_de_morgan(fig7):
    result = compare_laws(happened_before(fig7), ("~(a & b)", "~a | ~b"))
    assert result.holds
    assert result.exhaustive
    assert result.checked == 144


def test_compare_laws_double_negation(mo2):
    result = compare_laws(happened_before(mo2), ("~~a", "a"))
    assert result.holds
    assert result.checked == 4


def test_compare_laws_samples_large_spaces():
    cs = happened_before(gen_random(5, 2, 11, 0))
    identity = ("(a | b) | c", "a | (b | c)")
    result = compare_laws(cs, identity, trials=50, seed=3)
    assert result.holds
    assert not result.exhaustive
    assert result.total == 22**3
    assert result.checked == 50
    again = compare_laws(cs, identity, trials=50, seed=3)
    assert result == again


@pytest.mark.parametrize("trials", [0, -3])
def test_compare_laws_rejects_fewer_than_one_trial(fig2, trials):
    # 12^4 instantiations are sampled; zero trials once reported "holds"
    with pytest.raises(ValueError, match="^trials must be positive$"):
        compare_laws(time_points(fig2), ("a & b & c & d", "a"), trials=trials)


def _outcome(evaluate, formula, model):
    try:
        return evaluate(formula, model)
    except ValueError as exc:
        return f"ValueError: {exc}"


@hypothesis.given(formulas(["p1", "q1", "r1", "zz", "yy"]))
def test_eval_boolean_matches_recursive_reference(fig2, text):
    timeline = time_points(fig2)
    expected = _outcome(oracles.eval_boolean, oracles.parse_formula(text), timeline)
    assert _outcome(eval_boolean, parse_formula(text), timeline) == expected


@hypothesis.given(formulas(["p1", "q1", "q2", "zz", "yy"]))
def test_eval_ortho_matches_recursive_reference(fig7, text):
    cs = happened_before(fig7)
    expected = _outcome(oracles.eval_ortho, oracles.parse_formula(text), cs)
    assert _outcome(eval_ortho, parse_formula(text), cs) == expected


def _law_models(traces):
    for trace in traces:
        if trace.timing is not None:
            yield time_points(trace)
        yield happened_before(trace)


TEMPLATES = [identity for law in LAWS for identity in LAWS[law][0]]
CONSTANT_IDENTITIES = [("0", "~1"), ("a & 0", "0"), ("a | 1", "1")]


def test_compare_laws_matches_substitution_reference_exhaustively(fig2, fig5, fig7, mo2):
    traces = [fig2, fig5, fig7, mo2] + [
        random_trace(seed, 1 + seed % 3, 1 + seed % 4, seed % 5) for seed in range(1, 9)
    ]
    failures = 0
    for model in _law_models(traces):
        for identity in TEMPLATES + CONSTANT_IDENTITIES:
            result = compare_laws(model, identity)
            assert result.exhaustive
            assert result == oracles.compare_laws(model, identity), identity
            failures += not result.holds
    assert failures > 0


def _arity(identity):
    return len({char for char in identity[0] + identity[1] if char.isalpha()})


@pytest.mark.parametrize("identity", [i for i in TEMPLATES if _arity(i) > 1])
def test_compare_laws_matches_substitution_reference_when_sampled(identity):
    """Sampling needs more than EXHAUSTIVE_LIMIT instantiations: 22 atoms for
    three metavariables, 101 for two (one metavariable never samples)."""
    trace = gen_random(7, 2, 11, 6) if _arity(identity) == 3 else gen_random(7, 4, 26, 6)
    for model in _law_models([trace]):
        for seed in (0, 5):
            result = compare_laws(model, identity, trials=150, seed=seed)
            assert not result.exhaustive
            assert result.total > EXHAUSTIVE_LIMIT
            assert result == oracles.compare_laws(model, identity, trials=150, seed=seed)
