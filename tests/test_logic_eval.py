import itertools

import hypothesis
import hypothesis.strategies as st
import pytest

from orthochron import (
    LAWS,
    And,
    Atom,
    Bottom,
    FormulaSyntaxError,
    Not,
    Or,
    Top,
    compare_laws,
    eval_boolean,
    eval_ortho,
    format_formula,
    gen_random,
    happened_before,
    is_closed,
    parse_formula,
    parse_trace,
    time_points,
)
from orthochron.logic_eval import EXHAUSTIVE_LIMIT

import oracles
from conftest import random_trace

DISTRIBUTIVITY = ("(a | b) & c", "(a & c) | (b & c)")


def formulas(names):
    leaves = st.one_of(
        st.sampled_from([Atom(name) for name in names]),
        st.just(Bottom()),
        st.just(Top()),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            children.map(Not),
            st.tuples(children, children).map(lambda pair: And(*pair)),
            st.tuples(children, children).map(lambda pair: Or(*pair)),
        ),
        max_leaves=12,
    )


def test_parse_atom():
    assert parse_formula("p1") == Atom("p1")


def test_parse_precedence():
    assert parse_formula("p1 & q1 | r1") == Or(And(Atom("p1"), Atom("q1")), Atom("r1"))
    assert parse_formula("~p1 & q1") == And(Not(Atom("p1")), Atom("q1"))
    assert parse_formula("p1 & (q1 | r1)") == And(Atom("p1"), Or(Atom("q1"), Atom("r1")))


def test_parse_left_associativity():
    assert parse_formula("p1 | q1 | r1") == Or(Or(Atom("p1"), Atom("q1")), Atom("r1"))
    assert parse_formula("p1 & q1 & r1") == And(And(Atom("p1"), Atom("q1")), Atom("r1"))


def test_parse_synonyms():
    canonical = parse_formula("~(p1 & q1) | r1")
    assert parse_formula("not (p1 and q1) or r1") == canonical
    assert parse_formula(r"!(p1 /\ q1) \/ r1") == canonical


def test_parse_constants():
    assert parse_formula("0") == Bottom()
    assert parse_formula("1") == Top()
    assert parse_formula("~0 & 1") == And(Not(Bottom()), Top())


def test_parse_double_negation():
    assert parse_formula("~~p1") == Not(Not(Atom("p1")))
    assert parse_formula("not not p1") == Not(Not(Atom("p1")))


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


def test_format_minimal_parentheses():
    assert format_formula(Or(And(Atom("a"), Atom("b")), Atom("c"))) == "a & b | c"
    assert format_formula(And(Or(Atom("a"), Atom("b")), Atom("c"))) == "(a | b) & c"
    assert format_formula(Not(And(Atom("a"), Atom("b")))) == "~(a & b)"
    assert format_formula(Not(Atom("a"))) == "~a"
    assert format_formula(And(Atom("a"), And(Atom("b"), Atom("c")))) == "a & (b & c)"
    assert format_formula(Or(Bottom(), Top())) == "0 | 1"


@hypothesis.given(formulas(["a", "b", "c"]))
def test_format_parse_round_trip(formula):
    assert parse_formula(format_formula(formula)) == formula


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


@hypothesis.given(formulas(["p1", "p2", "q1", "q2"]))
def test_eval_ortho_results_are_closed(mo2, formula):
    cs = happened_before(mo2)
    assert is_closed(cs, eval_ortho(formula, cs))


@hypothesis.given(formulas(["p1", "q1", "q2"]), formulas(["p1", "q1", "q2"]))
def test_eval_ortho_is_monotone_across_connectives(fig7, left, right):
    cs = happened_before(fig7)
    conjunction = eval_ortho(And(left, right), cs)
    disjunction = eval_ortho(Or(left, right), cs)
    value = eval_ortho(left, cs)
    assert conjunction <= value <= disjunction


@hypothesis.given(formulas(["a", "b", "c"]))
def test_single_site_degenerates_to_boolean_sets(formula):
    trace = parse_trace("site s : a b c\n")
    cs = happened_before(trace)
    everyone = frozenset(trace.names)

    def naive(node):
        if isinstance(node, Atom):
            return frozenset({node.name})
        if isinstance(node, Not):
            return everyone - naive(node.child)
        if isinstance(node, And):
            return naive(node.left) & naive(node.right)
        if isinstance(node, Or):
            return naive(node.left) | naive(node.right)
        if isinstance(node, Bottom):
            return frozenset()
        return everyone

    assert eval_ortho(formula, cs) == naive(formula)


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
    for a, b, c in itertools.product(fig7.names, repeat=3):
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


def _outcome(evaluate, formula, model):
    try:
        return evaluate(formula, model)
    except ValueError as exc:
        return f"ValueError: {exc}"


@hypothesis.given(formulas(["p1", "q1", "r1", "zz", "yy"]))
def test_eval_boolean_matches_recursive_reference(fig2, formula):
    timeline = time_points(fig2)
    expected = _outcome(oracles.eval_boolean, formula, timeline)
    assert _outcome(eval_boolean, formula, timeline) == expected


@hypothesis.given(formulas(["p1", "q1", "q2", "zz", "yy"]))
def test_eval_ortho_matches_recursive_reference(fig7, formula):
    cs = happened_before(fig7)
    assert _outcome(eval_ortho, formula, cs) == _outcome(oracles.eval_ortho, formula, cs)


def _law_models(traces):
    for trace in traces:
        if trace.timing is not None:
            yield time_points(trace)
        yield happened_before(trace)


TEMPLATES = [identity for law in LAWS for identity in LAWS[law][0]]


def test_compare_laws_matches_substitution_reference_exhaustively(fig2, fig5, fig7, mo2):
    traces = [fig2, fig5, fig7, mo2] + [
        random_trace(seed, 1 + seed % 3, 1 + seed % 4, seed % 5) for seed in range(1, 9)
    ]
    failures = 0
    for model in _law_models(traces):
        for identity in TEMPLATES:
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
