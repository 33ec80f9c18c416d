import json

import pytest

from orthochron import parse_trace
from orthochron.cli import main

from conftest import fixture_path

FIG2 = str(fixture_path("fig2.trace"))
FIG5 = str(fixture_path("fig5.trace"))
FIG7 = str(fixture_path("fig7.trace"))
MO2 = str(fixture_path("mo2.trace"))
SINGLE = str(fixture_path("single-site.trace"))

MO2_JSON = {
    "elements": [[], ["p1"], ["p2"], ["q1"], ["q2"], ["p1", "p2", "q1", "q2"]],
    "complement": [5, 2, 1, 4, 3, 0],
    "hasse": [[0, 1], [0, 2], [0, 3], [0, 4], [1, 5], [2, 5], [3, 5], [4, 5]],
}


@pytest.fixture
def cli(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def test_validate_ok(cli):
    code, out, err = cli("validate", FIG2)
    assert (code, out, err) == (0, "valid\n", "")


def test_validate_reports_problems(cli, tmp_path):
    bad = tmp_path / "gap.trace"
    bad.write_text("site s : a b\ntime a = 0 .. 1\ntime b = 2 .. 3\n")
    code, out, _ = cli("validate", str(bad))
    assert code == 2
    assert out == "gap at site s between a and b\n"


def test_missing_file(cli):
    code, out, err = cli("validate", "no-such-file.trace")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_unparsable_trace(cli, tmp_path):
    bad = tmp_path / "broken.trace"
    bad.write_text("site s :\n")
    code, _, err = cli("validate", str(bad))
    assert code == 2
    assert "error: line 1" in err


def test_timepoints_text(cli):
    code, out, _ = cli("timepoints", FIG2)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert lines[0] == "T1: p1 q1 r1"
    assert lines[9] == "T10: p4 q5 r3"


def test_timepoints_json(cli):
    code, out, _ = cli("timepoints", SINGLE, "--format", "json")
    assert code == 0
    assert json.loads(out) == [["a"], ["b"], ["c"]]


def test_timepoints_requires_timed_trace(cli):
    code, _, err = cli("timepoints", FIG5)
    assert code == 2
    assert "error: " in err


def test_hb_text(cli):
    code, out, _ = cli("hb", MO2)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "happened-before"
    assert lines[6] == "causality"
    assert lines.count("    p1 p2 q1 q2") == 2
    assert lines.count("  p1  0  1  0  0") == 2
    assert lines[5] == "  q2  0  0  0  0"
    assert lines[11] == "  q2  0  0  1  0"


def test_hb_json(cli):
    code, out, _ = cli("hb", FIG5, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["happened_before"] == {
        "x1": ["x2", "x3", "y2", "y3"],
        "x2": ["x3"],
        "x3": [],
        "y1": ["x3", "y2", "y3"],
        "y2": ["x3", "y3"],
        "y3": [],
    }
    assert payload["causality"]["x2"] == ["x1", "x3"]
    assert payload["causality"]["y2"] == ["x1", "x3", "y1", "y3"]


def test_lattice_text(cli):
    code, out, _ = cli("lattice", MO2)
    assert code == 0
    assert out.splitlines() == [
        "{}",
        "{p1}",
        "{p2}",
        "{q1}",
        "{q2}",
        "{p1, p2, q1, q2}",
    ]


def test_lattice_json(cli):
    code, out, _ = cli("lattice", MO2, "--format", "json")
    assert code == 0
    assert json.loads(out) == MO2_JSON


def test_lattice_json_fig7_element_count(cli):
    code, out, _ = cli("lattice", FIG7, "--format", "json")
    assert code == 0
    assert len(json.loads(out)["elements"]) == 52


def test_lattice_dot(cli):
    code, out, _ = cli("lattice", MO2, "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert 'n1 [label="{p1}"];' in out
    assert "n4 -> n5;" in out


def test_lattice_cap(cli):
    code, _, err = cli("lattice", FIG2, "--cap", "3")
    assert code == 2
    assert "exceeded cap 3" in err


def test_eval_ortho_text(cli):
    code, out, _ = cli("eval", FIG7, "--formula", "(p2 | p3) & q3")
    assert (code, out) == (0, "{q3}\n")


def test_eval_ortho_json(cli):
    code, out, _ = cli("eval", FIG7, "--formula", "p2 | p3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "semantics": "ortho",
        "value": ["p2", "p3", "q3"],
        "closed": True,
    }


def test_eval_boolean_text(cli):
    code, out, _ = cli("eval", FIG2, "--formula", "p1", "--semantics", "boolean")
    assert (code, out) == (0, "{T1, T2}\n")


def test_eval_boolean_json(cli):
    code, out, _ = cli(
        "eval", FIG2, "--formula", "r1", "--semantics", "boolean", "--format", "json"
    )
    assert json.loads(out) == {"semantics": "boolean", "value": [0, 1, 2], "closed": True}
    assert code == 0


def test_eval_unknown_atom(cli):
    code, _, err = cli("eval", MO2, "--formula", "zz")
    assert code == 2
    assert "unknown atom" in err


def test_eval_syntax_error(cli):
    code, _, err = cli("eval", MO2, "--formula", "p1 &")
    assert code == 2
    assert "error: position 5" in err


def test_laws_distributivity_counterexample(cli):
    code, out, _ = cli("laws", FIG7, "--law", "distributivity")
    assert code == 1
    assert out == (
        "distributivity: counterexample\n"
        "  a = {p1}\n"
        "  b = {q1}\n"
        "  c = {q2}\n"
        "  (a | b) & c = {q2} but (a & c) | (b & c) = {}\n"
    )


def test_laws_axioms_hold(cli):
    code, out, _ = cli("laws", FIG7, "--law", "ortholattice-axioms")
    assert (code, out) == (0, "ortholattice-axioms: holds (52 elements)\n")
    code, out, _ = cli("laws", MO2, "--law", "orthomodularity")
    assert (code, out) == (0, "orthomodularity: holds (6 elements)\n")


def test_laws_mo2_distributivity(cli):
    code, out, _ = cli("laws", MO2, "--law", "distributivity")
    assert code == 1
    assert "a = {p1}" in out
    assert "b = {p2}" in out
    assert "c = {q1}" in out


def test_laws_boolean_distributivity(cli):
    code, out, _ = cli(
        "laws", FIG2, "--law", "distributivity", "--semantics", "boolean"
    )
    assert code == 0
    assert out == (
        "distributivity: (a | b) & c = (a & c) | (b & c) holds "
        "(exhaustive over 1728 instantiations)\n"
    )


def test_laws_boolean_axiom_bundle(cli):
    code, out, _ = cli(
        "laws", FIG2, "--law", "ortholattice-axioms", "--semantics", "boolean"
    )
    assert code == 0
    assert out.count("holds") == 3


def test_laws_orthomodularity_counterexample(cli):
    code, out, _ = cli("laws", FIG7, "--law", "orthomodularity")
    assert code == 1
    assert out == (
        "orthomodularity: counterexample\n"
        "  a = {p1}\n"
        "  b = {p1, q1, q2}\n"
        "  a <= b but a | (~a & b) = {p1} != b at a = {p1}, b = {p1, q1, q2}\n"
    )


def test_laws_boolean_de_morgan(cli):
    code, out, _ = cli("laws", FIG2, "--law", "de-morgan", "--semantics", "boolean")
    assert code == 0
    assert out == (
        "de-morgan: ~(a & b) = ~a | ~b holds (exhaustive over 144 instantiations)\n"
        "de-morgan: ~(a | b) = ~a & ~b holds (exhaustive over 144 instantiations)\n"
    )


def test_laws_boolean_orthomodularity(cli):
    code, out, _ = cli(
        "laws", FIG2, "--law", "orthomodularity", "--semantics", "boolean"
    )
    assert code == 0
    assert out == (
        "orthomodularity: a | (~a & (a | b)) = a | b holds "
        "(exhaustive over 144 instantiations)\n"
    )


def test_laws_boolean_requires_timed_trace(cli):
    code, _, err = cli("laws", FIG5, "--law", "distributivity", "--semantics", "boolean")
    assert code == 2
    assert "error: " in err


@pytest.mark.parametrize(
    "argv",
    [
        ("timepoints",),
        ("hb",),
        ("eval", "--formula", "a1", "--semantics", "boolean"),
        ("laws", "--law", "distributivity", "--semantics", "boolean"),
    ],
    ids=["timepoints", "hb", "eval-boolean", "laws-boolean"],
)
def test_invalid_timing_is_an_error(cli, tmp_path, argv):
    bad = tmp_path / "backwards.trace"
    bad.write_text(
        "site s : a1 a2\nsite t : b1\n"
        "time a1 = 2 .. 1\ntime a2 = 1 .. 3\ntime b1 = 0 .. 3\n"
    )
    code, out, err = cli(argv[0], str(bad), *argv[1:])
    assert (code, out) == (2, "")
    assert err == "error: process a1 has non-positive duration\n"


def test_oracle_match(cli):
    code, out, _ = cli("oracle", MO2)
    assert (code, out) == (0, "match: fast enumeration = brute force (6 elements)\n")
    code, out, _ = cli("oracle", FIG7)
    assert (code, out) == (0, "match: fast enumeration = brute force (52 elements)\n")


def test_oracle_process_limit(cli, tmp_path):
    code, out, _ = cli("gen", "--seed", "1", "--sites", "3", "--procs", "7", "--messages", "0")
    assert code == 0
    big = tmp_path / "big.trace"
    big.write_text(out)
    code, _, err = cli("oracle", str(big))
    assert code == 2
    assert "limited to 20 processes" in err


def test_gen_round_trips(cli):
    code, out, _ = cli("gen", "--seed", "11", "--sites", "2", "--procs", "3", "--messages", "2")
    assert code == 0
    trace = parse_trace(out)
    assert len(trace.sites) == 2
    assert len(trace.messages) == 2
    assert trace.is_timed


def test_gen_is_deterministic(cli):
    first = cli("gen", "--seed", "4", "--sites", "3", "--procs", "2", "--messages", "1")
    second = cli("gen", "--seed", "4", "--sites", "3", "--procs", "2", "--messages", "1")
    assert first == second


def test_gen_budget_error(cli):
    code, _, err = cli("gen", "--seed", "1", "--sites", "1", "--procs", "3", "--messages", "5")
    assert code == 2
    assert "error: requested 5 messages" in err


def test_version(cli):
    code, out, _ = cli("--version")
    assert code == 0
    assert out.startswith("orthochron ")


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("frobnicate", MO2),
        ("eval", MO2),
        ("laws", MO2),
        ("laws", MO2, "--law", "associativity"),
        ("timepoints", FIG2, "--format", "dot"),
    ],
)
def test_usage_errors(cli, argv):
    code, _, err = cli(*argv)
    assert code == 2
    assert err


def test_output_is_byte_stable(cli):
    first = cli("lattice", FIG7, "--format", "json")
    second = cli("lattice", FIG7, "--format", "json")
    assert first == second
