"""The benchmark's tracer wraps orthochron functions by name; a rename or a
deletion would silently drop a layer from its per-layer figures."""

import sys
from pathlib import Path

import pytest

from orthochron.cli import main
from orthochron.ortholattice import LAWS

from conftest import fixture_path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracing import Tracer  # noqa: E402


def test_tracer_finds_every_layer(capsys):
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        code = tracer.request(
            main, ["laws", str(fixture_path("fig7.trace")), "--law", "orthomodularity"]
        )
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 1
    names = {span.name for span in tracer.spans}
    assert {"trace_model.parse", "ortholattice.check_laws"} <= names


def test_parse_counts_processes_and_messages(capsys):
    """The benchmark's input-size counters read ``len(trace.processes)`` and
    ``len(trace.messages)`` off the parsed trace: one per process name and
    one per message of fig7."""
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        code = tracer.request(main, ["validate", str(fixture_path("fig7.trace"))])
    finally:
        tracer.uninstall()
    assert (code, capsys.readouterr().out) == (0, "valid\n")
    assert tracer.counts["trace_model.processes"] == 12
    assert tracer.counts["trace_model.messages"] == 4


@pytest.mark.parametrize("law", list(LAWS))
def test_boolean_laws_build_one_timeline(capsys, law):
    tracer = Tracer()
    tracer.install()
    try:
        tracer.request(
            main, ["laws", str(fixture_path("fig2.trace")), "--law", law, "--semantics", "boolean"]
        )
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert [s.name for s in tracer.spans].count("chronology.time_points") == 1


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_lattice_export_opens_one_covers_span(capsys, fmt):
    tracer = Tracer()
    tracer.install()
    try:
        tracer.request(main, ["lattice", str(fixture_path("fig2.trace")), "--format", fmt])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    # downset_masks opens this span too; rendering must not build it
    assert [s.name for s in tracer.spans].count("ortholattice.covers") == 1


def test_lattice_dot_opens_one_render_span(capsys):
    """``lattice --format dot`` writes the text of the traced ``to_dot``, so
    the benchmark's render layer sees it."""
    tracer = Tracer()
    tracer.install()
    try:
        tracer.request(main, ["lattice", str(fixture_path("fig2.trace")), "--format", "dot"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert [s.name for s in tracer.spans].count("ortholattice.render") == 1
