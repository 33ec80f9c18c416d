"""The benchmark's tracer wraps orthochron functions by name; a rename or a
deletion would silently drop a layer from its per-layer figures."""

import sys
from pathlib import Path

from orthochron.cli import main

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
