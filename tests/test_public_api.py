"""The public API is ``orthochron.__all__``: the package exports exactly these
names, README.md documents each of them, and no submodule keeps an export
list of its own, so the surface cannot regrow unnoticed."""

import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import orthochron

PUBLIC = [
    # functions
    "parse_trace", "validate", "gen_random", "serialize_trace", "time_points",
    "happened_before", "enumerate_closed", "close", "ortho", "is_closed",
    "parse_formula", "eval_boolean", "eval_ortho", "compare_laws",
    # the law table
    "LAWS",
    # types
    "Trace", "TimeLine", "CausalStructure", "OrthoLattice", "LawCheck", "LawComparison",
    # exceptions
    "CapExceededError", "CycleError", "FormulaSyntaxError", "MessageBudgetError",
    "TraceParseError", "UntimedTraceError",
]
README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_all_is_the_public_api():
    assert sorted(orthochron.__all__) == sorted(PUBLIC)


def test_package_exports_nothing_beyond_all():
    exported = {
        name for name, value in vars(orthochron).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == set(PUBLIC)


@pytest.mark.parametrize("name", PUBLIC)
def test_readme_documents_each_public_name(name):
    assert f"`{name}`" in README


def test_no_submodule_defines_all():
    for module in pkgutil.iter_modules(orthochron.__path__):
        submodule = importlib.import_module(f"orthochron.{module.name}")
        assert not hasattr(submodule, "__all__"), module.name
