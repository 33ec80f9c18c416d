"""Logical models of distributed traces.

A trace is a set of sites, each running a sequence of processes, with
cross-site messages and optional exact-rational timing.  Timed traces get a
Boolean timeline of maximal simultaneity cliques; untimed (or any) traces
get a causal structure whose bi-orthogonally closed process sets form an
ortholattice, evaluated as a minimal quantum logic.

``__all__`` is the public API, and README.md documents every name in it.
"""

from .trace_model import (
    MessageBudgetError,
    Trace,
    TraceParseError,
    UntimedTraceError,
    gen_random,
    parse_trace,
    serialize_trace,
    validate,
)
from .chronology import TimeLine, time_points
from .causal_core import CausalStructure, CycleError, happened_before
from .ortholattice import (
    CapExceededError,
    LawCheck,
    LAWS,
    OrthoLattice,
    close,
    enumerate_closed,
    is_closed,
    ortho,
)
from .logic_eval import (
    FormulaSyntaxError,
    LawComparison,
    compare_laws,
    eval_boolean,
    eval_ortho,
    parse_formula,
)

__version__ = "0.1.0"

__all__ = [
    # functions
    "parse_trace",
    "validate",
    "gen_random",
    "serialize_trace",
    "time_points",
    "happened_before",
    "enumerate_closed",
    "close",
    "ortho",
    "is_closed",
    "parse_formula",
    "eval_boolean",
    "eval_ortho",
    "compare_laws",
    # the law table
    "LAWS",
    # types
    "Trace",
    "TimeLine",
    "CausalStructure",
    "OrthoLattice",
    "LawCheck",
    "LawComparison",
    # exceptions
    "CapExceededError",
    "CycleError",
    "FormulaSyntaxError",
    "MessageBudgetError",
    "TraceParseError",
    "UntimedTraceError",
]
