"""Logical models of distributed traces.

A trace is a set of sites, each running a sequence of processes, with
cross-site messages and optional exact-rational timing.  Timed traces get a
Boolean timeline of maximal simultaneity cliques; untimed (or any) traces
get a causal structure whose bi-orthogonally closed process sets form an
ortholattice, evaluated as a minimal quantum logic.
"""

from .trace_model import (
    Message,
    MessageBudgetError,
    ProcessId,
    Site,
    Trace,
    TraceParseError,
    UntimedTraceError,
    gen_random,
    parse_trace,
    serialize_trace,
    validate,
)
from .chronology import (
    TimeLine,
    earlier,
    simultaneity,
    simultaneous,
    time_points,
)
from .causal_core import CausalStructure, CycleError, happened_before
from .ortholattice import (
    DEFAULT_CAP,
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
    And,
    Atom,
    Bottom,
    Formula,
    FormulaSyntaxError,
    LawComparison,
    Not,
    Or,
    Top,
    compare_laws,
    eval_boolean,
    eval_ortho,
    format_formula,
    parse_formula,
)

__version__ = "0.1.0"

__all__ = [
    "And",
    "Atom",
    "Bottom",
    "CapExceededError",
    "CausalStructure",
    "CycleError",
    "DEFAULT_CAP",
    "Formula",
    "FormulaSyntaxError",
    "LawCheck",
    "LawComparison",
    "LAWS",
    "Message",
    "MessageBudgetError",
    "Not",
    "Or",
    "OrthoLattice",
    "ProcessId",
    "Site",
    "TimeLine",
    "Top",
    "Trace",
    "TraceParseError",
    "UntimedTraceError",
    "close",
    "compare_laws",
    "earlier",
    "enumerate_closed",
    "eval_boolean",
    "eval_ortho",
    "format_formula",
    "gen_random",
    "happened_before",
    "is_closed",
    "ortho",
    "parse_formula",
    "parse_trace",
    "serialize_trace",
    "simultaneity",
    "simultaneous",
    "time_points",
    "validate",
]
