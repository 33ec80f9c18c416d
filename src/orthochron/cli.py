"""Command line interface.

Subcommands: validate, timepoints, hb, lattice, eval, laws, oracle, gen.
Machine-readable output goes to stdout; diagnostics go to stderr.  Exit
codes: 0 on success and on "law holds", 1 when a law counterexample or an
oracle mismatch is found, 2 on usage, parse or validation errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import IO, Iterable

from . import __version__
from .causal_core import CausalStructure, happened_before
from .chronology import time_points
from .logic_eval import compare_laws, eval_boolean, eval_ortho, parse_formula
from .ortholattice import (
    DEFAULT_CAP,
    LAWS,
    enumerate_closed,
    format_members,
    is_closed,
)
from .trace_model import gen_random, parse_trace, serialize_trace, timing_problems, validate

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_ERROR = 2

ORACLE_PROCESS_LIMIT = 20


def closed_sets_by_definition(cs: CausalStructure) -> set[frozenset[str]]:
    """Brute-force closed-set family: filter every subset by the literal
    bi-orthogonality condition using plain quantifier loops over the
    causality relation.  Independent of the worklist enumeration."""
    names = list(cs.names)
    related = {a: {b for b in names if cs.causally_related(a, b)} for a in names}
    family: set[frozenset[str]] = set()
    for bits in range(1 << len(names)):
        subset = {names[i] for i in range(len(names)) if bits >> i & 1}
        premise = [p for p in names if all(q in related[p] for q in subset)]
        if all(
            all(r in related[p] for p in premise) == (r in subset) for r in names
        ):
            family.add(frozenset(subset))
    return family


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthochron",
        description="Logical models of distributed traces: simultaneity "
        "timelines and causal ortholattices.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    def with_trace(name: str, help_text: str, formats: tuple[str, ...] | None = None):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("trace", help="path to a trace file")
        if formats:
            sub.add_argument("--format", choices=formats, default="text")
        return sub

    with_trace("validate", "check a trace against every invariant")
    with_trace("timepoints", "maximal simultaneity cliques in order", ("text", "json"))
    with_trace("hb", "happened-before and causality relations", ("text", "json"))
    lattice = with_trace("lattice", "enumerate all closed sets", ("text", "json", "dot"))
    lattice.add_argument("--cap", type=int, default=DEFAULT_CAP)

    evaluate = with_trace("eval", "evaluate a formula", ("text", "json"))
    evaluate.add_argument("--formula", required=True)
    evaluate.add_argument("--semantics", choices=("ortho", "boolean"), default="ortho")

    laws = with_trace("laws", "check an algebraic law, exit 1 on counterexample")
    laws.add_argument("--law", required=True, choices=LAWS)
    laws.add_argument("--semantics", choices=("ortho", "boolean"), default="ortho")
    laws.add_argument("--cap", type=int, default=DEFAULT_CAP)

    with_trace("oracle", "compare fast enumeration against the brute-force definition")

    gen = commands.add_parser("gen", help="generate a random valid trace")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--sites", type=int, required=True)
    gen.add_argument("--procs", type=int, required=True)
    gen.add_argument("--messages", type=int, required=True)
    return parser


def _load_trace(args: argparse.Namespace):
    """Parse the trace and reject invalid timing; a timed trace that passes
    these checks is acyclic, since starts strictly increase along every edge."""
    trace = parse_trace(Path(args.trace).read_text())
    problems = timing_problems(trace)
    if problems:
        raise ValueError(problems[0])
    return trace


def _point_label(index: int) -> str:
    return f"T{index + 1}"


def _point_set(indices: Iterable[int]) -> str:
    return format_members(_point_label(i) for i in sorted(indices))


def _cmd_validate(args: argparse.Namespace, out: IO[str]) -> int:
    report = validate(parse_trace(Path(args.trace).read_text()))
    if not report:
        print("valid", file=out)
        return EXIT_OK
    for entry in report:
        print(entry, file=out)
    return EXIT_ERROR


def _cmd_timepoints(args: argparse.Namespace, out: IO[str]) -> int:
    timeline = time_points(_load_trace(args))
    if args.format == "json":
        print(json.dumps(timeline.member_lists()), file=out)
    else:
        for i in range(len(timeline)):
            print(f"{_point_label(i)}: " + " ".join(timeline.sorted_members(i)), file=out)
    return EXIT_OK


def _matrix_lines(title: str, names: tuple[str, ...], row) -> list[str]:
    width = max(len(n) for n in names)
    lines = [title, " " * (width + 2) + " ".join(n.rjust(width) for n in names)]
    for a in names:
        cells = " ".join(("1" if row(a, b) else "0").rjust(width) for b in names)
        lines.append(f"  {a.rjust(width)} {cells}")
    return lines


def _cmd_hb(args: argparse.Namespace, out: IO[str]) -> int:
    cs = happened_before(_load_trace(args))
    names = cs.names
    if args.format == "json":
        payload = {
            "happened_before": {
                a: cs.sorted_names_of(cs.before_masks[i]) for i, a in enumerate(names)
            },
            "causality": {
                a: cs.sorted_names_of(cs.causality_masks[i]) for i, a in enumerate(names)
            },
        }
        print(json.dumps(payload), file=out)
    else:
        for line in _matrix_lines("happened-before", names, cs.happened_before):
            print(line, file=out)
        for line in _matrix_lines("causality", names, cs.causally_related):
            print(line, file=out)
    return EXIT_OK


def _cmd_lattice(args: argparse.Namespace, out: IO[str]) -> int:
    lattice = enumerate_closed(happened_before(_load_trace(args)), cap=args.cap)
    if args.format == "json":
        print(json.dumps(lattice.to_json_dict()), file=out)
    elif args.format == "dot":
        out.write(lattice.to_dot())
    else:
        for mask in lattice.masks:
            print(format_members(lattice.structure.sorted_names_of(mask)), file=out)
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace, out: IO[str]) -> int:
    trace = _load_trace(args)
    formula = parse_formula(args.formula)
    if args.semantics == "boolean":
        value: list = sorted(eval_boolean(formula, time_points(trace)))
        closed = True
        rendered = _point_set(value)
    else:
        cs = happened_before(trace)
        names = eval_ortho(formula, cs)
        closed = is_closed(cs, names)
        value = cs.sorted_names_of(cs.mask_of(names))
        rendered = format_members(value)
    if args.format == "json":
        print(
            json.dumps({"semantics": args.semantics, "value": value, "closed": closed}),
            file=out,
        )
    else:
        print(rendered, file=out)
    return EXIT_OK


def _cmd_laws(args: argparse.Namespace, out: IO[str]) -> int:
    trace = _load_trace(args)
    if args.semantics == "boolean":
        for lhs, rhs in LAWS[args.law][0]:
            result = compare_laws(trace, (lhs, rhs), semantics="boolean")
            scope = (
                f"exhaustive over {result.checked} instantiations"
                if result.exhaustive
                else f"sampled {result.checked} of {result.total} instantiations"
            )
            if not result.holds:
                assert result.counterexample is not None
                print(f"{args.law}: counterexample to {lhs} = {rhs} ({scope})", file=out)
                for var, atom in result.counterexample.items():
                    print(f"  {var} = {atom}", file=out)
                print(f"  {lhs} = {_point_set(result.lhs_value or ())}", file=out)
                print(f"  {rhs} = {_point_set(result.rhs_value or ())}", file=out)
                return EXIT_COUNTEREXAMPLE
            print(f"{args.law}: {lhs} = {rhs} holds ({scope})", file=out)
        return EXIT_OK
    lattice = enumerate_closed(happened_before(trace), cap=args.cap)
    result = lattice.check_laws(args.law)
    if result.holds:
        print(f"{args.law}: holds ({len(lattice)} elements)", file=out)
        return EXIT_OK
    print(f"{args.law}: counterexample", file=out)
    assert result.counterexample is not None
    for var, element in zip("abc", result.counterexample):
        ordered = lattice.structure.sorted_names_of(lattice.structure.mask_of(element))
        print(f"  {var} = {format_members(ordered)}", file=out)
    print(f"  {result.detail}", file=out)
    return EXIT_COUNTEREXAMPLE


def _cmd_oracle(args: argparse.Namespace, out: IO[str]) -> int:
    cs = happened_before(_load_trace(args))
    if cs.size > ORACLE_PROCESS_LIMIT:
        raise ValueError(
            f"oracle is limited to {ORACLE_PROCESS_LIMIT} processes, trace has {cs.size}"
        )
    fast = set(enumerate_closed(cs).elements)
    brute = closed_sets_by_definition(cs)
    if fast == brute:
        print(f"match: fast enumeration = brute force ({len(fast)} elements)", file=out)
        return EXIT_OK
    print("mismatch between fast enumeration and brute force", file=out)
    for label, family in (("only-fast", fast - brute), ("only-brute", brute - fast)):
        for members in sorted(
            family, key=lambda s: (len(s), sorted(cs.ordinal(x) for x in s))
        ):
            ordered = cs.sorted_names_of(cs.mask_of(members))
            print(f"  {label}: {format_members(ordered)}", file=out)
    return EXIT_COUNTEREXAMPLE


def _cmd_gen(args: argparse.Namespace, out: IO[str]) -> int:
    trace = gen_random(args.seed, args.sites, args.procs, args.messages)
    out.write(serialize_trace(trace))
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "timepoints": _cmd_timepoints,
    "hb": _cmd_hb,
    "lattice": _cmd_lattice,
    "eval": _cmd_eval,
    "laws": _cmd_laws,
    "oracle": _cmd_oracle,
    "gen": _cmd_gen,
}


def run(args: argparse.Namespace, out: IO[str] | None = None, err: IO[str] | None = None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        return _COMMANDS[args.command](args, out)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_ERROR


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
