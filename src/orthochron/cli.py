"""Command line interface.

Subcommands: validate, timepoints, hb, lattice, eval, laws, oracle, gen.
Machine-readable output goes to stdout; diagnostics go to stderr.  Exit
codes: 0 on success and on "law holds", 1 when a law counterexample or an
oracle mismatch is found, 2 on usage, parse or validation errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from array import array
from itertools import chain, compress
from pathlib import Path
from typing import IO, Iterable

from . import __version__
from .causal_core import CausalStructure, _selected, _selectors, happened_before
from .chronology import time_points
from .logic_eval import compare_laws, eval_boolean, eval_ortho, parse_formula
from .ortholattice import DEFAULT_CAP, LAWS, _canonical_order, enumerate_closed, format_members
from .trace_model import gen_random, parse_trace, serialize_trace, timing_problems, validate

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_ERROR = 2

ORACLE_PROCESS_LIMIT = 20


def closed_sets_by_definition(cs: CausalStructure) -> set[frozenset[str]]:
    """Brute-force closed-set family by the literal bi-orthogonality
    condition on the causality rows: row[p] holds every r related to p and
    col[q] every p whose row holds q.  prime[S] = AND of col[q] over q in S
    and coprime[T] = AND of row[p] over p in T are tabulated over all 2^P
    masks, one AND per entry, and S is closed iff coprime[prime[S]] == S.
    Assumes no symmetry; independent of ortho_mask and the generator closure."""
    rows = cs.causality_masks
    cols = [sum(1 << p for p, row in enumerate(rows) if row >> q & 1) for q in range(cs.size)]
    prime, coprime = array("I", [cs.full_mask]), array("I", [cs.full_mask])
    for col, row in zip(cols, rows):
        prime += array("I", map(col.__and__, prime))
        coprime += array("I", map(row.__and__, coprime))
    return {cs.names_of(s) for s, t in enumerate(prime) if coprime[t] == s}


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


# every main call parses with one parser, built on the first call: parse_args
# and printing help, usage or the version leave it unchanged
_main_parser = functools.cache(build_parser)


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


def _matrix_lines(title: str, names: tuple[str, ...], rows: tuple[int, ...]) -> list[str]:
    """The 0/1 matrix of the row masks: each cell is one bit, right-aligned
    to the widest name."""
    width = max(len(n) for n in names)
    lines = [title, " " * (width + 2) + " ".join(n.rjust(width) for n in names)]
    gap, pad = " " * width, " " * (width - 1)
    for a, mask in zip(names, rows):
        bits = bin(mask)[:1:-1].ljust(len(names), "0")
        lines.append(f"  {a.rjust(width)} {pad}{gap.join(bits)}")
    return lines


def _cmd_hb(args: argparse.Namespace, out: IO[str]) -> int:
    cs = happened_before(_load_trace(args))
    names = cs.names
    if args.format == "json":
        # json.dumps of the payload, written row by row: each name is quoted
        # once and a row joins the quoted names its mask selects
        quoted = [json.dumps(name) for name in names]

        def rows(masks: tuple[int, ...]) -> str:
            return ", ".join(
                f"{a}: [{', '.join(compress(quoted, _selectors(mask)))}]"
                for a, mask in zip(quoted, masks)
            )

        out.write('{"happened_before": {')
        out.write(rows(cs.before_masks))
        out.write('}, "causality": {')
        out.write(rows(cs.causality_masks))
        out.write("}}\n")
    else:
        for line in _matrix_lines("happened-before", names, cs.before_masks):
            print(line, file=out)
        for line in _matrix_lines("causality", names, cs.causality_masks):
            print(line, file=out)
    return EXIT_OK


def _cmd_lattice(args: argparse.Namespace, out: IO[str]) -> int:
    lattice = enumerate_closed(happened_before(_load_trace(args)), cap=args.cap)
    if args.format == "json":
        # json.dumps(lattice.to_json_dict()), written key by key: each name is
        # quoted once and an element joins the quoted names its mask selects
        quoted = tuple([json.dumps(name) for name in lattice.structure.names])
        complement, edges = lattice.complement, lattice.hasse_edges()
        out.write('{"elements": [')
        out.write(", ".join(f"[{', '.join(_selected(quoted, m))}]" for m in lattice.masks))
        out.write('], "complement": [')
        out.write(", ".join(map(str, complement)))
        out.write('], "hasse": [')
        out.write(", ".join(["[%d, %d]"] * len(edges)) % tuple(chain.from_iterable(edges)))
        out.write("]}\n")
    elif args.format == "dot":
        out.write(lattice.to_dot())
    else:
        sorted_names_of = lattice.structure.sorted_names_of
        out.write("".join(f"{format_members(sorted_names_of(m))}\n" for m in lattice.masks))
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace, out: IO[str]) -> int:
    trace = _load_trace(args)
    formula = parse_formula(args.formula)
    if args.semantics == "boolean":
        value: list = sorted(eval_boolean(formula, time_points(trace)))
        rendered = _point_set(value)
    else:
        # every ortho value is closed: atoms are closures, and ~, & and | keep closedness
        cs = happened_before(trace)
        value = cs.sorted_names_of(cs.mask_of(eval_ortho(formula, cs)))
        rendered = format_members(value)
    if args.format == "json":
        print(
            json.dumps({"semantics": args.semantics, "value": value, "closed": True}),
            file=out,
        )
    else:
        print(rendered, file=out)
    return EXIT_OK


def _cmd_laws(args: argparse.Namespace, out: IO[str]) -> int:
    trace = _load_trace(args)
    if args.semantics == "boolean":
        timeline = time_points(trace)
        for lhs, rhs in LAWS[args.law][0]:
            result = compare_laws(timeline, (lhs, rhs))
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
            "oracle tabulates all 2^P subsets and is limited to "
            f"{ORACLE_PROCESS_LIMIT} processes, trace has {cs.size}"
        )
    fast = set(enumerate_closed(cs).masks)
    brute = set(map(cs.mask_of, closed_sets_by_definition(cs)))
    if fast == brute:
        print(f"match: fast enumeration = brute force ({len(fast)} elements)", file=out)
        return EXIT_OK
    print("mismatch between fast enumeration and brute force", file=out)
    for label, family in (("only-fast", fast - brute), ("only-brute", brute - fast)):
        for mask in _canonical_order(family, cs.size):
            print(f"  {label}: {format_members(cs.sorted_names_of(mask))}", file=out)
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
    except Exception as exc:  # a defect, still reported as one line, never a traceback
        print(f"error: {exc!r}", file=err)
        return EXIT_ERROR


def main(argv: list[str] | None = None) -> int:
    try:
        args = _main_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
