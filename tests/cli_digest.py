"""Print one line per CLI request: argv, exit code, sha256 of stdout and
sha256 of stderr.

    python3 tests/cli_digest.py > digest.txt

Run it in two checkouts and diff the two outputs to see every request whose
exit code or output bytes differ.  The corpus crosses the fixtures, their
whitespace, comment, CRLF and compact-punctuation variants, seeded ``gen``
traces (timed, untimed copies and copies with signed decimal times) and a few
broken inputs, among them one syntax error per directive and single-spaced
faults in the form ``serialize_trace`` writes, with every command, format,
law, semantics and ``--cap``; one 600-process timed trace goes
through ``validate``, ``timepoints`` and ``hb`` only, two more traces through
``laws`` with every law and ``lattice`` in every format, and ``--help`` is
asked of the program and of every command.  Each request is one
``orthochron.cli.main(argv)`` call in this process, with the package
imported from the checkout's ``src``, so later requests reuse the parser of
earlier ones.  Trace paths are relative to a temporary directory, so the
lines do not depend on where the script runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from orthochron.cli import _COMMANDS, main  # noqa: E402
from orthochron.ortholattice import LAWS  # noqa: E402

GEN_SHAPES = [(1, 4, 0), (2, 3, 2), (3, 3, 4), (2, 5, 3), (4, 3, 6), (3, 8, 5)]
GEN_SEEDS = range(1, 7)
FORMULAS = ["{a}", "{a} | ~{b}", "({a} | {b}) & {c}", "~~{a} & 1", "0 | ~({a} & {c})", "nope", "({a}"]
CAPS = [[], ["--cap", "3"]]
FIXTURE_VARIANTS = {
    "tabs": lambda text: text.replace(" ", "\t").replace("\t:", " \t:  "),
    "comments": lambda text: "# variant\n\n" + text.replace("\n", "  # note\n\n"),
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "compact": lambda text: text.replace(" : ", ":").replace(" -> ", "->").replace(" = ", "=")
    .replace(" .. ", ".."),
}
SYNTAX_ERRORS = {
    "site": "site x a b\nsite y : c\n",
    "msg": "site x : a\nsite y : b\nmsg a b\n",
    "time": "site x : a\ntime a = 0 1\n",
}
# single-spaced, so parse_trace first offers every line to its split path
CANONICAL_FAULTS = {
    "late-site": "site x : a\nsite y : b\nmsg a -> b\nsite z : c\n",
    "two-sites": "site x : a b\nsite y : c b\n",
    "intra-site": "site x : a b\nsite y : c\nmsg a -> b\n",
    "retimed": "site x : a\nsite y : b\ntime a = 0 .. 1\ntime b = 0 .. 1\ntime a = 1 .. 2\n",
    "invalid-name": "site x : a 1a\nsite y : b\n",
}
WIDE = ["gen", "--seed", "3", "--sites", "10", "--procs", "60", "--messages", "600"]
# checked against every law on the lattice and exported in every format: 16
# elements, orthomodular but not Boolean, and a 10-process chain, Boolean with
# 1,024 elements and 5,120 covers
LAW_TRACES = {
    "three-sites.trace": "site x : a b c\nsite y : d e f\nsite z : g h\n",
    "chain-10.trace": "site x : " + " ".join(f"p{i}" for i in range(1, 11)) + "\n",
}


def request(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _shifted(text: str) -> str:
    """A timed trace with every time moved down by 7.25 and written with a sign."""
    lines = []
    for line in text.splitlines():
        if line.startswith("time"):
            head, times = line.split("=")
            start, end = (float(t) - 7.25 for t in times.split(".."))
            line = f"{head}= {start:+g} .. {end:+g}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def write_corpus() -> dict[str, list[str]]:
    """Write the traces to the current directory; map each path to its first,
    last and middle process names, the atoms of the eval formulas."""
    texts = {f"fixtures/{p.name}": p.read_text() for p in sorted((ROOT / "fixtures").glob("*.trace"))}
    for path, text in list(texts.items()):
        for variant, rewrite in FIXTURE_VARIANTS.items():
            texts[path.replace(".trace", f"-{variant}.trace")] = rewrite(text)
    for seed in GEN_SEEDS:
        for sites, procs, messages in GEN_SHAPES:
            argv = ["gen", "--seed", str(seed), "--sites", str(sites), "--procs", str(procs),
                    "--messages", str(messages)]
            code, out, _ = request(argv)
            if code == 0:
                texts[f"gen-{seed}-{sites}-{procs}-{messages}.trace"] = out
                if seed % 2:
                    untimed = "".join(line for line in out.splitlines(True) if not line.startswith("time"))
                    texts[f"untimed-{seed}-{sites}-{procs}-{messages}.trace"] = untimed
                else:
                    texts[f"signed-{seed}-{sites}-{procs}-{messages}.trace"] = _shifted(out)
    texts["oracle-21.trace"] = request(["gen", "--seed", "1", "--sites", "3", "--procs", "7",
                                        "--messages", "2"])[1]
    texts["broken.trace"] = "site x : p1\nmsg p1 -> q9\n"
    for directive, text in SYNTAX_ERRORS.items():
        texts[f"syntax-{directive}.trace"] = text
    for fault, text in CANONICAL_FAULTS.items():
        texts[f"fault-{fault}.trace"] = text
    os.mkdir("fixtures")
    atoms = {}
    for path, text in texts.items():
        Path(path).write_text(text)
        names = [n for line in text.splitlines() if line.split("#")[0].startswith("site")
                 for n in line.split("#")[0].partition(":")[2].split()]
        atoms[path] = [names[0], names[-1], names[len(names) // 2]] if names else ["p1"] * 3
    return atoms


def corpus(atoms: dict[str, list[str]]):
    yield ["--version"]
    yield ["--help"]
    for command in _COMMANDS:
        yield [command, "--help"]
    Path("wide.trace").write_text(request(WIDE)[1])
    yield ["validate", "wide.trace"]
    for fmt in ("text", "json"):
        yield ["timepoints", "wide.trace", "--format", fmt]
        yield ["hb", "wide.trace", "--format", fmt]
    for path, text in LAW_TRACES.items():
        Path(path).write_text(text)
        for law in LAWS:
            yield ["laws", path, "--law", law]
        for fmt in ("text", "json", "dot"):
            yield ["lattice", path, "--format", fmt]
    yield ["lattice"]
    yield ["laws", "fixtures/fig7.trace", "--law", "no-such-law"]
    yield ["validate", "missing.trace"]
    for seed in (1, 2, 9):
        yield ["gen", "--seed", str(seed), "--sites", "2", "--procs", "2", "--messages", "3"]
        yield ["gen", "--seed", str(seed), "--sites", "3", "--procs", "2", "--messages", "99"]
    for path, names in atoms.items():
        a, b, c = names
        yield ["validate", path]
        for fmt in ("text", "json"):
            yield ["timepoints", path, "--format", fmt]
            yield ["hb", path, "--format", fmt]
        for fmt in ("text", "json", "dot"):
            for cap in CAPS:
                yield ["lattice", path, "--format", fmt, *cap]
        for semantics in ("ortho", "boolean"):
            for formula in FORMULAS:
                for fmt in ("text", "json"):
                    yield ["eval", path, "--formula", formula.format(a=a, b=b, c=c),
                           "--semantics", semantics, "--format", fmt]
            for law in LAWS:
                for cap in CAPS:
                    yield ["laws", path, "--law", law, "--semantics", semantics, *cap]
        yield ["oracle", path]


def main_digest() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        for argv in corpus(write_corpus()):
            code, out, err = request(argv)
            digests = (hashlib.sha256(s.encode()).hexdigest() for s in (out, err))
            print(json.dumps(argv), code, *digests, sep="\t")
        os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
