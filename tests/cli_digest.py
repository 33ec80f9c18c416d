"""Print one line per CLI request: argv, exit code, sha256 of stdout and
sha256 of stderr.

    python3 tests/cli_digest.py > digest.txt

Run it in two checkouts and diff the two outputs to see every request whose
exit code or output bytes differ.  The corpus crosses the fixtures, seeded
``gen`` traces (timed, and untimed copies) and a few broken inputs with every
command, format, law, semantics and ``--cap``.  Each request is one
``orthochron.cli.main(argv)`` call in this process, with the package
imported from the checkout's ``src``.  Trace paths are relative to a
temporary directory, so the lines do not depend on where the script runs.
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

from orthochron.cli import main  # noqa: E402
from orthochron.ortholattice import LAWS  # noqa: E402

GEN_SHAPES = [(1, 4, 0), (2, 3, 2), (3, 3, 4), (2, 5, 3), (4, 3, 6), (3, 8, 5)]
GEN_SEEDS = range(1, 7)
FORMULAS = ["{a}", "{a} | ~{b}", "({a} | {b}) & {c}", "~~{a} & 1", "0 | ~({a} & {c})", "nope", "({a}"]
CAPS = [[], ["--cap", "3"]]


def request(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_corpus() -> dict[str, list[str]]:
    """Write the traces to the current directory; map each path to its first,
    last and middle process names, the atoms of the eval formulas."""
    texts = {f"fixtures/{p.name}": p.read_text() for p in sorted((ROOT / "fixtures").glob("*.trace"))}
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
    texts["oracle-21.trace"] = request(["gen", "--seed", "1", "--sites", "3", "--procs", "7",
                                        "--messages", "2"])[1]
    texts["broken.trace"] = "site x : p1\nmsg p1 -> q9\n"
    os.mkdir("fixtures")
    atoms = {}
    for path, text in texts.items():
        Path(path).write_text(text)
        names = [n for line in text.splitlines() if line.startswith("site")
                 for n in line.split(":", 1)[1].split()]
        atoms[path] = [names[0], names[-1], names[len(names) // 2]] if names else ["p1"] * 3
    return atoms


def corpus(atoms: dict[str, list[str]]):
    yield ["--version"]
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
