"""orthochron benchmark: closed-loop CLI requests against seeded traces.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root; the package is imported from ``src`` and not
installed.  One client sends one request at a time: each request is one
``orthochron.cli.main(argv)`` call in this process with stdout captured,
and its exit code and the sha256 of its stdout are checked against
answers the benchmark derives itself (``reference.py``, in a child
process).  Whole passes of the workload's requests, reshuffled each time,
are sent until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first sends
the same untraced requests, then the same sequence again with a span
around every public layer call, and reports per-layer self time and
counts per request, the tracing overhead, the median cold start of the
CLI, and ROADMAP's baseline rows; the spans are written to
``perfbench/_out/``.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import baseline
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
OUT = HERE / "_out"

SETUP_REPEATS = 5
COLD_STARTS = {"full": 15, "smoke": 3}
CHILD_TIMEOUT_S = 150


def load_orthochron():
    """Import the package from ``src`` afresh, dropping any earlier copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "orthochron" or n.startswith("orthochron.")]:
        del sys.modules[name]
    import orthochron.cli

    return orthochron


def call(main, argv: list[str], tracer=None) -> tuple[int, str, float]:
    """One request: exit code, captured stdout and wall seconds."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = main(argv) if tracer is None else tracer.request(main, argv)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def setup(name: str, seed: int, scale: str, workdir: Path):
    """Generate and write the traces, import orthochron and warm up."""
    start = time.perf_counter()
    workload = workloads.build(name, seed, scale)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for trace, text in workload.texts.items():
        paths[trace] = str(workdir / f"{trace}.trace")
        Path(paths[trace]).write_text(text)
    orthochron = load_orthochron()
    for request in workload.warmup:
        call(orthochron.cli.main, request.argv(paths[request.trace]))
    return time.perf_counter() - start, workload, paths, orthochron


def expected_answers(name: str, seed: int, scale: str) -> dict:
    result = subprocess.run(
        [sys.executable, str(HERE / "reference.py"),
         "--workload", name, "--seed", str(seed), "--scale", scale],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(result.stdout)


class Client:
    """The single closed-loop client: sends requests, checks every answer."""

    def __init__(self, main, workload, paths, answers):
        self.main = main
        self.argvs = [r.argv(paths[r.trace]) for r in workload.requests]
        self.expected = [tuple(a) for a in answers["expected"]]
        self.failed = 0
        self.attempted = 0

    def send(self, index: int, tracer=None) -> float:
        code, out, elapsed = call(self.main, self.argvs[index], tracer)
        data = out.encode()
        if tracer is not None:
            tracer.counts["cli.output_bytes"] += len(data)
        self.attempted += 1
        if (code, hashlib.sha256(data).hexdigest()) != self.expected[index]:
            self.failed += 1
        return elapsed

    def run_passes(self, rng: random.Random, seconds: float) -> list[list[tuple[int, float]]]:
        """Whole reshuffled passes until ``seconds`` have passed, at least
        one; (request index, latency) for each request of each pass."""
        passes = []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            order = list(range(len(self.argvs)))
            rng.shuffle(order)
            passes.append([(index, self.send(index)) for index in order])
        return passes


def cold_start(count: int) -> tuple[float, int]:
    """Median wall seconds of fresh ``python -m orthochron.cli`` runs, and
    how many of them gave a wrong answer."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    fixture = str(HERE / "fixtures" / "fig2.trace")
    times, wrong = [], 0
    for _ in range(count):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "orthochron.cli", "validate", fixture],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        times.append(time.perf_counter() - start)
        wrong += (done.returncode, done.stdout) != (0, "valid\n")
    return statistics.median(times), wrong


def measure(name: str, seed: int, seconds: float, traced: bool, scale: str = "full") -> dict:
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            seconds_taken, workload, paths, orthochron = setup(name, seed, scale, workdir)
            setup_times.append(seconds_taken)
        answers = expected_answers(name, seed, scale)
        client = Client(orthochron.cli.main, workload, paths, answers)
        rng = random.Random(f"order/{seed}")
        passes = client.run_passes(rng, seconds)
        latencies = [latency for sent in passes for _, latency in sent]
        report = {
            "workload": name,
            "seed": seed,
            "requests_per_pass": len(workload.requests),
            "passes": len(passes),
            "samples": len(latencies),
            "checks_passed": len(answers["checks_passed"]),
            "checks_failed": answers["checks_failed"],
        }
        if not traced:
            p90 = statistics.quantiles(latencies, n=10)[-1]
            report["beyond_p90"] = sum(latency > p90 for latency in latencies)
            report["metrics"] = {
                "latency_p50_s": statistics.median(latencies),
                "latency_p90_s": p90,
                "requests_per_s": statistics.median(
                    len(sent) / sum(latency for _, latency in sent) for sent in passes
                ),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": statistics.median(setup_times),
            }
        else:
            sequence = [index for sent in passes for index, _ in sent]
            report.update(traced_run(orthochron, client, sequence, latencies, seed, scale))
        report["attempted"], report["failed"] = client.attempted, client.failed
        report["error_rate"] = client.failed / client.attempted
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            WORK.rmdir()


def traced_run(orthochron, client, sequence, untraced, seed, scale) -> dict:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [client.send(index, tracer) for index in sequence]
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = (sum(traced) - sum(untraced)) / len(sequence)
    metrics["cli.cold_start_s"], wrong = cold_start(COLD_STARTS[scale])
    client.attempted += COLD_STARTS[scale]
    client.failed += wrong
    rows = baseline.measure(orthochron, seed, scale)
    metrics.update({row["metric"]: row["measured_s"] for row in rows})
    return {
        "metrics": metrics,
        "missing_layers": tracer.missing,
        "untraced_mean_s": sum(untraced) / len(untraced),
        "traced_mean_s": sum(traced) / len(traced),
        "baseline": rows,
        "spans": tracer.records(),
    }


def metric_units(group: str) -> dict[str, str]:
    """Units of the ``end_to_end`` or ``per_layer`` metrics BENCHMARK.json names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[group]}


def print_report(report: dict, units: dict[str, str]):
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"{report['samples']} samples in {report['passes']} passes of {report['requests_per_pass']}"
          + (f", {report['beyond_p90']} beyond p90" if "beyond_p90" in report else ""))
    for name, value in report["metrics"].items():
        print(f"  {name:40s} {value:14.6f} {units[name]}")
    print(f"  {'error_rate':40s} {report['error_rate']:14.6f} 1  "
          f"({report['failed']} of {report['attempted']} requests wrong)")
    print(f"  cross-checks passed: {report['checks_passed']}, failed: {report['checks_failed']}")
    for row in report.get("baseline", []):
        print(f"  baseline {row['what']} (size {row['size']}): "
              f"{row['measured_s']:.4f} s, ROADMAP {row['roadmap_s']} s")
    if report.get("missing_layers"):
        print(f"  not traced, missing from orthochron: {', '.join(report['missing_layers'])}")


def result_line(report: dict, units: dict[str, str]) -> str:
    return json.dumps({
        "correct": report["failed"] == 0 and not report["checks_failed"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in report["metrics"].items()},
    })


def smoke() -> int:
    """Every workload at tiny sizes, untraced and traced: every metric must
    be present and every answer right."""
    summary, problems = {}, []
    for name in workloads.NAMES:
        for traced, group in ((False, "end_to_end"), (True, "per_layer")):
            report = measure(name, seed=1, seconds=0, traced=traced, scale="smoke")
            missing = set(metric_units(group)) - set(report["metrics"])
            if missing:
                problems.append(f"{name} trace={int(traced)}: missing {sorted(missing)}")
            if report["error_rate"] != 0 or report["checks_failed"]:
                problems.append(f"{name} trace={int(traced)}: wrong answers")
            summary[f"{name}/trace{int(traced)}"] = {
                "metrics": report["metrics"], "error_rate": report["error_rate"],
            }
    for problem in problems:
        print(problem, file=sys.stderr)
    print(json.dumps({"smoke": not problems, "runs": summary}))
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="orthochron benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "orthochron" / "cli.py").is_file():
        print(f"error: no orthochron package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(report))
        print(f"spans written to {path.relative_to(ROOT)}")
    print_report(report, units)
    print(result_line(report, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
