#!/usr/bin/env python3
"""The intervalmine benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload grow-k4 --seed 0 --seconds 30 --trace 0

The run generates the workload's instances from the seed, mines them with
`intervalmine mine` (default `pdc` strategy, one thread) in a fresh worker
process, checks every report, and prints the metrics. `--trace 0` gives the
end-to-end metrics, with no tracer installed; `--trace 1` gives the
per-layer metrics, from a worker whose traced passes alternate with
untraced ones. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. `--tiny` shrinks every
instance for the smoke test. See perfbench/README.md for the metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_LAUNCHES = 7
WORKER_TIMEOUT_S = 150

# Runs `intervalmine mine` the way the console script does.
CLI_LAUNCH = "import sys; from intervalmine.cli import main; sys.exit(main(sys.argv[1:]))"


class Gate:
    """Failed operations against attempted ones, plus whole-run checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def operation(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def pattern_digest(report: dict) -> str:
    """Hash of the pattern set with umax rounded to 9 significant digits."""
    rows = sorted(
        (json.dumps(entry["pattern"]), float(f"{entry['umax']:.9g}"))
        for entry in report["patterns"]
    )
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def run_worker(spec: dict) -> dict:
    spec_path = WORK / "worker.spec.json"
    result_path = WORK / "worker.result.json"
    spec_path.write_text(json.dumps(spec))
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
        check=True,
        timeout=WORKER_TIMEOUT_S,
    )
    return json.loads(result_path.read_text())


def mine_argv(data: Path, utilities: Path, extra, output: Path) -> list[str]:
    return [
        "mine", "--data", str(data), "--utilities", str(utilities), *extra,
        "--threads", "1", "--output", str(output),
    ]


def gate_iterations(gate: Gate, result: dict) -> None:
    """An invocation fails unless it exits 0 and repeats its instance's first report."""
    first_sha: dict[int, str] = {}
    for it in result["iterations"]:
        k = it["instance"]
        first_sha.setdefault(k, it["report_sha"])
        gate.operation(
            it["rc"] == 0 and it["report_sha"] == first_sha[k],
            f"instance {k}: exit code {it['rc']}, report digest {it['report_sha'][:12]}",
        )


def check_outputs(gate: Gate, workload, argvs, seed: int, tiny: bool) -> None:
    """Golden hash, strategy agreement and oracle spot checks."""
    from intervalmine import cli, oracle
    from intervalmine.io import parse_dataset, parse_utilities
    from intervalmine.model import LSequence
    from intervalmine.transform import transform_dataset

    reports = [json.loads(Path(argv[-1]).read_text()) for argv in argvs]
    digests = [pattern_digest(r) for r in reports]
    for k, r in enumerate(reports):
        gate.check(bool(r["patterns"]), f"instance {k}: no patterns mined")
    run_digest = hashlib.sha256("\n".join(digests).encode()).hexdigest()
    print(f"output: {run_digest}")
    golden = json.loads((HERE / "golden.json").read_text())
    if seed == golden["seed"] and not tiny:
        gate.check(
            golden[workload.name] == run_digest,
            f"pattern digest {run_digest} differs from the golden {golden[workload.name]}",
        )

    # the looser bound must find the same patterns
    ldc_out = WORK / "ldc.json"
    argv = list(argvs[0])
    argv[-1] = str(ldc_out)
    rc = cli.main(argv + ["--strategy", "ldc"])
    gate.check(
        rc == 0 and pattern_digest(json.loads(ldc_out.read_text())) == digests[0],
        "ldc and pdc disagree on instance 0",
    )

    data = argv[argv.index("--data") + 1]
    utilities = argv[argv.index("--utilities") + 1]
    cdata = transform_dataset(parse_dataset(data), parse_utilities(utilities))
    patterns = reports[0]["patterns"]
    picks = {0, len(patterns) // 2, len(patterns) - 1} if patterns else set()
    for i in sorted(picks):
        entry = patterns[i]
        umax, occurs = oracle.pattern_max_utility(LSequence.of(*entry["pattern"]), cdata)
        gate.check(
            occurs and abs(umax - entry["umax"]) <= 1e-9 * max(1.0, abs(umax)),
            f"oracle umax {umax} != reported {entry['umax']} for {entry['pattern']}",
        )


def measure_setup(gate: Gate, launches: int) -> list[float]:
    """Seconds from a fresh interpreter to the running example's report."""
    from intervalmine import cli

    from workloads import EXAMPLE_ARGS, write_example

    data, utilities = WORK / "example.tsv", WORK / "example.utilities.tsv"
    write_example(data, utilities)
    expected_out, out = WORK / "example.expected.json", WORK / "example.json"
    gate.check(
        cli.main(mine_argv(data, utilities, EXAMPLE_ARGS, expected_out)) == 0,
        "running example failed in process",
    )
    expected = expected_out.read_bytes()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", CLI_LAUNCH, *mine_argv(data, utilities, EXAMPLE_ARGS, out)]
    times = []
    for i in range(launches + 1):  # the first launch only warms the file cache
        out.unlink(missing_ok=True)
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, timeout=60)
        elapsed = time.perf_counter() - start
        if i:
            times.append(elapsed)
            ok = proc.returncode == 0 and out.is_file() and out.read_bytes() == expected
            gate.operation(ok, f"set-up launch {i}: exit code {proc.returncode}")
    return times


def end_to_end_metrics(result: dict, setup: list[float]) -> dict:
    timed = [it for it in result["iterations"] if it["timed"]]
    return {
        "wall_s": (statistics.median(it["wall"] for it in timed), "s"),
        "cpu_s": (statistics.median(it["cpu"] for it in timed), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(gate: Gate, result: dict, instances: int) -> dict:
    """Per-invocation means over the traced passes.

    Times are means, not medians, so that the layers' self times add up to
    trace.wall_s. Counters come from the first pass; every later pass must
    repeat them exactly.
    """
    runs = [it for it in result["iterations"] if it["traced"]]
    untraced = [it for it in result["iterations"] if it["timed"] and not it["traced"]]
    first_pass = runs[:instances]
    for it in runs[instances:]:
        k = it["instance"]
        gate.check(
            it["trace"]["counts"] == first_pass[k]["trace"]["counts"],
            f"instance {k}: traced counters changed between passes",
        )

    def seconds(*names: str) -> float:
        return statistics.fmean(
            sum(it["trace"]["inclusive"].get(n, 0.0) for n in names) for it in runs
        )

    def count(name: str) -> float:
        return statistics.fmean(it["trace"]["counts"].get(name, 0) for it in first_pass)

    wall = statistics.fmean(it["wall"] for it in runs)
    untraced_wall = statistics.fmean(it["wall"] for it in untraced)
    self_time = {
        layer: statistics.fmean(it["trace"]["self"][layer] for it in runs)
        for layer in runs[0]["trace"]["self"]
    }
    m = {
        "io.parse_s": (seconds("io.parse"), "s"),
        "io.intervals": (count("io.intervals"), "count"),
        "io.input_bytes": (count("io.input_bytes"), "B"),
        "transform.s": (seconds("transform"), "s"),
        "transform.windows": (count("transform.windows"), "count"),
        "transform.windows_per_interval": (
            _ratio(count("transform.windows"), count("io.intervals")), "ratio"),
        "encoding.encode_s": (seconds("encoding.encode"), "s"),
        "encoding.encode_calls": (count("encoding.encode_calls"), "count"),
        "encoding.array_mb": (count("encoding.array_bytes") / 1e6, "MB"),
        "encoding.fill_ratio": (
            _ratio(count("encoding.real_cells"), count("encoding.padded_cells")), "ratio"),
        "encoding.wu_calls": (count("encoding.wu_calls"), "count"),
        "encoding.wu_s": (seconds("encoding.wu"), "s"),
        "utility.dataset_utility_s": (seconds("utility.dataset_utility"), "s"),
        "utility.dataset_utility_calls": (count("utility.dataset_utility_calls"), "count"),
    }
    for phase in ("vocab", "grow"):
        rows = count(f"kernels.rows_scanned.{phase}")
        m.update({
            f"kernels.extend_calls.{phase}": (count(f"kernels.extend_calls.{phase}"), "count"),
            f"kernels.extend_s.{phase}": (seconds(f"kernels.extend.{phase}"), "s"),
            f"kernels.rows_scanned.{phase}": (rows, "count"),
            f"kernels.cells_scanned.{phase}": (count(f"kernels.cells_scanned.{phase}"), "count"),
            f"kernels.bytes_computed.{phase}": (count(f"kernels.bytes_computed.{phase}"), "B"),
            f"kernels.matched_row_ratio.{phase}": (
                _ratio(count(f"kernels.matched_rows.{phase}"), rows), "ratio"),
        })
    m.update({
        "miner.vocab_s": (seconds("miner.vocab"), "s"),
        "miner.vocab_candidates": (count("miner.vocab_candidates"), "count"),
        "miner.vocab_size": (count("miner.vocab_size"), "count"),
        "miner.grow_s": (seconds("miner.grow"), "s"),
        "miner.candidates_generated": (count("miner.candidates_generated"), "count"),
        "miner.candidates_pruned": (count("miner.candidates_pruned"), "count"),
        "miner.patterns": (count("miner.patterns"), "count"),
        "miner.yield_ratio": (
            _ratio(count("miner.patterns"), count("miner.candidates_generated")), "ratio"),
        "cli.report_s": (
            seconds("cli.main") - seconds("io.parse", "io.fill", "transform", "miner.mine"), "s"),
        "cli.report_bytes": (statistics.fmean(it["report_bytes"] for it in first_pass), "B"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (wall - untraced_wall, "s"),
        "trace.unaccounted_s": (wall - sum(self_time.values()), "s"),
    })
    for layer, value in self_time.items():
        m[f"self.{layer}_s"] = (value, "s")
    return m


def environment() -> dict:
    from intervalmine.kernels import active_backend
    import numpy

    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": active_backend(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small instances, for the smoke test")
    args = ap.parse_args(argv)

    if not (SRC / "intervalmine" / "__init__.py").is_file():
        print(f"perfbench: no intervalmine sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    paths = workload.generate(args.seed, args.tiny, WORK)
    argvs = [
        mine_argv(data, utilities, workload.mine_args, WORK / f"{data.stem}.report.json")
        for data, utilities in paths
    ]

    gate = Gate()
    spec = {"src": str(SRC), "argvs": argvs, "seconds": args.seconds, "trace": bool(args.trace)}
    if args.trace:
        spec["spans"] = str(WORK / "spans.tsv")
    result = run_worker(spec)
    gate_iterations(gate, result)
    check_outputs(gate, workload, argvs, args.seed, args.tiny)
    if args.trace:
        metrics = per_layer_metrics(gate, result, workload.instances)
    else:
        setup = measure_setup(gate, 2 if args.tiny else SETUP_LAUNCHES)
        metrics = end_to_end_metrics(result, setup)

    print("env: " + json.dumps(environment()))
    for problem in gate.problems:
        print(f"FAIL: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:16.6f} {unit}")
    correct = not gate.problems
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
