"""Timed `intervalmine mine` invocations in a fresh interpreter.

Usage: python3 worker.py SPEC.json RESULT.json

SPEC names the checkout's `src` directory, one argument list per instance,
the seconds to measure and whether to trace. The worker runs one untimed
warm-up invocation, then whole passes over the instances until another pass
would overrun the seconds, and writes every invocation's wall and CPU time,
exit code and report digest, its own peak resident memory and, for traced
invocations, the span summary to RESULT.json. The spans themselves go to
the file SPEC names.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def _invoke(main, argv: list[str], output: Path) -> dict:
    gc.collect()
    wall, cpu = time.perf_counter(), time.process_time()
    rc = main(argv)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    report = output.read_bytes() if rc == 0 else b""
    return {
        "rc": rc,
        "wall": wall,
        "cpu": cpu,
        "report_sha": hashlib.sha256(report).hexdigest(),
        "report_bytes": len(report),
    }


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    from intervalmine.cli import main as cli_main

    from tracing import Tracer, installed

    argvs = spec["argvs"]
    outputs = [Path(argv[argv.index("--output") + 1]) for argv in argvs]
    tracer = Tracer() if spec["trace"] else None
    traced_main = tracer.wrap("cli.main", cli_main) if tracer else None

    warmup = _invoke(cli_main, argvs[0], outputs[0])
    warmup.update(instance=0, timed=False, traced=False)
    iterations = [warmup]
    # when tracing, untraced and traced passes alternate, so that both see
    # the same machine load and their difference is the tracing overhead
    modes = (False, True) if tracer else (False,)
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for traced in modes:
            with installed(tracer) if traced else contextlib.nullcontext():
                for k, (argv, output) in enumerate(zip(argvs, outputs)):
                    if traced:
                        tracer.begin_run(len(iterations))
                    it = _invoke(traced_main if traced else cli_main, argv, output)
                    it.update(instance=k, timed=True, traced=traced)
                    if traced:
                        it["trace"] = tracer.summary()
                    iterations.append(it)
        now = time.perf_counter()
        if now - start + (now - round_start) > spec["seconds"]:
            break

    result = {
        "iterations": iterations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        tracer.write_spans(spec["spans"])
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
