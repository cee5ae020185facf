"""Benchmark worker: runs model files through ``rosa_lts.cli.main`` in a
closed loop, one model at a time, in a process that has already
imported the package.

    python3 perfbench/worker.py JOB.json

The job (written by run.py) lists the CLI argument vectors of one pass
over the workload and how long to measure. Passes repeat until the time
is used; with tracing on, untraced and traced passes alternate, so
their ratio is the tracing overhead. Speed probes (speed.py) bracket
the work so that its time can be scaled to reference speed. The result
is written as JSON to the job's ``result`` path, away from anything the
CLI prints.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import speed
from tracer import Tracer

PROBE_EVERY_S = 0.25


def _sha256(path: str) -> str | None:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


def run_pass(main, argvs: list[list[str]], outs: list[str]) -> dict:
    """One pass over the models. Speed probes run before the first model
    and after every PROBE_EVERY_S of work; each model's time is also
    given at reference speed, scaled by the probes around its segment."""
    # Each CLI run in use starts from a fresh heap; collecting first
    # gives every pass the same starting state.
    gc.collect()
    latencies, scaled, codes = [], [], []
    clock = time.perf_counter
    before = speed.probe()
    segment_start, segment_s = 0, 0.0
    for k, argv in enumerate(argvs):
        t0 = clock()
        try:
            code = main(argv)
        except Exception as exc:  # a traceback is a failed run, not a crash of the loop
            print(f"worker: {argv[0]}: {exc!r}", file=sys.stderr)
            code = None
        latencies.append(clock() - t0)
        codes.append(code)
        segment_s += latencies[-1]
        if segment_s >= PROBE_EVERY_S or k == len(argvs) - 1:
            after = speed.probe()
            scaled.extend(speed.scaled(t, before, after) for t in latencies[segment_start:])
            before, segment_start, segment_s = after, k + 1, 0.0
    return {
        "wall": sum(latencies),
        "wall_scaled": sum(scaled),
        "lat": latencies,
        "lat_scaled": scaled,
        "rc": codes,
        "sha": [_sha256(o) for o in outs],
    }


def main() -> None:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    import rosa_lts.cli as cli

    src = Path(job["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"worker: imported {cli.__file__}, not the package under {src}")

    argvs, outs = job["argvs"], job["outs"]
    tracer = Tracer() if job["trace"] else None
    traced_main = tracer.wrap("cli.main", cli.main) if tracer else None

    passes = []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
            record = run_pass(traced_main, argvs, outs)
            tracer.uninstall()
            record["spans"] = tracer.take()
        else:
            record = run_pass(cli.main, argvs, outs)
        record["traced"] = traced
        passes.append(record)
        # Start another pass only if it is expected to end in time.
        elapsed = time.perf_counter() - begin
        if len(passes) >= job["min_passes"] and elapsed * (1 + 1 / len(passes)) > job["seconds"]:
            break

    result = {
        "passes": passes,
        "measured_s": time.perf_counter() - begin,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "missing": tracer.missing if tracer else [],
    }
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
