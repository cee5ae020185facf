"""Benchmark for the rosa-lts command line tool (see README.md here).

    python3 perfbench/run.py --workload interleave --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is loaded from its
``src/``. One run generates the workload's model files from the seed,
times fresh interpreters running the CLI (``setup_s``), then runs the
models through ``rosa_lts.cli.main`` in one worker process, one model
at a time, in a closed loop until ``--seconds`` are used. A second
worker with another PYTHONHASHSEED repeats one pass; every output must
hash the same in both. Every output is parsed and checked by checker.py.
Times are reported at reference speed (speed.py).

With ``--trace 0`` the metrics are end to end: what a user of the CLI
waits for. With ``--trace 1`` untraced and traced passes alternate and
the metrics are per layer, from tracer.py's wrappers around the
functions each layer is called through. A human-readable table goes to
stderr; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from checker import check_output  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CASE_STUDY = HERE / "data" / "case_study.rosa"
SETUP_REPS = 15
# The same statement the `rosa-lts` console script runs.
CLI_SNIPPET = "import sys; from rosa_lts.cli import main; sys.exit(main())"
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import rosa_lts.cli; "
    "print(time.perf_counter() - t)"
)
CHILD_TIMEOUT_S = 150
MIN_PASSES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "states_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "canonical.compare_calls": "count",
    "canonical.compare_s": "s",
    "canonical.canonicalize_calls": "count",
    "canonical.canonicalize_self_s": "s",
    "process.key_calls": "count",
    "process.key_s": "s",
    "semantics.classify_s": "s",
    "semantics.nd_s": "s",
    "semantics.prob_s": "s",
    "semantics.action_s": "s",
    "semantics.successors": "count",
    "builder.self_s": "s",
    "builder.states": "count",
    "builder.us_per_state": "us",
    "builder.dedup_hit_ratio": "ratio",
    "parser.parse_s": "s",
    "parser.chars_per_s": "chars/s",
    "export.export_s": "s",
    "export.bytes_per_s": "B/s",
    "cli.self_s": "s",
    "cli.import_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env(src: Path, hash_seed: int | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def fresh_interpreter(args: list[str], env: dict[str, str], reps: int) -> list[tuple[float, float, str]]:
    """Wall time, the factor that scales it to reference speed, and
    stdout of ``reps`` fresh interpreters, after one untimed start that
    fills the bytecode cache."""
    runs = []
    before = speed.probe()
    for rep in range(reps + 1):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"{args[:2]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        after = speed.probe()
        if rep:
            runs.append((elapsed, speed.scaled(elapsed, before, after) / elapsed, proc.stdout))
        before = after
    return runs


def run_worker(work: Path, tag: str, job: dict, env: dict[str, str]) -> dict:
    job_path = work / f"{tag}.job.json"
    job["result"] = str(work / f"{tag}.result.json")
    job_path.write_text(json.dumps(job), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_path)],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(Path(job["result"]).read_text(encoding="utf-8"))


def count_failures(models, outs: list[str], passes: list[dict], again: dict) -> tuple[int, int]:
    """Model runs attempted and failed. The outputs the last pass left
    are checked; a run fails when it exited non-zero, when its model's
    output fails the check, or when its output hash differs from the
    last pass's or from the pass under another hash seed (``again``)."""
    final = passes[-1]["sha"]
    bad = []
    for k, (model, out) in enumerate(zip(models, outs)):
        try:
            text = Path(out).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            problems = [f"unreadable output: {exc}"]
        else:
            problems = check_output(text, model.fmt, model.expect)
        if again["rc"][k] != 0 or again["sha"][k] != final[k]:
            problems.append("output differs under another PYTHONHASHSEED")
        for problem in problems[:5]:
            print(f"check {model.name} ({model.fmt}): {problem}", file=sys.stderr)
        bad.append(bool(problems))
    failed = sum(
        bad[k] or p["rc"][k] != 0 or p["sha"][k] != final[k]
        for p in passes for k in range(len(models))
    )
    return len(passes) * len(models), failed


def median(values):
    values = list(values)
    return statistics.median(values) if values else None


def ratio(num, den):
    return None if num is None or not den else num / den


def layer_metrics(passes: list[dict], missing: list[str], states: int, models: int,
                  chars: int, out_bytes: int, import_s: float) -> dict:
    """Per-layer values of each traced pass, medians across passes.
    Span times are scaled to reference speed by their pass's factor."""
    untraced = [p["wall_scaled"] for p in passes if not p["traced"]]
    per_pass = []
    for p in passes:
        if not p["traced"]:
            continue
        factor = p["wall_scaled"] / p["wall"]
        totals: dict[str, list] = {}
        for key, (calls, total, self_s, items) in p["spans"].items():
            acc = totals.setdefault(key.split(">", 1)[1], [0, 0.0, 0.0, 0])
            for i, v in enumerate((calls, total * factor, self_s * factor, items)):
                acc[i] += v

        def span(name, field):
            if name in missing:
                return None
            return totals.get(name, [0, 0.0, 0.0, 0])[field]

        def total_of(*names):
            values = [span(n, 1) for n in names]
            return None if None in values else sum(values)

        successors = None
        if not any(n in missing for n in ("semantics.nd", "semantics.prob", "semantics.action")):
            successors = sum(span(n, 3) for n in ("semantics.nd", "semantics.prob", "semantics.action"))
        build_s = span("builder.build", 1)
        parse_s = span("parser.parse", 1)
        export_s = total_of("export.text", "export.dot", "export.json")
        per_pass.append({
            "canonical.compare_calls": span("canonical.compare", 0),
            "canonical.compare_s": span("canonical.compare", 1),
            "canonical.canonicalize_calls": span("canonical.canonicalize", 0),
            "canonical.canonicalize_self_s": span("canonical.canonicalize", 2),
            "process.key_calls": span("process.key", 0),
            "process.key_s": span("process.key", 1),
            "semantics.classify_s": span("semantics.classify", 1),
            "semantics.nd_s": span("semantics.nd", 1),
            "semantics.prob_s": span("semantics.prob", 1),
            "semantics.action_s": span("semantics.action", 1),
            "semantics.successors": successors,
            # Self time absorbs whatever the builder does outside the
            # wrapped calls, including layers whose targets are missing.
            "builder.self_s": span("builder.build", 2),
            "builder.states": states,
            "builder.us_per_state": None if build_s is None else build_s / states * 1e6,
            # Successors that hit an existing state; each model's root is
            # inserted without being a successor.
            "builder.dedup_hit_ratio": None if not successors else 1 - (states - models) / successors,
            "parser.parse_s": parse_s,
            "parser.chars_per_s": ratio(chars, parse_s),
            "export.export_s": export_s,
            "export.bytes_per_s": ratio(out_bytes, export_s),
            "cli.self_s": span("cli.main", 2),
            "wall": p["wall_scaled"],
        })
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        values = [v.get(name) for v in per_pass]
        if values[0] is None or None in values:
            metrics[name] = None
        elif unit == "count":
            # Counts repeat exactly from pass to pass; report one of them.
            metrics[name] = statistics.median_low(values)
        else:
            metrics[name] = statistics.median(values)
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_ratio"] = median(v["wall"] for v in per_pass) / median(untraced)
    return metrics


def _terminate(signum, frame):
    # Unwinds through subprocess.run, which kills and reaps the child.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "rosa_lts" / "cli.py").is_file():
        print(f"run.py: no rosa_lts package under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    # One processor for this process and every child: the speed probes
    # then measure the processor the timed work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = root / ".perfbench_work" / str(os.getpid())
    try:
        work.mkdir(parents=True)
        result = bench(args, src, work)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']!s:>24} {metric['unit']}", file=sys.stderr)
    print(f"{'failed_ratio':32s} {result['failed'] / result['attempted']:>24} "
          f"({result['failed']} of {result['attempted']} model runs)", file=sys.stderr)
    print(json.dumps(result))
    return 0


def bench(args: argparse.Namespace, src: Path, work: Path) -> dict:
    models = WORKLOADS[args.workload](args.seed)
    (work / "in").mkdir()
    ins = []
    for m in models:
        ins.append(work / "in" / m.name)
        ins[-1].write_text(m.source, encoding="utf-8")

    def job(out_dir: str, **settings) -> dict:
        (work / out_dir).mkdir()
        outs = [str(work / out_dir / f"{m.name}.{m.fmt}") for m in models]
        argvs = [[str(i), "--format", m.fmt, "--out", o] for i, m, o in zip(ins, models, outs)]
        return {"src": str(src), "argvs": argvs, "outs": outs, **settings}

    env = child_env(src)
    if args.trace:
        import_runs = fresh_interpreter(["-c", IMPORT_SNIPPET], env, SETUP_REPS)
    else:
        setup_runs = fresh_interpreter(["-c", CLI_SNIPPET, str(CASE_STUDY), "--check"], env, SETUP_REPS)
    hash_seed = args.seed % 2**31
    timed_job = job("out", seconds=args.seconds, trace=bool(args.trace),
                    min_passes=2 * MIN_PASSES if args.trace else MIN_PASSES)
    timed = run_worker(work, "timed", timed_job, child_env(src, hash_seed))
    again_job = job("out2", seconds=0, trace=False, min_passes=1)
    again = run_worker(work, "again", again_job, child_env(src, hash_seed + 1))

    passes = timed["passes"]
    outs = timed_job["outs"]
    attempted, failed = count_failures(models, outs, passes, again["passes"][0])
    states = sum(m.expect["nodes"] for m in models)
    untraced = [p for p in passes if not p["traced"]]
    if args.trace:
        values = layer_metrics(
            passes, timed["missing"], states, len(models),
            chars=sum(len(m.source) for m in models),
            out_bytes=sum(os.path.getsize(out) for out in outs),
            import_s=median(float(out) * factor for _, factor, out in import_runs),
        )
        units = PER_LAYER_UNITS
    else:
        wall_s = median(p["wall_scaled"] for p in untraced)
        latencies = [t for p in untraced for t in p["lat_scaled"]]
        values = {
            "setup_s": median(t * factor for t, factor, _ in setup_runs),
            "wall_s": wall_s,
            "states_per_s": states / wall_s,
            "latency_p50_ms": median(latencies) * 1e3,
            "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
            "peak_rss_mb": timed["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    print(f"{args.workload}: {len(models)} models x {len(passes)} passes "
          f"({len(untraced)} untraced) in {timed['measured_s']:.2f} s; pass walls (s): "
          + " ".join(f"{p['wall']:.3f}{'t' if p['traced'] else ''}" for p in passes)
          + "; at reference speed: " + " ".join(f"{p['wall_scaled']:.3f}" for p in passes),
          file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
