"""One SHA-256 over the output of 3,621 command line runs, to show that
a change leaves every output byte as it was.

    python3 tests/output_digest.py | cmp - tests/data/output_digest.txt

The runs cover the 1,200 programs of the benchmark's corpus pool, the
case study, and the `interleave`, `wide` and `ring` models at seeds 1
and 2, each in text, DOT and JSON. Each run calls ``rosa_lts.cli.main``
in this process, with the model on stdin, and the hash takes its exit
code, stdout and stderr in that order. The package is imported from
the ``src`` directory next to this file, so the digest is that of this
source tree, whatever else is installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (perfbench/workloads.py, read only)
from rosa_lts.cli import main  # noqa: E402

FORMATS = ("text", "dot", "json")
SEEDS = (1, 2)


def programs() -> list[tuple[str, str]]:
    """``(name, source)`` of every model, in a fixed order."""
    pool = range(workloads.CORPUS_POOL)
    out = [(f"pool{i}", workloads.corpus_program(i)) for i in pool]
    case_study = ROOT / "tests" / "data" / "case_study.rosa"
    out.append(("case_study", case_study.read_text("utf-8")))
    for workload in (workloads.interleave, workloads.wide, workloads.ring):
        for seed in SEEDS:
            (model,) = workload(seed)
            out.append((f"{workload.__name__}{seed}", model.source))
    return out


def run(source: str, fmt: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI run on ``source``."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(source.encode("utf-8")))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["-", "--format", fmt])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def digest() -> tuple[str, int]:
    """The hex digest and the number of runs it covers."""
    h = hashlib.sha256()
    runs = 0
    for name, source in programs():
        for fmt in FORMATS:
            code, out, err = run(source, fmt)
            h.update(f"{name} {fmt} {code} {len(out)} {len(err)}\n".encode())
            h.update(out.encode("utf-8", "surrogateescape"))
            h.update(err.encode("utf-8", "surrogateescape"))
            runs += 1
    return h.hexdigest(), runs


if __name__ == "__main__":
    value, runs = digest()
    print(f"{runs} runs", file=sys.stderr)
    print(value)
