"""One SHA-256 over the output of 3,629 command line runs, to show that
a change leaves every output byte as it was.

    python3 tests/output_digest.py | cmp - tests/data/output_digest.txt

The runs cover the 1,200 programs of the benchmark's corpus pool, the
case study, and the `interleave`, `wide` and `ring` models at seeds 1
and 2, each in text, DOT and JSON. The case study and
``truncated_prob.rosa`` under ``--max-states 2`` also run with
``--labels id`` and ``--labels expr`` in text and DOT, the two formats
that print node labels. Each run calls ``rosa_lts.cli.main``
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
from typing import Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (perfbench/workloads.py, read only)
from rosa_lts.cli import main  # noqa: E402

FORMATS = ("text", "dot", "json")
SEEDS = (1, 2)
LABEL_MODES = ("id", "expr")


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


def label_runs() -> list[tuple[str, str, tuple[str, ...]]]:
    """``(name, source, extra arguments)`` of the runs in the other node
    label modes."""
    data = ROOT / "tests" / "data"
    models = [
        ("case_study", (data / "case_study.rosa").read_text("utf-8"), ()),
        ("truncated_prob", (data / "truncated_prob.rosa").read_text("utf-8"),
         ("--max-states", "2")),
    ]
    return [
        (f"{name} labels={mode}", source, (*args, "--labels", mode))
        for name, source, args in models
        for mode in LABEL_MODES
    ]


def run(source: str, fmt: str, args: Sequence[str] = ()) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI run on ``source``."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(source.encode("utf-8")))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["-", "--format", fmt, *args])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def digest() -> tuple[str, int]:
    """The hex digest and the number of runs it covers."""
    h = hashlib.sha256()
    cases = [(name, source, fmt, ()) for name, source in programs()
             for fmt in FORMATS]
    cases += [(name, source, fmt, args) for name, source, args in label_runs()
              for fmt in ("text", "dot")]
    for name, source, fmt, args in cases:
        code, out, err = run(source, fmt, args)
        h.update(f"{name} {fmt} {code} {len(out)} {len(err)}\n".encode())
        h.update(out.encode("utf-8", "surrogateescape"))
        h.update(err.encode("utf-8", "surrogateescape"))
    return h.hexdigest(), len(cases)


if __name__ == "__main__":
    value, runs = digest()
    print(f"{runs} runs", file=sys.stderr)
    print(value)
