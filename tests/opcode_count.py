"""The number of bytecode instructions one pass of a benchmark workload
executes through the command line entry point, a count that no machine
noise moves.

    python3 tests/opcode_count.py interleave

The workload is built at seed 1 by ``perfbench/workloads.py`` (read
only), and each model is written to a temporary directory and run as
the benchmark worker runs it: ``rosa_lts.cli.main`` on the model file,
with its format, writing to a file. One untraced pass runs first, so
that imports, compiled patterns and other one-time work are not
counted; the second pass is counted, and every event counts. Python
3.12 and later count with ``sys.monitoring`` INSTRUCTION events, and
earlier versions with ``sys.settrace`` opcode events; stderr names the
method. The two differ, and so does the count from one Python version
to the next, so compare only counts taken with the same interpreter. A
count of 0 means the counter saw nothing, and exits 1. The package is
imported from the ``src`` directory next to this file.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (perfbench/workloads.py, read only)
from rosa_lts.cli import main as cli_main  # noqa: E402

SEED = 1


def count(argvs: list[list[str]]) -> tuple[str, int]:
    """The counting method, and the instructions ``cli_main`` executes
    over ``argvs``, one run each."""
    executed = 0
    if hasattr(sys, "monitoring"):
        monitoring = sys.monitoring
        tool, instruction = monitoring.PROFILER_ID, monitoring.events.INSTRUCTION

        def on_instruction(code, offset):
            nonlocal executed
            executed += 1

        monitoring.use_tool_id(tool, "opcode_count")
        monitoring.register_callback(tool, instruction, on_instruction)
        monitoring.set_events(tool, instruction)
        try:
            for argv in argvs:
                cli_main(argv)
        finally:
            monitoring.set_events(tool, monitoring.events.NO_EVENTS)
            monitoring.register_callback(tool, instruction, None)
            monitoring.free_tool_id(tool)
        return "sys.monitoring", executed

    def trace(frame, event, arg):
        nonlocal executed
        if event == "call":
            frame.f_trace_opcodes = True
        elif event == "opcode":
            executed += 1
        return trace

    sys.settrace(trace)
    try:
        for argv in argvs:
            cli_main(argv)
    finally:
        sys.settrace(None)
    return "sys.settrace", executed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    models = workloads.WORKLOADS[args.workload](SEED)
    with tempfile.TemporaryDirectory() as work:
        argvs = []
        for k, model in enumerate(models):
            source = Path(work, f"{k}.rosa")
            source.write_text(model.source, encoding="utf-8")
            argvs.append([str(source), "--format", model.fmt,
                          "--out", str(Path(work, f"{k}.{model.fmt}"))])
        for argv in argvs:
            cli_main(argv)
        method, executed = count(argvs)
    print(f"counted with {method}", file=sys.stderr)
    print(executed)
    if not executed:
        print("error: the counter saw no instruction", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
