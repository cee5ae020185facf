"""The peak resident memory, in KB, of one pass of a benchmark workload
through the command line entry point, in a fresh process.

    python3 tests/peak_rss.py ring

The workload is built at seed 1 by ``perfbench/workloads.py`` (read
only), and each model is written to a temporary directory as
``tests/opcode_count.py`` writes it. A child interpreter then imports
``rosa_lts.cli`` from the ``src`` directory next to this file and runs
``main`` once on each model file, with its format, writing to a file,
as the benchmark worker does. The figure printed is the child's
``ru_maxrss``, read here through ``RUSAGE_CHILDREN``, so the models'
generation is not counted. The package's bytecode is compiled first,
so that no run pays for compiling it. Unlike an instruction count, the
figure moves by some tens of KB from run to run; compare figures taken
with the same interpreter only.
"""

from __future__ import annotations

import argparse
import compileall
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench")]

import workloads  # noqa: E402  (perfbench/workloads.py, read only)

SEED = 1

# Run by the child: argv[1] is the package's parent directory, then
# (model, format, output) for each run.
_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from rosa_lts.cli import main
runs = sys.argv[2:]
for k in range(0, len(runs), 3):
    main([runs[k], "--format", runs[k + 1], "--out", runs[k + 2]])
"""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    src = ROOT / "src"
    compileall.compile_dir(src, quiet=1)
    models = workloads.WORKLOADS[args.workload](SEED)
    with tempfile.TemporaryDirectory() as work:
        runs = []
        for k, model in enumerate(models):
            source = Path(work, f"{k}.rosa")
            source.write_text(model.source, encoding="utf-8")
            runs += [str(source), model.fmt, str(Path(work, f"{k}.{model.fmt}"))]
        subprocess.run([sys.executable, "-c", _CHILD, str(src), *runs], check=True)
    print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return 0


if __name__ == "__main__":
    sys.exit(main())
