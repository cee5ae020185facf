"""Record the regression reference for the corpus workload.

Builds every program of the corpus pool with the library in this
checkout and writes its node, edge and per-kind counts to
perfbench/data/corpus_ref.json. The committed file was recorded at the
commit that introduced the benchmark; re-record only on purpose, since
the benchmark then accepts whatever the current code produces.

    python3 perfbench/record_corpus_ref.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from rosa_lts import build_lts, parse_program  # noqa: E402

from workloads import CORPUS_POOL, CORPUS_REF, KINDS, corpus_program  # noqa: E402

FIELDS = ("nodes", "edges") + KINDS


def main() -> None:
    rows = []
    for index in range(CORPUS_POOL):
        lts = build_lts(parse_program(corpus_program(index)))
        if lts.truncated:
            raise SystemExit(f"pool program {index} hit the state limit")
        row = {"nodes": len(lts.nodes), "edges": len(lts.edges)}
        row.update({kind: 0 for kind in KINDS})
        for node in lts.nodes:
            row[node.kind.value] += 1
        rows.append(json.dumps([row[f] for f in FIELDS]))
    text = '{"fields": %s,\n "counts": [\n%s\n]}\n' % (
        json.dumps(FIELDS), ",\n".join(rows)
    )
    CORPUS_REF.write_text(text, encoding="utf-8")
    print(f"wrote {len(rows)} entries to {CORPUS_REF}")


if __name__ == "__main__":
    main()
