"""Tests of the benchmark's own generators, checker and tracer.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import rosa_lts.cli  # noqa: E402

import run  # noqa: E402
from checker import check_output  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    corpus,
    interleave,
    interleave_counts,
    ring,
    wide,
)


def cli_output(tmp_path: Path, source: str, fmt: str) -> str:
    model = tmp_path / "model.rosa"
    out = tmp_path / f"model.{fmt}"
    model.write_text(source, encoding="utf-8")
    assert rosa_lts.cli.main([str(model), "--format", fmt, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def test_same_seed_gives_same_corpus():
    first, again, other = corpus(7), corpus(7), corpus(8)
    assert first == again
    assert len(first) == 300 and len({m.source for m in first}) == 300
    assert [m.source for m in first] != [m.source for m in other]
    assert {m.fmt for m in first} == {"text", "dot", "json"}


@pytest.mark.parametrize("generate", [interleave, wide, ring])
def test_single_model_workloads_depend_only_on_seed(generate):
    assert generate(3) == generate(3)
    assert generate(3)[0].source != generate(4)[0].source


@pytest.mark.parametrize(("n", "nodes", "edges"), [(2, 33, 68), (3, 161, 392)])
@pytest.mark.parametrize("fmt", ["text", "dot", "json"])
def test_interleave_closed_form(tmp_path, n, nodes, edges, fmt):
    expect = interleave_counts(n)
    assert (expect["nodes"], expect["edges"]) == (nodes, edges)
    [model] = interleave(seed=5, n=n)
    assert check_output(cli_output(tmp_path, model.source, fmt), fmt, expect) == []


def test_small_wide_and_ring_match_their_counts(tmp_path):
    [w] = wide(seed=1, n=6)
    [r] = ring(seed=1, k=50)
    assert check_output(cli_output(tmp_path, w.source, "text"), "text", w.expect) == []
    assert check_output(cli_output(tmp_path, r.source, "dot"), "dot", r.expect) == []


def test_corpus_outputs_match_the_recorded_reference(tmp_path):
    for model in corpus(0)[:30]:
        out = cli_output(tmp_path, model.source, model.fmt)
        assert check_output(out, model.fmt, model.expect) == [], model.source


def _interleave_json(tmp_path) -> dict:
    [model] = interleave(seed=1, n=2)
    return json.loads(cli_output(tmp_path, model.source, "json"))


def test_dropped_json_edge_is_rejected(tmp_path):
    doc = _interleave_json(tmp_path)
    doc["edges"].pop()
    problems = check_output(json.dumps(doc), "json", interleave_counts(2))
    assert "edges: expected 68, got 67" in problems


def test_broken_probability_mass_is_rejected(tmp_path):
    doc = _interleave_json(tmp_path)
    edge = next(e for e in doc["edges"] if e["label"]["type"] == "prob")
    edge["label"]["p"] /= 2
    problems = check_output(json.dumps(doc), "json", interleave_counts(2))
    assert any("sum to" in p for p in problems)


def test_unreachable_node_and_terminal_out_edge_are_rejected():
    doc = {
        "root": 0, "truncated": False,
        "nodes": [{"id": 0, "kind": "deadlock", "expr": "0"},
                  {"id": 1, "kind": "success", "expr": "0"}],
        "edges": [{"src": 0, "dst": 0, "label": {"type": "action", "name": "a", "rate": 1.0}}],
    }
    problems = check_output(json.dumps(doc), "json", {})
    assert "deadlock node 0 has out-edges" in problems
    assert "1 nodes unreachable from the root" in problems


def test_corrupted_output_counts_as_failed_runs(tmp_path):
    [model] = interleave(seed=1, n=2)
    out = tmp_path / "out.json"
    doc = _interleave_json(tmp_path)
    doc["edges"].pop()
    out.write_text(json.dumps(doc), encoding="utf-8")
    passes = [{"rc": [0], "sha": ["x"]}, {"rc": [0], "sha": ["x"]}]
    again = {"rc": [0], "sha": ["x"]}
    assert run.count_failures([model], [str(out)], passes, again) == (2, 2)


def test_differing_hashes_count_as_failed_runs(tmp_path):
    [model] = interleave(seed=1, n=2)
    out = tmp_path / "out.json"
    out.write_text(json.dumps(_interleave_json(tmp_path)), encoding="utf-8")
    passes = [{"rc": [0], "sha": ["x"]}, {"rc": [0], "sha": ["x"]}]
    assert run.count_failures([model], [str(out)], passes, {"rc": [0], "sha": ["x"]}) == (2, 0)
    assert run.count_failures([model], [str(out)], passes, {"rc": [0], "sha": ["y"]}) == (2, 2)
    passes[0]["sha"] = ["z"]
    assert run.count_failures([model], [str(out)], passes, {"rc": [0], "sha": ["x"]}) == (2, 1)


def test_missing_output_counts_as_failed_run(tmp_path):
    [model] = interleave(seed=1, n=2)
    passes = [{"rc": [2], "sha": [None]}]
    again = {"rc": [2], "sha": [None]}
    assert run.count_failures([model], [str(tmp_path / "none.json")], passes, again) == (1, 1)


def test_tracer_counts_calls_and_restores_functions(tmp_path):
    [model] = interleave(seed=1, n=2)
    tracer = Tracer()
    original = rosa_lts.cli.build_lts
    tracer.install()
    try:
        cli_output(tmp_path, model.source, "json")
    finally:
        tracer.uninstall()
    assert rosa_lts.cli.build_lts is original
    assert tracer.missing == []
    spans = tracer.take()
    successors = sum(spans[f"builder.build>semantics.{k}"][3] for k in ("nd", "prob", "action"))
    assert successors == 68
    # One canonicalization per successor and one for the root.
    assert spans["builder.build>canonical.canonicalize"][0] == 69
    calls, total, self_s, _ = spans[">builder.build"]
    assert 0 < self_s < total


def test_missing_trace_target_reads_null(tmp_path):
    [model] = interleave(seed=1, n=2)
    # As if classify had been merged into another function.
    targets = tuple(t for t in TARGETS if t[1] != "classify")
    tracer = Tracer(targets + (("rosa_lts.builder", "gone", "semantics.classify", False),))
    traced_main = tracer.wrap("cli.main", rosa_lts.cli.main)
    source, out = tmp_path / "m.rosa", tmp_path / "m.json"
    source.write_text(model.source, encoding="utf-8")
    tracer.install()
    try:
        assert traced_main([str(source), "--format", "json", "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    assert tracer.missing == ["semantics.classify"]
    passes = [
        {"traced": False, "wall": 1.0, "wall_scaled": 1.0},
        {"traced": True, "wall": 1.1, "wall_scaled": 1.1, "spans": tracer.take()},
    ]
    metrics = run.layer_metrics(passes, tracer.missing, states=33, models=1,
                                chars=len(model.source), out_bytes=1000, import_s=0.05)
    assert metrics["semantics.classify_s"] is None
    assert metrics["builder.self_s"] > 0
    assert metrics["canonical.canonicalize_calls"] == 69
    assert metrics["trace.overhead_ratio"] == pytest.approx(1.1)


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
