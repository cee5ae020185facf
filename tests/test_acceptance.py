"""Top-level acceptance checks for the whole pipeline.

Each test exercises one externally visible guarantee end to end:
parsing, state-graph construction, probabilistic bookkeeping,
canonicalization soundness, output determinism and termination
behaviour. Expected state counts were derived by hand-tracing the
operational rules on the inputs below before freezing them here.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from rosa_lts import (
    INF,
    NIL,
    Action,
    BuildConfig,
    DefinitionEnv,
    NodeKind,
    Par,
    Prefix,
    Prob,
    build_lts,
    canonical_key,
    parse_process_text,
    parse_program,
    pretty_print,
)
from rosa_lts.cli import main as cli_main
from bisim import bisimilar, raw_key_lts
from gen import for_process, gen_probabilistic_process, gen_process

DATA = Path(__file__).parent / "data"
CASE_STUDY = DATA / "case_study.rosa"
EMPTY_ENV = DefinitionEnv(bindings={})

SYNC_SOURCE = "<a,0.3>.0||{a,c}<b,inf>.0"
SYNC_TREE = Par(
    frozenset({"a", "c"}),
    Prefix("a", 0.3, NIL),
    Prefix("b", INF, NIL),
)


def test_01_parses_sync_parallel_into_the_exact_tree_under_1ms():
    assert parse_process_text(SYNC_SOURCE) == SYNC_TREE
    best = min(
        _timed(lambda: parse_process_text(SYNC_SOURCE)) for _ in range(50)
    )
    assert best < 1e-3, f"best parse took {best * 1e3:.3f}ms"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_02_blocked_synchronization_yields_two_states_one_edge():
    lts = build_lts(parse_program(SYNC_SOURCE))
    assert len(lts.nodes) == 2
    assert len(lts.edges) == 1
    edge = lts.edges[0]
    assert (edge.source, edge.target) == (0, 1)
    assert edge.label == Action("b", INF)
    assert lts.nodes[1].kind == NodeKind.DEADLOCK
    assert not lts.truncated


def test_03_case_study_graph_matches_the_hand_traced_counts():
    env = parse_program(CASE_STUDY.read_text(encoding="utf-8"))
    start = time.perf_counter()
    lts = build_lts(env, BuildConfig(max_states=100_000))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"build took {elapsed:.2f}s"
    assert not lts.truncated
    assert len(lts.nodes) == 22
    assert len(lts.edges) == 29
    kinds = [n.kind for n in lts.nodes]
    assert kinds.count(NodeKind.DEADLOCK) == 1
    assert kinds.count(NodeKind.SUCCESS) == 1
    prob_nodes = [n for n in lts.nodes if n.kind == NodeKind.PROB_UNSTABLE]
    assert len(prob_nodes) == 1
    split = sorted(
        e.label.p for e in lts.edges if e.source == prob_nodes[0].id
    )
    assert split == [0.25, 0.75]
    targets = {e.target for e in lts.edges if e.source == prob_nodes[0].id}
    assert len(targets) == 2


def test_04_probabilistic_fan_outs_always_sum_to_one():
    rng = random.Random(404)
    checked = 0
    for _ in range(1000):
        p = gen_probabilistic_process(rng, depth=3)
        lts = build_lts(
            for_process(p), BuildConfig(max_states=5000)
        )
        assert not lts.truncated
        sums = {}
        for e in lts.edges:
            if isinstance(e.label, Prob):
                sums[e.source] = sums.get(e.source, 0.0) + e.label.p
        for node in lts.nodes:
            if node.kind == NodeKind.PROB_UNSTABLE:
                assert abs(sums[node.id] - 1.0) <= 1e-9, node.key
                checked += 1
    assert checked >= 1000


def test_05_printing_then_parsing_reproduces_the_tree():
    rng = random.Random(505)
    for i in range(1000):
        p = gen_process(rng, depth=4, allow_var=(i % 2 == 0))
        text = pretty_print(p)
        assert parse_process_text(text) == p, text


def test_06_canonical_and_syntactic_dedup_build_bisimilar_graphs():
    rng = random.Random(606)
    for _ in range(200):
        p = gen_process(rng, depth=4, dyadic=True)
        env = for_process(p)
        config = BuildConfig(max_states=20_000)
        merged = build_lts(env, config)
        raw = raw_key_lts(env, config)
        assert not merged.truncated and not raw.truncated
        assert len(merged.nodes) <= len(raw.nodes)
        assert bisimilar(merged, raw), pretty_print(p)


def test_07_commuted_choice_operands_share_one_state():
    spelling_a = parse_process_text("a.0+b.0")
    spelling_b = parse_process_text("b.0+a.0")
    assert spelling_a != spelling_b  # syntactically distinct trees
    assert canonical_key(spelling_a, EMPTY_ENV) == canonical_key(spelling_b, EMPTY_ENV)

    env = parse_program("main = c.(a.0+b.0) - d.(b.0+a.0)")
    lts = build_lts(env)
    targets = {
        e.target
        for e in lts.edges
        if isinstance(e.label, Action) and e.label.name in {"c", "d"}
    }
    assert len(targets) == 1
    assert len(lts.nodes) == 5


def test_08_repeated_runs_are_byte_identical_across_hash_seeds():
    for fmt in ("text", "dot", "json"):
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "rosa_lts.cli",
                    str(CASE_STUDY),
                    "--format",
                    fmt,
                ],
                capture_output=True,
                env=env,
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], fmt


def test_09_guarded_self_recursion_folds_while_unguarded_fails(tmp_path, capsys):
    lts = build_lts(parse_program("P = a.P"))
    assert len(lts.nodes) == 1
    assert len(lts.edges) == 1
    assert lts.edges[0].source == lts.edges[0].target == 0
    assert not lts.truncated

    bad = tmp_path / "unguarded.rosa"
    bad.write_text("P = P\n", encoding="utf-8")
    assert cli_main([str(bad)]) == 3
    assert "error:" in capsys.readouterr().err


FINITE_INPUTS = (
    SYNC_SOURCE,
    "0",
    "a.0*{0.25}b.0",
    "main = c.(a.0+b.0) - d.(b.0+a.0)",
    "P = a.P",
    "C = <g,0.5>.h.<i,0.6>\nL = <k,0.8>\nmain = (C*{0.25}L)||{i}j.<i,0.7>\n",
)


def test_10_every_finite_input_terminates_without_truncation():
    sources = list(FINITE_INPUTS)
    sources.append(CASE_STUDY.read_text(encoding="utf-8"))
    for source in sources:
        lts = build_lts(parse_program(source))
        assert not lts.truncated, source
    rng = random.Random(1010)
    for _ in range(100):
        p = gen_process(rng, depth=3, dyadic=True)
        lts = build_lts(for_process(p))
        assert not lts.truncated, pretty_print(p)
