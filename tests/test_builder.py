"""State-graph construction: dedup, classification, truncation, and the
table of shared nodes that lives for one build."""

import gc
import random

import pytest

import rosa_lts.builder

from rosa_lts import (
    INF,
    NIL,
    Action,
    BuildConfig,
    DefinitionEnv,
    ExtChoice,
    IntChoice,
    NodeKind,
    Par,
    Prefix,
    Prob,
    ProbChoice,
    UnboundVariable,
    Var,
    build_lts,
    classify,
    parse_program,
    pretty_print,
    stats,
    to_text,
)
from bisim import raw_key_lts
from gen import for_process, gen_process


def test_blocking_parallel_build():
    lts = build_lts(parse_program("<a,0.3>.0||{a,c}<b,inf>.0"))
    assert len(lts.nodes) == 2
    assert len(lts.edges) == 1
    assert lts.edges[0].label == Action("b", INF)
    assert lts.nodes[0].kind == NodeKind.ACTION_ENABLED
    assert lts.nodes[1].kind == NodeKind.DEADLOCK
    assert lts.root == 0 and not lts.truncated


def test_terminated_root():
    lts = build_lts(parse_program("0"))
    assert len(lts.nodes) == 1 and len(lts.edges) == 0
    assert lts.nodes[0].kind == NodeKind.SUCCESS


def test_probabilistic_split_with_shared_terminal():
    lts = build_lts(
        parse_program(
            "C = <g,0.5>.h.<i,0.6>\nL = <k,0.8>\nmain = C*{0.25}L\n"
        )
    )
    assert stats(lts) == {
        "node_count": 6,
        "edge_count": 6,
        "deadlock_count": 0,
        "success_count": 1,
        "truncated": False,
    }
    assert lts.nodes[0].kind == NodeKind.PROB_UNSTABLE
    prob_edges = [e for e in lts.edges if isinstance(e.label, Prob)]
    assert [(e.source, e.label.p) for e in prob_edges] == [(0, 0.25), (0, 0.75)]
    # both chains end in the same terminal state
    success = [n.id for n in lts.nodes if n.kind == NodeKind.SUCCESS]
    assert len(success) == 1


def test_guarded_recursion_closes_into_a_self_loop():
    lts = build_lts(parse_program("P = a.P"))
    assert len(lts.nodes) == 1
    assert len(lts.edges) == 1
    edge = lts.edges[0]
    assert edge.source == edge.target == 0
    assert not lts.truncated


def test_state_limit_truncates_without_raising():
    env = parse_program("P = a.(b.0||{}P)")
    lts = build_lts(env, BuildConfig(max_states=3))
    assert lts.truncated
    assert len(lts.nodes) == 3
    for e in lts.edges:
        assert e.source < 3 and e.target < 3
    full = build_lts(env, BuildConfig(max_states=3))
    assert full.truncated  # deterministic: same partial result
    assert full.nodes == lts.nodes and full.edges == lts.edges


def test_probabilistic_branches_to_one_state_merge():
    a0 = Prefix("a", INF, NIL)
    env = DefinitionEnv(bindings={"main": ProbChoice(0.5, a0, a0)})
    lts = build_lts(env)
    prob_edges = [e for e in lts.edges if isinstance(e.label, Prob)]
    assert len(prob_edges) == 1
    assert prob_edges[0].label.p == 1.0


def test_identical_interleavings_collapse_to_one_edge():
    a0 = Prefix("a", INF, NIL)
    env = DefinitionEnv(bindings={"main": Par(frozenset(), a0, a0)})
    lts = build_lts(env)
    # both operands produce the same (label, target); one edge remains
    assert len([e for e in lts.edges if e.source == 0]) == 1


def test_two_spellings_merge_into_one_state():
    env = parse_program("main = c.(a.0+b.0) - d.(b.0+a.0)")
    merged = build_lts(env)
    assert len(merged.nodes) == 5
    targets = [
        e.target
        for e in merged.edges
        if isinstance(e.label, Action) and e.label.name in {"c", "d"}
    ]
    assert len(set(targets)) == 1  # the shared spelling-merged state


def test_raw_keys_keep_step_artifacts_apart():
    # firing `a` leaves a terminated left factor whose spelling differs
    # from the plain continuation, so raw keys see an extra state
    env = parse_program("main = (a.0;c.0) + b.c.0")
    merged = build_lts(env)
    raw = raw_key_lts(env)
    assert len(merged.nodes) == 3 and len(merged.edges) == 3
    assert len(raw.nodes) == 4 and len(raw.edges) == 4
    assert {n.key for n in raw.nodes} == {"(a.0;c.0)+b.c.0", "0;c.0", "c.0", "0"}


def test_unbound_variable_surfaces():
    env = DefinitionEnv(bindings={"main": Var("GHOST")})
    with pytest.raises(UnboundVariable):
        build_lts(env)


def test_many_guarded_definitions_in_one_choice_build():
    # Unfolding 1,100 sibling variables in one canonicalize call is not
    # recursion: each operand is its own path.
    def choice(names):
        if len(names) == 1:
            return Var(names[0])
        mid = len(names) // 2
        return ExtChoice(choice(names[:mid]), choice(names[mid:]))

    names = [f"P{i}" for i in range(1100)]
    bindings = {name: Prefix(f"a{i}", 1.0, NIL) for i, name in enumerate(names)}
    bindings["main"] = choice(names)
    lts = build_lts(DefinitionEnv(bindings=bindings))
    assert len(lts.nodes) == 2
    assert len(lts.edges) == 1100


def test_long_alias_chain_builds():
    # P0 = P1, P1 = P2, ...: one unfolding path through 20,000 names.
    n = 20_000
    source = "".join(f"P{i} = P{i + 1}\n" for i in range(n - 1))
    lts = build_lts(parse_program(source + f"P{n - 1} = a.P0\n"))
    assert len(lts.nodes) == 1
    assert len(lts.edges) == 1


def test_build_config_rejects_nonpositive_limits():
    # nan disabled the limit (the build below never stopped), True and
    # 2.5 bent it, and "3" raised TypeError. The field is writable, so
    # build_lts checks the limit it reads as well.
    for limit in [0, -1, float("nan"), True, False, 2.5, 3.0, "3", None, float("inf")]:
        with pytest.raises(ValueError):
            BuildConfig(max_states=limit)
        config = BuildConfig(1)
        config.max_states = limit
        with pytest.raises(ValueError):
            build_lts(parse_program("X = a.(X ||{} b.0)"), config)


def test_random_builds_satisfy_graph_invariants():
    rng = random.Random(31)
    for _ in range(60):
        p = gen_process(rng, depth=3, dyadic=True)
        env = for_process(p)
        lts = build_lts(env, BuildConfig(max_states=2000))
        assert not lts.truncated
        ids = {n.id for n in lts.nodes}
        assert ids == set(range(len(lts.nodes)))
        outgoing = {}
        reached = set()
        for e in lts.edges:
            assert e.source in ids and e.target in ids
            outgoing.setdefault(e.source, []).append(e.label)
            reached.add(e.target)
        # every non-root node is reachable
        assert reached >= ids - {lts.root}
        for n in lts.nodes:
            assert classify(n.process, env) == n.kind
            if n.kind in (NodeKind.DEADLOCK, NodeKind.SUCCESS):
                assert n.id not in outgoing
            else:
                assert outgoing.get(n.id), n.key
            if n.kind == NodeKind.PROB_UNSTABLE:
                total = sum(lbl.p for lbl in outgoing[n.id])
                assert abs(total - 1.0) <= 1e-9
        # no two nodes share a key
        keys = [n.key for n in lts.nodes]
        assert len(keys) == len(set(keys))


def test_rebuilds_are_identical():
    env = parse_program(
        "C = <g,0.5>.h.<i,0.6>\nL = <k,0.8>\nmain = (C*{0.25}L)||{i}j.<i,0.7>\n"
    )
    one = build_lts(env)
    two = build_lts(env)
    assert one.nodes == two.nodes
    assert one.edges == two.edges


def test_truncated_builds_are_prefixes_of_the_full_build():
    rng = random.Random(47)
    for _ in range(200):
        env = for_process(gen_process(rng, depth=4, dyadic=False))
        full = build_lts(env)
        assert not full.truncated
        full_keys = [n.key for n in full.nodes]
        full_edges = set(full.edges)
        for k in (1, 2, 5, 17):
            cut = build_lts(env, BuildConfig(max_states=k))
            assert [n.key for n in cut.nodes] == full_keys[:k]
            # A truncated probabilistic fan-out may sum only part of the
            # mass of a merged edge, so only the other labels must match.
            for e in cut.edges:
                assert isinstance(e.label, Prob) or e in full_edges
            assert cut.truncated == (len(full.nodes) > k)


# Two components in the shape of the benchmark's `interleave` model: many
# states are reached along several paths, and every state is a node the
# build constructs, since the root variables unfold.
INTERLEAVE_2 = (
    "P1 = <a1,1>.(<b1,2>.P1 - <c1,0.5>.P1) *{0.5} <d1,1>.P1\n"
    "P2 = <a2,1>.(<b2,2>.P2 - <c2,0.5>.P2) *{0.5} <d2,1>.P2\n"
    "main = P1 ||{} P2\n"
)


def test_a_state_reached_twice_is_one_object(monkeypatch):
    seen = {}
    canonicalize = rosa_lts.builder.canonicalize

    def spy(p, env):
        q = canonicalize(p, env)
        seen.setdefault(pretty_print(q), []).append(q)
        return q

    monkeypatch.setattr(rosa_lts.builder, "canonicalize", spy)
    lts = build_lts(parse_program(INTERLEAVE_2))
    assert len(seen) == len(lts.nodes) == 33
    # Every dedup hit hands the builder the object its state already has.
    assert sum(len(found) for found in seen.values()) > 2 * len(seen)
    for found in seen.values():
        assert all(q is found[0] for q in found)


def test_a_build_keeps_no_node_once_it_returns():
    env = parse_program(INTERLEAVE_2)
    one = build_lts(env)
    assert env._terms is None
    gc.collect()
    # The states are referenced by their LtsNode records, by the states
    # that contain them and by this frame, but by no table.
    holders = gc.get_referrers(*[n.process for n in one.nodes])
    assert not [h for h in holders if isinstance(h, dict)]
    # So the next build constructs its own nodes.
    two = build_lts(env)
    assert [n.key for n in one.nodes] == [n.key for n in two.nodes]
    assert all(a.process is not b.process for a, b in zip(one.nodes, two.nodes))


def test_builds_in_one_process_print_the_same():
    def texts():
        rng = random.Random(59)
        terms = [gen_process(rng, depth=4, dyadic=False) for _ in range(150)]
        return [to_text(build_lts(for_process(p))) for p in terms]

    first = texts()
    gc.collect()
    assert texts() == first
