"""State-graph construction: dedup, classification, truncation, and the
record of shared state that lives for one build."""

import gc
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import rosa_lts.builder
import rosa_lts.semantics

from rosa_lts import (
    INF,
    NIL,
    Action,
    BuildConfig,
    DefinitionEnv,
    ExtChoice,
    IntChoice,
    NdBranch,
    Nil,
    NodeKind,
    Par,
    Prefix,
    Prob,
    ProbChoice,
    Process,
    Seq,
    UnboundVariable,
    UnguardedRecursion,
    Var,
    build_lts,
    classify,
    parse_program,
    pretty_print,
    stats,
    to_text,
)
from rosa_lts.canonical import ND, PROB, STABLE, _Build, check

from bisim import raw_key_lts
from gen import for_process, gen_process, gen_program


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


def test_growing_states_stop_at_the_text_budget(monkeypatch):
    # Each step adds a level to the state, built without a walk of the
    # levels below, so only the budget on the stored states' printed
    # size stops the chain before max_states.
    monkeypatch.setattr(rosa_lts.builder, "STATE_TEXT_BUDGET", 100_000)
    lts = build_lts(parse_program("X = <c,0.5>.(X;0)"))
    assert lts.truncated and len(lts.nodes) < 1000
    sizes = [len(n.key) for n in lts.nodes]
    assert sum(sizes[:-1]) <= 100_000 < sum(sizes)
    # The root is stored whatever its size.
    monkeypatch.setattr(rosa_lts.builder, "STATE_TEXT_BUDGET", 0)
    lts = build_lts(parse_program("X = <c,0.5>.(X;0)"))
    assert lts.truncated and [n.key for n in lts.nodes] == ["<c,0.5>.(X;0)"]


def test_states_nested_deeper_than_the_recursion_limit_build():
    # Each state is the last one under one more ';', 1,500 deep at the
    # end; every walk meets the level below it from its memo.
    lts = build_lts(parse_program("X = <c,0.5>.(X;0)"), BuildConfig(max_states=1500))
    assert lts.truncated and len(lts.nodes) == 1500
    assert sys.getrecursionlimit() < 1500


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


# The names perfbench's tracer replaces in `rosa_lts.builder` to time
# each layer of a build (perfbench/tracer.py).
TRACED = ("canonicalize", "pretty_print", "classify",
          "nd_successors", "prob_successors", "action_successors")


def test_the_loop_calls_each_traced_layer_through_the_module(monkeypatch):
    # A loop that called a layer through a private name, or merged two
    # layers into one step, would leave that layer's benchmark metrics
    # null. Two interleaved components have nd, prob and action states.
    calls = Counter()

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    for name in TRACED:
        function = getattr(rosa_lts.builder, name)
        monkeypatch.setattr(rosa_lts.builder, name, counted(name, function))
    lts = build_lts(parse_program(INTERLEAVE_2))
    assert {n.kind for n in lts.nodes} >= {
        NodeKind.ND_UNSTABLE, NodeKind.PROB_UNSTABLE, NodeKind.ACTION_ENABLED}
    assert all(calls[name] > 0 for name in TRACED), calls


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


def test_the_rules_hand_the_builder_canonical_states(monkeypatch):
    # The walks build each successor canonical, so the builder's
    # canonicalize finds every state it admits marked already.
    handed = []
    canonicalize = rosa_lts.builder.canonicalize

    def spy(p, env):
        handed.append(p._canonical)
        return canonicalize(p, env)

    monkeypatch.setattr(rosa_lts.builder, "canonicalize", spy)
    rng = random.Random(61)
    envs = [parse_program(INTERLEAVE_2)]
    envs += [for_process(gen_process(rng, depth=4, dyadic=False)) for _ in range(100)]
    for env in envs:
        build_lts(env)
    assert len(handed) > 1000
    assert all(handed)


def test_a_node_built_under_a_guard_is_marked_where_it_is_built():
    # The check reorders c.0+b.0 under the prefix. The table's node is
    # marked there, so when the same operands come back after `a`, the
    # node found for them is the answer as it is.
    build = _Build(parse_program("main = a.(c.0 + b.0)"))
    root = check(build)
    entry = root.continuation
    assert pretty_print(entry) == "b.0+c.0"
    assert any(node is entry for node in build.nodes.values())
    assert entry._canonical == STABLE
    lts = build_lts(parse_program("main = a.(c.0 + b.0)"))
    assert [n.key for n in lts.nodes] == ["a.(b.0+c.0)", "b.0+c.0", "0"]
    assert all(n.process._canonical for n in lts.nodes)


def mark_from_operands(node: Process) -> object:
    """The mark of a table node, computed afresh from its operands'."""
    kind = type(node)
    if kind is Prefix:
        return STABLE
    if kind is Seq:
        return node.left._canonical
    left, right = node.left._canonical, node.right._canonical
    if not (left and right):
        return False
    if kind is IntChoice:
        return ND
    return max(left, right, PROB if kind is ProbChoice else STABLE)


def test_every_table_entry_holds_the_operands_its_key_names():
    # A key holds operand ids, which stay unique only while the entry's
    # node holds those operands: both of a binary node, in either order,
    # and the continuation of a prefix. An entry is the answer for its
    # key as it is, so its mark is the one its operands give.
    envs = [parse_program((Path(__file__).parent / "data" / "case_study.rosa").read_text())]
    rng = random.Random(71)
    envs += [parse_program(gen_program(rng)) for _ in range(50)]
    entries = 0
    for env in envs:
        build = _Build(env)
        rosa_lts.builder._explore(build, check(build), 500)
        for key, node in build.nodes.items():
            assert type(node) is key[0]
            if key[0] is Prefix:
                assert id(node.continuation) == key[3]
            else:
                assert sorted([id(node.left), id(node.right)]) == sorted(key[2:])
            assert node._canonical == mark_from_operands(node), pretty_print(node)
        entries += len(build.nodes)
    assert entries > 1000


# Three components: 4**3 + 2*3*4**2 + 1 = 161 states, and one unfold of
# a component variable for nearly every successor.
INTERLEAVE_3 = "".join(
    f"P{i} = <a{i},1>.(<b{i},2>.P{i} - <c{i},0.5>.P{i}) *{{0.5}} <d{i},1>.P{i}\n"
    for i in (1, 2, 3)
) + "main = P1 ||{} P2 ||{} P3\n"


def count_lookups(monkeypatch) -> Counter:
    calls = Counter()
    lookup = DefinitionEnv.lookup

    def spy(env, name):
        calls[name] += 1
        return lookup(env, name)

    monkeypatch.setattr(DefinitionEnv, "lookup", spy)
    return calls


def test_a_build_unfolds_each_definition_once(monkeypatch):
    calls = count_lookups(monkeypatch)
    lts = build_lts(parse_program(INTERLEAVE_3))
    assert len(lts.nodes) == 161
    # Each body is read once to rewrite it and once to walk it, the
    # root's once. Reading it at every unfold makes 148 calls here.
    assert set(calls) == {"P1", "P2", "P3", "main"}
    assert max(calls.values()) <= 2


def test_check_reads_each_definition_at_most_twice(monkeypatch):
    # The root is canonicalized on the walk's own table, so its
    # definitions are rewritten once; a second table made 3 reads each.
    calls = count_lookups(monkeypatch)
    check(parse_program(INTERLEAVE_3))
    assert set(calls) == {"P1", "P2", "P3", "main"}
    assert max(calls.values()) <= 2


# Each walk, and the kind of the states its entry point is called on:
# `classify` walks a stable state's offers.
WALKS = {
    "_offers": NodeKind.ACTION_ENABLED,
    "_nd": NodeKind.ND_UNSTABLE,
    "_presolve": NodeKind.PROB_UNSTABLE,
    "_act": NodeKind.ACTION_ENABLED,
}


def test_a_build_walks_below_each_shared_node_at_most_twice(monkeypatch):
    # The spies replace the module's globals, so the walks' recursive
    # calls are counted too.
    args = {}
    for name in WALKS:
        def spy(p, *rest, walk=getattr(rosa_lts.semantics, name),
                seen=args.setdefault(name, [])):
            seen.append(p)
            return walk(p, *rest)

        monkeypatch.setattr(rosa_lts.semantics, name, spy)
    lts = build_lts(parse_program(INTERLEAVE_3))
    assert len(lts.nodes) == 161
    kinds = Counter(n.kind for n in lts.nodes)
    for name, kind in WALKS.items():
        calls = len(args[name])
        states = len(lts.nodes) if kind is None else kinds[kind]
        met = Counter(id(p) for p in args[name]
                      if type(p) not in (Prefix, Nil, IntChoice))
        # A node walks its operands the first and the second time it is
        # met, and answers from the build's memo after that. Without the
        # memo, some nodes of this model are met 17 times.
        walked = sum(min(n, 2) for n in met.values())
        assert max(met.values()) > 2, name
        assert calls <= states + 2 * walked, (name, calls, walked)


def _live_nodes() -> int:
    gc.collect()
    return sum(1 for o in gc.get_objects() if isinstance(o, Process))


def test_a_build_keeps_no_node_once_it_returns():
    # Once its result is dropped, every node the build made is freed:
    # no table, and no memo of successor lists, outlives the build. The
    # three components share subterms that the walks meet many times.
    env = parse_program(INTERLEAVE_3)
    before = _live_nodes()
    held = build_lts(env)
    assert _live_nodes() > before
    del held
    assert _live_nodes() == before
    env = parse_program(INTERLEAVE_2)
    bindings = env.bindings
    one = build_lts(env)
    # The build kept its state in a record of its own, not on env.
    assert env == DefinitionEnv(env.bindings, env.root) and env.bindings is bindings
    gc.collect()
    assert not [o for o in gc.get_objects() if type(o) is _Build]
    # The states are referenced by their LtsNode records, by the states
    # that contain them and by this frame, but by no table.
    holders = gc.get_referrers(*[n.process for n in one.nodes])
    assert not [h for h in holders if isinstance(h, dict)]
    # So the next build constructs its own nodes.
    two = build_lts(env)
    assert [n.key for n in one.nodes] == [n.key for n in two.nodes]
    assert all(a.process is not b.process for a, b in zip(one.nodes, two.nodes))


def _shares_each_label(lts) -> bool:
    labels = [edge.label for edge in lts.edges]
    return len({id(label) for label in labels}) == len(set(labels))


def test_equal_labels_of_one_build_are_one_object():
    # The build's label table makes each distinct label once: on the
    # case study, and on generated programs, whose labels of all three
    # classes repeat.
    env = parse_program((Path(__file__).parent / "data" / "case_study.rosa").read_text())
    one = build_lts(env)
    rng = random.Random(67)
    builds = [build_lts(parse_program(gen_program(rng)), BuildConfig(max_states=500))
              for _ in range(5)]
    for lts in [one] + builds:
        assert _shares_each_label(lts)
    repeated = {type(label) for lts in [one] + builds
                for label, count in Counter(e.label for e in lts.edges).items() if count > 1}
    assert repeated == {Action, NdBranch, Prob}
    # The table belongs to its build: another build makes its own labels.
    two = build_lts(env)
    assert not {id(e.label) for e in one.edges} & {id(e.label) for e in two.edges}


def test_a_failed_build_frees_what_it_built():
    # The root's left operand is reordered, a new node of the build,
    # before the check meets the cycle P -> Q -> P on the right.
    env = parse_program("main = (b.0+a.0) ||{} (d.0+P)\nP = Q ||{} 0\nQ = P + a.0")
    before = _live_nodes()
    with pytest.raises(UnguardedRecursion):
        build_lts(env)
    assert _live_nodes() == before


# Builds each program read from stdin, separated by blank lines, in the
# three formats.
BUILD_ALL_FORMATS = """
import sys
from rosa_lts import BuildConfig, build_lts, parse_program, to_dot, to_json, to_text
for source in sys.stdin.read().split("\\n\\n"):
    lts = build_lts(parse_program(source), BuildConfig(max_states=500))
    for export in (to_text, to_dot, to_json):
        sys.stdout.write(export(lts))
"""


def test_builds_of_generated_programs_do_not_depend_on_the_hash_seed():
    # Sync sets are frozensets, which iterate in an order the hash seed
    # picks; each main synchronizes on two or three names.
    rng = random.Random(61)
    sources = "\n".join(gen_program(rng) for _ in range(5))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", BUILD_ALL_FORMATS], input=sources.encode(),
            capture_output=True, env=dict(os.environ, PYTHONHASHSEED=seed),
            check=True, timeout=60,
        ).stdout
        for seed in ("0", "4242")
    ]
    assert outputs[0] and outputs[0] == outputs[1]


def test_builds_in_one_process_print_the_same():
    def texts():
        rng = random.Random(59)
        terms = [gen_process(rng, depth=4, dyadic=False) for _ in range(150)]
        return [to_text(build_lts(for_process(p))) for p in terms]

    first = texts()
    gc.collect()
    assert texts() == first
