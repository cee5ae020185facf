"""Laws of whole-program builds, on generated programs shaped like the
benchmark's corpus: 1 to 4 sequential definitions whose variables occur
only as prefix continuations, and a ``main`` that runs two of them in
parallel under a sync set, sometimes after a third with ``;``. Some
leaves are bare action names (``a`` meaning ``a.0``), and ``main`` is
sometimes a bare line.

Unlike the closed terms of the acceptance tests, these programs unfold
variables at the root, under ``;`` and as parallel operands, and keep
them folded under every prefix.

The reference law checks every node of a build against
`reference_semantics`, which keeps no memo and shares no node.

The exit-code law runs through the command line on looser programs,
whose bare variables may also sit where they are unfolded, so that
some of them recurse unguarded.
"""

from __future__ import annotations

import gc
import importlib.util
import io
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_semantics as ref
from bisim import bisimilar, raw_key_lts
from test_cli import UNGUARDED
from rosa_lts import (
    BuildConfig,
    DefinitionEnv,
    ExtChoice,
    IntChoice,
    NodeKind,
    Par,
    Prefix,
    Prob,
    ProbChoice,
    Seq,
    build_lts,
    canonical_key,
    parse_program,
    to_dot,
    to_json,
    to_text,
)
from rosa_lts.cli import main


def _load_checker():
    """``perfbench/checker.py``, the benchmark's own output checker."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "checker.py"
    spec = importlib.util.spec_from_file_location("perfbench_checker", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations here
    spec.loader.exec_module(module)
    return module


checker = _load_checker()

PROPERTY = settings(derandomize=True, deadline=None, max_examples=120)
CONFIG = BuildConfig(max_states=20_000)

ACTIONS = "abcde"
RATES = ("0.5", "1", "2", "4", "inf")
# Dyadic, so that 1-r is exact and a mirrored program (below) states
# the same distributions bit for bit.
PROBS = ("0", "0.25", "0.5", "0.75", "1")

_heads = st.builds(
    lambda action, rate: action if rate == "inf" else f"<{action},{rate}>",
    st.sampled_from(ACTIONS),
    st.sampled_from(RATES),
)


_syncs = st.sets(st.sampled_from(ACTIONS)).map(lambda s: ",".join(sorted(s)))


def _bodies(names: list[str], loose: bool = False) -> st.SearchStrategy[str]:
    """Variables only as prefix continuations; with ``loose``, also bare
    and under ``;`` and ``||{A}``."""
    # A head alone is an action constant: ``a`` names no definition.
    leaves = [
        st.just("0"),
        _heads,
        st.builds("{}.0".format, _heads),
        st.builds("{}.{}".format, _heads, st.sampled_from(names)),
    ]
    if loose:
        leaves.append(st.sampled_from(names))

    def extend(children):
        operators = [
            st.builds("{}.({})".format, _heads, children),
            st.builds("({} - {})".format, children, children),
            st.builds("({} + {})".format, children, children),
            st.builds(
                "({} *{{{}}} {})".format, children, st.sampled_from(PROBS), children
            ),
        ]
        if loose:
            operators += [
                st.builds("({};{})".format, children, children),
                st.builds("({} ||{{{}}} {})".format, children, _syncs, children),
            ]
        return st.one_of(operators)

    return st.recursive(st.one_of(leaves), extend, max_leaves=6)


@st.composite
def programs(draw) -> list[str]:
    """The lines of one program, ``main`` last, as a definition or as a
    bare line."""
    names = [f"D{i}" for i in range(draw(st.integers(1, 4)))]
    bodies = _bodies(names)
    lines = [f"{name} = {draw(bodies)}" for name in names]
    pick = st.sampled_from(names)
    sync = ",".join(sorted(draw(st.sets(st.sampled_from(ACTIONS)))))
    main = f"{draw(pick)} ||{{{sync}}} {draw(pick)}"
    if draw(st.booleans()):
        main = f"{draw(pick)};({main})"
    return lines + [main if draw(st.booleans()) else f"main = {main}"]


@st.composite
def loose_programs(draw) -> list[str]:
    """1 to 3 definitions and a ``main``, each body drawn with bare
    variables allowed at the root, as either operand of -, +, *{r} and
    ||{A}, and on either side of ';'."""
    names = [f"D{i}" for i in range(draw(st.integers(1, 3)))]
    bodies = _bodies(names, loose=True)
    return [f"{name} = {draw(bodies)}" for name in names + ["main"]]


def _mirror(p):
    """``p`` with the operands of every -, +, *{r} and ||{A} swapped,
    and ``r`` replaced by ``1-r``: the same behaviour, spelled the other
    way round."""
    kind = type(p)
    if kind is Prefix:
        return Prefix(p.action, p.rate, _mirror(p.continuation))
    if kind is Seq:
        return Seq(_mirror(p.left), _mirror(p.right))
    if kind is ProbChoice:
        return ProbChoice(1.0 - p.prob, _mirror(p.right), _mirror(p.left))
    if kind is Par:
        return Par(p.sync, _mirror(p.right), _mirror(p.left))
    if kind is IntChoice or kind is ExtChoice:
        return kind(_mirror(p.right), _mirror(p.left))
    return p


def _source(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


@PROPERTY
@given(programs())
def test_every_format_passes_the_benchmark_checker(lines):
    lts = build_lts(parse_program(_source(lines)), CONFIG)
    assert not lts.truncated
    expect = Counter(node.kind.value for node in lts.nodes)
    expect.update(nodes=len(lts.nodes), edges=len(lts.edges))
    for fmt, export in (("text", to_text), ("dot", to_dot), ("json", to_json)):
        assert checker.check_output(export(lts), fmt, expect) == [], (fmt, lines)


@PROPERTY
@given(programs())
# A weight whose 1-r rounds to 1 prunes in both operand orders.
@example(["main = a.0*{1e-300}b.0"])
@example(["main = (a.0*{1e-300}b.0)||{}c.0"])
def test_canonical_build_is_bisimilar_to_the_raw_build_of_the_mirror(lines):
    env = parse_program(_source(lines))
    mirrored = DefinitionEnv(
        bindings={name: _mirror(body) for name, body in env.bindings.items()},
        root=env.root,
    )
    merged = build_lts(env, CONFIG)
    raw = raw_key_lts(mirrored, CONFIG)
    assert not merged.truncated and not raw.truncated
    assert len(merged.nodes) <= len(raw.nodes)
    assert bisimilar(merged, raw), lines


@PROPERTY
@given(st.data())
def test_definition_order_leaves_the_output_unchanged(data):
    lines = data.draw(programs())
    shuffled = data.draw(st.permutations(lines))
    expected = to_text(build_lts(parse_program(_source(lines)), CONFIG))
    assert to_text(build_lts(parse_program(_source(shuffled)), CONFIG)) == expected


@PROPERTY
@given(programs(), st.integers(1, 20))
def test_a_truncated_build_is_a_prefix_of_the_full_build(lines, k):
    env = parse_program(_source(lines))
    full = build_lts(env, CONFIG)
    cut = build_lts(env, BuildConfig(max_states=k))
    assert [n.key for n in cut.nodes] == [n.key for n in full.nodes][:k]
    # A truncated probabilistic fan-out may sum only part of the mass of
    # a merged edge, so only the other labels must match.
    full_edges = set(full.edges)
    for e in cut.edges:
        assert isinstance(e.label, Prob) or e in full_edges
    assert cut.truncated == (len(full.nodes) > k)


REFERENCE_FAMILIES = {
    NodeKind.ND_UNSTABLE: ref.nd_successors,
    NodeKind.PROB_UNSTABLE: ref.prob_successors,
    NodeKind.ACTION_ENABLED: ref.action_successors,
}


@settings(PROPERTY, max_examples=60)
@given(programs())
def test_every_node_has_the_reference_kind_and_edges(lines):
    env = parse_program(_source(lines))
    lts = build_lts(env, CONFIG)
    assert not lts.truncated
    id_by_key = {node.key: node.id for node in lts.nodes}
    edges = {node.id: [] for node in lts.nodes}
    for e in lts.edges:
        edges[e.source].append((e.label, e.target))
    for node in lts.nodes:
        fresh = DefinitionEnv(env.bindings, env.root)
        assert ref.classify(node.process, fresh) == node.kind, (node.key, lines)
        family = REFERENCE_FAMILIES.get(node.kind)
        # Keyed and merged as the builder does: probabilistic mass into
        # one edge per target, other labels one edge per (label, target).
        merged: dict = {}
        for label, s in family(node.process, fresh) if family else ():
            target = id_by_key[canonical_key(s, fresh)]
            if isinstance(label, Prob):
                merged[target] = merged.get(target, 0.0) + label.p
            else:
                merged[label, target] = None
        expected = ([(Prob(p), t) for t, p in merged.items()]
                    if node.kind is NodeKind.PROB_UNSTABLE else list(merged))
        assert edges[node.id] == expected, (node.key, lines)


def _run(source: str, *flags: str) -> tuple[int, str]:
    """Exit code and stderr of the command on ``source`` read from stdin.
    The command leaves the garbage collector as it found it."""
    stdin = io.TextIOWrapper(io.BytesIO(source.encode()))
    err = io.StringIO()
    enabled = gc.isenabled()
    with mock.patch.object(sys, "stdin", stdin), redirect_stderr(err), \
            redirect_stdout(io.StringIO()):
        code = main(["-", *flags])
    assert gc.isenabled() == enabled
    return code, err.getvalue()


def _unguarded_examples(test):
    for source, _ in UNGUARDED.values():
        test = example(source.splitlines(), 10)(test)
    return test


# A parallel operand that respawns itself on every synchronized step,
# such as D0 = <d,1>.D0 ||{d} (<d,1>;D0), doubles the printed state at
# each step, so the state limit stays small.
@PROPERTY
@_unguarded_examples
@given(loose_programs(), st.integers(1, 10))
def test_check_fails_exactly_where_the_build_fails(lines, max_states):
    source = _source(lines)
    build = _run(source, "--max-states", str(max_states))
    checked = _run(source, "--check")
    for code, err in (build, checked):
        assert code in (0, 3), (code, err, lines)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, lines
    assert checked[1] == "" or checked[0] == 3, lines
    assert (checked[0] == 3) == (build[0] == 3), lines
    assert checked[1] == build[1] or build[0] == 0, lines
