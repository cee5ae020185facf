"""Laws of whole-program builds, on generated programs shaped like the
benchmark's corpus: 1 to 4 sequential definitions whose variables occur
only as prefix continuations, and a ``main`` that runs two of them in
parallel under a sync set, sometimes after a third with ``;``. Some
leaves are bare action names (``a`` meaning ``a.0``), and ``main`` is
sometimes a bare line.

Unlike the closed terms of the acceptance tests, these programs unfold
variables at the root, under ``;`` and as parallel operands, and keep
them folded under every prefix.
"""

from __future__ import annotations

import importlib.util
import sys
from collections import Counter
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from bisim import bisimilar, raw_key_lts
from rosa_lts import (
    BuildConfig,
    DefinitionEnv,
    ExtChoice,
    IntChoice,
    Par,
    Prefix,
    Prob,
    ProbChoice,
    Seq,
    build_lts,
    parse_program,
    to_dot,
    to_json,
    to_text,
)


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


def _bodies(names: list[str]) -> st.SearchStrategy[str]:
    # A head alone is an action constant: ``a`` names no definition.
    leaves = st.one_of(
        st.just("0"),
        _heads,
        st.builds("{}.0".format, _heads),
        st.builds("{}.{}".format, _heads, st.sampled_from(names)),
    )

    def extend(children):
        return st.one_of(
            st.builds("{}.({})".format, _heads, children),
            st.builds("({} - {})".format, children, children),
            st.builds("({} + {})".format, children, children),
            st.builds(
                "({} *{{{}}} {})".format, children, st.sampled_from(PROBS), children
            ),
        )

    return st.recursive(leaves, extend, max_leaves=6)


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
