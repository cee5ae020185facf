"""Golden outputs for the text, DOT and JSON serializers, and the
writers held to the reference exporter byte for byte."""

import copy
import doctest
import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import rosa_lts
import reference_export
from gen import gen_program, ring_program
from rosa_lts import (
    NIL,
    BuildConfig,
    ExportOptions,
    Lts,
    NodeKind,
    build_lts,
    parse_program,
    to_dot,
    to_json,
    to_text,
)
from rosa_lts.builder import LtsEdge, LtsNode
from rosa_lts.export import CHUNK_LINES, NODE_LABELS, _quote, label_text
from rosa_lts import INF, Action, NdBranch, Prob

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)

BLOCKED = build_lts(parse_program("<a,0.3>.0||{a,c}<b,inf>.0"))
RATED = build_lts(parse_program("<a,0.3>.0"))
SPLIT = build_lts(parse_program("a.0*{0.25}b.0"))
BRANCH = build_lts(parse_program("a.0-b.0"))


def test_label_text_forms():
    assert label_text(NdBranch("L.R")) == "nd:L.R"
    assert label_text(Prob(0.25)) == "p=0.25"
    assert label_text(Action("a", 0.3)) == "a,0.3"
    assert label_text(Action("b", INF)) == "b,inf"
    assert label_text(Action("a", 2)) == "a,2.0"


def test_text_golden():
    assert to_text(BLOCKED) == (
        "#0 [action] <a,0.3>.0||{a,c}b.0\n"
        "#1 [deadlock] 0||{a,c}<a,0.3>.0\n"
        "#0 -b,inf-> #1\n"
        "\n"
        "nodes: 2\n"
        "edges: 1\n"
        "deadlocks: 1\n"
        "successes: 0\n"
        "truncated: no\n"
    )


def test_package_docstring_example():
    result = doctest.testmod(rosa_lts, optionflags=doctest.ELLIPSIS)
    assert result.attempted > 0 and result.failed == 0


def test_text_id_labels():
    opts = ExportOptions(node_labels="id")
    assert to_text(BLOCKED, opts) == (
        "#0 [action]\n"
        "#1 [deadlock]\n"
        "#0 -b,inf-> #1\n"
        "\n"
        "nodes: 2\n"
        "edges: 1\n"
        "deadlocks: 1\n"
        "successes: 0\n"
        "truncated: no\n"
    )


def test_text_prob_and_nd_edges():
    assert "#0 -p=0.25-> #1" in to_text(SPLIT)
    assert "#0 -p=0.75-> #2" in to_text(SPLIT)
    assert "#0 -nd:L-> #1" in to_text(BRANCH)
    assert "#0 -nd:R-> #2" in to_text(BRANCH)


def test_dot_golden():
    assert to_dot(BLOCKED) == (
        "digraph G {\n"
        '  n0 [label="0: <a,0.3>.0||{a,c}b.0", style=filled,'
        ' fillcolor="white", penwidth=2];\n'
        '  n1 [label="1: 0||{a,c}<a,0.3>.0", style=filled,'
        ' fillcolor="red"];\n'
        '  n0 -> n1 [label="b,inf"];\n'
        "}\n"
    )


def test_dot_label_modes_and_success_fill():
    by_id = to_dot(RATED, ExportOptions(node_labels="id"))
    assert '  n0 [label="0", style=filled, fillcolor="white", penwidth=2];' in by_id
    assert '  n1 [label="1", style=filled, fillcolor="green"];' in by_id
    by_expr = to_dot(RATED, ExportOptions(node_labels="expr"))
    assert 'n0 [label="<a,0.3>.0"' in by_expr
    assert 'n1 [label="0"' in by_expr


def test_dot_quoting():
    assert _quote('say "hi" \\ bye') == '"say \\"hi\\" \\\\ bye"'


def test_json_golden():
    assert to_json(BLOCKED) == (
        '{"root":0,"truncated":false,'
        '"nodes":['
        '{"id":0,"kind":"action","expr":"<a,0.3>.0||{a,c}b.0"},'
        '{"id":1,"kind":"deadlock","expr":"0||{a,c}<a,0.3>.0"}],'
        '"edges":['
        '{"src":0,"dst":1,"label":{"type":"action","name":"b","rate":"inf"}}]}'
    )


def test_json_label_payloads():
    doc = json.loads(to_json(RATED))
    assert doc["edges"][0]["label"] == {"type": "action", "name": "a", "rate": 0.3}
    doc = json.loads(to_json(SPLIT))
    assert doc["edges"][0]["label"] == {"type": "prob", "p": 0.25}
    doc = json.loads(to_json(BRANCH))
    assert doc["edges"][0]["label"] == {"type": "nd", "path": "L"}
    assert doc["nodes"][0]["kind"] == "nd"


def test_invalid_label_mode_rejected():
    with pytest.raises(ValueError):
        ExportOptions(node_labels="fancy")


def test_exports_are_reproducible():
    env = parse_program("C = <g,0.5>.h.<i,0.6>\nL = <k,0.8>\nmain = C*{0.25}L\n")
    one, two = build_lts(env), build_lts(env)
    assert to_text(one) == to_text(two)
    assert to_dot(one) == to_dot(two)
    assert to_json(one) == to_json(two)


def _written(export, *args):
    """What ``export`` writes to a file, checked against what it returns."""
    file = io.StringIO()
    assert export(*args, file=file) is None
    assert file.getvalue() == export(*args)
    return file.getvalue()


def _assert_as_reference(lts):
    assert _written(to_json, lts) == reference_export.to_json(lts)
    for mode in NODE_LABELS:
        opts = ExportOptions(mode)
        assert _written(to_text, lts, opts) == reference_export.to_text(lts, opts)
        assert _written(to_dot, lts, opts) == reference_export.to_dot(lts, opts)


# One more than two chunks of node lines and of edge lines.
_LINES = 2 * CHUNK_LINES + 1


def test_a_ring_of_more_than_two_chunks_is_the_reference_bytes():
    lts = build_lts(parse_program(ring_program(_LINES)))
    assert len(lts.nodes) == len(lts.edges) == _LINES
    _assert_as_reference(lts)


def test_a_graph_of_every_label_over_more_than_two_chunks_is_the_reference_bytes():
    kinds = list(NodeKind)
    nodes = [LtsNode(i, NIL, f"P{i}", kinds[i % len(kinds)]) for i in range(_LINES)]
    labels = [NdBranch("L.R"), Prob(0.25), Action("a", 0.3), Action("b", INF)]
    edges = [LtsEdge(i, (i * 7) % _LINES, labels[i % len(labels)])
             for i in range(_LINES + CHUNK_LINES)]
    _assert_as_reference(Lts(nodes, edges, 5, True))


@PROPERTY
@given(st.integers(0, 2**32), st.sampled_from((1, 3, 300)))
def test_exports_of_generated_builds_are_the_reference_bytes(seed, max_states):
    # A limit of 1 truncates every build with a move; most builds at
    # depth 2 finish under 300 states.
    source = gen_program(random.Random(seed), depth=2)
    _assert_as_reference(build_lts(parse_program(source), BuildConfig(max_states)))


# Characters each format escapes: quotes, backslashes, newlines, other
# control characters and non-ASCII text, including outside the BMP.
_TEXT = st.text(st.sampled_from('a0 .|{}"\\\n\t\x00\x1f\x7f\xe9\u20ac\U0001f600'))
_PROBS = st.sampled_from((5e-324, 0.1 + 0.2, 0.25, 1.0)) | st.floats(5e-324, 1.0)
_RATES = st.sampled_from((5e-324, 0.1 + 0.2, 1e300, INF)) | st.floats(5e-324)
_LABELS = st.lists(
    st.one_of(
        st.builds(NdBranch, _TEXT.filter(bool)),
        st.builds(Prob, _PROBS),
        st.builds(Action, st.sampled_from(("a", "b_2", "inf_", "Z")), _RATES),
    ),
    max_size=3,
)
# Offered to every hand-built graph besides the drawn labels.
_EDGE_CASES = (Prob(5e-324), Prob(0.1 + 0.2), Action("a", 1e300), Action("b", INF),
               NdBranch('L"\\\n\x01\xe9'))


@st.composite
def _hand_built(draw):
    keys = draw(st.lists(_TEXT, min_size=1, max_size=6))
    nodes = [LtsNode(i, NIL, key, draw(st.sampled_from(NodeKind)))
             for i, key in enumerate(keys)]
    labels = draw(_LABELS) + list(_EDGE_CASES)
    ids = st.integers(0, len(nodes) - 1)
    edges = []
    for _ in range(draw(st.integers(0, 10))):
        label = draw(st.sampled_from(labels))
        # An equal label as another object, which no build makes.
        if draw(st.booleans()):
            label = copy.copy(label)
        edges.append(LtsEdge(draw(ids), draw(ids), label))
    return Lts(nodes, edges, draw(ids), draw(st.booleans()))


@PROPERTY
@given(_hand_built())
def test_exports_of_hand_built_graphs_are_the_reference_bytes(lts):
    _assert_as_reference(lts)
