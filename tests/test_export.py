"""Golden outputs for the text, DOT and JSON serializers."""

import doctest
import json

import pytest

import rosa_lts
from rosa_lts import ExportOptions, build_lts, parse_program, to_dot, to_json, to_text
from rosa_lts.export import _quote, label_text
from rosa_lts import INF, Action, NdBranch, Prob

BLOCKED = build_lts(parse_program("<a,0.3>.0||{a,c}<b,inf>.0"))
RATED = build_lts(parse_program("<a,0.3>.0"))
SPLIT = build_lts(parse_program("a.0*{0.25}b.0"))
BRANCH = build_lts(parse_program("a.0-b.0"))


def test_label_text_forms():
    assert label_text(NdBranch("L.R")) == "nd:L.R"
    assert label_text(Prob(0.25)) == "p=0.25"
    assert label_text(Action("a", 0.3)) == "a,0.3"
    assert label_text(Action("b", INF)) == "b,inf"


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
