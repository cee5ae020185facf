"""Independent checker for rosa-lts output.

Parses the text, DOT and JSON formats itself, without importing the
package under test, into one graph shape, then checks structural
invariants and expected counts. Every function returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field

PROB_SUM_TOLERANCE = 1e-9
# The out-edges of an nd, prob or action node all have the type named
# like its kind; deadlock and success nodes have none.
EDGE_TYPES = ("nd", "prob", "action")
TERMINAL_KINDS = ("deadlock", "success")
NODE_KINDS = EDGE_TYPES + TERMINAL_KINDS


class FormatError(ValueError):
    """Output that does not follow the documented format."""


@dataclass
class Graph:
    """Nodes by id with their kind (None where the format does not say),
    and edges as (src, dst, type, probability or None)."""

    root: int
    nodes: dict[int, str | None] = field(default_factory=dict)
    edges: list[tuple[int, int, str, float | None]] = field(default_factory=list)
    stated: dict[str, int] = field(default_factory=dict)

    def add_node(self, node_id: int, kind: str | None) -> None:
        if node_id in self.nodes:
            raise FormatError(f"node {node_id} listed twice")
        self.nodes[node_id] = kind


def _edge_from_label(text: str) -> tuple[str, float | None]:
    """Edge type and probability of a text/DOT edge label."""
    if text.startswith("nd:") and len(text) > 3:
        return "nd", None
    if text.startswith("p="):
        try:
            return "prob", float(text[2:])
        except ValueError:
            raise FormatError(f"bad probability label {text!r}") from None
    name, sep, rate = text.rpartition(",")
    if not sep or not name:
        raise FormatError(f"bad edge label {text!r}")
    if rate != "inf":
        try:
            value = float(rate)
        except ValueError:
            raise FormatError(f"bad rate in label {text!r}") from None
        if not value > 0:
            raise FormatError(f"non-positive rate in label {text!r}")
    return "action", None


_TEXT_NODE = re.compile(r"#(\d+) \[(nd|prob|action|deadlock|success)\](?: .*)?")
_TEXT_EDGE = re.compile(r"#(\d+) -(.+)-> #(\d+)")
_TEXT_STAT = re.compile(r"(nodes|edges|deadlocks|successes): (\d+)")


def parse_text(out: str) -> Graph:
    """`#id [kind] expr` lines, `#src -label-> #dst` lines, a blank
    line, then the stats block. The root is node 0."""
    graph = Graph(root=0)
    body, sep, tail = out.partition("\n\n")
    if not sep:
        raise FormatError("text output has no stats block")
    for line in body.split("\n"):
        if m := _TEXT_NODE.fullmatch(line):
            graph.add_node(int(m[1]), m[2])
        elif m := _TEXT_EDGE.fullmatch(line):
            kind, p = _edge_from_label(m[2])
            graph.edges.append((int(m[1]), int(m[3]), kind, p))
        else:
            raise FormatError(f"unexpected text line {line[:80]!r}")
    for line in tail.strip("\n").split("\n"):
        if m := _TEXT_STAT.fullmatch(line):
            graph.stated[m[1]] = int(m[2])
        elif line == "truncated: yes":
            raise FormatError("build was truncated")
        elif line != "truncated: no":
            raise FormatError(f"unexpected stats line {line[:80]!r}")
    return graph


_DOT_LABEL = r'label="((?:[^"\\]|\\.)*)"'
_DOT_NODE = re.compile(r"  n(\d+) \[" + _DOT_LABEL + r"(.*)\];")
_DOT_EDGE = re.compile(r"  n(\d+) -> n(\d+) \[" + _DOT_LABEL + r"\];")
_DOT_FILL = re.compile(r'fillcolor="(\w+)"')
_FILL_KIND = {"red": "deadlock", "green": "success", "white": None}


def parse_dot(out: str) -> Graph:
    """One `n<id>` statement per node, deadlocks red and successes
    green; the root has the heavier outline. Kinds of white nodes are
    left unknown."""
    lines = out.rstrip("\n").split("\n")
    if lines[0] != "digraph G {" or lines[-1] != "}":
        raise FormatError("not a `digraph G { ... }` document")
    roots = []
    graph = Graph(root=-1)
    for line in lines[1:-1]:
        if m := _DOT_EDGE.fullmatch(line):
            label = re.sub(r"\\(.)", r"\1", m[3])
            kind, p = _edge_from_label(label)
            graph.edges.append((int(m[1]), int(m[2]), kind, p))
        elif m := _DOT_NODE.fullmatch(line):
            fill = _DOT_FILL.search(m[3])
            if fill is None or fill[1] not in _FILL_KIND:
                raise FormatError(f"node without a known fill: {line[:80]!r}")
            graph.add_node(int(m[1]), _FILL_KIND[fill[1]])
            if "penwidth=2" in m[3]:
                roots.append(int(m[1]))
        else:
            raise FormatError(f"unexpected DOT line {line[:80]!r}")
    if len(roots) != 1:
        raise FormatError(f"expected one root node, found {len(roots)}")
    graph.root = roots[0]
    return graph


def parse_json(out: str) -> Graph:
    """`{"root", "truncated", "nodes", "edges"}` as documented."""
    try:
        doc = json.loads(out)
        if doc["truncated"] is not False:
            raise FormatError("build was truncated")
        graph = Graph(root=int(doc["root"]))
        for node in doc["nodes"]:
            if node["kind"] not in NODE_KINDS:
                raise FormatError(f"unknown node kind {node['kind']!r}")
            graph.add_node(int(node["id"]), node["kind"])
        for edge in doc["edges"]:
            label = edge["label"]
            kind = label["type"]
            if kind not in EDGE_TYPES:
                raise FormatError(f"unknown edge type {kind!r}")
            p = float(label["p"]) if kind == "prob" else None
            graph.edges.append((int(edge["src"]), int(edge["dst"]), kind, p))
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise FormatError(f"malformed JSON output: {exc!r}") from None
    return graph


PARSERS = {"text": parse_text, "dot": parse_dot, "json": parse_json}


def check_invariants(graph: Graph) -> list[str]:
    """Structural laws every built LTS obeys."""
    problems = []
    ids = graph.nodes
    if sorted(ids) != list(range(len(ids))):
        problems.append("node ids are not 0..n-1")
    if graph.root not in ids:
        problems.append(f"root {graph.root} is not a node")
    out_types: dict[int, set[str]] = defaultdict(set)
    prob_mass: dict[int, float] = defaultdict(float)
    succ: dict[int, list[int]] = defaultdict(list)
    for src, dst, kind, p in graph.edges:
        if src not in ids or dst not in ids:
            problems.append(f"edge {src}->{dst} has a missing endpoint")
            continue
        out_types[src].add(kind)
        succ[src].append(dst)
        if kind == "prob":
            if p is None or not (0.0 < p <= 1.0 + PROB_SUM_TOLERANCE):
                problems.append(f"edge {src}->{dst} has probability {p!r}")
            else:
                prob_mass[src] += p
    for node_id, kind in ids.items():
        types = out_types.get(node_id, set())
        if kind in TERMINAL_KINDS:
            if types:
                problems.append(f"{kind} node {node_id} has out-edges")
        elif not types:
            problems.append(f"non-terminal node {node_id} has no out-edges")
        elif len(types) > 1:
            problems.append(f"node {node_id} mixes edge types {sorted(types)}")
        elif kind is not None and types != {kind}:
            problems.append(f"{kind} node {node_id} has {types.pop()} edges")
    for node_id, mass in prob_mass.items():
        if not math.isclose(mass, 1.0, rel_tol=0.0, abs_tol=PROB_SUM_TOLERANCE):
            problems.append(f"probabilities out of node {node_id} sum to {mass!r}")
    if graph.root in ids:
        seen = {graph.root}
        todo = deque([graph.root])
        while todo:
            for dst in succ[todo.popleft()]:
                if dst not in seen:
                    seen.add(dst)
                    todo.append(dst)
        if len(seen) != len(ids):
            problems.append(f"{len(ids) - len(seen)} nodes unreachable from the root")
    kinds = kind_counts(graph)
    stated = {"nodes": len(ids), "edges": len(graph.edges),
              "deadlocks": kinds["deadlock"], "successes": kinds["success"]}
    for name, value in graph.stated.items():
        if stated[name] != value:
            problems.append(f"stats block says {name}: {value}, output has {stated[name]}")
    return problems


def kind_counts(graph: Graph) -> Counter:
    """Nodes per kind. A node whose kind the format leaves open (white
    in DOT) takes the type of its out-edges."""
    edge_type = {src: kind for src, _, kind, _ in graph.edges}
    return Counter(kind or edge_type.get(node_id) for node_id, kind in graph.nodes.items())


def check_counts(graph: Graph, expect: dict[str, int]) -> list[str]:
    """Compare node, edge and per-kind counts with ``expect``."""
    actual = dict(kind_counts(graph), nodes=len(graph.nodes), edges=len(graph.edges))
    return [
        f"{name}: expected {value}, got {actual.get(name, 0)}"
        for name, value in expect.items()
        if actual.get(name, 0) != value
    ]


def check_output(out: str, fmt: str, expect: dict[str, int]) -> list[str]:
    """All problems with one output of format ``fmt``."""
    try:
        graph = PARSERS[fmt](out)
    except FormatError as exc:
        return [str(exc)]
    return check_invariants(graph) + check_counts(graph, expect)
