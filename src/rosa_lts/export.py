"""Serialization of a built transition system: plain text, Graphviz DOT
and JSON. All three are byte-deterministic for a given graph."""

from __future__ import annotations

from .builder import Lts, stats
from .process import INF, INF_KEYWORD, _Record, _set, format_number
from .semantics import Action, NdBranch, NodeKind, Prob, TransitionLabel

NODE_LABELS = ("id", "expr", "both")


class ExportOptions(_Record):
    __slots__ = __match_args__ = ("node_labels",)

    def __init__(self, node_labels: str = "both") -> None:
        if node_labels not in NODE_LABELS:
            raise ValueError(
                f"node_labels must be one of {NODE_LABELS}, "
                f"got {node_labels!r}"
            )
        _set(self, "node_labels", node_labels)


def label_text(label: TransitionLabel) -> str:
    """One-line rendering shared by the text and DOT formats."""
    if isinstance(label, NdBranch):
        return f"nd:{label.path}"
    if isinstance(label, Prob):
        return f"p={format_number(label.p)}"
    if isinstance(label, Action):
        return f"{label.name},{format_number(label.rate)}"
    raise TypeError(f"not a transition label: {label!r}")


def to_text(lts: Lts, opts: ExportOptions | None = None) -> str:
    """Node lines `#id [kind] expr`, then edge lines
    `#src -label-> #dst`, then a stats block."""
    opts = opts or ExportOptions()
    lines = []
    for node in lts.nodes:
        if opts.node_labels == "id":
            lines.append(f"#{node.id} [{node.kind.value}]")
        else:
            lines.append(f"#{node.id} [{node.kind.value}] {node.key}")
    for edge in lts.edges:
        lines.append(
            f"#{edge.source} -{label_text(edge.label)}-> #{edge.target}"
        )
    s = stats(lts)
    lines.append("")
    lines.append(f"nodes: {s['node_count']}")
    lines.append(f"edges: {s['edge_count']}")
    lines.append(f"deadlocks: {s['deadlock_count']}")
    lines.append(f"successes: {s['success_count']}")
    lines.append(f"truncated: {'yes' if s['truncated'] else 'no'}")
    return "\n".join(lines) + "\n"


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


_FILL = {
    NodeKind.DEADLOCK: "red",
    NodeKind.SUCCESS: "green",
}


def to_dot(lts: Lts, opts: ExportOptions | None = None) -> str:
    """A `digraph` with one node per state (`n<id>`), deadlocks filled
    red, successes green, everything else white, and the root drawn with
    a heavier outline."""
    opts = opts or ExportOptions()
    lines = ["digraph G {"]
    for node in lts.nodes:
        if opts.node_labels == "id":
            text = str(node.id)
        elif opts.node_labels == "expr":
            text = node.key
        else:
            text = f"{node.id}: {node.key}"
        attrs = [
            f"label={_quote(text)}",
            "style=filled",
            f'fillcolor="{_FILL.get(node.kind, "white")}"',
        ]
        if node.id == lts.root:
            attrs.append("penwidth=2")
        lines.append(f"  n{node.id} [{', '.join(attrs)}];")
    for edge in lts.edges:
        lines.append(
            f"  n{edge.source} -> n{edge.target} "
            f"[label={_quote(label_text(edge.label))}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _label_json(label: TransitionLabel) -> dict:
    if isinstance(label, NdBranch):
        return {"type": "nd", "path": label.path}
    if isinstance(label, Prob):
        return {"type": "prob", "p": label.p}
    if isinstance(label, Action):
        # json.dumps would write the non-standard token Infinity.
        rate = INF_KEYWORD if label.rate == INF else label.rate
        return {"type": "action", "name": label.name, "rate": rate}
    raise TypeError(f"not a transition label: {label!r}")


def to_json(lts: Lts) -> str:
    """Compact JSON: `{"root","truncated","nodes","edges"}` with nodes
    `{"id","kind","expr"}` and edges `{"src","dst","label"}`; an
    infinite rate serializes as the string "inf"."""
    import json  # here, to keep it out of every other CLI run's start-up

    doc = {
        "root": lts.root,
        "truncated": lts.truncated,
        "nodes": [
            {"id": n.id, "kind": n.kind.value, "expr": n.key}
            for n in lts.nodes
        ],
        "edges": [
            {
                "src": e.source,
                "dst": e.target,
                "label": _label_json(e.label),
            }
            for e in lts.edges
        ],
    }
    return json.dumps(doc, separators=(",", ":"))
