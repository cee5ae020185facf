"""Serialization of a built transition system: plain text, Graphviz DOT
and JSON. All three are byte-deterministic for a given graph."""

from __future__ import annotations

from collections.abc import Callable

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


def _once(render: Callable[[TransitionLabel], str]) -> Callable[[TransitionLabel], str]:
    """``render`` run once per label object in one export call. The memo
    is keyed by ``id``, which hashes in C where a label's own hash runs
    Python; the `Lts` holds every label for the call, so no id is reused."""
    memo: dict[int, str] = {}

    def rendered(label: TransitionLabel) -> str:
        text = memo.get(id(label))
        if text is None:
            text = memo[id(label)] = render(label)
        return text

    return rendered


def to_text(lts: Lts, opts: ExportOptions | None = None) -> str:
    """Node lines `#id [kind] expr`, then edge lines
    `#src -label-> #dst`, then a stats block."""
    opts = opts or ExportOptions()
    # Each writer reads a kind's text from the member attribute
    # ``_value_``; ``.value`` is a property that runs Python per read.
    if opts.node_labels == "id":
        lines = [f"#{n.id} [{n.kind._value_}]" for n in lts.nodes]
    else:
        lines = [f"#{n.id} [{n.kind._value_}] {n.key}" for n in lts.nodes]
    text = _once(label_text)
    lines += [f"#{e.source} -{text(e.label)}-> #{e.target}" for e in lts.edges]
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


# Keyed by the kind's text, which hashes in C where a `NodeKind`
# member hashes through ``Enum.__hash__``.
_FILL = {
    NodeKind.DEADLOCK.value: "red",
    NodeKind.SUCCESS.value: "green",
}

# A DOT node's label text in each `ExportOptions.node_labels` mode.
_NODE_TEXT = {
    "id": lambda n: str(n.id),
    "expr": lambda n: n.key,
    "both": lambda n: f"{n.id}: {n.key}",
}


def to_dot(lts: Lts, opts: ExportOptions | None = None) -> str:
    """A `digraph` with one node per state (`n<id>`), deadlocks filled
    red, successes green, everything else white, and the root drawn with
    a heavier outline."""
    text, root = _NODE_TEXT[(opts or ExportOptions()).node_labels], lts.root
    lines = ["digraph G {"]
    lines += [
        f"  n{n.id} [label={_quote(text(n))}, style=filled, "
        f'fillcolor="{_FILL.get(n.kind._value_, "white")}"'
        f'{", penwidth=2" if n.id == root else ""}];'
        for n in lts.nodes
    ]
    quoted = _once(lambda label: _quote(label_text(label)))
    lines += [f"  n{e.source} -> n{e.target} [label={quoted(e.label)}];"
              for e in lts.edges]
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
    infinite rate serializes as the string "inf". The string is written
    directly, byte for byte what ``json.dumps`` makes of that document
    with ``separators=(",", ":")``."""
    import json  # here, to keep it out of every other CLI run's start-up
    from json.encoder import encode_basestring_ascii as string

    labels = _once(lambda label: json.dumps(_label_json(label), separators=(",", ":")))
    nodes = ",".join([
        f'{{"id":{n.id},"kind":"{n.kind._value_}","expr":{string(n.key)}}}'
        for n in lts.nodes
    ])
    edges = ",".join([
        f'{{"src":{e.source},"dst":{e.target},"label":{labels(e.label)}}}'
        for e in lts.edges
    ])
    return (f'{{"root":{json.dumps(lts.root)},"truncated":{json.dumps(lts.truncated)},'
            f'"nodes":[{nodes}],"edges":[{edges}]}}')
