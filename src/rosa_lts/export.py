"""Serialization of a built transition system: plain text, Graphviz DOT
and JSON. All three are byte-deterministic for a given graph.

Each format is one generator of chunks, each chunk at most
`CHUNK_LINES` node or edge lines. An export returns the chunks joined,
or, given a ``file``, writes them to it one at a time, so that what it
holds beyond the graph is one chunk and not the whole output."""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from io import TextIOBase

from .builder import Lts, stats
from .process import INF, INF_KEYWORD, _Record, _set, format_number
from .semantics import Action, NdBranch, NodeKind, Prob, TransitionLabel

NODE_LABELS = ("id", "expr", "both")

# Node or edge lines per chunk: few enough that a chunk is a small part
# of a large export, many enough that a chunk's costs (a slice, a join,
# a write) are spread over its lines.
CHUNK_LINES = 128


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


def _parts(items: list) -> Iterator[list]:
    """``items`` in consecutive slices of `CHUNK_LINES`."""
    for start in range(0, len(items), CHUNK_LINES):
        yield items[start:start + CHUNK_LINES]


def _emit(chunks: Iterable[str], file: TextIOBase | None) -> str | None:
    """The chunks joined; or, given a ``file``, each written to it in
    turn, and None."""
    if file is None:
        return "".join(chunks)
    for chunk in chunks:
        file.write(chunk)
    return None


def to_text(lts: Lts, opts: ExportOptions | None = None, *,
            file: TextIOBase | None = None) -> str | None:
    """Node lines `#id [kind] expr`, then edge lines
    `#src -label-> #dst`, then a stats block. Given a ``file``, the text
    is written to it and None is returned."""
    return _emit(_text_chunks(lts, opts or ExportOptions()), file)


def _text_chunks(lts: Lts, opts: ExportOptions) -> Iterator[str]:
    # Each writer reads a kind's text from the member attribute
    # ``_value_``; ``.value`` is a property that runs Python per read.
    for part in _parts(lts.nodes):
        if opts.node_labels == "id":
            yield "".join([f"#{n.id} [{n.kind._value_}]\n" for n in part])
        else:
            yield "".join([f"#{n.id} [{n.kind._value_}] {n.key}\n" for n in part])
    text = _once(label_text)
    for part in _parts(lts.edges):
        yield "".join([f"#{e.source} -{text(e.label)}-> #{e.target}\n" for e in part])
    s = stats(lts)
    yield (f"\nnodes: {s['node_count']}\n"
           f"edges: {s['edge_count']}\n"
           f"deadlocks: {s['deadlock_count']}\n"
           f"successes: {s['success_count']}\n"
           f"truncated: {'yes' if s['truncated'] else 'no'}\n")


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


def to_dot(lts: Lts, opts: ExportOptions | None = None, *,
           file: TextIOBase | None = None) -> str | None:
    """A `digraph` with one node per state (`n<id>`), deadlocks filled
    red, successes green, everything else white, and the root drawn with
    a heavier outline. Given a ``file``, the graph is written to it and
    None is returned."""
    return _emit(_dot_chunks(lts, opts or ExportOptions()), file)


def _dot_chunks(lts: Lts, opts: ExportOptions) -> Iterator[str]:
    text, root = _NODE_TEXT[opts.node_labels], lts.root
    yield "digraph G {\n"
    for part in _parts(lts.nodes):
        yield "".join([
            f"  n{n.id} [label={_quote(text(n))}, style=filled, "
            f'fillcolor="{_FILL.get(n.kind._value_, "white")}"'
            f'{", penwidth=2" if n.id == root else ""}];\n'
            for n in part
        ])
    quoted = _once(lambda label: _quote(label_text(label)))
    for part in _parts(lts.edges):
        yield "".join([f"  n{e.source} -> n{e.target} [label={quoted(e.label)}];\n"
                       for e in part])
    yield "}\n"


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


def to_json(lts: Lts, *, file: TextIOBase | None = None) -> str | None:
    """Compact JSON: `{"root","truncated","nodes","edges"}` with nodes
    `{"id","kind","expr"}` and edges `{"src","dst","label"}`; an
    infinite rate serializes as the string "inf". The text is made
    directly, byte for byte what ``json.dumps`` makes of that document
    with ``separators=(",", ":")``, and has no final newline. Given a
    ``file``, it is written to it and None is returned."""
    return _emit(_json_chunks(lts), file)


def _json_chunks(lts: Lts) -> Iterator[str]:
    import json  # here, to keep it out of every other CLI run's start-up
    from json.encoder import encode_basestring_ascii as string

    yield (f'{{"root":{json.dumps(lts.root)},'
           f'"truncated":{json.dumps(lts.truncated)},"nodes":[')
    # The first chunk of a list opens it; each later one adds a comma.
    comma = ""
    for part in _parts(lts.nodes):
        yield comma + ",".join([
            f'{{"id":{n.id},"kind":"{n.kind._value_}","expr":{string(n.key)}}}'
            for n in part
        ])
        comma = ","
    yield '],"edges":['
    labels = _once(lambda label: json.dumps(_label_json(label), separators=(",", ":")))
    comma = ""
    for part in _parts(lts.edges):
        yield comma + ",".join([
            f'{{"src":{e.source},"dst":{e.target},"label":{labels(e.label)}}}'
            for e in part
        ])
        comma = ","
    yield "]}"
