"""Breadth-first exploration that turns a definition environment into a
labelled transition system.

States are deduplicated by canonical key, so the result is a graph:
recursive definitions close into cycles instead of unrolling forever.
The node list is the queue: ids are handed out in discovery order and
only fresh states are appended, so walking the list while it grows
visits states breadth-first, which makes every build byte-deterministic.

Truncation: the first successor that would be a fresh state beyond
``max_states``, or a fresh state once the printed keys of the stored
states have passed `STATE_TEXT_BUDGET` characters, marks the result
truncated and ends the build. The edges its source node collected up to that point are
kept, a partial probabilistic fan-out included; no other node is
expanded.

Node kinds are compared by identity with the members bound once as
module constants in `semantics` (`ND_UNSTABLE` and the others). An
enum member is a singleton, so ``is`` decides what ``==`` would; and on
Python 3.11 and earlier every ``NodeKind.X`` read goes through the
enum class's ``__getattr__`` hook, a few hundred ns per state.

The six functions the loop calls (`canonicalize`, `pretty_print`,
`classify` and the three ``*_successors``) are read as this module's
globals on every call: the benchmark's tracer times each layer by
replacing those names here.
"""

from __future__ import annotations

from .canonical import _Build, canonicalize, check
from .process import DefinitionEnv, Process, _Record, _setters, pretty_print
from .semantics import (
    ACTION_ENABLED,
    DEADLOCK,
    ND_UNSTABLE,
    PROB_UNSTABLE,
    SUCCESS,
    NodeKind,
    Prob,
    TransitionLabel,
    action_successors,
    classify,
    nd_successors,
    prob_successors,
)


#: Characters that the printed keys of one build's states may take in
#: total: about 100 times the most a benchmark model stores (415,000, on
#: `interleave`). A model whose states grow with each step, such as
#: ``X = <c,0.5>.(X;0)``, holds memory quadratic in its state count, and
#: this stops it long before the default ``max_states``.
STATE_TEXT_BUDGET = 50_000_000


class BuildConfig(_Record):
    """Build limits. ``BuildConfig.max_states``, read on the class, is
    the default limit."""

    __match_args__ = ("max_states",)
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None
    max_states = 100_000

    def __init__(self, max_states: int = max_states) -> None:
        self.max_states = _checked_limit(max_states)


def _checked_limit(max_states: object) -> int:
    # A bool, a float (nan among them) or a string would bend or
    # disable the limit.
    if type(max_states) is not int or max_states < 1:
        raise ValueError(f"max_states must be a positive int: {max_states!r}")
    return max_states


class LtsNode(_Record):
    __slots__ = __match_args__ = ("id", "process", "key", "kind")

    def __init__(self, id: int, process: Process, key: str, kind: NodeKind) -> None:
        _set_id(self, id)
        _set_process(self, process)
        _set_key(self, key)
        _set_kind(self, kind)


_set_id, _set_process, _set_key, _set_kind = _setters(LtsNode)


class LtsEdge(_Record):
    __slots__ = __match_args__ = ("source", "target", "label")

    def __init__(self, source: int, target: int, label: TransitionLabel) -> None:
        _set_source(self, source)
        _set_target(self, target)
        _set_label(self, label)


_set_source, _set_target, _set_label = _setters(LtsEdge)


class Lts(_Record):
    __slots__ = __match_args__ = ("nodes", "edges", "root", "truncated")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, nodes: list[LtsNode] | None = None,
                 edges: list[LtsEdge] | None = None, root: int = 0,
                 truncated: bool = False) -> None:
        self.nodes = [] if nodes is None else nodes
        self.edges = [] if edges is None else edges
        self.root = root
        self.truncated = truncated


def build_lts(env: DefinitionEnv, config: BuildConfig | None = None) -> Lts:
    """Explore the reachable state space of env's root process, with one
    record of shared state (`canonical._Build`) that is dropped when the
    build returns or raises."""
    # The limit is checked again here, as a config's field is writable.
    max_states = _checked_limit((config or BuildConfig()).max_states)
    build = _Build(env)
    return _explore(build, check(build), max_states)


def _explore(build: _Build, root: Process, max_states: int) -> Lts:
    lts = Lts()
    nodes = lts.nodes
    id_by_key: dict[str, int] = {}
    text = 0  # characters in the keys of the stored states

    def admit(produced: Process) -> int | None:
        nonlocal text
        # The root and every successor come canonical: a mark test.
        canonical = canonicalize(produced, build)
        key = pretty_print(canonical)
        found = id_by_key.get(key)
        if found is None:
            if len(nodes) >= max_states or text > STATE_TEXT_BUDGET:
                return None
            text += len(key)
            found = id_by_key[key] = len(nodes)
            nodes.append(LtsNode(found, canonical, key, classify(canonical, build)))
        return found

    admit(root)
    add_edge = lts.edges.append
    for node in nodes:
        kind = node.kind
        prob = kind is PROB_UNSTABLE
        if prob:
            successors = prob_successors(node.process, build)
        elif kind is ND_UNSTABLE:
            successors = nd_successors(node.process, build)
        elif kind is ACTION_ENABLED:
            successors = action_successors(node.process, build)
        else:
            continue  # deadlock and success nodes have no successors
        # Probabilistic branches into one state merge into one edge with
        # the summed mass; other repeated (label, target) pairs, which
        # symmetric operands such as a.0 ||{} a.0 produce, keep one edge.
        # Equal labels of one build are one object (`build.labels`), so
        # the label's id stands for its value in the key and no label is
        # hashed.
        edges: dict = {}
        for label, produced in successors:
            target = admit(produced)
            if target is None:
                lts.truncated = True
                break
            if prob:
                edges[target] = edges.get(target, 0.0) + label.p
            else:
                edges[id(label), target] = label
        # Plain loops: a state has a few edges, fewer than a generator
        # or a comprehension costs to start.
        source = node.id
        if prob:
            for t, p in edges.items():
                add_edge(LtsEdge(source, t, build.labels[Prob, p]))
        else:
            for (_, t), label in edges.items():
                add_edge(LtsEdge(source, t, label))
        if lts.truncated:
            break
    return lts


def stats(lts: Lts) -> dict[str, int | bool]:
    """Node, edge and terminal-state counts."""
    deadlocks = sum(1 for n in lts.nodes if n.kind is DEADLOCK)
    successes = sum(1 for n in lts.nodes if n.kind is SUCCESS)
    return {
        "node_count": len(lts.nodes),
        "edge_count": len(lts.edges),
        "deadlock_count": deadlocks,
        "success_count": successes,
        "truncated": lts.truncated,
    }
