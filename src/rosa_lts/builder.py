"""Breadth-first exploration that turns a definition environment into a
labelled transition system.

States are deduplicated by canonical key, so the result is a graph:
recursive definitions close into cycles instead of unrolling forever.
The node list is the queue: ids are handed out in discovery order and
only fresh states are appended, so walking the list while it grows
visits states breadth-first, which makes every build byte-deterministic.

Truncation: the first successor that would be a fresh state beyond
``max_states`` marks the result truncated and ends the build. The edges
its source node collected up to that point are kept, a partial
probabilistic fan-out included; no other node is expanded.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .canonical import canonicalize
from .process import DefinitionEnv, Process, pretty_print
from .semantics import (
    NodeKind,
    Prob,
    TransitionLabel,
    action_successors,
    classify,
    nd_successors,
    prob_successors,
)


@dataclass
class BuildConfig:
    max_states: int = 100_000

    def __post_init__(self) -> None:
        if self.max_states < 1:
            raise ValueError("max_states must be positive")


@dataclass(frozen=True, slots=True)
class LtsNode:
    id: int
    process: Process
    key: str
    kind: NodeKind


@dataclass(frozen=True, slots=True)
class LtsEdge:
    source: int
    target: int
    label: TransitionLabel


@dataclass
class Lts:
    nodes: list[LtsNode] = field(default_factory=list)
    edges: list[LtsEdge] = field(default_factory=list)
    root: int = 0
    truncated: bool = False


def build_lts(env: DefinitionEnv, config: BuildConfig | None = None) -> Lts:
    """Explore the reachable state space of env's root process."""
    max_states = (config or BuildConfig()).max_states
    # The build's table of shared nodes lives on a private copy of env
    # and is dropped on the way out, so nothing the build constructed
    # outlives it except through the result.
    env = replace(env)
    object.__setattr__(env, "_terms", {})
    try:
        return _explore(env, max_states)
    finally:
        object.__setattr__(env, "_terms", None)


def _explore(env: DefinitionEnv, max_states: int) -> Lts:
    lts = Lts()
    nodes = lts.nodes
    id_by_key: dict[str, int] = {}

    def admit(produced: Process) -> int | None:
        canonical = canonicalize(produced, env)
        key = pretty_print(canonical)
        found = id_by_key.get(key)
        if found is None:
            if len(nodes) >= max_states:
                return None
            found = id_by_key[key] = len(nodes)
            nodes.append(LtsNode(found, canonical, key, classify(canonical, env)))
        return found

    admit(env.root_process())
    for node in nodes:
        prob = node.kind == NodeKind.PROB_UNSTABLE
        if prob:
            successors = prob_successors(node.process, env)
        elif node.kind == NodeKind.ND_UNSTABLE:
            successors = nd_successors(node.process, env)
        elif node.kind == NodeKind.ACTION_ENABLED:
            successors = action_successors(node.process, env)
        else:
            continue  # deadlock and success nodes have no successors
        # Probabilistic branches into one state merge into one edge with
        # the summed mass; other repeated (label, target) pairs, which
        # symmetric operands such as a.0 ||{} a.0 produce, keep one edge.
        edges: dict = {}
        for label, produced in successors:
            target = admit(produced)
            if target is None:
                lts.truncated = True
                break
            if prob:
                edges[target] = edges.get(target, 0.0) + label.p
            else:
                edges[label, target] = None
        if prob:
            lts.edges.extend(LtsEdge(node.id, t, Prob(p)) for t, p in edges.items())
        else:
            lts.edges.extend(LtsEdge(node.id, t, label) for label, t in edges)
        if lts.truncated:
            break
    return lts


def stats(lts: Lts) -> dict[str, int | bool]:
    """Node, edge and terminal-state counts."""
    deadlocks = sum(1 for n in lts.nodes if n.kind == NodeKind.DEADLOCK)
    successes = sum(1 for n in lts.nodes if n.kind == NodeKind.SUCCESS)
    return {
        "node_count": len(lts.nodes),
        "edge_count": len(lts.edges),
        "deadlock_count": deadlocks,
        "success_count": successes,
        "truncated": lts.truncated,
    }
