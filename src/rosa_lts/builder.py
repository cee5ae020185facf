"""Frontier exploration that turns a definition environment into a
labelled transition system.

States are deduplicated by canonical key, so the result is a graph:
recursive definitions close into cycles instead of unrolling forever.
Exploration is breadth-first and node ids are assigned in discovery
order, which makes every build byte-deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class LtsNode:
    id: int
    process: Process
    key: str
    kind: NodeKind


@dataclass(frozen=True)
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


class StateLimit(Exception):
    """Raised by find_or_insert when a fresh state would exceed
    max_states; the builder turns it into a truncated result."""


class LtsBuilder:
    """Incremental construction; `build` runs the exploration loop.

    With ``canonical_keys=False`` states are keyed by their printed form
    exactly as produced, with no canonical rewriting, so syntactically
    different spellings of one state stay separate. Stored processes are
    still canonicalized for stepping; only deduplication weakens. Meant
    for comparing against the canonical build.
    """

    def __init__(
        self,
        env: DefinitionEnv,
        config: BuildConfig | None = None,
        *,
        canonical_keys: bool = True,
    ):
        self.env = env
        self.config = config or BuildConfig()
        self.canonical_keys = canonical_keys
        self.nodes: list[LtsNode] = []
        self.edges: list[LtsEdge] = []
        self._id_by_key: dict[str, int] = {}

    def find_or_insert(self, p: Process) -> tuple[int, bool]:
        """Id of the state with p's key, inserting a freshly classified
        node when the key is new. Expects canonical ``p``."""
        return self._insert(pretty_print(p), p)

    def _insert(self, key: str, canonical: Process) -> tuple[int, bool]:
        existing = self._id_by_key.get(key)
        if existing is not None:
            return existing, False
        if len(self.nodes) >= self.config.max_states:
            raise StateLimit(key)
        node = LtsNode(
            id=len(self.nodes),
            process=canonical,
            key=key,
            kind=classify(canonical, self.env),
        )
        self.nodes.append(node)
        self._id_by_key[key] = node.id
        return node.id, True

    def _admit(self, produced: Process) -> tuple[int, bool]:
        canonical = canonicalize(produced, self.env)
        if self.canonical_keys:
            key = pretty_print(canonical)
        else:
            key = pretty_print(produced)
        return self._insert(key, canonical)

    def build(self) -> Lts:
        truncated = False
        queue: deque[int] = deque()
        root_raw = self.env.root_process()
        _, is_new = self._admit(root_raw)
        if is_new:
            queue.append(0)
        while queue and not truncated:
            truncated = not self._expand(queue)
        return Lts(
            nodes=self.nodes,
            edges=self.edges,
            root=0,
            truncated=truncated,
        )

    def _expand(self, queue: deque[int]) -> bool:
        """Expand the next frontier node; False when the state limit was
        hit (the edges admitted so far are kept)."""
        node = self.nodes[queue.popleft()]
        env = self.env
        try:
            if node.kind == NodeKind.ND_UNSTABLE:
                self._add_plain(node.id, nd_successors(node.process, env), queue)
            elif node.kind == NodeKind.PROB_UNSTABLE:
                self._add_prob(node.id, prob_successors(node.process, env), queue)
            elif node.kind == NodeKind.ACTION_ENABLED:
                self._add_plain(
                    node.id, action_successors(node.process, env), queue
                )
            # Deadlock and Success nodes have no successors.
        except StateLimit:
            return False
        return True

    def _add_plain(
        self,
        src: int,
        successors: list[tuple[TransitionLabel, Process]],
        queue: deque[int],
    ) -> None:
        # Identical (source, label, target) triples collapse to one edge;
        # they arise from symmetric operands, e.g. a.0 ||{} a.0.
        seen: set[tuple[TransitionLabel, int]] = set()
        for label, produced in successors:
            target, is_new = self._admit(produced)
            if is_new:
                queue.append(target)
            if (label, target) not in seen:
                seen.add((label, target))
                self.edges.append(LtsEdge(src, target, label))

    def _add_prob(
        self,
        src: int,
        successors: list[tuple[Prob, Process]],
        queue: deque[int],
    ) -> None:
        # Branches that land in the same state merge into one edge with
        # the summed probability, keeping one distribution per node.
        order: list[int] = []
        mass: dict[int, float] = {}
        try:
            for label, produced in successors:
                target, is_new = self._admit(produced)
                if is_new:
                    queue.append(target)
                if target not in mass:
                    order.append(target)
                    mass[target] = 0.0
                mass[target] += label.p
        finally:
            self.edges.extend(
                LtsEdge(src, target, Prob(mass[target])) for target in order
            )

def build_lts(
    env: DefinitionEnv,
    config: BuildConfig | None = None,
    *,
    canonical_keys: bool = True,
) -> Lts:
    """Explore the reachable state space of env's root process."""
    return LtsBuilder(env, config, canonical_keys=canonical_keys).build()


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
