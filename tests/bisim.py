"""Label-preserving bisimilarity check by partition refinement, and the
raw-key reference build it is checked against.

The check works on the union of two graphs: blocks start split by node
kind and refine on transition signatures until stable; the graphs' roots
must then share a block. Probabilistic edges compare by total
probability into each block (rounded, so differently-merged but equal
distributions match); other edges compare by exact label and target
block.
"""

from __future__ import annotations

from rosa_lts import (
    BuildConfig,
    DefinitionEnv,
    Lts,
    LtsEdge,
    LtsNode,
    NodeKind,
    Prob,
    canonicalize,
    classify,
    pretty_print,
)
import reference_semantics as ref

PROB_DECIMALS = 9


def _union(a: Lts, b: Lts):
    offset = len(a.nodes)
    kinds = [n.kind for n in a.nodes] + [n.kind for n in b.nodes]
    succ: list[list] = [[] for _ in kinds]
    for e in a.edges:
        succ[e.source].append((e.label, e.target))
    for e in b.edges:
        succ[e.source + offset].append((e.label, e.target + offset))
    return kinds, succ, a.root, b.root + offset


def _signature(edges, block_of):
    plain = set()
    mass: dict[int, float] = {}
    for label, target in edges:
        if isinstance(label, Prob):
            block = block_of[target]
            mass[block] = mass.get(block, 0.0) + label.p
        else:
            plain.add((label, block_of[target]))
    prob = frozenset(
        (block, round(total, PROB_DECIMALS)) for block, total in mass.items()
    )
    return frozenset(plain), prob


def bisimilar(a: Lts, b: Lts) -> bool:
    kinds, succ, root_a, root_b = _union(a, b)
    n = len(kinds)
    # initial partition: one block per node kind
    blocks: dict = {}
    for i in range(n):
        blocks.setdefault(kinds[i], len(blocks))
    block_ids = [blocks[kinds[i]] for i in range(n)]
    while True:
        table: dict = {}
        next_ids = [0] * n
        for i in range(n):
            key = (block_ids[i], _signature(succ[i], block_ids))
            next_ids[i] = table.setdefault(key, len(table))
        if len(table) == len(set(block_ids)):
            return next_ids[root_a] == next_ids[root_b]
        block_ids = next_ids


# The reference rules, which build each successor as the rule spells it;
# the package's rules return canonical successors.
_SUCCESSORS = {
    NodeKind.ND_UNSTABLE: ref.nd_successors,
    NodeKind.PROB_UNSTABLE: ref.prob_successors,
    NodeKind.ACTION_ENABLED: ref.action_successors,
}


def raw_key_lts(env: DefinitionEnv, config: BuildConfig | None = None) -> Lts:
    """`build_lts` with states keyed by their printed form exactly as
    produced, with no canonical rewriting, so syntactically different
    spellings of one state stay separate. Stored processes are still
    canonical, so every state steps as in `build_lts`; only
    deduplication is weaker."""
    max_states = (config or BuildConfig()).max_states
    lts = Lts()
    id_by_key: dict[str, int] = {}

    def admit(produced):
        key = pretty_print(produced)
        if key not in id_by_key:
            if len(lts.nodes) == max_states:
                lts.truncated = True
                return None
            canonical = canonicalize(produced, env)
            id_by_key[key] = len(lts.nodes)
            node = LtsNode(len(lts.nodes), canonical, key, classify(canonical, env))
            lts.nodes.append(node)
        return id_by_key[key]

    admit(env.root_process())
    for node in lts.nodes:
        if lts.truncated:
            break
        if node.kind not in _SUCCESSORS:
            continue
        merged: dict = {}  # target -> summed mass, or (label, target) -> None
        for label, produced in _SUCCESSORS[node.kind](node.process, env):
            target = admit(produced)
            if target is None:
                break
            if isinstance(label, Prob):
                merged[target] = merged.get(target, 0.0) + label.p
            else:
                merged[label, target] = None
        for key, mass in merged.items():
            if mass is None:
                lts.edges.append(LtsEdge(node.id, key[1], key[0]))
            else:
                lts.edges.append(LtsEdge(node.id, key, Prob(mass)))
    return lts
