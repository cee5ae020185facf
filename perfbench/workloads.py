"""Input generators for the benchmark workloads.

Every generator is a pure function of its arguments: the same seed gives
the same model files, byte for byte. The seed changes names, definition
order and operand order, never the size of the state space, so the
expected counts of `interleave`, `wide` and `ring` hold for every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

INTERLEAVE_N = 5
WIDE_N = 80
RING_K = 20_000
CORPUS_SIZE = 300
# The corpus is drawn from a fixed pool whose per-program counts were
# recorded once (data/corpus_ref.json). The largest programs set peak
# memory and the latency tail, so every corpus holds the CORPUS_FIXED
# largest; the rest of the pool is split by size into strata and a seed
# picks one program from each. Every seed thus runs a different corpus
# of nearly the same total work.
CORPUS_POOL = 4 * CORPUS_SIZE
CORPUS_FIXED = 12
CORPUS_REF = Path(__file__).resolve().parent / "data" / "corpus_ref.json"

KINDS = ("action", "nd", "prob", "deadlock", "success")


@dataclass(frozen=True)
class Model:
    """One input file of a workload and what its output must contain.

    ``expect`` holds exact counts: ``nodes``, ``edges`` and, where known,
    one entry per node kind. The checker compares whatever it holds.
    """

    name: str
    source: str
    fmt: str
    expect: dict[str, int]


def interleave_counts(n: int) -> dict[str, int]:
    """Closed-form size of the `interleave` state space for n components
    (33 nodes and 68 edges at n=2, which a hand trace confirms)."""
    stable = 4**n
    pending = n * 4 ** (n - 1)
    return {
        "nodes": stable + 2 * pending + 1,
        "edges": 2 * n * 4**n + 2**n,
        "action": stable,
        "nd": pending,
        "prob": pending + 1,
        "deadlock": 0,
        "success": 0,
    }


def interleave(seed: int, n: int = INTERLEAVE_N) -> list[Model]:
    """n copies of Pi = <ai,1>.(<bi,2>.Pi - <ci,0.5>.Pi) *{0.5} <di,1>.Pi
    in parallel with no synchronization; JSON output."""
    rng = random.Random(seed)
    ids = list(range(1, n + 1))
    lines = [
        f"P{i} = <a{i},1>.(<b{i},2>.P{i} - <c{i},0.5>.P{i}) *{{0.5}} <d{i},1>.P{i}"
        for i in ids
    ]
    rng.shuffle(lines)
    rng.shuffle(ids)
    lines.append("main = " + " ||{} ".join(f"P{i}" for i in ids))
    return [Model("interleave.rosa", "\n".join(lines) + "\n", "json", interleave_counts(n))]


def wide(seed: int, n: int = WIDE_N) -> list[Model]:
    """n guarded self-loops Li = <li,1>.Li in parallel: one state whose
    term grows with n; text output."""
    rng = random.Random(seed)
    ids = list(range(1, n + 1))
    lines = [f"L{i} = <l{i},1>.L{i}" for i in ids]
    rng.shuffle(lines)
    rng.shuffle(ids)
    lines.append("main = " + " ||{} ".join(f"L{i}" for i in ids))
    expect = {"nodes": 1, "edges": n, "action": 1, "nd": 0, "prob": 0,
              "deadlock": 0, "success": 0}
    return [Model("wide.rosa", "\n".join(lines) + "\n", "text", expect)]


def ring(seed: int, k: int = RING_K) -> list[Model]:
    """k definitions Si = <x{i%7},{1+i%3}>.S{(i+1)%k}, with the action
    and rate pattern shifted, the lines shuffled and the cycle entered at
    a seeded point: k states in one cycle; DOT output."""
    rng = random.Random(seed)
    shift = rng.randrange(7 * 3)
    lines = [
        f"S{i} = <x{(i + shift) % 7},{1 + (i + shift) % 3}>.S{(i + 1) % k}"
        for i in range(k)
    ]
    rng.shuffle(lines)
    lines.append(f"main = S{rng.randrange(k)}")
    expect = {"nodes": k, "edges": k, "action": k, "nd": 0, "prob": 0,
              "deadlock": 0, "success": 0}
    return [Model("ring.rosa", "\n".join(lines) + "\n", "dot", expect)]


# --- corpus ---------------------------------------------------------------

_ACTIONS = "abcde"
_RATES = ("0.5", "1", "2", "4", "inf")
# Dyadic probabilities sum exactly in binary floating point, so the
# recorded counts cannot depend on how branch products are rounded.
_PROBS = ("0.25", "0.5", "0.75")


def _prefix(rng: random.Random) -> str:
    rate = rng.choice(_RATES)
    action = rng.choice(_ACTIONS)
    return action if rate == "inf" else f"<{action},{rate}>"


def _body(rng: random.Random, depth: int, names: list[str]) -> str:
    """A sequential term: prefixes, the three choices and 0. Variables
    occur only as the continuation of a prefix, which keeps every
    recursion guarded and every state space finite."""
    if depth <= 0:
        leaf = rng.random()
        if leaf < 0.15:
            return "0"
        if leaf < 0.75:
            return f"{_prefix(rng)}.{rng.choice(names)}"
        return f"{_prefix(rng)}.0"
    op = rng.choice(("prefix", "prefix", "int", "ext", "prob"))
    if op == "prefix":
        return f"{_prefix(rng)}.({_body(rng, depth - 1, names)})"
    left = _body(rng, depth - 1, names)
    right = _body(rng, depth - 1, names)
    if op == "int":
        return f"({left} - {right})"
    if op == "ext":
        return f"({left} + {right})"
    return f"({left} *{{{rng.choice(_PROBS)}}} {right})"


def corpus_program(index: int) -> str:
    """Pool program ``index``: 2 to 4 definitions; main runs two of them
    under a random sync set, sometimes after a third with ';'."""
    rng = random.Random(f"rosa-lts-corpus-{index}")
    names = [f"D{i}" for i in range(rng.randint(2, 4))]
    lines = [f"{name} = {_body(rng, rng.randint(1, 3), names)}" for name in names]
    left, right = rng.sample(names, 2)
    sync = ",".join(a for a in _ACTIONS if rng.random() < 0.35)
    main = f"{left} ||{{{sync}}} {right}"
    if rng.random() < 0.3:
        main = f"{rng.choice(names)};({main})"
    lines.append(f"main = {main}")
    return "\n".join(lines) + "\n"


def load_corpus_ref(path: Path = CORPUS_REF) -> list[dict[str, int]]:
    """Recorded counts of every pool program, by pool index."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    ref = [dict(zip(doc["fields"], row)) for row in doc["counts"]]
    if len(ref) != CORPUS_POOL:
        raise ValueError(f"{path}: expected {CORPUS_POOL} entries, got {len(ref)}")
    return ref


def corpus_indices(seed: int, ref: list[dict[str, int]]) -> list[int]:
    """CORPUS_SIZE distinct pool indices in a seeded order: the
    CORPUS_FIXED largest programs, then one per size stratum of the
    rest, from the largest down."""
    rng = random.Random(seed)
    by_size = sorted(
        range(CORPUS_POOL), key=lambda i: (ref[i]["nodes"] + ref[i]["edges"], i), reverse=True
    )
    picked, rest = by_size[:CORPUS_FIXED], by_size[CORPUS_FIXED:]
    strata = CORPUS_SIZE - CORPUS_FIXED
    width = len(rest) // strata
    picked += [rng.choice(rest[s * width:(s + 1) * width]) for s in range(strata)]
    rng.shuffle(picked)
    return picked


def corpus(seed: int) -> list[Model]:
    """CORPUS_SIZE small programs; the output format rotates through
    text, DOT and JSON by pool index. JSON export of a large program
    takes the most memory, so tying the format to the program keeps
    peak memory from depending on where the seed places it."""
    ref = load_corpus_ref()
    formats = ("text", "dot", "json")
    return [
        Model(f"c{pos:03d}_{index}.rosa", corpus_program(index), formats[index % 3], ref[index])
        for pos, index in enumerate(corpus_indices(seed, ref))
    ]


WORKLOADS = {
    "interleave": interleave,
    "wide": wide,
    "ring": ring,
    "corpus": corpus,
}
