"""Seeded random process generators shared by the property tests."""

from __future__ import annotations

import random

from rosa_lts import (
    INF,
    NIL,
    DefinitionEnv,
    ExtChoice,
    IntChoice,
    Par,
    Prefix,
    ProbChoice,
    Process,
    Seq,
    Var,
)

ACTIONS = ["a", "b", "c", "d", "e"]
VAR_NAMES = ["P", "Q", "X"]

# Guarded, mutually recursive bodies for VAR_NAMES, so that processes
# generated with allow_var=True can be canonicalized and built.
VAR_ENV = DefinitionEnv(
    bindings={
        "P": Prefix("a", 1.0, Var("P")),
        "Q": ExtChoice(Prefix("b", INF, Var("Q")), Var("P")),
        "X": Par(frozenset({"a"}), Var("P"), Prefix("c", 0.5, Var("X"))),
    }
)


def for_process(p: Process) -> DefinitionEnv:
    """A one-binding environment that analyses ``p`` as ``main``."""
    return DefinitionEnv(bindings={"main": p})


# rates whose repr round-trips cleanly and that exercise min-rate sync
RATES = [0.1, 0.3, 0.5, 1.0, 2.5, 10.0]

# dyadic probabilities add without float error, which keeps the
# bisimilarity oracle's block sums exact across differently-merged edges
DYADIC_PROBS = [0.25, 0.5, 0.75]


def gen_rate(rng: random.Random):
    return INF if rng.random() < 0.3 else rng.choice(RATES)


def gen_prob(rng: random.Random, dyadic: bool) -> float:
    if dyadic:
        return rng.choice(DYADIC_PROBS)
    return round(rng.uniform(0.0, 1.0), 3)


def gen_process(
    rng: random.Random,
    depth: int,
    *,
    allow_var: bool = False,
    dyadic: bool = False,
) -> Process:
    """A random closed (unless allow_var) process of height <= depth."""
    if depth <= 0:
        kinds = ["nil", "prefix", "var"] if allow_var else ["nil", "prefix"]
        kind = rng.choice(kinds)
        if kind == "nil":
            return NIL
        if kind == "var":
            return Var(rng.choice(VAR_NAMES))
        return Prefix(rng.choice(ACTIONS), gen_rate(rng), NIL)
    kind = rng.choice(
        ["prefix", "prefix", "seq", "int", "ext", "prob", "par", "leaf"]
    )
    if kind == "leaf":
        return gen_process(rng, 0, allow_var=allow_var, dyadic=dyadic)
    if kind == "prefix":
        return Prefix(
            rng.choice(ACTIONS),
            gen_rate(rng),
            gen_process(rng, depth - 1, allow_var=allow_var, dyadic=dyadic),
        )
    left = gen_process(rng, depth - 1, allow_var=allow_var, dyadic=dyadic)
    right = gen_process(rng, depth - 1, allow_var=allow_var, dyadic=dyadic)
    if kind == "seq":
        return Seq(left, right)
    if kind == "int":
        return IntChoice(left, right)
    if kind == "ext":
        return ExtChoice(left, right)
    if kind == "prob":
        return ProbChoice(gen_prob(rng, dyadic), left, right)
    sync = frozenset(
        a for a in ACTIONS if rng.random() < 0.3
    )
    return Par(sync, left, right)


def gen_program(rng: random.Random, depth: int = 3) -> str:
    """Program text shaped like the benchmark corpus: VAR_ENV's
    definitions and a ``main`` that runs two generated processes, which
    may name them, in parallel on a sync set of two or three names."""
    sync = ",".join(sorted(rng.sample(ACTIONS, rng.randint(2, 3))))
    left, right = (gen_process(rng, depth, allow_var=True) for _ in range(2))
    lines = [f"{name} = {body}" for name, body in VAR_ENV.bindings.items()]
    return "\n".join(lines + [f"main = ({left}) ||{{{sync}}} ({right})"]) + "\n"


def has_prob_choice(p: Process) -> bool:
    if isinstance(p, ProbChoice):
        return True
    if isinstance(p, Prefix):
        return has_prob_choice(p.continuation)
    if isinstance(p, (Seq, IntChoice, ExtChoice, Par)):
        return has_prob_choice(p.left) or has_prob_choice(p.right)
    return False


def gen_probabilistic_process(rng: random.Random, depth: int) -> Process:
    """A closed process guaranteed to contain a probabilistic choice."""
    while True:
        p = gen_process(rng, depth, dyadic=False)
        if has_prob_choice(p):
            return p
