"""Layered transition rules.

A process moves through up to three layers, checked in a fixed order:
unguarded internal choices resolve first (non-deterministic rules), then
unguarded probabilistic choices (all at once, with product
probabilities), and only a process stable under both runs timed actions.
Every walk covers only the unguarded positions: operands of the choices
and of parallel, and the left of ';' (the right is guarded by
completion of the left). `classify` is the dispatcher, one walk that
builds no term and yields the layer and the actions a stable state can
fire. The three `*_successors` functions are the rule families, each
one linear walk that leaves stable operands as written. A joint move
takes the plain ``min`` of its two rates, whose identity is the passive
rate `INF`.

The rules read canonical terms. Each entry point first canonicalizes
its argument, which returns an already canonical node at once, so it
answers for the canonical form: the same kinds, ``nd:`` paths and
successors the builder emits. A canonical term has no unguarded
variable, so unfolding and the unguarded-recursion check live in
`canonical`.

The rules take each node they build from the build's table of shared
nodes (`process.rebuild`). A successor that another state, or another
rule, has built already is the same object, so the builder finds it
canonical, and its key printed, at once.
"""

from __future__ import annotations

import enum

from .canonical import canonicalize
from .process import (
    DefinitionEnv,
    ExtChoice,
    IntChoice,
    Nil,
    Par,
    Prefix,
    ProbChoice,
    Process,
    Seq,
    _Record,
    _set,
    rebuild,
)

#: Slack for probability sums accumulated from branch products.
PROB_TOLERANCE = 1e-9


class NdBranch(_Record):
    """Resolution of one internal choice; ``path`` locates it ("L", "R",
    or a dotted congruence path like "L.R")."""

    __slots__ = __match_args__ = ("path",)

    def __init__(self, path: str) -> None:
        if not path:
            raise ValueError("empty branch path")
        _set(self, "path", path)


class Prob(_Record):
    """Probabilistic resolution taken with probability ``p``."""

    __slots__ = __match_args__ = ("p",)

    def __init__(self, p: float) -> None:
        # Merged parallel branches can overshoot 1 by float error.
        if not (0.0 < p <= 1.0 + PROB_TOLERANCE):
            raise ValueError(f"probability out of (0,1]: {p!r}")
        _set(self, "p", float(p))


class Action(_Record):
    """Timed execution of a named action."""

    __slots__ = __match_args__ = ("name", "rate")

    def __init__(self, name: str, rate: float) -> None:
        _set(self, "name", name)
        _set(self, "rate", rate)


TransitionLabel = NdBranch | Prob | Action


class NodeKind(enum.Enum):
    ND_UNSTABLE = "nd"
    PROB_UNSTABLE = "prob"
    ACTION_ENABLED = "action"
    DEADLOCK = "deadlock"
    SUCCESS = "success"


# layer walk ----------------------------------------------------------

_ND = (NodeKind.ND_UNSTABLE, ())
_PROB = (NodeKind.PROB_UNSTABLE, ())


def _layer(p: Process) -> tuple[NodeKind | None, tuple[str, ...]]:
    """``(layer, offers)``: ND_UNSTABLE, PROB_UNSTABLE or None (stable),
    and the action names a stable ``p`` can fire. An nd left operand
    ends the walk: the right is not visited."""
    kind = type(p)
    if kind is Prefix:
        return None, (p.action,)
    if kind is Nil:
        return None, ()
    if kind is IntChoice:
        return _ND
    if kind is Seq:
        return _layer(p.left)
    left, left_offers = _layer(p.left)
    if left is NodeKind.ND_UNSTABLE:
        return _ND
    right, right_offers = _layer(p.right)
    if right is NodeKind.ND_UNSTABLE:
        return _ND
    if kind is ProbChoice or left is not None or right is not None:
        return _PROB
    offers = left_offers + right_offers
    if kind is Par and p.sync:
        # A name in the sync set fires only if both sides offer it.
        offers = tuple(n for n in offers if n not in p.sync
                       or (n in left_offers and n in right_offers))
    return None, offers


def classify(p: Process, env: DefinitionEnv) -> NodeKind:
    """Which layer applies to the canonical form of ``p``, checked in
    the fixed dispatch order: nd-unstable, else prob-unstable, else
    terminated, else has timed moves, else deadlocked."""
    p = canonicalize(p, env)
    layer, offers = _layer(p)
    if layer is not None:
        return layer
    if type(p) is Nil:
        return NodeKind.SUCCESS
    return NodeKind.ACTION_ENABLED if offers else NodeKind.DEADLOCK


# non-deterministic rules ---------------------------------------------


def _nd(p: Process, terms: dict) -> list[tuple[str, Process]]:
    """``(path, successor)`` per unguarded internal choice; empty for a
    deterministically stable ``p``."""
    kind = type(p)
    if kind is IntChoice:
        return [("L", p.left), ("R", p.right)]
    if kind is Prefix or kind is Nil:
        return []
    left, right = p.left, p.right
    out = [("L." + k, rebuild(terms, p, s, right)) for k, s in _nd(left, terms)]
    if kind is not Seq:
        out += [("R." + k, rebuild(terms, p, left, s)) for k, s in _nd(right, terms)]
    return out


def nd_successors(
    p: Process, env: DefinitionEnv
) -> list[tuple[NdBranch, Process]]:
    """Resolve one unguarded internal choice of the canonical form of
    ``p`` per successor.

    An IntChoice at the root takes its two axiom branches; otherwise
    each unstable operand contributes its successors re-wrapped in the
    surrounding context, label path prefixed with the operand side, and
    stable operands are left untouched. Raises ValueError for a
    deterministically stable ``p``.
    """
    p = canonicalize(p, env)
    out = _nd(p, env._shared_terms())
    if not out:
        raise ValueError("nd_successors requires a deterministically "
                         f"unstable process, got {p}")
    return [(NdBranch(path), s) for path, s in out]


# probabilistic rules -------------------------------------------------


def _presolve(p: Process, terms: dict) -> list[tuple[float, Process]] | None:
    """``(weight, successor)`` per resolution of the unguarded prob
    choices; None if there is none, and the caller keeps ``p`` as is."""
    kind = type(p)
    if kind is Prefix or kind is Nil:
        return None
    if kind is ProbChoice:
        out: list[tuple[float, Process]] = []
        for w, branch in ((p.prob, p.left), (1.0 - p.prob, p.right)):
            sub = _presolve(branch, terms)
            out.extend([(w, branch)] if sub is None else
                       [(w * ws, s) for ws, s in sub])
        return out
    if kind is Seq:
        left = _presolve(p.left, terms)
        if left is None:
            return None
        return [(w, rebuild(terms, p, s, p.right)) for w, s in left]
    if kind is IntChoice:
        raise ValueError("probabilistic stability is only defined for "
                         "deterministically stable processes")
    left = _presolve(p.left, terms)
    right = _presolve(p.right, terms)
    if left is None and right is None:
        return None
    return [
        (wl * wr, rebuild(terms, p, sl, sr))
        for wl, sl in ([(1.0, p.left)] if left is None else left)
        for wr, sr in ([(1.0, p.right)] if right is None else right)
    ]


def prob_successors(
    p: Process, env: DefinitionEnv
) -> list[tuple[Prob, Process]]:
    """Resolve every unguarded probabilistic choice of the canonical
    form of ``p`` at once.

    The result is the cartesian product of per-choice resolutions; each
    successor's probability is the product of its chosen branch
    probabilities, and the returned probabilities sum to 1 within
    PROB_TOLERANCE.
    """
    p = canonicalize(p, env)
    out = _presolve(p, env._shared_terms())
    if out is None:
        raise ValueError("prob_successors requires a probabilistically "
                         f"unstable process, got {p}")
    # A zero branch, or a product of small weights that underflows,
    # leaves no successor.
    return [(Prob(w), s) for w, s in out if w > 0.0]


# action rules --------------------------------------------------------


def _act(p: Process, terms: dict) -> list[tuple[Action, Process]]:
    kind = type(p)
    if kind is Prefix:
        return [(Action(p.action, p.rate), p.continuation)]
    if kind is Nil:
        return []
    if kind is ExtChoice:
        return _act(p.left, terms) + _act(p.right, terms)
    if kind is Seq:
        return [(lbl, rebuild(terms, p, s, p.right)) for lbl, s in _act(p.left, terms)]
    if kind is not Par:
        raise ValueError(f"action_successors requires a stable process, got {p}")
    pmoves = _act(p.left, terms)
    qmoves = _act(p.right, terms)
    sync, left, right = p.sync, p.left, p.right
    out = [(a, rebuild(terms, p, s, right))
           for a, s in pmoves if a.name not in sync]
    out += [(a, rebuild(terms, p, left, s))
            for a, s in qmoves if a.name not in sync]
    out += [
        (Action(pl.name, min(pl.rate, ql.rate)), rebuild(terms, p, ps_, qs))
        for pl, ps_ in pmoves if pl.name in sync
        for ql, qs in qmoves if ql.name == pl.name
    ]
    return out


def action_successors(
    p: Process, env: DefinitionEnv
) -> list[tuple[Action, Process]]:
    """All single-step timed transitions of the canonical form of a
    stable process.

    Prefixes fire; external choice keeps both sides' moves and discards
    the loser; parallel interleaves actions outside the sync set and
    pairs up matching offers inside it (an unmatched offer blocks) at
    the smaller of the two rates, so a passive (`INF`) side adopts its
    partner's rate; ``P;Q`` moves by P. Order: prefix/choice moves left
    to right, and for parallel first left interleavings, then right,
    then joint moves. The empty result is a deadlock.
    """
    return _act(canonicalize(p, env), env._shared_terms())
