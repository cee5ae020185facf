"""Layered transition rules.

A process moves through up to three layers, checked in a fixed order:
unguarded internal choices resolve first (non-deterministic rules), then
unguarded probabilistic choices (all at once, with product
probabilities), and only a process stable under both runs timed actions.
Every walk covers only the unguarded positions: operands of the choices
and of parallel, the left of ';' (the right is guarded by completion of
the left), and through variables. `classify` is the dispatcher, one
walk that builds no term and yields the layer and the actions a stable
state can fire. The three `*_successors` functions are the rule
families, each one linear walk that leaves stable operands as written.

Recursion through process variables must pass an action guard. The
walkers never descend below a prefix, so each carries the names it has
unfolded on its current path (each operand gets its own path). Meeting
one of them again means the walk would repeat itself forever, so
exactly then it raises UnguardedRecursion naming the cycle (``P = P``,
``P = 0;P``, or ``P = Q||{}0`` with ``Q = P+a.0``). Sibling operands
and separate calls share nothing, so no count of unfolds can run out.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TypeAlias, Union

from .errors import UnguardedRecursion
from .process import (
    DefinitionEnv,
    ExtChoice,
    Infinite,
    IntChoice,
    Nil,
    Par,
    Prefix,
    ProbChoice,
    Process,
    Rate,
    Seq,
    Var,
)

#: Slack for probability sums accumulated from branch products.
PROB_TOLERANCE = 1e-9


@dataclass(frozen=True)
class NdBranch:
    """Resolution of one internal choice; ``path`` locates it ("L", "R",
    or a dotted congruence path like "L.R")."""

    path: str

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("empty branch path")


@dataclass(frozen=True)
class Prob:
    """Probabilistic resolution taken with probability ``p``."""

    p: float

    def __post_init__(self) -> None:
        # Merged parallel branches can overshoot 1 by float error.
        if not (0.0 < self.p <= 1.0 + PROB_TOLERANCE):
            raise ValueError(f"probability out of (0,1]: {self.p!r}")
        object.__setattr__(self, "p", float(self.p))


@dataclass(frozen=True)
class Action:
    """Timed execution of a named action."""

    name: str
    rate: Rate


TransitionLabel: TypeAlias = Union[NdBranch, Prob, Action]


class NodeKind(enum.Enum):
    ND_UNSTABLE = "nd"
    PROB_UNSTABLE = "prob"
    ACTION_ENABLED = "action"
    DEADLOCK = "deadlock"
    SUCCESS = "success"


def _unfold(
    p: Process, env: DefinitionEnv, open_: tuple[str, ...]
) -> tuple[Process, tuple[str, ...]]:
    """Unfold root variables of ``p``; ``open_`` holds the names already
    unfolded on this path since the last action guard. The walk keeps
    a list and a set, so a chain of aliases unfolds in linear time."""
    if not isinstance(p, Var):
        return p, open_
    path = list(open_)
    seen = set(open_)
    while isinstance(p, Var):
        name = p.name
        if name in seen:
            raise UnguardedRecursion(tuple(path[path.index(name):]) + (name,))
        path.append(name)
        seen.add(name)
        p = env.lookup(name)
    return p, tuple(path)


def unfold(p: Process, env: DefinitionEnv) -> Process:
    """Replace a root-position variable by its binding until the root is
    a real constructor; a name that comes back is unguarded recursion."""
    return _unfold(p, env, ())[0]


def sync_rate(alpha: Rate, beta: Rate) -> Rate:
    """Rate of a joint move: the minimum, with the infinite (passive)
    rate as top element, so a passive side adopts its partner's rate."""
    if isinstance(alpha, Infinite):
        return beta
    if isinstance(beta, Infinite):
        return alpha
    return min(alpha, beta)


# layer walk ----------------------------------------------------------

_BINARY = (ExtChoice, Par, ProbChoice)
_ND = (NodeKind.ND_UNSTABLE, ())
_PROB = (NodeKind.PROB_UNSTABLE, ())
_NEEDS_DET_STABLE = ("probabilistic stability is only defined for "
                     "deterministically stable processes")


def _layer(
    p: Process, env: DefinitionEnv, open_: tuple[str, ...]
) -> tuple[NodeKind | None, tuple[str, ...]]:
    """``(layer, offers)``: ND_UNSTABLE, PROB_UNSTABLE or None (stable),
    and the action names a stable ``p`` can fire. An nd left operand
    ends the walk: the right is not visited."""
    if type(p) is Var:
        p, open_ = _unfold(p, env, open_)
    kind = type(p)
    if kind is Prefix:
        return None, (p.action,)
    if kind is Nil:
        return None, ()
    if kind is IntChoice:
        return _ND
    if kind is Seq:
        return _layer(p.left, env, open_)
    if kind not in _BINARY:
        raise TypeError(f"not a Process: {p!r}")
    left, left_offers = _layer(p.left, env, open_)
    if left is NodeKind.ND_UNSTABLE:
        return _ND
    right, right_offers = _layer(p.right, env, open_)
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


def is_det_stable(p: Process, env: DefinitionEnv) -> bool:
    """False iff ``p`` contains an unguarded internal choice."""
    return _layer(p, env, ())[0] is not NodeKind.ND_UNSTABLE


def is_prob_stable(p: Process, env: DefinitionEnv) -> bool:
    """False iff ``p`` contains an unguarded probabilistic choice.
    Requires ``is_det_stable(p, env)``; raises ValueError otherwise."""
    layer = _layer(p, env, ())[0]
    if layer is NodeKind.ND_UNSTABLE:
        raise ValueError(_NEEDS_DET_STABLE)
    return layer is None


def classify(p: Process, env: DefinitionEnv) -> NodeKind:
    """Which layer applies, checked in the fixed dispatch order:
    nd-unstable, else prob-unstable, else terminated, else has timed
    moves, else deadlocked. Expects canonical input (a terminated
    process is literally Nil)."""
    p0, open_ = _unfold(p, env, ())
    layer, offers = _layer(p0, env, open_)
    if layer is not None:
        return layer
    if type(p0) is Nil:
        return NodeKind.SUCCESS
    return NodeKind.ACTION_ENABLED if offers else NodeKind.DEADLOCK


def _rebuild(template: Process, left: Process, right: Process) -> Process:
    kind = type(template)
    if kind is Par:
        return Par(template.sync, left, right)
    if kind is ProbChoice:
        return ProbChoice(template.prob, left, right)
    return ExtChoice(left, right)


# non-deterministic rules ---------------------------------------------


def _nd(
    p: Process, env: DefinitionEnv, open_: tuple[str, ...]
) -> list[tuple[str, Process]]:
    """``(path, successor)`` per unguarded internal choice; empty for a
    deterministically stable ``p``."""
    if type(p) is Var:
        p, open_ = _unfold(p, env, open_)
    kind = type(p)
    if kind is IntChoice:
        return [("L", p.left), ("R", p.right)]
    if kind is Prefix or kind is Nil:
        return []
    if kind is Seq:
        return [("L." + k, Seq(s, p.right)) for k, s in _nd(p.left, env, open_)]
    if kind not in _BINARY:
        raise TypeError(f"not a Process: {p!r}")
    left, right = p.left, p.right
    out = [("L." + k, _rebuild(p, s, right)) for k, s in _nd(left, env, open_)]
    out += [("R." + k, _rebuild(p, left, s)) for k, s in _nd(right, env, open_)]
    return out


def nd_successors(
    p: Process, env: DefinitionEnv
) -> list[tuple[NdBranch, Process]]:
    """Resolve one unguarded internal choice per successor.

    An IntChoice at the root takes its two axiom branches; otherwise
    each unstable operand contributes its successors re-wrapped in the
    surrounding context, label path prefixed with the operand side, and
    stable operands are left untouched. Raises ValueError for a
    deterministically stable ``p``.
    """
    out = _nd(p, env, ())
    if not out:
        raise ValueError("nd_successors requires a deterministically "
                         f"unstable process, got {p}")
    return [(NdBranch(path), s) for path, s in out]


# probabilistic rules -------------------------------------------------


def _presolve(
    p: Process, env: DefinitionEnv, open_: tuple[str, ...]
) -> list[tuple[float, Process]] | None:
    """``(weight, successor)`` per resolution of the unguarded prob
    choices; None if there is none, and the caller keeps ``p`` as is."""
    if type(p) is Var:
        p, open_ = _unfold(p, env, open_)
    kind = type(p)
    if kind is Prefix or kind is Nil:
        return None
    if kind is ProbChoice:
        out: list[tuple[float, Process]] = []
        for w, branch in ((p.prob, p.left), (1.0 - p.prob, p.right)):
            if w > 0.0:
                sub = _presolve(branch, env, open_)
                out.extend([(w, branch)] if sub is None else
                           [(w * ws, s) for ws, s in sub])
        return [(w, s) for w, s in out if w > 0.0]
    if kind is ExtChoice or kind is Par:
        left = _presolve(p.left, env, open_)
        right = _presolve(p.right, env, open_)
        if left is None and right is None:
            return None
        return [
            (wl * wr, _rebuild(p, sl, sr))
            for wl, sl in ([(1.0, p.left)] if left is None else left)
            for wr, sr in ([(1.0, p.right)] if right is None else right)
        ]
    if kind is Seq:
        left = _presolve(p.left, env, open_)
        return None if left is None else [(w, Seq(s, p.right)) for w, s in left]
    if kind is IntChoice:
        raise ValueError(_NEEDS_DET_STABLE)
    raise TypeError(f"not a Process: {p!r}")


def prob_successors(
    p: Process, env: DefinitionEnv
) -> list[tuple[Prob, Process]]:
    """Resolve every unguarded probabilistic choice at once.

    The result is the cartesian product of per-choice resolutions; each
    successor's probability is the product of its chosen branch
    probabilities, zero-probability branches are dropped, and the
    returned probabilities sum to 1 within PROB_TOLERANCE.
    """
    out = _presolve(p, env, ())
    if out is None:
        raise ValueError("prob_successors requires a probabilistically "
                         f"unstable process, got {p}")
    return [(Prob(w), s) for w, s in out]


# action rules --------------------------------------------------------


def _act(
    p: Process, env: DefinitionEnv, open_: tuple[str, ...]
) -> list[tuple[Action, Process]]:
    if type(p) is Var:
        p, open_ = _unfold(p, env, open_)
    kind = type(p)
    if kind is Prefix:
        return [(Action(p.action, p.rate), p.continuation)]
    if kind is Nil:
        return []
    if kind is ExtChoice:
        return _act(p.left, env, open_) + _act(p.right, env, open_)
    if kind is Seq:
        return [(lbl, Seq(s, p.right)) for lbl, s in _act(p.left, env, open_)]
    if kind is not Par:
        raise ValueError(f"action_successors requires a stable process, got {p}")
    pmoves = _act(p.left, env, open_)
    qmoves = _act(p.right, env, open_)
    sync, left, right = p.sync, p.left, p.right
    out = [(a, Par(sync, s, right)) for a, s in pmoves if a.name not in sync]
    out += [(a, Par(sync, left, s)) for a, s in qmoves if a.name not in sync]
    out += [
        (Action(pl.name, sync_rate(pl.rate, ql.rate)), Par(sync, ps_, qs))
        for pl, ps_ in pmoves if pl.name in sync
        for ql, qs in qmoves if ql.name == pl.name
    ]
    return out


def action_successors(
    p: Process, env: DefinitionEnv
) -> list[tuple[Action, Process]]:
    """All single-step timed transitions of a stable process.

    Prefixes fire; external choice keeps both sides' moves and discards
    the loser; parallel interleaves actions outside the sync set and
    pairs up matching offers inside it (an unmatched offer blocks);
    ``P;Q`` moves by P. Order: prefix/choice moves left to right, and
    for parallel first left interleavings, then right, then joint moves.
    The empty result is a deadlock.
    """
    return _act(p, env, ())
