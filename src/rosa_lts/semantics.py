"""Layered transition rules.

A process moves through up to three layers, checked in a fixed order:
unguarded internal choices resolve first (non-deterministic rules), then
unguarded probabilistic choices (all at once, with product
probabilities), and only a process stable under both runs timed actions.
Every walk covers only the unguarded positions: operands of the choices
and of parallel, and the left of ';' (the right is guarded by
completion of the left). A canonical node's mark holds its layer
(`canonical`), so `classify`, the dispatcher, reads the layer there and
walks only a stable state, for the actions it can fire, to tell a
deadlock from a state that moves. The three `*_successors` functions
are the rule families: each checks the mark of its argument once, then
makes one linear walk that enters only the operands marked with its
layer and leaves the others as written. A joint move takes the plain
``min`` of its two rates, whose identity is the passive rate `INF`.

The rules read canonical terms and return canonical successors. Each
entry point first canonicalizes its argument, which returns an already
canonical node at once, so it answers for the canonical form: the same
kinds, ``nd:`` paths and successors the builder emits. A canonical term
has no unguarded variable, so unfolding and the unguarded-recursion
check live in `canonical`.

A walk builds each successor canonical on its way back up: every level
it climbs puts the node's kind back over the new operands through
`canonical.rewrap` (S1-S4 on that node), and a fired prefix
canonicalizes its continuation, which may unfold a variable and so
raise UnguardedRecursion. A successor that another state, or another
rule, has built already is the same object, and the builder finds
every successor marked canonical: a node's mark is set where the node
is built and depends on the node alone.

Each walk keeps a memo in the build's record (`canonical._Build`), from
the ``id`` of a non-leaf node to the walk's result for it. The offers
walk has its own, and the three rule walks share one: each enters only
the nodes marked with its own layer, and a node's mark never changes.
A walk marks a node the first time it meets it and keeps the result
from the second time on, so a shared subterm is walked below at most
twice per build, and a node met once (each level of one very wide
term) leaves no list for the collector to trace in a library build (the
command line pauses it). A result is a pure function of a canonical
node and the record's environment and node table, which one build
holds fixed, and no id is reused while the record lives, as an admitted
state or the node table holds every node a walk reads. The builder
only iterates a cached list.

Every label a rule emits comes from the record's label table
(`canonical._Labels`), keyed by class and fields, as does the summed
`Prob` of each edge the builder merges. A build thus makes each
distinct label once, through its checking constructor, and every move
with that label holds the same object.
"""

from __future__ import annotations

import enum

from .canonical import ND, PROB, STABLE, _build_of, _Build, _canon, canonicalize, rewrap
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
    _check_name,
    _number,
    _rate,
    _set,
)

#: Slack for probability sums accumulated from branch products.
PROB_TOLERANCE = 1e-9


class NdBranch(_Record):
    """Resolution of one internal choice; ``path`` locates it ("L", "R",
    or a dotted congruence path like "L.R")."""

    __slots__ = __match_args__ = ("path",)

    def __init__(self, path: str) -> None:
        if not isinstance(path, str) or not path:
            raise ValueError(f"branch path must be a non-empty string: {path!r}")
        _set(self, "path", path)


class Prob(_Record):
    """Probabilistic resolution taken with probability ``p``."""

    __slots__ = __match_args__ = ("p",)

    def __init__(self, p: float) -> None:
        value = _number(p, "probability")
        # Merged parallel branches can overshoot 1 by float error.
        if not (0.0 < value <= 1.0 + PROB_TOLERANCE):
            raise ValueError(f"probability out of (0,1]: {value!r}")
        _set(self, "p", value)


class Action(_Record):
    """Timed execution of a named action."""

    __slots__ = __match_args__ = ("name", "rate")

    def __init__(self, name: str, rate: float) -> None:
        _check_name(name, "action name")
        _set(self, "name", name)
        _set(self, "rate", _rate(rate))


TransitionLabel = NdBranch | Prob | Action


class NodeKind(enum.Enum):
    ND_UNSTABLE = "nd"
    PROB_UNSTABLE = "prob"
    ACTION_ENABLED = "action"
    DEADLOCK = "deadlock"
    SUCCESS = "success"


# offers walk ---------------------------------------------------------

# Memo entries (module docstring): no entry, and a node met once.
_NEW, _ONCE = object(), object()


def _offers(p: Process, memo: dict) -> tuple[str, ...]:
    """The action names a stable ``p`` can fire."""
    kind = type(p)
    if kind is Prefix:
        return (p.action,)
    if kind is Nil:
        return ()
    key = id(p)
    seen = memo.get(key, _NEW)
    if seen is not _NEW and seen is not _ONCE:
        return seen
    left = _offers(p.left, memo)
    if kind is Seq:
        out = left
    else:
        right = _offers(p.right, memo)
        out = left + right
        if kind is Par and p.sync:
            # A name in the sync set fires only if both sides offer it.
            out = tuple(n for n in out if n not in p.sync
                        or (n in left and n in right))
    memo[key] = out if seen is _ONCE else _ONCE
    return out


def classify(p: Process, env: DefinitionEnv) -> NodeKind:
    """Which layer applies to the canonical form of ``p``, checked in
    the fixed dispatch order: nd-unstable, else prob-unstable, else
    terminated, else has timed moves, else deadlocked."""
    b = _build_of(env)
    p = canonicalize(p, b)
    layer = p._canonical
    if layer == ND:
        return NodeKind.ND_UNSTABLE
    if layer == PROB:
        return NodeKind.PROB_UNSTABLE
    if type(p) is Nil:
        return NodeKind.SUCCESS
    return NodeKind.ACTION_ENABLED if _offers(p, b.offers) else NodeKind.DEADLOCK


# non-deterministic rules ---------------------------------------------


def _nd(p: Process, b: _Build, memo: dict) -> list[tuple[str, Process]]:
    """``(path, successor)`` per unguarded internal choice of an
    nd-unstable ``p``; its other operands are left as they are."""
    kind = type(p)
    if kind is IntChoice:
        return [("L", p.left), ("R", p.right)]
    key = id(p)
    seen = memo.get(key, _NEW)
    if seen is not _NEW and seen is not _ONCE:
        return seen
    left, right = p.left, p.right
    out = []
    if left._canonical == ND:
        out += [("L." + k, rewrap(p, b, s, right)) for k, s in _nd(left, b, memo)]
    if kind is not Seq and right._canonical == ND:
        out += [("R." + k, rewrap(p, b, left, s)) for k, s in _nd(right, b, memo)]
    memo[key] = out if seen is _ONCE else _ONCE
    return out


def nd_successors(
    p: Process, env: DefinitionEnv
) -> list[tuple[NdBranch, Process]]:
    """Resolve one unguarded internal choice of the canonical form of
    ``p`` per successor.

    An IntChoice at the root takes its two axiom branches; otherwise
    each unstable operand contributes its successors re-wrapped in the
    surrounding context, label path prefixed with the operand side, and
    stable operands are left untouched. Each successor is canonical.
    Raises ValueError for a deterministically stable ``p``.
    """
    b = _build_of(env)
    p = canonicalize(p, b)
    if p._canonical != ND:
        raise ValueError("nd_successors requires a deterministically "
                         f"unstable process, got {p}")
    return [(b.labels[NdBranch, path], s) for path, s in _nd(p, b, b.moves)]


# probabilistic rules -------------------------------------------------


def _presolve(p: Process, b: _Build, memo: dict) -> list[tuple[float, Process]]:
    """``(weight, successor)`` per resolution of the unguarded prob
    choices of a prob-unstable ``p``; its stable operands are kept as
    they are."""
    key = id(p)
    seen = memo.get(key, _NEW)
    if seen is not _NEW and seen is not _ONCE:
        return seen
    kind = type(p)
    if kind is ProbChoice:
        out = []
        for w, branch in ((p.prob, p.left), (1.0 - p.prob, p.right)):
            out += ([(w * ws, s) for ws, s in _presolve(branch, b, memo)]
                    if branch._canonical == PROB else [(w, branch)])
    elif kind is Seq:
        out = [(w, rewrap(p, b, s)) for w, s in _presolve(p.left, b, memo)]
    else:
        left, right = p.left, p.right
        out = [
            (wl * wr, rewrap(p, b, sl, sr))
            for wl, sl in (_presolve(left, b, memo)
                           if left._canonical == PROB else [(1.0, left)])
            for wr, sr in (_presolve(right, b, memo)
                           if right._canonical == PROB else [(1.0, right)])
        ]
    memo[key] = out if seen is _ONCE else _ONCE
    return out


def prob_successors(
    p: Process, env: DefinitionEnv
) -> list[tuple[Prob, Process]]:
    """Resolve every unguarded probabilistic choice of the canonical
    form of ``p`` at once.

    The result is the cartesian product of per-choice resolutions; each
    successor's probability is the product of its chosen branch
    probabilities, and the returned probabilities sum to 1 within
    PROB_TOLERANCE. Each successor is canonical.
    """
    b = _build_of(env)
    p = canonicalize(p, b)
    if p._canonical != PROB:
        raise ValueError("prob_successors requires a probabilistically "
                         f"unstable process, got {p}")
    # A zero branch, or a product of small weights that underflows,
    # leaves no successor.
    return [(b.labels[Prob, w], s) for w, s in _presolve(p, b, b.moves) if w > 0.0]


# action rules --------------------------------------------------------


def _act(p: Process, b: _Build, memo: dict) -> list[tuple[Action, Process]]:
    kind = type(p)
    if kind is Prefix:
        # `_canon` itself, not a helper: one frame less per fired prefix.
        return [(b.labels[Action, p.action, p.rate], _canon(p.continuation, b, False))]
    if kind is Nil:
        return []
    key = id(p)
    seen = memo.get(key, _NEW)
    if seen is not _NEW and seen is not _ONCE:
        return seen
    if kind is ExtChoice:
        out = _act(p.left, b, memo) + _act(p.right, b, memo)
    elif kind is Seq:
        out = [(lbl, rewrap(p, b, s)) for lbl, s in _act(p.left, b, memo)]
    else:
        pmoves = _act(p.left, b, memo)
        qmoves = _act(p.right, b, memo)
        sync, left, right = p.sync, p.left, p.right
        out = [(a, rewrap(p, b, s, right)) for a, s in pmoves if a.name not in sync]
        out += [(a, rewrap(p, b, left, s)) for a, s in qmoves if a.name not in sync]
        out += [
            (b.labels[Action, pl.name, min(pl.rate, ql.rate)], rewrap(p, b, ps_, qs))
            for pl, ps_ in pmoves if pl.name in sync
            for ql, qs in qmoves if ql.name == pl.name
        ]
    memo[key] = out if seen is _ONCE else _ONCE
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
    then joint moves. The empty result is a deadlock. Each successor is
    canonical, so a fired prefix's continuation is unfolded, and a cycle
    of unguarded definitions there raises UnguardedRecursion.
    """
    b = _build_of(env)
    p = canonicalize(p, b)
    if p._canonical != STABLE:
        raise ValueError(f"action_successors requires a stable process, got {p}")
    return _act(p, b, b.moves)
