"""The rule layer as it was before the single classification walk.

A verbatim copy of the stability predicates, the rule families and
`classify` from the version that checked stability with separate walks
(``_ds``/``_ps``) at every level. `test_semantics.py` uses it as an
oracle: the current walks must give the same kinds and the same
successor lists, in the same order.

`_unfold` is the dynamic guardedness check that `canonical` used before
it rewrote each definition once: it unfolds the root variables of a
term and raises UnguardedRecursion when a name comes back on the path
since the last guard.
"""

from __future__ import annotations

from builtins import min as sync_rate

from rosa_lts.errors import UnguardedRecursion
from rosa_lts.process import (
    DefinitionEnv,
    ExtChoice,
    IntChoice,
    Nil,
    Par,
    Prefix,
    ProbChoice,
    Process,
    Seq,
    Var,
)
from rosa_lts.semantics import (
    Action,
    NdBranch,
    NodeKind,
    Prob,
)


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


def _ds(p: Process, env: DefinitionEnv, open_: tuple[str, ...]) -> bool:
    p, open_ = _unfold(p, env, open_)
    if isinstance(p, (Nil, Prefix)):
        return True
    if isinstance(p, IntChoice):
        return False
    if isinstance(p, (ExtChoice, ProbChoice, Par)):
        return _ds(p.left, env, open_) and _ds(p.right, env, open_)
    if isinstance(p, Seq):
        return _ds(p.left, env, open_)
    raise TypeError(f"not a Process: {p!r}")


def _ps(p: Process, env: DefinitionEnv, open_: tuple[str, ...]) -> bool:
    p, open_ = _unfold(p, env, open_)
    if isinstance(p, (Nil, Prefix)):
        return True
    if isinstance(p, ProbChoice):
        return False
    if isinstance(p, (ExtChoice, Par)):
        return _ps(p.left, env, open_) and _ps(p.right, env, open_)
    if isinstance(p, Seq):
        return _ps(p.left, env, open_)
    if isinstance(p, IntChoice):
        raise ValueError(
            "probabilistic stability is only defined for deterministically "
            "stable processes"
        )
    raise TypeError(f"not a Process: {p!r}")


def _nd(
    p: Process, env: DefinitionEnv, open_: tuple[str, ...]
) -> list[tuple[str, Process]]:
    if isinstance(p, IntChoice):
        return [("L", p.left), ("R", p.right)]
    out: list[tuple[str, Process]] = []
    if isinstance(p, (ExtChoice, ProbChoice, Par)):
        left, left_open = _unfold(p.left, env, open_)
        if not _ds(left, env, left_open):
            for path, s in _nd(left, env, left_open):
                out.append(("L." + path, _rebuild(p, s, p.right)))
        right, right_open = _unfold(p.right, env, open_)
        if not _ds(right, env, right_open):
            for path, s in _nd(right, env, right_open):
                out.append(("R." + path, _rebuild(p, p.left, s)))
        return out
    if isinstance(p, Seq):
        left, left_open = _unfold(p.left, env, open_)
        for path, s in _nd(left, env, left_open):
            out.append(("L." + path, Seq(s, p.right)))
        return out
    raise ValueError(
        "nd_successors requires a deterministically unstable process, "
        f"got {p}"
    )


def _rebuild(template: Process, left: Process, right: Process) -> Process:
    if isinstance(template, ExtChoice):
        return ExtChoice(left, right)
    if isinstance(template, IntChoice):
        return IntChoice(left, right)
    if isinstance(template, ProbChoice):
        return ProbChoice(template.prob, left, right)
    if isinstance(template, Par):
        return Par(template.sync, left, right)
    raise TypeError(f"not a binary choice or parallel node: {template!r}")


def nd_successors(
    p: Process, env: DefinitionEnv
) -> list[tuple[NdBranch, Process]]:
    """Resolve one unguarded internal choice per successor.

    An IntChoice at the root takes its two axiom branches; otherwise
    each unstable operand contributes its successors re-wrapped in the
    surrounding context, label path prefixed with the operand side, and
    stable operands are left untouched.
    """
    p0, open_ = _unfold(p, env, ())
    return [(NdBranch(path), s) for path, s in _nd(p0, env, open_)]


def _presolve(
    p: Process, env: DefinitionEnv, open_: tuple[str, ...]
) -> list[tuple[float, Process]]:
    if _ps(p, env, open_):
        return [(1.0, p)]
    p, open_ = _unfold(p, env, open_)
    if isinstance(p, ProbChoice):
        out: list[tuple[float, Process]] = []
        if p.prob > 0.0:
            out.extend(
                (p.prob * w, s) for w, s in _presolve(p.left, env, open_)
            )
        if 1.0 - p.prob > 0.0:
            out.extend(
                ((1.0 - p.prob) * w, s)
                for w, s in _presolve(p.right, env, open_)
            )
        return [(w, s) for w, s in out if w > 0.0]
    if isinstance(p, (ExtChoice, Par)):
        return [
            (wl * wr, _rebuild(p, sl, sr))
            for wl, sl in _presolve(p.left, env, open_)
            for wr, sr in _presolve(p.right, env, open_)
        ]
    if isinstance(p, Seq):
        return [
            (w, Seq(s, p.right)) for w, s in _presolve(p.left, env, open_)
        ]
    raise ValueError(f"unexpected probabilistically unstable node: {p}")


def prob_successors(
    p: Process, env: DefinitionEnv
) -> list[tuple[Prob, Process]]:
    """Resolve every unguarded probabilistic choice at once.

    The result is the cartesian product of per-choice resolutions; each
    successor's probability is the product of its chosen branch
    probabilities, zero-probability branches are dropped, and the
    returned probabilities sum to 1 within PROB_TOLERANCE.
    """
    p0, open_ = _unfold(p, env, ())
    if _ps(p0, env, open_):
        raise ValueError(
            "prob_successors requires a probabilistically unstable process, "
            f"got {p0}"
        )
    return [(Prob(w), s) for w, s in _presolve(p0, env, open_)]


def _act(
    p: Process, env: DefinitionEnv, open_: tuple[str, ...]
) -> list[tuple[Action, Process]]:
    p, open_ = _unfold(p, env, open_)
    if isinstance(p, Nil):
        return []
    if isinstance(p, Prefix):
        return [(Action(p.action, p.rate), p.continuation)]
    if isinstance(p, ExtChoice):
        return _act(p.left, env, open_) + _act(p.right, env, open_)
    if isinstance(p, Seq):
        return [
            (label, Seq(s, p.right))
            for label, s in _act(p.left, env, open_)
        ]
    if isinstance(p, Par):
        pmoves = _act(p.left, env, open_)
        qmoves = _act(p.right, env, open_)
        out: list[tuple[Action, Process]] = []
        for label, s in pmoves:
            if label.name not in p.sync:
                out.append((label, Par(p.sync, s, p.right)))
        for label, s in qmoves:
            if label.name not in p.sync:
                out.append((label, Par(p.sync, p.left, s)))
        for pl, ps_ in pmoves:
            if pl.name not in p.sync:
                continue
            for ql, qs in qmoves:
                if ql.name == pl.name:
                    joint = Action(pl.name, sync_rate(pl.rate, ql.rate))
                    out.append((joint, Par(p.sync, ps_, qs)))
        return out
    raise ValueError(
        f"action_successors requires a stable process, got {p}"
    )


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


def classify(p: Process, env: DefinitionEnv) -> NodeKind:
    """Which layer applies, checked in the fixed dispatch order:
    nd-unstable, else prob-unstable, else terminated, else has timed
    moves, else deadlocked. Expects canonical input (a terminated
    process is literally Nil)."""
    p0, open_ = _unfold(p, env, ())
    if not _ds(p0, env, open_):
        return NodeKind.ND_UNSTABLE
    if not _ps(p0, env, open_):
        return NodeKind.PROB_UNSTABLE
    if isinstance(p0, Nil):
        return NodeKind.SUCCESS
    if _act(p0, env, open_):
        return NodeKind.ACTION_ENABLED
    return NodeKind.DEADLOCK
