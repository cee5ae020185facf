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

These rules spell each successor as the rule builds it, where the
package's rules return canonical successors. `canonicalize` is the
rewrite system of `rosa_lts.canonical`, S1-S5, written out once more on
fresh nodes: it reads no table of shared nodes and no canonical mark,
so a fault in the package's rewrite does not reach the oracle. It
shares only the constructors and `pretty_print` with the package.
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
    pretty_print,
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


def canonicalize(p: Process, env: DefinitionEnv) -> Process:
    """The canonical form of ``p``, by the rules S1-S5 of
    `rosa_lts.canonical` applied innermost first; variables unfold at
    unguarded positions only."""
    return _canon(p, env, (), False)


def _canon(
    p: Process, env: DefinitionEnv, open_: tuple[str, ...], guarded: bool
) -> Process:
    if not guarded:
        p, open_ = _unfold(p, env, open_)
    if isinstance(p, (Nil, Var)):
        return p
    if isinstance(p, Prefix):
        return Prefix(p.action, p.rate, _canon(p.continuation, env, (), True))
    if isinstance(p, Seq):
        left = _canon(p.left, env, open_, guarded)
        if isinstance(left, Nil):
            return _canon(p.right, env, open_, guarded)  # S1
        return Seq(left, _canon(p.right, env, (), True))
    if isinstance(p, ProbChoice) and p.prob in (0.0, 1.0):
        live = p.left if p.prob == 1.0 else p.right
        return _canon(live, env, open_, guarded)  # S5
    left = _canon(p.left, env, open_, guarded)
    right = _canon(p.right, env, open_, guarded)
    if isinstance(p, Par) and isinstance(left, Nil) and isinstance(right, Nil):
        return Nil()  # S2
    left_key, right_key = pretty_print(left), pretty_print(right)
    if left_key == right_key and not isinstance(p, Par):
        # S3, and one weight for a choice between equal operands (S4).
        return ProbChoice(0.5, left, left) if isinstance(p, ProbChoice) else left
    if right_key < left_key:  # S4
        if isinstance(p, ProbChoice):
            prob = 1.0 - p.prob
            return right if prob == 1.0 else ProbChoice(prob, right, left)
        left, right = right, left
    if isinstance(p, ProbChoice):
        return ProbChoice(p.prob, left, right)
    if isinstance(p, Par):
        return Par(p.sync, left, right)
    return type(p)(left, right)
