"""Canonical forms and the string keys used for state deduplication.

The rewrite system, applied innermost-first to a fixed point:

  S1  0;Q            -> Q
  S2  0 ||{A} 0      -> 0            (any sync set)
  S3  P-P -> P,  P+P -> P            (after canonicalizing operands)
  S4  operands of -, + and ||{A} sorted by key; P*{r}Q with the bigger
      key first becomes Q*{1-r}P, and P*{r}P becomes P*{0.5}P, one
      exact form for every r
  S5  P*{1}Q -> P,  P*{0}Q -> Q      (applied before the dead branch is
                                      visited, so an unreachable operand
                                      is never unfolded)

Each rule preserves strong bisimilarity, so merging states with equal
keys never changes the behaviour of the transition system.

Variables in unguarded positions (the root, operands of choices and
parallel, the left of ';') are unfolded so that a definition and its
body get the same key; variables under an action guard stay folded,
which keeps keys finite for recursive definitions. This is the only
place that unfolds: the transition rules read canonical terms, which
have no unguarded variable left.

Recursion through process variables must pass an action guard. Each
path carries the names it has unfolded since the last guard (each
operand gets its own path), and a name that comes back means the
rewrite would repeat itself forever, so exactly then it raises
UnguardedRecursion naming the cycle (``P = P``, ``P = 0;P``, or
``P = Q||{}0`` with ``Q = P+a.0``). Sibling operands and separate
calls share nothing, so no count of unfolds can run out.

Operands are ordered, and S3 detected, by comparing keys, which each
node computes once and caches (see `pretty_print`); printing is
injective, so equal keys mean equal trees. A node whose operands come
back unchanged is returned itself, and every result of canonicalizing
an unguarded position is marked on the (slotted) node as canonical.
Such a term has no unguarded variable left, so it is a fixed point for
any environment, and a later call returns it at once. Successor states
share most subtrees with their already-canonical source, so they are
rewritten only along the path that changed.

Every node a rewrite builds comes from the build's table of shared
nodes (`process.shared`). A reordered spine that a previous state
already produced comes back as that same object, marked canonical and
with its key printed, so the rewrite stops there.
"""

from __future__ import annotations

from .errors import UnguardedRecursion
from .process import (
    NIL,
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
    shared,
    shared_prefix,
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


def canonicalize(p: Process, env: DefinitionEnv) -> Process:
    """The unique fixed point of the rewrite system above."""
    try:
        if p._canonical:
            return p
    except AttributeError:
        raise TypeError(f"not a Process: {p!r}") from None
    return _canon(p, env, env._shared_terms(), (), guarded=False)


def canonical_key(p: Process, env: DefinitionEnv) -> str:
    """Printed canonical form; equal keys iff equal canonical forms."""
    return pretty_print(canonicalize(p, env))


def _canon(
    p: Process, env: DefinitionEnv, terms: dict, open_: tuple[str, ...], guarded: bool
) -> Process:
    # Marked below: a fixed point under either flag (module docstring).
    if p._canonical:
        return p
    kind = type(p)
    if kind is Var:
        if guarded:
            return p
        body, open_ = _unfold(p, env, open_)
        q = _canon(body, env, terms, open_, guarded=False)
    elif kind is Nil:
        q = p
    elif kind is Prefix:
        # Guarded positions unfold nothing, so they start no path.
        cont = _canon(p.continuation, env, terms, (), guarded=True)
        if cont is p.continuation:
            q = p
        else:
            q = shared_prefix(terms, p.action, p.rate, cont)
    elif kind is Seq:
        left = _canon(p.left, env, terms, open_, guarded)
        if type(left) is Nil:
            # S1 exposes the right operand at this position.
            q = _canon(p.right, env, terms, open_, guarded)
        else:
            right = _canon(p.right, env, terms, (), guarded=True)
            if left is p.left and right is p.right:
                q = p
            else:
                q = shared(terms, Seq, None, left, right)
    elif kind is IntChoice or kind is ExtChoice:
        left = _canon(p.left, env, terms, open_, guarded)
        right = _canon(p.right, env, terms, open_, guarded)
        left_key, right_key = pretty_print(left), pretty_print(right)
        if left_key == right_key:
            q = left
        elif right_key < left_key:
            q = shared(terms, kind, None, right, left)
        elif left is p.left and right is p.right:
            q = p
        else:
            q = shared(terms, kind, None, left, right)
    elif kind is ProbChoice:
        if p.prob == 1.0:
            q = _canon(p.left, env, terms, open_, guarded)
        elif p.prob == 0.0:
            q = _canon(p.right, env, terms, open_, guarded)
        else:
            left = _canon(p.left, env, terms, open_, guarded)
            right = _canon(p.right, env, terms, open_, guarded)
            left_key, right_key = pretty_print(left), pretty_print(right)
            if left_key == right_key and p.prob != 0.5:
                # Equal operands leave no order to pick r or 1-r by.
                q = shared(terms, ProbChoice, 0.5, left, left)
            elif right_key < left_key:
                prob = 1.0 - p.prob
                if prob == 1.0:
                    q = right
                else:
                    q = shared(terms, ProbChoice, prob, right, left)
            elif left is p.left and right is p.right:
                q = p
            else:
                q = shared(terms, ProbChoice, p.prob, left, right)
    elif kind is Par:
        left = _canon(p.left, env, terms, open_, guarded)
        right = _canon(p.right, env, terms, open_, guarded)
        if type(left) is Nil and type(right) is Nil:
            q = NIL
        elif pretty_print(right) < pretty_print(left):
            q = shared(terms, Par, p.sync, right, left)
        elif left is p.left and right is p.right:
            q = p
        else:
            q = shared(terms, Par, p.sync, left, right)
    else:
        raise TypeError(f"not a Process: {p!r}")
    if not guarded:
        object.__setattr__(q, "_canonical", True)
    return q
