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

The walk carries one argument for both facts, ``open_``. At a guarded
position (under a prefix, the right of ';') it is None, and a variable
there is returned as it is. At an unguarded position it is the path of
names unfolded since the last guard, and only there is a result marked
canonical (below).

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
nodes (`process.rebuild`, and `process.shared` for a new weight). A
reordered spine that a previous state already produced comes back as
that same object, marked canonical and with its key printed, so the
rewrite stops there.
"""

from __future__ import annotations

from .errors import UnguardedRecursion
from .process import (
    NIL,
    DefinitionEnv,
    Nil,
    Par,
    Prefix,
    ProbChoice,
    Process,
    Seq,
    Var,
    pretty_print,
    rebuild,
    shared,
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
    return _canon(p, env, env._shared_terms(), ())


def canonical_key(p: Process, env: DefinitionEnv) -> str:
    """Printed canonical form; equal keys iff equal canonical forms."""
    return pretty_print(canonicalize(p, env))


def _canon(
    p: Process, env: DefinitionEnv, terms: dict, open_: tuple[str, ...] | None
) -> Process:
    # Marked below: a fixed point in any position (module docstring).
    if p._canonical:
        return p
    kind = type(p)
    if kind is Var:
        if open_ is None:
            return p
        body, open_ = _unfold(p, env, open_)
        q = _canon(body, env, terms, open_)
    elif kind is Nil:
        q = p
    elif kind is Prefix:
        cont = _canon(p.continuation, env, terms, None)
        q = p if cont is p.continuation else rebuild(terms, p, cont)
    elif kind is Seq:
        left = _canon(p.left, env, terms, open_)
        if type(left) is Nil:
            # S1 exposes the right operand at this position.
            q = _canon(p.right, env, terms, open_)
        else:
            right = _canon(p.right, env, terms, None)
            if left is p.left and right is p.right:
                q = p
            else:
                q = rebuild(terms, p, left, right)
    elif kind is ProbChoice and (p.prob == 1.0 or p.prob == 0.0):
        # S5, before the dead operand is visited.
        q = _canon(p.left if p.prob == 1.0 else p.right, env, terms, open_)
    else:
        # S2-S4 on -, +, *{r} and ||{A}.
        left = _canon(p.left, env, terms, open_)
        right = _canon(p.right, env, terms, open_)
        if kind is Par and type(left) is Nil and type(right) is Nil:
            q = NIL
        else:
            left_key, right_key = pretty_print(left), pretty_print(right)
            if right_key < left_key:
                if kind is not ProbChoice:
                    q = rebuild(terms, p, right, left)
                else:
                    prob = 1.0 - p.prob
                    # A tiny r, whose 1-r rounds to 1, takes S5.
                    q = right if prob == 1.0 else shared(terms, prob, right, left)
            elif left_key != right_key or kind is Par:
                if left is p.left and right is p.right:
                    q = p
                else:
                    q = rebuild(terms, p, left, right)
            elif kind is ProbChoice:
                # Equal operands leave no order to pick r or 1-r by.
                q = shared(terms, 0.5, left, left)
            else:
                q = left
    if open_ is not None:
        object.__setattr__(q, "_canonical", True)
    return q
