"""Canonical forms and the string keys used for state deduplication.

The rewrite system, applied innermost-first to a fixed point:

  S1  0;Q            -> Q
  S2  0 ||{A} 0      -> 0            (any sync set)
  S3  P-P -> P,  P+P -> P            (after canonicalizing operands)
  S4  operands of -, + and ||{A} sorted by key; P*{r}Q with the bigger
      key first becomes Q*{1-r}P, and P*{r}P becomes P*{0.5}P, one
      exact form for every r
  S5  P*{1}Q -> P,  P*{r}Q -> Q      (for an r so small that 1-r
                                      rounds to 1, 0 among them; applied
                                      before the dead branch is visited,
                                      so an unreachable operand is never
                                      unfolded)

Each rule preserves strong bisimilarity, so merging states with equal
keys never changes the behaviour of the transition system.

Variables in unguarded positions (the root, operands of choices and
parallel, the left of ';') are unfolded so that a definition and its
body get the same key; variables under an action guard stay folded,
which keeps keys finite for recursive definitions. This is the only
place that unfolds: the transition rules read canonical terms, which
have no unguarded variable left. The walk's flag ``guarded`` is set
under a prefix and on the right of ';'; a variable there is returned
as it is, and the flag decides nothing else.

A definition's body canonicalizes the same wherever it is unfolded, so
it is rewritten once per build and kept under its name in the
``bodies`` of the build's record (`_Build`, below). Meeting a name
again while its body is rewritten is recursion that no action guards
(``P = P``, ``P = 0;P``, or ``P = Q||{}0`` with ``Q = P+a.0``), and
raises UnguardedRecursion naming the cycle. `check` rewrites every
definition the root reaches before a build explores any state.

Operands are ordered, and S3 detected, by comparing keys, which each
node computes once and caches (see `pretty_print`); printing is
injective, so equal keys mean equal trees. A node whose operands come
back unchanged is returned itself.

Every node a rewrite returns is marked on the (slotted) node as
canonical, wherever it was met, unless it holds an unguarded variable,
which only a guarded position leaves folded. A marked node is a fixed
point for any environment, and a later call returns it at once. The
mark is the node's layer code, `STABLE`, `PROB` or `ND`, which the
transition rules read instead of walking the node. It is a function of
the node alone (a synthesized attribute), computed once, from the
operands' codes, where the node is built: ``0`` and a prefix are
stable, ``;`` takes its left operand's code, and the other binary
nodes are marked only when both operands are: ``-`` nd, ``*{r}`` the
larger operand code but at least prob, and ``+`` and ``||{A}`` the
larger. The larger code is the layer that resolves first. A variable
is never marked.

The transition rules build each successor canonical. Climbing back
from the position that moved, they put each level's node back over its
new canonical operands through `rewrap`, which applies S1-S4 to that
one node, so a successor costs one rewrite per changed level and is
never built raw. `_canon` puts its binary nodes together through the
same function, the one copy of S2-S4.

Nodes that a build constructs are shared. Every node a rewrite builds
comes from the record's table of shared nodes: `rebuild` for a prefix
and a `;`, and `rewrap` itself for the nodes whose operands it orders.
The table is keyed by kind, scalar fields and the ids of the operands
as the rewrite receives them, and each entry's node holds every
operand its key names, so no id in a key is reused while the entry
lives. An entry is final: its node's mark depends on the node alone,
so the node is the answer wherever the same operands come back. The
table is thus also `rewrap`'s memo, in both orders: a node built with
its operands swapped is stored under its own key and under the key of
the operands as given. So a level that a previous state already
climbed over the same operands costs one lookup, with no key compare,
and comes back as that same object, with its mark and key in place.
Equality stays structural: nodes parsed from the source never enter
the table, and equal subterms parsed separately remain distinct
objects.
"""

from __future__ import annotations

from .errors import UnguardedRecursion
from .process import (
    NIL,
    DefinitionEnv,
    IntChoice,
    Nil,
    Par,
    Prefix,
    ProbChoice,
    Process,
    Seq,
    Var,
    _binary,
    _par,
    _prefix,
    _prob_choice,
    _set,
    pretty_print,
)

#: The layer codes a canonical node's mark holds (module docstring).
STABLE, PROB, ND = 1, 2, 3


class _Labels(dict):
    """Transition labels by ``(class, *fields)``. A missing one is made
    by its class's checking constructor and kept, so each distinct label
    is checked once and one object serves every equal label; the class
    in the key keeps labels of two classes apart."""

    __slots__ = ()

    def __missing__(self, key: tuple) -> object:
        label = self[key] = key[0](*key[1:])
        return label


class _Build:
    """The state that one build shares, one dict per kind of key:
    ``nodes``, the table of shared nodes and `rewrap`'s memo, keyed by
    kind, scalar fields and operand ids, whose every entry holds the
    operands its key names (`rebuild`, `rewrap`); ``bodies``, each
    unfolded definition's canonical body by name, None while it is
    rewritten; ``offers``, the memo by node ``id`` of the offers walk
    that tells a stable state's deadlock from its action moves, and
    ``moves``, that of the three rule walks (`semantics`), which share
    it because each memoizes only the nodes marked with its own layer,
    and a node's layer never changes; ``labels``, every transition
    label the build emits (`_Labels`).
    `build_lts` passes its record for the environment to the entry
    points here and in `semantics`; called with a `DefinitionEnv`, each
    makes a record for that call. Nothing built outlives the record but
    through the result.
    """

    __slots__ = ("env", "nodes", "bodies", "offers", "moves", "labels")

    def __init__(self, env: DefinitionEnv) -> None:
        self.env = env
        self.nodes = {}
        self.bodies = {}
        self.offers = {}
        self.moves = {}
        self.labels = _Labels()


def _build_of(env: DefinitionEnv | _Build) -> _Build:
    """``env`` itself if it is a build record, else one for this call."""
    return env if type(env) is _Build else _Build(env)


def check(env: DefinitionEnv) -> Process:
    """Rewrite every definition the root's body reaches, except through
    an operand that S5 drops, and return the canonical root state."""
    b = _build_of(env)
    stack = [b.env.root_process()]
    root = _canon(stack[0], b, False)
    seen = set()
    while stack:
        p = stack.pop()
        while type(p) is Prefix:
            p = p.continuation
        kind = type(p)
        if kind is Var:
            if p.name not in seen:
                seen.add(p.name)
                _canon(p, b, False)
                stack.append(b.env.lookup(p.name))
        elif kind is ProbChoice and (p.prob == 1.0 or 1.0 - p.prob == 1.0):
            stack.append(p.left if p.prob == 1.0 else p.right)
        elif kind is not Nil:
            stack += p.right, p.left
    return root


def canonicalize(p: Process, env: DefinitionEnv) -> Process:
    """The unique fixed point of the rewrite system above."""
    try:
        if p._canonical:
            return p
    except AttributeError:
        raise TypeError(f"not a Process: {p!r}") from None
    return _canon(p, _build_of(env), False)


def canonical_key(p: Process, env: DefinitionEnv) -> str:
    """Printed canonical form; equal keys iff equal canonical forms."""
    return pretty_print(canonicalize(p, env))


def _canon(p: Process, b: _Build, guarded: bool) -> Process:
    # Marked below: a fixed point in any position (module docstring).
    if p._canonical:
        return p
    kind = type(p)
    if kind is Var:
        if guarded:
            return p
        # A definition is rewritten once per build (module docstring),
        # here and not in a helper: two frames per nested one, not three.
        bodies = b.bodies
        chain = []
        while p.name not in bodies:
            bodies[p.name] = None  # open until rewritten
            chain.append(p.name)
            p = b.env.lookup(p.name)
            if type(p) is not Var:
                q = _canon(p, b, False)
                break
        else:
            q = bodies[p.name]
            if q is None:
                # The open entries, in insertion order, are the unfold path.
                cycle = [n for n, value in bodies.items() if value is None]
                raise UnguardedRecursion(tuple(cycle[cycle.index(p.name):]) + (p.name,))
        for name in chain:
            bodies[name] = q
        return q
    if kind is Nil:
        q, layer = p, STABLE
    elif kind is Prefix:
        cont = _canon(p.continuation, b, True)
        q = p if cont is p.continuation else rebuild(b.nodes, p, cont)
        layer = STABLE
    elif kind is Seq:
        left = _canon(p.left, b, guarded)
        if type(left) is Nil:
            # S1 exposes the right operand at this position.
            return _canon(p.right, b, guarded)
        right = _canon(p.right, b, True)
        if left is p.left and right is p.right:
            q = p
        else:
            q = rebuild(b.nodes, p, left, right)
        layer = left._canonical
    elif kind is ProbChoice and (p.prob == 1.0 or 1.0 - p.prob == 1.0):
        # S5, before the dead operand is visited.
        return _canon(p.left if p.prob == 1.0 else p.right, b, guarded)
    else:
        # S2-S4 on -, +, *{r} and ||{A}.
        return rewrap(p, b, _canon(p.left, b, guarded), _canon(p.right, b, guarded))
    _set(q, "_canonical", layer)
    return q


def rebuild(
    nodes: dict, p: Process, left: Process, right: Process | None = None
) -> Process:
    """The `Prefix` or `Seq` node of ``p``'s kind and fields on new
    operands, taken from ``nodes`` when it holds one, else constructed
    and added. For a `Prefix`, ``left`` is the continuation; a `Seq`
    keeps its operand order. The other binary nodes come from `rewrap`,
    which orders their operands.
    """
    if type(p) is Prefix:
        key = (Prefix, p.action, p.rate, id(left))
        node = nodes.get(key)
        if node is None:
            # ``p``'s fields were checked when it was made.
            node = nodes[key] = _prefix(p.action, p.rate, left)
    else:
        key = (Seq, None, id(left), id(right))
        node = nodes.get(key)
        if node is None:
            node = nodes[key] = _binary(Seq, left, right)
    return node


def rewrap(
    p: Process, b: _Build, left: Process, right: Process | None = None
) -> Process:
    """The canonical node of ``p``'s kind and scalar field over new
    canonical operands, from ``b.nodes``: S2-S4, and for a `Seq` S1.

    ``p`` is a canonical node, or for `_canon` a binary node whose
    operands it has just canonicalized. A `Seq` takes ``left`` alone and
    keeps ``p.right``. The result is marked canonical when its operands
    are; under a guard `_canon` passes operands that may hold a folded
    variable, and are then unmarked.

    ``b.nodes`` is also the memo of this function. An entry under
    ``(kind, scalar, id(left), id(right))`` is the node S2-S4 make of
    those operands as given: the node itself in key order, and a node
    built with its operands swapped is stored under the swapped key and
    under the key of the operands as given. Every entry is the answer,
    as its mark was set from those same operands when it was built. An
    entry's node holds every id in its key, so no id in a key is reused
    while the entry lives; a result that does not hold both operands
    (S2's 0, S3's operand) is not stored, nor is ``p`` itself.
    """
    kind = type(p)
    if kind is Seq:
        if left is p.left:
            return p
        if type(left) is Nil:
            # S1 exposes the right operand at this position.
            return _canon(p.right, b, False)
        q = rebuild(b.nodes, p, left, p.right)
        _set(q, "_canonical", left._canonical)
        return q
    if left is p.left and right is p.right and p._canonical:
        return p
    nodes = b.nodes
    scalar = p.sync if kind is Par else p.prob if kind is ProbChoice else None
    key = (kind, scalar, id(left), id(right))
    q = nodes.get(key)
    if q is not None:
        return q
    if kind is Par and type(left) is Nil and type(right) is Nil:
        q = NIL
    else:
        left_key, right_key = pretty_print(left), pretty_print(right)
        if right_key < left_key:
            if kind is ProbChoice:
                scalar = 1.0 - scalar
            swapped = (kind, scalar, id(right), id(left))
            q = nodes.get(swapped)
            if q is None:
                q = nodes[swapped] = _node(kind, scalar, right, left)
            nodes[key] = q
        elif left_key != right_key or kind is Par:
            if left is p.left and right is p.right:
                q = p
            else:
                q = nodes[key] = _node(kind, scalar, left, right)
        elif kind is ProbChoice:
            # Equal operands leave no order to pick r or 1-r by. The node
            # holds ``left`` twice, so its key names ``left`` twice.
            equal = (kind, 0.5, id(left), id(left))
            q = nodes.get(equal)
            if q is None:
                q = nodes[equal] = _prob_choice(0.5, left, left)
        else:
            return left
    if left._canonical and right._canonical:
        layer = max(left._canonical, right._canonical,
                    PROB if kind is ProbChoice else STABLE)
        _set(q, "_canonical", ND if kind is IntChoice else layer)
    return q


def _node(kind: type, scalar: object, left: Process, right: Process) -> Process:
    """A new `rewrap` node of ``kind``, with ``scalar`` as its sync set or
    weight; every field was checked when the operands and the template
    were made, or is 0.5 or 1-r of a checked r."""
    if kind is Par:
        return _par(scalar, left, right)
    if kind is ProbChoice:
        return _prob_choice(scalar, left, right)
    return _binary(kind, left, right)
