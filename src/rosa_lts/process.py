"""Immutable AST for ROSA processes, plus printing and definition lookup.

The operator that binds loosest sits at the root: sequential composition
is split off first, then parallel, then the three choices, then action
prefixes, with plain actions and process variables as leaves.

A rate is a positive float. The passive rate `INF` is IEEE infinity,
which prints as ``inf`` and is the identity of ``min``, the joint rate
of a synchronization.

Nodes are instances of hand-written classes on one small base,
`_Record`, which also serves the labels and the LTS records. They are
frozen and slotted, so callers cannot attach attributes to them, and
each constructor checks its own fields. Each node's printed form is
computed once, from its children's printed forms, and cached on the
node; printing a tree again, or a new tree built around already printed
subtrees, renders only the new nodes.

Nodes that a build constructs are shared: `build_lts` holds a table of
them on its copy of the environment, and the rewrites and rules take
each new node from it through `rebuild`, which puts a node's kind and
scalar fields on new children (and through `shared` for the two
reweighted probabilistic choices of canonicalization). The table is
keyed by constructor, by the scalar fields and by the ``id`` of each
child, so a node built again from the same children comes back as the
same object, with its printed form and canonical mark already cached,
and a constructor checks its fields once per distinct node. Equality
stays structural: nodes parsed from the source never enter the table,
and equal subterms parsed separately remain distinct objects.
"""

from __future__ import annotations

import math
from .errors import UnboundVariable

#: Reserved spelling of the infinite rate; never a valid action or
#: process name.
INF_KEYWORD = "inf"

#: Name a bare (definition-less) program line is bound to.
MAIN_NAME = "main"


#: The rate of a passive action, whose timing is imposed by the
#: synchronization partner. A rate is a positive float, and this is the
#: largest one, so the joint rate ``min(r, INF)`` of a sync is ``r``.
INF = math.inf


def is_valid_name(name: str) -> bool:
    """True for identifiers usable as action or process names: an
    ASCII letter or ``_``, then ASCII letters, digits or ``_``."""
    return name.isascii() and name.isidentifier() and name != INF_KEYWORD


def _check_name(name: str, what: str) -> None:
    if not isinstance(name, str) or not is_valid_name(name):
        raise ValueError(f"invalid {what}: {name!r}")


def _check_operands(*children: object) -> None:
    for child in children:
        if not isinstance(child, _Term):
            raise ValueError(f"operand must be a process: {child!r}")


def _number(value: object, what: str) -> float:
    """``value`` as a float. A bool, a non-number and an int too large
    for a float are rejected; such an int is finite, so it must not
    become the passive rate `INF`."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{what} must be a number: {value!r}")


def _sync_set(value: object) -> frozenset[str]:
    """``value`` as a frozenset of checked action names. A string is
    rejected: it is an iterable of one-letter names, and "ab" is a typo
    for {"ab"} at least as often as for {"a", "b"}."""
    if not isinstance(value, str):
        try:
            names = value if type(value) is frozenset else frozenset(value)
        except TypeError:
            pass
        else:
            for name in names:
                _check_name(name, "synchronization action name")
            return names
    raise ValueError(f"sync set must be a set of names: {value!r}")


class _Record:
    """Shared base of the package's records: equality within one class,
    hashing, ``repr`` and pickling over the fields ``__match_args__``
    names, in constructor order. Unpickling and copying go through the
    checking constructor. A record is frozen, unless it restores
    ``object``'s ``__setattr__`` and ``__delattr__`` and drops the hash.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


_set = object.__setattr__


def _fill(node: _Term, *fields: object) -> None:
    """Set ``fields`` on ``node`` in ``__match_args__`` order and empty
    its caches; each node constructor calls it once its checks pass."""
    for name, value in zip(node.__match_args__, fields):
        _set(node, name, value)
    _set(node, "_key", None)
    _set(node, "_canonical", False)


class _Term(_Record):
    """Shared base of the process constructors.

    The two slots are caches that take no part in construction,
    equality, hashing or ``repr``: ``_key`` holds the node's printed
    form once `pretty_print` has computed it, and ``_canonical`` marks
    a node that `canonicalize` returned, so that later canonicalizations
    can hand it back untouched. Both are written only by those two
    functions.
    """

    __slots__ = ("_key", "_canonical")

    def __str__(self) -> str:
        return pretty_print(self)


class Nil(_Term):
    """The terminated process ``0``."""

    __slots__ = ()

    def __init__(self) -> None:
        _fill(self)


class Var(_Term):
    """A reference to a named process definition."""

    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str) -> None:
        _check_name(name, "process variable name")
        _fill(self, name)


class Prefix(_Term):
    """``<a,r>.P``: perform action ``a`` at rate ``r``, then behave as P.

    The rate is a positive float; an undecorated action ``a`` is the
    same node with rate `INF`, and a trailing action with no
    continuation gets an explicit Nil.
    """

    __slots__ = __match_args__ = ("action", "rate", "continuation")

    def __init__(self, action: str, rate: float, continuation: Process) -> None:
        _check_name(action, "action name")
        _check_operands(continuation)
        value = _number(rate, "rate")
        if not value > 0.0:
            raise ValueError(f"rate must be positive: {value!r}")
        _fill(self, action, value, continuation)


class _Binary(_Term):
    """Shared base of the operators whose only fields are two operands."""

    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Process, right: Process) -> None:
        _check_operands(left, right)
        _fill(self, left, right)


class Seq(_Binary):
    """``P;Q``: behave as P until it terminates, then as Q."""

    __slots__ = ()


class IntChoice(_Binary):
    """``P - Q``: internal choice, resolved by the system before timing."""

    __slots__ = ()


class ExtChoice(_Binary):
    """``P + Q``: external choice, resolved by whichever action occurs."""

    __slots__ = ()


class ProbChoice(_Term):
    """``P *{r} Q``: behave as P with probability r, as Q with 1-r."""

    __slots__ = __match_args__ = ("prob", "left", "right")

    def __init__(self, prob: float, left: Process, right: Process) -> None:
        _check_operands(left, right)
        value = _number(prob, "probability")
        if not (0.0 <= value <= 1.0):
            raise ValueError(f"probability outside [0,1]: {value!r}")
        _fill(self, value, left, right)


class Par(_Term):
    """``P ||{A} Q``: parallel composition synchronizing on the actions
    in A; all other actions interleave."""

    __slots__ = __match_args__ = ("sync", "left", "right")

    def __init__(self, sync: frozenset[str], left: Process, right: Process) -> None:
        _check_operands(left, right)
        _fill(self, _sync_set(sync), left, right)


Process = Nil | Var | Prefix | Seq | IntChoice | ExtChoice | ProbChoice | Par

#: The terminated process; all ``Nil()`` instances compare equal.
NIL = Nil()


class DefinitionEnv(_Record):
    """Named process definitions plus the name of the process to analyse.

    ``bindings`` keeps insertion order; recursive and mutually recursive
    bindings are legal (guardedness is checked where definitions are
    unfolded, not here). The record is frozen but holds a dict, so it
    cannot be hashed.
    """

    # ``_terms`` is the table of shared nodes (see `rebuild`) on the
    # copy that `build_lts` works on; None on every other environment.
    __slots__ = ("bindings", "root", "_terms")
    __match_args__ = ("bindings", "root")

    def __init__(self, bindings: dict[str, Process] | None = None,
                 root: str = MAIN_NAME) -> None:
        _set(self, "bindings", {} if bindings is None else bindings)
        _set(self, "root", root)
        _set(self, "_terms", None)

    def lookup(self, name: str) -> Process:
        """The body bound to ``name``, verbatim (no substitution)."""
        try:
            return self.bindings[name]
        except KeyError:
            raise UnboundVariable(name) from None

    def root_process(self) -> Process:
        return self.lookup(self.root)

    def _shared_terms(self) -> dict:
        """The build's table of shared nodes, or a new one that lasts
        for one call outside a build."""
        return {} if self._terms is None else self._terms


def rebuild(
    terms: dict, p: Process, left: Process, right: Process | None = None
) -> Process:
    """The node of ``p``'s kind and scalar fields on new operands, taken
    from ``terms`` when it holds one, else constructed and added. For a
    `Prefix`, ``left`` is the continuation.

    The key holds each operand's ``id``. That is sound because the
    table holds the node and the node its operands, so no id in a key
    is reused while the entry lives.
    """
    kind = type(p)
    if kind is Par:
        key = (kind, p.sync, id(left), id(right))
    elif kind is ProbChoice:
        key = (kind, p.prob, id(left), id(right))
    elif kind is Prefix:
        key = (kind, p.action, p.rate, id(left))
    else:
        key = (kind, None, id(left), id(right))
    node = terms.get(key)
    if node is None:
        if kind is Prefix:
            node = Prefix(p.action, p.rate, left)
        elif key[1] is None:
            node = kind(left, right)
        else:
            node = kind(key[1], left, right)
        terms[key] = node
    return node


def shared(terms: dict, prob: float, left: Process, right: Process) -> Process:
    """``ProbChoice(prob, left, right)`` from ``terms``, as `rebuild`
    would give it, for a weight that no node to copy carries."""
    key = (ProbChoice, prob, id(left), id(right))
    node = terms.get(key)
    if node is None:
        node = terms[key] = ProbChoice(prob, left, right)
    return node


def format_number(value: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(value))


# Binding tightness, loosest first. A child whose level is below the
# minimum its context requires gets parenthesized.
_SEQ, _PAR, _CHOICE, _PREFIX, _ATOM = range(5)

_LEVEL = {
    Seq: _SEQ,
    Par: _PAR,
    IntChoice: _CHOICE,
    ExtChoice: _CHOICE,
    ProbChoice: _CHOICE,
    Prefix: _PREFIX,
    Nil: _ATOM,
    Var: _ATOM,
}


def pretty_print(p: Process) -> str:
    """Render ``p`` in tool syntax with the fewest parentheses that
    re-parse to the same tree.

    Sync sets print sorted, numbers in shortest round-trip form; a
    prefix with rate `INF` prints undecorated (``a.P`` rather than
    ``<a,inf>.P``).

    The result is cached on every node rendered on the way, so each
    node object is rendered once. Nodes are filled bottom-up with an
    explicit stack, which bounds the depth of a printable term by
    memory only.
    """
    try:
        key = p._key
    except AttributeError:
        raise TypeError(f"not a Process: {p!r}") from None
    if key is not None:
        return key
    if type(p) is Var:
        return p.name
    stack = [p]
    while stack:
        node = stack[-1]
        if node._key is not None:
            # Reached twice through a shared subtree.
            stack.pop()
            continue
        kind = type(node)
        if kind is Prefix:
            children = (node.continuation,)
        elif kind is Nil:
            children = ()
        else:
            children = (node.left, node.right)
        pending = [c for c in children if c._key is None and type(c) is not Var]
        if pending:
            stack += pending
            continue
        stack.pop()
        object.__setattr__(node, "_key", _render(node))
    return p._key


def _render(p: Process) -> str:
    """``p``'s printed form, from the printed forms of its children."""
    kind = type(p)
    if kind is Nil:
        return "0"
    if kind is Prefix:
        if p.rate == INF:
            head = p.action
        else:
            head = f"<{p.action},{format_number(p.rate)}>"
        return head + "." + _operand(p.continuation, _PREFIX)
    if kind is Seq:
        # ';' is right-associative: a Seq as left child needs parentheses.
        return _operand(p.left, _PAR) + ";" + _operand(p.right, _SEQ)
    if kind is Par:
        op = "||{" + ",".join(sorted(p.sync)) + "}"
        return _operand(p.left, _PAR) + op + _operand(p.right, _CHOICE)
    if kind is IntChoice:
        op = "-"
    elif kind is ExtChoice:
        op = "+"
    else:
        op = "*{" + format_number(p.prob) + "}"
    return _operand(p.left, _CHOICE) + op + _operand(p.right, _PREFIX)


def _operand(p: Process, min_level: int) -> str:
    """The printed form of child ``p``, parenthesized when it binds
    looser than its context requires."""
    text = p.name if type(p) is Var else p._key
    return "(" + text + ")" if _LEVEL[type(p)] < min_level else text
