"""Immutable AST for ROSA processes, plus printing and definition lookup.

The operator that binds loosest sits at the root: sequential composition
is split off first, then parallel, then the three choices, then action
prefixes, with plain actions and process variables as leaves.

A rate is a positive float. The passive rate `INF` is IEEE infinity,
which prints as ``inf`` and is the identity of ``min``, the joint rate
of a synchronization.

Nodes are instances of hand-written classes on one small base,
`_Record`, which also serves the labels and the LTS records. They are
frozen and slotted, so callers cannot attach attributes to them. Each
class compares and hashes its fields through one getter made for it
when the class is created. Each node's printed form is computed once,
from its children's printed forms, and cached on the node; printing a
tree again, or a new tree built around already printed subtrees,
renders only the new nodes.

A field is checked once, where it enters the package. Each class with
fields sets its slots in one place, a private trusted constructor
(`_var`, `_prefix`, `_binary`, `_prob_choice` and `_par`) that checks
nothing. The public constructor, the class's ``__new__``, checks the
fields and then calls it. The parser checks each name, rate and weight
as it reads it, and the canonical rewrite (`canonical`) copies fields
of nodes that were checked when they were made, or puts in 0.5 or 1-r
of a checked r, so both call the trusted constructors directly.

Every frozen record of the package, a node, a label, `LtsNode` or
`LtsEdge`, writes a slot through that slot's descriptor setter, taken
once per class by `_setters`, and never by name through
``object.__setattr__``, which looks the name up on every write. So
does each later write of a cache slot: `pretty_print`'s key and the
canonical rewrite's mark.
"""

from __future__ import annotations

import math
from operator import attrgetter
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


def _rate(value: object) -> float:
    """``value`` as a positive float rate; `INF` is one."""
    rate = _number(value, "rate")
    if not rate > 0.0:
        raise ValueError(f"rate must be positive: {rate!r}")
    return rate


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
    names, in constructor order, read by a getter bound once per class.
    Unpickling and copying go through the checking constructor. A
    record is frozen, unless it restores ``object``'s ``__setattr__``
    and ``__delattr__`` and drops the hash.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        # ``_fields(record)``: one field's value, several as a tuple, or ().
        super().__init_subclass__(**kwargs)
        names = cls.__match_args__
        cls._fields = attrgetter(*names) if names else staticmethod(lambda r: ())

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            fields = self._fields
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), tuple([getattr(self, name) for name in self.__match_args__])


#: The layer codes a canonical node's mark holds (`_Term`): a stable
#: node, and one with an unguarded probabilistic or internal choice. The
#: larger code is the layer that resolves first (`canonical`).
STABLE, PROB, ND = 1, 2, 3


class _Term(_Record):
    """Shared base of the process constructors.

    The two slots are caches that take no part in construction,
    equality, hashing or ``repr``: ``_key`` holds the node's printed
    form once `pretty_print` has computed it, and ``_canonical`` is
    falsy when the node is not canonical and otherwise holds its layer
    code (`STABLE`, `PROB` or `ND`), so that later canonicalizations
    hand it back untouched and the transition rules read its layer
    without a walk. Each constructor empties both; they are then
    written only by `pretty_print` and by the canonical rewrite. `NIL`,
    the one ``0``, is made printed and marked.
    """

    __slots__ = ("_key", "_canonical")

    def __str__(self) -> str:
        return pretty_print(self)


class Nil(_Term):
    """The terminated process ``0``, of which there is one: `NIL`."""

    __slots__ = ()

    def __new__(cls) -> Nil:
        return NIL


class Var(_Term):
    """A reference to a named process definition."""

    __slots__ = __match_args__ = ("name",)

    def __new__(cls, name: str) -> Var:
        _check_name(name, "process variable name")
        return _var(name)


class Prefix(_Term):
    """``<a,r>.P``: perform action ``a`` at rate ``r``, then behave as P.

    The rate is a positive float; an undecorated action ``a`` is the
    same node with rate `INF`, and a trailing action with no
    continuation gets `NIL`.
    """

    __slots__ = __match_args__ = ("action", "rate", "continuation")

    def __new__(cls, action: str, rate: float, continuation: Process) -> Prefix:
        _check_name(action, "action name")
        _check_operands(continuation)
        return _prefix(action, _rate(rate), continuation)


class _Binary(_Term):
    """Shared base of the operators whose only fields are two operands."""

    __slots__ = __match_args__ = ("left", "right")

    def __new__(cls, left: Process, right: Process) -> _Binary:
        _check_operands(left, right)
        return _binary(cls, left, right)


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

    def __new__(cls, prob: float, left: Process, right: Process) -> ProbChoice:
        _check_operands(left, right)
        value = _number(prob, "probability")
        if not (0.0 <= value <= 1.0):
            raise ValueError(f"probability outside [0,1]: {value!r}")
        return _prob_choice(value, left, right)


class Par(_Term):
    """``P ||{A} Q``: parallel composition synchronizing on the actions
    in A; all other actions interleave."""

    __slots__ = __match_args__ = ("sync", "left", "right")

    def __new__(cls, sync: frozenset[str], left: Process, right: Process) -> Par:
        _check_operands(left, right)
        return _par(_sync_set(sync), left, right)


Process = Nil | Var | Prefix | Seq | IntChoice | ExtChoice | ProbChoice | Par


# Trusted construction (module docstring), for the public constructors,
# the parser and the canonical rewrite, whose fields are checked
# already. Each sets the slots through their descriptors, without a
# check and without the name lookup of ``object.__setattr__``.

_new = object.__new__


def _setters(cls: type) -> list:
    """The descriptor setters of the slots ``cls`` itself declares, in
    ``__slots__`` order: ``setter(record, value)`` writes one slot."""
    return [cls.__dict__[name].__set__ for name in cls.__slots__]


_set_key, _set_canonical = _setters(_Term)
(_set_name,) = _setters(Var)
_set_action, _set_rate, _set_continuation = _setters(Prefix)
_set_left, _set_right = _setters(_Binary)
_set_prob, _set_prob_left, _set_prob_right = _setters(ProbChoice)
_set_sync, _set_par_left, _set_par_right = _setters(Par)


def _var(name: str) -> Var:
    node = _new(Var)
    _set_name(node, name)
    _set_key(node, None)
    _set_canonical(node, False)
    return node


def _prefix(action: str, rate: float, continuation: Process) -> Prefix:
    node = _new(Prefix)
    _set_action(node, action)
    _set_rate(node, rate)
    _set_continuation(node, continuation)
    _set_key(node, None)
    _set_canonical(node, False)
    return node


def _binary(kind: type, left: Process, right: Process) -> Process:
    """A `Seq`, `IntChoice` or `ExtChoice`, as ``kind`` says."""
    node = _new(kind)
    _set_left(node, left)
    _set_right(node, right)
    _set_key(node, None)
    _set_canonical(node, False)
    return node


def _prob_choice(prob: float, left: Process, right: Process) -> ProbChoice:
    node = _new(ProbChoice)
    _set_prob(node, prob)
    _set_prob_left(node, left)
    _set_prob_right(node, right)
    _set_key(node, None)
    _set_canonical(node, False)
    return node


def _par(sync: frozenset[str], left: Process, right: Process) -> Par:
    node = _new(Par)
    _set_sync(node, sync)
    _set_par_left(node, left)
    _set_par_right(node, right)
    _set_key(node, None)
    _set_canonical(node, False)
    return node


#: The terminated process, made once and returned by ``Nil()``, so that
#: printing and the canonical rewrite need no case for ``0``.
NIL = _new(Nil)
_set_key(NIL, "0")
_set_canonical(NIL, STABLE)


class DefinitionEnv(_Record):
    """Named process definitions plus the name of the process to analyse.

    ``bindings`` keeps insertion order; recursive and mutually recursive
    bindings are legal (guardedness is checked by `canonical.check`,
    not here). The record is frozen but holds a dict, so it cannot be
    hashed.
    """

    __slots__ = __match_args__ = ("bindings", "root")

    def __init__(self, bindings: dict[str, Process] | None = None,
                 root: str = MAIN_NAME) -> None:
        _set_bindings(self, {} if bindings is None else bindings)
        _set_root(self, root)

    def lookup(self, name: str) -> Process:
        """The body bound to ``name``, verbatim (no substitution)."""
        try:
            return self.bindings[name]
        except KeyError:
            raise UnboundVariable(name) from None

    def root_process(self) -> Process:
        return self.lookup(self.root)


_set_bindings, _set_root = _setters(DefinitionEnv)


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
        if type(node) is Prefix:
            children = (node.continuation,)
        else:
            children = (node.left, node.right)
        pending = [c for c in children if c._key is None and type(c) is not Var]
        if pending:
            stack += pending
            continue
        stack.pop()
        _set_key(node, _render(node))
    return p._key


def _render(p: Process) -> str:
    """``p``'s printed form, from the printed forms of its children."""
    kind = type(p)
    if kind is Prefix:
        if p.rate == INF:
            head = p.action
        else:
            # A node's rate and weight are floats already, so `repr` is
            # `format_number` without its ``float`` call.
            head = f"<{p.action},{p.rate!r}>"
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
        op = "*{" + repr(p.prob) + "}"
    return _operand(p.left, _CHOICE) + op + _operand(p.right, _PREFIX)


def _operand(p: Process, min_level: int) -> str:
    """The printed form of child ``p``, parenthesized when it binds
    looser than its context requires."""
    text = p.name if type(p) is Var else p._key
    return "(" + text + ")" if _LEVEL[type(p)] < min_level else text
