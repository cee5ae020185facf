"""Exception hierarchy shared by the parser, semantics and builder."""

from __future__ import annotations

import copyreg


class RosaError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        # ``args`` holds the message while ``__init__`` takes the fields,
        # so unpickling restores both without calling ``__init__``.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class _SourceError(RosaError):
    """An error at a 1-based (line, column) of the source that was
    parsed."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"{line}:{column}: {message}")

    @property
    def position(self) -> tuple[int, int]:
        return (self.line, self.column)


class ParseError(_SourceError):
    """Malformed input text."""

    def __init__(self, line: int, column: int, expected: str, found: str):
        self.expected = expected
        self.found = found
        super().__init__(line, column, f"expected {expected}, found {found}")


class LexError(ParseError):
    """A character that begins no token."""

    def __init__(self, line: int, column: int, char: str):
        super().__init__(line, column, "a token", repr(char))
        self.char = char
        self.args = (f"{line}:{column}: unexpected character {char!r}",)


class ValidationError(_SourceError):
    """A literal that lexes fine but violates a value constraint
    (probability outside [0,1], a rate that is not positive or that
    overflows to infinity)."""


class DuplicateDefinition(_SourceError):
    """The same process name bound twice in one program."""

    def __init__(self, name: str, line: int, column: int):
        self.name = name
        super().__init__(line, column, f"duplicate definition of {name!r}")


class UnboundVariable(RosaError):
    """A process variable with no binding in the definition environment."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"undefined process variable {name!r}")


class UnguardedRecursion(RosaError):
    """A definition that unfolds back to itself without passing an action
    guard (e.g. ``P = P`` or ``P = 0;P``).

    ``cycle`` lists the names in unfolding order and ends with the first
    one again; ``name`` is that repeated name.
    """

    def __init__(self, cycle: tuple[str, ...]):
        self.cycle = cycle
        self.name = cycle[0]
        super().__init__("unguarded recursion: " + " -> ".join(cycle))
