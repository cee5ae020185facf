"""Lexer and operator-precedence parser for the ASCII process syntax.

Binding tightness, tightest first: prefix ``.``, then the three choices
(``-``, ``+``, ``*{r}``, one shared level, left-associative), then
``||{A}`` (left-associative), then ``;`` (right-associative).
Parentheses override, and nest to any depth. A bare identifier is a
process variable when it names a definition of the program, else an
action constant (``a`` meaning ``a.0``); a lone expression takes every
one as a variable.

The lexer keeps tokens' kinds and lexemes; their positions are computed
again from the text only for a diagnostic. The parser checks each field
once, as it reads it, and builds its nodes unchecked (`_Parser`).
"""

from __future__ import annotations

import re

from .errors import DuplicateDefinition, LexError, ParseError, ValidationError
from .process import (
    INF,
    INF_KEYWORD,
    MAIN_NAME,
    NIL,
    DefinitionEnv,
    ExtChoice,
    IntChoice,
    Process,
    Seq,
    _binary,
    _par,
    _prefix,
    _prob_choice,
    _var,
    is_valid_name,
)

IDENT = "IDENT"
NUMBER = "NUMBER"
#: Kind of the sentinel past the last token.
EOF = "EOF"


# An identifier, a number, a comment (matched so that `findall`, which
# searches, picks no token out of it), "||", or any other non-blank
# character: an operator, or one that begins no token. Digits and
# letters are ASCII only.
_TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*"
    r"|[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
    r"|#[^\n]*"
    r"|\|\||[^ \t\r\n]"
)

# The lexemes that are their own kind, and the kinds of the others by
# their first character; a character in neither begins no token.
_OWN_KINDS = frozenset(".;-+*<>,{}()=") | {"||", "0", INF_KEYWORD}
_STARTS = dict.fromkeys("0123456789", NUMBER) | dict.fromkeys(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", IDENT)

# Each binary operator's binding level, loosest first, constructor and
# fields before the operands; `_Parser.parse_operator` reads the fields
# of "||" and "*". The constructors are the trusted ones of `process`:
# the parser has checked every field they get (`_Parser`).
_OPERATORS = {";": (0, _binary, (Seq,)), "||": (1, _par, ()),
              "-": (2, _binary, (IntChoice,)), "+": (2, _binary, (ExtChoice,)),
              "*": (2, _prob_choice, ())}


def _scan(source: str, first_line: int) -> tuple[list[str], list[str]]:
    """Split ``source`` into tokens: their kinds and their lexemes.

    Whitespace separates tokens and is otherwise ignored; ``#`` starts a
    comment running to end of line. A token's kind is IDENT or NUMBER,
    or its lexeme for an operator (``||`` is one token), for the
    infinite-rate keyword ``inf`` and for a standalone ``0`` (``0.5``
    stays a NUMBER). Positions are computed only for a diagnostic, by
    `_positions`; ``first_line`` numbers the first line, so the
    `LexError` of a line scanned on its own keeps its place in the file.
    """
    lexemes = _TOKEN_RE.findall(source)
    if "#" in source:
        lexemes = [text for text in lexemes if text[0] != "#"]
    try:
        kinds = [text if text in _OWN_KINDS else _STARTS[text[0]]
                 for text in lexemes]
    except KeyError:
        i = next(i for i, text in enumerate(lexemes)
                 if text not in _OWN_KINDS and text[0] not in _STARTS)
        raise LexError(*_positions(source, first_line)[i], lexemes[i]) from None
    return kinds, lexemes


def _positions(source: str, first_line: int) -> list[tuple[int, int]]:
    """The 1-based line and column of each token `_scan` gives, with
    the first line numbered ``first_line``."""
    positions, line, line_start, seen = [], first_line, 0, 0
    for m in _TOKEN_RE.finditer(source):
        start = m.start()
        if source[start] != "#":
            line += source.count("\n", seen, start)
            line_start = max(line_start, source.rfind("\n", seen, start) + 1)
            seen = start
            positions.append((line, start - line_start + 1))
    return positions


class _Parser:
    """One pass over the tokens of a scan; grammar, loosest rule first:

    seq    := par { ";" par }                    folded to the right
    par    := choice { "||" "{" [idlist] "}" choice }
    choice := prefix { ("-" | "+" | "*" "{" number "}") prefix }
    prefix := { head "." } atom                  folded onto the atom
    head   := IDENT | "<" IDENT "," (number | "inf") ">"
    atom   := head | "0" | "(" seq ")"

    One loop reads them all, with open parentheses on an explicit stack
    (see `parse_full_process`). A rated head as the atom is ``<a,r>.0``;
    an IDENT as the atom is a variable if it is in ``defined``, else the
    action constant ``a.0``.

    Nodes are made by the trusted constructors of `process`, which
    check nothing, since every field is checked here once: a name is an
    IDENT lexeme, which is a valid name (``inf`` is a kind of its own),
    a sync set holds IDENT lexemes, a rate comes through `parse_rate`
    and a weight through `parse_probability`.
    """

    def __init__(self, source: str, first_line: int = 1, start: int = 0,
                 defined: dict | None = None):
        """Scan ``source``, whose first line is numbered ``first_line``,
        and parse from token ``start`` on. ``kinds`` gets the EOF
        sentinel appended. With no ``defined``, every bare IDENT is a
        variable."""
        self.kinds, self.lexemes = _scan(source, first_line)
        self.kinds.append(EOF)
        self.source, self.first_line = source, first_line
        self.pos = start
        self.defined = defined

    def position(self, index: int) -> tuple[int, int]:
        """Where token ``index`` starts. At the EOF sentinel, where input
        ends: just past the last token, or at 1:1 when there is none."""
        lexemes = self.lexemes
        if index < len(lexemes):
            return _positions(self.source, self.first_line)[index]
        if not lexemes:
            return 1, 1
        line, column = _positions(self.source, self.first_line)[-1]
        return line, column + len(lexemes[-1])

    def fail(self, expected: str) -> ParseError:
        pos = self.pos
        found = "end of input" if self.kinds[pos] == EOF else repr(self.lexemes[pos])
        return ParseError(*self.position(pos), expected, found)

    def invalid(self, message: str) -> ValidationError:
        """A ValidationError at the number just read."""
        pos = self.pos - 1
        found = self.lexemes[pos]
        return ValidationError(*self.position(pos), f"{message}, got {found}")

    def expect(self, kind: str, expected: str) -> str:
        """The lexeme of the next token, which must be of ``kind``."""
        pos = self.pos
        if self.kinds[pos] != kind:
            raise self.fail(expected)
        self.pos = pos + 1
        return self.lexemes[pos]

    def parse_full_process(self) -> Process:
        # The operators waiting for their right operand, as in
        # `_OPERATORS`, with their left operands on a list of their own;
        # an open parenthesis waits among them as ``(-1, heads before it)``.
        operands, operators = [], []
        while True:
            heads: list[tuple[str, float]] = []
            p = self.parse_operand(heads)
            if p is None:
                operators.append((-1, heads))
                continue
            while True:
                for action, rate in reversed(heads):
                    p = _prefix(action, rate, p)
                op = self.parse_operator()
                # An operator applies the waiting ones that bind at least
                # as tightly (";" only the tighter ones: it folds right);
                # the end of a group applies all of the group's.
                level = 0 if op is None else op[0] or 1
                while operators and operators[-1][0] >= level:
                    _, node, fields = operators.pop()
                    p = node(*fields, operands.pop(), p)
                if op is not None:
                    operands.append(p)
                    operators.append(op)
                    break
                if not operators:
                    if self.kinds[self.pos] != EOF:
                        raise self.fail("an operator or end of input")
                    return p
                self.expect(")", "')'")
                heads = operators.pop()[1]

    def parse_operand(self, heads: list[tuple[str, float]]) -> Process | None:
        """Read the prefix heads into ``heads``, then the atom: return
        it, or None for an opening parenthesis."""
        kinds = self.kinds
        while True:
            pos = self.pos
            kind = kinds[pos]
            if kind == IDENT:
                name = self.lexemes[pos]
                if kinds[pos + 1] == ".":
                    heads.append((name, INF))
                    self.pos = pos + 2
                    continue
                self.pos = pos + 1
                if self.defined is None or name in self.defined:
                    return _var(name)
                return _prefix(name, INF, NIL)
            if kind == "<":
                self.pos = pos + 1
                action = self.expect(IDENT, "an action name")
                self.expect(",", "',' between action and rate")
                rate = self.parse_rate()
                self.expect(">", "'>' closing the rated action")
                heads.append((action, rate))
                if kinds[self.pos] == ".":
                    self.pos += 1
                    continue
                return NIL
            if kind != "0" and kind != "(":
                raise self.fail("a process")
            self.pos = pos + 1
            return NIL if kind == "0" else None

    def parse_operator(self) -> tuple | None:
        """The binary operator at the next token, as in `_OPERATORS`
        with its fields read; None at any other token, left unread."""
        kinds = self.kinds
        op = _OPERATORS.get(kinds[self.pos])
        if op is None:
            return None
        level, node, _ = op
        self.pos += 1
        if node is _par:
            self.expect("{", "'{' after '||'")
            names: list[str] = []
            if kinds[self.pos] == IDENT:
                names.append(self.expect(IDENT, "an action name"))
                while kinds[self.pos] == ",":
                    self.pos += 1
                    names.append(self.expect(IDENT, "an action name"))
            self.expect("}", "'}' closing the synchronization set")
            return level, node, (frozenset(names),)
        if node is _prob_choice:
            self.expect("{", "'{' after '*'")
            prob = self.parse_probability()
            self.expect("}", "'}' after the probability")
            return level, node, (prob,)
        return op

    # literals ---------------------------------------------------------

    def parse_rate(self) -> float:
        if self.kinds[self.pos] == INF_KEYWORD:
            self.pos += 1
            return INF
        value = self.parse_number("a rate (positive number or 'inf')")
        if value <= 0.0:
            raise self.invalid("rate must be positive")
        if value == INF:
            # A literal such as 1e999 overflows to the passive rate,
            # which the source spells 'inf'.
            raise self.invalid("rate must be finite")
        return value

    def parse_probability(self) -> float:
        value = self.parse_number("a probability in [0,1]")
        if not (0.0 <= value <= 1.0):
            raise self.invalid("probability must lie in [0,1]")
        return value

    def parse_number(self, expected: str) -> float:
        pos = self.pos
        if self.kinds[pos] not in (NUMBER, "0"):
            raise self.fail(expected)
        self.pos = pos + 1
        return float(self.lexemes[pos])


def parse_process_text(source: str) -> Process:
    """Parse a single process expression."""
    return _Parser(source).parse_full_process()


def parse_program(source: str) -> DefinitionEnv:
    """Parse a whole program into a definition environment.

    Each line is blank, a comment, ``NAME = PROCESS`` or a bare
    ``PROCESS``, which is bound to ``main``; the root is ``main`` when
    that name exists, otherwise the last definition. Rebinding a name is
    an error. Every line's head is read before any body is parsed, so a
    bare identifier in a body is a variable when some line defines it,
    even a later one, and an action constant otherwise (``f`` meaning
    ``f.0``).
    """
    # Lines end at \n only, the one line end the lexer counts (a \r
    # before it is skipped whitespace); str.splitlines would also break
    # at characters such as \x0c that the lexer rejects.
    heads: list[tuple[int, str, str, int]] = []
    for lineno, text in enumerate(source.split("\n"), start=1):
        # A head is a name between blanks, then "=", so the body starts
        # at token 2. A line without one is skipped when it holds no
        # token, else it is a bare process.
        name, eq, _ = text.partition("=")
        name = name.strip(" \t\r")
        if eq and is_valid_name(name):
            heads.append((lineno, text, name, 2))
        elif text.lstrip(" \t\r")[:1] not in ("", "#"):
            heads.append((lineno, text, MAIN_NAME, 0))
    if not heads:
        raise ParseError(1, 1, "at least one process definition", "end of input")
    bindings = dict.fromkeys(head[2] for head in heads)
    for lineno, text, name, start in heads:
        parser = _Parser(text, lineno, start, bindings)
        if bindings[name] is not None:
            raise DuplicateDefinition(name, *parser.position(0))
        bindings[name] = parser.parse_full_process()
    root = MAIN_NAME if MAIN_NAME in bindings else next(reversed(bindings))
    return DefinitionEnv(bindings=bindings, root=root)
