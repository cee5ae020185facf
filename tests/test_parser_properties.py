"""Generated-input laws of the lexer and the parser."""

import string

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rosa_lts import (
    INF,
    NIL,
    DuplicateDefinition,
    ExtChoice,
    IntChoice,
    LexError,
    Nil,
    Par,
    ParseError,
    Prefix,
    ProbChoice,
    Seq,
    ValidationError,
    Var,
    parse_process_text,
    parse_program,
    pretty_print,
)
from rosa_lts.parser import IDENT, _Parser, _positions, _scan
from rosa_lts.process import is_valid_name

from reference_lexer import reference_scan
from reference_parser import ReferenceParser

PROPERTY = settings(derandomize=True, deadline=None)

IDENTS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True).filter(
    lambda name: name != "inf"
)
RATES = st.one_of(
    st.just(INF),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
PROBS = st.floats(min_value=0.0, max_value=1.0)


def terms(var_names=IDENTS):
    leaves = st.one_of(
        st.just(NIL),
        st.builds(Var, var_names),
        st.builds(Prefix, IDENTS, RATES, st.just(NIL)),
    )

    def extend(children):
        return st.one_of(
            st.builds(Prefix, IDENTS, RATES, children),
            st.builds(Seq, children, children),
            st.builds(IntChoice, children, children),
            st.builds(ExtChoice, children, children),
            st.builds(ProbChoice, PROBS, children, children),
            st.builds(Par, st.frozensets(IDENTS, max_size=3), children, children),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def subterms(p):
    stack = [p]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Prefix):
            stack.append(node.continuation)
        elif not isinstance(node, (Var, Nil)):
            stack += (node.left, node.right)


@PROPERTY
@given(terms())
def test_printing_then_parsing_gives_the_term_back(p):
    assert parse_process_text(pretty_print(p)) == p


# Pieces that lex on their own, in any order: every join of them is
# valid input to the lexer.
PIECES = [
    "a", "b1", "_x", "inf", "0", "12", "0.5", "1e3", "2.5E-2", "||",
    ".", ";", "-", "+", "*", "<", ">", ",", "{", "}", "(", ")", "=",
    " ", "\t", "\r", "\n", "  ", "# note",
]


@PROPERTY
@given(st.lists(st.sampled_from(PIECES), max_size=40))
def test_token_positions_point_at_their_lexemes(pieces):
    source = "".join(pieces)
    lines = source.split("\n")
    _, lexemes = _scan(source, 1)
    for lexeme, (line, column) in zip(lexemes, _positions(source, 1)):
        start = column - 1
        assert lines[line - 1][start : start + len(lexeme)] == lexeme


# Comments that hold what would lex as tokens, and characters that
# begin no token: a lone "|", a form feed, a non-ASCII digit, a lone
# surrogate and others.
COMMENTS_WITH_TOKENS = ["# P = a.0", "#=", "# x # y", "#inf 0.5 ||"]
FOREIGN = ["|", "\x0c", "\u00b2", "\ud800", "@", "\u00e9", "\x85", "\u0663"]
LEXER_PIECES = PIECES + COMMENTS_WITH_TOKENS + FOREIGN + ["\r", "\r\n"]


def scanned(scan, source, first_line):
    """The four lists of a scan, or its LexError's position and char."""
    try:
        return scan(source, first_line)
    except LexError as err:
        return err.position, err.char


def scan_with_positions(source, first_line):
    kinds, lexemes = _scan(source, first_line)
    positions = _positions(source, first_line)
    return kinds, lexemes, [p[0] for p in positions], [p[1] for p in positions]


@settings(PROPERTY, max_examples=300)
@given(st.lists(st.sampled_from(LEXER_PIECES), max_size=40), st.integers(1, 3))
def test_the_scan_and_its_positions_are_the_reference_lexer(pieces, first_line):
    source = "".join(pieces)
    assert scanned(scan_with_positions, source, first_line) == scanned(
        reference_scan, source, first_line
    )


# Text around what no name may be: non-ASCII letters, which Python
# takes in identifiers, a digit first, and the keyword "inf".
NAME_PIECES = ["a", "Z", "_", "inf", "infx", "_inf", "0", "7", "12", "0.5",
               "\u00e9", "\u00df", "\u03a9", "\u00aa", "\uff41", "\u212a", "# \u00e9",
               " ", "\n", ".", ",", "<", ">"]


@settings(PROPERTY, max_examples=300)
@given(st.lists(st.sampled_from(NAME_PIECES), max_size=12))
def test_every_ident_lexeme_is_a_valid_name(pieces):
    # The parser builds its nodes unchecked: every IDENT it reads is a
    # name that the checking constructors accept, and it reads every
    # such name as an IDENT.
    try:
        kinds, lexemes = _scan("".join(pieces), 1)
    except LexError:
        return
    for kind, lexeme in zip(kinds, lexemes):
        assert (kind == IDENT) == is_valid_name(lexeme), lexeme


class KeptPositionsParser(_Parser):
    """`_Parser` reading positions from the lists of the reference
    lexer, as it did when the scan kept them."""

    def position(self, index):
        _, lexemes, lines, columns = reference_scan(self.source, self.first_line)
        if index < len(lexemes):
            return lines[index], columns[index]
        if not lexemes:
            return 1, 1
        return lines[-1], columns[-1] + len(lexemes[-1])


# Operands with their heads and parentheses, and the binary operators:
# joined in turn, with the parentheses closed, they make valid input.
OPENS = ["", "", "(", "((", "a.(", "<b1,2>.("]
OPERANDS = ["a", "b1", "_x", "0", "<a,1>", "a.b1", "a.b1.<_x,inf>.0"]
CLOSES = ["", "", ")", "))"]
OPERATORS = [";", "||{}", "||{a}", "||{a,b1}", "-", "+", "*{0.5}", "*{1}"]


@st.composite
def token_joins(draw):
    """A join of lexable pieces, or a valid input with up to three
    pieces spliced in: malformed input mostly, valid input often."""
    if draw(st.integers(0, 3)) == 0:
        return "".join(draw(st.lists(st.sampled_from(PIECES), max_size=30)))
    parts, depth = [], 0
    for i in range(draw(st.integers(1, 8))):
        if i:
            parts.append(draw(st.sampled_from(OPERATORS)))
        opens, closes = draw(st.sampled_from(OPENS)), draw(st.sampled_from(CLOSES))
        depth += opens.count("(")
        closes = closes[:depth]
        depth -= len(closes)
        parts += opens, draw(st.sampled_from(OPERANDS)), closes
    # One parenthesis may stay open.
    source = "".join(parts) + ")" * draw(st.integers(max(depth - 1, 0), depth))
    for _ in range(draw(st.sampled_from([0, 0, 1, 3]))):
        at = draw(st.integers(0, len(source)))
        source = source[:at] + draw(st.sampled_from(PIECES)) + source[at:]
    return source


def parsed(parser, source, defined):
    try:
        return parser(source, 1, 0, defined).parse_full_process()
    except ParseError as err:  # LexError included
        return type(err), err.line, err.column, err.expected, err.found
    except ValidationError as err:
        return type(err), err.line, err.column, str(err)


@settings(PROPERTY, max_examples=150)
@given(token_joins(), st.sampled_from([None, {"a": None, "_x": None}]))
def test_the_loop_parses_as_the_recursive_descent_reference(source, defined):
    # The reference recurses four frames per parenthesis level, which
    # the at most 30 "(" of a draw stay within.
    assert parsed(_Parser, source, defined) == parsed(ReferenceParser, source, defined)


@settings(PROPERTY, max_examples=150)
@given(token_joins(), st.lists(st.sampled_from(LEXER_PIECES), max_size=4), st.data())
def test_diagnostics_on_many_lines_point_where_the_reference_lexer_did(
    source, pieces, data
):
    # Multi-line text, as parse_process_text takes it.
    for piece in pieces + ["\n"]:
        at = data.draw(st.integers(0, len(source)))
        source = source[:at] + piece + source[at:]
    assert parsed(_Parser, source, None) == parsed(KeptPositionsParser, source, None)


DEFINED = ["P", "Q", "R", "main"]


def close(p, defined):
    """Reference rewrite: Var leaves naming no definition become actions."""
    if isinstance(p, Var):
        return p if p.name in defined else Prefix(p.name, INF, NIL)
    if isinstance(p, Prefix):
        return Prefix(p.action, p.rate, close(p.continuation, defined))
    if isinstance(p, ProbChoice):
        return ProbChoice(p.prob, close(p.left, defined), close(p.right, defined))
    if isinstance(p, Par):
        return Par(p.sync, close(p.left, defined), close(p.right, defined))
    if isinstance(p, (Seq, IntChoice, ExtChoice)):
        return type(p)(close(p.left, defined), close(p.right, defined))
    return p


@PROPERTY
@given(
    st.dictionaries(
        st.sampled_from(DEFINED),
        terms(st.sampled_from(DEFINED + ["S", "x"])),
        min_size=1,
    )
)
def test_every_remaining_variable_names_a_definition(definitions):
    source = "".join(f"{name} = {pretty_print(p)}\n" for name, p in definitions.items())
    env = parse_program(source)
    assert list(env.bindings) == list(definitions)
    for name, body in env.bindings.items():
        assert body == close(definitions[name], definitions)
        for node in subterms(body):
            assert not isinstance(node, Var) or node.name in env.bindings


ALPHABET = set(string.ascii_letters + string.digits + "_.;-+*<>,{}()=|# \t\r\n")


@PROPERTY
@given(terms(), st.data())
def test_a_foreign_character_is_a_lex_error_at_that_character(p, data):
    source = pretty_print(p)
    at = data.draw(st.integers(min_value=0, max_value=len(source)))
    # Splitting "||" leaves a lone "|", which fails first.
    assume(source[at - 1 : at + 1] != "||")
    char = data.draw(st.characters().filter(lambda c: c not in ALPHABET))
    try:
        _scan(source[:at] + char + source[at:], 1)
    except LexError as err:
        assert err.position == (1, at + 1)
        assert err.char == char
    else:
        raise AssertionError(f"{char!r} lexed")


def two_pass_parse(source):
    """Reference `parse_program`: a line is a definition when its first
    two tokens are a name and "=", every bare name parses as a variable,
    and the names left undefined are closed into actions afterwards."""
    bindings = {}
    for lineno, text in enumerate(source.split("\n"), start=1):
        kinds, lexemes = _scan(text, lineno)
        if not kinds:
            continue
        name, start = "main", 0
        if kinds[:2] == [IDENT, "="]:
            name, start = lexemes[0], 2
        if name in bindings:
            raise DuplicateDefinition(name, *_positions(text, lineno)[0])
        bindings[name] = _Parser(text, lineno, start).parse_full_process()
    if not bindings:
        raise ParseError(1, 1, "at least one process definition", "end of input")
    root = "main" if "main" in bindings else list(bindings)[-1]
    return [(name, close(p, bindings)) for name, p in bindings.items()], root


def outcome(parse, source):
    try:
        return parse(source)
    except (LexError, ParseError, DuplicateDefinition) as err:
        return type(err), str(err)


BLANKS = st.text(" \t\r", max_size=2)
NAMES = ["P", "Q", "R", "S", "main", "a"]
# Bodies whose bare names are defined or not; "a # = b" is the bare
# name a and a comment.
BODIES = st.one_of(
    terms(st.sampled_from(NAMES + ["T"])).map(pretty_print),
    st.sampled_from(["a # = b", "P", "T"]),
)
# Heads that are no name (the keyword, two names, a non-ASCII name) and
# bodies that do not parse, drawn for one line in eight.
ODD_HEADS = st.sampled_from(["inf", "a b", "é", ""])
ODD_BODIES = st.sampled_from(["", "a.", "(", "a b"])
COMMENTS = st.sampled_from(["", " # x = y", "# note", "#="])


def _one_in_eight(draw, odd, usual):
    return draw(odd if draw(st.integers(0, 7)) == 0 else usual)


@st.composite
def program_lines(draw):
    """One line: a definition, a bare process, a blank or a comment."""
    kind = draw(st.sampled_from(["definition", "bare", "blank", "comment"]))
    if kind == "blank":
        return draw(BLANKS)
    if kind == "comment":
        return draw(BLANKS) + draw(COMMENTS.filter(bool))
    body = _one_in_eight(draw, ODD_BODIES, BODIES) + draw(COMMENTS)
    if kind == "bare":
        return draw(BLANKS) + body
    name = _one_in_eight(draw, ODD_HEADS, st.sampled_from(NAMES))
    return "".join([draw(BLANKS), name, draw(BLANKS), "=", draw(BLANKS), body])


@settings(PROPERTY, max_examples=300)
@given(
    st.lists(program_lines(), min_size=1, max_size=6), st.sampled_from(["", "\n"])
)
def test_line_heads_decide_the_program_as_a_token_scan_does(lines, end):
    source = "\n".join(lines) + end
    env = outcome(parse_program, source)
    if not isinstance(env, tuple):
        env = list(env.bindings.items()), env.root
    assert env == outcome(two_pass_parse, source)
