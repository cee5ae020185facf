"""Generated-input laws of the lexer and the parser."""

import string

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rosa_lts import (
    INF,
    NIL,
    ExtChoice,
    IntChoice,
    LexError,
    Nil,
    Par,
    Prefix,
    ProbChoice,
    Seq,
    Var,
    parse_process_text,
    parse_program,
    pretty_print,
)
from rosa_lts.parser import _scan

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
    _, lexemes, token_lines, columns = _scan(source, 1)
    for lexeme, line, column in zip(lexemes, token_lines, columns):
        start = column - 1
        assert lines[line - 1][start : start + len(lexeme)] == lexeme


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
