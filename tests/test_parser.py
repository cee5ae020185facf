"""Lexer and parser behaviour, including error positions."""

import random

import pytest

from rosa_lts import (
    INF,
    NIL,
    DuplicateDefinition,
    ExtChoice,
    IntChoice,
    LexError,
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
from rosa_lts.parser import _positions, _scan
from gen import gen_process


def kinds(source):
    return _scan(source, 1)[0]


def lexemes(source):
    return _scan(source, 1)[1]


def test_tokenize_rated_prefix():
    assert list(zip(*_scan("<a,0.3>.0", 1)[:2])) == [
        ("<", "<"),
        ("IDENT", "a"),
        (",", ","),
        ("NUMBER", "0.3"),
        (">", ">"),
        (".", "."),
        ("0", "0"),
    ]


def test_tokenize_prob_choice():
    assert kinds("P*{0.25}Q") == ["IDENT", "*", "{", "NUMBER", "}", "IDENT"]


def test_tokenize_empty_and_comments():
    assert kinds("") == []
    assert kinds("  # only a comment") == []
    assert kinds("a.0 # trailing") == ["IDENT", ".", "0"]


def test_tokenize_operators_and_keywords():
    assert kinds("0;a||{b}c-d+e*{1}inf=()") == [
        "0", ";", "IDENT", "||", "{", "IDENT", "}",
        "IDENT", "-", "IDENT", "+", "IDENT", "*", "{",
        "NUMBER", "}", "inf", "=", "(", ")",
    ]


def test_tokenize_distinguishes_zero_from_numbers():
    assert kinds("0") == ["0"]
    assert kinds("0.5") == ["NUMBER"]
    assert kinds("10") == ["NUMBER"]
    assert lexemes("2e3 1.5e-2") == ["2e3", "1.5e-2"]


def test_token_positions_are_one_based():
    assert _positions("a\n  b", 1) == [(1, 1), (2, 3)]


def test_lex_error_position():
    with pytest.raises(LexError) as err:
        kinds("a.0 @ b")
    assert err.value.position == (1, 5)
    assert str(err.value) == "1:5: unexpected character '@'"
    assert (err.value.expected, err.value.found) == ("a token", "'@'")


def test_single_pipe_is_not_a_token():
    with pytest.raises(LexError):
        kinds("a.0|b.0")


@pytest.mark.parametrize("source,position", [("²", (1, 1)), ("<a,٣>", (1, 4))])
def test_non_ascii_digits_begin_no_token(source, position):
    with pytest.raises(LexError) as err:
        kinds(source)
    assert err.value.position == position


# Line breaks for str.splitlines, but characters the lexer rejects.
FOREIGN_LINE_ENDS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize(
    "char", FOREIGN_LINE_ENDS, ids=lambda c: f"U+{ord(c):04X}"
)
def test_program_lines_end_at_newline_only(char):
    with pytest.raises(LexError) as err:
        parse_program("P = a.0" + char + "Q = b.0")
    assert err.value.position == (1, 8)
    assert err.value.char == char


def test_program_with_crlf_line_ends_parses():
    env = parse_program("P = a.Q\r\nQ = <b,0.5>.P\r\n")
    assert env.root == "Q"
    assert env.lookup("P") == Prefix("a", INF, Var("Q"))
    assert env.lookup("Q") == Prefix("b", 0.5, Var("P"))


def test_parse_parallel_with_sync_set():
    p = parse_process_text("<a,0.3>.0||{a,c}<b,inf>.0")
    assert p == Par(
        frozenset({"a", "c"}),
        Prefix("a", 0.3, NIL),
        Prefix("b", INF, NIL),
    )


def test_parse_prefix_right_nests():
    assert parse_process_text("a.b.0") == Prefix("a", INF, Prefix("b", INF, NIL))


def test_parse_seq_binds_loosest():
    p = parse_process_text("E;(C*{0.25}L)||{i}R")
    assert p == Seq(
        Var("E"),
        Par(
            frozenset({"i"}),
            ProbChoice(0.25, Var("C"), Var("L")),
            Var("R"),
        ),
    )


def test_parse_choices_share_one_level_left_assoc():
    p = parse_process_text("a.P-b.Q+c.R")
    assert p == ExtChoice(
        IntChoice(
            Prefix("a", INF, Var("P")),
            Prefix("b", INF, Var("Q")),
        ),
        Prefix("c", INF, Var("R")),
    )


def test_parse_seq_is_right_associative():
    p = parse_process_text("a.0;b.0;c.0")
    assert p == Seq(
        Prefix("a", INF, NIL),
        Seq(Prefix("b", INF, NIL), Prefix("c", INF, NIL)),
    )


def test_parse_par_is_left_associative():
    p = parse_process_text("a.0||{x}b.0||{y}c.0")
    left = Par(frozenset({"x"}), Prefix("a", INF, NIL), Prefix("b", INF, NIL))
    assert p == Par(frozenset({"y"}), left, Prefix("c", INF, NIL))


def test_parse_empty_sync_set():
    p = parse_process_text("a.0||{}b.0")
    assert isinstance(p, Par) and p.sync == frozenset()


def test_bare_rated_atom_gets_nil_continuation():
    assert parse_process_text("<k,0.8>") == Prefix("k", 0.8, NIL)


def test_zero_accepted_as_probability():
    p = parse_process_text("a.0*{0}b.0")
    assert isinstance(p, ProbChoice) and p.prob == 0.0


def test_parentheses_override_priorities():
    p = parse_process_text("(a.0;b.0)-c.0")
    assert p == IntChoice(
        Seq(Prefix("a", INF, NIL), Prefix("b", INF, NIL)),
        Prefix("c", INF, NIL),
    )


PARSE_ERRORS = [
    ("", "a process"),
    ("a.", "a process"),
    ("<a,>", "a rate"),
    ("<a,0.3.0", "'>'"),
    ("a.0-", "a process"),
    ("a.0)", "an operator or end of input"),
    ("(a.0", "')'"),
    ("0.a", "an operator or end of input"),
    ("(a.0).b", "an operator or end of input"),
    ("a.0*{inf}b.0", "a probability"),
    ("a.0||b.0", "'{' after '||'"),
    ("a.0||{1}b.0", "'}' closing the synchronization set"),
]


@pytest.mark.parametrize("source,expected_fragment", PARSE_ERRORS)
def test_parse_errors(source, expected_fragment):
    with pytest.raises(ParseError) as err:
        parse_process_text(source)
    assert expected_fragment in err.value.expected


def test_parse_error_position_points_into_source():
    with pytest.raises(ParseError) as err:
        parse_process_text("a.0 - ;")
    line, column = err.value.position
    assert line == 1 and 1 <= column <= len("a.0 - ;") + 1


def test_validation_errors_for_out_of_range_literals():
    with pytest.raises(ValidationError):
        parse_process_text("a.0*{1.5}b.0")
    with pytest.raises(ValidationError):
        parse_process_text("<a,0>.0")
    # a probability of exactly 1 is fine
    assert parse_process_text("a.0*{1}b.0").prob == 1.0


def test_overflowing_rate_is_a_validation_error():
    with pytest.raises(ValidationError) as err:
        parse_process_text("<a,1e999>.0")
    assert err.value.position == (1, 4)


def test_parse_program_binds_and_picks_root():
    env = parse_program(
        """
        # two definitions, no main
        P = a.0
        Q = P;b.0
        """
    )
    assert list(env.bindings) == ["P", "Q"]
    assert env.root == "Q"
    assert env.lookup("Q") == Seq(Var("P"), Prefix("b", INF, NIL))


def test_parse_program_bare_line_becomes_main_root():
    env = parse_program("Q = a.0\n0\n")
    assert env.root == "main"
    assert env.lookup("main") == NIL


def test_parse_program_duplicate_definition():
    with pytest.raises(DuplicateDefinition) as err:
        parse_program("P = a.0\n  P = b.0\n")
    assert err.value.name == "P"
    # The source position, read as for a parse or validation error.
    assert (err.value.line, err.value.column) == err.value.position == (2, 3)


def test_parse_program_error_positions_use_file_lines():
    cases = [
        ("P = a.0\nQ = b.\n", (2, 7)),
        # an empty body ends just after its '='
        ("P =", (1, 4)),
        ("Q = a.0\nP =   # c", (2, 4)),
    ]
    for source, position in cases:
        with pytest.raises(ParseError) as err:
            parse_program(source)
        assert err.value.position == position, source


def test_parse_program_empty_input_is_an_error():
    with pytest.raises(ParseError):
        parse_program("# nothing but comments\n\n")


def test_undefined_names_become_action_constants():
    env = parse_program("P = x.f\nmain = P;f\n")
    # f is never defined: both uses mean the action constant f.0
    assert env.lookup("P") == Prefix("x", INF, Prefix("f", INF, NIL))
    assert env.lookup("main") == Seq(Var("P"), Prefix("f", INF, NIL))


def test_forward_references_stay_variables():
    env = parse_program("main = A;A\nA = a.0\n")
    assert env.lookup("main") == Seq(Var("A"), Var("A"))


def test_round_trip_on_random_asts():
    rng = random.Random(20210)
    for _ in range(300):
        p = gen_process(rng, depth=3, allow_var=True)
        again = parse_process_text(pretty_print(p))
        assert again == p, pretty_print(p)


# Chains far deeper than the interpreter's recursion limit. The terms
# are walked here with loops only: printing or building them would
# cache a printed key per node, quadratic in the depth.
DEEP = 100_000


def chain_length(p, kind, step):
    n = 0
    while type(p) is kind:
        n += 1
        p = step(p)
    return n, p


def test_parse_program_takes_a_long_prefix_chain():
    env = parse_program(".".join(f"a{i % 5}" for i in range(DEEP)) + ".0\n")
    n, tail = chain_length(env.lookup("main"), Prefix, lambda p: p.continuation)
    assert (n, tail) == (DEEP, NIL)


def test_parse_program_takes_a_long_sequence():
    env = parse_program(";".join(["0"] * DEEP) + "\n")
    n, last = chain_length(env.lookup("main"), Seq, lambda p: p.right)
    assert (n, last) == (DEEP - 1, NIL)


def test_parentheses_nest_to_any_depth():
    source = "(" * 10_000 + "a.0" + ")" * 10_000
    assert parse_process_text(source) == Prefix("a", INF, NIL)
    assert parse_program(source + "\n").lookup("main") == Prefix("a", INF, NIL)
    with pytest.raises(ParseError, match="expected '\\)', found end of input"):
        parse_process_text(source[:-1])


def test_parse_program_takes_a_deeply_nested_choice():
    levels = 10_000
    source = "".join(f"a{i % 5} + b.(" for i in range(levels)) + "0" + ")" * levels
    env = parse_program(source + "\n")
    n, last = chain_length(env.lookup("main"), ExtChoice,
                           lambda p: p.right.continuation)
    assert (n, last) == (levels, NIL)


def test_parse_program_closes_free_names_in_a_long_choice():
    operands = 10_000
    env = parse_program("+".join(f"a{i % 5}" for i in range(operands)) + "\n")
    n, first = chain_length(env.lookup("main"), ExtChoice, lambda p: p.left)
    assert (n, first) == (operands - 1, Prefix("a0", INF, NIL))
