"""AST construction, validation and printing."""

import random

import pytest

from rosa_lts import (
    INF,
    NIL,
    DefinitionEnv,
    ExtChoice,
    IntChoice,
    Par,
    Prefix,
    ProbChoice,
    Seq,
    UnboundVariable,
    Var,
    canonicalize,
    parse_process_text,
    pretty_print,
)
from rosa_lts.process import format_number
from gen import VAR_ENV, gen_process


def a(name="a", cont=NIL):
    return Prefix(name, INF, cont)


def test_rate_and_prob_coercion():
    p = Prefix("a", 1, NIL)
    assert isinstance(p.rate, float) and p.rate == 1.0
    q = ProbChoice(1, NIL, a())
    assert isinstance(q.prob, float) and q.prob == 1.0


def test_infinite_is_a_singleton_value():
    assert INF == float("inf")
    assert Prefix("a", float("inf"), NIL) == Prefix("a", INF, NIL)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Prefix("a", 0, NIL),
        lambda: Prefix("a", -1.5, NIL),
        lambda: Prefix("a", float("nan"), NIL),
        lambda: Prefix("a", True, NIL),
        lambda: Prefix("inf", 1.0, NIL),
        lambda: Prefix("0a", 1.0, NIL),
        lambda: Var("inf"),
        lambda: Var(""),
        lambda: ProbChoice(1.5, NIL, NIL),
        lambda: ProbChoice(-0.1, NIL, NIL),
        lambda: Par(frozenset({"not an ident"}), NIL, NIL),
        lambda: Var("é"),
        lambda: Var("a\n"),
        # too large for a float: an error, not the passive rate
        lambda: Prefix("a", 10**400, NIL),
        lambda: ProbChoice(10**400, NIL, NIL),
        # a string is not a set of names
        lambda: Par("ab", NIL, NIL),
        lambda: Par(5, NIL, NIL),
        lambda: Par(None, NIL, NIL),
        # every operand is a process
        lambda: Prefix("a", 1.0, "x"),
        lambda: Seq(NIL, 3),
        lambda: IntChoice(None, NIL),
        lambda: ExtChoice("a.0", NIL),
        lambda: ProbChoice(0.5, NIL, None),
        lambda: Par(frozenset(), NIL, Var),
    ],
)
def test_invalid_constructions_are_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_par_sync_becomes_a_frozenset():
    p = Par(["b", "a", "b"], NIL, NIL)
    assert p.sync == frozenset({"a", "b"})


def test_number_formatting_round_trips():
    for value in [0.3, 1.0, 2.5, 0.25, 1e-05, 10.0, 0.1 + 0.2]:
        text = format_number(value)
        assert float(text) == value
    assert format_number(INF) == "inf"
    assert format_number(2.0) == "2.0"


PRINT_CASES = [
    (NIL, "0"),
    (Var("P"), "P"),
    (a(), "a.0"),
    (Prefix("a", 0.3, NIL), "<a,0.3>.0"),
    (a("a", a("b")), "a.b.0"),
    # a continuation that binds looser than prefix needs parentheses
    (Prefix("a", INF, ExtChoice(a("b"), a("c"))), "a.(b.0+c.0)"),
    (Seq(a(), Seq(a("b"), a("c"))), "a.0;b.0;c.0"),
    (Seq(Seq(a(), a("b")), a("c")), "(a.0;b.0);c.0"),
    (Par(frozenset(), Par(frozenset(), a(), a("b")), a("c")), "a.0||{}b.0||{}c.0"),
    (Par(frozenset(), a(), Par(frozenset(), a("b"), a("c"))), "a.0||{}(b.0||{}c.0)"),
    (Par(frozenset({"c", "a"}), a(), a("b")), "a.0||{a,c}b.0"),
    (IntChoice(IntChoice(a(), a("b")), a("c")), "a.0-b.0-c.0"),
    (IntChoice(a(), IntChoice(a("b"), a("c"))), "a.0-(b.0-c.0)"),
    (ExtChoice(IntChoice(a(), a("b")), a("c")), "a.0-b.0+c.0"),
    (ProbChoice(0.25, a(), a("b")), "a.0*{0.25}b.0"),
    (IntChoice(Seq(a(), a("b")), a("c")), "(a.0;b.0)-c.0"),
    (Seq(IntChoice(a(), a("b")), a("c")), "a.0-b.0;c.0"),
    (Par(frozenset(), ExtChoice(a(), a("b")), a("c")), "a.0+b.0||{}c.0"),
    (Par(frozenset(), a("c"), ExtChoice(a(), a("b"))), "c.0||{}a.0+b.0"),
    (Seq(a(), Par(frozenset(), a("b"), a("c"))), "a.0;b.0||{}c.0"),
]


@pytest.mark.parametrize("process,expected", PRINT_CASES)
def test_pretty_print(process, expected):
    assert pretty_print(process) == expected


def test_structural_equality_is_order_sensitive():
    left = ExtChoice(a(), a("b"))
    right = ExtChoice(a("b"), a())
    assert left == ExtChoice(a(), a("b"))
    assert left != right


def test_definition_env_lookup():
    env = DefinitionEnv(bindings={"P": a()}, root="P")
    assert env.lookup("P") == a()
    assert env.root_process() == a()
    with pytest.raises(UnboundVariable):
        env.lookup("Q")


def test_cached_key_is_invisible_to_equality_hash_and_repr():
    rng = random.Random(11)
    for _ in range(100):
        p = gen_process(rng, depth=4, allow_var=True)
        printed = repr(p)
        # fills the caches of p and of the nodes below it
        text = pretty_print(p)
        canonicalize(p, VAR_ENV)
        # the same tree rebuilt with no cache filled
        fresh = parse_process_text(text)
        assert p == fresh and fresh == p
        assert hash(p) == hash(fresh)
        assert repr(p) == printed == repr(fresh)


def test_nodes_are_slotted_and_frozen():
    p = a("b")
    assert not hasattr(p, "__dict__")
    with pytest.raises(AttributeError):
        p.note = 1
    with pytest.raises(AttributeError):
        p.action = "c"
    assert Prefix.__match_args__ == ("action", "rate", "continuation")
    assert Prefix("b", INF, NIL) == Prefix(action="b", rate=INF, continuation=NIL)


def test_shared_subtrees_print_once_in_each_position():
    shared = ExtChoice(a("x"), a("y"))
    p = Par(frozenset(), IntChoice(shared, shared), Prefix("z", INF, shared))
    assert pretty_print(p) == "x.0+y.0-(x.0+y.0)||{}z.(x.0+y.0)"
    assert str(shared) == "x.0+y.0"


def test_pretty_print_of_a_deep_chain_does_not_recurse():
    depth = 10_000
    chain = NIL
    for _ in range(depth):
        chain = Prefix("a", INF, chain)
    assert pretty_print(chain) == "a." * depth + "0"


def test_pretty_print_rejects_non_processes():
    with pytest.raises(TypeError):
        pretty_print("a.0")
