"""Rewrite rules, canonical keys and their soundness properties."""

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
    UnguardedRecursion,
    Var,
    canonical_key,
    canonicalize,
    parse_process_text,
    pretty_print,
)
from gen import VAR_ENV, gen_process

EMPTY = DefinitionEnv(bindings={})


def a(name="a", cont=NIL):
    return Prefix(name, INF, cont)


def test_seq_unit_is_removed():
    g = Prefix("g", 0.5, NIL)
    assert canonicalize(Seq(NIL, g), EMPTY) == g
    # also below an action guard
    assert canonicalize(Prefix("x", 1.0, Seq(NIL, g)), EMPTY) == Prefix("x", 1.0, g)


def test_terminated_parallel_collapses_for_any_sync_set():
    assert canonicalize(Par(frozenset({"a"}), NIL, NIL), EMPTY) == NIL
    nested = Par(
        frozenset({"f", "i"}),
        Par(frozenset({"f", "i"}), NIL, NIL),
        NIL,
    )
    assert canonicalize(nested, EMPTY) == NIL


def test_idempotent_choices_collapse():
    assert canonicalize(IntChoice(a(), a()), EMPTY) == a()
    assert canonicalize(ExtChoice(a(), a()), EMPTY) == a()
    # operands are canonicalized before the comparison
    two_spellings = ExtChoice(
        ExtChoice(a(), a("b")), ExtChoice(a("b"), a())
    )
    assert canonicalize(two_spellings, EMPTY) == ExtChoice(a(), a("b"))
    # parallel composition of equal operands must NOT collapse
    doubled = Par(frozenset(), a(), a())
    assert canonicalize(doubled, EMPTY) == doubled


def test_commutative_operands_are_sorted():
    assert canonicalize(ExtChoice(a("b"), a()), EMPTY) == ExtChoice(a(), a("b"))
    assert canonicalize(IntChoice(a("b"), a()), EMPTY) == IntChoice(a(), a("b"))
    p = canonicalize(Par(frozenset({"s"}), a("b"), a()), EMPTY)
    assert p == Par(frozenset({"s"}), a(), a("b"))


def test_prob_choice_swap_flips_probability():
    c = Prefix("g", 0.5, NIL)
    l = Prefix("k", 0.8, NIL)
    assert canonicalize(ProbChoice(0.25, l, c), EMPTY) == ProbChoice(0.75, c, l)
    assert canonicalize(ProbChoice(0.75, c, l), EMPTY) == ProbChoice(0.75, c, l)


def test_degenerate_probabilities_prune():
    assert canonicalize(ProbChoice(1.0, a(), a("b")), EMPTY) == a()
    assert canonicalize(ProbChoice(0.0, a(), a("b")), EMPTY) == a("b")
    # the dead branch is never visited, so it may even diverge
    env = DefinitionEnv(bindings={"D": Var("D")})
    assert canonicalize(ProbChoice(1.0, a(), Var("D")), env) == a()


def test_flip_that_saturates_to_one_prunes():
    # 1 - 1e-300 rounds to exactly 1.0, so the swapped form degenerates,
    # and the weight prunes the same in either operand order
    p = ProbChoice(1e-300, a("b"), a())
    assert canonicalize(p, EMPTY) == a()
    assert canonicalize(ProbChoice(1e-300, a(), a("b")), EMPTY) == a("b")


def test_unguarded_variables_unfold_guarded_ones_stay():
    env = DefinitionEnv(bindings={"P": Prefix("a", INF, Var("P")), "Z": NIL})
    assert canonicalize(Var("P"), env) == Prefix("a", INF, Var("P"))
    assert canonicalize(Par(frozenset({"x"}), Var("Z"), NIL), env) == NIL
    assert canonicalize(Seq(NIL, Var("Z")), env) == NIL


def test_unguarded_recursion_is_diagnosed():
    env = DefinitionEnv(bindings={"P": Var("P")})
    with pytest.raises(UnguardedRecursion):
        canonicalize(Var("P"), env)


def test_keys_identify_commuted_spellings():
    assert canonical_key(ExtChoice(a(), a("b")), EMPTY) == canonical_key(
        ExtChoice(a("b"), a()), EMPTY
    )
    assert canonical_key(Par(frozenset({"x"}), NIL, NIL), EMPTY) == canonical_key(
        NIL, EMPTY
    )
    assert canonical_key(a(), EMPTY) == "a.0"


def test_canonicalize_is_idempotent_on_random_processes():
    rng = random.Random(7)
    for env, allow_var in ((EMPTY, False), (VAR_ENV, True)):
        for _ in range(200):
            p = gen_process(rng, depth=4, allow_var=allow_var, dyadic=True)
            once = canonicalize(p, env)
            # its own output comes back as the very same object
            assert canonicalize(once, env) is once
            # and equals what a cache-free copy canonicalizes to
            fresh = parse_process_text(pretty_print(once))
            assert canonicalize(fresh, env) == once


def test_canonical_subtrees_are_reused_in_new_contexts():
    rng = random.Random(12)
    for _ in range(100):
        parts = [
            canonicalize(gen_process(rng, depth=3, allow_var=True), VAR_ENV)
            for _ in range(2)
        ]
        copies = [parse_process_text(pretty_print(q)) for q in parts]
        sync = frozenset({"a", "b"})
        for build in (
            lambda l, r: Par(sync, l, r),
            lambda l, r: ExtChoice(r, l),
            lambda l, r: Seq(l, Prefix("x", INF, r)),
            lambda l, r: ProbChoice(0.25, r, l),
        ):
            reused = canonicalize(build(*parts), VAR_ENV)
            assert reused == canonicalize(build(*copies), VAR_ENV)
            assert canonicalize(reused, VAR_ENV) is reused


def test_swap_invariance_on_random_operands():
    rng = random.Random(8)
    checked = 0
    while checked < 100:
        left = gen_process(rng, depth=2, dyadic=True)
        right = gen_process(rng, depth=2, dyadic=True)
        assert canonical_key(ExtChoice(left, right), EMPTY) == canonical_key(
            ExtChoice(right, left), EMPTY
        )
        assert canonical_key(IntChoice(left, right), EMPTY) == canonical_key(
            IntChoice(right, left), EMPTY
        )
        sync = frozenset({"a"})
        assert canonical_key(Par(sync, left, right), EMPTY) == canonical_key(
            Par(sync, right, left), EMPTY
        )
        r = rng.choice([0.25, 0.5, 0.75, 0.123])
        if 1.0 - (1.0 - r) == r:  # the flip must be exactly invertible
            assert canonical_key(ProbChoice(r, left, right), EMPTY) == canonical_key(
                ProbChoice(1.0 - r, right, left), EMPTY
            )
        checked += 1


def test_swap_invariance_with_variables():
    rng = random.Random(13)
    sync = frozenset({"a"})
    for _ in range(200):
        left = gen_process(rng, depth=3, allow_var=True, dyadic=True)
        right = gen_process(rng, depth=3, allow_var=True, dyadic=True)
        for build in (
            ExtChoice,
            IntChoice,
            lambda l, r: Par(sync, l, r),
            # a commuted pair under a guard and on the right of ';'
            lambda l, r: Prefix("x", INF, ExtChoice(l, r)),
            lambda l, r: Seq(a(), IntChoice(l, r)),
        ):
            assert canonical_key(build(left, right), VAR_ENV) == canonical_key(
                build(right, left), VAR_ENV
            )


def test_prob_choice_of_equal_operands_is_orientation_free():
    assert canonical_key(ProbChoice(0.25, NIL, NIL), EMPTY) == canonical_key(
        ProbChoice(0.75, NIL, NIL), EMPTY
    )
    assert canonical_key(ProbChoice(0.3, NIL, NIL), EMPTY) == canonical_key(
        ProbChoice(0.7, NIL, NIL), EMPTY
    )


def test_canonical_forms_print_without_information_loss():
    rng = random.Random(9)
    for _ in range(100):
        p = gen_process(rng, depth=3, dyadic=True)
        c = canonicalize(p, EMPTY)
        assert canonical_key(p, EMPTY) == pretty_print(c)
