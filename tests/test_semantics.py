"""Transition rule families, stability dispatch and classification."""

import gc
import random
from collections import Counter

import pytest

import rosa_lts.canonical
import rosa_lts.semantics

from rosa_lts import (
    INF,
    NIL,
    Action,
    DefinitionEnv,
    ExtChoice,
    IntChoice,
    NdBranch,
    NodeKind,
    Par,
    Prefix,
    Prob,
    ProbChoice,
    Seq,
    UnguardedRecursion,
    Var,
    action_successors,
    canonicalize,
    classify,
    nd_successors,
    parse_process_text,
    parse_program,
    prob_successors,
)
import reference_semantics as ref
from gen import VAR_ENV, gen_process

EMPTY = DefinitionEnv(bindings={})


def a(name="a", cont=NIL):
    return Prefix(name, INF, cont)


def test_unfold_resolves_root_variables():
    env = DefinitionEnv(bindings={"E": Prefix("a", 0.1, NIL)})
    assert ref._unfold(Var("E"), env, ())[0] == Prefix("a", 0.1, NIL)
    assert ref._unfold(NIL, env, ())[0] == NIL


def test_unfold_diverges_on_unguarded_recursion():
    env = DefinitionEnv(bindings={"P": Var("P")})
    with pytest.raises(UnguardedRecursion):
        ref._unfold(Var("P"), env, ())[0]


def test_det_stability():
    nd, action = NodeKind.ND_UNSTABLE, NodeKind.ACTION_ENABLED
    assert classify(IntChoice(a(), a("b")), EMPTY) == nd
    assert classify(Prefix("a", 0.3, IntChoice(a("b"), a("c"))), EMPTY) == action
    assert classify(ExtChoice(a(), a("b")), EMPTY) == action
    assert classify(Par(frozenset(), IntChoice(a(), a("b")), a()), EMPTY) == nd
    assert classify(Seq(IntChoice(a(), a("b")), a()), EMPTY) == nd
    # the right of ';' is guarded by completion of the left
    assert classify(Seq(a(), IntChoice(a(), a("b"))), EMPTY) == action


def test_det_stability_of_the_staged_pipeline_root():
    env = parse_program(
        "E = <a,0.1>.b.(<c,0.2>.f||{f,i}<d,0.3>.f||{f,i}<e,0.4>.f)\n"
        "C = <g,0.5>.h.<i,0.6>\n"
        "R = j.<i,0.7>\n"
        "L = <k,0.8>\n"
        "M = E;(C*{0.25}L)||{i}R\n"
    )
    assert classify(Var("M"), env) == NodeKind.ACTION_ENABLED


def test_prob_stability():
    c = Prefix("g", 0.5, NIL)
    l = Prefix("k", 0.8, NIL)
    prob, action = NodeKind.PROB_UNSTABLE, NodeKind.ACTION_ENABLED
    assert classify(ProbChoice(0.25, c, l), EMPTY) == prob
    assert classify(Prefix("g", 0.5, ProbChoice(0.25, c, l)), EMPTY) == action
    assert classify(
        Par(frozenset({"i"}), ProbChoice(0.25, c, l), a("j")), EMPTY
    ) == prob
    assert classify(Seq(a(), ProbChoice(0.25, c, l)), EMPTY) == action


def test_mutually_unguarded_definitions_are_diagnosed():
    env = DefinitionEnv(
        bindings={
            "P1": Par(frozenset(), Var("P2"), NIL),
            "P2": Par(frozenset(), Var("P1"), NIL),
        }
    )
    with pytest.raises(UnguardedRecursion):
        classify(Var("P1"), env)


def test_nd_axiom_branches():
    succ = nd_successors(IntChoice(a(), a("b")), EMPTY)
    assert succ == [(NdBranch("L"), a()), (NdBranch("R"), a("b"))]


def test_nd_congruence_through_parallel():
    p = Par(frozenset(), IntChoice(a(), a("b")), a("c"))
    succ = nd_successors(p, EMPTY)
    assert succ == [
        (NdBranch("L.L"), Par(frozenset(), a(), a("c"))),
        (NdBranch("L.R"), Par(frozenset(), a("b"), a("c"))),
    ]


def test_nd_congruence_through_seq_left():
    p = Seq(IntChoice(a(), a("b")), a("c"))
    succ = nd_successors(p, EMPTY)
    assert [s for _, s in succ] == [Seq(a(), a("c")), Seq(a("b"), a("c"))]
    assert [b.path for b, _ in succ] == ["L.L", "L.R"]


def test_nd_resolves_one_choice_per_successor():
    p = ExtChoice(IntChoice(a(), a("b")), IntChoice(a("c"), a("d")))
    succ = nd_successors(p, EMPTY)
    assert [b.path for b, _ in succ] == ["L.L", "L.R", "R.L", "R.R"]
    # each successor still contains the other, unresolved, choice
    for _, s in succ:
        assert isinstance(s, ExtChoice)
        assert isinstance(s.left, IntChoice) != isinstance(s.right, IntChoice)


def test_nd_on_stable_process_is_a_contract_violation():
    with pytest.raises(ValueError):
        nd_successors(a(), EMPTY)


@pytest.mark.parametrize(
    "source", ["0", "a.0+b.0", "a.0;(b.0-c.0)", "(a.0*{0.5}b.0)||{}c.0"]
)
def test_nd_on_any_det_stable_process_is_a_contract_violation(source):
    with pytest.raises(ValueError, match="deterministically unstable"):
        nd_successors(parse_process_text(source), EMPTY)


def test_prob_axiom_branches_keep_variables_folded():
    # Unguarded variables unfold to their bodies; a guarded one stays.
    env = DefinitionEnv(
        bindings={"C": Prefix("g", 0.5, Var("C")), "L": Prefix("k", 0.8, NIL)}
    )
    succ = prob_successors(ProbChoice(0.25, Var("C"), Var("L")), env)
    assert succ == [
        (Prob(0.25), Prefix("g", 0.5, Var("C"))),
        (Prob(0.75), Prefix("k", 0.8, NIL)),
    ]


def test_prob_zero_branch_is_pruned():
    # S5 removes the choice, so no probabilistic layer is left.
    p = parse_process_text("a.0*{1}b.0")
    assert classify(p, EMPTY) == NodeKind.ACTION_ENABLED
    with pytest.raises(ValueError, match="probabilistically unstable"):
        prob_successors(p, EMPTY)


def test_prob_product_resolution():
    p = Par(
        frozenset(),
        ProbChoice(0.5, a(), a("b")),
        ProbChoice(0.5, a("c"), a("d")),
    )
    succ = prob_successors(p, EMPTY)
    assert [lbl.p for lbl, _ in succ] == [0.25, 0.25, 0.25, 0.25]
    assert [s for _, s in succ] == [
        Par(frozenset(), a(), a("c")),
        Par(frozenset(), a(), a("d")),
        Par(frozenset(), a("b"), a("c")),
        Par(frozenset(), a("b"), a("d")),
    ]
    assert sum(lbl.p for lbl, _ in succ) == pytest.approx(1.0, abs=1e-9)


def test_prob_on_stable_process_is_a_contract_violation():
    with pytest.raises(ValueError):
        prob_successors(a(), EMPTY)


def test_action_prefix_fires():
    succ = action_successors(Prefix("k", 0.8, NIL), EMPTY)
    assert succ == [(Action("k", 0.8), NIL)]


def test_action_interleaving_and_blocking():
    p = Par(frozenset({"a", "c"}), Prefix("a", 0.3, NIL), Prefix("b", INF, NIL))
    succ = action_successors(p, EMPTY)
    # the a offer waits for a partner; b moves freely, and the
    # canonical successor puts 0 first
    assert succ == [
        (Action("b", INF), Par(frozenset({"a", "c"}), NIL, Prefix("a", 0.3, NIL)))
    ]


def test_action_external_choice_keeps_both_alternatives():
    p = ExtChoice(Prefix("a", 1.0, NIL), Prefix("a", 2.0, NIL))
    succ = action_successors(p, EMPTY)
    assert succ == [(Action("a", 1.0), NIL), (Action("a", 2.0), NIL)]


def test_action_synchronization_takes_minimum_rate():
    p = Par(frozenset({"i"}), Prefix("i", 0.6, NIL), Prefix("i", 0.7, NIL))
    succ = action_successors(p, EMPTY)
    # S2 turns 0 ||{i} 0 into 0.
    assert succ == [(Action("i", 0.6), NIL)]


def test_action_seq_moves_by_the_left_operand():
    p = Seq(Prefix("a", 1.0, NIL), a("b"))
    succ = action_successors(p, EMPTY)
    # S1 turns 0;b.0 into b.0.
    assert succ == [(Action("a", 1.0), a("b"))]


def test_action_nil_has_no_moves():
    assert action_successors(NIL, EMPTY) == []


def test_par_action_names_are_complete():
    # outside the sync set every side moves alone; inside, only together
    p = Par(
        frozenset({"s"}),
        ExtChoice(Prefix("s", 1.0, NIL), Prefix("x", 1.0, NIL)),
        ExtChoice(Prefix("s", 2.0, NIL), Prefix("y", 1.0, NIL)),
    )
    names = [lbl.name for lbl, _ in action_successors(p, EMPTY)]
    assert sorted(names) == ["s", "x", "y"]


def test_sync_rate_laws():
    # The joint rate of <a,x>.0 ||{a} <a,y>.0, and of three-way syncs.
    def pre(x):
        return Prefix("a", x, NIL)

    def sync(left, right):
        return Par(frozenset({"a"}), left, right)

    def rate(p):
        [(label, _)] = action_successors(p, EMPTY)
        return label.rate

    def joint(x, y):
        return rate(sync(pre(x), pre(y)))

    rates = [0.2, 0.5, 1.0, INF]
    for x in rates:
        assert joint(x, INF) == joint(INF, x) == x
        for y in rates:
            assert joint(x, y) == joint(y, x) == min(x, y)
            for z in rates:
                left = rate(sync(sync(pre(x), pre(y)), pre(z)))
                right = rate(sync(pre(x), sync(pre(y), pre(z))))
                assert left == right == min(x, y, z)
    assert joint(0.2, 0.5) == 0.2
    assert joint(INF, INF) == INF


def test_classification_order():
    assert classify(NIL, EMPTY) == NodeKind.SUCCESS
    assert classify(IntChoice(a(), a("b")), EMPTY) == NodeKind.ND_UNSTABLE
    assert classify(ProbChoice(0.5, a(), a("b")), EMPTY) == NodeKind.PROB_UNSTABLE
    assert classify(a(), EMPTY) == NodeKind.ACTION_ENABLED
    # a lone sync offer with no partner blocks forever
    assert (
        classify(Par(frozenset({"a"}), Prefix("a", 1.0, NIL), NIL), EMPTY)
        == NodeKind.DEADLOCK
    )
    # instability wins over everything below it
    assert (
        classify(IntChoice(ProbChoice(0.5, a(), a()), NIL), EMPTY)
        == NodeKind.ND_UNSTABLE
    )


@pytest.mark.parametrize("source,kind", [
    ("b.0-a.0", NodeKind.ND_UNSTABLE),
    ("(a.0||{}(b.0-c.0))+d.0", NodeKind.ND_UNSTABLE),
    ("((a.0*{0.5}b.0)-c.0);d.0", NodeKind.ND_UNSTABLE),
    ("a.0*{0.3}b.0", NodeKind.PROB_UNSTABLE),
    ("(a.0||{a}(b.0*{0.5}c.0))+d.0", NodeKind.PROB_UNSTABLE),
    ("(a.0+(b.0*{0.5}c.0));d.0", NodeKind.PROB_UNSTABLE),
])
def test_classify_reads_an_unstable_layer_from_the_mark(monkeypatch, source, kind):
    # The layer is stored on each canonical node, so only a stable state
    # is walked, to tell a deadlock from a state with action moves.
    calls = []
    offers = rosa_lts.semantics._offers

    def spy(p, memo):
        calls.append(p)
        return offers(p, memo)

    monkeypatch.setattr(rosa_lts.semantics, "_offers", spy)
    p = canonicalize(parse_process_text(source), EMPTY)
    assert classify(p, EMPTY) == kind
    assert calls == []
    assert classify(parse_process_text("a.0||{a}0"), EMPTY) == NodeKind.DEADLOCK
    assert calls


FAMILIES = {
    NodeKind.ND_UNSTABLE: (nd_successors, ref.nd_successors),
    NodeKind.PROB_UNSTABLE: (prob_successors, ref.prob_successors),
    NodeKind.ACTION_ENABLED: (action_successors, ref.action_successors),
    NodeKind.DEADLOCK: (action_successors, ref.action_successors),
    NodeKind.SUCCESS: (action_successors, ref.action_successors),
}


def test_layer_walks_match_the_reference():
    # One classification walk and linear families against the earlier
    # separate stability walks. The entry points answer for the
    # canonical form, so a raw term and its canonical form must both
    # give the reference's results on the canonical form. The walks
    # return canonical successors, where the reference spells them raw;
    # the reference's own canonicalizer, which shares no rewrite code
    # with the package, puts them in canonical form.
    rng = random.Random(3)
    seen = Counter()
    for _ in range(400):
        raw = gen_process(rng, 4, allow_var=True)
        canonical = canonicalize(raw, VAR_ENV)
        kind = ref.classify(canonical, VAR_ENV)
        family, reference = FAMILIES[kind]
        expected = [(label, ref.canonicalize(s, VAR_ENV))
                    for label, s in reference(canonical, VAR_ENV)]
        for p in (raw, canonical):
            assert classify(p, VAR_ENV) == kind, p
            assert family(p, VAR_ENV) == expected, p
        seen[kind] += 1
    assert set(seen) == set(NodeKind), seen


@pytest.mark.parametrize(
    "entry", [classify, nd_successors, prob_successors, action_successors]
)
def test_entry_points_reject_non_processes(entry):
    with pytest.raises(TypeError, match="not a Process"):
        entry("a.0", EMPTY)


def test_entry_points_answer_for_the_canonical_form():
    # S1 turns 0;a.0 into a.0, and S4 orders the operands of '-'.
    p = parse_process_text("0;a.0")
    assert classify(p, EMPTY) == NodeKind.ACTION_ENABLED
    assert classify(parse_process_text("0;0"), EMPTY) == NodeKind.SUCCESS
    assert action_successors(p, EMPTY) == [(Action("a", INF), NIL)]
    succ = nd_successors(parse_process_text("b.0-a.0"), EMPTY)
    assert succ == [(NdBranch("L"), a()), (NdBranch("R"), a("b"))]
    # The unfolding that canonicalizes the root finds the cycle.
    with pytest.raises(UnguardedRecursion):
        classify(Var("P"), parse_program("P = 0;P\nmain = a.0"))
    # Successors are canonical too: S2 turns the synchronized 0 ||{i} 0
    # into 0, and a fired prefix unfolds its continuation, so a cycle
    # behind the action is found there.
    sync = parse_process_text("<i,0.6>.0 ||{i} <i,0.7>.0")
    assert action_successors(sync, EMPTY) == [(Action("i", 0.6), NIL)]
    with pytest.raises(UnguardedRecursion):
        action_successors(parse_process_text("a.P"), parse_program("P = P"))


def test_a_call_outside_a_build_makes_one_record(monkeypatch):
    # Each call makes one build record of its own, dropped on return.
    made = []

    class Spy(rosa_lts.canonical._Build):
        __slots__ = ()

        def __init__(self, env):
            super().__init__(env)
            made.append(type(env))

    monkeypatch.setattr(rosa_lts.canonical, "_Build", Spy)
    p = parse_process_text("<a,1>.0 ||{} <b,1>.0")
    assert classify(p, EMPTY) == NodeKind.ACTION_ENABLED
    assert made == [DefinitionEnv]
    assert len(action_successors(p, EMPTY)) == 2
    assert made == [DefinitionEnv, DefinitionEnv]
    gc.collect()
    assert not [o for o in gc.get_objects() if type(o) is Spy]
