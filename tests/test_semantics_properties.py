"""Generated-input laws of the canonical form and the rule layer."""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rosa_lts import (
    INF,
    NIL,
    ExtChoice,
    IntChoice,
    NodeKind,
    Par,
    Prefix,
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
    pretty_print,
    prob_successors,
)
from rosa_lts.semantics import PROB_TOLERANCE
from gen import ACTIONS, RATES, VAR_ENV, VAR_NAMES

PROPERTY = settings(derandomize=True, deadline=None)

NAMES = st.sampled_from(ACTIONS)
# Open probabilities include subnormals, whose products underflow.
OPEN_PROBS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
LEAVES = st.one_of(
    st.just(NIL),
    st.builds(Var, st.sampled_from(VAR_NAMES)),
    st.builds(Prefix, NAMES, st.sampled_from([*RATES, INF]), st.just(NIL)),
)


def _extend(children):
    return st.one_of(
        st.builds(Prefix, NAMES, st.sampled_from([*RATES, INF]), children),
        st.builds(Seq, children, children),
        st.builds(IntChoice, children, children),
        st.builds(ExtChoice, children, children),
        st.builds(ProbChoice, st.floats(0.0, 1.0), children, children),
        st.builds(Par, st.frozensets(NAMES, max_size=3), children, children),
    )


#: Terms over the guarded definitions of ``gen.VAR_ENV``.
TERMS = st.recursive(LEAVES, _extend, max_leaves=12)
ENTRY_POINTS = (classify, nd_successors, prob_successors, action_successors)


@PROPERTY
@given(TERMS)
def test_canonicalize_is_idempotent(p):
    c = canonicalize(p, VAR_ENV)
    assert canonicalize(c, VAR_ENV) is c
    # A fresh, unmarked copy goes through every rule again.
    assert canonicalize(parse_process_text(pretty_print(c)), VAR_ENV) == c


def _outcome(f, p, env):
    """What ``f(p, env)`` returns, or the type of the error it raises."""
    try:
        return f(p, env)
    except (UnguardedRecursion, ValueError) as exc:
        return type(exc)


@PROPERTY
@given(TERMS.map(lambda p: (p, VAR_ENV)))
@example((parse_process_text("0;a.0"), VAR_ENV))
@example((Var("P"), parse_program("P = 0;P\nmain = a.0")))
def test_the_rules_answer_for_the_canonical_form(case):
    p, env = case
    c = _outcome(canonicalize, p, env)
    for f in ENTRY_POINTS:
        expected = c if c is UnguardedRecursion else _outcome(f, c, env)
        assert _outcome(f, p, env) == expected, f.__name__


@PROPERTY
@given(st.builds(ProbChoice, OPEN_PROBS, TERMS, TERMS))
# Under || and + the weights of two choices multiply; 1e-200 squared
# underflows to 0, and that branch must be dropped, not rejected.
@example(parse_process_text("(a.0*{1e-200}b.0)||{}(c.0*{1e-200}d.0)"))
@example(parse_process_text("(a.0*{1e-200}b.0)+(c.0*{1e-200}d.0)"))
def test_prob_fan_outs_sum_to_one(p):
    assume(classify(p, VAR_ENV) == NodeKind.PROB_UNSTABLE)
    total = sum(label.p for label, _ in prob_successors(p, VAR_ENV))
    assert abs(total - 1.0) <= PROB_TOLERANCE
