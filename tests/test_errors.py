"""The error hierarchy crosses process boundaries intact."""

import pickle

import pytest

from rosa_lts import (
    DuplicateDefinition,
    LexError,
    ParseError,
    UnboundVariable,
    UnguardedRecursion,
    ValidationError,
)

ERRORS = [
    ParseError(1, 5, "a process", "end of input"),
    LexError(2, 3, "@"),
    ValidationError(4, 9, "probability must lie in [0,1]"),
    DuplicateDefinition("P", 3, 1),
    UnboundVariable("X"),
    UnguardedRecursion(("P", "Q", "P")),
]


@pytest.mark.parametrize("error", ERRORS, ids=lambda e: type(e).__name__)
def test_errors_survive_pickle(error):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)
