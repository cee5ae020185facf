"""The contract of the public records: construction, equality, hashing,
``repr``, immutability, slots, pickling and copying, plus the import
path those records keep light."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import rosa_lts
from rosa_lts import (
    INF,
    NIL,
    Action,
    BuildConfig,
    DefinitionEnv,
    ExportOptions,
    ExtChoice,
    IntChoice,
    Lts,
    LtsEdge,
    LtsNode,
    NdBranch,
    Nil,
    NodeKind,
    Par,
    Prefix,
    Prob,
    ProbChoice,
    Seq,
    Var,
    build_lts,
    parse_program,
    pretty_print,
)
from rosa_lts.process import _Record

A = Prefix("a", INF, NIL)
NODE = LtsNode(0, NIL, "0", NodeKind.SUCCESS)
EDGE = LtsEdge(0, 0, Prob(1.0))

# (class, field names, field values, the values of an unequal record of
# that class or None, repr)
RECORDS = [
    (Nil, (), (), None, "Nil()"),
    (Var, ("name",), ("P",), ("Q",), "Var(name='P')"),
    (
        Prefix,
        ("action", "rate", "continuation"),
        ("a", 1.0, NIL),
        ("a", 2.0, NIL),
        "Prefix(action='a', rate=1.0, continuation=Nil())",
    ),
    (Seq, ("left", "right"), (A, NIL), (NIL, A), "Seq(left=" + repr(A) + ", right=Nil())"),
    (IntChoice, ("left", "right"), (NIL, A), (A, NIL), "IntChoice(left=Nil(), right=" + repr(A) + ")"),
    (ExtChoice, ("left", "right"), (NIL, NIL), (NIL, A), "ExtChoice(left=Nil(), right=Nil())"),
    (
        ProbChoice,
        ("prob", "left", "right"),
        (0.25, NIL, A),
        (0.75, NIL, A),
        "ProbChoice(prob=0.25, left=Nil(), right=" + repr(A) + ")",
    ),
    (
        Par,
        ("sync", "left", "right"),
        (frozenset({"a"}), A, NIL),
        (frozenset(), A, NIL),
        "Par(sync=frozenset({'a'}), left=" + repr(A) + ", right=Nil())",
    ),
    (
        DefinitionEnv,
        ("bindings", "root"),
        ({"P": NIL}, "main"),
        ({"P": NIL}, "P"),
        "DefinitionEnv(bindings={'P': Nil()}, root='main')",
    ),
    (NdBranch, ("path",), ("L.R",), ("L",), "NdBranch(path='L.R')"),
    (Prob, ("p",), (0.5,), (0.25,), "Prob(p=0.5)"),
    (Action, ("name", "rate"), ("a", INF), ("a", 1.0), "Action(name='a', rate=inf)"),
    (
        LtsNode,
        ("id", "process", "key", "kind"),
        (0, NIL, "0", NodeKind.SUCCESS),
        (1, NIL, "0", NodeKind.SUCCESS),
        "LtsNode(id=0, process=Nil(), key='0', kind=<NodeKind.SUCCESS: 'success'>)",
    ),
    (
        LtsEdge,
        ("source", "target", "label"),
        (0, 1, Prob(1.0)),
        (0, 1, Action("a", INF)),
        "LtsEdge(source=0, target=1, label=Prob(p=1.0))",
    ),
    (
        Lts,
        ("nodes", "edges", "root", "truncated"),
        ([NODE], [EDGE], 0, False),
        ([NODE], [EDGE], 0, True),
        f"Lts(nodes=[{NODE!r}], edges=[{EDGE!r}], root=0, truncated=False)",
    ),
    (BuildConfig, ("max_states",), (100_000,), (5,), "BuildConfig(max_states=100000)"),
    (ExportOptions, ("node_labels",), ("both",), ("id",), "ExportOptions(node_labels='both')"),
]

# The mutable records, and the frozen one that holds a dict.
UNHASHABLE = {Lts, BuildConfig, DefinitionEnv}
MUTABLE = {Lts, BuildConfig}
SLOTTED = {Nil, Var, Prefix, Seq, IntChoice, ExtChoice, ProbChoice, Par,
           NdBranch, Prob, Action, LtsNode, LtsEdge}


def _cases():
    return pytest.mark.parametrize(
        "cls,names,values,other,text",
        RECORDS,
        ids=[record[0].__name__ for record in RECORDS],
    )


@_cases()
def test_positional_and_keyword_construction(cls, names, values, other, text):
    assert cls.__match_args__ == names
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for name, value in zip(names, values):
        assert getattr(by_position, name) == value
    assert by_position == by_keyword


@_cases()
def test_equality_is_by_class_and_fields(cls, names, values, other, text):
    record = cls(*values)
    assert record == cls(*values)
    assert not record != cls(*values)
    if other is not None:
        assert record != cls(*other)
    assert record.__eq__(object()) is NotImplemented
    assert record != object()


def test_equal_fields_of_another_node_class_are_unequal():
    for a, b in [(Seq, IntChoice), (IntChoice, ExtChoice), (ExtChoice, Seq)]:
        assert a(NIL, A) != b(NIL, A)
        assert a(NIL, A).__eq__(b(NIL, A)) is NotImplemented


@_cases()
def test_hashing(cls, names, values, other, text):
    record = cls(*values)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(**dict(zip(names, values))))
        assert len({record, cls(*values)}) == 1


@_cases()
def test_repr(cls, names, values, other, text):
    assert repr(cls(*values)) == text


@_cases()
def test_frozen_records_refuse_assignment_and_deletion(cls, names, values, other, text):
    record = cls(*values)
    for name, value in zip(names, values):
        if cls in MUTABLE:
            setattr(record, name, value)
        else:
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
    assert record == cls(*values)


def test_slotted_records_take_no_other_attribute():
    for cls, names, values, other, text in RECORDS:
        if cls in SLOTTED:
            assert not hasattr(cls(*values), "__dict__"), cls


@_cases()
@pytest.mark.parametrize(
    "round_trip",
    [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_pickle_and_copy_round_trip(cls, names, values, other, text, round_trip):
    record = cls(*values)
    again = round_trip(record)
    assert type(again) is cls
    assert again == record


def test_round_tripped_nodes_print_and_build():
    env = parse_program("P = <a,2>.(P ||{a} b.0) *{0.5} c.0\nmain = P + d.0")
    text = pretty_print(env.bindings["P"])
    for round_trip in (lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy):
        again = round_trip(env)
        assert pretty_print(again.bindings["P"]) == text
        assert build_lts(again) == build_lts(env)


@pytest.mark.parametrize("value", [True, "0.5"], ids=["bool", "str"])
def test_a_probability_label_takes_a_number_only(value):
    # As ProbChoice's weight and Action's rate: a bool is no number,
    # and a string is not converted.
    with pytest.raises(ValueError):
        Prob(value)


# the generic base ------------------------------------------------------------

_set = object.__setattr__


class NoField(_Record):
    __slots__ = ()


class OneField(_Record):
    __slots__ = __match_args__ = ("x",)

    def __init__(self, x):
        _set(self, "x", x)


class OtherOneField(OneField):
    __slots__ = ()


class ThreeFields(_Record):
    # ``note`` is a slot but no field: equality, hashing, pickling and
    # copying must ignore it.
    __slots__ = ("x", "y", "z", "note")
    __match_args__ = ("x", "y", "z")

    def __init__(self, x, y, z, note=None):
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "z", z)
        _set(self, "note", note)


class OtherThreeFields(ThreeFields):
    __slots__ = ()


BASE_CASES = [
    (NoField, (), None),
    (OneField, (1,), (2,)),
    (ThreeFields, (1, "a", (NIL,)), (1, "a", (A,))),
]


@pytest.mark.parametrize("cls,values,other", BASE_CASES,
                         ids=[case[0].__name__ for case in BASE_CASES])
def test_the_base_compares_hashes_and_copies_exactly_the_fields(cls, values, other):
    record = cls(*values)
    assert record == cls(*values) and hash(record) == hash(cls(*values))
    if other is not None:
        assert record != cls(*other)
        assert len({record, cls(*values), cls(*other)}) == 2
    for round_trip in (lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy):
        again = round_trip(record)
        assert type(again) is cls and again == record
        assert [getattr(again, name) for name in cls.__match_args__] == list(values)


def test_a_slot_that_is_no_field_takes_no_part():
    record = ThreeFields(1, 2, 3, note="kept out")
    assert record == ThreeFields(1, 2, 3, note="other")
    assert hash(record) == hash(ThreeFields(1, 2, 3))
    assert pickle.loads(pickle.dumps(record)).note is None
    assert copy.copy(record).note is None


def test_records_of_two_classes_with_equal_fields_are_unequal():
    for a, b in [(OneField(1), OtherOneField(1)),
                 (ThreeFields(1, 2, 3), OtherThreeFields(1, 2, 3)),
                 (NoField(), Nil())]:
        assert a != b and b != a
        assert a.__eq__(b) is NotImplemented


# import path --------------------------------------------------------------

SRC = Path(rosa_lts.__file__).resolve().parent.parent


def test_the_cli_import_loads_no_heavy_stdlib_module():
    # -S keeps site's .pth files from preloading modules, so the set
    # holds what importing the package adds to a bare interpreter.
    script = (
        "import sys; before = set(sys.modules); import rosa_lts.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "rosa_lts.cli" in out
    assert not {"dataclasses", "inspect", "json", "typing"} & set(out)


def test_the_package_defines_no_dataclass():
    offenders = [
        f"{path.name}:{number}"
        for path in sorted((SRC / "rosa_lts").glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "dataclass" in line
    ]
    assert offenders == []
