"""The package's immutable records: constructor signatures, equality and
hashing, repr, and their refusal of assignment."""

import copy
import inspect
import pickle

import pytest

from heckezero.cyclic_shift import EquivClass
from heckezero.hecke import CenterBasisReport, HeckeElement

ELEMENTS = frozenset({(2, 3, 1), (3, 1, 2)})


def make(cls, **changes):
    args = {
        EquivClass: dict(elements=ELEMENTS, common_length=2, alpha=(3,)),
        HeckeElement: dict(n=3, terms={(1, 2, 3): 1, (2, 1, 3): -2}),
        CenterBasisReport: dict(
            n=3, alphas=((1, 1, 1), (2, 1), (3,)), central=(True,) * 3,
            rank=3, dim=3, failures=()),
    }[cls]
    return cls(**{**args, **changes})


def fields(cls):
    return list(inspect.signature(cls).parameters)


NONE = inspect.Parameter.empty


@pytest.mark.parametrize("cls, params", [
    (EquivClass, [("elements", NONE), ("common_length", NONE), ("alpha", None)]),
    (HeckeElement, [("n", NONE), ("terms", NONE)]),
    (CenterBasisReport, [("n", NONE), ("alphas", NONE), ("central", NONE),
                         ("rank", NONE), ("dim", NONE), ("failures", ())]),
])
def test_constructor_signature(cls, params):
    parameters = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in parameters] == params
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters)


def test_defaults():
    assert EquivClass(ELEMENTS, 2).alpha is None
    report = CenterBasisReport(1, ((1,),), (True,), 1, 1)
    assert report.failures == ()
    assert report.ok


@pytest.mark.parametrize("cls, change", [
    (EquivClass, {"alpha": None}), (EquivClass, {"common_length": 3}),
    (CenterBasisReport, {"n": 4}), (CenterBasisReport, {"failures": ("x",)}),
])
def test_equality_and_hash_follow_the_fields(cls, change):
    a, b = make(cls), make(cls)
    assert a == b and hash(a) == hash(b) and a is not b
    assert len({a, b}) == 1
    assert make(cls, **change) != a
    # a record equals no tuple of its fields
    assert a != tuple(getattr(a, name) for name in fields(cls))


def test_hecke_elements_compare_terms_and_do_not_hash():
    a = make(HeckeElement)
    b = HeckeElement(3, {(2, 1, 3): -2, (1, 2, 3): 1})
    assert a == b
    assert a != make(HeckeElement, n=4)
    assert a != make(HeckeElement, terms={(1, 2, 3): 1})
    with pytest.raises(TypeError):
        hash(a)


def test_repr():
    assert repr(EquivClass(frozenset({(1,)}), 0)) == (
        "EquivClass(elements=frozenset({(1,)}), common_length=0, alpha=None)")
    assert repr(make(HeckeElement)) == (
        "HeckeElement(n=3, {(1, 2, 3): 1, (2, 1, 3): -2})")
    assert repr(make(CenterBasisReport)) == (
        "CenterBasisReport(n=3, alphas=((1, 1, 1), (2, 1), (3,)), "
        "central=(True, True, True), rank=3, dim=3, failures=())")


@pytest.mark.parametrize("cls", [EquivClass, HeckeElement, CenterBasisReport])
def test_assignment_raises_attribute_error(cls):
    record = make(cls)
    name = fields(cls)[0]
    with pytest.raises(AttributeError):
        setattr(record, name, 5)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == getattr(make(cls), name)


@pytest.mark.parametrize("cls", [EquivClass, HeckeElement, CenterBasisReport])
def test_copy_and_pickle_round_trip(cls):
    record = make(cls)
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
