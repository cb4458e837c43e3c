"""The package's value classes keep the construction, equality and repr
their former dataclass definitions had, and all of them are frozen: hashed
by their fields and refusing assignment; each repr below is the text the
dataclass generated."""

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import deformq
from deformq.closedform import GaugeOperator
from deformq.graphs import AdmissibleGraph
from deformq.linsymp import LinearDirac, SkewForm, Subspace, SubspaceClass
from deformq.operators import MultiDiffOp
from deformq.polyalg import FormalSeries, Polynomial, PolyVector
from deformq.record import Frozen
from deformq.starprod import StarSeries
from deformq.table import WeightEntry
from deformq.weights import WeightEstimate

P = Polynomial
F = Fraction
MUL1 = MultiDiffOp.multiplication(1)
ID1 = MultiDiffOp.identity(1)

# class, positional args, the same instance by keyword (first key: a field
# to assign), the args of a different instance, repr
CASES = [
    (AdmissibleGraph, (1, 2, ([-1, -2],)), dict(n=1, nbar=2, stars=((-1, -2),)),
     (1, 2, ((-2, -1),)),
     "AdmissibleGraph(n=1, nbar=2, stars=((-1, -2),))"),
    (Polynomial, (2,), dict(dim=2, terms={}), (2, {(1, 0): 3}),
     "Polynomial(dim=2, terms={})"),
    (FormalSeries, (1, [P(1), P(1, {(1,): 1})]),
     dict(order=1, coeffs=(P(1), P(1, {(1,): F(1)}))), (0, [P(1)]),
     "FormalSeries(order=1, coeffs=(Polynomial(dim=1, terms={}), "
     "Polynomial(dim=1, terms={(1,): Fraction(1, 1)})))"),
    (PolyVector, (2, 1, {(1,): P(2, {(0, 1): 1})}),
     dict(dim=2, degree=1, components={(1,): P(2, {(0, 1): 1})}), (2, 1),
     "PolyVector(dim=2, degree=1, components={(1,): "
     "Polynomial(dim=2, terms={(0, 1): Fraction(1, 1)})})"),
    (MultiDiffOp, (1, 2), dict(dim=1, arity=2, terms={}),
     (1, 1, {((1,),): P(1, {(0,): 1})}),
     "MultiDiffOp(dim=1, arity=2, terms={})"),
    (StarSeries, (0, (MUL1,)), dict(order=0, ops=(MUL1,)),
     (0, (MultiDiffOp.multiplication(2),)),
     "StarSeries(order=0, ops=(MultiDiffOp(dim=1, arity=2, terms={((0,), (0,)): "
     "Polynomial(dim=1, terms={(0,): Fraction(1, 1)})}),))"),
    (GaugeOperator, (0, (ID1,)), dict(order=0, maps=(ID1,)),
     (0, (MultiDiffOp.identity(2),)),
     "GaugeOperator(order=0, maps=(MultiDiffOp(dim=1, arity=1, terms={((0,),): "
     "Polynomial(dim=1, terms={(0,): Fraction(1, 1)})}),))"),
    (WeightEstimate, ("1;2;[b1,b2]", 0.5, 0.01, 10000, 7),
     dict(graph="1;2;[b1,b2]", mean=0.5, stderr=0.01, samples=10000, seed=7),
     ("1;2;[b1,b2]", 0.5, 0.01, 10000, 8),
     "WeightEstimate(graph='1;2;[b1,b2]', mean=0.5, stderr=0.01, samples=10000, "
     "seed=7)"),
    (WeightEntry, (0.5, 0.01, 10000, 7, F(1, 2)),
     dict(mean=0.5, stderr=0.01, samples=10000, seed=7, snapped=F(1, 2)),
     (0.25, 0.01, 10000, 7, None),
     "WeightEntry(mean=0.5, stderr=0.01, samples=10000, seed=7, "
     "snapped=Fraction(1, 2))"),
    (SkewForm, (2, ((0, 1), (-1, 0))), dict(dim=2, matrix=((0, F(1)), (-1, 0))),
     (2, ((0, 2), (-2, 0))),
     "SkewForm(dim=2, matrix=((Fraction(0, 1), Fraction(1, 1)), "
     "(Fraction(-1, 1), Fraction(0, 1))))"),
    (Subspace, (2, ((1, 0),)), dict(ambient_dim=2, basis=((F(1), F(0)),)),
     (2, ((0, 1),)),
     "Subspace(ambient_dim=2, basis=((Fraction(1, 1), Fraction(0, 1)),))"),
    (LinearDirac, (1, ((1, 0),)), dict(ambient_dim=1, basis=((1, 0),)),
     (1, ((0, 1),)),
     "LinearDirac(ambient_dim=1, basis=((Fraction(1, 1), Fraction(0, 1)),))"),
    (SubspaceClass, (True, False, False, False),
     dict(isotropic=True, coisotropic=False, symplectic=False, lagrangian=False),
     (True, True, False, False),
     "SubspaceClass(isotropic=True, coisotropic=False, symplectic=False, "
     "lagrangian=False)"),
]


@pytest.mark.parametrize(
    "cls, args, kwargs, other_args, text", CASES, ids=[c[0].__name__ for c in CASES]
)
def test_value_class_contract(cls, args, kwargs, other_args, text):
    a, b, other = cls(*args), cls(**kwargs), cls(*other_args)
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != "text" and not a == "text"
    assert repr(a) == text
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
    field = next(iter(kwargs))
    assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b


@pytest.mark.parametrize(
    "cls, kwargs", [(c[0], c[2]) for c in CASES], ids=[c[0].__name__ for c in CASES]
)
def test_constructor_refuses_a_call_that_does_not_bind_every_field_once(cls, kwargs):
    fields = cls.__slots__
    full = tuple(kwargs[name] for name in fields)
    assert cls(*full) == cls(**kwargs)
    missing = {name: value for name, value in kwargs.items() if name != fields[0]}
    with pytest.raises(TypeError, match="missing"):
        cls(**missing)
    with pytest.raises(TypeError, match="positional"):
        cls(*full, full[0])
    with pytest.raises(TypeError, match="unexpected"):
        cls(**kwargs, unknown=1)
    with pytest.raises(TypeError, match="multiple"):
        cls(full[0], **kwargs)


def test_every_value_class_has_a_contract_case():
    for module in pkgutil.iter_modules(deformq.__path__):
        importlib.import_module(f"deformq.{module.name}")
    found, todo = set(), [Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("deformq."):
                found.add(sub)
    assert found == {c[0] for c in CASES}
