"""The term keys and the pipeline's records compare, hash and print by their fields.

Each case builds a value twice, once the way the program does and once with
every field spelled out by keyword.  The two must compare equal and hash
equal, like the tuple of their fields, and print as `Class(field=value, ...)`.
No value of another class with the same fields compares equal.  Records that
hold a dict are unhashable.
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import pytest

from spraylie import cli, geom, liealg
from spraylie.fields import BaseField, MembershipVerdict, TMField, VectorOneForm, VectorTwoForm
from spraylie.symexpr import ZERO, LinForm, Monomial, const, parse_expr, xvar, yvar

_ONE = const(1)
_CURVED = parse_expr("x1*y2")
_PLANE = ((ZERO, _CURVED), (-_CURVED, ZERO))  # R^k_ij for one k, antisymmetric in i, j


def _subspace():
    return liealg.Subspace(2, {0: {0: Fraction(1)}})


def _problem_fields():
    metric = geom.diagonal_metric([_ONE])
    return dict(
        name="line", dim=1, coordinates=("x1",), metric=metric,
        fields={"e1": BaseField((_ONE,))}, sets={"all": ("e1",)},
        expected_tables={}, expected_coeffs={}, accepted_corrections={}, analyses=("spray",),
    )


# (build the program's way, the fields by keyword, hashable)
_RECORDS = [
    pytest.param(
        lambda: Monomial.make({1: 2}, {2: 1}),
        lambda: dict(x=((1, 2),), y=((2, 1),)),
        True, id="Monomial",
    ),
    pytest.param(
        lambda: LinForm.make({2: -1, 1: Fraction(1, 2)}),
        lambda: dict(coeffs=((1, Fraction(1, 2)), (2, Fraction(-1)))),
        True, id="LinForm",
    ),
    pytest.param(
        lambda: BaseField.make([xvar(1), _ONE]),
        lambda: dict(components=(xvar(1), _ONE)),
        True, id="BaseField",
    ),
    pytest.param(
        lambda: TMField.make([xvar(1), _ONE]),
        lambda: dict(components=(xvar(1), _ONE)),
        True, id="TMField",
    ),
    pytest.param(
        lambda: VectorOneForm.identity(1),
        lambda: dict(matrix=((_ONE, ZERO), (ZERO, _ONE))),
        True, id="VectorOneForm",
    ),
    pytest.param(
        lambda: VectorTwoForm(((TMField.zero(1),), ())),
        lambda: dict(upper=((TMField((ZERO, ZERO)),), ())),
        True, id="VectorTwoForm",
    ),
    pytest.param(
        lambda: MembershipVerdict("in_AS", True),
        lambda: dict(predicate="in_AS", ok=True, residual=None, location=""),
        True, id="MembershipVerdict",
    ),
    pytest.param(
        lambda: geom.diagonal_metric([_ONE]),
        lambda: dict(dim=1, g=((_ONE,),), kind="diagonal", g_inv=None),
        True, id="MetricSpec",
    ),
    pytest.param(
        lambda: geom.SprayData((yvar(1) * yvar(1),)),
        lambda: dict(G=(yvar(1) ** 2,)),
        True, id="SprayData",
    ),
    pytest.param(
        lambda: geom.ConnectionData(((yvar(1),),)),
        lambda: dict(gamma1=((yvar(1),),)),
        True, id="ConnectionData",
    ),
    pytest.param(
        lambda: geom.CurvatureData((_PLANE, _PLANE)),
        lambda: dict(R1=(_PLANE, _PLANE)),
        True, id="CurvatureData",
    ),
    pytest.param(
        lambda: liealg.Subspace.from_vectors([[0, 2]], 2),
        lambda: dict(ambient_dim=2, rows={1: {1: 1}}),
        False, id="Subspace",
    ),
    pytest.param(
        lambda: liealg.DerivationSpace(3, 2),
        lambda: dict(dimension=3, inner_dimension=2),
        True, id="DerivationSpace",
    ),
    pytest.param(
        lambda: liealg.LeviResult(_subspace(), _subspace()),
        lambda: dict(radical=_subspace(), levi=_subspace()),
        False, id="LeviResult",
    ),
    pytest.param(lambda: cli.Problem(**_problem_fields()), _problem_fields, False, id="Problem"),
]

# the index each record builds from its table, which takes part in nothing
_INDEXES = {geom.ConnectionData: "gamma2", geom.CurvatureData: "R2"}
# classes with the same fields, which still never compare equal
_SIBLINGS = {BaseField: TMField, TMField: BaseField}


@pytest.mark.parametrize("build, fields, hashable", _RECORDS)
def test_records_compare_hash_and_print_by_their_fields(build, fields, hashable):
    built = build()
    cls = type(built)
    spelled = cls(**fields())
    values = tuple(fields().values())
    assert built == spelled and not built != spelled and built is not spelled
    index = _INDEXES.get(cls)
    if index:
        object.__setattr__(spelled, index, {})
        assert built == spelled and index not in repr(built)
    others = [values, SimpleNamespace(**fields())]
    if cls in _SIBLINGS:
        others.append(_SIBLINGS[cls](*values))
    for other in others:
        assert built != other and not built == other
    assert repr(built) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields().items())})"
    if hashable:
        assert hash(built) == hash(spelled) == hash(values)
    else:
        with pytest.raises(TypeError):
            hash(built)
