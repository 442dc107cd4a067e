"""The hand-written value classes behave as the dataclasses they stand for.

Each class is compared with a dataclass declared here with the same fields
(frozen unless noted): equality, hashing and repr must agree, fields must be
read-only, and copies must compare equal.
"""

import copy
import dataclasses
import pickle

import pytest

from gausschar.cyclo import CyclotomicElement, zeta_pow
from gausschar.modp import UnitFunction
from gausschar.spectral import SpectralValue, gauss_sum
from gausschar.verify import VerificationReport
from reference import Character

# For each frozen class: its fields, the keyword arguments of one value, and
# those of a value differing in one field.
FROZEN = (
    (CyclotomicElement, ("order", "coeffs"),
     dict(order=3, coeffs=(1, -2)), dict(order=3, coeffs=(1, 2))),
    (UnitFunction, ("p", "n", "exps"),
     dict(p=5, n=4, exps=(0, 1, 3, 2)), dict(p=5, n=4, exps=(0, 3, 1, 2))),
    (SpectralValue, ("value", "p", "n"),
     dict(value=zeta_pow(6, 1), p=3, n=2), dict(value=zeta_pow(6, 2), p=3, n=2)),
    (Character, ("p", "g", "j"),
     dict(p=7, g=3, j=2), dict(p=7, g=5, j=2)),
)


def _as_dataclass(cls, names, **kwargs):
    """The value the original dataclass declaration of ``cls`` would build."""
    return dataclasses.make_dataclass(cls.__name__, names, frozen=True)(**kwargs)


@pytest.mark.parametrize("cls, names, fields, other_fields", FROZEN,
                         ids=[case[0].__name__ for case in FROZEN])
def test_frozen_value_matches_its_dataclass(cls, names, fields, other_fields):
    value, same, other = cls(**fields), cls(*fields.values()), cls(**other_fields)
    assert value == same and not value != same
    assert value != other and not value == other
    assert value.__eq__(fields) is NotImplemented and value != tuple(fields.values())
    assert hash(value) == hash(same) == hash(_as_dataclass(cls, names, **fields))
    assert repr(value) == repr(_as_dataclass(cls, names, **fields))
    assert len({value, same, other}) == 2
    for name in names:
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(value, name, getattr(other, name))
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(value, name)
        assert getattr(value, name) == fields[name]
    with pytest.raises(AttributeError):
        value.extra = 1
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)


def test_value_repr_text():
    assert repr(CyclotomicElement(3, (1, -2))) == "CyclotomicElement(order=3, coeffs=(1, -2))"
    assert repr(UnitFunction(3, 2, [0, 1])) == "UnitFunction(p=3, n=2, exps=(0, 1))"
    assert repr(gauss_sum(UnitFunction(3, 2, (0, 1)))) == (
        "SpectralValue(value=CyclotomicElement(order=6, coeffs=(-1, 2)), p=3, n=2)")


def test_cyclotomic_element_list_coeffs_become_a_tuple():
    # As with UnitFunction's exponents, so equality and hashing stay
    # canonical whatever sequence the caller passed.
    z = CyclotomicElement(3, [1, 0])
    assert z.coeffs == (1, 0) and type(z.coeffs) is tuple
    assert z == CyclotomicElement(3, (1, 0))
    assert hash(z) == hash(CyclotomicElement(3, (1, 0)))


def test_verification_report_matches_its_dataclass():
    reference = dataclasses.make_dataclass("VerificationReport", [
        "statement", "p", "n",
        ("total_functions", int, 0), ("passing_spectral", int, 0),
        ("passing_oracle", int, 0),
        ("mismatches", list, dataclasses.field(default_factory=list)),
        ("witnesses", list, dataclasses.field(default_factory=list)),
        ("elapsed_ms", int, 0), ("success", bool, False), ("error", str, None)])
    rep = VerificationReport("thm_1_2", 7, 6, total_functions=3)
    assert repr(rep) == repr(reference("thm_1_2", 7, 6, total_functions=3)) == (
        "VerificationReport(statement='thm_1_2', p=7, n=6, total_functions=3, "
        "passing_spectral=0, passing_oracle=0, mismatches=[], witnesses=[], elapsed_ms=0, "
        "success=False, error=None)")
    twin = VerificationReport("thm_1_2", 7, 6, 3)
    assert rep == twin and rep.__eq__(reference("thm_1_2", 7, 6, 3)) is NotImplemented
    twin.elapsed_ms = 1
    assert rep != twin
    with pytest.raises(TypeError, match="unhashable"):
        hash(rep)
    # Each report owns its lists, as with the dataclass's default_factory.
    rep.mismatches.append((0, 1))
    rep.witnesses.append(((0, 1), 1))
    assert twin.mismatches == [] and twin.witnesses == []
    assert VerificationReport("thm_1_2", 7, 6).mismatches == []
    given = [(0, 1)]
    assert VerificationReport("x", None, None, mismatches=given).mismatches is given

