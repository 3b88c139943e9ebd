"""The small immutable record types of the library: construction, repr,
equality, hashing and immutability."""

from types import MappingProxyType

import pytest

from mockeis.functions import crank_moment, rank_moment
from mockeis.mock import MockFamily, mock_eisenstein_family
from mockeis.partitions import CountTable
from mockeis.qseries import QSeries
from mockeis.verify import CheckResult, integrality_check, leading_pattern_check

SERIES = QSeries([0, 1])

# (type, positional arguments, keyword arguments of the same value, the
#  value with one field changed, repr, whether the fields are hashable)
CASES = [
    (
        CheckResult,
        ("s", True),
        {"name": "s", "passed": True},
        CheckResult("s", True, "x"),
        "CheckResult(name='s', passed=True, detail='')",
        True,
    ),
    (
        CountTable,
        (3, 1, 2, {(0, 2): 1}),
        {"k": 3, "max_abs_m": 1, "max_n": 2, "entries": {(0, 2): 1}},
        CountTable(3, 1, 2, {(0, 2): 2}),
        "CountTable(k=3, max_abs_m=1, max_n=2)",
        False,
    ),
    (
        MockFamily,
        (3, 2, 1, "recursionA", False, {2: SERIES}),
        {"k": 3, "max_j": 2, "order": 1, "route": "recursionA",
         "extrapolated": False, "members": {2: SERIES}},
        MockFamily(3, 2, 1, "logRoute", False, {2: SERIES}),
        "MockFamily(k=3, max_j=2, order=1, route='recursionA', extrapolated=False)",
        False,
    ),
]


@pytest.mark.parametrize(
    "cls, args, kwargs, other, text, hashable", CASES, ids=[c[0].__name__ for c in CASES]
)
class TestValueTypes:
    def test_positional_and_keyword_construction_agree(self, cls, args, kwargs, other, text, hashable):
        value = cls(*args)
        assert value == cls(**kwargs)
        assert [getattr(value, name) for name in kwargs] == list(kwargs.values())

    def test_repr(self, cls, args, kwargs, other, text, hashable):
        assert repr(cls(*args)) == text

    def test_equality(self, cls, args, kwargs, other, text, hashable):
        value = cls(*args)
        assert value == cls(*args)
        assert not value != cls(*args)
        assert value != other
        assert not value == other

    def test_hash(self, cls, args, kwargs, other, text, hashable):
        if hashable:
            assert hash(cls(*args)) == hash(cls(**kwargs))
            assert len({cls(*args), cls(**kwargs), other}) == 2
        else:
            with pytest.raises(TypeError):
                hash(cls(*args))

    def test_fields_cannot_be_assigned(self, cls, args, kwargs, other, text, hashable):
        value = cls(*args)
        for name in kwargs:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert value == cls(*args)


def test_family_members_are_a_read_only_copy():
    members = {2: SERIES}
    family = MockFamily(3, 2, 1, "recursionA", False, members)
    members[2] = QSeries([1, 1])
    assert isinstance(family.members, MappingProxyType)
    assert family.members[2] == SERIES
    with pytest.raises(TypeError):
        family.members[2] = QSeries([1, 1])


def test_defaults():
    assert CheckResult("s", False).detail == ""


def test_checks_return_a_check_result_and_moments_a_series():
    family = mock_eisenstein_family(3, 4, 6)
    assert integrality_check(family) == CheckResult("integrality: k=3, j<=4, order 6", True)
    assert leading_pattern_check(3, 4, 6, family) == CheckResult(
        "pattern: f_{3,4} leading coefficients", True
    )
    assert type(rank_moment(3, 2, 4, "direct")) is QSeries
    assert type(crank_moment(2, 4, "eisenstein")) is QSeries
