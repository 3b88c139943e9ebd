"""The small immutable record types of the library: construction, repr,
equality, hashing and immutability."""

from fractions import Fraction as F
from types import MappingProxyType

import pytest

from mockeis.functions import MomentSeries
from mockeis.mock import MockFamily
from mockeis.partitions import CountTable
from mockeis.qseries import QSeries
from mockeis.verify import CheckResult, IntegralityReport, PatternReport

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
        PatternReport,
        (False, "q^4"),
        {"ok": False, "detail": "q^4"},
        PatternReport(True, "q^4"),
        "PatternReport(ok=False, detail='q^4')",
        True,
    ),
    (
        IntegralityReport,
        (False, 4, 3, F(3, 2)),
        {"ok": False, "j": 4, "n": 3, "value": F(3, 2)},
        IntegralityReport(False, 4, 2, F(3, 2)),
        "IntegralityReport(ok=False, j=4, n=3, value=Fraction(3, 2))",
        True,
    ),
    (
        MomentSeries,
        (3, 2, SERIES, "direct"),
        {"k": 3, "j": 2, "series": SERIES, "method": "direct"},
        MomentSeries(3, 2, QSeries([0, 2]), "direct"),
        "MomentSeries(k=3, j=2, series=QSeries(order=1: q), method='direct')",
        False,
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
    assert PatternReport(True).detail == ""
    report = IntegralityReport(True)
    assert (report.j, report.n, report.value) == (None, None, None)
