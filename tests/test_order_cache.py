"""The order caches: each key keeps only its highest order built, a smaller
order is served as a truncation of it, and the number of keys is bounded."""

from types import MappingProxyType

import pytest

from mockeis import cli, functions, mock
from mockeis.divisor import divisor_like_sum, eisenstein
from mockeis.mock import MockFamily, mock_eisenstein_family
from mockeis.qseries import CACHE_KEYS, QSeries, partition_series

# Each cache with the arguments before its order.
CACHES = {
    "partition_series": (partition_series, ()),
    "eisenstein": (eisenstein, (4,)),
    "divisor_like_sum": (divisor_like_sum, (2, 7, 6)),
    "mock_eisenstein_family": (mock_eisenstein_family, (4, 8)),
}
ORDER_ERRORS = {
    "partition_series": "negative truncation order",
    "eisenstein": "negative truncation order",
    "divisor_like_sum": "negative truncation order",
    "mock_eisenstein_family": "order must be >= 1",
}


@pytest.fixture(params=sorted(CACHES))
def cache(request):
    func, head = CACHES[request.param]
    func.cache_clear()
    yield request.param, func, head
    func.cache_clear()


def test_a_smaller_order_is_a_truncation_of_the_warm_one(cache):
    _, func, head = cache
    top = func(*head, 24)
    for order in range(1, 24):
        served = func(*head, order)
        assert served == func.__wrapped__(*head, order)
        assert served.order == order
    assert func(*head, 24) is top
    assert func.cache_info()[:2] == (24, 1)


def test_a_loop_over_orders_keeps_one_entry_per_key(cache):
    _, func, head = cache
    for order in range(1, 31):
        func(*head, order)
    assert func.cache_info().currsize == 1
    assert func(*head, 12).order == 12
    assert func.cache_info().currsize == 1


def test_family_orders_one_to_a_hundred_keep_one_entry():
    mock_eisenstein_family.cache_clear()
    for order in range(1, 101):
        mock_eisenstein_family(3, 12, order)
    assert mock_eisenstein_family.cache_info().currsize == 1
    mock_eisenstein_family.cache_clear()


def test_cache_clear_empties_the_cache(cache):
    _, func, head = cache
    func(*head, 10)
    func(*head, 5)
    assert func.cache_info().currsize == 1
    func.cache_clear()
    assert func.cache_info() == (0, 0, CACHE_KEYS, 0)


def test_bad_orders_raise_as_before_with_a_warm_cache(cache):
    name, func, head = cache
    func(*head, 20)
    before = func.cache_info()
    bad = (-1, 0) if name == "mock_eisenstein_family" else (-3, -1)
    for order in bad:
        with pytest.raises(ValueError, match=f"^{ORDER_ERRORS[name]}"):
            func(*head, order)
    assert func.cache_info() == before


def test_other_bad_arguments_raise_with_a_warm_cache():
    eisenstein(2, 10)
    with pytest.raises(ValueError, match="weight"):
        eisenstein(0, 5)
    divisor_like_sum(2, 5, 2, 10)
    with pytest.raises(ValueError, match="positive a and b"):
        divisor_like_sum(0, 5, 2, 5)
    mock_eisenstein_family(3, 6, 10)
    with pytest.raises(ValueError, match="unknown route"):
        mock_eisenstein_family(3, 6, 5, "newton")


def test_a_family_served_by_truncation_is_read_only():
    mock_eisenstein_family.cache_clear()
    mock_eisenstein_family(3, 8, 20, "logRoute")
    fam = mock_eisenstein_family(3, 8, 10, "logRoute")
    assert mock_eisenstein_family.cache_info().hits == 1
    assert fam.order == 10
    assert isinstance(fam.members, MappingProxyType)
    with pytest.raises(TypeError):
        fam.members[2] = QSeries.zero(10)
    assert all(series.order == 10 for series in fam.members.values())
    assert fam == mock_eisenstein_family.__wrapped__(3, 8, 10, "logRoute")


def cached_series():
    """(name, cached series, rebuild): a cached partition_series(5) and a family member."""
    partition_series.cache_clear()
    mock_eisenstein_family.cache_clear()
    return [
        ("partition_series", partition_series(5), lambda: partition_series(5)),
        ("member", mock_eisenstein_family(3, 4, 5).members[2],
         lambda: mock_eisenstein_family(3, 4, 5).members[2]),
    ]


@pytest.mark.parametrize("field, value", [("nums", (9,) * 6), ("den", 7)])
def test_a_cached_series_cannot_be_changed_in_place(field, value):
    for name, series, rebuild in cached_series():
        nums, den = series.nums, series.den
        with pytest.raises(AttributeError):
            setattr(series, field, value)
        with pytest.raises(AttributeError):
            delattr(series, field)
        again = rebuild()
        assert again is series, name
        assert (again.nums, again.den) == (nums, den), name
    assert partition_series(5) == partition_series.__wrapped__(5)
    assert mock_eisenstein_family(3, 4, 5) == mock_eisenstein_family.__wrapped__(3, 4, 5)
    partition_series.cache_clear()
    mock_eisenstein_family.cache_clear()


def test_keyword_and_positional_calls_share_one_entry():
    mock_eisenstein_family.cache_clear()
    mock_eisenstein_family(3, 4, 12)
    mock_eisenstein_family(3, 4, order=8, route="recursionA", allow_k2=False)
    assert mock_eisenstein_family.cache_info()[:2] == (1, 1)
    # Another route is another key.
    mock_eisenstein_family(3, 4, 8, "recursionB")
    assert mock_eisenstein_family.cache_info().currsize == 2
    mock_eisenstein_family.cache_clear()


def test_the_least_recently_used_key_goes_first():
    eisenstein.cache_clear()
    for weight in range(1, CACHE_KEYS + 1):
        eisenstein(weight, 2)
    eisenstein(1, 2)  # now the most recently used
    eisenstein(CACHE_KEYS + 1, 2)
    assert eisenstein.cache_info().currsize == CACHE_KEYS
    misses = eisenstein.cache_info().misses
    eisenstein(1, 2)
    assert eisenstein.cache_info().misses == misses
    eisenstein(2, 2)
    assert eisenstein.cache_info().misses == misses + 1
    assert eisenstein.cache_info().currsize == CACHE_KEYS
    eisenstein.cache_clear()


def test_the_cache_keeps_the_builder_name_and_signature():
    assert mock_eisenstein_family.__module__ == "mockeis.mock"
    assert mock_eisenstein_family.__qualname__ == "mock_eisenstein_family"
    assert mock_eisenstein_family.__wrapped__.__name__ == "mock_eisenstein_family"
    assert partition_series.__module__ == "mockeis.qseries"


class TestFamilyTruncate:
    def test_truncate_to_its_own_order_is_itself(self):
        fam = mock_eisenstein_family.__wrapped__(3, 4, 6)
        assert fam.truncate(6) is fam

    @pytest.mark.parametrize("order", [-1, 7])
    def test_truncate_outside_the_order_raises(self, order):
        fam = mock_eisenstein_family.__wrapped__(3, 4, 6)
        with pytest.raises(ValueError, match="cannot truncate"):
            fam.truncate(order)

    def test_an_empty_family_truncates(self):
        empty = MockFamily(3, 2, 5, "recursionA", False, {})
        assert empty.truncate(2).order == 2


def test_verify_all_builds_each_family_key_once_and_the_crank_jet_once(monkeypatch, capsys):
    # traces builds (k, 8) at order 30 and integrality (k, 12) at order 60;
    # pattern (k, 12) at order 2k and pde (3, 12) at order 20 are served by
    # truncation.
    builds = []
    g_sums = mock._g_sums
    monkeypatch.setattr(mock, "_g_sums", lambda *args: builds.append(args) or g_sums(*args))
    jets = []
    exponential = functions.eisenstein_exponential
    monkeypatch.setattr(
        functions, "eisenstein_exponential", lambda *args: jets.append(args) or exponential(*args)
    )
    for func, _ in CACHES.values():
        func.cache_clear()
    assert cli.main(["verify", "--suite", "all"]) == 0
    assert capsys.readouterr().out.endswith("80/80 checks passed\n")
    assert len(builds) == 6
    assert mock_eisenstein_family.cache_info()[:2] == (4, 6)
    assert jets == [(2, 8, 20)]
    for func, _ in CACHES.values():
        func.cache_clear()


def test_crank_moments_read_off_one_jet_match_each_moment():
    moments = functions.crank_moments(8, 14)
    assert len(moments) == 9
    for j, series in enumerate(moments):
        assert series == functions.crank_moment(j, 14, "combinatorial")
        assert series == functions.crank_moment(j, 14, "eisenstein")
    with pytest.raises(ValueError, match="non-negative"):
        functions.crank_moments(-1, 14)
    with pytest.raises(ValueError, match="negative truncation order"):
        functions.crank_moments(4, -1)
