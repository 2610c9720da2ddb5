import pytest

from stats import median, tail


def test_tail_of_a_hundred_is_p90_with_ten_above():
    values = list(range(1, 101))
    value, pct = tail(values)
    assert (value, pct) == (90, 90.0)
    assert sum(v > value for v in values) == 10


def test_tail_is_the_highest_percentile_leaving_ten_above():
    values = [float(v) for v in range(92, 0, -1)]     # order does not matter
    value, pct = tail(values)
    assert value == 82.0
    assert pct == pytest.approx(100 * 82 / 92)
    assert sum(v > value for v in values) == 10
    # one percentile point higher would leave only nine samples above
    rank = -(-(pct + 1) * 92 // 100)
    assert 92 - rank < 10


def test_tail_is_never_below_the_median():
    assert tail(range(19)) is None
    assert tail(range(20)) == (9.0, 50.0)


def test_tail_grows_toward_the_maximum_with_more_samples():
    _, pct = tail(range(10_000))
    assert pct == pytest.approx(99.9)


def test_median():
    assert median([3, 1, 2]) == 2.0
    assert median([4, 1, 2, 3]) == 2.5
    with pytest.raises(ValueError):
        median([])
