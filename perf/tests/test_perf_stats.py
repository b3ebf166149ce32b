import pytest

import stats


@pytest.mark.parametrize(
    "n, wanted, expected",
    [
        (200, 0.95, 0.95),  # exactly ten samples beyond p95
        (300, 0.95, 0.95),  # more would be supported; the cap is what was asked for
        (199, 0.95, 189 / 199),  # one short: step down until ten lie beyond
        (40, 0.95, 0.75),
        (1000, 0.99, 0.99),
        (20, 0.95, 0.5),  # ten beyond the median, nothing higher
        (10, 0.95, 0.5),  # too few for any tail: fall back to the median
        (3, 0.95, 0.5),
    ],
)
def test_supported_percentile_keeps_ten_samples_beyond(n, wanted, expected):
    q = stats.supported_percentile(n, wanted)
    assert q == pytest.approx(expected)
    if n > 2 * stats.MIN_TAIL_SAMPLES:
        assert n - round(q * n) >= stats.MIN_TAIL_SAMPLES


def test_tail_reports_value_percentile_and_count():
    values = [float(v) for v in range(1, 201)]
    assert stats.tail(values) == {"value": 190.0, "percentile": 0.95, "n": 200}
    short = stats.tail(values[:40])
    assert short["percentile"] == 0.75 and short["value"] == 30.0


def test_percentile_is_nearest_rank_and_order_free():
    assert stats.percentile([5.0, 1.0, 3.0, 2.0, 4.0], 0.5) == 3.0
    assert stats.percentile([5.0, 1.0, 3.0, 2.0, 4.0], 1.0) == 5.0
    assert stats.percentile([5.0, 1.0, 3.0, 2.0, 4.0], 0.0) == 1.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 1.5)


def test_summary_carries_quartiles_and_count():
    s = stats.summary([float(v) for v in range(1, 12)])
    assert s == {"value": 6.0, "q1": 3.0, "q3": 9.0, "n": 11}
    assert stats.summary([4.0]) == {"value": 4.0, "q1": 4.0, "q3": 4.0, "n": 1}


def test_calibration_unit_is_positive_microseconds():
    unit = stats.calibrate(iterations=500)
    assert 0.01 < unit < 1000.0
