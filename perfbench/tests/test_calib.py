import gc
import statistics

import pytest

from perfbench import calib


def test_scale_is_nominal_over_measured():
    assert calib.scale(calib.REF_NOMINAL_S) == 1.0
    assert calib.scale(2 * calib.REF_NOMINAL_S) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        calib.scale(0.0)


def test_calibrate_uses_mean_of_surrounding_references():
    nominal = calib.REF_NOMINAL_S
    # host twice as slow before, at nominal after: mean ref = 1.5 x nominal
    assert calib.calibrate(3.0, 2 * nominal, nominal) == pytest.approx(2.0)
    assert calib.calibrate(3.0, 3 * nominal) == pytest.approx(1.0)


def test_calibrate_brackets_maps_items_to_their_references():
    n = calib.REF_NOMINAL_S
    raw = [1.0, 1.0, 2.0, 4.0]
    refs = [n, n, 2 * n, 2 * n]
    out = calib.calibrate_brackets(raw, refs, [2, 1, 1])
    assert out == pytest.approx([1.0, 1.0, 2.0 / 1.5, 2.0])
    with pytest.raises(ValueError):
        calib.calibrate_brackets(raw, refs, [2, 2])  # sizes sum != items
    with pytest.raises(ValueError):
        calib.calibrate_brackets(raw, refs[:-1], [2, 1, 1])


def test_reference_runs_with_gc_paused_and_restores_it():
    assert gc.isenabled()
    seen = []
    gc.callbacks.append(lambda phase, info: seen.append(phase))
    try:
        assert calib.measure_reference() > 0
    finally:
        gc.callbacks.pop()
    assert gc.isenabled()
    assert seen == []
    gc.disable()
    try:
        calib.measure_reference()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_percentile_is_mean_of_window_around_rank():
    values = list(range(1, 1001))
    # p50 of 1..1000: rank 500, half-width round(sqrt(250)) = 16
    assert calib.percentile(values, 50) == sum(range(484, 517)) / 33
    # p90 of 1..1000: rank 900, half-width round(sqrt(90)) = 9
    assert calib.percentile(values, 90) == sum(range(891, 910)) / 19


def test_window_smooths_cost_tiers():
    # two passes over the same 4 operations: the p-th value sits on a
    # tier boundary, so one order statistic would flip between tiers
    fast, slow = [1.0] * 40, [10.0] * 40
    a = calib.percentile(fast + slow[:-1] + [10.1], 50)
    b = calib.percentile(fast[:-1] + [1.1] + slow, 50)
    assert abs(a - b) < 0.1


def test_percentile_refuses_fewer_than_ten_beyond_its_window():
    needed = calib.samples_needed(99)
    values = list(range(needed))
    calib.percentile(values, 99)
    assert calib.beyond(needed, 99) >= calib.MIN_BEYOND
    assert calib.beyond(needed - 1, 99) < calib.MIN_BEYOND
    with pytest.raises(ValueError):
        calib.percentile(values[:-1], 99)


@pytest.mark.parametrize("seconds", [1, 12, 20, 60])
@pytest.mark.parametrize("workload, per_pass", [
    ("harden-86", 86), ("ballista-fig6", 24), ("service-warm", 200),
])
def test_pass_count_reaches_the_fixed_tail_at_any_length(workload, per_pass, seconds):
    from perfbench import workloads

    tail = workloads.TAIL_PCT[workload]
    passes = workloads.pass_count(seconds, workload, per_pass)
    assert calib.beyond(passes * per_pass, tail) >= calib.MIN_BEYOND
    calib.percentile(list(range(passes * per_pass)), tail)  # does not raise


def test_spread_is_iqr_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert calib.spread(values) == pytest.approx((q3 - q1) / 10.0)


def test_ticked_calibration_scales_each_stretch_and_drops_the_ticks():
    nominal = calib.REF_NOMINAL_S
    # no ticks: the same as calibrating between the two ends
    assert calib.calibrate_ticked(0.0, 2.0, nominal, 2 * nominal, []) == pytest.approx(
        (2.0, calib.calibrate(2.0, nominal, 2 * nominal))
    )
    # a tick at [1.0, 1.1] measured the host at half speed: the first
    # second runs between nominal and half speed, the rest at half speed
    raw, calibrated = calib.calibrate_ticked(
        0.0, 2.1, nominal, 2 * nominal, [(1.0, 1.1, 2 * nominal)]
    )
    assert raw == pytest.approx(2.0)
    assert calibrated == pytest.approx(1.0 / 1.5 + 1.0 / 2)


def test_ticker_measures_inside_an_item_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    ticker = calib.Ticker(interval=0.05)
    with ticker:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(ticker.ticks) >= 3
    assert all(ticker.start <= a < b <= ticker.end for a, b, _ in ticker.ticks)
    raw, calibrated = ticker.calibrate(calib.REF_NOMINAL_S, calib.REF_NOMINAL_S)
    spent = sum(b - a for a, b, _ in ticker.ticks)
    assert raw == pytest.approx(ticker.end - ticker.start - spent)
    assert calibrated > 0
