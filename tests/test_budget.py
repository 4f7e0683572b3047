import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfold import budget
from hyperfold.budget import (
    OK,
    TRIP_MAGNITUDE,
    TRIP_STEPS,
    Budget,
    BudgetExceeded,
    EvalStats,
    MagnitudeExceeded,
    Meter,
    checked_pow,
    decimal_digits,
    decimal_to_int,
    int_to_decimal,
    magnitude_limit,
    mul_run,
)
from hyperfold.hyperops import knuth_ref


def test_budget_defaults_and_validation():
    b = Budget()
    assert b.max_steps == 10**7
    assert b.max_digits == 10**5
    with pytest.raises(ValueError):
        Budget(max_steps=0)
    with pytest.raises(ValueError):
        Budget(max_digits=0)


@pytest.mark.parametrize(
    "limits",
    [
        {"max_digits": 1e5},
        {"max_digits": 2.5},
        {"max_steps": True},
        {"max_digits": False},
        {"max_steps": "10"},
        {"max_steps": None},
    ],
)
def test_budget_rejects_non_integer_limits(limits):
    # a float cap used to reach Meter() and fail there with OverflowError
    with pytest.raises(TypeError, match=next(iter(limits))):
        Budget(**limits)


@settings(max_examples=200)
@given(st.integers(0, 10**40))
def test_decimal_digits_matches_str(n):
    assert decimal_digits(n) == len(str(n))


def test_decimal_digits_boundaries():
    for e in (1, 2, 5, 17, 100):
        assert decimal_digits(10**e - 1) == e
        assert decimal_digits(10**e) == e + 1


def test_magnitude_limit_is_first_overflowing_value():
    assert decimal_digits(magnitude_limit(5) - 1) == 5
    assert decimal_digits(magnitude_limit(5)) == 6


def test_power_of_ten_caches_stay_bounded():
    # 300 results of distinct sizes, up to 90,309 digits, each sized by stats
    for k in range(1000, 300001, 1000):
        assert knuth_ref(2, 1, k)[0] == 2**k
    assert budget._pow10.cache_info().currsize <= budget._POW10_CACHE_SIZE
    # the default budget's limit, 10**100000, is still cached
    misses = budget.magnitude_limit.cache_info().misses
    Meter(Budget())
    assert budget.magnitude_limit.cache_info().misses == misses


def test_meter_spend_clamps_at_limit():
    meter = Meter(Budget(max_steps=10, max_digits=5))
    meter.spend(10)
    with pytest.raises(BudgetExceeded):
        meter.spend()
    assert meter.steps == 10  # never reported above the budget


def test_meter_note_trips_on_magnitude():
    meter = Meter(Budget(max_steps=10, max_digits=3))
    meter.note(999)
    with pytest.raises(MagnitudeExceeded):
        meter.note(1000)


def test_stats_combined():
    a = EvalStats(steps_used=3, peak_digits=2)
    b = EvalStats(steps_used=4, peak_digits=9)
    assert a.combined(b) == EvalStats(steps_used=7, peak_digits=9)


@settings(max_examples=120)
@given(st.integers(2, 50), st.integers(0, 60))
def test_checked_pow_matches_builtin(base, exponent):
    meter = Meter(Budget(max_steps=10**6, max_digits=10**4))
    assert checked_pow(base, exponent, meter) == base**exponent


def test_checked_pow_step_trip_mid_loop():
    # 3**27 by square-and-multiply is 8 multiplies; with 2 steps already
    # spent and a budget of 6, the 5th multiply (squaring 81) trips, after
    # result 27 and square 81 were produced
    meter = Meter(Budget(max_steps=6, max_digits=100))
    meter.spend(2)
    with pytest.raises(BudgetExceeded) as trip:
        checked_pow(3, 27, meter)
    assert trip.value.stats == EvalStats(steps_used=6, peak_digits=2)
    assert (meter.steps, meter.peak) == (6, 81)


def test_checked_pow_trivial_bases():
    # exact digit estimates: no false trip however large the exponent, no
    # multiplication, and the value produced counts in the peak
    for base, exponent, value in [(1, 10**9, 1), (0, 10**9, 0), (7, 0, 1), (0, 0, 1)]:
        meter = Meter(Budget(max_steps=100, max_digits=2))
        assert checked_pow(base, exponent, meter) == value
        assert (meter.steps, meter.peak) == (0, value)


def test_checked_pow_fails_fast_before_allocating():
    meter = Meter(Budget(max_steps=10**6, max_digits=50))
    with pytest.raises(MagnitudeExceeded):
        checked_pow(10, 10**12, meter)
    assert meter.steps == 0  # tripped on the estimate, not mid-computation


def test_checked_pow_counts_multiplies():
    meter = Meter(Budget(max_steps=10**6, max_digits=100))
    checked_pow(3, 27, meter)
    # square-and-multiply on a 5-bit exponent: a handful of multiplies,
    # never the 26 of naive repeated multiplication
    assert 0 < meter.steps <= 10


def _plain_mul_run(val, a, count, max_steps, mag_limit, steps, peak):
    """The multiplies one at a time, each charged and noted."""
    for _ in range(count):
        steps += 1
        if steps > max_steps:
            return (TRIP_STEPS, 0, max_steps, peak)
        val *= a
        if val > peak:
            peak = val
            if val >= mag_limit:
                return (TRIP_MAGNITUDE, 0, steps, peak)
    return (OK, val, steps, peak)


def test_mul_run_matches_plain_loop():
    cases = 0
    for max_digits in (1, 2, 4, 12):
        mag = magnitude_limit(max_digits)
        for a, val, count, max_steps, steps, extra in itertools.product(
            (0, 1, 2, 3, 10), range(4), range(41), (1, 2, 3, 5, 10, 50), (0, 1), (0, 6)
        ):
            if steps > max_steps:
                continue
            peak = val + extra  # the run needs val <= peak < mag_limit
            args = (val, a, count, max_steps, mag, steps, peak)
            want = _plain_mul_run(*args)
            assert mul_run(*args) == want, args
            cases += 1
    assert cases == 78_720


def test_decimal_conversion_in_pieces_under_the_smallest_cap():
    rng = random.Random(4)
    values = [10**k + d for k in (639, 640, 1280, 5000) for d in (-1, 0, 1)]
    values += [rng.getrandbits(rng.randrange(1, 20_000)) for _ in range(40)]
    caller_cap = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        texts = [str(v) for v in values]
        sys.set_int_max_str_digits(640)
        for value, text in zip(values, texts):
            assert int_to_decimal(value) == text
            assert decimal_to_int(text) == value
            assert decimal_to_int("000" + text) == value
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(caller_cap)


def test_decimal_render_and_parse_large():
    value = 10**4999 + 7
    text = int_to_decimal(value)
    assert len(text) == 5000
    assert decimal_to_int(text) == value
