import inspect
import itertools
import math
import random
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles
from hyperfold import _machines, budget, cli
from hyperfold._machines import ack_machine, conway_machine, knuth_machine
from hyperfold.budget import (
    OK,
    TRIP_MAGNITUDE,
    TRIP_STEPS,
    Budget,
    BudgetExceeded,
    EvalStats,
    HyperError,
    MagnitudeExceeded,
    Meter,
    add_run,
    decimal_digits,
    decimal_to_int,
    int_to_decimal,
    mul_run,
    pow_counted,
    pow_reaches_cap,
    reaches_cap,
    safe_bits,
)
from hyperfold.hyperops import knuth_prim, knuth_ref
from hyperfold.notation import evaluate, parse


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
    # exact against the exponent, not str, where the log2(10) bracket is
    # tightest: 10**e - 1, 10**e and 10**e + 1
    for e in [*range(3000), 10**4, 10**5, 2 * 10**5, 10**6]:
        power = 10**e
        if e:
            assert decimal_digits(power - 1) == e, e
        assert decimal_digits(power) == e + 1, e
        assert decimal_digits(power + 1) == e + 1, e


def test_decimal_digits_refuses_a_negative_value():
    with pytest.raises(ValueError, match="non-negative"):
        decimal_digits(-1)


def test_decimal_digits_builds_at_most_one_power_of_ten():
    rng = random.Random(11)
    values = [10**e + d for e in (1, 17, 300, 4000) for d in (-1, 0, 1)]
    values += [rng.getrandbits(rng.randrange(1, 14_000)) for _ in range(200)]
    for value in values:
        budget._pow10.cache_clear()
        assert decimal_digits(value) == len(str(value))
        assert budget._pow10.cache_info().misses <= 1, value
    # 9**10**6 has 954,243 digits and its bracket bounds meet: no power
    budget._pow10.cache_clear()
    assert decimal_digits(9**10**6) == 954_243
    assert budget._pow10.cache_info().misses == 0


def test_power_of_ten_is_ten_to_the_power():
    for e in (0, 1, 640, 19_729, 10**5):
        assert budget._pow10.__wrapped__(e) == 10**e, e


def test_power_of_ten_caches_stay_bounded(monkeypatch):
    caches = (budget._pow10, budget._decimal_two_to)

    def render_and_count(bits):
        value = 1 << (bits - 1)  # of that many bits, and quick to render
        assert len(int_to_decimal(value)) == decimal_digits(value)
        for cache in caches:
            assert cache.cache_info().nbytes <= budget._POWER_CACHE_BYTES

    for cache in caches:
        cache.cache_clear()
    try:
        # one value of about 10**6 digits fits the real bound in each cache
        render_and_count(next(b for b in range(3_300_000, 3_400_000) if _bracket_is_open(b)))
        # 70 values of distinct sizes near 10**4 digits, with the bound
        # scaled down as far: every one builds a power of ten of about 4 KB
        # and Decimal powers of two of as much again, so both caches drop
        # their oldest sizes and keep at most their byte bound
        monkeypatch.setattr(budget, "_POWER_CACHE_BYTES", 64 * 2**10)
        for cache in caches:
            cache.cache_clear()
        bits = [b for b in range(33_000, 33_300) if _bracket_is_open(b)]
        for b in bits[:: len(bits) // 70][:70]:
            render_and_count(b)
        for cache in caches:
            info = cache.cache_info()
            assert info.currsize < info.misses, cache.__name__
    finally:
        for cache in caches:
            cache.cache_clear()
    # a meter builds no power of ten, not even its cap, 10**100000 (41 KB)
    tracemalloc.start()
    try:
        Meter(Budget())
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert budget._pow10.cache_info().misses == 0
    assert peak_bytes < 2000


def _bracket_is_open(bits):
    """Whether decimal_digits needs a power of ten for a value of bits."""
    low = 1 + (bits - 1) * budget._LOG2_10_DEN // (budget._LOG2_10_NUM + 1)
    return low < 1 + bits * budget._LOG2_10_DEN // budget._LOG2_10_NUM


def test_a_warm_repl_line_builds_no_power(capsys):
    # a REPL line that repeats 2^^5 (65,537 bits) sizes and renders it from
    # both caches, with no miss in either
    caches = (budget._pow10, budget._decimal_two_to)
    assert cli.run_eval("2^^5", cli.Config()) == 0
    before = [cache.cache_info().misses for cache in caches]
    capsys.readouterr()
    assert cli.run_eval("2^^5", cli.Config()) == 0
    assert [cache.cache_info().misses for cache in caches] == before
    assert len(capsys.readouterr().out.splitlines()[0]) == 19729


def _cap_boundary_values(max_digits):
    """10**d - 1 and 10**d, and 2**k - 1 and 2**k for k around the bit
    length of 10**d: every value whose bit length lies near the cap."""
    limit = 10**max_digits
    bits = limit.bit_length()
    values = [limit - 1, limit]
    for k in range(bits - 3, bits + 4):
        values += [(1 << k) - 1, 1 << k]
    return limit, values


@pytest.mark.parametrize("span", [range(1, 101), range(101, 401), [10**5, 10**6]])
def test_digit_cap_trips_exactly_at_the_power_of_ten(span):
    # the cap is decided by bit length; each check must still trip iff
    # value >= 10**d, as the literal machines with their eager 10**d do
    for d in span:
        limit, values = _cap_boundary_values(d)
        for v in values:
            want = v >= limit
            assert reaches_cap(v, d) == want, (d, v)
            meter = Meter(Budget(max_digits=d))
            if want:
                with pytest.raises(MagnitudeExceeded):
                    meter.spend(0, v)
            else:
                meter.spend(0, v)
            assert meter.peak == v
            steps = 10**9
            assert _oracles.machine_run(ack_machine, 0, v, steps, d) == (
                _oracles.ack_literal_machine(0, v, steps, limit)
            ), (d, v)
            assert _oracles.machine_run(knuth_machine, v, 0, 1, steps, d) == (
                _oracles.knuth_literal_machine(v, 0, 1, steps, limit)
            ), (d, v)
            assert _oracles.machine_run(conway_machine, (v,), steps, d) == (
                _oracles.conway_literal_machine((v,), steps, limit)
            ), (d, v)
        bits = limit.bit_length()  # the first power of two past the cap
        runs = [(2, bits + 2, bits, 1 << bits), (10, d + 2, d, limit)]
        if d <= 400:
            runs.append((3, bits, None, None))
        else:  # even bases other than 2 take the shift and a power
            for a in (4, 6):
                j, first = _oracles.first_power_reaching(1, a, limit)
                runs.append((a, j + 2, j, first))
        for a, count, j, first in runs:
            args = (1, a, count, 10**9, d, 0, 1)
            if j is None:
                want = _plain_mul_run(1, a, count, 10**9, limit, 0, 1)
            else:
                want = (TRIP_MAGNITUDE, 0, j, first)
            assert mul_run(*args) == want, (d, a)


def test_a_meter_is_built_at_once_whatever_its_cap():
    # 10**(10**12) could never be built; the cap is tested by bit length
    start = time.perf_counter()
    meter = Meter(Budget(max_digits=10**12))
    elapsed = time.perf_counter() - start
    assert elapsed < 0.010, f"Meter took {elapsed * 1000:.1f} ms"
    meter.spend(0, 10**5000)
    assert meter.stats() == EvalStats(steps_used=0, peak_digits=5001)
    for max_digits in (10**12, 10**400):
        huge = Budget(max_digits=max_digits)
        assert knuth_ref(2, 2, 4, huge)[0] == knuth_prim(2, 2, 4, huge)[0] == 2**16


def test_meter_spend_clamps_at_limit():
    meter = Meter(Budget(max_steps=10, max_digits=5))
    meter.spend(10)
    with pytest.raises(BudgetExceeded):
        meter.spend()
    assert meter.steps == 10  # never reported above the budget


def test_meter_spend_of_zero_steps_trips_on_magnitude():
    meter = Meter(Budget(max_steps=10, max_digits=3))
    meter.spend(0, 999)
    with pytest.raises(MagnitudeExceeded):
        meter.spend(0, 1000)


def test_meter_spend_charges_a_step_then_notes_its_value():
    meter = Meter(Budget(max_steps=2, max_digits=3))
    assert meter.spend(1, 500) == 500
    assert meter.spend(1, 7) == 7
    assert (meter.steps, meter.peak) == (2, 500)  # 7 leaves the peak as it was
    # at steps == max_steps the step trips first, and the value is not noted
    with pytest.raises(BudgetExceeded) as trip:
        meter.spend(1, 10**6)
    assert trip.value.stats == EvalStats(steps_used=2, peak_digits=3)
    assert meter.peak == 500
    # a value at the cap trips with its step counted
    meter = Meter(Budget(max_steps=2, max_digits=3))
    with pytest.raises(MagnitudeExceeded) as trip:
        meter.spend(1, 1000)
    assert trip.value.stats == EvalStats(steps_used=1, peak_digits=4)


def _charged(charge, meter):
    """What ``charge()`` returns or raises, and the meter it leaves."""
    try:
        outcome = ("value", charge())
    except HyperError as trip:
        outcome = (type(trip), str(trip), trip.stats)
    return outcome, (meter.steps, meter.peak)


@pytest.mark.parametrize("max_digits", [1, 2, 3, 640])
def test_the_successor_charges_exactly_as_spend(max_digits):
    # the successor inlines spend(1, x + 1); on twin meters both leave the
    # same outcome, message, stats, steps and peak at every boundary
    max_steps = 7
    cap = 10**max_digits
    for top in (1, cap - 1, cap, cap + 1):  # top = x + 1
        for steps in (0, max_steps - 1, max_steps):
            for peak in (0, top - 1, top, top + 1):
                twins = []
                for _ in range(2):
                    meter = Meter(Budget(max_steps, max_digits))
                    meter.steps, meter.peak = steps, peak
                    twins.append(meter)
                succ = twins[0].successor()
                got = _charged(lambda: succ(top - 1), twins[0])
                want = _charged(lambda: twins[1].spend(1, top), twins[1])
                assert got == want, (top, steps, peak)
    # one boundary of each kind, spelled out
    meter = Meter(Budget(max_steps, max_digits))
    meter.steps = max_steps - 1
    assert meter.successor()(cap - 2) == cap - 1
    assert (meter.steps, meter.peak) == (max_steps, cap - 1)
    with pytest.raises(BudgetExceeded):
        meter.successor()(0)
    meter = Meter(Budget(max_steps, max_digits))
    with pytest.raises(MagnitudeExceeded) as trip:
        meter.successor()(cap - 1)
    assert trip.value.stats == EvalStats(steps_used=1, peak_digits=max_digits + 1)


def test_stats_combined():
    a = EvalStats(steps_used=3, peak_digits=2)
    b = EvalStats(steps_used=4, peak_digits=9)
    assert a.combined(b) == EvalStats(steps_used=7, peak_digits=9)


@settings(max_examples=120)
@given(st.integers(2, 50), st.integers(0, 60))
def test_pow_counted_matches_builtin(base, exponent):
    meter = Meter(Budget(max_steps=10**6, max_digits=10**4))
    assert meter.run(pow_counted, base, exponent) == base**exponent


def test_pow_counted_step_trip_mid_power():
    # 3**27 by square-and-multiply is 8 multiplies; with 2 steps already
    # spent and a budget of 6, the 5th multiply (squaring 81) trips, after
    # result 27 and square 81 were produced
    meter = Meter(Budget(max_steps=6, max_digits=100))
    meter.spend(2)
    with pytest.raises(BudgetExceeded) as trip:
        meter.run(pow_counted, 3, 27)
    assert trip.value.stats == EvalStats(steps_used=6, peak_digits=2)
    assert (meter.steps, meter.peak) == (6, 81)


def test_pow_counted_trivial_bases():
    # bases that never grow: no false trip however large the exponent, no
    # multiplication, and the value produced counts in the peak
    for base, exponent, value in [(1, 10**9, 1), (0, 10**9, 0), (7, 0, 1), (0, 0, 1)]:
        meter = Meter(Budget(max_steps=100, max_digits=2))
        assert meter.run(pow_counted, base, exponent) == value
        assert (meter.steps, meter.peak) == (0, value)


def test_pow_counted_fails_fast_before_allocating():
    meter = Meter(Budget(max_steps=10**6, max_digits=50))
    with pytest.raises(MagnitudeExceeded):
        meter.run(pow_counted, 10, 10**12)
    assert meter.steps == 0  # tripped before the first multiply


def test_pow_counted_counts_multiplies():
    meter = Meter(Budget(max_steps=10**6, max_digits=100))
    meter.run(pow_counted, 3, 27)
    # 27 = 0b11011: four squares and four products, never the 26 of naive
    # repeated multiplication
    assert meter.steps == _oracles.pow_cost(27) == 8


def test_pow_cost_counts_the_literal_loop():
    for exponent in range(1, 4097):
        _, value, steps, _ = _oracles._literal_pow(2, exponent, 10**4, 1 << 5000, 0, 0)
        assert (value, steps) == (2**exponent, _oracles.pow_cost(exponent)), exponent


POW_GRID_BASES = (*range(2, 13), 2**61, 3**40, 10**20 + 7)
POW_GRID_EXPONENTS = (*range(1, 130), 255, 256, 1023, 4097)
POW_GRID_DIGITS = (5, 50, 500, 2000)


def test_pow_counted_matches_the_literal_loop():
    # at every step budget from the start to one past the cost, from two
    # starts: the last multiply to fit sets the peak, squares and products
    # in the loop's order, and a power past the cap fails fast
    for base, exponent, max_digits in itertools.product(
        POW_GRID_BASES, POW_GRID_EXPONENTS, POW_GRID_DIGITS
    ):
        mag = 10**max_digits
        for steps, peak in ((0, 0), (3, 1000)):
            for max_steps in range(steps, steps + _oracles.pow_cost(exponent) + 2):
                args = (base, exponent, max_steps)
                assert pow_counted(*args, max_digits, steps, peak) == (
                    _oracles._literal_pow(*args, mag, steps, peak)
                ), (*args, max_digits, steps, peak)


@settings(max_examples=300)
@given(st.integers(2, 1000), st.integers(1, 400), st.integers(-3, 3))
# powers of powers of ten land on the cap itself, where only the power
# can tell its float digit estimate from the cap
@example(10, 5, 0)
@example(100, 400, 0)
@example(1000, 6, 0)
def test_power_trips_exactly_where_it_reaches_the_cap(base, max_digits, offset):
    # exponents around the least whose power has more than max_digits digits
    exponent = max(1, math.ceil(max_digits / math.log10(base)) + offset)
    over = base**exponent >= 10**max_digits
    assert pow_reaches_cap(base, exponent, max_digits) == over
    status = pow_counted(base, exponent, 10**6, max_digits, 0, 0)[0]
    assert status == (TRIP_MAGNITUDE if over else OK)
    # a chain's power and a multiply run agree on every value and trip
    budget = Budget(max_digits=max_digits)
    assert _value_or_trip(f"{base}->{exponent}", budget) == (
        _value_or_trip(f"{base}^{exponent}", budget)
    )
    assert _value_or_trip(f"{base}^{exponent}", budget) == (
        "magnitude" if over else base**exponent
    )


def _value_or_trip(text, budget):
    try:
        return evaluate(parse(text), "both", budget)[0]
    except HyperError as exc:
        return exc.kind


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
        mag = 10**max_digits
        for a, val, count, max_steps, steps, extra in itertools.product(
            (0, 1, 2, 3, 4, 6, 8, 10, 12, 2**61),
            range(4),
            range(41),
            (1, 2, 3, 5, 10, 50),
            (0, 1),
            (0, 6),
        ):
            if steps > max_steps:
                continue
            peak = val + extra  # the run needs val <= peak < mag_limit
            args = (val, a, count, max_steps, mag, steps, peak)
            want = _plain_mul_run(*args)
            got = mul_run(val, a, count, max_steps, max_digits, steps, peak)
            assert got == want, args
            cases += 1
    assert cases == 157_440


def test_mul_run_matches_plain_loop_on_each_side_of_the_safe_bits():
    # a growing run of ``most`` multiplies whose bit lengths add up to at
    # most safe_bits(max_digits) is one product at once, and one past it is
    # seeded by the float estimate: each side of that branch point, at caps
    # of thousands of multiplies, with the step budget below, at and above
    # the count (``most`` is the smaller of the two)
    offsets = set()
    cases = 0
    for max_digits, a, val in itertools.product(
        (640, 2000), (2, 3, 10, 2**61 + 1), (1, 7)
    ):
        safe = safe_bits(max_digits)
        fits = (safe - val.bit_length()) // a.bit_length()  # the most that fit
        for most, steps in itertools.product(range(fits - 1, fits + 3), (0, 3)):
            offsets.add(val.bit_length() + most * a.bit_length() - safe)
            for count, headroom in ((most + 1, most), (most, most), (most, most + 1)):
                args = (val, a, count, steps + headroom)
                want = _plain_mul_run(*args, 10**max_digits, steps, val)
                assert mul_run(*args, max_digits, steps, val) == want, args
                cases += 1
    assert cases == 384
    assert {-1, 0, 1} <= offsets


@pytest.mark.parametrize("scale", [0.5, 2], ids=["overshoot", "undershoot"])
def test_a_multiply_run_corrects_a_wrong_estimate_either_way(monkeypatch, scale):
    # the float estimate only seeds the search for the trip point: with
    # log10(10) halved it lands past the trip and is walked down, doubled it
    # lands short and is walked up, and exact tests find the same product,
    # down to the first multiply (halved, 10**49 is seeded at two)
    log10 = budget.log10
    monkeypatch.setattr(budget, "log10", lambda x: log10(x) * (scale if x == 10 else 1))
    j, first = _oracles.first_power_reaching(7, 10, 10**50)
    assert j == 50
    assert mul_run(7, 10, 10**6, 10**9, 50, 0, 7) == (TRIP_MAGNITUDE, 0, j, first)
    assert mul_run(10**49, 10, 5, 10**9, 50, 0, 10**49) == (TRIP_MAGNITUDE, 0, 1, 10**50)


def test_a_multiply_run_under_a_cap_past_the_float_range_fits_at_once():
    # mul_run's all-fits branch is load-bearing: past about 10**308 digits
    # the estimate's max_digits - log10(val) cannot be taken as a float
    cap = 10**400
    with pytest.raises(OverflowError):
        cap - math.log10(7)
    value = 7 * 10**1000
    assert mul_run(7, 10, 1000, 10**9, cap, 0, 7) == (OK, value, 1000, value)
    assert mul_run(3, 2, 10**6, 500, cap, 0, 3) == (TRIP_STEPS, 0, 500, 3 << 500)


def _plain_add_run(val, count, max_steps, mag_limit, steps, peak):
    """The increments one at a time, each charged and noted."""
    for _ in range(count):
        steps += 1
        if steps > max_steps:
            return (TRIP_STEPS, 0, max_steps, peak)
        val += 1
        if val > peak:
            peak = val
            if val >= mag_limit:
                return (TRIP_MAGNITUDE, 0, steps, peak)
    return (OK, val, steps, peak)


def test_add_run_matches_plain_loop():
    cases = 0
    for max_digits in (1, 2, 3, 5, 12):
        mag = 10**max_digits
        vals = sorted({0, 1, 2, 3, mag - 3, mag - 2, mag - 1})
        for val, count, max_steps, steps, extra in itertools.product(
            vals, range(45), (1, 2, 3, 5, 10, 50), (0, 1), (0, 1, 6)
        ):
            peak = val + extra  # the run needs val <= peak < mag_limit
            if peak >= mag:
                continue
            args = (val, count, max_steps, mag, steps, peak)
            want = _plain_add_run(*args)
            got = add_run(val, count, max_steps, max_digits, steps, peak)
            assert got == want, args
            cases += 1
    assert cases == 45_900


def test_every_counted_run_ends_in_the_one_contract():
    # a counted run is called with the meter's steps and peak, never its
    # own defaults: the caller has taken the inputs into the peak
    runs = [ack_machine, knuth_machine, conway_machine, _machines._tower]
    runs += [_machines._level1_run, pow_counted, mul_run, add_run]
    for run in runs:
        params = list(inspect.signature(run).parameters.values())[-4:]
        assert [param.name for param in params] == [
            "max_steps", "max_digits", "steps", "peak"
        ], run.__name__
        empty = inspect.Parameter.empty
        assert all(p.default is empty for p in params), run.__name__


def test_runs_below_the_cap_build_no_power_of_ten():
    # the cap's power, 10**100000 (41 KB) at the default cap, is built only
    # for a value within a couple of bits of it, not on every call
    before = budget._pow10.cache_info()
    for max_digits in (5, 12, 10**5):
        for val in (0, 1, 9_999):
            want = (OK, val + 1000, 1000, val + 1000)
            assert add_run(val, 1000, 10**9, max_digits, 0, val) == want
    got = _oracles.machine_run(ack_machine, 2, 10**6, 10**13, 10**5)
    assert got[:2] == (OK, 2 * 10**6 + 3)
    got = _oracles.machine_run(ack_machine, 3, 10, 10**9, 10**5)
    assert got[:2] == (OK, 2**13 - 3)
    assert budget._pow10.cache_info() == before


def test_decimal_conversion_in_pieces_under_the_smallest_cap():
    rng = random.Random(4)
    values = [10**k + d for k in (639, 640, 1280, 5000) for d in (-1, 0, 1)]
    values += [rng.getrandbits(rng.randrange(1, 20_000)) for _ in range(40)]
    sizes = (4301, 4340, 9900, 30_000, 10**5)
    values += [rng.randrange(10 ** (n - 1), 10**n) for n in sizes]
    caller_cap = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        texts = [str(v) for v in values]
        sys.set_int_max_str_digits(640)
        for value, text in zip(values, texts):
            assert int_to_decimal(value) == text
            assert decimal_to_int(text) == value
            assert decimal_to_int("000" + text) == value
        for value, text in zip(values[:3], texts[:3]):
            assert int_to_decimal(-value) == "-" + text
        assert int_to_decimal(-values[-1]) == "-" + texts[-1]
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(caller_cap)


def test_parse_route_follows_the_length_not_the_cap():
    # decimal_to_int takes int() or the power-of-ten split by the text's
    # length alone, as int_to_decimal does by bit length: under the least
    # cap, the default one and none, each text gives the same value and
    # builds the same powers of ten
    rng = random.Random(22)
    sizes = (640, 641, 4300, 4301, 10**4, 10**5)
    texts = [
        str(rng.randrange(1, 10)) + "".join(rng.choices("0123456789", k=n - 1))
        for n in sizes
    ]
    caller_cap = sys.get_int_max_str_digits()
    built = {}
    try:
        sys.set_int_max_str_digits(0)
        values = [int(text) for text in texts]
        for cap in (640, 4300, 0):
            sys.set_int_max_str_digits(cap)
            built[cap] = []
            for text, value in zip(texts, values):
                budget._pow10.cache_clear()
                assert decimal_to_int(text) == value, (cap, len(text))
                built[cap].append(budget._pow10.cache_info())
    finally:
        sys.set_int_max_str_digits(caller_cap)
    assert built[640] == built[4300] == built[0]
    assert [info.misses > 0 for info in built[0]] == [False] + [True] * 5


#: run in a child process, whose int->str cap it lifts for str() and then
#: restores: prints every value that renders unlike str(), then "checked
#: <count>"
_SPLIT_RENDER_PIN = """
import random, sys
from hyperfold.budget import (
    _LEAF_BITS, _decimal_two_to, _split_to_decimal, decimal_to_int, int_to_decimal
)
sys.set_int_max_str_digits(0)
rng = random.Random(14)
sizes = sorted({round(10 ** (i / 4)) for i in range(21)})  # 1 to 10**5 digits
values = [rng.randrange(10 ** (n - 1), 10**n) for n in sizes]
for k in (_LEAF_BITS - 1, _LEAF_BITS, _LEAF_BITS + 1, 2 * _LEAF_BITS,
          2**15 - 1, 2**15, 2**15 + 1, 2 * 2**15):
    values += [2**k - 1, 2**k, 2**k + 1]
for k in (1, 617, 639, 640, 9864, 9865, 30000):
    values += [10**k - 1, 10**k, 10**k + 1]
values += [0, 2**65536]  # every low binary piece of 2**65536 is zero
texts = [str(value) for value in values]
checked = 0
for value, text in zip(values, texts):
    _decimal_two_to.cache_clear()  # cold, warm, then through int_to_decimal
    if _split_to_decimal(value) != text or _split_to_decimal(value) != text:
        print(value.bit_length())
    if int_to_decimal(value) != text:
        print(value.bit_length())
    checked += 1
for value, text in reversed(list(zip(values, texts))):  # other sizes cached
    if _split_to_decimal(value) != text:
        print("reversed", value.bit_length())
# str() of 10**6 digits takes about 11 s; this value is built from its text
# by the power-of-ten parser instead, which is pinned against int().  The
# parser splits any text past _PARSE_DIGITS digits, whatever the cap; under
# the default cap int() refuses this one, so no whole-text int() stands in
text = str(rng.randrange(1, 10)) + "".join(rng.choices("0123456789", k=10**6 - 1))
sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
try:
    int(text)
    print("int() took 10**6 digits")
except ValueError:
    pass
if int_to_decimal(decimal_to_int(text)) != text:
    print("10**6 digits")
print("checked", checked + 1)
"""


def test_split_rendering_matches_str():
    proc = subprocess.run(
        [sys.executable, "-c", _SPLIT_RENDER_PIN],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "checked 69\n"


def test_renders_agree_across_threads():
    # the Decimal powers of two are one cache, shared by every thread: four
    # threads render three sizes past the split from a cold cache, 20 times
    # each, switching as often as the interpreter allows
    rng = random.Random(17)
    sizes = (2**15 + 1, 2 * 2**15 + 3, 4 * 2**15)
    values = [rng.getrandbits(bits) | 1 << (bits - 1) for bits in sizes]
    want = [int_to_decimal(value) for value in values]
    results, errors = [], []

    def render():
        try:
            for _ in range(20):
                results.append([int_to_decimal(value) for value in values])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=render) for _ in range(4)]
    interval = sys.getswitchinterval()
    budget._decimal_two_to.cache_clear()
    render()  # the sizes and bytes one thread leaves in the cache
    alone = budget._decimal_two_to.cache_info()
    results.clear()
    budget._decimal_two_to.cache_clear()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not [thread for thread in threads if thread.is_alive()]
    assert errors == []
    assert results == [want] * 80
    together = budget._decimal_two_to.cache_info()  # no update lost
    assert (together.currsize, together.nbytes) == (alone.currsize, alone.nbytes)


#: run in a child process with the int->str cap given as its argument and a
#: ``sys.get_int_max_str_digits`` that raises: prints every message or repr
#: that does not hold its value's exact digits, then "checked <count>"
_SINGLE_OWNER_PIN = """
import contextlib, io, sys
sys.set_int_max_str_digits(int(sys.argv[1]))


def refuse():
    raise AssertionError("the int->str cap was read")


sys.get_int_max_str_digits = refuse

from hyperfold import cli
from hyperfold.budget import Budget, EvalStats
from hyperfold.folds import church_from_natural, foldn
from hyperfold.hyperops import ack_ref, conway_ref
from hyperfold.notation import evaluate, parse, render

checked = 0


def check(got, want, what):
    global checked
    checked += 1
    if got != want:
        print(what)


huge = "1" + "0" * 5000  # 10**5000
trip = f"value exceeds {huge} digits (max_digits={huge})"
probes = [
    (lambda: conway_ref([-(10**5000)]), "DomainError",
     "chain entry must be an integer >= 1, got -" + huge),
    (lambda: conway_ref([2, 10**6000], Budget(max_digits=10**5000)),
     "MagnitudeExceeded", trip),
    (lambda: evaluate(parse("2->" + "9" * 6000), "both", Budget(max_digits=10**5000)),
     "MagnitudeExceeded", trip),
    (lambda: ack_ref(3, 10**4400, Budget(max_steps=10**4400)), "BudgetExceeded",
     "step budget exhausted (max_steps=1" + "0" * 4400 + ")"),
    (lambda: church_from_natural(10**5000), "ConstructionLimit",
     f"numeral of depth {huge} exceeds the construction cap 1000000"),
    (lambda: church_from_natural(-(10**5000)), "ValueError",
     "cannot encode a negative number, got -" + huge),
    (lambda: foldn(abs, 0, -(10**5000)), "ValueError",
     "foldn index must be non-negative, got -" + huge),
    (lambda: render(10**5000), "TypeError", "not an expression: " + huge),
    (lambda: evaluate(10**5000), "TypeError", "not an expression: " + huge),
]
for probe, kind, message in probes:
    try:
        probe()
        got = None
    except Exception as exc:
        got = (type(exc).__name__, str(exc))
    check(got, (kind, message), message[:40])
check(repr(parse("9" * 5000)), "NatLit(value=" + "9" * 5000 + ")", "NatLit repr")
check(repr(Budget(max_steps=10**5000)),
      f"Budget(max_steps={huge}, max_digits=100000)", "Budget repr")
check(repr(EvalStats(10**5000, 5001)),
      f"EvalStats(steps_used={huge}, peak_digits=5001)", "EvalStats repr")

# the CLI reads a flag and writes its stats line through the same owners
big = "1" + "0" * 4400  # 10**4400
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    try:
        code = cli.main(["--max-steps", big, "eval", "2"])
    except SystemExit as exc:
        code = exc.code
check((code, out.getvalue()), (0, "2\\nsteps=0 peak_digits=1\\n"), "--max-steps flag")
with contextlib.redirect_stderr(err):
    code = cli.run_eval(f"ack(3,{big})", cli.Config("reference", 10**5000))
check((code, err.getvalue().splitlines()[-1]),
      (3, f"steps={huge} peak_digits=4401"), "stats line")
print("checked", checked)
"""


@pytest.mark.parametrize("cap", [640, 4300])
def test_integer_text_never_reads_the_int_str_cap(cap):
    # every int becomes text, and text an int, through int_to_decimal and
    # decimal_to_int, which hold exact digits under any cap; past the cap a
    # message still ends in its own error, not the cap's ValueError
    proc = subprocess.run(
        [sys.executable, "-c", _SINGLE_OWNER_PIN, str(cap)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "checked 14\n"


def test_decimal_render_and_parse_large():
    value = 10**4999 + 7
    text = int_to_decimal(value)
    assert len(text) == 5000
    assert decimal_to_int(text) == value
