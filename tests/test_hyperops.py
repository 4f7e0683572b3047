import itertools
import os
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from hyperfold import _machines, hyperops
from hyperfold._machines import ack_machine, conway_machine, knuth_machine
from hyperfold.budget import (
    Budget,
    BudgetExceeded,
    ConstructionLimit,
    DomainError,
    EvalStats,
    HyperError,
    MagnitudeExceeded,
    Meter,
    add_run,
)
from hyperfold.folds import foldn
from hyperfold.hyperops import (
    ack_prim,
    ack_ref,
    cback_prim,
    conway_prim,
    conway_ref,
    cpow,
    eval_ack_prim,
    eval_knuth_prim,
    knuth_prim,
    knuth_ref,
    run_budgeted,
)
from hyperfold.notation import evaluate, parse

B = Budget()


def _pin_cost(run, args, cost, value, peak_digits=None, **limits):
    """Pin an exact cost: ``run(*args, budget)`` returns ``value`` at exactly
    ``cost`` steps, with ``peak_digits`` when given, and a budget of
    ``cost - 1`` trips there (a budget is at least one step, so a cost of 1
    pins no trip).  ``limits`` are the budget's other fields."""
    case = (run.__name__, args)
    got, stats = run(*args, Budget(max_steps=cost, **limits))
    assert (got, stats.steps_used) == (value, cost), case
    if peak_digits is not None:
        assert stats.peak_digits == peak_digits, case
    if cost > 1:
        with pytest.raises(BudgetExceeded) as trip:
            run(*args, Budget(max_steps=cost - 1, **limits))
        assert trip.value.stats.steps_used == cost - 1, case


# --- Ackermann -------------------------------------------------------------


ACK_GRID_STEPS = (1, 2, 3, 5, 10, 50, 300, 5000, 10**5, 10**7)
ACK_GRID_DIGITS = (1, 2, 3, 100)


@pytest.mark.parametrize("steps0", [0, 7])
def test_ack_machine_matches_literal_grid(steps0):
    # the run-length machine charges whole descents and level-1 frames at
    # once; every status tuple must equal the one-step-per-rule machine's
    for m, n in itertools.product(range(4), range(7)):
        for max_steps in ACK_GRID_STEPS:
            for max_digits in ACK_GRID_DIGITS:
                mag = 10**max_digits
                want = _oracles.ack_literal_machine(m, n, max_steps, mag, steps0)
                got = _oracles.machine_run(
                    ack_machine, m, n, max_steps, max_digits, steps0=steps0
                )
                case = (m, n, max_steps, max_digits, steps0)
                assert got == want, case
                if got[0] == 0 and steps0 == 0:
                    assert got[2] == _oracles.count_ack_steps(m, n), case


def test_ack_machine_matches_literal_at_every_budget():
    # every budget up to the whole run (and just past it), so that each
    # level-1 frame is cut at every step, under caps that the values cross
    # inside a frame; ack(1, n) for n up to 10**d - 1 ends just under a
    # d-digit cap, at it or past it
    points = list(itertools.product(range(4), range(6)))
    points += [(1, n) for n in (7, 8, 9, 97, 98, 99)]
    cases = 0
    for (m, n), max_digits in itertools.product(points, (1, 2, 3)):
        mag = 10**max_digits
        total = _oracles.count_ack_steps(m, n)
        budgets = set(range(1, min(total + 1, 1200) + 1))
        budgets |= {total - 1, total, total + 1} - {0}
        for max_steps in sorted(budgets):
            want = _oracles.ack_literal_machine(m, n, max_steps, mag)
            got = _oracles.machine_run(ack_machine, m, n, max_steps, max_digits)
            assert got == want, (m, n, max_steps, max_digits)
            cases += 1
    assert cases == 15_717


@settings(max_examples=300)
@given(
    st.integers(0, 3),
    st.integers(0, 5000),
    st.integers(1, 60_000),
    st.integers(1, 5),
    st.integers(0, 50),
)
def test_ack_machine_matches_literal_sampled(m, n, max_steps, max_digits, steps0):
    mag = 10**max_digits
    want = _oracles.ack_literal_machine(m, n, max_steps, mag, steps0)
    got = _oracles.machine_run(ack_machine, m, n, max_steps, max_digits, steps0=steps0)
    assert got == want


def test_ack_ref_accounts_every_equation_application():
    # the production machine charges whole runs at once, but must report
    # exactly the literal rewrite cascade's step count
    mag = 10**B.max_digits
    for m in range(4):
        for n in range(7):
            literal = _oracles.ack_literal_machine(m, n, B.max_steps, mag)
            shortcut = _oracles.machine_run(
                ack_machine, m, n, B.max_steps, B.max_digits
            )
            assert shortcut == literal, (m, n)
            assert shortcut[2] == _oracles.count_ack_steps(m, n)


def test_ack_cost_closed_forms_match_the_recurrence():
    for m, n in itertools.product(range(4), range(5)):
        assert _oracles.ack_cost(m, n) == _oracles.count_ack_steps(m, n), (m, n)


@pytest.mark.parametrize("n", [20, 40, 60])
def test_ack_ref_costs_exactly_the_closed_form_at_large_n(n):
    # far past the literal machine's reach (C(3, 60) has 38 digits)
    _pin_cost(ack_ref, (3, n), _oracles.ack_cost(3, n), 2 ** (n + 3) - 3)


def test_a_level1_run_solves_only_for_frames_that_do_not_all_fit(monkeypatch):
    # a level-1 run whose frames all fit the budget is charged at once; only
    # the one the step budget cuts short takes a square root
    roots = 0
    isqrt = _machines.isqrt

    def counted_isqrt(x):
        nonlocal roots
        roots += 1
        return isqrt(x)

    monkeypatch.setattr(_machines, "isqrt", counted_isqrt)
    with pytest.raises(BudgetExceeded) as trip:
        ack_ref(3, 10**4400, Budget(max_steps=10**5000))
    assert trip.value.stats.steps_used == 10**5000
    assert roots == 1


def test_ack_machine_budget_trips_match_literal():
    mag = 10**10
    exact = _oracles.count_ack_steps(3, 3)
    for max_steps in (1, 2, 10, 100, exact - 1, exact, exact + 1):
        literal = _oracles.ack_literal_machine(3, 3, max_steps, mag)
        shortcut = _oracles.machine_run(ack_machine, 3, 3, max_steps, 10)
        # value/status and reported steps agree even on mid-run trips
        assert shortcut[0] == literal[0], max_steps
        assert shortcut[2] == literal[2], max_steps
        if literal[0] == 0:
            assert shortcut == literal


def test_ack_magnitude_trip_decision_matches_literal():
    # ack(2, 60) = 123: three digits, so a 2-digit cap must trip both
    mag = 10**2
    literal = _oracles.ack_literal_machine(2, 60, 10**7, mag)
    shortcut = _oracles.machine_run(ack_machine, 2, 60, 10**7, 2)
    assert literal[0] == shortcut[0] == 2


def test_ack_ref_trip_memory_is_bounded_by_runs():
    # one stack slot per descent would hold about 10**7 frames (80 MB) on
    # this trip; runs hold at most m entries
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            ack_ref(3, 9_999_990, B)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_ref_trip_memory_at_a_huge_level_is_bounded_by_blocks():
    # a descent from level 10**30 leaves a run at every level it passes, and
    # 7->69->3000000 a run at every q it resumes (its sub-values recur): a
    # block holds each line of runs, so neither grows with the budget
    for fn, args in ((ack_ref, (10**30, 1)), (conway_ref, ((7, 69, 3_000_000),))):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                fn(*args, Budget(max_steps=30_000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # two list slots per frame or run hold 0.8 MB here, a tuple per run
        # 0.2-1.8 MB; blocks hold a few tuples
        assert peak < 64 << 10, (fn.__name__, peak)


def test_ack_machine_matches_literal_at_high_levels():
    # levels of 4 and more stack runs of equal counts at consecutive levels,
    # which the machine keeps as blocks; the literal machine takes one pass
    # per step, so the budgets stop at 5000
    for m, n in itertools.product((4, 5, 6, 12, 60), range(4)):
        for max_steps in ACK_GRID_STEPS[:-2]:
            for max_digits in (1, 3, 100):
                want = _oracles.ack_literal_machine(m, n, max_steps, 10**max_digits)
                got = _oracles.machine_run(ack_machine, m, n, max_steps, max_digits)
                assert got == want, (m, n, max_steps, max_digits)


def test_ack_heavy_point_needs_expanded_budget():
    # ack(4,1) costs exactly 2,862,984,010 equation applications: far over
    # the default step budget, so the default run must trip...
    with pytest.raises(BudgetExceeded):
        ack_ref(4, 1, B)
    need = _oracles.count_ack_steps(4, 1)
    assert need == 2_862_984_010
    # ...and a budget of exactly that many steps is enough, to the step
    assert _oracles.ack(4, 1) == 65533
    _pin_cost(ack_ref, (4, 1), need, 65533, max_digits=10**5)


def test_ack_rejects_bad_arguments():
    with pytest.raises(DomainError):
        ack_ref(-1, 0, B)
    with pytest.raises(DomainError):
        ack_prim(0, -1, B)


def test_ack_prim_depth_guard():
    with pytest.raises(ConstructionLimit):
        ack_prim(10**5, 0, B)
    # a depth of any length is written in full
    with pytest.raises(ConstructionLimit, match=f"nest {10**20} closures "):
        ack_prim(10**20, 0, B)


ACK_PRIM_STEPS = (1, 2, 3, 5, 8, 13, 21, 34, 100, 300, 1000, 3000, 10**4, 3 * 10**4)
ACK_PRIM_DIGITS = (1, 2, 3, 4, 100)


def test_ack_prim_matches_literal_grid():
    # the fold form runs the shared tower; every value, trip, message and
    # stats must be those of its own unshared closure tower
    compared = 0
    for max_steps, max_digits in itertools.product(ACK_PRIM_STEPS, ACK_PRIM_DIGITS):
        budget = Budget(max_steps, max_digits)
        for m, n in itertools.product(range(5), range(9)):
            want = _outcome(_oracles.ack_literal_prim, m, n, budget=budget)
            got = _outcome(eval_ack_prim, m, n, budget=budget)
            assert got == want, (m, n, max_steps, max_digits)
            compared += 1
    assert compared == 3150


@settings(max_examples=300)
@given(
    st.integers(0, 4),
    st.integers(0, 10**4),
    st.integers(1, 20_000),
    st.integers(1, 400),
)
def test_ack_prim_matches_literal_sampled(m, n, max_steps, max_digits):
    budget = Budget(max_steps, max_digits)
    want = _outcome(_oracles.ack_literal_prim, m, n, budget=budget)
    assert _outcome(eval_ack_prim, m, n, budget=budget) == want


def test_ack_prim_costs_exactly_the_recurrence():
    # every case the fold form finishes in 10**5 steps, pinned at its cost
    cases = 0
    for m, n in itertools.product(range(5), range(6)):
        try:
            value, stats = ack_prim(m, n, Budget(max_steps=10**5))
        except HyperError:
            continue
        cost = _oracles.ack_prim_cost(m, n)
        assert (value, stats.steps_used) == (_oracles.ack(m, n), cost), (m, n)
        _pin_cost(ack_prim, (m, n), cost, value)
        cases += 1
    assert cases == 25


@pytest.mark.parametrize(
    "m, n, value, cost",
    [
        (1, 10**6, 10**6 + 2, 1_000_003),
        (2, 1000, 2003, 1_004_006),
        (3, 8, 2045, 1_394_021),
    ],
)
def test_ack_prim_costs_the_closed_form_at_large_n(m, n, value, cost):
    # far past the literal fold form's grid, one closed form per level
    assert _oracles.ack_prim_cost(m, n) == cost
    _pin_cost(ack_prim, (m, n), cost, value, len(str(value)))


@pytest.mark.parametrize("n", [5, 6])
def test_ack_prim_makes_about_one_python_call_per_step(n):
    # the successor charges its own step, so an application of (+1) is one
    # Python call, not a closure and then Meter.spend (about 2 per step)
    package = os.path.dirname(hyperops.__file__) + os.sep
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        value, stats = ack_prim(3, n, B)
    finally:
        sys.setprofile(previous)
    assert value == 2 ** (n + 3) - 3
    assert calls <= 1.1 * stats.steps_used, (calls, stats.steps_used)


def test_foldn_takes_an_iterate_set_on_the_meters_successor(monkeypatch):
    # fold fusion for (+1) stays one line: the successor is a function
    # object, so foldn runs an iterate set on it in place of its loop
    meter = Meter(Budget(max_steps=10**7))
    succ = meter.successor()
    succ.iterate = lambda v, c: meter.run(add_run, v, c)
    assert foldn(succ, 5, 10**6) == 10**6 + 5
    assert (meter.steps, meter.peak) == (10**6, 10**6 + 5)

    unfused = Meter.successor

    def fused(self):
        succ = unfused(self)
        succ.iterate = lambda v, c: self.run(add_run, v, c)
        return succ

    want = [ack_prim(3, n, B) for n in range(6)]
    monkeypatch.setattr(Meter, "successor", fused)
    assert [ack_prim(3, n, B) for n in range(6)] == want



def test_each_fold_layer_folds_once_per_argument(monkeypatch):
    # a function a layer builds keeps the applications it finished, so a
    # repeated g(y) is charged from its table and runs no fold again; the
    # step objects are kept alive, as id() is reused after collection
    folds = []

    def recording_foldn(step, base, n):
        folds.append((step, base, n))
        return foldn(step, base, n)

    monkeypatch.setattr(hyperops, "foldn", recording_foldn)
    runs = ((ack_prim, (3, 6)), (knuth_prim, (1, 8, 300)), (knuth_prim, (0, 8, 300)))
    for run, args in runs:
        folds.clear()
        run(*args, B)
        assert len(set(folds)) == len(folds), (run.__name__, args)


# --- Knuth up-arrows -------------------------------------------------------


def test_knuth_deep_tower_levels_collapse_on_unit():
    # a ^(n) 1 == a for every level; exercises deep fold nesting
    assert knuth_prim(2, 600, 1, B)[0] == 2
    assert knuth_ref(2, 600, 1, B)[0] == 2


def test_deep_fold_forms_leave_the_recursion_limit_unchanged():
    # 1100 nested closures need more than the default limit of 1000 frames;
    # the evaluators may raise it while they run, never after they return
    caller_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(2000)
    try:
        assert knuth_prim(2, 1100, 1, B)[0] == 2
        assert sys.getrecursionlimit() == 2000
        assert evaluate(parse("knuth(2,1100,1)"), "primitive", B)[0] == 2
        assert sys.getrecursionlimit() == 2000
    finally:
        sys.setrecursionlimit(caller_limit)


def test_knuth_magnitude_trip():
    with pytest.raises(MagnitudeExceeded):
        knuth_ref(10, 1, 50, Budget(max_steps=10**6, max_digits=3))
    with pytest.raises(MagnitudeExceeded):
        knuth_prim(10, 1, 50, Budget(max_steps=10**6, max_digits=3))


def test_knuth_ref_costs_exactly_the_recurrence():
    # every case the machine finishes in 10**6 steps under a 100-digit cap,
    # pinned at its cost
    cases = 0
    for a, n, b in itertools.product(range(6), range(5), range(6)):
        try:
            value, stats = knuth_ref(a, n, b, Budget(10**6, 100))
        except HyperError:
            continue
        cost = _oracles.knuth_cost(a, n, b)
        assert (value, stats.steps_used) == (_oracles.knuth(a, n, b), cost)
        _pin_cost(knuth_ref, (a, n, b), cost, value, max_digits=100)
        cases += 1
    assert cases == 143


def test_knuth_ref_costs_and_caps_at_large_arguments():
    # far past the literal machine's reach: 2^^5 = 2**65536 at T(2, 5)
    assert _oracles.knuth_cost(2, 2, 5) == 131_129
    _pin_cost(knuth_ref, (2, 2, 5), 131_129, 2**65536, 19_729)
    # one level-1 frame at b: a descent of b + 1 steps, then b multiplies
    assert _oracles.knuth_cost(2, 1, 10**6) == 2_000_001
    value, stats = knuth_ref(2, 1, 10**6, Budget(max_digits=400_000))
    assert value == 2**10**6
    assert stats == EvalStats(steps_used=2_000_001, peak_digits=301_030)
    assert _oracles.knuth_cost(10, 1, 99_999) == 199_999
    value, stats = knuth_ref(10, 1, 99_999)
    assert value == 10**99_999
    assert stats == EvalStats(steps_used=199_999, peak_digits=100_000)
    # 10^100000 reaches the default cap: after the descent of 100,001 steps
    # the values are 10^j, so the trip comes at the first multiply j whose
    # value reaches 10**100000, and that value is the peak
    j, first = _oracles.first_power_reaching(1, 10, 10**B.max_digits)
    assert (j, first) == (100_000, 10**100_000)
    with pytest.raises(MagnitudeExceeded) as trip:
        knuth_ref(10, 1, 100_000)
    assert trip.value.stats == EvalStats(steps_used=200_001, peak_digits=100_001)


def test_knuth_prim_costs_exactly_the_recurrence():
    # the cases of test_knuth_ref_costs_exactly_the_recurrence, in the fold
    # form
    cases = 0
    for a, n, b in itertools.product(range(6), range(5), range(6)):
        try:
            value, stats = knuth_prim(a, n, b, Budget(10**6, 100))
        except HyperError:
            continue
        cost = _oracles.knuth_prim_cost(a, n, b)
        assert (value, stats.steps_used) == (_oracles.knuth(a, n, b), cost)
        _pin_cost(knuth_prim, (a, n, b), cost, value, max_digits=100)
        cases += 1
    assert cases == 143


def test_knuth_prim_costs_and_caps_at_large_arguments():
    # 2^^5 = 2**65536 at n + K(2, 5)
    assert _oracles.knuth_prim_cost(2, 2, 5) == 65_567
    _pin_cost(knuth_prim, (2, 2, 5), 65_567, 2**65536, 19_729)
    # one layer, one closure entry, then one fused run of b multiplies
    assert _oracles.knuth_prim_cost(2, 1, 10**6) == 1_000_002
    value, stats = knuth_prim(2, 1, 10**6, Budget(max_digits=400_000))
    assert value == 2**10**6
    assert stats == EvalStats(steps_used=1_000_002, peak_digits=301_030)
    assert _oracles.knuth_prim_cost(10, 1, 99_999) == 100_001
    value, stats = knuth_prim(10, 1, 99_999)
    assert value == 10**99_999
    assert stats == EvalStats(steps_used=100_001, peak_digits=100_000)
    # the values are 10^j after two steps, so 10**100000 trips the default
    # cap at its own multiply, j = 100,000, and is the peak
    with pytest.raises(MagnitudeExceeded) as trip:
        knuth_prim(10, 1, 100_000)
    assert trip.value.stats == EvalStats(steps_used=100_002, peak_digits=100_001)


KNUTH_GRID_STEPS = (1, 2, 3, 5, 10, 50, 300, 5000, 10**6)
KNUTH_GRID_DIGITS = (1, 2, 4, 12, 100)


@pytest.mark.parametrize("steps0", [0, 7])
def test_knuth_machine_matches_literal_grid(steps0):
    # the run-length machine charges whole descents and multiply runs at
    # once; every status tuple must equal the one-step-per-rule machine's
    for a, n, b in itertools.product(range(5), repeat=3):
        for max_steps in KNUTH_GRID_STEPS:
            for max_digits in KNUTH_GRID_DIGITS:
                mag = 10**max_digits
                want = _oracles.knuth_literal_machine(a, n, b, max_steps, mag, steps0)
                got = _oracles.machine_run(
                    knuth_machine, a, n, b, max_steps, max_digits, steps0=steps0
                )
                assert got == want, (a, n, b, max_steps, max_digits, steps0)


def test_knuth_machine_at_a_one_matches_literal():
    # every value is 1, and the machine charges the 2nb+1 steps at once
    for n, b in itertools.product(range(1, 7), range(30)):
        for max_steps in (1, 2, 3, 5, 10, 50, 300, 5000):
            for max_digits, steps0 in ((1, 1), (1, 7), (2, 40)):
                mag = 10**max_digits
                want = _oracles.knuth_literal_machine(1, n, b, max_steps, mag, steps0)
                got = _oracles.machine_run(
                    knuth_machine, 1, n, b, max_steps, max_digits, steps0=steps0
                )
                assert got == want, (n, b, max_steps, max_digits, steps0)


def test_knuth_at_a_one_costs_no_loop_pass_per_step():
    # 1.6 * 10**10 rewrites, which one pass per frame would take hours over
    probe = (
        "from hyperfold.budget import Budget; from hyperfold.hyperops import "
        "knuth_ref; print(knuth_ref(1, 8, 10**9, Budget(max_steps=10**11)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    want = "(1, EvalStats(steps_used=16000000001, peak_digits=10))\n"
    assert proc.stdout == want


_knuth_entry = st.one_of(st.integers(0, 12), st.integers(0, 10**6))


@settings(max_examples=300)
@given(
    _knuth_entry,
    st.integers(0, 8),
    _knuth_entry,
    st.integers(1, 20_000),
    st.integers(1, 400),
    st.integers(0, 50),
)
def test_knuth_machine_matches_literal_sampled(a, n, b, max_steps, max_digits, steps0):
    mag = 10**max_digits
    want = _oracles.knuth_literal_machine(a, n, b, max_steps, mag, steps0)
    got = _oracles.machine_run(
        knuth_machine, a, n, b, max_steps, max_digits, steps0=steps0
    )
    assert got == want


@pytest.mark.parametrize(
    "args, budget, stats",
    [
        ((3, 3, 3), Budget(max_steps=10**12), (10**12, 13)),
        ((2, 3, 4), B, (10**7, 19729)),
    ],
)
def test_knuth_ref_large_budget_trips_fast(args, budget, stats):
    # the literal machine decrements a 19,729-digit value 10**7 times for
    # knuth(2,3,4) and could never reach 10**12 steps; the bound is loose
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as trip:
        knuth_ref(*args, budget)
    elapsed = time.perf_counter() - start
    assert (trip.value.stats.steps_used, trip.value.stats.peak_digits) == stats
    assert elapsed < 1.0, f"knuth_ref{args} took {elapsed:.2f} s"


def test_knuth_ref_trip_memory_is_bounded_by_runs():
    # one stack slot per pushed level held 89 MB on this trip; runs hold
    # at most n + 1 entries
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            knuth_ref(3, 3, 3, B)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def _outcome(fn, *args, budget):
    """A value and its stats, or the trip's class, message and stats."""
    try:
        return run_budgeted(fn, *args, budget=budget)
    except HyperError as exc:
        return (type(exc), str(exc), exc.stats)


def _accounting(fn, args, budget):
    """(value or trip class, steps used, peak digits) of a public call."""
    try:
        value, stats = fn(*args, budget)
    except HyperError as exc:
        value, stats = type(exc), exc.stats
    return (value, stats.steps_used, stats.peak_digits)


KNUTH_PRIM_STEPS = (1, 2, 3, 5, 10, 50, 300, 5000, 10**5, 10**7)
KNUTH_PRIM_DIGITS = (1, 2, 4, 12, 100, 10**5)
_DIGITS = 10**5
_M = MagnitudeExceeded

#: the (a, n, b) of the grid below whose literal tower, under 10^5 digits and
#: 10^5 or 10^7 steps, runs 10^5 multiplies or more on numbers of up to 10^5
#: digits: 0.2-5 s each, about 70 s in all.  Their knuth_literal_prim
#: outcomes, (value or trip class, steps, peak digits) under 10^5 steps and
#: then under 10^7 steps, are frozen here.
KNUTH_PRIM_HEAVY = {
    (2, 2, 5): ((2**65536, 65567, 19729), (2**65536, 65567, 19729)),
    (2, 3, 4): ((BudgetExceeded, 10**5, 19729), (_M, 397800, _DIGITS + 1)),
    (2, 3, 5): ((BudgetExceeded, 10**5, 19729), (_M, 397800, _DIGITS + 1)),
    (2, 4, 3): ((BudgetExceeded, 10**5, 19729), (_M, 397816, _DIGITS + 1)),
    (2, 4, 4): ((BudgetExceeded, 10**5, 19729), (_M, 397816, _DIGITS + 1)),
    (2, 4, 5): ((BudgetExceeded, 10**5, 19729), (_M, 397816, _DIGITS + 1)),
    (3, 2, 4): ((BudgetExceeded, 10**5, 47694), (_M, 209629, _DIGITS + 1)),
    (3, 2, 5): ((BudgetExceeded, 10**5, 47694), (_M, 209629, _DIGITS + 1)),
    (3, 3, 3): ((BudgetExceeded, 10**5, 47675), (_M, 209669, _DIGITS + 1)),
    (3, 3, 4): ((BudgetExceeded, 10**5, 47675), (_M, 209669, _DIGITS + 1)),
    (3, 3, 5): ((BudgetExceeded, 10**5, 47675), (_M, 209669, _DIGITS + 1)),
    (3, 4, 2): ((BudgetExceeded, 10**5, 47673), (_M, 209675, _DIGITS + 1)),
    (3, 4, 3): ((BudgetExceeded, 10**5, 47673), (_M, 209675, _DIGITS + 1)),
    (3, 4, 4): ((BudgetExceeded, 10**5, 47673), (_M, 209675, _DIGITS + 1)),
    (3, 4, 5): ((BudgetExceeded, 10**5, 47673), (_M, 209675, _DIGITS + 1)),
    (4, 2, 4): ((BudgetExceeded, 10**5, 60045), (_M, 166365, _DIGITS + 1)),
    (4, 2, 5): ((BudgetExceeded, 10**5, 60045), (_M, 166365, _DIGITS + 1)),
    (4, 3, 2): ((BudgetExceeded, 10**5, 60042), (_M, 166370, _DIGITS + 1)),
    (4, 3, 3): ((BudgetExceeded, 10**5, 60042), (_M, 166370, _DIGITS + 1)),
    (4, 3, 4): ((BudgetExceeded, 10**5, 60042), (_M, 166370, _DIGITS + 1)),
    (4, 3, 5): ((BudgetExceeded, 10**5, 60042), (_M, 166370, _DIGITS + 1)),
    (4, 4, 2): ((BudgetExceeded, 10**5, 60039), (_M, 166376, _DIGITS + 1)),
    (4, 4, 3): ((BudgetExceeded, 10**5, 60039), (_M, 166376, _DIGITS + 1)),
    (4, 4, 4): ((BudgetExceeded, 10**5, 60039), (_M, 166376, _DIGITS + 1)),
    (4, 4, 5): ((BudgetExceeded, 10**5, 60039), (_M, 166376, _DIGITS + 1)),
}


def _is_heavy(a, n, b, max_steps, max_digits):
    heavy_budget = max_digits == _DIGITS and max_steps >= 10**5
    return heavy_budget and (a, n, b) in KNUTH_PRIM_HEAVY


@pytest.mark.parametrize("max_digits", KNUTH_PRIM_DIGITS)
def test_knuth_prim_matches_literal_grid(max_digits):
    # the innermost foldn (a*) 1 is one counted multiply run; every value,
    # trip, message and stats must be those of one closure entry per
    # multiply
    compared = 0
    for max_steps in KNUTH_PRIM_STEPS:
        budget = Budget(max_steps, max_digits)
        for a, n, b in itertools.product(range(5), range(5), range(6)):
            if _is_heavy(a, n, b, max_steps, max_digits):
                continue
            want = _outcome(_oracles.knuth_literal_prim, a, n, b, budget=budget)
            got = _outcome(eval_knuth_prim, a, n, b, budget=budget)
            assert got == want, (a, n, b, max_steps, max_digits)
            compared += 1
    assert compared == 1500 - 50 * (max_digits == _DIGITS)


@pytest.mark.parametrize("args", sorted(KNUTH_PRIM_HEAVY))
def test_knuth_prim_heavy_grid_points_match_frozen_literal(args):
    for max_steps, want in zip((10**5, 10**7), KNUTH_PRIM_HEAVY[args]):
        budget = Budget(max_steps, _DIGITS)
        assert _accounting(knuth_prim, args, budget) == want, (args, max_steps)


@settings(max_examples=300)
@given(
    _knuth_entry,
    st.integers(0, 6),
    _knuth_entry,
    st.integers(1, 20_000),
    st.integers(1, 400),
)
def test_knuth_prim_matches_literal_sampled(a, n, b, max_steps, max_digits):
    budget = Budget(max_steps, max_digits)
    want = _outcome(_oracles.knuth_literal_prim, a, n, b, budget=budget)
    assert _outcome(eval_knuth_prim, a, n, b, budget=budget) == want



def test_fold_forms_match_literal_at_every_step_budget():
    # a repeat charged from a layer's table trips where the literal repeat
    # would: every budget up to the cost, at tight and loose digit caps
    calls = [
        (eval_ack_prim, _oracles.ack_literal_prim, _oracles.ack_prim_cost, args)
        for args in itertools.product(range(4), range(3))
    ] + [
        (eval_knuth_prim, _oracles.knuth_literal_prim, _oracles.knuth_prim_cost, args)
        for args in itertools.product(range(3), range(4), range(4))
    ]
    compared = 0
    for evaluator, literal, cost, args in calls:
        budgets = itertools.product(range(1, cost(*args) + 1), (1, 2, 3, 100))
        for max_steps, max_digits in budgets:
            budget = Budget(max_steps, max_digits)
            want = _outcome(literal, *args, budget=budget)
            assert _outcome(evaluator, *args, budget=budget) == want, (args, budget)
            compared += 1
    assert compared == 2680


# --- cpow and the Conway back end -----------------------------------------


@settings(max_examples=80)
@given(st.integers(0, 40), st.integers(0, 40))
def test_cpow_is_shifted_power(q, p):
    assert cpow(q, p, B)[0] == (p + 1) ** (q + 1)


# --- Conway chains ---------------------------------------------------------


CONWAY_GRID_CHAINS = [
    c for ln in range(5) for c in itertools.product(range(1, 5), repeat=ln)
] + list(itertools.product(range(1, 4), repeat=5))
CONWAY_GRID_STEPS = (1, 2, 3, 5, 10, 50, 300, 5000)


@pytest.mark.parametrize("steps0", [0, 7])
def test_conway_machine_matches_literal_grid(steps0):
    # the machine's power is the package's one counted power; the literal
    # machine keeps its own loop and the magnitude check after it
    for chain in CONWAY_GRID_CHAINS:
        for max_steps in CONWAY_GRID_STEPS:
            for max_digits in KNUTH_GRID_DIGITS:
                mag = 10**max_digits
                args = (chain, max_steps, mag, steps0)
                got = _oracles.machine_run(
                    conway_machine, chain, max_steps, max_digits, steps0=steps0
                )
                assert got == _oracles.conway_literal_machine(*args), (
                    chain, max_steps, max_digits, steps0
                )


@settings(max_examples=300)
@given(
    st.lists(st.one_of(st.integers(1, 5), st.integers(1, 10**4)), max_size=6),
    st.integers(1, 20_000),
    st.integers(1, 400),
    st.integers(0, 50),
)
def test_conway_machine_matches_literal_sampled(chain, max_steps, max_digits, steps0):
    args = (tuple(chain), max_steps, 10**max_digits, steps0)
    got = _oracles.machine_run(
        conway_machine, tuple(chain), max_steps, max_digits, steps0=steps0
    )
    assert got == _oracles.conway_literal_machine(*args)


@pytest.mark.parametrize("max_steps", [10**5, 3 * 10**5])
@pytest.mark.parametrize(
    "chain",
    [(3, 3, 3), (3, 4, 2, 2), (2, 3, 4), (1, 3_333_332, 2), (7, 69, 3_000_000)],
    ids=lambda chain: "->".join(map(str, chain)),
)
def test_conway_machine_matches_literal_at_benchmark_budgets(chain, max_steps):
    # the budgets of the benchmark's reference trips, where the stack holds
    # long runs and, for 7->69->3000000, a growing line of them
    got = _oracles.machine_run(conway_machine, chain, max_steps, B.max_digits)
    assert got == _oracles.conway_literal_machine(chain, max_steps, 10**B.max_digits)


def test_conway_ref_trip_memory_is_bounded_by_runs():
    # one stack slot per general-rule firing held 1.6 MB on these trips at
    # 10**5 steps (16 MB at 10**6, which tracemalloc would take seconds
    # over); runs hold a few entries
    for chain in ((3, 3, 3), (3, 4, 2, 2)):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                conway_ref(chain, Budget(max_steps=10**5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (chain, peak)


@pytest.mark.parametrize(
    "ref, prim, inputs",
    [
        (ack_ref, ack_prim, (1000, 50_000)),
        (knuth_ref, knuth_prim, (7, 1000, 50_000)),
        (knuth_ref, knuth_prim, (1000, 50_000, 123_456)),
        (conway_ref, conway_prim, (7, 1000, 50_000)),
        (conway_ref, conway_prim, (7, 1000, 50_000, 123_456)),
    ],
    ids=["ack", "knuth-2-over", "knuth-3-over", "conway-2-over", "conway-3-over"],
)
def test_families_agree_on_input_trips(ref, prim, inputs):
    # a call's inputs enter the peak as their maximum, once all are valid:
    # with two or more at or over the cap, in any order, both families
    # trip before any step with the largest input's digits
    budget = Budget(max_digits=3)
    want = EvalStats(steps_used=0, peak_digits=len(str(max(inputs))))
    for order in itertools.permutations(inputs):
        args = (order,) if ref is conway_ref else order
        for run in (ref, prim):
            with pytest.raises(MagnitudeExceeded) as trip:
                run(*args, budget)
            assert trip.value.stats == want, (run.__name__, order)


def test_reference_evaluators_trip_over_cap_inputs_before_any_machine(monkeypatch):
    # the evaluator's prologue takes the inputs, so a machine is only ever
    # called with a peak below the cap
    def never(*args):
        raise AssertionError("a machine ran on over-cap inputs")

    for name in ("ack_machine", "knuth_machine", "conway_machine"):
        monkeypatch.setattr(hyperops, name, never)
    budget = Budget(max_digits=3)
    for run, args in (
        (ack_ref, (1000, 50_000)),
        (knuth_ref, (7, 1000, 50_000)),
        (conway_ref, ((7, 1000, 50_000),)),
    ):
        with pytest.raises(MagnitudeExceeded) as trip:
            run(*args, budget)
        assert trip.value.stats == EvalStats(0, 5), run.__name__


def test_back_end_inputs_enter_the_peak_as_their_maximum():
    # cback_prim and cpow take their inputs as one maximum too, and the
    # back end validates its whole tail before it notes any of it
    budget = Budget(max_digits=3)
    for q, p in itertools.permutations((1000, 50_000)):
        with pytest.raises(MagnitudeExceeded) as trip:
            cpow(q, p, budget)
        assert trip.value.stats == EvalStats(steps_used=0, peak_digits=5)
    for e, q, p in itertools.permutations((1000, 50_000, 7)):
        with pytest.raises(MagnitudeExceeded) as trip:
            cback_prim((e,), q, p, budget)
        assert trip.value.stats == EvalStats(steps_used=0, peak_digits=5)
    with pytest.raises(DomainError) as invalid:
        cback_prim((5000, -1), 3, 4, budget)
    assert invalid.value.stats == EvalStats(steps_used=0, peak_digits=1)


def test_back_end_checks_q_and_p_before_it_reads_the_tail():
    # the prologue reads its inputs in order, so an invalid q or p is
    # reported even when the tail could not be read at all
    for q, p, name in ((-1, 0, "q"), (0, True, "p")):
        with pytest.raises(DomainError, match=f"^{name} must be") as invalid:
            cback_prim(None, q, p, B)
        assert invalid.value.stats == EvalStats(steps_used=0, peak_digits=1)
    with pytest.raises(TypeError):
        cback_prim(None, 0, 0, B)


def test_conway_rejects_zero_entries():
    with pytest.raises(DomainError):
        conway_ref([2, 0, 3], B)
    with pytest.raises(DomainError):
        conway_prim([0], B)


def test_conway_default_budget_trip_kinds():
    # the rewrite form of 3->3->3 burns the step budget; the fold form hits
    # the digit cap almost immediately: both are resource trips
    with pytest.raises(BudgetExceeded) as exc_info:
        conway_ref([3, 3, 3], B)
    assert exc_info.value.stats.steps_used == B.max_steps
    with pytest.raises(MagnitudeExceeded):
        conway_prim([3, 3, 3], B)


def test_conway_trip_respects_small_step_budget():
    with pytest.raises(BudgetExceeded) as exc_info:
        conway_ref([3, 3, 3], Budget(max_steps=1000, max_digits=10**5))
    assert exc_info.value.stats.steps_used <= 1000


@pytest.mark.parametrize(
    "run, form",
    [(conway_ref, "reference"), (conway_prim, "primitive")],
    ids=["ref", "prim"],
)
def test_a_short_conway_chain_is_one_step(run, form):
    # the empty chain is 1 and a one-entry chain its entry, each one rule or
    # one fold application; nested, the second such step trips a budget of 1
    for chain, value in (((), 1), ((1,), 1), ((7,), 7), ((10**20,), 10**20)):
        assert run(chain, B) == (
            value,
            EvalStats(steps_used=1, peak_digits=len(str(value))),
        )
    with pytest.raises(BudgetExceeded) as trip:
        evaluate(parse("conway(conway())"), form, Budget(max_steps=1))
    assert trip.value.stats == EvalStats(steps_used=1, peak_digits=1)


@pytest.mark.parametrize(
    "run, cost",
    [
        (conway_ref, _oracles.conway_1x2_ref_cost),
        (conway_prim, _oracles.conway_1x2_prim_cost),
    ],
    ids=["ref", "prim"],
)
def test_conway_1x2_costs_exactly_the_formula(run, cost):
    # 1->x->2 = 1, pinned up to x where the literal machine is slow to go
    for x in (*range(1, 41), 10**5):
        _pin_cost(run, ((1, x, 2),), cost(x), 1, len(str(x)))


def test_conway_length_3_costs_exactly_the_recurrences():
    # every chain of three entries 1..5 that both forms finish at the
    # default budget, pinned at its cost (the fold form first, whose power
    # trips at once where the rewrite form would run to its step budget)
    cases = 0
    for chain in itertools.product(range(1, 6), repeat=3):
        try:
            value = conway_prim(chain, B)[0]
            conway_ref(chain, B)
        except HyperError:
            continue
        _pin_cost(conway_ref, (chain,), _oracles.conway_ref_cost(chain), value)
        _pin_cost(conway_prim, (chain,), _oracles.conway_prim_cost(chain), value)
        cases += 1
    assert cases == 76


@pytest.mark.parametrize(
    "run, cost, constant, far",
    [
        (conway_ref, _oracles.conway_ref_cost, 0, 10**5),
        (conway_prim, _oracles.conway_prim_cost, 5, 1201),
    ],
    ids=["ref", "prim"],
)
def test_conway_2_2_r_costs_4r_and_4r_plus_5(run, cost, constant, far):
    # 2->2->r = 4, pinned up to r where the recurrence is slow to go (the
    # fold form nests r - 1 closures, at most 1,200)
    for r in (*range(1, 41), far):
        c = 4 * r + constant
        if r <= 40:
            assert cost((2, 2, r)) == c, r
        _pin_cost(run, ((2, 2, r),), c, 4, len(str(max(r, 4))))
    if run is conway_prim:
        with pytest.raises(ConstructionLimit) as limit:
            run((2, 2, far + 1), B)
        assert limit.value.stats.steps_used == 5


@pytest.mark.parametrize(
    "run, cost, tower_cost, line_cost",
    [
        (
            conway_ref,
            _oracles.conway_22qr_ref_cost,
            lambda r: 7 * 3 ** (r - 1) + 2,
            lambda r: 18 * r - 13,
        ),
        (
            conway_prim,
            _oracles.conway_22qr_prim_cost,
            lambda r: 7 * 3 ** (r - 1) + r + 9,
            lambda r: 18 * r - 4,
        ),
    ],
    ids=["ref", "prim"],
)
def test_conway_2_2_q_r_costs_exactly_the_formula(run, cost, tower_cost, line_cost):
    # 2->2->q->r = 4, pinned at every q <= 6 with r <= 5, 2->2->2->r up to
    # r = 11 (413,345 rules), and 2->2->q->2 up to q = 39 and at q = 10^4
    cases = list(itertools.product(range(1, 7), range(1, 6)))
    cases += [(2, r) for r in range(6, 12)] + [(q, 2) for q in range(7, 40)]
    for q, r in cases + [(10**4, 2)]:
        c = cost(q, r)
        if q == 2:
            assert c == tower_cost(r), r
        if r == 2:
            assert c == line_cost(q), q
        _pin_cost(run, ((2, 2, q, r),), c, 4, len(str(max(q, r, 4))))


@pytest.mark.parametrize(
    "run, cost",
    [
        (conway_ref, _oracles.conway_1pqr_ref_cost),
        (conway_prim, _oracles.conway_1pqr_prim_cost),
    ],
    ids=["ref", "prim"],
)
def test_conway_1_p_q_r_costs_exactly_the_formula(run, cost):
    # 1->p->q->r = 1, pinned at every p, q, r <= 6, and at q = 10^5
    cases = list(itertools.product(range(1, 7), repeat=3)) + [(3, 10**5, 3)]
    for p, q, r in cases:
        _pin_cost(run, ((1, p, q, r),), cost(p, q, r), 1, len(str(max(p, q, r))))


@pytest.mark.parametrize(
    "run, cost, far",
    [
        (conway_ref, _oracles.conway_1pqrs_ref_cost, {(3, 3, 10**5, 3): 1_099_999}),
        (conway_prim, _oracles.conway_1pqrs_prim_cost, {(3, 3, 10**5, 3): 1_200_011}),
    ],
    ids=["ref", "prim"],
)
def test_conway_1_p_q_r_s_costs_exactly_the_formula(run, cost, far):
    # 1->p->q->r->s = 1, pinned at every p, q, r, s <= 5, and at one far
    # chain (1->3->100000->3->3 nests 99,999 closures, a ConstructionLimit
    # in the fold form)
    for p, q, r, s in [*itertools.product(range(1, 6), repeat=4), *far]:
        c = cost(p, q, r, s)
        if (p, q, r, s) in far:
            assert c == far[p, q, r, s]
        _pin_cost(run, ((1, p, q, r, s),), c, 1, len(str(max(p, q, r, s))))


@pytest.mark.parametrize(
    "run, cost, large, first",
    [
        (
            conway_ref,
            _oracles.conway_p1qr_ref_cost,
            (3, 5 * 10**4, 3),
            [[4, 9, 14, 19], [4, 14, 34, 74], [4, 19, 64, 199]],
        ),
        (
            conway_prim,
            _oracles.conway_p1qr_prim_cost,
            (3, 10**4, 3),
            [[13, 19, 25, 31], [14, 27, 52, 101], [15, 37, 101, 291]],
        ),
    ],
    ids=["ref", "prim"],
)
def test_conway_p_1_q_r_costs_exactly_the_formula(run, cost, large, first):
    # p->1->q->r = p, pinned at every 2 <= p <= 6 with q, r <= 6, and at
    # one large q; ``first`` holds the costs for r = 1..4 at p = q = 2, 3, 4
    for p, costs in zip((2, 3, 4), first):
        assert [cost(p, p, r) for r in range(1, 5)] == costs
    cases = list(itertools.product(range(2, 7), range(1, 7), range(1, 7)))
    for p, q, r in cases + [large]:
        c = cost(p, q, r)
        if q == 1 or r == 1:
            assert c == (4 if run is conway_ref else 10 + q + r), (p, q, r)
        _pin_cost(run, ((p, 1, q, r),), c, p, len(str(max(p, q, r))))


@pytest.mark.parametrize(
    "run, cost, pins",
    [
        (conway_ref, _oracles.conway_p1qrs_ref_cost, [16, 22, 27, 26, 76, 161, 10]),
        (conway_prim, _oracles.conway_p1qrs_prim_cost, [32, 41, 46, 46, 120, 226, 23]),
    ],
    ids=["ref", "prim"],
)
def test_conway_p_1_q_r_s_costs_exactly_the_formula(run, cost, pins):
    # p->1->q->r->s = p, pinned at every 2 <= p <= 4 with q, r, s <= 5, and
    # at 5->1->5->5->5 (437,245 rules, 701,108 fold steps); ``pins`` holds
    # the costs at 2->1->2->2->2, 2->1->2->2->3, 2->1->2->3->2,
    # 3->1->2->2->2, 4->1->2->2->2, 3->1->3->3->3 and 2->1->2->2->1
    points = [(2, 2, 2, 2), (2, 2, 2, 3), (2, 2, 3, 2), (3, 2, 2, 2)]
    points += [(4, 2, 2, 2), (3, 3, 3, 3), (2, 2, 2, 1)]
    assert [cost(*point) for point in points] == pins
    cases = list(itertools.product(range(2, 5), range(1, 6), range(1, 6), range(1, 6)))
    for p, q, r, s in cases + [(5, 5, 5, 5)]:
        _pin_cost(run, ((p, 1, q, r, s),), cost(p, q, r, s), p, 1)
    assert cost(5, 5, 5, 5) == (437_245 if run is conway_ref else 701_108)


@pytest.mark.parametrize(
    "run, cost, first",
    [
        (conway_ref, _oracles.conway_2222r_ref_cost, [24, 203, 600, 1791]),
        (conway_prim, _oracles.conway_2222r_prim_cost, [36, 219, 626, 1845]),
    ],
    ids=["ref", "prim"],
)
def test_conway_2_2_2_2_r_costs_exactly_the_formula(run, cost, first):
    # 2->2->2->2->r = 4, pinned for r <= 9 (434,124 rules, 443,984 fold
    # steps)
    assert [cost(r) for r in range(1, 5)] == first
    for r in range(1, 10):
        _pin_cost(run, ((2, 2, 2, 2, r),), cost(r), 4, 1)


@pytest.mark.parametrize(
    "run, cost, first",
    [
        (conway_ref, _oracles.conway_22222r_ref_cost, [204, 1818, 5430, 16266, 48774]),
        (conway_prim, _oracles.conway_22222r_prim_cost, [223, 1879, 5585, 16701, 50047]),
    ],
    ids=["ref", "prim"],
)
def test_conway_2_2_2_2_2_r_costs_exactly_the_formula(run, cost, first):
    # 2->2->2->2->2->r = 4, pinned for r <= 8 (1,316,586 rules, 1,350,505
    # fold steps); ``first`` holds the costs measured at r = 1..5
    assert [cost(r) for r in range(1, 6)] == first
    for r in range(1, 9):
        _pin_cost(run, ((2, 2, 2, 2, 2, r),), cost(r), 4, 1)


@pytest.mark.parametrize(
    "run, cost, line, pins",
    [
        (
            conway_ref,
            _oracles.conway_22qrs_ref_cost,
            lambda q: 190 * q - 177,
            [13, 203, 570, 1_126, 2_318, 82_326],
        ),
        (
            conway_prim,
            _oracles.conway_22qrs_prim_cost,
            lambda q: 190 * q - 161,
            [29, 219, 585, 1_625, 2_357, 82_825],
        ),
    ],
    ids=["ref", "prim"],
)
def test_conway_2_2_q_r_s_costs_exactly_the_formula(run, cost, line, pins):
    # 2->2->q->r->s = 4, pinned at every q, r, s <= 5, and at four far
    # chains; ``pins`` holds the costs at (q, r, s) = (1, 2, 2), (2, 2, 2),
    # (2, 5, 1), (1, 5, 5), (3, 3, 3) and (5, 5, 5).  In the reference form
    # the dropped last 1 costs one rule more than 2->2->q->r, and q = r = 2
    # is 2->2->2->2->s
    points = [(1, 2, 2), (2, 2, 2), (2, 5, 1), (1, 5, 5), (3, 3, 3), (5, 5, 5)]
    assert [cost(*point) for point in points] == pins
    far = {
        (1000, 2, 2): (189_823, 189_839),
        (1000, 3, 2): (375_644, 375_664),
        (300, 2, 3): (169_268, 169_294),
        (6, 6, 6): (384_911, 386_747),
    }
    reference = run is conway_ref
    for q, r, s in [*itertools.product(range(1, 6), repeat=3), *far]:
        c = cost(q, r, s)
        if (q, r, s) in far:
            assert c == far[q, r, s][0 if reference else 1]
        if r == s == 2:
            assert c == line(q), q
        if reference and s == 1:
            assert c == _oracles.conway_22qr_ref_cost(q, r) + 1
        if reference and q == r == 2:
            assert c == _oracles.conway_2222r_ref_cost(s)
        _pin_cost(run, ((2, 2, q, r, s),), c, 4, len(str(max(q, r, s, 4))))


def test_ack_magnitude_trip_point_follows_the_value_formula():
    # A(3, n) = 2^(n+3) - 3, and A(4, 1) = A(3, 13), is the largest value
    # held, so a cap of its digit count finishes and one digit lower trips
    far = 10**40  # steps; C(3, 60) has 38 digits
    cases = [(ack_ref, 3, n, far) for n in range(61)]
    cases += [(ack_prim, 3, n, B.max_steps) for n in range(9)]
    cases += [(ack_ref, 4, 1, far)]
    for run, m, n, max_steps in cases:
        value = 2 ** (n + 3) - 3 if m == 3 else 2**16 - 3
        digits = len(str(value))
        got, stats = run(m, n, Budget(max_steps, digits))
        assert (got, stats.peak_digits) == (value, digits), (run, m, n)
        if digits > 1:
            with pytest.raises(MagnitudeExceeded):
                run(m, n, Budget(max_steps, digits - 1))


# --- cross-cutting budget behavior ----------------------------------------


def test_stats_respect_budget_invariants():
    for value, stats in (
        ack_ref(3, 5, B),
        ack_prim(2, 7, B),
        knuth_ref(3, 2, 3, B),
        conway_prim((2, 2, 2, 2), B),
    ):
        assert stats.steps_used <= B.max_steps
        assert stats.peak_digits <= B.max_digits
        assert value >= 0


def _prim(text, budget):
    return evaluate(parse(text), "primitive", budget)


#: (call, arguments, budget, (value or trip, steps_used, peak_digits)): the
#: exact accounting of the fold forms, which a rewrite of them must keep; the
#: first twelve are the benchmark's fold_towers items (benchmark/record.json)
PRIMITIVE_ACCOUNTING = [
    (_prim, ("ack(3,5)",), B, (253, 21346, 3)),
    (_prim, ("ack(3,6)",), B, (509, 86371, 3)),
    (_prim, ("ack(3,7)",), B, (1021, 347492, 4)),
    (_prim, ("ack(3,8)",), B, (2045, 1394021, 4)),
    (_prim, ("ack(4,1)",), Budget(max_steps=10**5), (BudgetExceeded, 10**5, 3)),
    (_prim, ("ack(4,1)",), Budget(max_steps=3 * 10**5), (BudgetExceeded, 3 * 10**5, 3)),
    (_prim, ("knuth(2,2,5)",), B, (2**65536, 65567, 19729)),
    (_prim, ("knuth(3,2,3)",), B, (7625597484987, 37, 13)),
    (_prim, ("3->3->2",), B, (7625597484987, 24, 13)),
    (_prim, ("2->3->2",), B, (16, 18, 2)),
    (_prim, ("2->4->2",), B, (65536, 25, 5)),
    (_prim, ("3->2->2",), B, (27, 14, 2)),
    # cpow charges its multiplies only, never a generator step
    (cpow, (0, 0), B, (1, 0, 1)),
    (cpow, (2, 1), B, (8, 3, 1)),
    (cpow, (1, 2), B, (9, 2, 1)),
    (cpow, (40, 40), B, (41**41, 8, 67)),
    (cpow, (99999, 1), B, (2**100000, 22, 30103)),
    # a power trips exactly where its value reaches the cap: 2**332192 has
    # 100,000 digits, 2**332193 one more
    (cpow, (332191, 1), B, (2**332192, 24, 100000)),
    (cpow, (332192, 1), B, (MagnitudeExceeded, 0, 6)),
    (cpow, (40, 40), Budget(max_steps=5), (BudgetExceeded, 5, 15)),
    (cpow, (3, 2), Budget(max_steps=10, max_digits=1), (MagnitudeExceeded, 0, 1)),
    (cback_prim, ((), 0, 0), B, (1, 1, 1)),
    (cback_prim, ((), 2, 1), B, (8, 4, 1)),
    (cback_prim, ((1,), 1, 1), B, (4, 10, 1)),
    (cback_prim, ((1, 1), 1, 1), B, (4, 28, 1)),
    (cback_prim, ((0, 2), 1, 2), B, (3, 23, 1)),
    (cback_prim, ((2,), 2, 1), B, (7625597484987, 25, 13)),
    (cback_prim, ((1, 1, 1), 2, 1), Budget(max_steps=10**4), (4, 621, 1)),
    (cback_prim, ((1,), 1, 1), Budget(max_steps=5), (BudgetExceeded, 5, 1)),
    (cback_prim, ((2,), 2, 2), B, (MagnitudeExceeded, 45, 13)),
    # 2->3->3 = 65536 has 5 digits, so a 5-digit cap admits it
    (
        cback_prim,
        ((1,), 2, 2),
        Budget(max_steps=10**7, max_digits=5),
        (65536, 33, 5),
    ),
    # the carrier's own depth guard, step trips inside a carrier's layer,
    # and the deepest carrier
    (cback_prim, ((1,), 1201, 0), B, (ConstructionLimit, 2, 4)),
    (cback_prim, ((1,), 1200, 0), Budget(max_steps=50), (BudgetExceeded, 50, 4)),
    # (a list tail: as a tuple it would make the digit trip's call below,
    # and both ids would change)
    (cback_prim, ([2], 2, 2), Budget(max_steps=30), (BudgetExceeded, 30, 13)),
    (
        cback_prim,
        ((1, 1), 2, 1),
        Budget(max_steps=40, max_digits=2),
        (BudgetExceeded, 40, 1),
    ),
    (cback_prim, ((1,), 1200, 1), B, (4, 4806, 4)),
    # the depth guard comes before the subtract-one pass is charged
    (conway_prim, ((2,) * 1201,), Budget(max_steps=10), (ConstructionLimit, 0, 1)),
]


def _accounting_ids(cases):
    """Each case by its call, and by its budget's steps and digits too when
    another case makes the same call, so that no id is numbered by its
    place in the list."""
    names = [f"{fn.__name__}{args!r:.40}" for fn, args, _, _ in cases]
    return [
        name
        if names.count(name) == 1
        else f"{name}-steps={budget.max_steps}-digits={budget.max_digits}"
        for name, (_, _, budget, _) in zip(names, cases)
    ]


@pytest.mark.parametrize(
    "fn, args, budget, want",
    PRIMITIVE_ACCOUNTING,
    ids=_accounting_ids(PRIMITIVE_ACCOUNTING),
)
def test_primitive_accounting_is_exact(fn, args, budget, want):
    assert _accounting(fn, args, budget) == want


#: one deep call of every public evaluator, by test id; every fold form
#: raises the recursion limit while it runs
DEEP_CALLS = {
    "ack_ref": (ack_ref, (4, 1)),
    "ack_prim": (ack_prim, (1100, 0)),
    "knuth_ref": (knuth_ref, (3, 3, 3)),
    "knuth_prim": (knuth_prim, (2, 1100, 1)),
    "conway_ref": (conway_ref, ((3, 3, 3),)),
    "conway_prim": (conway_prim, ((2,) * 1100,)),
    "cback_prim": (cback_prim, ((1,) * 1100, 1, 1)),
    "cback_prim-deepest-carrier": (cback_prim, ((1,), 1200, 1)),
    "cpow": (cpow, (99999, 1)),
}


@pytest.mark.parametrize("fn, args", DEEP_CALLS.values(), ids=list(DEEP_CALLS))
def test_public_evaluators_leave_interpreter_limits_unchanged(fn, args):
    caller_limit = sys.getrecursionlimit()
    caller_cap = sys.get_int_max_str_digits()
    sys.setrecursionlimit(2000)
    sys.set_int_max_str_digits(4300)
    try:
        try:
            fn(*args, Budget(max_steps=10**5))
        except HyperError:
            pass
        assert sys.getrecursionlimit() == 2000
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(caller_cap)
        sys.setrecursionlimit(caller_limit)


def test_unbounded_nesting_is_a_construction_limit():
    # past every per-dimension guard, a RecursionError becomes the typed
    # limit, with the steps spent so far, and the caller's limit comes back
    def descend(meter):
        meter.spend()
        return descend(meter)

    caller_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(2000)
    try:
        with pytest.raises(ConstructionLimit) as trip:
            run_budgeted(descend, budget=Budget(max_steps=10**9))
        assert sys.getrecursionlimit() == 2000
    finally:
        sys.setrecursionlimit(caller_limit)
    assert trip.value.kind == "construction"
    assert str(trip.value) == "evaluation exceeded the safe nesting depth"
    assert trip.value.stats.steps_used > 0
    assert trip.value.__suppress_context__
    assert isinstance(trip.value.__context__, RecursionError)


def test_a_value_too_large_for_an_int_is_a_construction_limit():
    # each outcome needs an int of more than 10**288 bits, and CPython
    # refuses one at once with OverflowError: the float estimate of a
    # multiply run's trip point (Knuth), or the shift of a power of two
    # (power, Conway); either ends as running out of memory does
    huge = 10**321
    cases = [
        (knuth_ref, (3, 1, huge), 10**320, 0),
        (knuth_prim, (3, 1, huge), 10**320, 2),
        (cpow, (huge, 1), 10**322, 0),
        (conway_ref, ((2, huge),), 10**322, 0),
        (conway_prim, ((2, huge),), 10**322, 3),
    ]
    for run, args, max_digits, steps in cases:
        with pytest.raises(ConstructionLimit) as limit:
            run(*args, Budget(10**330, max_digits))
        assert limit.value.detail == "evaluation ran out of memory"
        assert limit.value.stats == EvalStats(steps, 322), run
        assert limit.value.__context__ is None


def test_cback_longer_tails_match_front_end_reduction():
    # cfront of a written chain [a, b, c, d] hands the back end
    # (reversed reduced tail, q, p) = ([b-1, a-1], d-1, c-1)
    for chain in [(2, 2, 2, 2), (3, 2, 2, 1), (2, 1, 2, 2), (3, 1, 1, 3)]:
        a, b, c, d = chain
        want = conway_prim(chain, B)[0]
        got = cback_prim([b - 1, a - 1], d - 1, c - 1, B)[0]
        assert got == want == _oracles.conway(chain), chain


def test_concurrent_evaluations_are_isolated():
    import concurrent.futures

    def job(seed):
        out = []
        out.append(ack_ref(3, 3 + (seed % 3), B)[0])
        out.append(ack_prim(2, seed % 10, B)[0])
        out.append(conway_prim((2, 2, 2, 2), B)[0])
        out.append(knuth_prim(2, 2, 3 + (seed % 2), B)[0])
        return out

    expected = {seed: job(seed) for seed in range(8)}
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        futures = {seed: pool.submit(job, seed) for seed in range(8)}
        for seed, fut in futures.items():
            assert fut.result() == expected[seed]


def test_concurrent_deep_fold_forms_keep_the_raised_recursion_limit():
    # the recursion limit is process-wide: a shallow evaluation that ends
    # must not restore the caller's limit under a deep one still running
    import concurrent.futures

    def deep():
        return [knuth_prim(2, 1100, 1, B)[0] for _ in range(40)]

    def shallow():
        return [ack_prim(2, 3, B)[0] for _ in range(400)]

    caller_limit = sys.getrecursionlimit()
    switch_interval = sys.getswitchinterval()
    sys.setrecursionlimit(2000)
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(fn) for fn in (deep, shallow, deep, shallow)]
            done, _ = concurrent.futures.wait(futures, timeout=60)
            assert len(done) == 4
            results = [fut.result() for fut in futures]
        assert sys.getrecursionlimit() == 2000
    finally:
        sys.setswitchinterval(switch_interval)
        sys.setrecursionlimit(caller_limit)
    assert results == [[2] * 40, [9] * 400] * 2
