import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfold import folds
from hyperfold.budget import ConstructionLimit
from hyperfold.folds import (
    ChurchNat,
    church_fold,
    church_from_natural,
    church_succ,
    church_to_natural,
    church_zero,
    foldn,
    foldr_seq,
)

# generators sampled throughout: simple integer endofunctions with a knob
step_families = st.sampled_from(
    [
        ("+1", lambda k: lambda x: x + 1),
        ("+k", lambda k: lambda x: x + k),
        ("*2", lambda k: lambda x: 2 * x),
        ("*3", lambda k: lambda x: 3 * x),
    ]
)


@st.composite
def generators(draw):
    _, family = draw(step_families)
    k = draw(st.integers(min_value=1, max_value=9))
    return family(k)


def test_foldn_rejects_negative_index():
    with pytest.raises(ValueError):
        foldn(lambda x: x, 0, -1)


def test_foldn_index_is_any_int():
    class Stop(Exception):
        pass

    calls = []

    def step(x):
        calls.append(x)
        if len(calls) == 3:
            raise Stop
        return x + 1

    # an index past sys.maxsize runs until its step stops it
    with pytest.raises(Stop):
        foldn(step, 0, 10**30)
    assert calls == [0, 1, 2]
    with pytest.raises(TypeError):
        foldn(step, 0, 2.5)
    with pytest.raises(ValueError):
        foldn(step, 0, -(10**30))
    assert len(calls) == 3


def test_foldn_runs_a_steps_iterate():
    # fold fusion: a step that carries iterate(v, c) is never applied; its
    # index is checked as on the loop, before iterate is called
    applied, iterated = [], []

    def step(x):
        applied.append(x)
        return x + 1

    def iterate(v, c):
        iterated.append((v, c))
        return v + c

    step.iterate = iterate
    assert foldn(step, 5, 7) == 12
    assert foldn(step, 5, 0) == 5
    with pytest.raises(ValueError):
        foldn(step, 0, -1)
    with pytest.raises(TypeError):
        foldn(step, 0, 2.5)
    assert (applied, iterated) == ([], [(5, 7), (5, 0)])


def test_foldr_does_not_mutate_input():
    xs = [3, 1, 2]
    foldr_seq(lambda x, acc: acc + [x], [], xs)
    assert xs == [3, 1, 2]


@settings(max_examples=150)
@given(generators(), st.integers(min_value=0, max_value=5), st.integers(1, 200))
def test_foldn_universal_property_forward(g, e, n):
    assert foldn(g, e, 0) == e
    assert foldn(g, e, n) == g(foldn(g, e, n - 1))


@settings(max_examples=120)
@given(
    st.integers(-9, 9),
    st.lists(st.integers(-9, 9), max_size=50),
    st.integers(-9, 9),
)
def test_foldr_recurrence(x, xs, base):
    step = lambda a, acc: 3 * a - acc
    assert foldr_seq(step, base, [x] + xs) == step(x, foldr_seq(step, base, xs))


def test_foldn_step_count_is_exact():
    calls = []
    for n in (0, 1, 5, 321, 4096):
        calls.clear()
        result = foldn(lambda c: (calls.append(None), c + 1)[1], 0, n)
        assert result == n
        assert len(calls) == n


# --- Church numerals ------------------------------------------------------


@settings(max_examples=100)
@given(st.integers(0, 10**4))
def test_church_round_trip_sampled(n):
    assert church_to_natural(church_from_natural(n)) == n


def test_church_construction_depth_counts_steps():
    # depth n must mean exactly n step applications, on a counter carrier
    for n in (0, 1, 2, 77):
        counted = []
        value = church_from_natural(n).apply(
            lambda c: (counted.append(None), c + 1)[1], 0
        )
        assert value == n
        assert len(counted) == n


def test_church_fold_examples():
    assert church_fold(lambda x: x + 3, 1, church_from_natural(4)) == 13
    sentinel = object()
    assert church_fold(lambda x: x, sentinel, church_zero()) is sentinel
    assert church_fold(lambda x: 2 * x, 1, church_from_natural(10)) == foldn(
        lambda x: 2 * x, 1, 10
    )


@settings(max_examples=150)
@given(generators(), st.integers(0, 5), st.integers(0, 500))
def test_fold_equivalence_law(g, e, n):
    assert church_fold(g, e, church_from_natural(n)) == foldn(g, e, n)


def test_church_construction_cap(monkeypatch):
    monkeypatch.setattr(folds, "DEFAULT_CHURCH_CAP", 100)
    with pytest.raises(ConstructionLimit):
        church_from_natural(101)
    assert church_to_natural(church_from_natural(100)) == 100


def test_church_rejects_negative():
    with pytest.raises(ValueError):
        church_from_natural(-1)


def test_church_is_immutable():
    numeral = church_from_natural(3)
    with pytest.raises(AttributeError):
        numeral._pred = None


def test_church_deep_numeral_does_not_recurse():
    # apply walks iteratively; a 200k-deep numeral must not blow the stack
    big = church_from_natural(200_000)
    assert church_to_natural(big) == 200_000


def test_church_nat_type():
    assert isinstance(church_succ(church_zero()), ChurchNat)
