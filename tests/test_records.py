"""Pins for the package's eight immutable value classes.

``Budget`` and ``EvalStats`` (budget), the five syntax nodes (notation) and
``cli.Config`` are values: built by keyword or position with defaults,
equal and hashed by their fields and class, read-only, printed by field,
matched by class patterns, and copied or pickled whole.  Budget's checks
on its limits are pinned in test_budget.py.
"""

import copy
import pickle

import pytest

from hyperfold import cli
from hyperfold.budget import Budget, EvalStats
from hyperfold.notation import Ack, ChainE, ConwayCall, Knuth, NatLit

ONE, TWO, THREE = NatLit(1), NatLit(2), NatLit(3)

#: (class, positional field values, the same values by keyword)
SAMPLES = [
    (Budget, (5, 6), {"max_steps": 5, "max_digits": 6}),
    (EvalStats, (3, 2), {"steps_used": 3, "peak_digits": 2}),
    (NatLit, (7,), {"value": 7}),
    (Ack, (ONE, TWO), {"m": ONE, "n": TWO}),
    (Knuth, (TWO, ONE, THREE), {"a": TWO, "level": ONE, "b": THREE}),
    (ChainE, ((ONE, TWO),), {"items": (ONE, TWO)}),
    (ConwayCall, ((ONE, TWO),), {"items": (ONE, TWO)}),
    (
        cli.Config,
        ("reference", 5, 6, True),
        {"form": "reference", "max_steps": 5, "max_digits": 6, "quiet": True},
    ),
]

_IDS = [sample[0].__name__ for sample in SAMPLES]


@pytest.mark.parametrize("cls, args, kwargs", SAMPLES, ids=_IDS)
def test_keyword_and_positional_construction(cls, args, kwargs):
    by_position = cls(*args)
    by_keyword = cls(**kwargs)
    assert by_position == by_keyword
    for name, value in kwargs.items():
        assert getattr(by_position, name) == value
    with pytest.raises(TypeError):
        cls(*args, 0)
    with pytest.raises(TypeError):
        cls(*args, unknown=0)


def test_defaults():
    assert (Budget().max_steps, Budget().max_digits) == (10**7, 10**5)
    assert Budget(max_digits=9) == Budget(10**7, 9)
    assert EvalStats() == EvalStats(0, 0)
    assert EvalStats(peak_digits=4) == EvalStats(0, 4)
    config = cli.Config()
    assert (config.form, config.max_steps, config.max_digits, config.quiet) == (
        "both",
        10**7,
        10**5,
        False,
    )
    assert ConwayCall(()).items == ()
    for cls in (NatLit, Ack, Knuth, ChainE, ConwayCall):
        with pytest.raises(TypeError):
            cls()


def test_budget_defaults_are_read_on_the_class():
    # cli takes its flag defaults from the class itself
    assert Budget.max_steps == 10**7
    assert Budget.max_digits == 10**5


@pytest.mark.parametrize("cls, args, kwargs", SAMPLES, ids=_IDS)
def test_equality_and_hash_follow_the_fields(cls, args, kwargs):
    value = cls(*args)
    twin = cls(**kwargs)
    assert value == twin and not value != twin
    assert hash(value) == hash(twin)
    assert len({value, twin}) == 1
    assert value != args
    assert value != object()


def test_equality_needs_the_same_class():
    items = (ONE, TWO)
    assert ChainE(items) != ConwayCall(items)
    assert len({ChainE(items), ConwayCall(items)}) == 2
    assert NatLit(1) != EvalStats(1)
    assert Budget(3, 4) != EvalStats(3, 4)
    assert Ack(ONE, TWO) != Ack(TWO, ONE)
    assert Knuth(TWO, ONE, THREE) != Knuth(TWO, TWO, THREE)


@pytest.mark.parametrize("cls, args, kwargs", SAMPLES, ids=_IDS)
def test_fields_are_read_only(cls, args, kwargs):
    value = cls(*args)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) == kwargs[name]
    with pytest.raises(AttributeError):
        value.extra = 0


def test_repr_names_every_field():
    assert repr(EvalStats(steps_used=3, peak_digits=2)) == (
        "EvalStats(steps_used=3, peak_digits=2)"
    )
    assert repr(Budget()) == "Budget(max_steps=10000000, max_digits=100000)"
    assert repr(NatLit(7)) == "NatLit(value=7)"
    assert repr(Ack(ONE, TWO)) == "Ack(m=NatLit(value=1), n=NatLit(value=2))"
    assert repr(Knuth(TWO, ONE, THREE)) == (
        "Knuth(a=NatLit(value=2), level=NatLit(value=1), b=NatLit(value=3))"
    )
    assert repr(ChainE((ONE, TWO))) == (
        "ChainE(items=(NatLit(value=1), NatLit(value=2)))"
    )
    assert repr(ConwayCall(())) == "ConwayCall(items=())"
    assert repr(cli.Config()) == (
        "Config(form='both', max_steps=10000000, max_digits=100000, quiet=False)"
    )


def _shape(value):
    match value:
        case Budget(steps, digits):
            return ("budget", steps, digits)
        case EvalStats(steps, digits):
            return ("stats", steps, digits)
        case NatLit(v):
            return ("nat", v)
        case Ack(m, n):
            return ("ack", m, n)
        case Knuth(a, level, b):
            return ("knuth", a, level, b)
        case ChainE(items):
            return ("chain", items)
        case ConwayCall(items):
            return ("conway", items)
        case cli.Config(form, steps, digits, quiet):
            return ("config", form, steps, digits, quiet)
    return None


@pytest.mark.parametrize("cls, args, kwargs", SAMPLES, ids=_IDS)
def test_class_patterns_bind_the_fields_in_order(cls, args, kwargs):
    assert cls.__match_args__ == tuple(kwargs)
    assert _shape(cls(*args))[1:] == args


def test_chain_needs_two_items():
    with pytest.raises(ValueError):
        ChainE((ONE,))
    with pytest.raises(ValueError):
        ChainE(())


@pytest.mark.parametrize("cls, args, kwargs", SAMPLES, ids=_IDS)
def test_pickle_and_copies_round_trip(cls, args, kwargs):
    value = cls(*args)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(value, protocol))
        assert type(again) is cls and again == value
        assert hash(again) == hash(value)
    for clone in (copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is cls and clone == value
        with pytest.raises(AttributeError):
            setattr(clone, next(iter(kwargs)), 0)
