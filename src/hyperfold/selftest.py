"""Built-in verification suites behind ``hyperfold selftest``.

The suites are one catalogue, :data:`LAWS`, that holds each law once as
data: a :class:`Law` has a name, a level, its cases and a check that runs
one case under a budget.  ``quick`` replays the worked example tables;
``full`` adds the property grids: pointwise agreement of the rewrite and
fold forms, the defining recurrences checked on the fold forms, chain
collapse laws, the chain/arrow correspondence on length-3 chains, the fold
laws, budget monotonicity and determinism, parser round trips, and the
ack/knuth bridge identity.

Checks compare against inline constants and against the package's own
dual evaluation.  The pytest suite runs the same catalogue
(``tests/test_laws.py`` and the acceptance criteria) and compares every
value a law yields with an independent naive-recursion oracle.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, NamedTuple

from . import notation
from .budget import (
    DEFAULT_BUDGET,
    Budget,
    BudgetExceeded,
    HyperError,
    MagnitudeExceeded,
)
from .folds import (
    church_fold,
    church_from_natural,
    church_succ,
    church_to_natural,
    church_zero,
    foldn,
    foldr_seq,
)
from .hyperops import (
    ack_prim,
    ack_ref,
    cback_prim,
    conway_prim,
    conway_ref,
    cpow,
    knuth_prim,
    knuth_ref,
)
from .notation import Ack, ChainE, ConwayCall, Knuth, NatLit, ParseError, parse, render

#: ack(4,1) needs 2,862,984,010 equation applications; the default budget
#: cannot reach it, so the bridge identity's heavy point runs under this one
EXPANDED_STEPS = 10**10
ACK_4_1_STEPS = 2_862_984_010

QUICK = "quick"
FULL = "full"


class Law(NamedTuple):
    """A law and the cases it is checked on.

    ``check(case, budget)`` raises ``AssertionError`` or a ``HyperError``
    when the law fails on ``case``; otherwise it returns the value it
    computed, ``None`` where every form tripped a limit.
    """

    name: str
    level: str
    cases: tuple
    check: Callable[[object, Budget], object]


_LAWS: list[Law] = []


def _law(name: str, cases, level: str = FULL):
    """Catalogue the decorated function as the check of the law ``name``."""

    def register(check):
        _LAWS.append(Law(name, level, tuple(cases), check))
        return check

    return register


def _expect(got, want):
    # raised, not asserted, so that ``python -O`` keeps the checks
    if got != want:
        raise AssertionError(f"got {got!r}, want {want!r}")
    return got


def _agree(first, second, budget: Budget):
    """The value both chain evaluations produce, or None when both trip a
    limit.  They run under at most 10^6 steps: 3->3->3 is infeasible under
    any run-sized budget, 10^6 steps keeps its trip quick, and every
    feasible chain of the tables finishes in far fewer (budget
    monotonicity)."""
    budget = Budget(min(budget.max_steps, 10**6), budget.max_digits)
    try:
        first_value = first(budget)[0]
    except (BudgetExceeded, MagnitudeExceeded):
        first_value = None
    try:
        second_value = second(budget)[0]
    except (BudgetExceeded, MagnitudeExceeded):
        second_value = None
    if (first_value is None) != (second_value is None):
        raise AssertionError(
            f"one tripped a limit, the other produced "
            f"{first_value if second_value is None else second_value}"
        )
    return _expect(second_value, first_value)


#: the public calls a case can name, each run as ``fn(*args, budget)``
_CALLS = {
    **{fn.__name__: fn for fn in (ack_ref, ack_prim, knuth_ref, knuth_prim)},
    **{fn.__name__: fn for fn in (conway_ref, conway_prim, cback_prim, cpow)},
    "evaluate": lambda text, form, b: notation.evaluate(parse(text), form, b),
}


def _call(name: str, args: tuple, budget: Budget):
    return _CALLS[name](*args, budget)


# --- quick: the worked example tables --------------------------------------

#: worked values of the public calls, by law: (call name, arguments, value)
_WORKED = {
    "ack-values": [
        ("ack_ref", (0, 5), 6),
        ("ack_ref", (1, 1), 3),
        ("ack_ref", (2, 3), 9),
        ("ack_ref", (3, 3), 61),
        ("ack_prim", (0, 9), 10),
        ("ack_prim", (2, 0), 3),
        ("ack_prim", (3, 3), 61),
    ],
    "knuth-values": [
        ("knuth_ref", (0, 0, 5), 0),
        ("knuth_ref", (2, 0, 3), 6),
        ("knuth_ref", (2, 2, 3), 16),
        ("knuth_ref", (5, 3, 0), 1),
        ("knuth_ref", (3, 2, 3), 7625597484987),
        ("knuth_prim", (2, 2, 3), 16),
        ("knuth_prim", (7, 4, 0), 1),
        ("knuth_prim", (3, 1, 4), 81),
    ],
    "conway-values": [
        ("conway_ref", ((),), 1),
        ("conway_ref", ((7,),), 7),
        ("conway_ref", ((2, 3),), 8),
        ("conway_ref", ((2, 2, 2),), 4),
        ("conway_ref", ((3, 3, 2),), 7625597484987),
        ("conway_prim", ((4, 1, 5),), 4),
        ("conway_prim", ((2, 2, 2),), 4),
        ("conway_prim", ((5, 2),), 25),
    ],
    "back-end-values": [
        ("cpow", (0, 0), 1),
        ("cpow", (2, 1), 8),
        ("cpow", (1, 2), 9),
        ("cback_prim", ((), 2, 1), 8),
        ("cback_prim", ((), 0, 0), 1),
        # the front end reduces the chain 2->2->2 to exactly this call
        ("cback_prim", ((1,), 1, 1), 4),
        ("cback_prim", ((2,), 2, 1), 7625597484987),
    ],
    "evaluate-values": [
        ("evaluate", ("2->3", "both"), 8),
        ("evaluate", ("ack(3,3)", "both"), 61),
        ("evaluate", ("conway()", "both"), 1),
        ("evaluate", ("2^^4", "both"), 65536),
    ],
}


def _worked_value(case, budget):
    call, args, want = case
    return _expect(_call(call, args, budget)[0], want)


for _name, _rows in _WORKED.items():
    _law(_name, _rows, QUICK)(_worked_value)


#: worked values of the folds and Church numerals: label, thunk, value
_FOLD_VALUES = {
    "foldn (+1) 0 0": (lambda: foldn(lambda x: x + 1, 0, 0), 0),
    "foldn (+2) 1 3": (lambda: foldn(lambda x: x + 2, 1, 3), 7),
    "foldn (*2) 1 10": (lambda: foldn(lambda x: 2 * x, 1, 10), 1024),
    "foldr count 0 []": (lambda: foldr_seq(lambda _, acc: acc + 1, 0, []), 0),
    "foldr (+) 0 [1,2,3]": (lambda: foldr_seq(lambda x, a: x + a, 0, [1, 2, 3]), 6),
    # right association: 1 - (2 - 10)
    "foldr (-) 10 [1,2]": (lambda: foldr_seq(lambda x, a: x - a, 10, [1, 2]), 9),
    "church zero": (lambda: church_zero().apply(lambda x: x + 1, 0), 0),
    "church one": (lambda: church_succ(church_zero()).apply(lambda x: x + 1, 0), 1),
    "church two on strings": (
        lambda: church_succ(church_succ(church_zero())).apply(lambda t: t + "I", ""),
        "II",
    ),
    "church round trip 42": (lambda: church_to_natural(church_from_natural(42)), 42),
    "church succ 41": (
        lambda: church_to_natural(church_succ(church_from_natural(41))),
        42,
    ),
    "church fold (+3) 1 4": (
        lambda: church_fold(lambda x: x + 3, 1, church_from_natural(4)),
        13,
    ),
    "church fold (*2) 1 10": (
        lambda: church_fold(lambda x: 2 * x, 1, church_from_natural(10)),
        1024,
    ),
}


@_law("fold-values", _FOLD_VALUES, QUICK)
def _fold_value(label, _budget):
    compute, want = _FOLD_VALUES[label]
    return _expect(compute(), want)


def _chain(*entries: int) -> ChainE:
    return ChainE(tuple(NatLit(e) for e in entries))


@_law(
    "parse-render-values",
    [
        ("3->3->2", _chain(3, 3, 2), "3->3->2"),
        ("2^^3", Knuth(NatLit(2), NatLit(2), NatLit(3)), "2^^3"),
        ("2^3", Knuth(NatLit(2), NatLit(1), NatLit(3)), "2^3"),
        ("ack(2, (1->1))", Ack(NatLit(2), _chain(1, 1)), "ack(2,1->1)"),
        ("knuth(2,0,3)", Knuth(NatLit(2), NatLit(0), NatLit(3)), "knuth(2,0,3)"),
        ("conway(7)", ConwayCall((NatLit(7),)), "conway(7)"),
        ("3->", 3, None),
        ("3->->2", 3, None),
    ],
    QUICK,
)
def _parse_render_value(case, _budget):
    # a text, the tree it parses to and that tree's rendering; a text that
    # must not parse has the offset of its error in place of the tree
    text, want, rendered = case
    try:
        tree = parse(text)
    except ParseError as exc:
        return _expect(exc.pos.offset, want)
    _expect(tree, want)
    return _expect(render(tree), rendered)


# --- full: the property grids ----------------------------------------------

#: integer endofunctions with a knob k, sampled by the fold laws
_STEPS = {
    "+1": lambda _k: lambda x: x + 1,
    "+k": lambda k: lambda x: x + k,
    "*2": lambda _k: lambda x: 2 * x,
    "*3": lambda _k: lambda x: 3 * x,
}
_rng = random.Random(0x5EED)


@_law(
    "foldn-universal-property",
    itertools.product(_STEPS, (1, 2, 5, 8), (0, 1, 5), (*range(12), 50, 123, 200)),
)
def _foldn_universal(case, _budget):
    # foldn g e 0 = e and foldn g e (n+1) = g (foldn g e n)
    step, k, e, n = case
    g = _STEPS[step](k)
    if n == 0:
        return _expect(foldn(g, e, 0), e)
    return _expect(foldn(g, e, n), g(foldn(g, e, n - 1)))


def _foldr_step(x: int, acc: int) -> int:
    return 3 * x - acc


@_law(
    "foldr-recurrence",
    [
        (
            _rng.randrange(-9, 10),
            tuple(_rng.randrange(-9, 10) for _ in range(_rng.randrange(50))),
        )
        for _ in range(120)
    ],
)
def _foldr_recurrence(case, _budget):
    x, xs = case
    rest = foldr_seq(_foldr_step, 7, xs)
    return _expect(foldr_seq(_foldr_step, 7, (x,) + xs), _foldr_step(x, rest))


@_law(
    "church-round-trip",
    [*range(300), *(_rng.randrange(10**4 + 1) for _ in range(40)), 10**4],
)
def _church_round_trip(n, _budget):
    return _expect(church_to_natural(church_from_natural(n)), n)


@_law(
    "fold-equivalence",
    [
        (
            _rng.choice(tuple(_STEPS)),
            _rng.randrange(1, 9),
            _rng.randrange(6),
            _rng.randrange(501),
        )
        for _ in range(120)
    ],
)
def _fold_equivalence(case, _budget):
    step, k, e, n = case
    g = _STEPS[step](k)
    return _expect(church_fold(g, e, church_from_natural(n)), foldn(g, e, n))


@_law("fold-step-counts", [0, 1, 2, 17, 255, 4096])
def _fold_step_count(n, _budget):
    _expect(foldn(lambda c: c + 1, 0, n), n)
    return _expect(church_fold(lambda c: c + 1, 0, church_from_natural(n)), n)


@_law("ack-agreement", itertools.product(range(4), range(6)))
def _ack_agreement(case, budget):
    m, n = case
    return _expect(ack_prim(m, n, budget)[0], ack_ref(m, n, budget)[0])


@_law(
    "knuth-agreement",
    [*itertools.product(range(4), range(3), range(4)), (2, 3, 2), (2, 2, 4)],
)
def _knuth_agreement(case, budget):
    a, n, b = case
    return _expect(knuth_prim(a, n, b, budget)[0], knuth_ref(a, n, b, budget)[0])


_SMALL_CHAINS = [c for ln in range(4) for c in itertools.product((1, 2, 3), repeat=ln)]


@_law("conway-agreement", [*_SMALL_CHAINS, (2, 2, 2, 2), (4, 1, 5)])
def _conway_agreement(chain, budget):
    return _agree(
        lambda bb: conway_ref(chain, bb), lambda bb: conway_prim(chain, bb), budget
    )


@_law(
    "ack-recurrences",
    [*itertools.product((1, 2), range(31)), *itertools.product((3,), range(5))],
)
def _ack_recurrence(case, budget):
    # ack(m, 0) = ack(m-1, 1) and ack(m, n) = ack(m-1, ack(m, n-1))
    m, n = case
    inner = 1 if n == 0 else ack_prim(m, n - 1, budget)[0]
    return _expect(ack_prim(m, n, budget)[0], ack_prim(m - 1, inner, budget)[0])


@_law(
    "knuth-recurrences",
    [
        *itertools.product(range(10), (1,), range(13)),
        *itertools.product(range(4), (2,), range(4)),
    ],
)
def _knuth_recurrence(case, budget):
    # a ^(n) 0 = 1 and a ^(n) b = a ^(n-1) (a ^(n) (b-1)) for n >= 1
    a, n, b = case
    value = knuth_prim(a, n, b, budget)[0]
    if b == 0:
        return _expect(value, 1)
    inner = knuth_prim(a, n, b - 1, budget)[0]
    return _expect(value, knuth_prim(a, n - 1, inner, budget)[0])


@_law(
    "chain-collapse",
    [
        pair
        for x in _SMALL_CHAINS
        if len(x) <= 2
        for p in (1, 2, 3)
        for pair in ((x + (p, 1), x + (p,)), (x + (1, p), x + (1,)))
    ],
)
def _collapse(case, budget):
    # X->p->1 = X->p and X->1->p = X->1: the longer chain equals the shorter
    longer, shorter = case
    return _agree(
        lambda bb: conway_prim(longer, bb), lambda bb: conway_prim(shorter, bb), budget
    )


@_law("chain-arrow-correspondence", itertools.product((2, 3), (1, 2, 3), (1, 2)))
def _chain_arrow(case, budget):
    # a->b->c = a ^(c) b
    a, b, c = case
    value = knuth_ref(a, c, b, budget)[0]
    _expect(conway_ref((a, b, c), budget)[0], value)
    return _expect(conway_prim((a, b, c), budget)[0], value)


@_law("ack-knuth-bridge", [*itertools.product((0, 1), range(6)), (2, 0), (2, 1)])
def _bridge(case, budget):
    # ack(m+2, n) = knuth(2, m, n+3) - 3
    m, n = case
    rhs = knuth_ref(2, m, n + 3, budget)[0] - 3
    if (m, n) == (2, 1):
        expanded = Budget(
            max_steps=max(EXPANDED_STEPS, budget.max_steps),
            max_digits=budget.max_digits,
        )
        value, stats = ack_ref(4, 1, expanded)
        _expect(stats.steps_used, ACK_4_1_STEPS)
    else:
        value = ack_ref(m + 2, n, budget)[0]
        _expect(ack_prim(m + 2, n, budget)[0], value)
    return _expect(value, rhs)


#: calls of every public evaluator, each finishing well inside either budget
#: of the monotonicity law
_SAMPLE_CALLS = [
    ("ack_ref", (3, 4)),
    ("ack_ref", (3, 5)),
    ("ack_prim", (2, 9)),
    ("ack_prim", (3, 4)),
    ("knuth_ref", (3, 2, 3)),
    ("knuth_prim", (2, 2, 4)),
    ("knuth_prim", (3, 2, 3)),
    ("conway_ref", ((3, 3, 2),)),
    ("conway_ref", ((2, 3, 3),)),
    ("conway_prim", ((2, 2, 2, 2),)),
    ("conway_prim", ((2, 3, 2),)),
    ("cback_prim", ((1,), 1, 1)),
    ("evaluate", ("2^^4", "both")),
]


@_law("budget-monotonicity", _SAMPLE_CALLS)
def _monotonic(case, _budget):
    # a larger budget changes neither the value nor the steps of a call
    # that finishes under a smaller one
    call, args = case
    value, stats = _call(call, args, Budget(max_steps=10**6, max_digits=100))
    again, more = _call(call, args, Budget(max_steps=10**7, max_digits=10**4))
    _expect((again, more.steps_used), (value, stats.steps_used))
    return value


@_law("determinism", _SAMPLE_CALLS)
def _deterministic(case, budget):
    call, args = case
    first = _call(call, args, budget)
    return _expect(_call(call, args, budget), first)[0]


def _random_expr(rng: random.Random, depth: int):
    pick = rng.randrange(8) if depth > 0 else 0
    if pick <= 2:
        return NatLit(rng.randrange(100))

    def sub():
        return _random_expr(rng, depth - 1)

    if pick == 3:
        return Ack(sub(), sub())
    if pick == 4:
        return Knuth(sub(), NatLit(rng.randrange(6)), sub())
    if pick == 5:
        return Knuth(sub(), sub(), sub())
    if pick == 6:
        return ConwayCall(tuple(sub() for _ in range(rng.randrange(4))))
    return ChainE(tuple(sub() for _ in range(rng.randrange(2, 5))))


@_law("parse-render-round-trip", range(600))
def _round_trip(seed, _budget):
    # each case is the seed of one random expression
    e = _random_expr(random.Random(seed), 3)
    text = render(e)
    _expect(parse(text), e)
    return text


#: every law, in the order run: the quick ones were catalogued first
LAWS: tuple[Law, ...] = tuple(_LAWS)


def _first_failure(law: Law, budget: Budget) -> str | None:
    """``case: message`` for the first case the law fails on, or None."""
    for case in law.cases:
        try:
            law.check(case, budget)
        except AssertionError as exc:
            return f"{case!r}: {exc}"
        except HyperError as exc:
            return f"{case!r}: {exc.kind}: {exc}"
    return None


def run_selftest(
    level: str = QUICK,
    budget: Budget = DEFAULT_BUDGET,
    out: Callable[[str], None] = print,
) -> int:
    """Check every law of the requested level (``full`` includes the quick
    laws), printing one FAIL line per failing law and a closing count;
    returns a process exit code (0 pass, 1 fail)."""
    if level not in (QUICK, FULL):
        raise ValueError(f"level must be '{QUICK}' or '{FULL}', got {level!r}")
    passed = failed = 0
    for law in LAWS:
        if level == QUICK and law.level != QUICK:
            continue
        failure = _first_failure(law, budget)
        if failure is None:
            passed += 1
        else:
            failed += 1
            out(f"FAIL {law.name}: {failure}")
    out(f"{passed} passed, {failed} failed")
    return 0 if failed == 0 else 1
