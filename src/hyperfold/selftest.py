"""Built-in verification suites behind ``hyperfold selftest``.

``quick`` replays the worked example tables; ``full`` adds the property
grids: pointwise agreement of the rewrite and fold forms, the defining
recurrences checked on the fold forms, chain collapse laws, the
chain/arrow correspondence on length-3 chains, the fold equivalence law,
budget monotonicity and determinism, parser round trips, and the
ack/knuth bridge identity.

Checks compare against inline constants and against the package's own
dual evaluation; the pytest suite additionally verifies everything against
an independent naive-recursion oracle.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable

from . import notation
from .budget import Budget, BudgetExceeded, HyperError, MagnitudeExceeded
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

QUICK = "quick"
FULL = "full"


class _Suite:
    def __init__(self, out: Callable[[str], None]):
        self.out = out
        self.passed = 0
        self.failed = 0

    def check(self, name: str, fn: Callable[[], None]) -> None:
        try:
            fn()
        except AssertionError as exc:
            self.failed += 1
            self.out(f"FAIL {name}: {exc}")
        except HyperError as exc:
            self.failed += 1
            self.out(f"FAIL {name}: {exc.kind}: {exc}")
        else:
            self.passed += 1

    def equal(self, name: str, got: Callable[[], object], want) -> None:
        self.check(name, lambda: _assert_equal(got(), want))


def _assert_equal(got, want) -> None:
    assert got == want, f"got {got!r}, want {want!r}"


def _agree(ref_fn, prim_fn, budget: Budget) -> None:
    """Both forms must produce the same value, or both must trip a limit."""
    try:
        ref_value = ref_fn(budget)[0]
    except (BudgetExceeded, MagnitudeExceeded):
        ref_value = None
    try:
        prim_value = prim_fn(budget)[0]
    except (BudgetExceeded, MagnitudeExceeded):
        prim_value = None
    if ref_value is None and prim_value is None:
        return  # consistently infeasible under this budget
    assert ref_value is not None and prim_value is not None, (
        f"one form tripped a limit, the other produced "
        f"{ref_value if prim_value is None else prim_value}"
    )
    assert ref_value == prim_value, f"{ref_value} != {prim_value}"


def _random_expr(rng: random.Random, depth: int):
    pick = rng.randrange(8) if depth > 0 else 0
    if pick <= 2:
        return NatLit(rng.randrange(100))
    if pick == 3:
        return Ack(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if pick == 4:
        return Knuth(
            _random_expr(rng, depth - 1),
            NatLit(rng.randrange(6)),
            _random_expr(rng, depth - 1),
        )
    if pick == 5:
        return Knuth(
            _random_expr(rng, depth - 1),
            _random_expr(rng, depth - 1),
            _random_expr(rng, depth - 1),
        )
    if pick == 6:
        k = rng.randrange(4)
        return ConwayCall(tuple(_random_expr(rng, depth - 1) for _ in range(k)))
    k = rng.randrange(2, 5)
    return ChainE(tuple(_random_expr(rng, depth - 1) for _ in range(k)))


def _quick_checks(s: _Suite, budget: Budget) -> None:
    b = budget
    s.equal("foldn base", lambda: foldn(lambda x: x + 1, 0, 0), 0)
    s.equal("foldn affine", lambda: foldn(lambda x: x + 2, 1, 3), 7)
    s.equal("foldn doubling", lambda: foldn(lambda x: 2 * x, 1, 10), 1024)
    s.equal("foldr empty", lambda: foldr_seq(lambda _, acc: acc + 1, 0, []), 0)
    s.equal("foldr sum", lambda: foldr_seq(lambda x, acc: x + acc, 0, [1, 2, 3]), 6)
    s.equal(
        "foldr right assoc", lambda: foldr_seq(lambda x, acc: x - acc, 10, [1, 2]), 9
    )
    s.equal("church zero", lambda: church_zero().apply(lambda x: x + 1, 0), 0)
    s.equal(
        "church one", lambda: church_succ(church_zero()).apply(lambda x: x + 1, 0), 1
    )
    s.equal(
        "church string carrier",
        lambda: church_succ(church_succ(church_zero())).apply(lambda t: t + "I", ""),
        "II",
    )
    s.equal(
        "church round trip", lambda: church_to_natural(church_from_natural(42)), 42
    )
    s.equal(
        "church succ of 41",
        lambda: church_to_natural(church_succ(church_from_natural(41))),
        42,
    )
    s.equal(
        "church fold affine",
        lambda: church_fold(lambda x: x + 3, 1, church_from_natural(4)),
        13,
    )
    s.equal(
        "church fold doubling",
        lambda: church_fold(lambda x: 2 * x, 1, church_from_natural(10)),
        1024,
    )

    s.equal("ack_ref(0,5)", lambda: ack_ref(0, 5, b)[0], 6)
    s.equal("ack_ref(2,3)", lambda: ack_ref(2, 3, b)[0], 9)
    s.equal("ack_ref(3,3)", lambda: ack_ref(3, 3, b)[0], 61)
    s.equal("ack_prim(0,9)", lambda: ack_prim(0, 9, b)[0], 10)
    s.equal("ack_prim(3,3)", lambda: ack_prim(3, 3, b)[0], 61)
    s.equal("ack_prim(2,0)", lambda: ack_prim(2, 0, b)[0], 3)

    s.equal("knuth_ref(2,0,3)", lambda: knuth_ref(2, 0, 3, b)[0], 6)
    s.equal("knuth_ref(5,3,0)", lambda: knuth_ref(5, 3, 0, b)[0], 1)
    s.equal("knuth_ref(3,2,3)", lambda: knuth_ref(3, 2, 3, b)[0], 7625597484987)
    s.equal("knuth_prim(2,2,3)", lambda: knuth_prim(2, 2, 3, b)[0], 16)
    s.equal("knuth_prim(7,4,0)", lambda: knuth_prim(7, 4, 0, b)[0], 1)
    s.equal("knuth_prim(3,1,4)", lambda: knuth_prim(3, 1, 4, b)[0], 81)

    s.equal("cpow(0,0)", lambda: cpow(0, 0, b)[0], 1)
    s.equal("cpow(2,1)", lambda: cpow(2, 1, b)[0], 8)
    s.equal("cpow(1,2)", lambda: cpow(1, 2, b)[0], 9)

    s.equal("conway_ref empty", lambda: conway_ref([], b)[0], 1)
    s.equal("conway_ref singleton", lambda: conway_ref([7], b)[0], 7)
    s.equal("conway_ref pair", lambda: conway_ref([2, 3], b)[0], 8)
    s.equal("conway_ref 2-2-2", lambda: conway_ref([2, 2, 2], b)[0], 4)
    s.equal("conway_ref 3-3-2", lambda: conway_ref([3, 3, 2], b)[0], 7625597484987)
    s.equal("conway_prim 4-1-5", lambda: conway_prim([4, 1, 5], b)[0], 4)
    s.equal("conway_prim 2-2-2", lambda: conway_prim([2, 2, 2], b)[0], 4)
    s.equal("conway_prim pair", lambda: conway_prim([5, 2], b)[0], 25)

    s.equal("cback empty tail", lambda: cback_prim([], 2, 1, b)[0], 8)
    s.equal("cback trivial", lambda: cback_prim([], 0, 0, b)[0], 1)
    s.equal("cback one entry", lambda: cback_prim([1], 1, 1, b)[0], 4)

    s.equal(
        "parse chain",
        lambda: parse("3->3->2"),
        ChainE((NatLit(3), NatLit(3), NatLit(2))),
    )
    s.equal(
        "parse carets", lambda: parse("2^^3"), Knuth(NatLit(2), NatLit(2), NatLit(3))
    )
    s.equal(
        "parse nesting",
        lambda: parse("ack(2, (1->1))"),
        Ack(NatLit(2), ChainE((NatLit(1), NatLit(1)))),
    )

    def dangling() -> None:
        try:
            parse("3->")
        except ParseError as exc:
            assert exc.pos.offset == 3, f"error at offset {exc.pos.offset}, want 3"
        else:
            raise AssertionError("dangling arrow parsed")

    s.check("parse dangling arrow", dangling)
    s.equal(
        "render chain",
        lambda: render(ChainE((NatLit(3), NatLit(3), NatLit(2)))),
        "3->3->2",
    )
    s.equal(
        "render carets", lambda: render(Knuth(NatLit(2), NatLit(2), NatLit(3))), "2^^3"
    )
    s.equal(
        "render level zero",
        lambda: render(Knuth(NatLit(2), NatLit(0), NatLit(3))),
        "knuth(2,0,3)",
    )

    s.equal(
        "evaluate pair", lambda: notation.evaluate(parse("2->3"), "both", b)[0], 8
    )
    s.equal(
        "evaluate ack", lambda: notation.evaluate(parse("ack(3,3)"), "both", b)[0], 61
    )
    s.equal(
        "evaluate empty",
        lambda: notation.evaluate(parse("conway()"), "both", b)[0],
        1,
    )


_STEP_FAMILIES: list[tuple[str, Callable[[int], Callable[[int], int]]]] = [
    ("+1", lambda _k: lambda x: x + 1),
    ("+k", lambda k: lambda x: x + k),
    ("*2", lambda _k: lambda x: 2 * x),
    ("*3", lambda _k: lambda x: 3 * x),
]


def _full_checks(s: _Suite, budget: Budget) -> None:
    b = budget
    rng = random.Random(0x5EED)

    def universal() -> None:
        for name, family in _STEP_FAMILIES:
            for k in (1, 2, 5):
                g = family(k)
                for e in (0, 1, 5):
                    prev = foldn(g, e, 0)
                    assert prev == e, f"{name} base case"
                    for n in range(1, 12):
                        cur = foldn(g, e, n)
                        assert cur == g(prev), f"{name} recurrence at {n}"
                        prev = cur
        for _ in range(40):
            k = rng.randrange(1, 9)
            name, family = _STEP_FAMILIES[rng.randrange(len(_STEP_FAMILIES))]
            g = family(k)
            e = rng.randrange(6)
            n = rng.randrange(1, 201)
            assert foldn(g, e, n) == g(foldn(g, e, n - 1)), name

    s.check("foldn universal property", universal)

    def foldr_recurrence() -> None:
        step = lambda a, acc: 3 * a - acc
        for _ in range(120):
            xs = [rng.randrange(-9, 10) for _ in range(rng.randrange(0, 50))]
            x = rng.randrange(-9, 10)
            assert foldr_seq(step, 7, [x] + xs) == step(x, foldr_seq(step, 7, xs))

    s.check("foldr recurrence", foldr_recurrence)

    def church_trip() -> None:
        for n in list(range(64)) + [rng.randrange(10**4 + 1) for _ in range(40)]:
            assert church_to_natural(church_from_natural(n)) == n, n
        assert church_to_natural(church_from_natural(10**4)) == 10**4

    s.check("church round trip", church_trip)

    def fold_equivalence() -> None:
        for _ in range(120):
            name, family = _STEP_FAMILIES[rng.randrange(len(_STEP_FAMILIES))]
            g = family(rng.randrange(1, 9))
            e = rng.randrange(6)
            n = rng.randrange(0, 501)
            assert church_fold(g, e, church_from_natural(n)) == foldn(g, e, n), name

    s.check("fold equivalence law", fold_equivalence)

    def step_exactness() -> None:
        for n in (0, 1, 2, 17, 255, 4096):
            assert foldn(lambda c: c + 1, 0, n) == n
            numeral = church_from_natural(n)
            assert church_fold(lambda c: c + 1, 0, numeral) == n

    s.check("fold step-count exactness", step_exactness)

    def ack_agreement() -> None:
        for m in range(4):
            for n in range(6):
                assert ack_prim(m, n, b)[0] == ack_ref(m, n, b)[0], (m, n)

    s.check("ack ref/prim agreement", ack_agreement)

    def knuth_agreement() -> None:
        grid = [
            (a, n, v) for a in range(4) for n in range(3) for v in range(4)
        ] + [(2, 3, 2), (2, 2, 4)]
        for a, n, v in grid:
            assert knuth_prim(a, n, v, b)[0] == knuth_ref(a, n, v, b)[0], (a, n, v)

    s.check("knuth ref/prim agreement", knuth_agreement)

    def conway_agreement() -> None:
        table_budget = Budget(
            max_steps=min(b.max_steps, 10**6), max_digits=b.max_digits
        )
        chains = [c for ln in range(4) for c in itertools.product((1, 2, 3), repeat=ln)]
        chains.extend([(2, 2, 2, 2), (4, 1, 5)])
        for chain in chains:
            _agree(
                lambda bb, c=chain: conway_ref(c, bb),
                lambda bb, c=chain: conway_prim(c, bb),
                table_budget,
            )

    s.check("conway ref/prim agreement", conway_agreement)

    def ack_recurrences() -> None:
        for m in range(1, 4):
            assert ack_prim(m, 0, b)[0] == ack_prim(m - 1, 1, b)[0], m
            for n in range(1, 5):
                inner = ack_prim(m, n - 1, b)[0]
                assert ack_prim(m, n, b)[0] == ack_prim(m - 1, inner, b)[0], (m, n)

    s.check("ack fold-form recurrences", ack_recurrences)

    def knuth_recurrences() -> None:
        for a in range(4):
            for n in range(1, 3):
                assert knuth_prim(a, n, 0, b)[0] == 1, (a, n)
                for v in range(1, 4):
                    inner = knuth_prim(a, n, v - 1, b)[0]
                    assert (
                        knuth_prim(a, n, v, b)[0]
                        == knuth_prim(a, n - 1, inner, b)[0]
                    ), (a, n, v)

    s.check("knuth fold-form recurrences", knuth_recurrences)

    def collapse_rules() -> None:
        table_budget = Budget(
            max_steps=min(b.max_steps, 10**6), max_digits=b.max_digits
        )
        prefixes = [
            c for ln in range(3) for c in itertools.product((1, 2, 3), repeat=ln)
        ]
        for x in prefixes:
            for p in (1, 2, 3):
                _agree(
                    lambda bb, c=x + (p, 1): conway_prim(c, bb),
                    lambda bb, c=x + (p,): conway_prim(c, bb),
                    table_budget,
                )
                _agree(
                    lambda bb, c=x + (1, p): conway_prim(c, bb),
                    lambda bb, c=x + (1,): conway_prim(c, bb),
                    table_budget,
                )

    s.check("chain collapse laws", collapse_rules)

    def cross_identity() -> None:
        for a in (2, 3):
            for v in (1, 2, 3):
                for c in (1, 2):
                    assert (
                        conway_ref((a, v, c), b)[0] == knuth_ref(a, c, v, b)[0]
                    ), (a, v, c)

    s.check("chain/arrow correspondence", cross_identity)

    def monotonic() -> None:
        small = Budget(max_steps=10**6, max_digits=100)
        bigger = Budget(max_steps=10**7, max_digits=10**4)
        samples = [
            lambda bb: ack_ref(3, 4, bb),
            lambda bb: ack_prim(2, 9, bb),
            lambda bb: knuth_ref(3, 2, 3, bb),
            lambda bb: knuth_prim(2, 2, 4, bb),
            lambda bb: conway_ref((3, 3, 2), bb),
            lambda bb: conway_prim((2, 2, 2, 2), bb),
        ]
        for fn in samples:
            v1, st1 = fn(small)
            v2, st2 = fn(bigger)
            assert (v1, st1.steps_used) == (v2, st2.steps_used)

    s.check("budget monotonicity", monotonic)

    def deterministic() -> None:
        for fn in (
            lambda: ack_ref(3, 5, b),
            lambda: conway_prim((2, 3, 2), b),
            lambda: notation.evaluate(parse("2^^4"), "both", b),
        ):
            assert fn() == fn()

    s.check("determinism", deterministic)

    def round_trip() -> None:
        gen = random.Random(0xF01D)
        for _ in range(600):
            e = _random_expr(gen, 3)
            assert parse(render(e)) == e, render(e)

    s.check("parse/render round trip", round_trip)

    def bridge_identity() -> None:
        grid = [(m, n) for m in (0, 1) for n in range(6)] + [(2, 0), (2, 1)]
        expanded = Budget(
            max_steps=max(EXPANDED_STEPS, b.max_steps), max_digits=b.max_digits
        )
        for m, n in grid:
            ack_budget = expanded if (m, n) == (2, 1) else b
            lhs = ack_ref(m + 2, n, ack_budget)[0]
            rhs = knuth_ref(2, m, n + 3, b)[0] - 3
            assert lhs == rhs, (m, n, lhs, rhs)
            if (m, n) != (2, 1):
                assert ack_prim(m + 2, n, b)[0] == rhs, (m, n)

    s.check("ack/knuth bridge identity", bridge_identity)


def run_selftest(
    level: str = QUICK,
    budget: Budget | None = None,
    out: Callable[[str], None] = print,
) -> int:
    """Run the requested suite; returns a process exit code (0 pass, 1 fail)."""
    if level not in (QUICK, FULL):
        raise ValueError(f"level must be '{QUICK}' or '{FULL}', got {level!r}")
    budget = budget if budget is not None else Budget()
    suite = _Suite(out)
    _quick_checks(suite, budget)
    if level == FULL:
        _full_checks(suite, budget)
    out(f"{suite.passed} passed, {suite.failed} failed")
    return 0 if suite.failed == 0 else 1
