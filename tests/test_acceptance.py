"""Acceptance gate: every criterion at its stated tolerance, timed.

Each test prints one PASS line (visible with ``pytest -s`` or in the
captured output).  Expected values are frozen from the independent oracle
in _oracles.py; exactness is integer equality throughout.
"""

import itertools
import random
import subprocess
import sys
import time

import pytest

import _oracles
from hyperfold.budget import Budget, BudgetExceeded, MagnitudeExceeded
from hyperfold.folds import church_fold, church_from_natural, foldn, foldr_seq
from hyperfold.hyperops import (
    ack_prim,
    ack_ref,
    conway_prim,
    conway_ref,
    knuth_prim,
    knuth_ref,
)
from hyperfold.notation import Ack, ChainE, Knuth, NatLit, ParseError
from hyperfold.notation import parse, render
from hyperfold.selftest import _random_expr

B = Budget()
CLI = [sys.executable, "-m", "hyperfold.cli"]


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start
        return False


def report(number: int, text: str, timer: Timer | None = None) -> None:
    suffix = f" ({timer.seconds:.2f} s)" if timer is not None else ""
    print(f"ACCEPTANCE {number} PASS: {text}{suffix}")


def test_criterion_1_ackermann_table():
    with Timer() as t:
        for m in range(4):
            for n in range(6):
                ref = ack_ref(m, n, B)[0]
                prim = ack_prim(m, n, B)[0]
                assert ref == prim == _oracles.ack(m, n), (m, n)
        assert ack_ref(0, 5, B)[0] == 6
        assert ack_ref(2, 3, B)[0] == 9
        assert ack_ref(3, 3, B)[0] == 61
    assert t.seconds < 1.0, f"ack table took {t.seconds:.2f} s"
    report(1, "ack_ref == ack_prim on [0,3]x[0,5], spot values exact", t)


def test_criterion_2_knuth_table():
    grid = [(a, n, b) for a in range(4) for n in range(3) for b in range(4)]
    grid += [(2, 3, 2), (2, 2, 4)]
    with Timer() as t:
        for a, n, b in grid:
            ref = knuth_ref(a, n, b, B)[0]
            prim = knuth_prim(a, n, b, B)[0]
            assert ref == prim == _oracles.knuth(a, n, b), (a, n, b)
        assert knuth_ref(2, 0, 3, B)[0] == 6
        assert knuth_ref(2, 2, 3, B)[0] == 16
        assert knuth_ref(3, 2, 3, B)[0] == 7625597484987
    assert t.seconds < 1.0, f"knuth table took {t.seconds:.2f} s"
    report(2, "knuth_ref == knuth_prim on the grid, spot values exact", t)


def test_criterion_3_conway_table():
    chains = [
        c for ln in (0, 1, 2, 3) for c in itertools.product((1, 2, 3), repeat=ln)
    ]
    chains += [(2, 2, 2, 2), (4, 1, 5)]
    # 3->3->3 is infeasible under any run-sized budget; 10^6 steps keeps the
    # trip quick while leaving every feasible value untouched (budget
    # monotonicity: all of them finish in far fewer steps)
    table_budget = Budget(max_steps=10**6, max_digits=B.max_digits)
    tripped = []
    with Timer() as t:
        for chain in chains:
            try:
                ref = conway_ref(chain, table_budget)[0]
            except (BudgetExceeded, MagnitudeExceeded):
                ref = None
            try:
                prim = conway_prim(chain, table_budget)[0]
            except (BudgetExceeded, MagnitudeExceeded):
                prim = None
            if ref is None or prim is None:
                assert ref is None and prim is None, chain
                tripped.append(chain)
            else:
                assert ref == prim == _oracles.conway(chain), chain
        assert tripped == [(3, 3, 3)]
        assert conway_ref((), B)[0] == 1
        assert conway_ref((2, 3), B)[0] == 8
        assert conway_ref((2, 2, 2), B)[0] == 4
        assert conway_ref((3, 3, 2), B)[0] == 7625597484987
    assert t.seconds < 5.0, f"conway table took {t.seconds:.2f} s"
    report(3, "conway_ref == conway_prim on the chain table, spot values exact", t)


def test_criterion_4_bridge_identity():
    # ack(m+2, n) == knuth(2, m, n+3) - 3.  The (2,1) point is ack(4,1):
    # 2,862,984,010 equation applications, far over the default 10^7 step
    # budget (which must therefore trip), so it runs under an expanded one.
    grid = [(m, n) for m in (0, 1) for n in range(6)] + [(2, 0), (2, 1)]
    expanded = Budget(max_steps=10**10, max_digits=B.max_digits)
    with Timer() as t:
        for m, n in grid:
            rhs = knuth_ref(2, m, n + 3, B)[0] - 3
            assert rhs == _oracles.knuth(2, m, n + 3) - 3, (m, n)
            if (m, n) == (2, 1):
                with pytest.raises(BudgetExceeded):
                    ack_ref(4, 1, B)
                value, stats = ack_ref(4, 1, expanded)
                assert value == rhs == 65533
                assert stats.steps_used == 2_862_984_010
            else:
                assert ack_ref(m + 2, n, B)[0] == rhs, (m, n)
                assert ack_prim(m + 2, n, B)[0] == rhs, (m, n)
    assert t.seconds < 30.0, f"bridge identity took {t.seconds:.2f} s"
    report(4, "ack(m+2,n) == knuth(2,m,n+3)-3 on the grid; ack(4,1)=65533", t)


def test_criterion_5_fold_equivalence_law():
    rng = random.Random(2718)
    families = [
        lambda k: lambda x: x + 1,
        lambda k: lambda x: x + k,
        lambda k: lambda x: 2 * x,
        lambda k: lambda x: 3 * x,
    ]
    cases = 0
    with Timer() as t:
        for _ in range(120):
            g = families[rng.randrange(4)](rng.randrange(1, 9))
            e = rng.randrange(6)
            n = rng.randrange(0, 501)
            assert church_fold(g, e, church_from_natural(n)) == foldn(g, e, n)
            cases += 1
    assert cases >= 100
    report(5, f"church fold == foldn on {cases} sampled (g,e,n) triples", t)


def test_criterion_6_property_suites():
    rng = random.Random(3141)
    families = [
        lambda k: lambda x: x + 1,
        lambda k: lambda x: x + k,
        lambda k: lambda x: 2 * x,
        lambda k: lambda x: 3 * x,
    ]
    universal_cases = 0
    with Timer() as t:
        # universal property of foldn, plus the foldr recurrence
        for _ in range(110):
            g = families[rng.randrange(4)](rng.randrange(1, 9))
            e = rng.randrange(6)
            n = rng.randrange(1, 201)
            assert foldn(g, e, 0) == e
            assert foldn(g, e, n) == g(foldn(g, e, n - 1))
            universal_cases += 1
        step = lambda a, acc: 3 * a - acc
        for _ in range(30):
            xs = [rng.randrange(-9, 10) for _ in range(rng.randrange(0, 50))]
            x = rng.randrange(-9, 10)
            assert foldr_seq(step, 7, [x] + xs) == step(x, foldr_seq(step, 7, xs))
            universal_cases += 1

        # defining recurrences, checked on the fold forms
        recurrence_cases = 0
        for m in range(1, 4):
            assert ack_prim(m, 0, B)[0] == ack_prim(m - 1, 1, B)[0]
            recurrence_cases += 1
            for n in range(1, 5):
                inner = ack_prim(m, n - 1, B)[0]
                assert ack_prim(m, n, B)[0] == ack_prim(m - 1, inner, B)[0]
                recurrence_cases += 1
        for a in range(4):
            for n in range(1, 3):
                assert knuth_prim(a, n, 0, B)[0] == 1
                recurrence_cases += 1
                for b in range(1, 4):
                    inner = knuth_prim(a, n, b - 1, B)[0]
                    assert (
                        knuth_prim(a, n, b, B)[0]
                        == knuth_prim(a, n - 1, inner, B)[0]
                    )
                    recurrence_cases += 1
        for _ in range(40):
            m = rng.randrange(1, 3)
            n = rng.randrange(1, 31)
            inner = ack_prim(m, n - 1, B)[0]
            assert ack_prim(m, n, B)[0] == ack_prim(m - 1, inner, B)[0]
            recurrence_cases += 1
        for _ in range(30):
            a = rng.randrange(0, 10)
            b = rng.randrange(1, 13)
            inner = knuth_prim(a, 1, b - 1, B)[0]
            assert knuth_prim(a, 1, b, B)[0] == knuth_prim(a, 0, inner, B)[0]
            recurrence_cases += 1
    assert universal_cases >= 100
    assert recurrence_cases >= 100
    report(
        6,
        f"universal property x{universal_cases}, "
        f"verification recurrences x{recurrence_cases}, exact",
        t,
    )


def test_criterion_7_budget_behavior():
    with Timer() as t:
        proc = subprocess.run(
            CLI + ["eval", "3->3->3"], capture_output=True, text=True, timeout=60
        )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "budget" in proc.stderr or "digits" in proc.stderr
    assert t.seconds < 10.0, f"default-budget trip took {t.seconds:.2f} s"

    with Timer() as t2:
        proc_small = subprocess.run(
            CLI + ["--max-steps", "1000", "eval", "3->3->3"],
            capture_output=True,
            text=True,
            timeout=60,
        )
    assert proc_small.returncode == 3
    steps_lines = [
        l for l in proc_small.stderr.splitlines() if l.startswith("steps=")
    ]
    steps_used = int(steps_lines[0].split()[0].split("=")[1])
    assert steps_used <= 1000
    assert t2.seconds < t.seconds or t2.seconds < 2.0
    report(7, "3->3->3 exits 3 under defaults; 10^3-step run reports <=1000", t)


def test_criterion_8_parser_round_trip():
    rng = random.Random(1618)
    with Timer() as t:
        count = 0
        for _ in range(550):
            expr = _random_expr(rng, 3)
            assert parse(render(expr)) == expr, render(expr)
            count += 1
        assert count >= 500
        # the four worked cases, byte-exact
        assert parse("3->3->2") == ChainE((NatLit(3), NatLit(3), NatLit(2)))
        assert parse("2^^3") == Knuth(NatLit(2), NatLit(2), NatLit(3))
        assert parse("ack(2, (1->1))") == Ack(
            NatLit(2), ChainE((NatLit(1), NatLit(1)))
        )
        try:
            parse("3->")
        except ParseError as exc:
            assert exc.pos.offset == 3
        else:
            raise AssertionError("dangling arrow must not parse")
    report(8, f"parse(render(e)) == e on {count} expressions; worked cases", t)


def test_criterion_9_cross_hierarchy_identity():
    with Timer() as t:
        for a in (2, 3):
            for b in (1, 2, 3):
                for c in (1, 2):
                    want = _oracles.knuth(a, c, b)
                    assert _oracles.conway((a, b, c)) == want
                    assert conway_ref((a, b, c), B)[0] == want, (a, b, c)
                    assert conway_prim((a, b, c), B)[0] == want, (a, b, c)
                    assert knuth_ref(a, c, b, B)[0] == want, (a, b, c)
    report(9, "conway([a,b,c]) == knuth(a,c,b) on the declared grid, exact", t)
