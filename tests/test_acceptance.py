"""Acceptance gate: every criterion at its stated tolerance, timed.

Each test prints one PASS line (visible with ``pytest -s`` or in the
captured output).  The criteria run laws of the ``hyperfold.selftest``
catalogue, and ``_oracles.check_law`` compares every value a law yields with
the independent oracle; exactness is integer equality throughout.
"""

import subprocess
import sys
import time

import pytest

import _oracles
from hyperfold.budget import Budget, BudgetExceeded
from hyperfold.hyperops import ack_ref
from hyperfold.selftest import LAWS

B = Budget()
CLI = [sys.executable, "-m", "hyperfold.cli"]
LAW = {law.name: law for law in LAWS}

#: the catalogue laws each criterion runs; tests/test_laws.py runs the rest
CRITERION_LAWS = {
    1: ("ack-agreement", "ack-values"),
    2: ("knuth-agreement", "knuth-values"),
    3: ("conway-agreement", "conway-values"),
    4: ("ack-knuth-bridge",),
    5: ("fold-equivalence",),
    6: (
        "foldn-universal-property",
        "foldr-recurrence",
        "ack-recurrences",
        "knuth-recurrences",
    ),
    8: ("parse-render-round-trip", "parse-render-values"),
    9: ("chain-arrow-correspondence",),
}


def run_laws(number: int) -> dict:
    """Check the criterion's laws; returns each law's values by its name."""
    return {name: _oracles.check_law(LAW[name], B) for name in CRITERION_LAWS[number]}


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
        values = run_laws(1)
    assert len(values["ack-agreement"]) == 24
    assert t.seconds < 1.0, f"ack table took {t.seconds:.2f} s"
    report(1, "ack_ref == ack_prim on [0,3]x[0,5], spot values exact", t)


def test_criterion_2_knuth_table():
    with Timer() as t:
        values = run_laws(2)
    assert len(values["knuth-agreement"]) == 50
    assert t.seconds < 1.0, f"knuth table took {t.seconds:.2f} s"
    report(2, "knuth_ref == knuth_prim on the grid, spot values exact", t)


def test_criterion_3_conway_table():
    with Timer() as t:
        values = run_laws(3)["conway-agreement"]
    chains = LAW["conway-agreement"].cases
    assert len(chains) == 42
    # within the table only 3->3->3 is infeasible, and it is for both forms
    tripped = [chain for chain, value in zip(chains, values) if value is None]
    assert tripped == [(3, 3, 3)]
    assert t.seconds < 5.0, f"conway table took {t.seconds:.2f} s"
    report(3, "conway_ref == conway_prim on the chain table, spot values exact", t)


def test_criterion_4_bridge_identity():
    # ack(m+2, n) == knuth(2, m, n+3) - 3.  The (2,1) point is ack(4,1):
    # 2,862,984,010 equation applications, far over the default 10^7 step
    # budget (which must therefore trip), so the law runs it under an
    # expanded one.
    with Timer() as t:
        with pytest.raises(BudgetExceeded):
            ack_ref(4, 1, B)
        values = run_laws(4)["ack-knuth-bridge"]
    points = dict(zip(LAW["ack-knuth-bridge"].cases, values))
    assert len(points) == 14
    assert points[(2, 1)] == 65533
    assert t.seconds < 30.0, f"bridge identity took {t.seconds:.2f} s"
    report(4, "ack(m+2,n) == knuth(2,m,n+3)-3 on the grid; ack(4,1)=65533", t)


def test_criterion_5_fold_equivalence_law():
    with Timer() as t:
        cases = len(run_laws(5)["fold-equivalence"])
    assert cases >= 100
    report(5, f"church fold == foldn on {cases} sampled (g,e,n) triples", t)


def test_criterion_6_property_suites():
    with Timer() as t:
        values = run_laws(6)
    # universal property of foldn, plus the foldr recurrence
    universal_cases = len(values["foldn-universal-property"]) + len(
        values["foldr-recurrence"]
    )
    # defining recurrences, checked on the fold forms
    recurrence_cases = len(values["ack-recurrences"]) + len(
        values["knuth-recurrences"]
    )
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
    with Timer() as t:
        # the worked cases, byte-exact, are the parse-render-values law
        count = len(run_laws(8)["parse-render-round-trip"])
    assert count >= 500
    report(8, f"parse(render(e)) == e on {count} expressions; worked cases", t)


def test_criterion_9_cross_hierarchy_identity():
    with Timer() as t:
        values = run_laws(9)["chain-arrow-correspondence"]
        # the oracles agree with each other on the grid as well
        for a, b, c in LAW["chain-arrow-correspondence"].cases:
            assert _oracles.conway((a, b, c)) == _oracles.knuth(a, c, b)
    assert len(values) == 12
    report(9, "conway([a,b,c]) == knuth(a,c,b) on the declared grid, exact", t)
