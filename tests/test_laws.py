"""The ``hyperfold.selftest`` catalogue under pytest.

Every law that no acceptance criterion runs is one test here, and
``_oracles.check_law`` compares every value it yields with the independent
oracle.  The catalogue's bookkeeping is checked too: each law is run once
per suite, and a failing law is reported once by ``run_selftest``.
"""

import pytest

import _oracles
from hyperfold import selftest
from hyperfold.budget import Budget, BudgetExceeded
from hyperfold.selftest import FULL, LAWS, QUICK, run_selftest
from test_acceptance import CRITERION_LAWS

IN_CRITERIA = [name for names in CRITERION_LAWS.values() for name in names]
OTHER_LAWS = [law for law in LAWS if law.name not in IN_CRITERIA]


@pytest.mark.parametrize("law", OTHER_LAWS, ids=[law.name for law in OTHER_LAWS])
def test_law(law):
    _oracles.check_law(law)


def test_every_law_runs_once():
    names = [law.name for law in LAWS]
    assert len(set(names)) == len(names)
    assert all(law.cases and law.level in (QUICK, FULL) for law in LAWS)
    assert sorted(IN_CRITERIA + [law.name for law in OTHER_LAWS]) == sorted(names)
    assert set(_oracles.LAW_ORACLES) <= set(names)


def test_a_failing_law_gives_one_fail_line(monkeypatch):
    target = LAWS[1]  # a quick law, not the first one run

    def broken(case, budget):
        raise AssertionError("broken on purpose")

    monkeypatch.setattr(
        selftest,
        "LAWS",
        tuple(law._replace(check=broken) if law is target else law for law in LAWS),
    )
    lines = []
    assert run_selftest(QUICK, out=lines.append) == 1
    quick = sum(law.level == QUICK for law in LAWS)
    assert lines == [
        f"FAIL {target.name}: {target.cases[0]!r}: broken on purpose",
        f"{quick - 1} passed, 1 failed",
    ]


def test_a_check_names_what_it_got_and_wanted():
    with pytest.raises(AssertionError, match=r"^got 3, want 4$"):
        selftest._expect(3, 4)


def test_agree_names_the_value_when_only_one_side_trips():
    def trips(budget):
        raise BudgetExceeded("step budget exhausted")

    def produces(budget):
        return 7, None

    for first, second in ((trips, produces), (produces, trips)):
        with pytest.raises(AssertionError) as disagreement:
            selftest._agree(first, second, Budget())
        assert str(disagreement.value) == "one tripped a limit, the other produced 7"


def test_an_unknown_level_is_refused():
    with pytest.raises(ValueError, match="^level must be 'quick' or 'full'"):
        run_selftest("medium")
