"""Workload pools, their seeded call order, and the correctness check.

A pool item is ``(weight, text, form, max_steps)``; the digit cap is always
the program's default.  A *call* is one item:

* library workloads call ``evaluate(parse(text), form, Budget(max_steps))``;
* ``repl_mix`` calls ``cli.run_eval(text, Config(form, max_steps))``, one
  REPL line, with stdout and stderr captured in memory.

Call order: the pool's items, each repeated ``weight`` times, form a deck;
every round of the workload is one seeded shuffle of that deck.  The seed
sets the order, while every round holds the same mix, so runs from different
seeds differ only by the last, partial round (see README.md for why this
replaces independent draws).

Every outcome is checked here, never in the child that times the calls:
values against the closed-form oracle below, trip kinds, ``EvalStats`` and
exit codes against ``record.json``, frozen by ``freeze.py``.
"""

from __future__ import annotations

import random
import re

LIBRARY = "library"
REPL = "repl"

_REF = "reference"
_PRIM = "primitive"
_BOTH = "both"
_DEFAULT_STEPS = 10**7

#: Weights: sorted by cost, every item fills a band of the deck as wide as
#: its weight.  They are chosen so that the 50th and 90th percentiles fall
#: well inside the band of one item (or of items of equal cost), away from
#: the edge to an item of similar cost, whose calls would otherwise mix into
#: the percentile in a share that changes from run to run.
POOLS = {
    # Reference form, every item trips a step or digit budget.  Nearly all
    # the time is in the rewrite loops of _machines, whose frame lists set
    # peak RSS; knuth(2,3,4) decrements 19,729-digit integers.  The fold
    # layer never runs.  p50: the 3e5 trips; p90: knuth(2,3,4) at 2e5.
    "ref_trips": [
        (2, "3->3->3", _REF, 10**5),
        (3, "3->3->3", _REF, 3 * 10**5),
        (1, "2->3->4", _REF, 3 * 10**5),
        (2, "3->4->2->2", _REF, 10**5),
        (3, "3->4->2->2", _REF, 3 * 10**5),
        (2, "3^^^3", _REF, 10**5),
        (3, "3^^^3", _REF, 3 * 10**5),
        (2, "4^^^3", _REF, 10**5),
        (3, "4^^^3", _REF, 3 * 10**5),
        (1, "knuth(2,3,4)", _REF, 10**5),
        (4, "knuth(2,3,4)", _REF, 2 * 10**5),
        (1, "knuth(2,3,4)", _REF, 3 * 10**5),
    ],
    # Primitive form: one closure entry plus Meter.spend/note per step, on
    # small integers (ack) and on big multiplies (knuth(2,2,5) = 2^^5).
    # The machines never run.  p50: ack(3,6); p90: knuth(2,2,5).
    "fold_towers": [
        (2, "ack(3,5)", _PRIM, _DEFAULT_STEPS),
        (8, "ack(3,6)", _PRIM, _DEFAULT_STEPS),
        (1, "ack(3,7)", _PRIM, _DEFAULT_STEPS),
        (1, "ack(3,8)", _PRIM, _DEFAULT_STEPS),
        (1, "ack(4,1)", _PRIM, 10**5),
        (1, "ack(4,1)", _PRIM, 3 * 10**5),
        (4, "knuth(2,2,5)", _PRIM, _DEFAULT_STEPS),
        (1, "knuth(3,2,3)", _PRIM, _DEFAULT_STEPS),
        (2, "3->3->2", _PRIM, _DEFAULT_STEPS),
        (2, "2->3->2", _PRIM, _DEFAULT_STEPS),
        (2, "2->4->2", _PRIM, _DEFAULT_STEPS),
        (2, "3->2->2", _PRIM, _DEFAULT_STEPS),
    ],
    # One REPL line per call: parse, tree walk, both families, backend
    # dispatch, Meter.stats, int_to_decimal and the exit-code mapping, while
    # the evaluator cores barely run.  2^^5 renders 19,729 digits.
    # p50: conway(); p90: 2^^5.
    "repl_mix": [
        (5, "2^^4", _BOTH, _DEFAULT_STEPS),
        (3, "3->3->2", _BOTH, _DEFAULT_STEPS),
        (3, "ack(3,3)", _BOTH, _DEFAULT_STEPS),
        (4, "knuth(3,2,3)", _BOTH, _DEFAULT_STEPS),
        (10, "conway()", _BOTH, _DEFAULT_STEPS),
        (6, "2^^5", _BOTH, _DEFAULT_STEPS),
        (1, "3->", _BOTH, _DEFAULT_STEPS),
        (1, "ack(2,", _BOTH, _DEFAULT_STEPS),
        (1, "2^^3^^2", _BOTH, _DEFAULT_STEPS),
        (1, "0->1", _BOTH, _DEFAULT_STEPS),
        (1, "2->0->2", _BOTH, _DEFAULT_STEPS),
        (1, "3->3->3", _BOTH, 1000),
        (1, "2->4->3", _PRIM, _DEFAULT_STEPS),
    ],
}

CALL_KIND = {"ref_trips": LIBRARY, "fold_towers": LIBRARY, "repl_mix": REPL}

#: Items whose wrong outcome at this commit has a known cause.  A wrong
#: outcome of one keeps ``correct`` true; a timed one still counts in
#: ``failed``.  The worker calls each once, untimed, as the first call of a
#: fresh process, so the defect shows in every run (see worker.py).
KNOWN_DEFECTS = {
    ("repl_mix", "primitive|10000000|2->4->3"): (
        "checked_pow formats its ~20,000-digit size estimate into the "
        "MagnitudeExceeded message under the int->str cap of 4,300 digits, "
        "so the line raises ValueError instead of exiting 3; it shows only "
        "until an earlier line renders 2^^5, because int_to_decimal lifts "
        "that cap for the whole process"
    ),
}


def item_id(item) -> str:
    _, text, form, max_steps = item
    return f"{form}|{max_steps}|{text}"


def call_order(workload: str, seed: int):
    """Endless pool indices: rounds, each a seeded shuffle of the deck."""
    deck = [i for i, item in enumerate(POOLS[workload]) for _ in range(item[0])]
    rng = random.Random(f"{workload}/{seed}")
    while True:
        rng.shuffle(deck)
        yield from list(deck)


# ---------------------------------------------------------------------------
# closed-form oracle
# ---------------------------------------------------------------------------


def _tower(a: int, b: int) -> int:
    value = 1
    for _ in range(b):
        value = a**value
    return value


def _knuth(a: int, level: int, b: int):
    if level == 0:
        return a * b
    if level == 1:
        return a**b
    if level == 2:
        return _tower(a, b)
    return None


def _ack(m: int, n: int):
    if m > 3:
        return None
    return (n + 1, n + 2, 2 * n + 3)[m] if m < 3 else 2 ** (n + 3) - 3


def _chain(entries: list[int]):
    if len(entries) == 0:
        return 1
    if len(entries) == 1:
        return entries[0]
    if len(entries) == 2:
        return entries[0] ** entries[1]
    if len(entries) == 3:
        p, q, r = entries
        return _knuth(p, r, q)
    return None


def oracle(text: str):
    """Closed-form value of a flat pool expression, or None if not covered."""
    if m := re.fullmatch(r"ack\((\d+),(\d+)\)", text):
        return _ack(int(m[1]), int(m[2]))
    if m := re.fullmatch(r"knuth\((\d+),(\d+),(\d+)\)", text):
        return _knuth(int(m[1]), int(m[2]), int(m[3]))
    if m := re.fullmatch(r"(\d+)(\^+)(\d+)", text):
        return _knuth(int(m[1]), len(m[2]), int(m[3]))
    if m := re.fullmatch(r"conway\(([\d,]*)\)", text):
        return _chain([int(x) for x in m[1].split(",") if x])
    if re.fullmatch(r"\d+(->\d+)+", text):
        return _chain([int(x) for x in text.split("->")])
    return None


# ---------------------------------------------------------------------------
# outcome check
# ---------------------------------------------------------------------------

#: exit codes a REPL line may end with; 1 and 5 mean a program defect
ALLOWED_EXITS = (0, 2, 3, 4)

_STATS_LINE = re.compile(r"steps=(\d+) peak_digits=(\d+)")


def stats_in(text: str):
    for line in text.splitlines():
        if m := _STATS_LINE.fullmatch(line):
            return [int(m[1]), int(m[2])]
    return None


def check(workload: str, item, outcome, record) -> str | None:
    """Why ``outcome`` of one call of ``item`` is wrong, or None if right.

    ``record`` is the frozen entry for the item.  A library outcome is
    ``[kind, value_hex, steps, peak_digits]``; a REPL outcome is
    ``[exit_code_or_exception, stdout, stderr]``.
    """
    text = item[1]
    if CALL_KIND[workload] == LIBRARY:
        kind, value_hex, steps, peak = outcome
        if kind != record["kind"]:
            return f"outcome {kind}, recorded {record['kind']}"
        if [steps, peak] != record["stats"]:
            return f"stats {[steps, peak]}, recorded {record['stats']}"
        if kind == "value":
            expected = oracle(text)
            if expected is None or int(value_hex, 16) != expected:
                return "value differs from the closed-form oracle"
        return None
    code, out, err = outcome
    if not isinstance(code, int):
        return f"uncaught {code}"
    if code not in ALLOWED_EXITS:
        return f"exit code {code} outside {ALLOWED_EXITS}"
    if code != record["exit"]:
        return f"exit code {code}, recorded {record['exit']}"
    if code == 0:
        stats = record["stats"]
        expected = oracle(text)
        want = f"{expected}\nsteps={stats[0]} peak_digits={stats[1]}\n"
        if expected is None or out != want or err:
            return "printed value or stats line differs from oracle and record"
        return None
    kind = err.split(":", 1)[0]
    if out or kind != record["kind"] or stats_in(err) != record["stats"]:
        return f"error report {kind!r} {stats_in(err)} differs from record"
    return None


def check_all(workload: str, outcomes, records):
    """Count wrong outcomes: (wrong, unexplained, reasons by item id)."""
    pool = POOLS[workload]
    wrong = unexplained = 0
    reasons = {}
    for index, outcome, count in outcomes:
        key = item_id(pool[index])
        record = records[workload].get(key)
        reason = (
            "no frozen record" if record is None
            else check(workload, pool[index], outcome, record)
        )
        if reason is None:
            continue
        wrong += count
        if (workload, key) not in KNOWN_DEFECTS:
            unexplained += count
        reasons.setdefault(key, [reason, 0])[1] += count
    return wrong, unexplained, reasons
