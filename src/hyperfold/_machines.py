"""Pure-Python rewrite machines for the reference evaluators.

Each machine is an explicit work-stack loop — never native recursion — and
a counted run in the protocol of :mod:`hyperfold.budget`: its last four
arguments are ``max_steps, max_digits, steps, peak`` and it returns a plain
status tuple ``(status, value, steps, peak_value)``, which ``Meter.run``
folds back into the meter, turning a trip into its exception.  Under that
module's counted-run contract its evaluator has taken its inputs in
(``Meter.take``), so no machine checks or notes them.

The Ackermann and Knuth machines are one loop on ``(level, count)`` runs,
:func:`_tower`, and the Conway machine keeps its continuation frames as
``(q, idx, count)`` runs.  Below the top run, which each keeps in locals,
runs go in blocks (:func:`_push_run`), so no machine's memory follows the
step budget, not even at a level or entry too large to reach.  The Conway
machine still takes one loop pass per rule, with its counters in locals
and no attribute lookups or method calls in the hot path.  The digit cap
is ``max_digits`` itself, decided by :func:`~hyperfold.budget.reaches_cap`,
so no machine builds ``10**max_digits`` unless a value comes within a few
bits of it.
"""

from __future__ import annotations

from math import isqrt

from .budget import (
    OK,
    TRIP_STEPS,
    _pow10,
    add_run,
    mul_run,
    pow_counted,
    reaches_cap,
)


def _push_run(blocks, key, tag, count):
    """Put a run of ``count`` frames at ``(key, tag)`` on ``blocks``.

    A block ``(key, tag, count, n)`` is n runs of ``count`` frames each at
    keys key, key + 1, ..., key + n - 1 from the top down, all with one
    ``tag``.  The run joins the top block when that block's top run sits at
    key + 1 with as many frames, and starts a block of its own otherwise.
    """
    if blocks:
        below, below_tag, below_count, n = blocks[-1]
        if below == key + 1 and below_count == count and below_tag == tag:
            blocks[-1] = (key, tag, count, n + 1)
            return
    blocks.append((key, tag, count, 1))


def _pop_run(blocks):
    """Take the top run ``(key, tag, count)`` off non-empty ``blocks``."""
    key, tag, count, n = blocks[-1]
    if n == 1:
        blocks.pop()
    else:
        blocks[-1] = (key + 1, tag, count, n - 1)
    return key, tag, count


def _tower(level, x, base_run, offset, max_steps, max_digits, steps, peak):
    """A tower's rewrite equations from one level-``level`` frame at ``x``.

    The literal machine pops one frame per application: level 0 applies
    the generator; level k >= 1 at ``x == 0`` sets x = 1 and pushes
    ``offset`` frames of level k-1; otherwise it decrements x and pushes
    k-1 below k.  Here the stack holds ``(level, count)`` runs, two rules:

    * descent: a level-k >= 1 frame at x is the next x+1 applications,
      charged at once; it pushes ``(k-1, x + offset)`` (nothing for 0) and
      sets x = 1, never a new peak, as ``level <= peak`` is required;
    * base run: c level-0 frames are one ``base_run(x, c, max_steps,
      max_digits, steps, peak)`` call, which ends in the status-tuple
      protocol as its c applications one at a time would.

    Offset 0 is the paper's layer ``\\f -> foldn f 1``, 1 is ``\\f -> foldn f
    (f 1)``.  Run levels strictly decrease up the stack, so it holds at most
    ``level + 1`` runs.  The top run is kept in locals and the runs below it
    as blocks (:func:`_push_run`): descents from x = 1 leave one run at each
    level they pass, as Ackermann's ``A(k, 0) = A(k-1, 1)`` does, and a
    block holds them all, so a huge level costs no memory per level.
    Values, steps, trip kinds and peaks are exactly those of the literal
    machines in ``tests/_oracles.py``.
    """
    blocks = []
    k, c = level, 1  # the top run
    while True:
        if k == 0:
            status, x, steps, peak = base_run(
                x, c, max_steps, max_digits, steps, peak
            )
            if status != OK:
                return (status, 0, steps, peak)
            c = 0
        else:
            c -= 1
            steps += x + 1
            if steps > max_steps:
                return (TRIP_STEPS, 0, max_steps, peak)
            if x + offset:
                if c:
                    _push_run(blocks, k, None, c)
                k, c = k - 1, x + offset
            x = 1
        if not c:
            if not blocks:
                return (OK, x, steps, peak)
            k, _, c = _pop_run(blocks)


def _level1_run(n, count, max_steps, max_digits, steps, peak):
    """``count`` level-1 Ackermann frames from n, as one base run.

    A frame from n takes n+1 descents and n+1 increments to n+2, its
    largest value, so frames 0..d-1 cost 2d(n+d) steps and end at n+2d.
    Every whole frame that fits the budget and stays below the cap is
    charged at once; the next, if any, is one level-1 frame of
    :func:`_tower` on :func:`~hyperfold.budget.add_run`, whose rules trip.
    """
    headroom = max(max_steps - steps, 0)  # a caller's steps may be past it
    if 2 * count * (n + count) <= headroom:
        d = count
    else:
        d = (isqrt(n * n + 2 * headroom) - n) // 2
    if reaches_cap(n + 2 * d, max_digits):
        d = (_pow10(max_digits) - 1 - n) // 2
    steps += 2 * d * (n + d)
    n += 2 * d
    if n > peak:
        peak = n
    if d == count:
        return (OK, n, steps, peak)
    return _tower(1, n, add_run, 1, max_steps, max_digits, steps, peak)


def ack_machine(m0, n0, max_steps, max_digits, steps, peak):
    """Ackermann by its three rewrite equations, one step per application:
    :func:`_tower` with offset 1 on level-1 frames, or on one increment for
    m0 = 0.  It holds at most m0 runs."""
    if m0 == 0:
        return _tower(0, n0, add_run, 1, max_steps, max_digits, steps, peak)
    return _tower(m0 - 1, n0, _level1_run, 1, max_steps, max_digits, steps, peak)


def knuth_machine(a, n0, b, max_steps, max_digits, steps, peak):
    """Extended up-arrow by its rewrite equations, level 0 one multiply:
    :func:`_tower` with offset 0 on :func:`~hyperfold.budget.mul_run`, which
    finds a run's trip point itself, a float estimate walked to the exact
    product, as the fold form's innermost fold does.  It holds at most n0 +
    1 runs.

    For a = 1 and n0 >= 1 every value is 1, and the rules take exactly
    ``2 * n0 * b + 1`` steps (a level-k frame at 1 is 2k + 1 of them), so
    they are charged at once, and none can trip the cap."""
    if a == 1 and n0:
        steps += 2 * n0 * b + 1
        if steps > max_steps:
            return (TRIP_STEPS, 0, max_steps, peak)
        return (OK, 1, steps, peak)

    def times_a(val, count, *budget):
        return mul_run(val, a, count, *budget)

    return _tower(n0, b, times_a, 0, max_steps, max_digits, steps, peak)


def conway_machine(entries, max_steps, max_digits, steps, peak):
    """Chained-arrow rewriting over the reversed chain, one step per rule.

    A configuration is (h0, h1, idx): the list h0 : h1 : rev[idx:], where
    rev is the reversed chain (rewrites only ever touch the first two
    positions, so the tail is shared by index).  The general rule pushes a
    continuation frame (h0 - 1, idx) and descends into (h0, h1 - 1, idx);
    a finished sub-value v resumes the top frame as (q', v, idx').  With
    h0 and idx fixed, the general rule fires until h1 = 1, so its frames
    are one run ``(q, idx, count)``, pushed when the rule first fires; the
    firings still take one pass and one step each.  A resume decrements the
    top run's count, and a run that is done leaves the next one, from the
    blocks below, in locals.  When sub-values recur, the runs left below
    have equal counts at q, q - 1, ...: one block holds them.  The
    two-element base is one :func:`~hyperfold.budget.pow_counted` call,
    charged like every other power.  ``tests/_oracles.py`` keeps the
    machine as it was with a private power loop, ``conway_literal_machine``,
    and the tests compare the two tuple for tuple.
    """
    rev = tuple(reversed(entries))
    end = len(rev)
    if end < 2:
        # conway() is 1 and conway(a) is a, one rule each
        steps += 1
        if steps > max_steps:
            return (TRIP_STEPS, 0, max_steps, peak)
        value = rev[0] if end else 1
        return (OK, value, steps, max(peak, value))
    h0, h1, idx = rev[0], rev[1], 2
    blocks = []
    q = i = count = 0  # the top run; count 0 is an empty stack
    while True:
        steps += 1
        if steps > max_steps:
            return (TRIP_STEPS, 0, max_steps, peak)
        if idx == end:
            # two-element base: reversed [q, p] denotes p^q
            status, value, steps, peak = pow_counted(
                h1, h0, max_steps, max_digits, steps, peak
            )
            if status != OK:
                return (status, 0, steps, peak)
            if not count:
                return (OK, value, steps, peak)
            h0, h1, idx = q, value, i
            count -= 1
            if not count and blocks:
                q, i, count = _pop_run(blocks)
        elif h0 == 1 or h1 == 1:
            # a last written entry of 1 is dropped (h0 = h1), and a
            # next-to-last entry of 1 collapses the chain past it (h0 = 1,
            # which is h1): both leave h1 in front of the rest
            h0 = h1
            h1 = rev[idx]
            idx += 1
        else:
            # the general rule fires until h1 = 1, one pass and one step
            # each, and every firing pushes the frame (h0 - 1, idx): a run
            if count:
                _push_run(blocks, q, i, count)
            q, i, count = h0 - 1, idx, h1 - 1
            h1 -= 1
            while h1 > 1:
                steps += 1
                if steps > max_steps:
                    return (TRIP_STEPS, 0, max_steps, peak)
                h1 -= 1
