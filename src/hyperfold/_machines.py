"""Pure-Python rewrite machines for the reference evaluators.

Each machine is an explicit work-stack loop — never native recursion — and
returns a plain status tuple ``(status, value, steps, peak_value)`` in the
protocol of :mod:`hyperfold.budget`, which defines the statuses and whose
``Meter.settle`` turns a trip into its exception.

The Ackermann and Knuth machines keep ``(level, count)`` runs, so their
memory follows the level, not the step budget.  The Conway machine takes
one iteration per rule, so counters are kept in locals and compared
against precomputed limits, with no attribute lookups or method calls in
the hot path.  The digit cap is ``max_digits`` itself: a value's bit
length against :func:`~hyperfold.budget.safe_bits`, then
:func:`~hyperfold.budget.reaches_cap`, so no machine builds
``10**max_digits`` unless a value comes within a few bits of it.
"""

from __future__ import annotations

from .budget import (
    OK,
    TRIP_MAGNITUDE,
    TRIP_STEPS,
    mul_run,
    pow_counted,
    reaches_cap,
    safe_bits,
)


def ack_machine(m0, n0, max_steps, max_digits, steps0=0):
    """Ackermann by its three rewrite equations, one step per application.

    The literal machine pops one level per equation application: level 0
    increments ``n``; level m >= 1 at ``n == 0`` sets it to 1 and pushes
    m-1; otherwise it decrements ``n`` and pushes m-1 below m.  Here the
    work stack holds ``(level, count)`` runs instead, with two rules:

    * descent: a level-m >= 2 frame at ``n`` is the next n+1 applications;
      it is charged n+1 steps at once, pushes the run ``(m-1, n+1)`` and
      sets ``n = 1``;
    * base run: c level-1 frames from ``n`` yield n + 2c in 2c(n + c)
      applications, with one step check and then one magnitude check.
      Level 0 comes only from m0 = 0 and yields n+1 in one step.

    Run levels strictly decrease from the bottom of the stack to the top,
    so it never holds more than m0 runs.  Values, success stats and step
    trip points are those of the literal machine (``tests/_oracles.py``
    keeps it as ``ack_literal_machine``), except that a trip inside a base
    run leaves the run's intermediate values out of the peak, and a
    magnitude trip reports the steps of the whole run.
    """
    steps = steps0
    n = n0
    peak = m0 if m0 > n0 else n0
    if reaches_cap(peak, max_digits):
        return (TRIP_MAGNITUDE, 0, steps, peak)
    safe = safe_bits(max_digits)
    levels = [m0]
    counts = [1]
    while levels:
        m = levels[-1]
        c = counts[-1]
        if m < 2:
            levels.pop()
            counts.pop()
            if m:
                steps += 2 * c * (n + c)
                n += 2 * c
            else:
                steps += 1
                n += 1
            if steps > max_steps:
                return (TRIP_STEPS, 0, max_steps, peak)
            if n > peak:
                peak = n
                if n.bit_length() > safe and reaches_cap(n, max_digits):
                    return (TRIP_MAGNITUDE, 0, steps, peak)
            continue
        if c == 1:
            levels.pop()
            counts.pop()
        else:
            counts[-1] = c - 1
        steps += n + 1
        if steps > max_steps:
            return (TRIP_STEPS, 0, max_steps, peak)
        levels.append(m - 1)
        counts.append(n + 1)
        n = 1  # never a new peak: peak >= m0 >= 2
    return (OK, n, steps, peak)


def knuth_machine(a, n0, b, max_steps, max_digits, steps0=0):
    """Extended up-arrow by its rewrite equations; level 0 is one multiply.

    The literal machine pops one level per equation application: level 0
    multiplies ``val`` by ``a``; level k >= 1 at ``val == 0`` sets it to 1;
    otherwise it decrements ``val`` and pushes k-1 below k.  Here the work
    stack holds ``(level, count)`` runs instead, and each rule costs one
    bounds-checked operation:

    * descent: a level-k >= 1 frame at ``val = v`` is the next v+1
      applications; it is charged v+1 steps at once, pushes the run
      ``(k-1, v)`` (nothing when v = 0) and sets ``val = 1``;
    * multiply run: a run of c level-0 frames is ``val * a**c`` in c steps,
      one :func:`~hyperfold.budget.mul_run` call, which finds its trip
      point in closed form, as the fold form's innermost fold does.

    Run levels strictly decrease from the bottom of the stack to the top
    (a pop leaves a level >= k on top and the descent pushes k-1), so a
    pushed run never meets an equal one and the stack never holds more than
    n0 + 1 runs.  Values, steps, trip kinds and peaks are exactly those of
    the literal machine, which ``tests/_oracles.py`` keeps as
    ``knuth_literal_machine`` and the tests compare against tuple for tuple.
    """
    steps = steps0
    val = b
    peak = max(a, n0, b)
    if reaches_cap(peak, max_digits):
        return (TRIP_MAGNITUDE, 0, steps, peak)
    levels = [n0]
    counts = [1]
    while levels:
        k = levels[-1]
        if k == 0:
            levels.pop()
            status, val, steps, peak = mul_run(
                val, a, counts.pop(), max_steps, max_digits, steps, peak
            )
            if status != OK:
                return (status, 0, steps, peak)
            continue
        c = counts[-1]
        if c == 1:
            levels.pop()
            counts.pop()
        else:
            counts[-1] = c - 1
        steps += val + 1
        if steps > max_steps:
            return (TRIP_STEPS, 0, max_steps, peak)
        if val:
            levels.append(k - 1)
            counts.append(val)
        val = 1  # never a new peak: peak >= n0 >= k >= 1
    return (OK, val, steps, peak)


def conway_machine(entries, max_steps, max_digits, steps0=0):
    """Chained-arrow rewriting over the reversed chain, one step per rule.

    A configuration is (h0, h1, idx): the list h0 : h1 : rev[idx:], where
    rev is the reversed chain (rewrites only ever touch the first two
    positions, so the tail is shared by index).  The general rule pushes a
    continuation frame (h0 - 1, idx) and descends into (h0, h1 - 1, idx);
    a finished sub-value v resumes the top frame as (q', v, idx').  The
    two-element base is one :func:`~hyperfold.budget.pow_counted` call,
    charged like every other power.  ``tests/_oracles.py`` keeps the
    machine as it was with a private power loop, ``conway_literal_machine``,
    and the tests compare the two tuple for tuple.
    """
    steps = steps0
    peak = 0
    for e in entries:
        if e > peak:
            peak = e
    if reaches_cap(peak, max_digits):
        return (TRIP_MAGNITUDE, 0, steps, peak)
    rev = tuple(reversed(entries))
    end = len(rev)
    if end == 0:
        steps += 1
        if steps > max_steps:
            return (TRIP_STEPS, 0, max_steps, peak)
        return (OK, 1, steps, 1 if peak < 1 else peak)
    if end == 1:
        steps += 1
        if steps > max_steps:
            return (TRIP_STEPS, 0, max_steps, peak)
        return (OK, rev[0], steps, peak)
    h0, h1, idx = rev[0], rev[1], 2
    frame_q = []
    frame_i = []
    push_q = frame_q.append
    push_i = frame_i.append
    pop_q = frame_q.pop
    pop_i = frame_i.pop
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
            if not frame_q:
                return (OK, value, steps, peak)
            h0 = pop_q()
            idx = pop_i()
            h1 = value
        elif h0 == 1 or h1 == 1:
            # a last written entry of 1 is dropped (h0 = h1), and a
            # next-to-last entry of 1 collapses the chain past it (h0 = 1,
            # which is h1): both leave h1 in front of the rest
            h0 = h1
            h1 = rev[idx]
            idx += 1
        else:
            push_q(h0 - 1)
            push_i(idx)
            h1 -= 1
