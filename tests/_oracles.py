"""Independent oracles: direct transcriptions of the defining equations.

Everything here is deliberately naive (memoized recursion straight off the
equations, Ackermann's on an explicit stack) and shares no code with the
package; expected values in the test tables were produced by these before
being frozen.  ``count_ack_steps``
additionally gives the exact number of equation applications the rewrite
evaluator must account for, ``ack_cost`` the same count in closed form
for m <= 3 at any n, ``knuth_cost`` the Knuth count from its recurrence,
``ack_prim_cost`` and ``knuth_prim_cost`` the steps the fold forms charge,
``conway_1x2_ref_cost`` and ``conway_1x2_prim_cost`` both forms' steps on
the chain 1 -> x -> 2, ``conway_ref_cost`` and ``conway_prim_cost`` on any
chain of three entries, ``conway_22qr_ref_cost`` and
``conway_22qr_prim_cost`` on the chains 2 -> 2 -> q -> r,
``conway_p1qr_ref_cost`` and ``conway_p1qr_prim_cost`` on p -> 1 -> q -> r,
``conway_p1qrs_ref_cost`` and ``conway_p1qrs_prim_cost`` on p -> 1 -> q ->
r -> s, ``conway_22qrs_ref_cost`` and ``conway_22qrs_prim_cost`` on 2 -> 2
-> q -> r -> s, ``conway_22222r_ref_cost`` and ``conway_22222r_prim_cost``
on 2 -> 2 -> 2 -> 2 -> 2 -> r,
``pow_cost`` the
multiplies of a counted power,
and ``ack_literal_machine``,
``knuth_literal_machine`` and ``conway_literal_machine`` are the unshortcut
work-stack rewriters used to pin down the production machines' accounting,
which ``machine_run`` runs under the evaluators' input rule,
and ``first_power_reaching`` the exact trip point of a multiply run.
``ack_literal_prim`` and ``knuth_literal_prim`` are the fold forms with no
shortcut at all, each its own closure tower with one closure entry per
increment or multiply; they meter the package's own ``Meter``, so their
trips, messages and stats compare exactly with ``ack_prim``'s and
``knuth_prim``'s.  ``check_law`` runs a law of the ``hyperfold.selftest``
catalogue and compares every value it yields with the oracle
``LAW_ORACLES`` gives the law.
"""

from __future__ import annotations

from functools import lru_cache, wraps
from typing import Callable

from hyperfold.budget import TRIP_MAGNITUDE, Budget, Meter, reaches_cap
from hyperfold.folds import foldn
from hyperfold.hyperops import _ensure_depth
from hyperfold.notation import Ack, ChainE, ConwayCall, Knuth, NatLit, parse

def _unrolled(equations):
    """The memoized function whose equations are ``equations``, run on an
    explicit stack: a deep expansion, such as the 10^5 nested calls of
    ``ack(4, 1)``, needs no native recursion, which CPython 3.12 and later
    bound through ``lru_cache``'s C wrapper whatever the recursion limit.

    ``equations(*args)`` is a generator: it yields the arguments of each
    call of the function it makes, is sent that call's value, and returns
    its own.  Every value is kept in one plain dict, as ``lru_cache`` would
    keep it.
    """
    memo = {}

    @wraps(equations)
    def call(*args):
        frames = []  # (arguments, equations) of each call under way
        while True:
            if args in memo:
                value = memo[args]
            else:
                frames.append((args, equations(*args)))
                value = None
            while frames:
                key, pending = frames[-1]
                try:
                    args = pending.send(value)
                    break
                except StopIteration as done:
                    value = memo[key] = done.value
                    frames.pop()
            else:
                return value

    return call


@_unrolled
def ack(m: int, n: int):
    if m == 0:
        return n + 1
    if n == 0:
        return (yield m - 1, 1)
    return (yield m - 1, (yield m, n - 1))


@lru_cache(maxsize=None)
def knuth(a: int, n: int, b: int) -> int:
    if n == 0:
        return a * b
    if b == 0:
        return 1
    return knuth(a, n - 1, knuth(a, n, b - 1))


def conway(chain) -> int:
    return _conway_rev(tuple(reversed(tuple(chain))))


@lru_cache(maxsize=None)
def _conway_rev(xs: tuple) -> int:
    if len(xs) == 0:
        return 1
    if len(xs) == 1:
        return xs[0]
    if len(xs) == 2:
        q, p = xs
        return p**q
    q, p = xs[0], xs[1]
    rest = xs[2:]
    if q == 1:
        return _conway_rev((p,) + rest)
    if p == 1:
        return _conway_rev((1,) + rest)
    inner = _conway_rev((q, p - 1) + rest)
    return _conway_rev((q - 1, inner) + rest)


@_unrolled
def count_ack_steps(m: int, n: int):
    """Equation applications in the naive expansion of ack(m, n)."""
    if m == 0:
        return 1
    if n == 0:
        return 1 + (yield m - 1, 1)
    return 1 + (yield m, n - 1) + (yield m - 1, ack(m, n - 1))


def ack_cost(m: int, n: int) -> int:
    """``count_ack_steps(m, n)`` for m <= 3 at any n, from closed forms.

    The equations cost C(0, n) = 1, C(m+1, 0) = 1 + C(m, 1) and
    C(m+1, n+1) = 1 + C(m+1, n) + C(m, A(m+1, n)), so:

    * C(1, 0) = 1 + C(0, 1) = 2 and C(1, n+1) = 2 + C(1, n), as
      C(0, _) = 1; hence C(1, n) = 2n + 2;
    * C(2, 0) = 1 + C(1, 1) = 5, and A(2, n) = 2n + 3 gives
      C(2, n+1) = 1 + C(2, n) + C(1, 2n + 3) = C(2, n) + 4n + 9; hence
      C(2, n) = 5 + sum(4k + 9 for k < n) = 2n^2 + 7n + 5;
    * C(3, 0) = 1 + C(2, 1), and A(3, k) = 2^(k+3) - 3 gives
      C(3, k+1) = 1 + C(3, k) + C(2, 2^(k+3) - 3): a sum of n terms.
    """
    if m == 0:
        return 1
    if m == 1:
        return 2 * n + 2
    if m == 2:
        return 2 * n * n + 7 * n + 5
    if m == 3:
        cost = 1 + ack_cost(2, 1)
        for k in range(n):
            cost += 1 + ack_cost(2, 2 ** (k + 3) - 3)
        return cost
    raise ValueError("closed forms are derived for m <= 3 only")


def knuth_cost(a: int, n: int, b: int) -> int:
    """The equation applications of ``knuth(a, n, b)``, the steps
    ``knuth_literal_machine`` takes, from the rewrite equations.

    Write a↑^k x for ``knuth(a, k, x)``.  A level-0 frame multiplies once:
    T(0, x) = 1.  A level-k >= 1 frame at x applies the decrement rule x
    times, each pushing a level-(k-1) frame below it, and then the rule at
    0, which sets 1: one descent of x + 1 steps.  The x level-(k-1) frames
    then run in turn from 1 = a↑^k 0, the i-th taking a↑^k i to
    a↑^(k-1) (a↑^k i) = a↑^k (i+1), so

        T(k, x) = x + 1 + sum(T(k-1, a↑^k i) for i < x),

    and T(1, x) = 2x + 1, as every level-0 frame is one step.
    """
    if n == 0:
        return 1
    if n == 1:
        return 2 * b + 1
    return b + 1 + sum(knuth_cost(a, n - 1, knuth(a, n, i)) for i in range(b))


def ack_prim_cost(m: int, n: int) -> int:
    """The steps ``ack_prim(m, n)`` charges: one per application of
    ``layer`` or ``succ`` and one per entry into a closure ``layer`` builds.

    ``foldn layer succ m`` applies ``layer`` m times, and the function it
    builds is entered at n.  Write C(k, y) for the cost of entering the
    level-k function at y.  Level 0 is ``succ``, one application:
    C(0, y) = 1.  A level-k >= 1 closure is entered once, builds its start
    ``f 1`` = A(k-1, 1) = A(k, 0) at C(k-1, 1), and then applies f y times,
    the i-th taking A(k, i) to A(k-1, A(k, i)) = A(k, i+1), so

        C(k, y) = 1 + C(k-1, 1) + sum(C(k-1, A(k, i)) for i < y),

    and the steps are m + C(m, n).  With A(1, i) = i + 2, A(2, i) = 2i + 3
    and A(3, i) = 2^(i+3) - 3:

    * C(1, y) = 1 + 1 + y = y + 2;
    * C(2, y) = 1 + 3 + sum(2i + 5 for i < y) = y^2 + 4y + 4 = (y + 2)^2;
    * C(3, y) = 1 + 9 + sum((2^(i+3) - 1)^2 for i < y).
    """

    def cost(k: int, y: int) -> int:
        if k == 0:
            return 1
        if k == 1:
            return y + 2
        if k == 2:
            return (y + 2) ** 2
        if k == 3:
            return 10 + sum((2 ** (i + 3) - 1) ** 2 for i in range(y))
        steps = sum(cost(k - 1, ack(k, i)) for i in range(y))
        return 1 + cost(k - 1, 1) + steps

    return m + cost(m, n)


def knuth_prim_cost(a: int, n: int, b: int) -> int:
    """The steps ``knuth_prim(a, n, b)`` charges: one per application of
    ``layer`` or ``times_a`` and one per entry into a closure ``layer``
    builds.

    ``foldn layer times_a n`` applies ``layer`` n times, and the function it
    builds is entered at b.  Write a↑^k x for ``knuth(a, k, x)`` and K(k, y)
    for the cost of entering the level-k function at y.  Level 0 is
    ``times_a``, one application: K(0, y) = 1.  A level-k >= 1 closure is
    entered once, starts from 1 = a↑^k 0 at no cost, and applies f y times,
    the i-th taking a↑^k i to a↑^(k-1) (a↑^k i) = a↑^k (i+1), so

        K(k, y) = 1 + sum(K(k-1, a↑^k i) for i < y),

    and the steps are n + K(n, b).  At level 1 the y multiplies are one
    fused run charged as its y applications, K(1, y) = y + 1, as the sum
    gives.
    """

    def cost(k: int, y: int) -> int:
        if k == 0:
            return 1
        if k == 1:
            return y + 1
        return 1 + sum(cost(k - 1, knuth(a, k, i)) for i in range(y))

    return n + cost(n, b)


def conway_1x2_ref_cost(x: int) -> int:
    """The steps ``conway_ref((1, x, 2))`` takes, one per rule, for x >= 1.

    The chain is 1 -> x -> 2 = 1.  The general rule, p -> q -> r = p ->
    (p -> (q - 1) -> r) -> (r - 1), fires x - 1 times, at q = x down to
    q = 2, and leaves x - 1 continuations 1 -> _ -> 1.  Then 1 -> 1 -> 2
    collapses past its entry 1, to 1 -> 1 in the machine, and its power
    1**1 is one rule: 2 steps, as a power of base 1 multiplies nothing.
    Each continuation resumes at 1 -> 1 -> 1, drops its last entry 1, and
    takes the power 1**1: 2 steps each.  So

        C(x) = (x - 1) + 2 + 2 * (x - 1) = 3x - 1.
    """
    return 3 * x - 1


def conway_1x2_prim_cost(x: int) -> int:
    """The steps ``conway_prim((1, x, 2))`` charges, for x >= 1: one per
    chain entry in the subtract-one pass, and one per application of
    ``aux``, entry into a carrier, application of ``layer`` or of
    ``flip_base``, entry into a folded function, and call of ``cpow``.

    The front end reduces the reversed chain 2, x, 1 to q = 1, p = x - 1
    and the tail (0,): 3 steps.  ``foldr aux cpow (0,)`` applies ``aux``
    once: 1 step.  The carrier is entered at (1, x - 1): 1 step, and its
    ``foldn layer flip_base 1`` applies ``layer`` once: 1 step.  The
    folded function is entered at x - 1: 1 step.  It starts from
    ``cpow(0, 0)`` = 1: 1 step, as a power of base 1 multiplies nothing.
    Each of its x - 1 applications is ``flip_base`` (1 step) calling
    ``cpow(v - 1, 0)`` = 1 (1 step).  So

        K(x) = 3 + 1 + 1 + 1 + 1 + 1 + 2 * (x - 1) = 2x + 6.
    """
    return 2 * x + 6


def _power_cost(base: int, exponent: int) -> int:
    """The multiplies a counted power ``base**exponent`` charges, exponent
    >= 1: none for a base that never grows, else :func:`pow_cost`."""
    return pow_cost(exponent) if base >= 2 else 0


def conway_ref_cost(chain) -> int:
    """The steps ``conway_ref(chain)`` takes, one per rule, for a chain
    p -> q -> r of entries >= 1.

    Write R(p, q, r) for the cost of the machine at p -> q -> r, and P(e)
    for the multiplies of the power p**e (:func:`_power_cost`).

    * Base power.  At a two-entry chain p -> e the machine takes one rule
      and P(e) multiplies.
    * The two collapses.  p -> q -> 1 drops its last entry, and p -> 1 ->
      r collapses past its 1 to p -> 1: one rule, then the base power
      p**q, so R(p, q, r) = 2 + P(q) when q = 1 or r = 1.
    * The general rule.  p -> q -> r = p -> (p -> (q - 1) -> r) -> (r - 1)
      fires q - 1 times, at q down to 2, and leaves q - 1 continuations
      p -> _ -> (r - 1).  Then p -> 1 -> r collapses to p at 2 + P(1).
      The i-th continuation resumes at p -> v_i -> (r - 1), where v_1 = p
      and v_(i+1) is its value, p -> (i + 1) -> r.  So, for q, r >= 2,

          R(p, q, r) = (q - 1) + 2 + P(1) + sum(R(p, v_i, r - 1), i < q).

    ``1 -> x -> 2`` gives ``conway_1x2_ref_cost``: (x - 1) + 2 + 2(x - 1),
    and ``2 -> 2 -> r`` gives R = 4 + R(2, 2, r - 1) from R(2, 2, 1) = 4:
    4r.  The recurrence carries the values, so it suits only chains whose
    values are small enough to build.
    """
    p, q, r = chain

    def run(q: int, r: int) -> tuple[int, int]:  # (steps, value)
        if q == 1 or r == 1:
            return 2 + _power_cost(p, q), p**q
        steps, value = q + 1 + _power_cost(p, 1), p
        for _ in range(q - 1):
            cost, value = run(value, r - 1)
            steps += cost
        return steps, value

    return run(q, r)[0]


def conway_prim_cost(chain) -> int:
    """The steps ``conway_prim(chain)`` charges, for a chain p -> q -> r of
    entries >= 1: one per chain entry in the subtract-one pass, and one per
    application of ``aux``, entry into a carrier, application of ``layer``
    or of ``flip_base``, entry into a folded function, and call of
    ``cpow``, whose power p**e adds its multiplies P(e)
    (:func:`_power_cost`).

    The front end reduces the reversed chain r, q, p to q' = r - 1, p' =
    q - 1 and the tail (p - 1,): 3 steps.  ``foldr aux cpow`` applies
    ``aux`` once, the carrier is entered at (q', p'), and its ``foldn layer
    flip_base q'`` applies ``layer`` q' times: 2 + q' steps.  Write F_k for
    the level-k function and K(k, y) for the cost of entering it at y.
    Level 0 is ``flip_base``, which calls ``cpow(y, p - 1)`` = p**(y + 1):
    K(0, y) = 2 + P(y + 1).  A level-k >= 1 function is entered once and
    starts from ``cpow(0, p - 1)`` = p at 1 + P(1); it then applies
    ``F_(k-1) . subtract 1`` y times, the i-th taking x_i to F_(k-1)(x_i -
    1), where x_0 = p and F_k(y) = p -> (y + 1) -> (k + 1).  So

        K(k, y) = 2 + P(1) + sum(K(k - 1, x_i - 1), i < y),

    and the steps are 3 + 2 + q' + K(q', p').  ``1 -> x -> 2`` gives
    ``conway_1x2_prim_cost``: 6 + 2 + 2(x - 1), and ``2 -> 2 -> r`` gives
    K(r - 1, 1) = 3 + K(r - 2, 1) from K(0, 1) = 2 + P(2) = 4, so 5 + (r -
    1) + 3(r - 1) + 4 = 4r + 5.
    """
    p, q, r = chain

    def enter(k: int, y: int) -> tuple[int, int]:  # (steps, value)
        if k == 0:
            return 2 + _power_cost(p, y + 1), p ** (y + 1)
        steps, value = 2 + _power_cost(p, 1), p
        for _ in range(y):
            cost, value = enter(k - 1, value - 1)
            steps += cost
        return steps, value

    return 3 + 2 + (r - 1) + enter(r - 1, q - 1)[0]


def conway_22qr_ref_cost(q: int, r: int) -> int:
    """The steps ``conway_ref((2, 2, q, r))`` takes, one per rule, for
    q, r >= 1, counted as in :func:`conway_ref_cost`.

    Every chain 2 -> 2 -> x is 2 -> 2 = 4, so every value the machine
    builds is 4.  Write C(q, r) for the cost at 2 -> 2 -> q -> r.

    * r = 1: the last entry 1 is dropped, one rule, and 2 -> 2 -> q costs
      4q (:func:`conway_ref_cost`), so C(q, 1) = 4q + 1.
    * r >= 2: the general rule fires q - 1 times, at q down to 2, and
      leaves q - 1 continuations 2 -> 2 -> _ -> (r - 1).  Then 2 -> 2 -> 1
      -> r collapses past its 1 to 2 -> 2 -> 1, which drops its 1, and the
      power 2**2 is one rule and P(2) = 2 multiplies: 5 steps, value 4.
      Each continuation resumes at 2 -> 2 -> 4 -> (r - 1), so

          C(q, r) = (q - 1) + 5 + (q - 1) * C(4, r - 1).

    C(4, r) = 8 + 3 * C(4, r - 1) from C(4, 1) = 17, so C(4, r) + 4 =
    3 * (C(4, r - 1) + 4) = 21 * 3^(r-1), and for r >= 2

        C(q, r) = q + 4 + (q - 1) * (7 * 3^(r-1) - 4)
                = 7 * (q - 1) * 3^(r-1) - 3q + 8,

    which r = 1 meets too: 7 * (q - 1) - 3q + 8 = 4q + 1.  So 2 -> 2 -> 2
    -> r costs 7 * 3^(r-1) + 2 and 2 -> 2 -> r -> 2 costs 18r - 13.
    """
    return 7 * (q - 1) * 3 ** (r - 1) - 3 * q + 8


def conway_22qr_prim_cost(q: int, r: int) -> int:
    """The steps ``conway_prim((2, 2, q, r))`` charges, for q, r >= 1,
    counted as in :func:`conway_prim_cost`.

    The front end reduces the reversed chain r, q, 2, 2 to q' = r - 1, p' =
    q - 1 and the tail (1, 1): 4 steps.  ``foldr aux cpow`` applies ``aux``
    twice: the inner carrier k = ``aux 1 cpow`` is 2 -> (p + 1) -> (q + 1)
    at (q, p), and the outer one is entered at (q', p') and applies
    ``layer`` q' times: 2 + 1 + q' steps.  Write K(j, y) for the cost of
    entering the outer carrier's level-j function at y.  Level 0 is
    ``flip_base``, which calls k(y, 1) = 2 -> 2 -> (y + 1) = 4; that call
    costs what :func:`conway_prim_cost` counts for the chain, 4(y + 1) + 5,
    less its front end (3) and its ``aux`` (1), so K(0, y) = 1 + 4y + 5 =
    4y + 6.  A level-j >= 1 function is entered once and starts from
    k(0, 1) = 4 at 5 steps; it then applies F_(j-1) . subtract 1 y times,
    each at 4 - 1 = 3, since every value is 4:

        K(j, y) = 6 + y * K(j - 1, 3).

    K(j, 3) + 3 = 3 * (K(j - 1, 3) + 3) from K(0, 3) = 18, so K(j, 3) =
    7 * 3^(j+1) - 3.  The steps are 4 + 3 + q' + K(q', p') = 6 + r +
    K(r - 1, q - 1), which for r >= 2 is

        12 + r + (q - 1) * (7 * 3^(r-1) - 3)
            = 7 * (q - 1) * 3^(r-1) - 3q + r + 15,

    and r = 1 meets too: 7 + 4(q - 1) + 6 = 4q + 9.  So 2 -> 2 -> 2 -> r
    costs 7 * 3^(r-1) + r + 9 and 2 -> 2 -> r -> 2 costs 18r - 4.
    """
    return 7 * (q - 1) * 3 ** (r - 1) - 3 * q + r + 15


def conway_1pqr_ref_cost(p: int, q: int, r: int) -> int:
    """The steps ``conway_ref((1, p, q, r))`` takes, one per rule, for
    p, q, r >= 1, counted as in :func:`conway_ref_cost`.

    Every chain 1 -> X is 1 -> (head of X) = 1, and a power of base 1
    multiplies nothing, so every value the machine builds is 1.

    * 1 -> p -> 1 -> r collapses past its 1 to 1 -> p -> 1, which drops
      its 1, and the power 1**p is one rule: 3 steps.  So q = 1 costs 3,
      and so does every chain 1 -> p -> 1 -> s.
    * r = 1, q >= 2: the last entry 1 is dropped, one rule, and 1 -> p ->
      q costs 3p - 1 (:func:`conway_ref_cost`: p - 1 firings, 2 rules at
      1 -> 1 -> q, and 2 at each of the p - 1 continuations 1 -> 1 ->
      (q - 1)): 3p.
    * q, r >= 2: the general rule fires q - 1 times, at q down to 2, and
      leaves q - 1 continuations 1 -> p -> _ -> (r - 1).  Then 1 -> p -> 1
      -> r costs 3, value 1, and each continuation resumes at 1 -> p -> 1
      -> (r - 1), 3 each: (q - 1) + 3 + 3(q - 1) = 4q - 1.
    """
    if q == 1:
        return 3
    if r == 1:
        return 3 * p
    return 4 * q - 1


def conway_1pqr_prim_cost(p: int, q: int, r: int) -> int:
    """The steps ``conway_prim((1, p, q, r))`` charges, for p, q, r >= 1,
    counted as in :func:`conway_prim_cost`; every value it builds is 1.

    The front end reduces the reversed chain r, q, p, 1 to q' = r - 1, p' =
    q - 1 and the tail (p - 1, 0): 4 steps.  ``foldr aux cpow`` applies
    ``aux`` twice: the inner carrier k = ``aux 0 cpow`` is 1 -> (x + 1) ->
    (y + 1) at (y, x), and the outer one is entered at (q', p') and
    applies ``layer`` q' times: 2 + 1 + q' steps.

    * The inner carrier at (y, p - 1) is entered (1 step), applies
      ``layer`` y times, and enters its level-y function at p - 1.  Level
      0 is ``flip_base`` calling ``cpow(x, 0)`` = 1: 2 steps.  A level-j >=
      1 function is entered (1 step), starts from ``cpow(0, 0)`` = 1 (1
      step), and applies its level j - 1 at 1 - 1 = 0, 2 steps, x times:
      2 + 2x.  So k(0, p - 1) costs 3, and k(y, p - 1) for y >= 1 costs
      1 + y + 2 + 2(p - 1) = y + 2p + 1.
    * The outer level 0 is ``flip_base`` calling k(x, p - 1): K(0, x) = 1
      + k(x, p - 1).  A level-j >= 1 function is entered, starts from
      k(0, p - 1) = 1 at 3 steps, and applies its level j - 1 at 0, 4
      steps, x times: K(j, x) = 4 + 4x, and K(0, 0) = 4 too.

    The steps are 4 + 3 + q' + K(q', p') = 6 + r + K(r - 1, q - 1): 10 + r
    when q = 1, 6 + 1 + 1 + (q - 1) + 2p + 1 = 8 + 2p + q when r = 1 and
    q >= 2, and 6 + r + 4q when q, r >= 2.
    """
    if q == 1:
        return 10 + r
    if r == 1:
        return 8 + 2 * p + q
    return 4 * q + 6 + r


def conway_p1qr_ref_cost(p: int, q: int, r: int) -> int:
    """The steps ``conway_ref((p, 1, q, r))`` takes, one per rule, for
    p >= 2 and q, r >= 1, counted as in :func:`conway_ref_cost`.

    Every chain p -> 1 -> X is p, and every value the machine builds is p:
    its only power is p**1, one rule and P(1) = 1 multiply.  Write C(q, r)
    for the cost at p -> 1 -> q -> r.

    * r = 1: the last entry 1 is dropped, p -> 1 -> q collapses past its 1
      to p -> 1, which drops its 1, and the power p**1: C(q, 1) = 1 + 1 +
      2 = 4.
    * q = 1: p -> 1 -> 1 -> r collapses past its 1 to p -> 1 -> 1, then
      as above: C(1, r) = 4.
    * q, r >= 2: the general rule fires q - 1 times, at q down to 2, and
      leaves q - 1 continuations p -> 1 -> _ -> (r - 1).  Then p -> 1 -> 1
      -> r costs 4, value p, and each continuation resumes at p -> 1 -> p
      -> (r - 1):

          C(q, r) = (q - 1) + 4 + (q - 1) * C(p, r - 1).

    So C(q, r) - 4 = (q - 1) * E(r), where E(r) = 5 + (p - 1) * E(r - 1)
    from E(1) = 0, which is 5 * sum((p - 1)^i, i <= r - 2):

        C(q, r) = 4 + 5 * (q - 1) * sum((p - 1)^i, i = 0 .. r - 2),

    which q = 1 and r = 1 meet too.  (At p = 1 the power 1**1 multiplies
    nothing: :func:`conway_1pqr_ref_cost`.)
    """
    return 4 + 5 * (q - 1) * sum((p - 1) ** i for i in range(r - 1))


def conway_p1qr_prim_cost(p: int, q: int, r: int) -> int:
    """The steps ``conway_prim((p, 1, q, r))`` charges, for p >= 2 and
    q, r >= 1, counted as in :func:`conway_prim_cost`; every value it
    builds is p.

    The front end reduces the reversed chain r, q, 1, p to q' = r - 1, p' =
    q - 1 and the tail (0, p - 1): 4 steps.  ``foldr aux cpow`` applies
    ``aux`` twice: the inner carrier k = ``aux (p - 1) cpow`` is p -> (x +
    1) -> (y + 1) at (y, x), and the outer one is entered at (q', p') and
    applies ``layer`` q' times: 2 + 1 + q' steps.

    * The inner carrier at (y, 0) is p -> 1 -> (y + 1) = p.  It is entered
      (1 step), applies ``layer`` y times, and enters its level-y function
      at 0.  Level 0 is ``flip_base`` calling ``cpow(0, p - 1)`` = p, and a
      level-j >= 1 function is entered and starts from ``cpow(0, p - 1)``,
      applying nothing: either way 1 + 1 + P(1) = 3 steps.  So k(y, 0)
      costs y + 4.
    * The outer level 0 is ``flip_base`` calling k(x, 0): K(0, x) = x + 5.
      A level-j >= 1 function is entered, starts from k(0, 0) = p at 4
      steps, and applies its level j - 1 at p - 1, x times: K(j, x) = 5 +
      x * A(j - 1), where A(j) = K(j, p - 1).  With A(-1) = 1 this holds
      at j = 0 too, and A(j) = 5 + (p - 1) * A(j - 1), so

          A(r - 2) = (p - 1)^(r - 1) + 5 * sum((p - 1)^i, i = 0 .. r - 2).

    The steps are 4 + 3 + q' + K(q', p') = 11 + r + (q - 1) * A(r - 2):
    10 + q + r when q = 1 or r = 1, and 19, 25, 31 for r = 2, 3, 4 at
    p = q = 2.
    """
    a = (p - 1) ** (r - 1) + 5 * sum((p - 1) ** i for i in range(r - 1))
    return 11 + r + (q - 1) * a


def conway_p1qrs_ref_cost(p: int, q: int, r: int, s: int) -> int:
    """The steps ``conway_ref((p, 1, q, r, s))`` takes, one per rule, for
    p >= 2 and q, r, s >= 1, counted as in :func:`conway_ref_cost`; every
    value the machine builds is p.  Write D(r, s) for the cost at p -> 1 ->
    q -> r -> s, C(q, r) for :func:`conway_p1qr_ref_cost` and S(r) for
    sum((p - 1)^i, i = 0 .. r - 2), so C(q, r) = 4 + 5 * (q - 1) * S(r).

    * s = 1: the last entry 1 is dropped, one rule: D(r, 1) = 1 + C(q, r)
      = 5 + 5 * (q - 1) * S(r).
    * r = 1: p -> 1 -> q -> 1 -> s collapses past its 1 to p -> 1 -> q ->
      1, which drops its 1, and p -> 1 -> q costs 3 (:func:`conway_ref_cost`
      at q = 1 or r = 1: 2 + P(1)): D(1, s) = 5.
    * r, s >= 2: the general rule fires r - 1 times, at r down to 2, and
      leaves r - 1 continuations p -> 1 -> q -> _ -> (s - 1).  Then p -> 1
      -> q -> 1 -> s costs 5, value p, and each continuation resumes at
      p -> 1 -> q -> p -> (s - 1):

          D(r, s) = (r - 1) + 5 + (r - 1) * D(p, s - 1),

      which r = 1 meets too.  So D(r, s) = 5 + (r - 1) * G(s - 1), where
      G(t) = 1 + D(p, t) = 6 + (p - 1) * G(t - 1) from G(1) = 6 + 5 * (q -
      1) * S(p), and for s >= 2

          D(r, s) = 5 + (r - 1) * (6 * S(s) + 5 * (q - 1) * S(p)
                                   * (p - 1)^(s - 2)).

    So 2 -> 1 -> 2 -> 2 -> 2 costs 16, 3 -> 1 -> 3 -> 3 -> 3 costs 161 and
    5 -> 1 -> 5 -> 5 -> 5 costs 437,245.
    """

    def geometric(n: int) -> int:  # S(n)
        return sum((p - 1) ** i for i in range(n - 1))

    if s == 1:
        return 5 + 5 * (q - 1) * geometric(r)
    rest = 5 * (q - 1) * geometric(p) * (p - 1) ** (s - 2)
    return 5 + (r - 1) * (6 * geometric(s) + rest)


def conway_p1qrs_prim_cost(p: int, q: int, r: int, s: int) -> int:
    """The steps ``conway_prim((p, 1, q, r, s))`` charges, for p >= 2 and
    q, r, s >= 1, counted as in :func:`conway_prim_cost`; every value it
    builds is p.

    The front end reduces the reversed chain s, r, q, 1, p to q' = s - 1,
    p' = r - 1 and the tail (q - 1, 0, p - 1): 5 steps.  ``foldr aux
    cpow`` applies ``aux`` three times; the middle carrier k = ``aux 0 (aux
    (p - 1) cpow)`` is p -> 1 -> (x + 1) -> (y + 1) at (y, x), and the
    outer one is entered at (q', p') and applies ``layer`` q' times: 3 + 1
    + q' steps.  A call k(y, x) costs what :func:`conway_p1qr_prim_cost`
    counts for its chain, less its front end (4) and its two ``aux`` (2):
    6 + y + x * A(y - 1), where A(j) = (p - 1)^(j + 1) + 5 * sum((p -
    1)^i, i = 0 .. j) and A(-1) = 1.

    Write K(j, x) for the cost of entering the outer carrier's level-j
    function at x.  Level 0 is ``flip_base`` calling k(x, q - 1): K(0, x)
    = 7 + x + (q - 1) * A(x - 1).  A level-j >= 1 function is entered
    once and starts from k(0, q - 1) = p at 5 + q steps; it then applies
    its level j - 1 at p - 1, x times: K(j, x) = 6 + q + x * B(j - 1),
    where B(j) = K(j, p - 1), so B(0) = 6 + p + (q - 1) * A(p - 2) and
    B(j) = 6 + q + (p - 1) * B(j - 1):

        B(j) = (p - 1)^j * B(0) + (6 + q) * sum((p - 1)^i, i = 0 .. j - 1).

    The steps are 5 + 4 + (s - 1) + K(s - 1, r - 1): 15 + r + (q - 1) *
    A(r - 2) when s = 1, and 14 + q + s + (r - 1) * B(s - 2) when s >= 2,
    so 14 + q + s whenever r = 1.  So 2 -> 1 -> 2 -> 2 -> 2 costs 32,
    3 -> 1 -> 3 -> 3 -> 3 costs 226 and 5 -> 1 -> 5 -> 5 -> 5 costs
    701,108.
    """

    def a(j: int) -> int:  # A(j)
        return (p - 1) ** (j + 1) + 5 * sum((p - 1) ** i for i in range(j + 1))

    if s == 1:
        return 15 + r + (q - 1) * a(r - 2)
    j = s - 2
    b0 = 6 + p + (q - 1) * a(p - 2)
    b = (p - 1) ** j * b0 + (6 + q) * sum((p - 1) ** i for i in range(j))
    return 14 + q + s + (r - 1) * b


def conway_2222r_ref_cost(r: int) -> int:
    """The steps ``conway_ref((2, 2, 2, 2, r))`` takes, one per rule, for
    r >= 1, counted as in :func:`conway_ref_cost`; every value is 4.

    Write D(q, r) for the cost at 2 -> 2 -> 2 -> q -> r and C(q, r) for
    :func:`conway_22qr_ref_cost`.

    * r = 1: the last entry 1 is dropped, one rule, so D(q, 1) = 1 + C(2,
      q) = 7 * 3^(q-1) + 3.  This chain is D(2, 1) = 24.
    * 2 -> 2 -> 2 -> 1 -> r collapses past its 1 to 2 -> 2 -> 2 -> 1,
      which drops its 1, and 2 -> 2 -> 2 costs 8: D(1, r) = 10.
    * q, r >= 2: the general rule fires q - 1 times and leaves q - 1
      continuations 2 -> 2 -> 2 -> _ -> (r - 1); then 2 -> 2 -> 2 -> 1 ->
      r costs 10, and each continuation resumes at 2 -> 2 -> 2 -> 4 ->
      (r - 1):

          D(q, r) = (q - 1) + 10 + (q - 1) * D(4, r - 1).

    D(4, r) = 13 + 3 * D(4, r - 1) from D(4, 1) = 192, so 2 * D(4, r) + 13
    = 397 * 3^(r-1), and for r >= 2 this chain costs D(2, r) = 11 +
    D(4, r - 1) = (397 * 3^(r-2) + 9) / 2.
    """
    if r == 1:
        return 24
    return (397 * 3 ** (r - 2) + 9) // 2


def conway_2222r_prim_cost(r: int) -> int:
    """The steps ``conway_prim((2, 2, 2, 2, r))`` charges, for r >= 1,
    counted as in :func:`conway_prim_cost`; every value is 4.

    The front end reduces the reversed chain r, 2, 2, 2, 2 to q' = r - 1,
    p' = 1 and the tail (1, 1, 1): 5 steps.  ``foldr aux cpow`` applies
    ``aux`` three times; the middle carrier k = ``aux 1 (aux 1 cpow)`` is
    2 -> 2 -> (x + 1) -> (y + 1) at (y, x), and the outer one is entered at
    (q', 1) and applies ``layer`` q' times: 3 + 1 + q' steps.  A call k(y,
    x) costs what :func:`conway_22qr_prim_cost` counts for its chain, less
    its front end (4) and its two ``aux`` (2): 7x * 3^y - 3x + y + 7.

    Write K(j, x) for the cost of entering the outer carrier's level-j
    function at x.  Level 0 is ``flip_base`` calling k(x, 1): K(0, x) = 7
    * 3^x + x + 5.  A level-j >= 1 function is entered once and starts
    from k(0, 1) = 4 at 11 steps; it then applies its level j - 1 at 4 -
    1 = 3, x times:

        K(j, x) = 12 + x * K(j - 1, 3).

    K(j, 3) + 6 = 3 * (K(j - 1, 3) + 6) from K(0, 3) = 197, so K(j, 3) =
    203 * 3^j - 6.  The steps are 5 + 4 + (r - 1) + K(r - 1, 1): 36 at r =
    1, and 8 + r + 12 + 203 * 3^(r-2) - 6 = 203 * 3^(r-2) + r + 14 for r
    >= 2.
    """
    if r == 1:
        return 36
    return 203 * 3 ** (r - 2) + r + 14


def conway_22qrs_ref_cost(q: int, r: int, s: int) -> int:
    """The steps ``conway_ref((2, 2, q, r, s))`` takes, one per rule, for
    q, r, s >= 1, counted as in :func:`conway_ref_cost`; every value is 4.

    Write E(r, s) for the cost at 2 -> 2 -> q -> r -> s and C(q, r) for
    :func:`conway_22qr_ref_cost`.

    * s = 1: the last entry 1 is dropped, one rule: E(r, 1) = 1 + C(q, r).
    * r = 1: 2 -> 2 -> q -> 1 -> s collapses past its 1 to 2 -> 2 -> q ->
      1, which drops its 1, and 2 -> 2 -> q costs 4q: E(1, s) = 4q + 2.
    * r, s >= 2: the general rule fires r - 1 times and leaves r - 1
      continuations 2 -> 2 -> q -> _ -> (s - 1); then 2 -> 2 -> q -> 1 ->
      s costs 4q + 2, and each continuation resumes at 2 -> 2 -> q -> 4 ->
      (s - 1):

          E(r, s) = (r - 1) + 4q + 2 + (r - 1) * E(4, s - 1),

      which r = 1 meets too.

    E(4, t) = 4q + 5 + 3 * E(4, t - 1) from E(4, 1) = 1 + C(q, 4) = 186q
    - 180, so 2 * E(4, t) + 4q + 5 = (376q - 355) * 3^(t-1), and for s >= 2

        E(r, s) = 4q + 2 + (r - 1) * ((376q - 355) * 3^(s-2) - 4q - 3) / 2.

    At q = r = 2 this is (397 * 3^(s-2) + 9) / 2, and at s = 1 it is
    1 + C(2, 2) = 24: :func:`conway_2222r_ref_cost`.  For fixed r and s it
    is linear in q: 2 -> 2 -> q -> 2 -> 2 costs 190q - 177.
    """
    if s == 1:
        return 1 + conway_22qr_ref_cost(q, r)
    return 4 * q + 2 + (r - 1) * ((376 * q - 355) * 3 ** (s - 2) - 4 * q - 3) // 2


def conway_22qrs_prim_cost(q: int, r: int, s: int) -> int:
    """The steps ``conway_prim((2, 2, q, r, s))`` charges, for q, r, s >= 1,
    counted as in :func:`conway_prim_cost`; every value is 4.

    The front end reduces the reversed chain s, r, q, 2, 2 to q' = s - 1,
    p' = r - 1 and the tail (q - 1, 1, 1): 5 steps.  ``foldr aux cpow``
    applies ``aux`` three times; the middle carrier k = ``aux 1 (aux 1
    cpow)`` is 2 -> 2 -> (x + 1) -> (y + 1) at (y, x), and the outer one,
    ``aux (q - 1) k``, is entered at (q', p') and applies ``layer`` q'
    times: 3 + 1 + q' steps.  A call k(y, x) costs 7x * 3^y - 3x + y + 7,
    as :func:`conway_2222r_prim_cost` counts it.

    Write K(j, x) for the cost of entering the outer carrier's level-j
    function at x.  Level 0 is ``flip_base`` calling k(x, q - 1): K(0, x) =
    1 + 7(q - 1) * 3^x - 3(q - 1) + x + 7 = 7(q - 1) * 3^x - 3q + x + 11.
    A level-j >= 1 function is entered once and starts from k(0, q - 1) =
    4 at 4q + 3 steps; it then applies its level j - 1 at 4 - 1 = 3, x
    times:

        K(j, x) = 4q + 4 + x * B(j - 1),   where B(j) = K(j, 3).

    B(0) = 186q - 175 and B(j) + 2q + 2 = 3 * (B(j - 1) + 2q + 2), so B(j)
    = (188q - 173) * 3^j - 2q - 2.  The steps are 5 + 4 + (s - 1) + K(s -
    1, r - 1): at s = 1, 9 + K(0, r - 1) = 7(q - 1) * 3^(r-1) - 3q + r +
    19, four more than :func:`conway_22qr_prim_cost` counts for 2 -> 2 ->
    q -> r (one entry, one ``aux``, one carrier entry and one
    ``flip_base``), and for s >= 2

        12 + 4q + s + (r - 1) * ((188q - 173) * 3^(s-2) - 2q - 2).

    At q = r = 2 this is 203 * 3^(s-2) + s + 14, and at s = 1 it is 36:
    :func:`conway_2222r_prim_cost`.  2 -> 2 -> q -> 2 -> 2 costs 190q -
    161.
    """
    if s == 1:
        return 7 * (q - 1) * 3 ** (r - 1) - 3 * q + r + 19
    return 12 + 4 * q + s + (r - 1) * ((188 * q - 173) * 3 ** (s - 2) - 2 * q - 2)


def conway_1pqrs_ref_cost(p: int, q: int, r: int, s: int) -> int:
    """The steps ``conway_ref((1, p, q, r, s))`` takes, one per rule, for
    p, q, r, s >= 1, counted as in :func:`conway_ref_cost`; every value is
    1, and a power of base 1 multiplies nothing.

    Write c(Y) for the cost at a chain Y.  For a prefix X of two or more
    entries, all 1-chains (so every value is 1):

    * X -> a -> 1 drops its last entry: 1 + c(X -> a).
    * X -> 1 -> b, b >= 2, collapses past its 1 to X -> 1, which drops its
      1: 2 + c(X).
    * X -> a -> b, a, b >= 2: the general rule fires a - 1 times and leaves
      a - 1 continuations X -> _ -> (b - 1).  Then X -> 1 -> b costs 2 +
      c(X), value 1, and each continuation resumes at X -> 1 -> (b - 1),
      2 + c(X) by either case above: (a - 1) + a * (2 + c(X)), which a = 1
      meets too.

    With X = 1 -> p -> q, c(X) = 2 when p = 1 or q = 1, else 3p - 1
    (:func:`conway_ref_cost`).  So s = 1 costs 1 +
    :func:`conway_1pqr_ref_cost`, and s >= 2 costs r * (3 + c(X)) - 1:
    5r - 1 when p = 1 or q = 1, else (3p + 2) * r - 1.  The same rules
    give ``conway_1pqr_ref_cost`` for r >= 2 from X = 1 -> p, c(X) = 1:
    4q - 1.
    """
    if s == 1:
        return 1 + conway_1pqr_ref_cost(p, q, r)
    if p == 1 or q == 1:
        return 5 * r - 1
    return (3 * p + 2) * r - 1


def conway_1pqrs_prim_cost(p: int, q: int, r: int, s: int) -> int:
    """The steps ``conway_prim((1, p, q, r, s))`` charges, for p, q, r, s
    >= 1, counted as in :func:`conway_prim_cost`; every value is 1.

    The front end reduces the reversed chain s, r, q, p, 1 to q' = s - 1,
    p' = r - 1 and the tail (q - 1, p - 1, 0): 5 steps.  ``foldr aux
    cpow`` applies ``aux`` three times: 3 steps.  Each ``cpow`` call has
    base 1: 1 step.  Every value is 1, so a level-j >= 1 function applies
    its level j - 1 at 1 - 1 = 0.  For a carrier ``aux o k`` entered at
    (y, x), write A = 1 + k(0, o) for entering any of its levels at 0 (a
    level-0 ``flip_base`` calls k(0, o), a level-j >= 1 function starts
    from it and applies nothing).  A level-j >= 1 function at x costs A *
    (1 + x), and level 0 at x costs 1 + k(x, o), so the call costs 1 + y
    + (1 + k(x, o) when y = 0, else A * (1 + x)).

    * k1 = ``aux 0 cpow``: A = 2, k1(0, x) = 3 and k1(y, x) = 3 + y + 2x.
    * k2 = ``aux (p - 1) k1``: A = 4, k2(0, 0) = 5, k2(0, x) = x + 2p + 3
      for x >= 1, and k2(y, x) = 5 + y + 4x for y >= 1.  The steps of
      :func:`conway_1pqr_prim_cost` are 4 + 2 + k2(r - 1, q - 1).
    * The outer carrier ``aux (q - 1) k2`` at (s - 1, r - 1): A = 1 + k2(0,
      q - 1), 6 when q = 1, else q + 2p + 3.

    The steps are 8 + the outer call: at s = 1, 10 + k2(r - 1, q - 1),
    four more than ``conway_1pqr_prim_cost`` (one entry, one ``aux``, one
    carrier entry and one ``flip_base``), and for s >= 2, 8 + s + r * A.
    """
    if s == 1:
        return 4 + conway_1pqr_prim_cost(p, q, r)
    return 8 + s + r * (6 if q == 1 else q + 2 * p + 3)


def conway_22222r_ref_cost(r: int) -> int:
    """The steps ``conway_ref((2, 2, 2, 2, 2, r))`` takes, one per rule, for
    r >= 1, counted as in :func:`conway_ref_cost`; every value is 4.

    Write F(q, r) for the cost at 2 -> 2 -> 2 -> 2 -> q -> r and D(q) for
    :func:`conway_2222r_ref_cost`.

    * r = 1: the last entry 1 is dropped, one rule: F(q, 1) = 1 + D(q).
      This chain is F(2, 1) = 1 + 203 = 204.
    * 2 -> 2 -> 2 -> 2 -> 1 -> r collapses past its 1 to 2 -> 2 -> 2 -> 2
      -> 1, which drops its 1, and 2 -> 2 -> 2 -> 2 costs 23: F(1, r) =
      25.
    * q, r >= 2: the general rule fires q - 1 times and leaves q - 1
      continuations 2 -> 2 -> 2 -> 2 -> _ -> (r - 1); then 2 -> 2 -> 2 -> 2
      -> 1 -> r costs 25, and each continuation resumes at 2 -> 2 -> 2 ->
      2 -> 4 -> (r - 1):

          F(q, r) = (q - 1) + 25 + (q - 1) * F(4, r - 1).

    F(4, t) = 28 + 3 * F(4, t - 1) from F(4, 1) = 1 + D(4) = 1792, so F(4,
    t) + 14 = 1806 * 3^(t-1), and for r >= 2 this chain costs F(2, r) = 26
    + F(4, r - 1) = 1806 * 3^(r-2) + 12.
    """
    if r == 1:
        return 204
    return 1806 * 3 ** (r - 2) + 12


def conway_22222r_prim_cost(r: int) -> int:
    """The steps ``conway_prim((2, 2, 2, 2, 2, r))`` charges, for r >= 1,
    counted as in :func:`conway_prim_cost`; every value is 4.

    The front end reduces the reversed chain r, 2, 2, 2, 2, 2 to q' = r -
    1, p' = 1 and the tail (1, 1, 1, 1): 6 steps.  ``foldr aux cpow``
    applies ``aux`` four times; the middle carrier k = ``aux 1 (aux 1 (aux
    1 cpow))`` is 2 -> 2 -> 2 -> (x + 1) -> (y + 1) at (y, x), and the outer
    one is entered at (q', 1) and applies ``layer`` q' times: 4 + 1 + q'
    steps.  A call k(y, x) costs what :func:`conway_22qrs_prim_cost` counts
    for its chain, less its front end (5) and its three ``aux`` (3): 7 *
    3^x + x + 6 at y = 0, else 13 + y + x * (203 * 3^(y-1) - 6).

    Write K(j, x) for the cost of entering the outer carrier's level-j
    function at x.  Level 0 is ``flip_base`` calling k(x, 1): K(0, x) = 1 +
    k(x, 1), 203 * 3^(x-1) + x + 8 for x >= 1.  A level-j >= 1 function is
    entered once and starts from k(0, 1) = 4 at 29 steps; it then applies
    its level j - 1 at 4 - 1 = 3, x times:

        K(j, x) = 29 + x * K(j - 1, 3).

    2 * K(j, 3) + 29 = 3 * (2 * K(j - 1, 3) + 29) from K(0, 3) = 1838, so
    2 * K(j, 3) + 29 = 3705 * 3^j.  The steps are 6 + 5 + (r - 1) + K(r -
    1, 1): 11 + K(0, 1) = 223 at r = 1, and 39 + r + K(r - 2, 3) = (3705 *
    3^(r-2) + 49) / 2 + r for r >= 2.
    """
    if r == 1:
        return 223
    return (3705 * 3 ** (r - 2) + 49) // 2 + r


def first_power_reaching(val, a, mag_limit):
    """The least j >= 1 with ``val * a**j >= mag_limit``, and that product,
    for a >= 2 and 1 <= val < mag_limit.

    A bisection on exact integer powers, with no float and no estimate:
    ``a**(2**k)`` is squared up until ``val * a**(2**k)`` reaches the limit,
    so the last j below it is less than ``2**k``; then each bit of that j,
    from the top, is kept iff the product with it stays below the limit.
    """
    squares = [a]  # a**(2**i)
    while val * squares[-1] < mag_limit:
        squares.append(squares[-1] * squares[-1])
    j, below = 0, val
    for i in reversed(range(len(squares) - 1)):
        product = below * squares[i]
        if product < mag_limit:
            j, below = j + (1 << i), product
    return (j + 1, below * a)


def ack_literal_machine(m0, n0, max_steps, mag_limit, steps0=0):
    """The unshortcut rewrite machine: every equation application is one
    loop iteration.  The status-tuple protocol of the production
    ``ack_machine``, whose ``max_digits`` argument is ``mag_limit`` here, the
    cap's power ``10**max_digits``."""
    steps = steps0
    n = n0
    peak = max(m0, n0)
    if peak >= mag_limit:
        return (2, 0, steps, peak)
    stack = [m0]
    while stack:
        m = stack.pop()
        steps += 1
        if steps > max_steps:
            return (1, 0, max_steps, peak)
        if m == 0:
            n += 1
            if n > peak:
                peak = n
                if n >= mag_limit:
                    return (2, 0, steps, peak)
        elif n == 0:
            n = 1
            stack.append(m - 1)
        else:
            n -= 1
            stack.append(m - 1)
            stack.append(m)
    return (0, n, steps, peak)


def knuth_literal_machine(a, n0, b, max_steps, mag_limit, steps0=0):
    """The unshortcut Knuth rewrite machine: one loop iteration and one
    stack slot per equation application.  The status-tuple protocol of the
    production ``knuth_machine``, whose ``max_digits`` argument is
    ``mag_limit`` here, the cap's power ``10**max_digits``."""
    steps = steps0
    val = b
    peak = max(a, n0, b)
    if peak >= mag_limit:
        return (2, 0, steps, peak)
    stack = [n0]
    pop = stack.pop
    push = stack.append
    while stack:
        k = pop()
        steps += 1
        if steps > max_steps:
            return (1, 0, max_steps, peak)
        if k == 0:
            val = a * val
            if val > peak:
                peak = val
                if val >= mag_limit:
                    return (2, 0, steps, peak)
        elif val == 0:
            val = 1
            if peak < 1:
                peak = 1
        else:
            val -= 1
            push(k - 1)
            push(k)
    return (0, val, steps, peak)


def _literal_pow(base, exponent, max_steps, mag_limit, steps, peak):
    """Square-and-multiply, one step per multiply, failing fast exactly when
    ``base**exponent >= mag_limit``.  The power is at least ``2**(exponent *
    (b - 1))`` for a b-bit base, so it is over, and never built, once
    ``exponent * (b - 1)`` reaches the bit length of ``mag_limit``; any
    other has fewer than ``b / (b - 1)`` times that many bits, and is built
    and compared."""
    if exponent == 0:
        return (0, 1, steps, peak)
    if base <= 1:
        return (0, base, steps, peak)
    if exponent * (base.bit_length() - 1) >= mag_limit.bit_length():
        return (2, 0, steps, peak)
    if base**exponent >= mag_limit:
        return (2, 0, steps, peak)
    result = 1
    square = base
    e = exponent
    while True:
        if e & 1:
            steps += 1
            if steps > max_steps:
                return (1, 0, max_steps, peak)
            result *= square
            if result > peak:
                peak = result
        e >>= 1
        if e == 0:
            return (0, result, steps, peak)
        steps += 1
        if steps > max_steps:
            return (1, 0, max_steps, peak)
        square *= square
        if square > peak:
            peak = square


def pow_cost(exponent: int) -> int:
    """The multiplies ``_literal_pow`` charges for a power it builds, for
    exponent >= 1.

    Its loop visits the exponent's bits from the lowest.  A set bit costs
    one product, ``result *= square``: ``exponent.bit_count()`` of them.
    Every shift that leaves the exponent nonzero costs one square, ``square
    *= square``, and the loop shifts ``exponent.bit_length()`` times, the
    last to zero: ``bit_length - 1`` squares.  This is the binary method's
    count, λ(e) + ν(e) (Knuth, TAOCP vol. 2, §4.6.3).
    """
    return exponent.bit_length() - 1 + exponent.bit_count()


def machine_run(machine, *args, steps0=0):
    """A production machine run as the reference evaluators run it:
    ``machine(*args, steps0, peak)``, where ``args`` are the machine's
    inputs (a chain as one tuple), then ``max_steps, max_digits``.  The
    machines take their inputs under the evaluators' input rule
    (``Meter.take``): the peak is the largest input, and one at
    or over the cap is the literal machines' own over-cap tuple
    ``(TRIP_MAGNITUDE, 0, steps0, peak)``, before any rule runs."""
    *inputs, max_steps, max_digits = args
    values = [v for x in inputs for v in (x if isinstance(x, tuple) else (x,))]
    peak = max(values, default=0)
    if reaches_cap(peak, max_digits):
        return (TRIP_MAGNITUDE, 0, steps0, peak)
    return machine(*args, steps0, peak)


def conway_literal_machine(entries, max_steps, mag_limit, steps0=0):
    """The Conway rewrite machine with a frame per general-rule firing and a
    magnitude check after every power.  The status-tuple protocol of the
    production ``conway_machine``, whose ``max_digits`` argument is
    ``mag_limit`` here, the cap's power ``10**max_digits``."""
    steps = steps0
    peak = 0
    for e in entries:
        if e > peak:
            peak = e
    if peak >= mag_limit:
        return (2, 0, steps, peak)
    rev = tuple(reversed(entries))
    end = len(rev)
    if end == 0:
        steps += 1
        if steps > max_steps:
            return (1, 0, max_steps, peak)
        return (0, 1, steps, 1 if peak < 1 else peak)
    if end == 1:
        steps += 1
        if steps > max_steps:
            return (1, 0, max_steps, peak)
        return (0, rev[0], steps, peak)
    h0, h1, idx = rev[0], rev[1], 2
    frame_q = []
    frame_i = []
    while True:
        steps += 1
        if steps > max_steps:
            return (1, 0, max_steps, peak)
        if idx == end:
            # two-element base: reversed [q, p] denotes p^q
            status, value, steps, peak = _literal_pow(
                h1, h0, max_steps, mag_limit, steps, peak
            )
            if status != 0:
                return (status, 0, steps, peak)
            if value >= mag_limit:
                return (2, 0, steps, peak)
            if not frame_q:
                return (0, value, steps, peak)
            h0 = frame_q.pop()
            idx = frame_i.pop()
            h1 = value
        elif h0 == 1:
            # last written entry is 1: drop it
            h0 = h1
            h1 = rev[idx]
            idx += 1
        elif h1 == 1:
            # next-to-last written entry is 1: chain collapses past it
            h0 = 1
            h1 = rev[idx]
            idx += 1
        else:
            frame_q.append(h0 - 1)
            frame_i.append(idx)
            h1 -= 1


def ack_literal_prim(m: int, n: int, meter: Meter) -> int:
    """``foldn (\\f -> foldn f (f 1)) (+1) m n`` with every increment its own
    closure entry.  Same evaluator signature as ``eval_ack_prim``; run it
    with ``run_budgeted``."""
    meter.take((("m", m), ("n", n)))
    _ensure_depth(m, meter)

    def succ(x: int) -> int:
        meter.spend()
        v = x + 1
        meter.spend(0, v)
        return v

    def layer(f: Callable[[int], int]) -> Callable[[int], int]:
        # \f -> foldn f (f 1)
        meter.spend()

        def g(x: int) -> int:
            meter.spend()
            return foldn(f, f(1), x)

        return g

    return foldn(layer, succ, m)(n)


def knuth_literal_prim(a: int, n: int, b: int, meter: Meter) -> int:
    """``foldn (\\f -> foldn f 1) (a*) n b`` with every multiply its own
    closure entry.  Same evaluator signature as ``eval_knuth_prim``; run it
    with ``run_budgeted``."""
    meter.take((("a", a), ("n", n), ("b", b)))
    _ensure_depth(n, meter)

    def times_a(x: int) -> int:
        meter.spend()
        v = a * x
        meter.spend(0, v)
        return v

    def layer(f: Callable[[int], int]) -> Callable[[int], int]:
        # \f -> foldn f 1
        meter.spend()

        def g(x: int) -> int:
            meter.spend()
            return foldn(f, 1, x)

        return g

    return foldn(layer, times_a, n)(b)


def expr_value(expr) -> int:
    """The value of a parsed expression, node by node, by the oracles above."""
    match expr:
        case NatLit(value):
            return value
        case Ack(m, n):
            return ack(expr_value(m), expr_value(n))
        case Knuth(a, level, b):
            return knuth(expr_value(a), expr_value(level), expr_value(b))
        case ChainE(items) | ConwayCall(items):
            return conway([expr_value(item) for item in items])
    raise TypeError(f"not an expression: {expr!r}")


#: the value of each public call a catalogue case names, by its arguments
CALLS = {
    "ack_ref": ack,
    "ack_prim": ack,
    "knuth_ref": knuth,
    "knuth_prim": knuth,
    "conway_ref": conway,
    "conway_prim": conway,
    # cback_prim(tail, q, p) is the written chain the front end reduced:
    # the tail reversed, then p and q, each entry one more
    "cback_prim": lambda tail, q, p: conway(
        [x + 1 for x in reversed(tail)] + [p + 1, q + 1]
    ),
    "cpow": lambda q, p: (p + 1) ** (q + 1),
    "evaluate": lambda text, _form: expr_value(parse(text)),
}

#: foldn g e n in closed form, for each step family g the fold laws sample
FOLDN_CLOSED_FORMS = {
    "+1": lambda _k, e, n: e + n,
    "+k": lambda k, e, n: e + k * n,
    "*2": lambda _k, e, n: e * 2**n,
    "*3": lambda _k, e, n: e * 3**n,
}


def _called(case):
    return CALLS[case[0]](*case[1])


def _folded(case):
    return FOLDN_CLOSED_FORMS[case[0]](*case[1:])


#: for each catalogue law whose values have an oracle, the value a case must
#: yield; the laws over foldr, Church numerals, parse trees and text have none
LAW_ORACLES = {
    "ack-values": _called,
    "knuth-values": _called,
    "conway-values": _called,
    "back-end-values": _called,
    "evaluate-values": _called,
    "budget-monotonicity": _called,
    "determinism": _called,
    "foldn-universal-property": _folded,
    "fold-equivalence": _folded,
    "ack-agreement": lambda case: ack(*case),
    "ack-recurrences": lambda case: ack(*case),
    "knuth-agreement": lambda case: knuth(*case),
    "knuth-recurrences": lambda case: knuth(*case),
    "conway-agreement": conway,
    "chain-collapse": lambda case: conway(case[1]),
    "chain-arrow-correspondence": lambda case: knuth(case[0], case[2], case[1]),
    "ack-knuth-bridge": lambda case: knuth(2, case[0], case[1] + 3) - 3,
}


def check_law(law, budget: Budget = Budget()) -> list:
    """Run every case of a catalogue law, comparing each value it yields
    with the law's oracle; a case on which both forms trip a limit yields
    None and has no value to compare.  Returns the values, case by case."""
    oracle = LAW_ORACLES.get(law.name)
    values = []
    for case in law.cases:
        value = law.check(case, budget)
        if oracle is not None and value is not None:
            assert value == oracle(case), (law.name, case)
        values.append(value)
    return values
