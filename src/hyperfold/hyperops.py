"""Reference and fold-form evaluators for the hyperoperation hierarchy.

Each function of the hierarchy is implemented twice:

* ``*_ref`` — the self-referential rewrite equations, run on an explicit
  work-stack machine (:mod:`hyperfold._machines`) through ``Meter.run``;
* ``*_prim`` — the equivalent fold form, built from nested closures over
  :func:`hyperfold.folds.foldn` / :func:`hyperfold.folds.foldr_seq`:

      ack       = foldn (\\f -> foldn f (f 1)) (+1)
      knuth a   = foldn (\\f -> foldn f 1) (a*)
      cback     = foldr aux cpow
          where aux o k = foldn (\\f -> foldn (f . subtract 1) (k 0 o))
                                (flip k o)

  All three are one tower, :func:`_tower`: ``foldn layer gen depth x``
  with ``layer f = \\y -> foldn (step f) (start f) y``.  Ackermann passes
  ``succ`` and ``start f = f 1``, Knuth ``times_a`` and ``start f = 1``, a
  Conway carrier ``flip_base``, ``start f = k 0 o`` and ``step f = f .
  subtract 1`` (free); ``step`` is otherwise the identity.  One step is
  charged per application of a generator (``succ``, ``times_a``, ``cpow``)
  or transformer (``layer``, ``aux``) and per entry into a closure they
  build; ``times_a`` charges its own and notes the value it yields in one
  call, ``meter.spend(1, v)``, as does a Conway chain of fewer than two
  entries, whose value is one application.  ``succ`` is
  ``meter.successor()``, that same charge inlined in a plain function, so
  each application of the innermost fold is one Python call.  Fold fusion is
  ``foldn``'s own law: a generator that carries ``iterate(v, c)`` has
  ``foldn gen v c`` run in closed form, charged as its c applications.
  Only ``times_a`` has one, so ``foldn (a*) 1 x = a^x`` is one run of x
  multiplies (:func:`~hyperfold.budget.mul_run`, through ``Meter.run``)
  with the steps, peak and trip point of x entries into ``times_a``.
  A closure ``layer`` builds keeps the applications it finished and
  charges a repeat their recorded steps at once, exactly as running it
  again would (see :func:`_tower`).
  ``eval_conway_prim`` is the front end and hands its reduced chain to
  ``eval_cback_prim``.

Every evaluator of both families opens with one prologue, ``meter.take``:
it validates the call's arguments or the chain's entries in order, then
notes their maximum once, before any machine or fold runs, so the machines
take their inputs as given.  A public call that names no budget runs under
:data:`~hyperfold.budget.DEFAULT_BUDGET`.

The two families agree pointwise on every input where both finish within
budget; that agreement is this package's reason to exist, and the property
suites hammer it.

Conway chains are taken in written, left-to-right order (you type 3->3->2
as written); the reversed working order is internal.
"""

from __future__ import annotations

import contextlib
import sys
import threading
from typing import Callable, Sequence

from ._machines import ack_machine, conway_machine, knuth_machine
from .budget import (
    DEFAULT_BUDGET,
    Budget,
    ConstructionLimit,
    Meter,
    mul_run,
    pow_counted,
    value_text,
)
from .folds import foldn, foldr_seq

#: a Conway chain in written order; every entry >= 1, empty chain denotes 1
Chain = tuple[int, ...]

#: fold-form evaluation nests a few Python frames per closure layer; beyond
#: this the interpreter stack is at risk, and nothing this deep fits any
#: sane budget anyway
CLOSURE_DEPTH_LIMIT = 1200

#: kept below what an 8 MB C stack comfortably holds; depth overruns then
#: surface as RecursionError and are converted to ConstructionLimit
_RECURSION_CEILING = 12000


def _ensure_depth(depth: int, meter: Meter) -> None:
    if depth > CLOSURE_DEPTH_LIMIT:
        raise ConstructionLimit(
            f"fold form would nest {value_text(depth)} closures "
            f"(limit {CLOSURE_DEPTH_LIMIT})",
            meter.stats(),
        )


def _tower(gen, depth, x, meter, start, step=None):
    """``foldn layer gen depth x`` with ``layer f = \\y -> foldn (step f)
    (start f) y``; ``start`` maps ``f`` to the layer's base and ``step``,
    the identity by default, maps it to the folded function.

    One step is charged per application of ``layer`` and per entry into a
    function it builds.  Each such function ``g`` is pure apart from the
    meter, so it keeps the applications it finished, ``y -> (steps,
    value)`` with ``steps`` all that ``g(y)`` charged, its entry included,
    and a repeat is ``meter.spend(steps, value)`` (Michie's memo functions,
    "'Memo' functions and machine learning", Nature 1968).  That is exact:
    the repeat yields the same value after the same steps; every value it
    would hold was held before, so it sets no new peak and cannot reach the
    digit cap; if its steps pass the budget, the literal repeat trips at
    ``max_steps`` with that same peak, as ``spend`` does; and an
    application that raised leaves no entry.
    """
    _ensure_depth(depth, meter)

    def layer(f: Callable[[int], int]) -> Callable[[int], int]:
        meter.spend()
        h = f if step is None else step(f)
        done = {}

        def g(y: int) -> int:
            if y in done:
                return meter.spend(*done[y])
            before = meter.steps
            meter.spend()
            value = foldn(h, start(f), y)
            done[y] = (meter.steps - before, value)
            return value

        return g

    return foldn(layer, gen, depth)(x)


# ---------------------------------------------------------------------------
# Ackermann
# ---------------------------------------------------------------------------


def eval_ack_ref(m: int, n: int, meter: Meter) -> int:
    meter.take((("m", m), ("n", n)))
    return meter.run(ack_machine, m, n)


def eval_ack_prim(m: int, n: int, meter: Meter) -> int:
    meter.take((("m", m), ("n", n)))
    # foldn (\f -> foldn f (f 1)) (+1) m n
    return _tower(meter.successor(), m, n, meter, lambda f: f(1))


# ---------------------------------------------------------------------------
# Knuth up-arrows (extended with level 0 = multiplication)
# ---------------------------------------------------------------------------


def eval_knuth_ref(a: int, n: int, b: int, meter: Meter) -> int:
    meter.take((("a", a), ("n", n), ("b", b)))
    return meter.run(knuth_machine, a, n, b)


def eval_knuth_prim(a: int, n: int, b: int, meter: Meter) -> int:
    meter.take((("a", a), ("n", n), ("b", b)))

    def times_a(x: int) -> int:
        return meter.spend(1, a * x)

    # fold fusion: foldn (a*) v c = v * a^c, one counted run of c multiplies
    times_a.iterate = lambda v, c: meter.run(mul_run, v, a, c)
    # foldn (\f -> foldn f 1) (a*) n b
    return _tower(times_a, n, b, meter, lambda f: 1)


# ---------------------------------------------------------------------------
# Conway chained arrows
# ---------------------------------------------------------------------------


def eval_conway_ref(entries: Sequence[int], meter: Meter) -> int:
    chain = meter.take((("chain entry", e) for e in entries), least=1)
    return meter.run(conway_machine, chain)


def eval_conway_prim(entries: Sequence[int], meter: Meter) -> int:
    chain = meter.take((("chain entry", e) for e in entries), least=1)
    # front end: trivial lengths, then reverse, reduce every entry by one,
    # and hand (tail, q, p) to the fold-built back end
    if len(chain) < 2:  # one fold application yields the chain's value
        return meter.spend(1, chain[0] if chain else 1)
    _ensure_depth(len(chain), meter)
    meter.spend(len(chain))  # the subtract-one pass
    reduced = [e - 1 for e in reversed(chain)]
    return eval_cback_prim(tuple(reduced[2:]), reduced[0], reduced[1], meter)


def eval_cback_prim(
    reduced_tail: Sequence[int], q: int, p: int, meter: Meter
) -> int:
    def inputs():  # q and p are checked before the tail is read
        yield "q", q
        yield "p", p
        for e in reduced_tail:
            yield "tail entry", e

    q, p, *tail = meter.take(inputs())
    _ensure_depth(len(tail) + 2, meter)

    # foldr aux cpow over the reduced, reversed tail; carriers are binary
    # functions (q, p) -> value
    def cpow_fn(q: int, p: int) -> int:
        meter.spend()
        return meter.run(pow_counted, p + 1, q + 1)

    def aux(o: int, k: Callable[[int, int], int]) -> Callable[[int, int], int]:
        # aux o k = foldn (\f -> foldn (f . subtract 1) (k 0 o)) (flip k o)
        meter.spend()

        def flip_base(p: int) -> int:
            meter.spend()
            return k(p, o)

        def carrier(q: int, p: int) -> int:
            meter.spend()
            return _tower(
                flip_base, q, p, meter, lambda f: k(0, o), lambda f: lambda v: f(v - 1)
            )

        return carrier

    return foldr_seq(aux, cpow_fn, tail)(q, p)


def eval_cpow(q: int, p: int, meter: Meter) -> int:
    meter.take((("q", q), ("p", p)))
    return meter.run(pow_counted, p + 1, q + 1)


# ---------------------------------------------------------------------------
# public, budget-threaded entry points
# ---------------------------------------------------------------------------


_scope_lock = threading.Lock()
_scope_count = 0
_caller_limit = 0


@contextlib.contextmanager
def recursion_scope():
    """Run one evaluation under a recursion limit of at least
    ``_RECURSION_CEILING``.

    The limit is process-wide: the first evaluation to enter, in any
    thread, saves the caller's limit and raises it, and the caller's limit
    comes back when the last one ends, never under one that may still be
    nested deeper than it.
    """
    global _scope_count, _caller_limit
    with _scope_lock:
        if _scope_count == 0:
            _caller_limit = sys.getrecursionlimit()
            if _caller_limit < _RECURSION_CEILING:
                sys.setrecursionlimit(_RECURSION_CEILING)
        _scope_count += 1
    try:
        yield
    finally:
        with _scope_lock:
            _scope_count -= 1
            if _scope_count == 0:
                sys.setrecursionlimit(_caller_limit)


def run_budgeted(fn, *args, budget: Budget):
    """``fn(*args, meter)`` under one fresh meter. Returns (value, stats).

    The one runner of every public evaluation, here and in
    :mod:`hyperfold.notation`.
    """
    meter = Meter(budget)
    try:
        with recursion_scope():
            value = fn(*args, meter)
    except RecursionError:
        # compound nesting across layers can overrun the static
        # per-dimension guards; surface it as the same kind of limit
        raise ConstructionLimit(
            "evaluation exceeded the safe nesting depth", meter.stats()
        ) from None
    except (MemoryError, OverflowError):  # either way, an int too large to build
        pass  # raised below, once the traceback and the ints it holds are freed
    else:
        return value, meter.stats()
    raise ConstructionLimit("evaluation ran out of memory", meter.stats())


def ack_ref(m: int, n: int, budget: Budget = DEFAULT_BUDGET):
    """Ackermann via the rewrite equations. Returns (value, stats)."""
    return run_budgeted(eval_ack_ref, m, n, budget=budget)


def ack_prim(m: int, n: int, budget: Budget = DEFAULT_BUDGET):
    """Ackermann via the nested-fold form. Returns (value, stats)."""
    return run_budgeted(eval_ack_prim, m, n, budget=budget)


def knuth_ref(a: int, n: int, b: int, budget: Budget = DEFAULT_BUDGET):
    """a ^(n) b via the rewrite equations (level 0 = a*b)."""
    return run_budgeted(eval_knuth_ref, a, n, b, budget=budget)


def knuth_prim(a: int, n: int, b: int, budget: Budget = DEFAULT_BUDGET):
    """a ^(n) b via the nested-fold form."""
    return run_budgeted(eval_knuth_prim, a, n, b, budget=budget)


def conway_ref(chain: Sequence[int], budget: Budget = DEFAULT_BUDGET):
    """Chain value via the rewrite equations; chain in written order."""
    return run_budgeted(eval_conway_ref, chain, budget=budget)


def conway_prim(chain: Sequence[int], budget: Budget = DEFAULT_BUDGET):
    """Chain value via front-end reduction plus the fold-built back end."""
    return run_budgeted(eval_conway_prim, chain, budget=budget)


def cback_prim(
    reduced_tail: Sequence[int], q: int, p: int, budget: Budget = DEFAULT_BUDGET
):
    """The fold-built back end alone, on already reduced+reversed input."""
    return run_budgeted(eval_cback_prim, reduced_tail, q, p, budget=budget)


def cpow(q: int, p: int, budget: Budget = DEFAULT_BUDGET):
    """(p+1) ** (q+1), budget-counted. Returns (value, stats)."""
    return run_budgeted(eval_cpow, q, p, budget=budget)
