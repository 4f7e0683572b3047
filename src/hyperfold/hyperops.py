"""Reference and fold-form evaluators for the hyperoperation hierarchy.

Each function of the hierarchy is implemented twice:

* ``*_ref`` — the self-referential rewrite equations, run on an explicit
  work-stack machine (:mod:`hyperfold._machines`);
* ``*_prim`` — the equivalent fold form, built from nested closures over
  :func:`hyperfold.folds.foldn` / :func:`hyperfold.folds.foldr_seq`:

      ack       = foldn (\\f -> foldn f (f 1)) (+1)
      knuth a   = foldn (\\f -> foldn f 1) (a*)
      cback     = foldr aux cpow
          where aux o k = foldn aux2 (flip k o)
                  where aux2 f = foldn (f . subtract 1) (k 0 o)

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
    Budget,
    ConstructionLimit,
    DomainError,
    Meter,
    checked_pow,
    count_text,
)
from .folds import foldn, foldr_seq

#: a Conway chain in written order; every entry >= 1, empty chain denotes 1
Chain = tuple[int, ...]

DEFAULT_BUDGET = Budget()

#: fold-form evaluation nests a few Python frames per closure layer; beyond
#: this the interpreter stack is at risk, and nothing this deep fits any
#: sane budget anyway
CLOSURE_DEPTH_LIMIT = 1200

#: kept below what an 8 MB C stack comfortably holds; depth overruns then
#: surface as RecursionError and are converted to ConstructionLimit
_RECURSION_CEILING = 12000


def _require_natural(name: str, value, meter: Meter) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise DomainError(f"{name} must be a non-negative integer", meter.stats())
    return value


def _ensure_depth(depth: int, meter: Meter) -> None:
    if depth > CLOSURE_DEPTH_LIMIT:
        raise ConstructionLimit(
            f"fold form would nest {count_text(depth)} closures "
            f"(limit {CLOSURE_DEPTH_LIMIT})",
            meter.stats(),
        )
    if sys.getrecursionlimit() < _RECURSION_CEILING:
        sys.setrecursionlimit(_RECURSION_CEILING)


# ---------------------------------------------------------------------------
# Ackermann
# ---------------------------------------------------------------------------


def eval_ack_ref(m: int, n: int, meter: Meter) -> int:
    m = _require_natural("m", m, meter)
    n = _require_natural("n", n, meter)
    return meter.settle(
        ack_machine(m, n, meter.max_steps, meter.mag_limit, meter.steps)
    )


def eval_ack_prim(m: int, n: int, meter: Meter) -> int:
    m = _require_natural("m", m, meter)
    n = _require_natural("n", n, meter)
    meter.note(m)
    meter.note(n)
    _ensure_depth(m, meter)

    def succ(x: int) -> int:
        meter.spend()
        v = x + 1
        meter.note(v)
        return v

    h = succ
    remaining = m
    while remaining > 0:
        remaining -= 1
        meter.spend()  # one application of the closure transformer
        h = _ack_layer(h, meter)
    return h(n)


def _ack_layer(f: Callable[[int], int], meter: Meter) -> Callable[[int], int]:
    # \f -> foldn f (f 1)
    def g(x: int) -> int:
        meter.spend()
        return foldn(f, f(1), x)

    return g


# ---------------------------------------------------------------------------
# Knuth up-arrows (extended with level 0 = multiplication)
# ---------------------------------------------------------------------------


def eval_knuth_ref(a: int, n: int, b: int, meter: Meter) -> int:
    a = _require_natural("a", a, meter)
    n = _require_natural("n", n, meter)
    b = _require_natural("b", b, meter)
    return meter.settle(
        knuth_machine(a, n, b, meter.max_steps, meter.mag_limit, meter.steps)
    )


def eval_knuth_prim(a: int, n: int, b: int, meter: Meter) -> int:
    a = _require_natural("a", a, meter)
    n = _require_natural("n", n, meter)
    b = _require_natural("b", b, meter)
    meter.note(a)
    meter.note(b)
    meter.note(n)
    _ensure_depth(n, meter)

    def times_a(x: int) -> int:
        meter.spend()
        v = a * x
        meter.note(v)
        return v

    h = times_a
    remaining = n
    while remaining > 0:
        remaining -= 1
        meter.spend()
        h = _knuth_layer(h, meter)
    return h(b)


def _knuth_layer(f: Callable[[int], int], meter: Meter) -> Callable[[int], int]:
    # \f -> foldn f 1
    def g(x: int) -> int:
        meter.spend()
        return foldn(f, 1, x)

    return g


# ---------------------------------------------------------------------------
# Conway chained arrows
# ---------------------------------------------------------------------------


def _checked_chain(entries: Sequence[int], meter: Meter) -> Chain:
    chain = tuple(entries)
    for e in chain:
        if not isinstance(e, int) or isinstance(e, bool) or e < 1:
            raise DomainError(
                f"chain entries must be integers >= 1, got {e!r}", meter.stats()
            )
    return chain


def eval_conway_ref(entries: Sequence[int], meter: Meter) -> int:
    chain = _checked_chain(entries, meter)
    return meter.settle(
        conway_machine(
            chain, meter.max_steps, meter.mag_limit, meter.max_digits, meter.steps
        )
    )


def eval_conway_prim(entries: Sequence[int], meter: Meter) -> int:
    chain = _checked_chain(entries, meter)
    for e in chain:
        meter.note(e)
    # front end: trivial lengths, then reverse, reduce every entry by one,
    # and hand (tail, q, p) to the fold-built back end
    if len(chain) == 0:
        meter.spend()
        meter.note(1)
        return 1
    if len(chain) == 1:
        meter.spend()
        return chain[0]
    _ensure_depth(len(chain), meter)
    meter.spend(len(chain))  # the subtract-one pass
    reduced = [e - 1 for e in reversed(chain)]
    q, p, tail = reduced[0], reduced[1], tuple(reduced[2:])
    back = _build_cback(tail, meter)
    return back(q, p)


def eval_cback_prim(
    reduced_tail: Sequence[int], q: int, p: int, meter: Meter
) -> int:
    q = _require_natural("q", q, meter)
    p = _require_natural("p", p, meter)
    tail = tuple(reduced_tail)
    for e in tail:
        _require_natural("tail entry", e, meter)
        meter.note(e)
    meter.note(q)
    meter.note(p)
    _ensure_depth(len(tail) + 2, meter)
    back = _build_cback(tail, meter)
    return back(q, p)


def _build_cback(tail: Chain, meter: Meter):
    # foldr aux cpow over the reduced, reversed tail; carriers are binary
    # functions (q, p) -> value
    def cpow_fn(q: int, p: int) -> int:
        meter.spend()
        return checked_pow(p + 1, q + 1, meter)

    def aux(o: int, k) -> Callable[[int, int], int]:
        meter.spend()
        return _conway_layer(o, k, meter)

    return foldr_seq(aux, cpow_fn, tail)


def _conway_layer(o: int, k, meter: Meter):
    # aux o k = foldn aux2 (flip k o)
    def layer(q: int, p: int) -> int:
        meter.spend()
        _ensure_depth(q, meter)

        def flip_base(p2: int) -> int:
            meter.spend()
            return k(p2, o)

        g = flip_base
        remaining = q
        while remaining > 0:
            remaining -= 1
            meter.spend()
            g = _conway_inner(g, k, o, meter)
        return g(p)

    return layer


def _conway_inner(f: Callable[[int], int], k, o: int, meter: Meter):
    # aux2 f = foldn (f . subtract 1) (k 0 o)
    def f_pred(v: int) -> int:
        return f(v - 1)

    def h(p: int) -> int:
        meter.spend()
        return foldn(f_pred, k(0, o), p)

    return h


# ---------------------------------------------------------------------------
# public, budget-threaded entry points
# ---------------------------------------------------------------------------


_scope_lock = threading.Lock()
_scope_count = 0
_caller_limit = 0


@contextlib.contextmanager
def recursion_scope():
    """Run one evaluation, during which ``_ensure_depth`` may raise the
    recursion limit.

    The limit is process-wide, so the caller's limit comes back when the
    last evaluation running in any thread ends, never under one that may
    still be nested deeper than it.
    """
    global _scope_count, _caller_limit
    with _scope_lock:
        if _scope_count == 0:
            _caller_limit = sys.getrecursionlimit()
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
    return value, meter.stats()


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
    meter = Meter(budget)
    q = _require_natural("q", q, meter)
    p = _require_natural("p", p, meter)
    meter.note(q)
    meter.note(p)
    value = checked_pow(p + 1, q + 1, meter)
    return value, meter.stats()
