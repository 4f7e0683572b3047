"""Fold operators over naturals and sequences, plus Church numerals.

The two folds are the canonical structural-recursion operators

    foldn :: (a -> a) -> a -> Integer -> a      -- foldn g e n == g^n(e)
    foldr :: (a -> b -> b) -> b -> [a] -> b

realized as bounded loops: ``foldn`` must digest indices in the millions, so
call-stack recursion of depth ``n`` is out of the question.  ``foldn`` owns
the fold fusion law (Hutton, "A tutorial on the universality and
expressiveness of fold", JFP 1999): it runs a step's own closed form.

A Church numeral is a recursion-free stand-in for a natural number: a value
that *is* its own iterator.  ``church_fold g e x`` is just ``x`` applied to
``(g, e)``, which agrees with ``foldn g e (church_to_natural x)`` for every
constructible numeral.

Nothing here consumes budget; callers that need resource accounting wrap
their step functions (see :mod:`hyperfold.hyperops`).
"""

from __future__ import annotations

from operator import index
from typing import Callable, Sequence, TypeVar

from .budget import ConstructionLimit, value_text

A = TypeVar("A")
B = TypeVar("B")

#: Numerals deeper than this are refused by church_from_natural; the chain is
#: heap-allocated, so the bound is memory, not correctness.
DEFAULT_CHURCH_CAP = 10**6


def foldn(step: Callable[[A], A], base: A, n: int) -> A:
    """Apply ``step`` to ``base`` exactly ``n`` times, or, for a step that
    carries ``iterate(v, c)``, its c-th iterate from v charged as its c
    applications, return ``step.iterate(base, n)`` instead (fold fusion).

    foldn g e 0 == e
    foldn g e n == g (foldn g e (n - 1))   (n > 0)

    ``n`` is an ``int`` of any size (``range`` takes indices past
    ``sys.maxsize``, which a fold may reach before its step trips); a
    negative one raises ``ValueError`` and a non-``int`` ``TypeError``.
    """
    if n < 0:
        raise ValueError(f"foldn index must be non-negative, got {value_text(n)}")
    if hasattr(step, "iterate"):
        return step.iterate(base, index(n))
    acc = base
    for _ in range(n):
        acc = step(acc)
    return acc


def foldr_seq(step: Callable[[A, B], B], base: B, xs: Sequence[A]) -> B:
    """Right fold: ``step(x0, step(x1, ... step(x_last, base)))``.

    The input sequence is read from the back and never mutated.
    """
    acc = base
    for x in reversed(xs):
        acc = step(x, acc)
    return acc


class ChurchNat:
    """A natural number encoded as its own iterator.

    ``zero`` applied to ``(step, base)`` yields ``base``; each successor
    layer wraps the inner numeral's application in one more ``step``.  The
    observable contract is ``apply``: construction depth ``n`` performs
    exactly ``n`` step applications, on any carrier.

    Instances are immutable; build them with :func:`church_zero`,
    :func:`church_succ` or :func:`church_from_natural`.
    """

    __slots__ = ("_pred",)

    def __init__(self, pred: "ChurchNat | None"):
        object.__setattr__(self, "_pred", pred)

    def __setattr__(self, name, value):
        raise AttributeError("ChurchNat is immutable")

    def apply(self, step: Callable[[A], A], base: A) -> A:
        # succ(x).apply(s, z) == s(x.apply(s, z)); every layer applies the
        # same step, so walking the chain iteratively is the same function
        # without the O(depth) call stack.
        acc = base
        node = self._pred
        while node is not None:
            acc = step(acc)
            node = node._pred
        return acc


_ZERO = ChurchNat(None)


def church_zero() -> ChurchNat:
    """zero s z = z"""
    return _ZERO


def church_succ(x: ChurchNat) -> ChurchNat:
    """succ n s z = s (n s z)"""
    return ChurchNat(x)


def church_from_natural(n: int) -> ChurchNat:
    """Iterated ``church_succ``, refused past :data:`DEFAULT_CHURCH_CAP` layers."""
    if n < 0:
        raise ValueError(f"cannot encode a negative number, got {value_text(n)}")
    if n > DEFAULT_CHURCH_CAP:
        raise ConstructionLimit(
            f"numeral of depth {value_text(n)} exceeds the construction cap "
            f"{value_text(DEFAULT_CHURCH_CAP)}"
        )
    return foldn(church_succ, _ZERO, n)


def church_to_natural(x: ChurchNat) -> int:
    """toInteger n = n (+1) 0"""
    return x.apply(lambda k: k + 1, 0)


def church_fold(step: Callable[[A], A], base: A, x: ChurchNat) -> A:
    """The self-reference-free fold: the numeral applied to the generators.

    Agrees with ``foldn(step, base, church_to_natural(x))``.
    """
    return x.apply(step, base)
