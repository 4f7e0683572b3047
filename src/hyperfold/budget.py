"""Resource budgets, consumption stats and the error taxonomy.

Every evaluator in this package is total only because it is budgeted: a step
budget bounds how many rewrite/fold/arithmetic operations may run, and a
digit budget bounds how large any intermediate value may grow.  The charging
rules, shared by every evaluator:

* one step per reference-equation rewrite,
* one step per fold-generator application (closure entry in the fold forms),
* one step per big-integer multiplication inside an exponentiation,
* any produced value with more than ``max_digits`` decimal digits aborts.

``peak_digits`` is the decimal size of the largest value held at any point
during the evaluation, inputs included.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

_LOG10_2_NUM = 30103  # log10(2) ~= 30103/100000, used for a first digit guess
_LOG10_2_DEN = 100000


@dataclass(frozen=True)
class Budget:
    """Resource limits threaded through every evaluation."""

    max_steps: int = 10**7
    max_digits: int = 10**5

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.max_digits < 1:
            raise ValueError("max_digits must be >= 1")


@dataclass(frozen=True)
class EvalStats:
    """What an evaluation actually consumed."""

    steps_used: int = 0
    peak_digits: int = 0

    def combined(self, other: "EvalStats") -> "EvalStats":
        return EvalStats(
            steps_used=self.steps_used + other.steps_used,
            peak_digits=max(self.peak_digits, other.peak_digits),
        )


class HyperError(Exception):
    """Base class for evaluation failures; carries the stats at abort time."""

    kind = "error"

    def __init__(self, detail: str, stats: EvalStats | None = None):
        super().__init__(detail)
        self.detail = detail
        self.stats = stats if stats is not None else EvalStats()


class BudgetExceeded(HyperError):
    kind = "budget"


class MagnitudeExceeded(HyperError):
    kind = "magnitude"


class DomainError(HyperError):
    kind = "domain"


class ConstructionLimit(HyperError):
    kind = "construction"


def decimal_digits(value: int) -> int:
    """Exact count of decimal digits of a non-negative integer."""
    if value < 0:
        raise ValueError("decimal_digits is defined for non-negative values")
    if value == 0:
        return 1
    guess = ((value.bit_length() - 1) * _LOG10_2_NUM) // _LOG10_2_DEN
    while _pow10(guess) > value:
        guess -= 1
    while _pow10(guess + 1) <= value:
        guess += 1
    return guess + 1


#: powers of ten kept for decimal_digits: bounded, so that a long session
#: holds the sizes it saw last, not every size it ever saw
_POW10_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_POW10_CACHE_SIZE)
def _pow10(e: int) -> int:
    return 10**e


#: every Meter asks for its budget's limit (10**100000 by default, ~5 ms to
#: build), so those few are kept apart from the churn of decimal_digits
@functools.lru_cache(maxsize=4)
def magnitude_limit(max_digits: int) -> int:
    """Smallest value with more than ``max_digits`` digits."""
    return 10**max_digits


def count_text(n: int) -> str:
    """A count for an error message: in full when short, else by its digit
    count, so that no message renders an int past the int->str cap."""
    digits = decimal_digits(n)
    return str(n) if digits <= 18 else f"a {digits}-digit number of"


def _lift_str_digits_cap(need: int) -> None:
    """Raise the interpreter's int<->str digit cap to at least ``need``.

    A current cap of 0 means no cap, and is left alone.
    """
    limit_fn = getattr(sys, "set_int_max_str_digits", None)
    if limit_fn is not None:
        current = sys.get_int_max_str_digits()
        if 0 < current < need:
            limit_fn(need)


def int_to_decimal(value: int) -> str:
    """Plain decimal rendering, lifting the interpreter's int->str cap."""
    _lift_str_digits_cap(decimal_digits(value) + 10)
    return str(value)


def decimal_to_int(text: str) -> int:
    """Parse a decimal digit run, lifting the interpreter's str->int cap."""
    _lift_str_digits_cap(len(text) + 10)
    return int(text)


class Meter:
    """Mutable consumption counter for one evaluation run.

    The hot rewrite machines keep local counters and sync in bulk; the
    closure-based fold evaluators charge through this object directly.
    """

    __slots__ = ("max_steps", "max_digits", "mag_limit", "steps", "peak")

    def __init__(self, budget: Budget):
        self.max_steps = budget.max_steps
        self.max_digits = budget.max_digits
        self.mag_limit = magnitude_limit(budget.max_digits)
        self.steps = 0
        self.peak = 0

    def spend(self, k: int = 1) -> None:
        steps = self.steps + k
        if steps > self.max_steps:
            self.steps = self.max_steps
            raise BudgetExceeded(
                f"step budget exhausted (max_steps={self.max_steps})",
                self.stats(),
            )
        self.steps = steps

    def note(self, value: int) -> None:
        if value > self.peak:
            self.peak = value
            if value >= self.mag_limit:
                raise MagnitudeExceeded(
                    f"value exceeds {self.max_digits} digits "
                    f"(max_digits={self.max_digits})",
                    self.stats(),
                )

    def stats(self) -> EvalStats:
        return EvalStats(steps_used=self.steps, peak_digits=decimal_digits(self.peak))


def checked_pow(base: int, exponent: int, meter: Meter) -> int:
    """``base ** exponent`` by square-and-multiply, one step per multiply.

    Fails fast with :class:`MagnitudeExceeded` when the digit-count bound
    ``exponent * digits(base)`` already exceeds the budget, so doomed giants
    are never allocated.  The bound is exact for bases 0 and 1.
    """
    if base < 0 or exponent < 0:
        raise DomainError("checked_pow needs non-negative operands", meter.stats())
    if exponent == 0:
        meter.note(1)
        return 1
    if base <= 1:
        meter.note(base)
        return base
    estimate = exponent * decimal_digits(base)
    if estimate > meter.max_digits:
        raise MagnitudeExceeded(
            f"power would reach up to {count_text(estimate)} digits "
            f"(max_digits={meter.max_digits})",
            meter.stats(),
        )
    result = 1
    square = base
    e = exponent
    while True:
        if e & 1:
            meter.spend()
            result *= square
            meter.note(result)
        e >>= 1
        if e == 0:
            return result
        meter.spend()
        square *= square
        meter.note(square)
