"""Resource budgets, the charging rules, and the error taxonomy.

Every evaluator in this package is total only because it is budgeted: a step
budget bounds how many rewrite/fold/arithmetic operations may run, and a
digit budget bounds how large any intermediate value may grow.  This module
owns the charging rules, shared by every evaluator of both families:

* one step per reference-equation rewrite,
* one step per fold-generator application (closure entry in the fold forms),
* one step per big-integer multiplication inside an exponentiation,
* any produced value with more than ``max_digits`` decimal digits aborts.

``peak_digits`` is the decimal size of the largest value held at any point
during the evaluation, inputs included.  The digit cap is decided by bit
length (:func:`reaches_cap`): ``10**max_digits`` is built only for a value
within a couple of bits of it, never up front, so a budget costs nothing
until work is done, whatever its cap.  Digit counts and the cap answer "how
many decimal digits?" the same way: one log2(10) bracket on the bit length,
then at most one power of ten from one bounded cache, which the decimal
parser shares.

Two ways to charge, one protocol.  The fold forms charge a :class:`Meter`
directly: ``spend(1, v)`` charges one generator application and notes the
value v it yields, in one call, and ``note`` notes an input.  Every
counted run, the rewrite machines included, keeps local counters: it takes
``max_steps, max_digits, steps, peak`` as its last four arguments and
returns a status tuple ``(status, value, steps, peak_value)``, status
:data:`OK`, :data:`TRIP_STEPS` or :data:`TRIP_MAGNITUDE`.
:meth:`Meter.run` is the one door between them: it calls the run from the
meter's counters and folds the tuple back, raising the same trip as
``spend`` would.
:func:`pow_counted` is the one counted exponentiation, one builtin power
charged the multiplies square-and-multiply would take; the fold forms
reach it through ``Meter.run``, the Conway machine calls it directly.  A
power trips before it is computed, and exactly when it would reach the
digit cap (:func:`pow_reaches_cap`).

:func:`mul_run` is the one counted multiply run, ``val * a**count`` charged
one step per multiply, in the same protocol: the Knuth machine's level-0
runs and the fold form's innermost ``foldn (a*) 1 x`` both call it.  Unlike
a power, a run trips exactly where its multiplies one at a time would: on
the first product that reaches the digit cap, or on the first multiply past
the step budget.  The power of two in ``a`` is applied as a shift, so a run
of doublings such as ``2**65536`` builds no power.  :func:`add_run`, ``val +
count`` one step per increment, is the same for Ackermann's successor: the
reference machine's level-0 runs call it.

:func:`int_to_decimal` and :func:`decimal_to_int` own integer text and never
read the interpreter's int<->str cap; messages and reprs show ints through
:func:`value_text`, so none fails past the cap.  One size rule each way
picks the route: ``str()`` up to :data:`_LEAF_BITS` bits and ``int()`` up to
:data:`_PARSE_DIGITS` digits, which no cap refuses, and past them a split.
A render splits in bits, with ``Decimal`` powers of two from ``decimal``'s
exact ``power`` and one cache bounded in bytes, as the powers of ten a parse
splits at are: the split depends on the size alone, so renders of a
recurring size, such as a session's repeated ``2^^5``, build no power.

:class:`Record` is the frozen value class of :class:`Budget`,
:class:`EvalStats`, the syntax nodes and the CLI's configuration.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import OrderedDict, namedtuple
from math import log10

#: log2(10) lies strictly between _LOG2_10_NUM / _LOG2_10_DEN and
#: (_LOG2_10_NUM + 1) / _LOG2_10_DEN, which bound every digit count in bits
_LOG2_10_NUM = 3321928094887362347
_LOG2_10_DEN = 10**18
#: the relative distance from the cap within which :func:`pow_reaches_cap`
#: builds the power rather than trust its float estimate
_POW_MARGIN = 1e-9

#: status of a ``(status, value, steps, peak_value)`` tuple
OK = 0
TRIP_STEPS = 1
TRIP_MAGNITUDE = 2


class Record:
    """An immutable value with named fields, as a frozen dataclass is.

    A subclass lists its fields, in order, in ``__match_args__``, which class
    patterns read too, and sets each once in ``__init__`` with
    ``object.__setattr__``.  Equality needs the same class and equal fields,
    the hash is that of the fields, the repr names them, assigning or
    deleting an attribute raises ``AttributeError``, and copies and pickles
    are rebuilt through ``__init__``.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(
            f"{n}={value_text(getattr(self, n))}" for n in self.__match_args__
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, self._values())


def _limit(name: str, value: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")
    return value


class Budget(Record):
    """Resource limits threaded through every evaluation."""

    # the defaults, which cli also reads on the class; the instance's own
    # values live in its __dict__, as a class attribute and a slot cannot
    # share a name
    max_steps = 10**7
    max_digits = 10**5
    __match_args__ = ("max_steps", "max_digits")

    def __init__(self, max_steps: int = max_steps, max_digits: int = max_digits):
        object.__setattr__(self, "max_steps", _limit("max_steps", max_steps))
        object.__setattr__(self, "max_digits", _limit("max_digits", max_digits))


class EvalStats(Record):
    """What an evaluation actually consumed."""

    __slots__ = __match_args__ = ("steps_used", "peak_digits")

    def __init__(self, steps_used: int = 0, peak_digits: int = 0):
        object.__setattr__(self, "steps_used", steps_used)
        object.__setattr__(self, "peak_digits", peak_digits)

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
    """Exact count of decimal digits of a non-negative integer.

    A value of b bits lies in ``[2**(b-1), 2**b)``, so it has at least
    ``1 + (b-1) * DEN // (NUM+1)`` and at most ``1 + b * DEN // NUM`` digits
    (the log2(10) bracket).  The bounds meet, or differ by one for any value
    that fits in memory, and then one power of ten decides between them.
    """
    if value < 0:
        raise ValueError("decimal_digits is defined for non-negative values")
    if value == 0:
        return 1
    bits = value.bit_length()
    digits = 1 + (bits - 1) * _LOG2_10_DEN // (_LOG2_10_NUM + 1)
    most = 1 + bits * _LOG2_10_DEN // _LOG2_10_NUM
    while digits < most and value >= _pow10(digits):
        digits += 1
    return digits


#: the bytes each power cache may hold (powers of ten for digit counts, the
#: digit cap and the decimal parser; the renderer's ``Decimal`` powers of
#: two), so that a long session holds the sizes it saw last, not every size
#: it ever saw
_POWER_CACHE_BYTES = 16 * 2**20

_CacheInfo = namedtuple("CacheInfo", "hits misses currsize nbytes")


def _power_cache(fn):
    """``fn`` of one argument, its results kept while they hold at most
    :data:`_POWER_CACHE_BYTES` bytes (by ``sys.getsizeof``), the least
    recently used dropped first; a result larger than that is not kept.

    Every thread shares the entries, under one lock.  ``cache_info()``
    gives the hits, the misses, the entries and the bytes held, and
    ``cache_clear()`` empties the cache.
    """
    entries = OrderedDict()  # argument -> (result, its bytes)
    lock = threading.Lock()
    hits = misses = held = 0

    @functools.wraps(fn)
    def cached(arg):
        nonlocal hits, misses, held
        with lock:
            entry = entries.get(arg)
            if entry is not None:
                hits += 1
                entries.move_to_end(arg)
                return entry[0]
        value = fn(arg)
        size = sys.getsizeof(value)
        with lock:
            misses += 1
            if arg not in entries and size <= _POWER_CACHE_BYTES:
                entries[arg] = (value, size)
                held += size
                while held > _POWER_CACHE_BYTES:
                    held -= entries.popitem(last=False)[1][1]
        return value

    def cache_info():
        with lock:
            return _CacheInfo(hits, misses, len(entries), held)

    def cache_clear():
        nonlocal hits, misses, held
        with lock:
            entries.clear()
            hits = misses = held = 0

    cached.cache_info = cache_info
    cached.cache_clear = cache_clear
    return cached


@_power_cache
def _pow10(e: int) -> int:
    # 5**e has 70% of the bits of 10**e, so its squarings cost less
    return 5**e << e


def safe_bits(max_digits: int) -> int:
    """The most bits a value may have and surely have at most ``max_digits``
    digits: at most ``floor(max_digits * log2(10))``, and within one of it
    for caps below 10**18 digits."""
    return max_digits * _LOG2_10_NUM // _LOG2_10_DEN


def reaches_cap(value: int, max_digits: int) -> bool:
    """Whether ``value >= 10**max_digits``, decided by bit length.

    A value of b bits lies in ``[2**(b-1), 2**b)``, and ``10**max_digits``
    has about ``max_digits * log2(10)`` bits.  A value of at most
    :func:`safe_bits` bits is below the cap, one with b - 1 above
    ``max_digits * log2(10)`` is above it, and only a value in the couple
    of bit lengths between is compared with the power itself, from the
    one cache of powers of ten.  That value is as large as the power, so the
    power costs no more than the work that made it.
    """
    bits = value.bit_length()
    if bits <= safe_bits(max_digits):
        return False
    if (bits - 1) * _LOG2_10_DEN >= max_digits * (_LOG2_10_NUM + 1):
        return True
    return value >= _pow10(max_digits)


def pow_reaches_cap(base: int, exponent: int, max_digits: int) -> bool:
    """Whether ``base**exponent >= 10**max_digits``, for base >= 2 and
    exponent >= 1, without building the power unless it is close to the cap.

    For a b-bit base the power has between ``exponent * (b-1) + 1`` and
    ``exponent * b`` bits, so the log2(10) bracket of :func:`reaches_cap`
    decides unless the cap lies in that range.  There
    ``exponent * log10(base)`` decides unless it is within a relative
    :data:`_POW_MARGIN` of ``max_digits``, far above the float error; only
    then is the power built and compared.
    """
    bits = base.bit_length()
    if exponent * bits <= safe_bits(max_digits):
        return False
    if exponent * (bits - 1) * _LOG2_10_DEN >= max_digits * (_LOG2_10_NUM + 1):
        return True
    ratio = exponent / max_digits * log10(base)
    if abs(ratio - 1) > _POW_MARGIN:
        return ratio > 1
    return reaches_cap(base**exponent, max_digits)


#: a value of more bits than this renders by :func:`_split_to_decimal`, in
#: pieces of at most this many bits; up to it ``str()`` renders it whole, as
#: 2,048 bits (617 digits) is below the least int->str cap CPython accepts
_LEAF_BITS = 2048
#: :func:`decimal_to_int`'s piece size: the least int<->str cap CPython takes
_PARSE_DIGITS = 640


def int_to_decimal(value: int) -> str:
    """Plain decimal rendering of an integer under any int<->str cap:
    ``str(value)`` up to :data:`_LEAF_BITS` bits, which no cap refuses, else
    the subquadratic :func:`_split_to_decimal`."""
    if value < 0:
        return "-" + int_to_decimal(-value)
    if value.bit_length() <= _LEAF_BITS:
        return str(value)
    return _split_to_decimal(value)


def value_text(value) -> str:
    """A value for a message or repr: an int in full, else its repr."""
    return int_to_decimal(value) if type(value) is int else repr(value)


def _split_to_decimal(value: int) -> str:
    """``str(value)`` in subquadratic time, for a non-negative value.

    The value is split by bit shifts, recursively, into pieces of at most
    :data:`_LEAF_BITS` bits; each piece becomes an exact ``Decimal``, and
    the pieces are joined as ``hi * 2**h + lo`` by libmpdec's fast
    multiplication (the method of CPython 3.12's ``Lib/_pylong.py``).  All
    arithmetic runs in a private context wide enough to be exact, with
    ``Inexact`` trapped, so a lost digit raises rather than prints; the
    thread's decimal context and the int<->str cap are never read or set.
    The split points depend on the bit length alone, so a value of a size
    rendered recently finds its powers of two in :func:`_decimal_two_to`,
    which holds up to :data:`_POWER_CACHE_BYTES` of them, for every call
    and thread.
    """
    import decimal

    ctx = _exact_context()

    def join(n, bits):
        if bits <= _LEAF_BITS:
            return decimal.Decimal(n, ctx)
        low_bits = bits >> 1
        high = n >> low_bits
        low = n - (high << low_bits)
        return ctx.add(
            ctx.multiply(join(high, bits - low_bits), _decimal_two_to(low_bits)),
            join(low, low_bits),
        )

    return ctx.to_sci_string(join(value, value.bit_length()))


def _exact_context():
    """A fresh ``decimal`` context in which every operation is exact or
    raises ``Inexact``."""
    import decimal

    return decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[decimal.Inexact],
    )


@_power_cache
def _decimal_two_to(bits: int):
    """``2**bits`` as an exact ``Decimal``, from the one bounded cache of
    :func:`_split_to_decimal`'s powers of two: a long session holds the
    sizes it rendered last, as :func:`_pow10` does for powers of ten."""
    import decimal

    return _exact_context().power(decimal.Decimal(2), bits)


def decimal_to_int(text: str) -> int:
    """Parse a decimal digit run under any int<->str cap, by its length:
    ``int(text)`` up to :data:`_PARSE_DIGITS` digits, which no cap refuses,
    else split by powers of ten into pieces of at most that many digits."""
    if len(text) <= _PARSE_DIGITS:
        return int(text)
    width = _PARSE_DIGITS
    while 2 * width < len(text):
        width *= 2
    high = decimal_to_int(text[:-width])
    return high * _pow10(width) + decimal_to_int(text[-width:])


class Meter:
    """Mutable consumption counter for one evaluation run.

    The closure-based fold evaluators charge through this object directly;
    the counted runs and rewrite machines keep local counters and reach it
    through :meth:`run`.  Like every counted run, it checks a new peak with
    :func:`reaches_cap` alone, so it builds nothing the size of its cap.
    """

    __slots__ = ("max_steps", "max_digits", "steps", "peak")

    def __init__(self, budget: Budget):
        self.max_steps = budget.max_steps
        self.max_digits = budget.max_digits
        self.steps = 0
        self.peak = 0

    def spend(self, k: int = 1, value: int = 0) -> int:
        """Charge ``k`` steps, then note ``value``; return ``value``.

        One call charges one fold application: the step is checked first,
        so a step trip leaves the peak as it was, and a magnitude trip
        counts the step."""
        steps = self.steps + k
        if steps > self.max_steps:
            self.steps = self.max_steps
            raise self._step_trip()
        self.steps = steps
        if value > self.peak:
            self.peak = value
            if reaches_cap(value, self.max_digits):
                raise self._magnitude_trip()
        return value

    def note(self, value: int) -> None:
        """Raise the peak to ``value``, charging no step."""
        self.spend(0, value)

    def run(self, fn, *args) -> int:
        """``fn(*args, max_steps, max_digits, steps, peak)``, a counted run
        started from this meter's budget, steps and peak, whose ``(status,
        value, steps, peak_value)`` is folded back into it; return the value
        or raise the trip.  A run counts from the peak it is given, so the
        peak it returns is the meter's."""
        status, value, self.steps, self.peak = fn(
            *args, self.max_steps, self.max_digits, self.steps, self.peak
        )
        if status == OK:
            return value
        if status == TRIP_STEPS:
            raise self._step_trip()
        raise self._magnitude_trip()

    def stats(self) -> EvalStats:
        return EvalStats(steps_used=self.steps, peak_digits=decimal_digits(self.peak))

    def _step_trip(self) -> BudgetExceeded:
        limit = int_to_decimal(self.max_steps)
        return BudgetExceeded(
            f"step budget exhausted (max_steps={limit})", self.stats()
        )

    def _magnitude_trip(self) -> MagnitudeExceeded:
        cap = int_to_decimal(self.max_digits)
        return MagnitudeExceeded(
            f"value exceeds {cap} digits (max_digits={cap})", self.stats()
        )


def pow_counted(base, exponent, max_steps, max_digits, steps, peak):
    """``base ** exponent``, charged as square-and-multiply: one step for
    each of its ``bit_length - 1`` squares and ``bit_count`` products (the
    binary method, Knuth, TAOCP vol. 2, §4.6.3, Algorithm A).

    Counts from ``steps`` and ``peak`` (a raw value, not digits) and returns
    ``(status, value, steps, peak)``; a step trip reports ``max_steps``.
    Fails fast with TRIP_MAGNITUDE, before any multiply, exactly when
    ``base**exponent >= 10**max_digits`` (:func:`pow_reaches_cap`).
    Otherwise it is one builtin power, charged at once.  For a base >= 2 no
    multiply builds less than one before it: in exponents, the square
    ``2**(i+1)`` exceeds the product ``exponent mod 2**(i+1)`` before it,
    and the product of bit i + 1 adds that square.  So the peak is the
    power, or on a step trip the last power that fit, the only one built.
    Bases 0 and 1 never grow, so ``1**huge`` never trips.  Operands must be
    non-negative.
    """
    if exponent == 0:
        return (OK, 1, steps, max(peak, 1))
    if base <= 1:
        return (OK, base, steps, max(peak, base))
    if pow_reaches_cap(base, exponent, max_digits):
        return (TRIP_MAGNITUDE, 0, steps, peak)
    cost = exponent.bit_length() - 1 + exponent.bit_count()
    if steps + cost <= max_steps:
        value = _times_power(1, base, exponent)
        return (OK, value, steps + cost, max(peak, value))
    # the powers built, in order: bit i's product, if it is set, then a square
    built = []
    for i in range(exponent.bit_length()):
        if exponent >> i & 1:
            built.append(exponent & (2 << i) - 1)
        built.append(2 << i)
    if steps < max_steps:
        peak = max(peak, _times_power(1, base, built[max_steps - steps - 1]))
    return (TRIP_STEPS, 0, max_steps, peak)


def mul_run(val, a, count, max_steps, max_digits, steps, peak):
    """``val * a**count`` by ``count`` multiplies by ``a``, one step each.

    Counts from ``steps`` and ``peak`` (a raw value, not digits), needs
    non-negative operands and ``val <= peak < 10**max_digits``, and returns
    ``(status, value, steps, peak)``, exactly as the multiplies run one at a
    time would.  A magnitude trip reports ``steps + j`` and the first product
    ``val * a**j`` with more than ``max_digits`` digits; a step trip reports
    ``max_steps``, with ``val * a**headroom`` counted in the peak.  Products
    of ``a`` in {0, 1}, or of ``val = 0``, never exceed the peak; only a
    growing run looks for its trip point, in closed form
    (:func:`_first_reaching`).
    """
    headroom = max_steps - steps
    if a >= 2 and val and count and headroom > 0:
        j, val = _first_reaching(val, a, max_digits, min(count, headroom))
        if j:
            return (TRIP_MAGNITUDE, 0, steps + j, val)
        if val > peak:
            peak = val
    elif a == 0 and count:
        val = 0
    if count > headroom:
        return (TRIP_STEPS, 0, max_steps, peak)
    return (OK, val, steps + count, peak)


def add_run(val, count, max_steps, max_digits, steps, peak):
    """``val + count`` by ``count`` increments, one step each, in the
    contract and protocol of :func:`mul_run`.  A magnitude trip reports the
    first value to reach the cap, ``10**max_digits``, which is built only
    for a run that comes within a couple of bits of it."""
    headroom = max_steps - steps
    top = val + min(count, headroom)
    if top > peak:
        if reaches_cap(top, max_digits):
            cap = _pow10(max_digits)
            return (TRIP_MAGNITUDE, 0, steps + cap - val, cap)
        peak = top
    if count > headroom:
        return (TRIP_STEPS, 0, max_steps, peak)
    return (OK, top, steps + count, peak)


def _first_reaching(val, a, max_digits, most):
    """The first j in 1..most with ``val * a**j >= 10**max_digits``, and
    that value.

    Needs a >= 2, 1 <= val < 10**max_digits and most >= 1.  Returns ``(j,
    val * a**j)``, or ``(0, val * a**most)`` when no such j exists.  A run
    whose bit lengths add up to at most :func:`safe_bits` is that value at
    once.  Otherwise the float estimate ``(max_digits - log10(val)) /
    log10(a)`` of j, the logarithm :func:`pow_reaches_cap` uses, is
    corrected by exact tests (:func:`reaches_cap`), so no value much larger
    than ``a * 10**max_digits`` is ever built.
    """
    if val.bit_length() + most * a.bit_length() <= safe_bits(max_digits):
        return (0, _times_power(val, a, most))
    estimate = (max_digits - log10(val)) / log10(a)
    j = most if estimate >= most else max(1, int(estimate))
    v = _times_power(val, a, j)
    if reaches_cap(v, max_digits):
        while j > 1:
            smaller = v // a
            if not reaches_cap(smaller, max_digits):
                break
            v = smaller
            j -= 1
        return (j, v)
    while j < most:
        v *= a
        j += 1
        if reaches_cap(v, max_digits):
            return (j, v)
    return (0, v)


def _times_power(val, a, j):
    """``val * a**j`` for a >= 1, with the power of two in ``a`` applied as
    a shift: ``2**65536`` is one shift, not sixteen squarings."""
    t = (a & -a).bit_length() - 1  # the trailing zero bits of a
    return val * (a >> t) ** j << t * j
