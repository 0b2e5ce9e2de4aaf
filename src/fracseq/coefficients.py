"""Fractional binomial coefficients.

The lower-triangular difference operator of fractional order ``a`` acts
by discrete convolution with the coefficient sequence

    c_0 = 1,    c_{i+1} = c_i * (-(a - i) / (i + 1)),

which is the ratio form of ``c_i = (-1)^i * G(a+1) / (i! * G(a-i+1))``
with ``G`` the Euler gamma function.  The recurrence is the production
path: it never touches gamma at negative arguments, stays exact under
rational arithmetic, and degenerates gracefully when ``a`` is a
nonnegative integer (entries vanish past index ``a``).  The closed form
is kept as an independent cross-check evaluated through log-gamma
magnitudes with explicit sign tracking.

Coefficients of the inverse operator are the coefficients at the
negated order.  When ``a`` is a positive integer the negated order
falls on a gamma pole and cannot be represented as a
:class:`FractionalOrder`; the raw recurrence still produces the correct
inverse entries, which is how the transform layer obtains them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .serialize import format_float, parse_ratio

MODE_EXACT = "exact-rational"
MODE_FLOATING = "floating"

_MODES = (MODE_EXACT, MODE_FLOATING)


@dataclass(frozen=True)
class FractionalOrder:
    """The exponent of the difference operator.

    Accepts a float, an int, a :class:`~fractions.Fraction`, or a string
    like ``"2/3"``.  Exact-rational arithmetic is available iff the
    value was supplied as an exact ratio (int, Fraction, or string).
    Negative integers are rejected: the gamma factor at ``value + 1``
    would be undefined.
    """

    value: float
    exact: Fraction | None = None

    def __init__(self, value, exact=None):
        if isinstance(value, str):
            exact = parse_ratio(value)
            value = float(exact)
        elif isinstance(value, Fraction):
            exact = value
            value = float(value)
        elif isinstance(value, int) and not isinstance(value, bool):
            exact = Fraction(value)
            value = float(value)
        elif isinstance(value, float):
            pass
        else:
            raise ValueError(f"order must be a number or ratio string, got {type(value).__name__}")
        if not math.isfinite(value):
            raise ValueError(f"order must be finite, got {value!r}")
        if exact is not None:
            negative_integer = exact.denominator == 1 and exact < 0
        else:
            negative_integer = value < 0 and value == int(value)
        if negative_integer:
            raise DomainError(f"gamma undefined at order+1 for order {value!r}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "exact", exact)

    @classmethod
    def of(cls, order) -> "FractionalOrder":
        if isinstance(order, FractionalOrder):
            return order
        return cls(order)

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    @property
    def inverse_gamma_defined(self) -> bool:
        """Whether gamma(-value + 1) is defined (false for positive integers)."""
        if self.exact is not None:
            return not (self.exact.denominator == 1 and self.exact > 0)
        return not (self.value > 0 and self.value == int(self.value))

    def raw(self):
        """The exact Fraction when available, else the float value."""
        return self.exact if self.exact is not None else self.value

    def label(self) -> str:
        if self.exact is not None:
            return str(self.exact)
        return format_float(self.value)


def raw_prefix(alpha, n: int) -> list:
    """First ``n`` coefficients at a raw order (Fraction stays exact)."""
    exact = isinstance(alpha, (int, Fraction)) and not isinstance(alpha, bool)
    c = Fraction(1) if exact else 1.0
    a = Fraction(alpha) if exact else float(alpha)
    out = [c]
    for i in range(n - 1):
        c = -(c * (a - i)) / (i + 1)
        out.append(c)
    return out


def _decay_monotone_from(entries) -> int:
    d = len(entries) - 1
    while d > 0 and abs(entries[d - 1]) >= abs(entries[d]):
        d -= 1
    return d


@dataclass(frozen=True)
class CoefficientTable:
    """A finite coefficient prefix with its generation metadata."""

    order: FractionalOrder
    entries: tuple
    mode: str
    decay_monotone_from: int | None

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def as_floats(self) -> list[float]:
        return [float(v) for v in self.entries]

    def to_json_dict(self) -> dict:
        if self.mode == MODE_EXACT:
            entries = [str(v) for v in self.entries]
        else:
            entries = [float(v) for v in self.entries]
        return {"order": self.order.label(), "mode": self.mode, "entries": entries}


def coefficient_prefix(order, n: int, mode: str = MODE_FLOATING) -> CoefficientTable:
    """First ``n`` coefficients of the operator at ``order``.

    The inverse operator's coefficients are the prefix at the negated
    order.  ``mode`` selects exact-rational or floating arithmetic;
    exact requires the order to carry an exact ratio.
    """
    order = FractionalOrder.of(order)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if mode == MODE_EXACT and not order.is_exact:
        raise ValueError("exact-rational mode requires the order as an exact ratio")
    alpha = order.exact if mode == MODE_EXACT else order.value
    entries = raw_prefix(alpha, n)
    return CoefficientTable(
        order=order,
        entries=tuple(entries),
        mode=mode,
        decay_monotone_from=_decay_monotone_from(entries),
    )


def _gamma_sign(x: float) -> int:
    # sign of gamma at a non-pole argument; alternates between poles for x < 0
    if x > 0:
        return 1
    return -1 if int(math.floor(x)) % 2 else 1


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0 and x == int(x)


def coefficient_closed_form(order, i: int) -> float:
    """Coefficient ``i`` via log-gamma magnitudes with sign tracking.

    Independent of the recurrence; used as a cross-check.  Returns 0.0
    when the denominator gamma argument sits on a pole (integer order,
    ``i`` past it).
    """
    order = FractionalOrder.of(order)
    if not isinstance(i, int) or isinstance(i, bool) or i < 0:
        raise ValueError(f"i must be a nonnegative integer, got {i!r}")
    a = order.value
    if _is_nonpositive_integer(a + 1.0):
        raise DomainError(f"gamma undefined at order+1 for order {a!r}")
    x = a - i + 1.0
    if _is_nonpositive_integer(x):
        return 0.0
    log_mag = math.lgamma(a + 1.0) - math.lgamma(i + 1.0) - math.lgamma(x)
    sign = (-1 if i % 2 else 1) * _gamma_sign(a + 1.0) * _gamma_sign(x)
    return sign * math.exp(log_mag)
