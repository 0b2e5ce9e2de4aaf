"""Sequence transforms and norms.

A finitely supported sequence ``x`` is mapped to ``y`` by discrete
convolution with the coefficient prefix at the order; convolving ``y``
with the prefix at the negated order recovers ``x``.  Entries at
negative indices are zero, so every output entry is a finite sum.

All functions run exactly when the order carries an exact ratio and
every sequence entry is an int or Fraction; otherwise they run in
floats.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coefficients import FractionalOrder, raw_prefix
from .serialize import format_float, json_numbers, parse_ratio, values_from_csv, values_to_csv

ADAPTIVE_WINDOW = 16  # consecutive small increments required past the support
_NORM_BLOCK = 256  # fewest space_norm terms computed per convolution


def _is_exact_number(v) -> bool:
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


@dataclass(frozen=True)
class FiniteSequence:
    """A real sequence supported on ``[0, len(entries))``."""

    entries: tuple

    def __init__(self, entries):
        entries = tuple(entries)
        for k, v in enumerate(entries):
            if _is_exact_number(v):
                continue
            if isinstance(v, float):
                if not math.isfinite(v):
                    raise ValueError(f"entry {k} is not finite: {v!r}")
                continue
            raise ValueError(f"entry {k} is not a real number: {v!r}")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def unit(cls, index: int, length: int | None = None) -> "FiniteSequence":
        if index < 0:
            raise ValueError("unit index must be nonnegative")
        n = index + 1 if length is None else length
        if n <= index:
            raise ValueError("length must exceed the unit index")
        return cls([0.0] * index + [1.0] + [0.0] * (n - index - 1))

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, k):
        return self.entries[k]

    @property
    def is_exact(self) -> bool:
        return all(_is_exact_number(v) for v in self.entries)

    @property
    def support_end(self) -> int:
        """Index one past the last nonzero entry (0 for the zero sequence)."""
        for k in range(len(self.entries) - 1, -1, -1):
            if self.entries[k] != 0:
                return k + 1
        return 0

    def as_floats(self) -> list[float]:
        return [float(v) for v in self.entries]

    def to_json_dict(self) -> dict:
        return {"entries": self.as_floats()}

    @classmethod
    def from_json_dict(cls, obj) -> "FiniteSequence":
        if not isinstance(obj, dict) or "entries" not in obj:
            raise ValueError('sequence JSON must be an object with an "entries" array')
        entries = obj["entries"]
        if not isinstance(entries, list):
            raise ValueError('sequence field "entries" must be an array')
        return cls(json_numbers(entries, "sequence.entries"))

    def to_csv(self) -> str:
        return values_to_csv(self.as_floats())

    @classmethod
    def from_csv(cls, text: str) -> "FiniteSequence":
        return cls(values_from_csv(text))


@dataclass(frozen=True)
class Exponent:
    """A norm index ``p >= 1`` (``math.inf`` allowed) with conjugate ``q``."""

    p: float

    def __init__(self, p):
        if isinstance(p, str):
            text = p.strip().lower()
            if text in ("inf", "infinity", "oo"):
                p = math.inf
            elif "/" in text:
                p = float(parse_ratio(text))
            else:
                p = float(text)
        elif isinstance(p, Fraction):
            p = float(p)
        p = float(p)
        if math.isnan(p) or p < 1.0:
            raise ValueError(f"p must satisfy p >= 1, got {p!r}")
        object.__setattr__(self, "p", p)

    @classmethod
    def of(cls, p) -> "Exponent":
        if isinstance(p, Exponent):
            return p
        return cls(p)

    @property
    def q(self) -> float:
        if self.p == 1.0:
            return math.inf
        if math.isinf(self.p):
            return 1.0
        return self.p / (self.p - 1.0)

    @property
    def is_inf(self) -> bool:
        return math.isinf(self.p)

    def label(self) -> str:
        return "inf" if self.is_inf else format_float(self.p)


INF = Exponent(math.inf)


@dataclass(frozen=True)
class TruncationReport:
    """How an adaptive series evaluation stopped."""

    terms_used: int
    tail_flagged: bool
    tail_estimate: float
    tolerance: float

    def to_json_dict(self) -> dict:
        return {
            "terms_used": self.terms_used,
            "tail_flagged": self.tail_flagged,
            "tail_estimate": float(self.tail_estimate),
            "tolerance": float(self.tolerance),
        }


def _prefix_for(order: FractionalOrder, n: int, exact: bool, negate: bool) -> list:
    if n < 1:
        return []
    if exact:
        alpha = -order.exact if negate else order.exact
    else:
        alpha = -order.value if negate else order.value
    return raw_prefix(alpha, n)


def triangular_apply(values, coeffs, length: int, upper: bool = False) -> list:
    """The first ``length`` entries of a triangular Toeplitz product.

    Lower, a convolution: ``out[k] = sum_i coeffs[i] * values[k - i]``,
    with at least ``length`` coefficients.  Upper, a correlation:
    ``out[k] = sum_{i >= k} coeffs[i - k] * values[i]`` for
    ``length <= len(values)``, with at least ``len(values)`` coefficients.

    ``Fraction`` coefficients with int/Fraction values run exactly: both
    are scaled to integer numerators over their common denominators, so
    each output is one integer dot product made a ``Fraction`` once.
    Float coefficients run one ``np.convolve``.
    """
    n = len(values)
    if upper:  # the reversal of the lower product of the reversed values
        return triangular_apply(values[::-1], coeffs, n)[::-1][:length]
    if not (coeffs and isinstance(coeffs[0], Fraction)):
        if n == 0:
            return [0.0] * length
        return np.convolve(values, coeffs)[:length].tolist()
    dx = math.lcm(*(v.denominator for v in values))
    dc = math.lcm(*(c.denominator for c in coeffs[:length]))
    xs = [v.numerator * (dx // v.denominator) for v in reversed(values)]
    cs = [c.numerator * (dc // c.denominator) for c in coeffs[:length]]
    d = dc * dx
    out = []
    for k in range(length):
        lo = max(0, k - n + 1)
        out.append(Fraction(sum(map(operator.mul, cs[lo:k + 1], xs[n - 1 - k + lo:])), d))
    return out


def _convolve(seq: FiniteSequence, order: FractionalOrder, length: int, negate: bool) -> FiniteSequence:
    if not isinstance(length, int) or isinstance(length, bool) or length < 1:
        raise ValueError(f"length must be a positive integer, got {length!r}")
    exact = order.is_exact and seq.is_exact
    x = seq.entries if exact else seq.as_floats()
    return FiniteSequence(triangular_apply(x, _prefix_for(order, length, exact, negate), length))


def forward_transform(x, order, length: int) -> FiniteSequence:
    """Apply the order-``a`` difference operator to the first ``length`` entries."""
    return _convolve(x, FractionalOrder.of(order), length, negate=False)


def inverse_transform(y, order, length: int) -> FiniteSequence:
    """Apply the inverse operator (order negated); undoes :func:`forward_transform`."""
    return _convolve(y, FractionalOrder.of(order), length, negate=True)


def beta_dual_transform(a, order) -> FiniteSequence:
    """Upper-triangular dual transform pairing against transformed sequences.

    With ``abar`` the result and ``y`` the forward transform of ``x``,
    ``sum(a_k x_k) == sum(abar_k y_k)`` whenever the support of ``a``
    lies within ``[0, len(a))``.
    """
    order = FractionalOrder.of(order)
    exact = order.is_exact and a.is_exact
    values = a.entries if exact else a.as_floats()
    n = len(values)
    return FiniteSequence(triangular_apply(values, _prefix_for(order, n, exact, negate=True), n, upper=True))


def lq_norm(values, q: float) -> float:
    """Plain left-to-right l_q norm of a finite value list (``q`` may be inf)."""
    if math.isinf(q):
        best = 0.0
        for v in values:
            m = abs(float(v))
            if m > best:
                best = m
        return best
    acc = 0.0
    for v in values:
        acc += abs(float(v)) ** q
    return acc ** (1.0 / q)


def space_norm(
    x,
    order,
    p,
    tolerance: float = 1e-10,
    max_terms: int = 32768,
) -> tuple[float, TruncationReport]:
    """Norm of ``x`` in the transformed space, with adaptive truncation.

    Accumulates ``|y_k|^p`` (running sup for ``p = inf``) where ``y`` is
    the forward transform of ``x``, extending until the relative
    increment stays below ``tolerance`` for ``ADAPTIVE_WINDOW``
    consecutive indices past the support of ``x``.  If ``max_terms`` is
    reached first the result is still returned with the tail flagged.
    Terms come from ``np.convolve`` in blocks of indices; one that is
    not a finite float raises ``ValueError``.
    """
    order = FractionalOrder.of(order)
    p = Exponent.of(p)
    if not (tolerance > 0.0):
        raise ValueError(f"tolerance must be positive, got {tolerance!r}")
    if not isinstance(max_terms, int) or isinstance(max_terms, bool) or max_terms < 1:
        raise ValueError(f"max_terms must be a positive integer, got {max_terms!r}")

    support = x.support_end
    if support == 0:
        return 0.0, TruncationReport(0, False, 0.0, tolerance)

    entries = x.as_floats()[:support]
    block = max(_NORM_BLOCK, support)
    alpha = order.value
    coeffs = [1.0]
    acc = 0.0  # p-th power partial sum, or running sup for p = inf
    streak = 0
    window_max = 0.0
    k = 0
    while k < max_terms and streak < ADAPTIVE_WINDOW:
        k1 = min(k + block, max_terms)
        while len(coeffs) < k1:
            i = len(coeffs) - 1
            coeffs.append(-(coeffs[-1] * (alpha - i)) / (i + 1))
        lo = max(0, k - support + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            y = np.abs(np.convolve(entries, coeffs[lo:k1])[k - lo:k1 - lo])
            terms = y if p.is_inf else y ** p.p
        bad = np.flatnonzero(~np.isfinite(terms))
        if bad.size:
            raise ValueError(f"space_norm term {k + int(bad[0])} (|y_k|^p) is not a finite float")
        for term in terms.tolist():
            if p.is_inf:
                new = term if term > acc else acc
                rel = 0.0 if new == 0.0 else (new - acc) / new
                acc = new
            else:
                acc += term
                rel = term / acc if acc > 0.0 else 0.0
            k += 1
            if k > support:  # the term just added sits past the support of x
                if rel < tolerance:
                    window_max = rel if streak == 0 else max(window_max, rel)
                    streak += 1
                else:
                    streak = 0
                    window_max = rel
                if streak >= ADAPTIVE_WINDOW:
                    break
    flagged = streak < ADAPTIVE_WINDOW
    value = acc if p.is_inf else acc ** (1.0 / p.p)
    return value, TruncationReport(k, flagged, window_max, tolerance)


def dual_norm(a, order, p) -> float:
    """Dual-space norm: the conjugate-index norm of the dual transform of ``a``."""
    p = Exponent.of(p)
    abar = beta_dual_transform(a, FractionalOrder.of(order))
    return lq_norm(abar.as_floats(), p.q)
