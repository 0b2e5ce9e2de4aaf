"""Independent references for the benchmark's oracle checks.

Nothing here imports fracseq.  Every reference is recomputed from the
generated input description with separate code: integer products for
exact coefficients, scatter-order Fraction sums for exact transforms,
Toeplitz products and FFT convolutions for float windows and norms,
brute-force subset scans, and mpmath closed forms at high precision.
A comparison that disagrees raises :class:`Mismatch`.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

REL = 1e-9  # float results against float references computed another way


class Mismatch(Exception):
    """The program's output disagrees with its reference."""


def require(cond, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def close(value, ref, what: str, rel: float = REL, scale: float | None = None) -> None:
    value, ref = float(value), float(ref)
    bound = rel * (abs(ref) if scale is None else scale)
    require(abs(value - ref) <= bound, f"{what}: got {value!r}, reference {ref!r}")


def conjugate(p: str) -> float:
    """Conjugate index of the norm index written as ``"1"``, ``"2"``, ``"inf"`` or ``"3/2"``."""
    if p == "inf":
        return 1.0
    pv = float(Fraction(p))
    return math.inf if pv == 1.0 else pv / (pv - 1.0)


def p_value(p: str) -> float:
    return math.inf if p == "inf" else float(Fraction(p))


def qnorm(values, q: float) -> float:
    a = np.abs(np.asarray(values, dtype=float))
    if a.size == 0:
        return 0.0
    if math.isinf(q):
        return float(a.max())
    if q == 1.0:
        return float(a.sum())
    return float((a**q).sum() ** (1.0 / q))


# -- coefficients ----------------------------------------------------------


def exact_coeffs(a: Fraction, n: int) -> list:
    """``c_i = (-1)^i prod_{j<i}(a - j) / i!`` from integer products, not the ratio recurrence."""
    p, q = a.numerator, a.denominator
    out, num, den = [], 1, 1
    for i in range(n):
        out.append(Fraction(-num if i % 2 else num, den))
        num *= p - i * q
        den *= q * (i + 1)
    return out


def float_coeffs(a: float, n: int) -> np.ndarray:
    i = np.arange(max(n - 1, 0), dtype=float)
    return np.concatenate(([1.0], np.cumprod((i - a) / (i + 1.0))))[:n]


# -- sequences -----------------------------------------------------------


def exact_lower(x, c, length: int) -> list:
    """``y_k = sum_i c_i x_{k-i}`` for ``k < length``, accumulated in scatter order."""
    y = [Fraction(0)] * length
    for i in range(min(len(c), length)):
        ci = c[i]
        for j in range(min(len(x), length - i)):
            y[i + j] += ci * x[j]
    return y


def exact_upper(a, cm) -> list:
    """``abar_k = sum_{i>=k} cm_{i-k} a_i``, accumulated in scatter order."""
    n = len(a)
    out = [Fraction(0)] * n
    for i in range(n):
        ai = a[i]
        for k in range(i + 1):
            out[k] += cm[i - k] * ai
    return out


def fft_conv(x, c, length: int) -> np.ndarray:
    """First ``length`` entries of the linear convolution of ``x`` and ``c``, by FFT."""
    x = np.asarray(x, dtype=float)[:length]
    c = np.asarray(c, dtype=float)[:length]
    n = len(x) + len(c) - 1
    nfft = 1 << max(n - 1, 1).bit_length()
    y = np.fft.irfft(np.fft.rfft(x, nfft) * np.fft.rfft(c, nfft), nfft)[:length]
    return np.concatenate((y, np.zeros(length - len(y))))


def float_upper(a, alpha: float) -> np.ndarray:
    """Float dual transform ``abar_k = sum_{i>=k} c_{i-k}(-alpha) a_i``, by FFT on the reversal."""
    a = np.asarray(a, dtype=float)
    return fft_conv(a[::-1], float_coeffs(-alpha, len(a)), len(a))[::-1]


def space_norm_ref(x, alpha: float, p: str, terms: int) -> float:
    """The norm of the first ``terms`` entries of the transform of ``x``."""
    y = fft_conv(x, float_coeffs(alpha, terms), terms)
    return qnorm(y, p_value(p))


def impulse_norm_exact(a: Fraction) -> float:
    """``sqrt(binom(2a, a))``: the p=2 norm of the impulse's transform (Chu-Vandermonde)."""
    import mpmath

    with mpmath.workdps(50):
        av = mpmath.mpf(a.numerator) / a.denominator
        return float(mpmath.sqrt(mpmath.binomial(2 * av, av)))


# -- matrix windows ------------------------------------------------------


def source_row(spec: dict, n: int) -> np.ndarray:
    """Row ``n`` of a generated matrix, at its natural stored length."""
    kind = spec["kind"]
    if kind == "identity":
        row = np.zeros(n + 1)
        row[n] = 1.0
        return row
    if kind == "row-scaled-shift":
        row = np.zeros(n + spec["shift"] + 1)
        row[-1] = spec["scale"] * spec["ratio"] ** n
        return row
    if kind == "banded":
        cols = [(n + o, d[n] if n < len(d) else 0.0)
                for o, d in zip(spec["offsets"], spec["diagonals"]) if n + o >= 0]
        row = np.zeros(max((c for c, _ in cols), default=-1) + 1)
        for c, v in cols:
            row[c] += v
        return row
    if kind == "dense-window":
        return np.asarray(spec["rows"][n], dtype=float)
    raise ValueError(f"unknown source kind {kind!r}")


def toeplitz_lower(c: np.ndarray, w: int) -> np.ndarray:
    """``T[j, k] = c[j - k]`` for ``j >= k``, so ``row @ T`` is the hat transform of ``row``."""
    j = np.arange(w)
    d = j[:, None] - j[None, :]
    return np.where(d >= 0, c[np.clip(d, 0, None)], 0.0)


def hat_rows(spec: dict, alpha: float, row_count: int) -> list:
    """Reference transformed rows: ``hat[n, k] = sum_{j>=k} c_{j-k}(-alpha) A[n, j]``."""
    rows = [source_row(spec, n) for n in range(row_count)]
    width = max((len(r) for r in rows), default=0)
    cm = float_coeffs(-alpha, max(width, 1))
    if spec["kind"] == "dense-window":
        T = toeplitz_lower(cm, width)
        return [r @ T[: len(r), : len(r)] for r in rows]
    out = []
    for r in rows:
        ref = np.zeros(len(r))
        for j in np.flatnonzero(r):
            ref[: j + 1] += r[j] * cm[j::-1]
        out.append(ref)
    return out


def padded(rows, width: int | None = None) -> np.ndarray:
    rows = [np.asarray(r, dtype=float) for r in rows]
    if width is None:
        width = max([len(r) for r in rows] + [1])
    out = np.zeros((len(rows), width))
    for i, r in enumerate(rows):
        out[i, : min(len(r), width)] = r[:width]
    return out


def compare_rows(got_rows, ref_rows, what: str) -> None:
    """Row-by-row agreement, ignoring trailing zero padding on either side."""
    require(len(got_rows) == len(ref_rows), f"{what}: {len(got_rows)} rows, reference {len(ref_rows)}")
    for n, (got, ref) in enumerate(zip(got_rows, ref_rows)):
        got = np.asarray(got, dtype=float)
        w = max(len(got), len(ref))
        g = np.zeros(w)
        g[: len(got)] = got
        r = np.zeros(w)
        r[: len(ref)] = ref
        scale = max(1.0, float(np.abs(r).sum()))
        err = float(np.abs(g - r).max()) if w else 0.0
        require(err <= 1e-12 * scale, f"{what}: row {n} differs by {err:.3g}")


def closed_form_identity_opnorm(a: Fraction, row_count: int, q: float) -> float:
    """Largest row norm of the identity's hat window, from mpmath closed forms.

    Row ``n`` holds ``c_0..c_n`` at order ``-a`` (all positive).  For
    ``q = 1`` the hockey-stick identity gives ``binom(N-1+a, N-1)``; for
    ``q = inf`` the largest coefficient is ``c_0`` or ``c_{N-1}``; for
    other ``q`` the sum is taken at 30 digits.
    """
    import mpmath

    n = row_count - 1
    with mpmath.workdps(30):
        av = mpmath.mpf(a.numerator) / a.denominator
        if q == 1.0:
            return float(mpmath.gamma(n + 1 + av) / (mpmath.gamma(av + 1) * mpmath.gamma(n + 1)))
        last = mpmath.gamma(n + av) / (mpmath.gamma(av) * mpmath.gamma(n + 1))
        if math.isinf(q):
            return float(max(mpmath.mpf(1), last))
        t = s = mpmath.mpf(1)
        for i in range(1, n + 1):
            t *= (i - 1 + av) / i
            s += t**q
        return float(s ** (1 / mpmath.mpf(q)))


def suffix_max(values) -> list:
    return list(np.maximum.accumulate(np.asarray(values, dtype=float)[::-1])[::-1])


def row_norm_grid(rows, q: float, grid) -> list:
    """Grid value at ``r``: the largest row norm over rows ``n >= r``."""
    sm = suffix_max([qnorm(r, q) for r in rows])
    return [sm[r] for r in grid]


def column_limit_grid(rows, q: float, grid, column_bound: int, window: int, tol: float):
    """MNC-C: column limits from the trailing rows, then row-minus-limit norms.

    Returns ``(values, converged)``; ``converged`` is ``None`` when a
    convergence test sits within rounding of its threshold.
    """
    tail = padded(rows[-window:], column_bound)
    limit = tail.mean(axis=0)
    dev = np.abs(tail - limit)
    if np.any(np.abs(dev - tol) <= 1e-12 * max(1.0, float(np.abs(tail).max(initial=0.0)))):
        converged = None
    else:
        converged = bool(len(rows) >= window and np.all(dev <= tol))
    norms = []
    for r in rows:
        w = max(len(r), column_bound)
        diff = np.zeros(w)
        diff[: len(r)] = r
        diff[:column_bound] -= limit
        norms.append(qnorm(diff, q))
    sm = suffix_max(norms)
    return [sm[r] for r in grid], converged


def column_tail_grid(rows, q: float, grid) -> list:
    """Grid value at ``r``: the largest norm over rows of the entries past column ``r``."""
    best = np.zeros(len(grid))
    for row in rows:
        a = np.abs(np.asarray(row, dtype=float))
        a = a if q == 1.0 else a**q
        tails = np.concatenate((np.cumsum(a[::-1])[::-1], [0.0]))
        idx = np.minimum(np.asarray(grid) + 1, len(a))
        best = np.maximum(best, tails[idx])
    return list(best if q == 1.0 else best ** (1.0 / q))


def sargent_grid(rows, grid, column_window: int) -> list:
    """Uniformity defect of column-pair sups, pairs from ``[0, column_window)``."""
    C = padded(rows, column_window)
    D = np.abs(C[:, None, :] - C[:, :, None])  # D[n, k1, k2]
    upper = np.triu(np.ones((column_window, column_window), dtype=bool), 1)
    full = D.max(axis=0)
    running = np.maximum.accumulate(D, axis=0)
    return [float((full - running[m])[upper].max()) for m in grid]


def verdict(values, lower: float, upper: float, window: int, tol: float, converged=True):
    """Three-valued verdict, or ``None`` when a threshold test is within rounding."""
    margin = 1e-11 * max(1.0, max(abs(v) for v in values))
    tail = values[-window:]
    spread = max(tail) - min(tail)
    tests = [spread, upper, lower] if len(values) >= window else [upper, lower]
    if converged is None or any(abs(t - tol) <= margin for t in tests):
        return None
    if not converged or len(values) < window or spread > tol:
        return "inconclusive"
    if upper < tol:
        return "compact"
    if lower > tol:
        return "noncompact"
    return "inconclusive"


def check_report(got: dict, ref: dict, what: str) -> None:
    """Compare a compactness report (as plain data) with its reference."""
    require(got["criterion"] == ref["criterion"], f"{what}: criterion {got['criterion']!r}")
    require(list(got["r_values"]) == list(ref["r_values"]), f"{what}: grid {got['r_values']!r}")
    require(len(got["values"]) == len(ref["values"]), f"{what}: {len(got['values'])} grid values")
    for r, v, e in zip(ref["r_values"], got["values"], ref["values"]):
        close(v, e, f"{what}: grid value at {r}", scale=max(abs(e), 1e-300))
    close(got["lower"], ref["lower"], f"{what}: lower", scale=max(abs(ref["lower"]), 1e-300))
    close(got["upper"], ref["upper"], f"{what}: upper", scale=max(abs(ref["upper"]), 1e-300))
    if ref["verdict"] is not None:
        require(got["verdict"] == ref["verdict"],
                f"{what}: verdict {got['verdict']!r}, expected {ref['verdict']!r}")


# -- subsets ---------------------------------------------------------------


def subset_values(rows: np.ndarray, q: float) -> np.ndarray:
    """Norms of the summed rows of every nonempty subset, indexed by bitmask."""
    m = rows.shape[0]
    masks = np.arange(1, 1 << m, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(m)) & 1).astype(float)
    sums = np.abs(bits @ rows)
    if math.isinf(q):
        vals = sums.max(axis=1)
    elif q == 1.0:
        vals = sums.sum(axis=1)
    else:
        vals = (sums**q).sum(axis=1) ** (1.0 / q)
    return np.concatenate(([0.0], vals))


def brute_force_max(rows: np.ndarray, q: float):
    """``(value, maximizers)``: the subset supremum and every subset within rounding of it."""
    vals = subset_values(rows, q)
    best = float(vals.max())
    near = np.flatnonzero(vals >= best * (1.0 - 1e-12))
    return best, [tuple(i for i in range(rows.shape[0]) if (int(mk) >> i) & 1) for mk in near]


def greedy(rows: np.ndarray, q: float, indices) -> float:
    """Sign-free greedy lower bound: add a row iff it strictly raises the norm."""
    current = np.zeros(rows.shape[1])
    value = 0.0
    for n in indices:
        cand = current + rows[n]
        v = qnorm(cand, q)
        if v > value:
            current, value = cand, v
    return value


def subset_bounds(rows: np.ndarray, q: float) -> dict:
    """Bounds on the subset supremum of ``rows`` that need no full scan."""
    m = rows.shape[0]
    head = min(m, 14)
    return {
        "greedy": greedy(rows, q, range(m)),
        "head": brute_force_max(rows[:head], q)[0],
        "tail": brute_force_max(rows[m - head:], q)[0],
        "triangle": float(sum(qnorm(r, q) for r in rows)),
    }


# -- compactness reports ---------------------------------------------------

CRITERIA = {
    "mnc_c0": "MNC-C0",
    "mnc_c": "MNC-C",
    "mnc_l1": "MNC-L1",
    "crit_linf": "T3",
    "crit_linfdom": "LINF-DOMAIN",
    "sargent": "T7",
}


def grid_report(op: str, rows, q, grid, column_bound: int, method: str = "exhaustive",
                window: int = 4, tol: float = 1e-8) -> dict:
    """Reference report of one compactness criterion from reference hat rows."""
    converged = True
    if op == "mnc_c0":
        values = row_norm_grid(rows, q, grid)
    elif op == "mnc_c":
        values, converged = column_limit_grid(rows, q, grid, column_bound, window, tol)
    elif op == "crit_linf":
        values = column_tail_grid(rows, q, grid)
    elif op == "crit_linfdom":
        values = column_tail_grid(rows, 1.0, grid)
    elif op == "sargent":
        values = sargent_grid(rows, grid, column_bound)
    elif op == "mnc_l1":
        pool = padded(rows[1:])
        if method == "exhaustive":
            values = [brute_force_max(pool[r:], q)[0] for r in grid]
        else:
            values = suffix_max([greedy(pool, q, range(r, len(pool))) for r in grid])
    else:
        raise ValueError(f"unknown criterion {op!r}")
    values = [float(v) for v in values]
    est = values[-1]
    lower, upper = {"mnc_c": (est / 2.0, est), "mnc_l1": (est, 4.0 * est)}.get(op, (est, est))
    return {
        "criterion": CRITERIA[op],
        "r_values": list(grid),
        "values": values,
        "lower": lower,
        "upper": upper,
        "verdict": verdict(values, lower, upper, window, tol, converged),
    }
