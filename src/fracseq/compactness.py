"""Windowed compactness estimators with three-valued verdicts.

Every criterion here is a limit of window suprema.  The limits are
reported as grid evaluations plus a stabilization rule: the grid is
stabilized when its last ``window`` values lie within ``tolerance`` of
each other, and the limit estimate is the final grid value.  Verdicts
are three-valued because finite windows cannot decide the infinite
objects: ``compact`` requires the upper bound stabilized below the
tolerance, ``noncompact`` the lower bound stabilized above it, and
everything else is ``inconclusive``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .coefficients import FractionalOrder
from .matrix_domain import (
    HatMatrixWindow,
    MatrixSource,
    _columns,
    _enumerate_subsets,
    _greedy_subset,
    _row_norms,
    hat_matrix,
)
from .serialize import format_float
from .transforms import Exponent

VERDICT_COMPACT = "compact"
VERDICT_NONCOMPACT = "noncompact"
VERDICT_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class StabilizationPolicy:
    """Grid stabilization rule: last ``window`` values within ``tolerance``."""

    window: int = 4
    tolerance: float = 1e-8

    def __post_init__(self):
        if not isinstance(self.window, int) or self.window < 2:
            raise ValueError(f"stabilization window must be an integer >= 2, got {self.window!r}")
        if not (self.tolerance > 0.0):
            raise ValueError(f"stabilization tolerance must be positive, got {self.tolerance!r}")
        if self.tolerance == math.inf:
            raise ValueError(f"stabilization tolerance must be finite, got {self.tolerance!r}")


@dataclass(frozen=True)
class LimitGrid:
    """Evaluations of a window supremum along a truncation-parameter grid."""

    r_values: tuple
    values: tuple
    stabilization_window: int
    tolerance: float

    def __post_init__(self):
        if len(self.r_values) != len(self.values) or not self.r_values:
            raise ValueError("grid needs matching, nonempty r_values and values")
        for a, b in zip(self.r_values, self.r_values[1:]):
            if b <= a:
                raise ValueError("grid r_values must be strictly increasing")
        for v in self.values:
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0.0):
                raise ValueError(f"grid values must be finite and nonnegative, got {v!r}")

    @property
    def stabilized(self) -> bool:
        w = self.stabilization_window
        if len(self.values) < w:
            return False
        tail = self.values[-w:]
        return max(tail) - min(tail) <= self.tolerance

    @property
    def estimate(self) -> float:
        return float(self.values[-1])

    def to_json_dict(self) -> dict:
        return {
            "r_values": list(self.r_values),
            "values": [float(v) for v in self.values],
            "stabilization_window": self.stabilization_window,
            "tolerance": float(self.tolerance),
            "stabilized": self.stabilized,
            "estimate": self.estimate,
        }


@dataclass(frozen=True)
class AlphaHatEstimate:
    """Estimated column limit of the transformed window."""

    k: int
    samples: tuple
    estimate: float
    converged: bool


@dataclass(frozen=True)
class CompactnessReport:
    criterion_id: str
    grid: LimitGrid
    lower_value: float
    upper_value: float
    verdict: str
    notes: str

    def __post_init__(self):
        if self.lower_value > self.upper_value:
            raise ValueError("lower_value must not exceed upper_value")

    def to_json_dict(self) -> dict:
        return {
            "criterion": self.criterion_id,
            "lower": float(self.lower_value),
            "upper": float(self.upper_value),
            "verdict": self.verdict,
            "grid": self.grid.to_json_dict(),
            "notes": self.notes,
        }

    def render_table(self) -> str:
        lines = [
            f"criterion   {self.criterion_id}",
            f"verdict     {self.verdict}",
            f"lower       {format_float(self.lower_value)}",
            f"upper       {format_float(self.upper_value)}",
            f"stabilized  {'yes' if self.grid.stabilized else 'no'}"
            f" (window {self.grid.stabilization_window},"
            f" tolerance {format_float(self.grid.tolerance)})",
            f"{'r':>8}  value",
        ]
        for r, v in zip(self.grid.r_values, self.grid.values):
            lines.append(f"{r:>8}  {format_float(v)}")
        lines.append(f"notes       {self.notes}")
        return "\n".join(lines) + "\n"


def _verdict(grid: LimitGrid, lower: float, upper: float) -> str:
    if not grid.stabilized:
        return VERDICT_INCONCLUSIVE
    if upper < grid.tolerance:
        return VERDICT_COMPACT
    if lower > grid.tolerance:
        return VERDICT_NONCOMPACT
    return VERDICT_INCONCLUSIVE


def _check_grid(name: str, grid, *, upper_exclusive: int | None = None) -> list[int]:
    try:
        values = [int(v) for v in grid]
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a list of integers") from None
    if not values:
        raise ValueError(f"{name} must be nonempty")
    for a, b in zip(values, values[1:]):
        if b <= a:
            raise ValueError(f"{name} must be strictly increasing")
    if values[0] < 0:
        raise ValueError(f"{name} entries must be nonnegative")
    if upper_exclusive is not None and values[-1] >= upper_exclusive:
        raise ValueError(
            f"{name} entries must stay below {upper_exclusive} so the window can populate the grid"
        )
    return values


def _suffix_max(values) -> np.ndarray:
    """``out[i] = max(values[i:])`` for nonnegative values."""
    return np.maximum.accumulate(np.asarray(values, dtype=float)[::-1])[::-1]


def _window(A: MatrixSource, order, p, grid, row_count, column_bound, *,
            grid_name="r_grid", upper_exclusive=None) -> tuple[float, list[int], HatMatrixWindow]:
    """The shared head of every criterion: conjugate index, checked grid, hat window."""
    order = FractionalOrder.of(order)
    q = Exponent.of(p).q
    grid = _check_grid(grid_name, grid, upper_exclusive=upper_exclusive)
    return q, grid, hat_matrix(A, order, row_count, column_bound)


def _report(criterion_id: str, grid, values, stabilization: StabilizationPolicy, notes: str,
            lower: float = 1.0, upper: float = 1.0, unconverged=()) -> CompactnessReport:
    """The shared tail: limit grid, bounds ``lower``/``upper`` times its estimate, verdict.

    Unconverged column limits (``unconverged`` lists their indices)
    force an inconclusive verdict but leave the value grid intact.
    """
    limit = LimitGrid(tuple(grid), tuple(values), stabilization.window, stabilization.tolerance)
    est = limit.estimate
    lower, upper = lower * est, upper * est
    verdict = _verdict(limit, lower, upper)
    notes += "; finite-window evidence only"
    if unconverged:
        verdict = VERDICT_INCONCLUSIVE
        notes += f"; column limits unconverged at k={list(unconverged)}"
    return CompactnessReport(criterion_id, limit, lower, upper, verdict, notes)


def mnc_c0(A: MatrixSource, order, p, *, r_grid, row_count, column_bound,
           stabilization: StabilizationPolicy = StabilizationPolicy()) -> CompactnessReport:
    """Noncompactness estimator toward the null-sequence target.

    Grid value at ``r``: sup over rows ``n >= r`` in the window of the
    conjugate-index row norm.  The estimator is an identity, so lower
    and upper coincide.  ``p = 1`` switches the row norm to a sup over
    columns.
    """
    q, grid, window = _window(A, order, p, r_grid, row_count, column_bound,
                              upper_exclusive=row_count)
    values = _suffix_max(_row_norms(window.values, q))[grid].tolist()
    notes = f"sup of row norms (q={format_float(q)}) over rows [r, {row_count})"
    return _report("MNC-C0", grid, values, stabilization, notes)


def estimate_alpha_hat(A: MatrixSource, order, *, row_count, column_bound,
                       stabilization: StabilizationPolicy = StabilizationPolicy()) -> list[AlphaHatEstimate]:
    """Per-column limits of the transformed window, from the trailing rows."""
    window = hat_matrix(A, order, row_count, column_bound)
    return _alpha_hat(window, column_bound, stabilization)


def _alpha_hat(window: HatMatrixWindow, column_bound: int,
               stabilization: StabilizationPolicy) -> list[AlphaHatEstimate]:
    w = stabilization.window
    kept = _columns(window.values[-2 * w:], column_bound)
    tail = kept[-w:]
    with np.errstate(over="ignore"):  # a sample past the float range from its mean is unconverged
        estimates = tail.sum(axis=0) / len(tail)
        converged = (np.abs(tail - estimates) <= stabilization.tolerance).all(axis=0)
    if not np.isfinite(estimates).all():
        raise ValueError("a column mean of the transformed window is past the float range")
    converged &= window.row_count >= w
    return [
        AlphaHatEstimate(k, tuple(samples), estimate, ok)
        for k, (samples, estimate, ok) in enumerate(
            zip(kept.T.tolist(), estimates.tolist(), converged.tolist()))
    ]


def mnc_c(A: MatrixSource, order, p, *, r_grid, row_count, column_bound,
          stabilization: StabilizationPolicy = StabilizationPolicy()) -> CompactnessReport:
    """Noncompactness bounds toward the convergent-sequence target.

    Column limits are estimated first on ``[0, column_bound)`` (assumed
    zero beyond); grid value at ``r`` is the sup over rows ``n >= r`` of
    the conjugate-index norm of the row minus the column-limit vector.
    The true value lies between half the stabilized limit and the limit.
    Unconverged columns force an inconclusive verdict but leave the
    value grid intact.
    """
    q, grid, window = _window(A, order, p, r_grid, row_count, column_bound,
                              upper_exclusive=row_count)
    alpha = _alpha_hat(window, column_bound, stabilization)
    center = np.array([a.estimate for a in alpha])
    values = _suffix_max(_row_norms(window.values, q, center=center))[grid].tolist()
    notes = (
        f"sup of row-minus-column-limit norms (q={format_float(q)}) over rows [r, {row_count}); "
        f"column limits on [0, {column_bound}), assumed zero beyond"
    )
    return _report("MNC-C", grid, values, stabilization, notes, lower=0.5,
                   unconverged=[a.k for a in alpha if not a.converged])


def mnc_l1(A: MatrixSource, order, p, *, r_grid, row_count, column_bound,
           method: str = "exhaustive",
           stabilization: StabilizationPolicy = StabilizationPolicy()) -> CompactnessReport:
    """Noncompactness bounds toward the absolutely-summable target.

    Grid value at ``r``: sup over nonempty subsets of rows
    ``{r+1, ..., row_count-1}`` of the conjugate-index norm of the
    summed rows.  The true value lies between the stabilized limit and
    four times it.  ``greedy`` replaces the exhaustive supremum by a
    monotone lower bound.
    """
    q, grid, window = _window(A, order, p, r_grid, row_count, column_bound,
                              upper_exclusive=row_count - 1)
    pool = window.values[1:]  # subset members always exceed r >= 0
    pool_size = row_count - 1
    if method == "exhaustive":
        _, _, by_min = _enumerate_subsets(pool, q, want_by_min=True)
        suffix = _suffix_max(by_min).tolist()  # by_min[j] covers original row j+1
        values = [suffix[r] if r < pool_size else 0.0 for r in grid]
    elif method == "greedy":
        raw = [_greedy_subset(pool, q, list(range(r, pool_size)))[0] for r in grid]
        values = _suffix_max(raw).tolist()  # a certificate found at larger r is valid at smaller r
    else:
        raise ValueError(f'method must be "exhaustive" or "greedy", got {method!r}')
    notes = (
        f"sup over nonempty subsets of rows (r, {row_count}) of the summed-row norm "
        f"(q={format_float(q)}, method={method})"
    )
    return _report("MNC-L1", grid, values, stabilization, notes, upper=4.0)


def _column_tail_report(criterion_id, A, order, p, *, r_grid, row_count, column_bound,
                        stabilization) -> CompactnessReport:
    q, grid, window = _window(A, order, p, r_grid, row_count, column_bound)
    values = [float(_row_norms(window.values[:, r + 1:], q).max(initial=0.0)) for r in grid]
    notes = (
        f"sup over rows [0, {row_count}) of the column-tail norm beyond index r "
        f"(q={format_float(q)})"
    )
    return _report(criterion_id, grid, values, stabilization, notes)


def criterion_linf_target(A: MatrixSource, order, p, *, r_grid, row_count, column_bound,
                          stabilization: StabilizationPolicy = StabilizationPolicy()) -> CompactnessReport:
    """Compactness criterion toward the bounded target: column tails vanish.

    Grid value at ``r``: sup over window rows of the conjugate-index
    norm restricted to columns ``k > r``.  Requires ``1 < p < inf``.
    """
    p = Exponent.of(p)
    if p.p <= 1.0 or p.is_inf:
        raise ValueError(f"p must satisfy 1 < p < inf, got {p.label()}")
    return _column_tail_report("T3", A, order, p, r_grid=r_grid, row_count=row_count,
                               column_bound=column_bound, stabilization=stabilization)


def criterion_linf_domain(A: MatrixSource, order, *, r_grid, row_count, column_bound,
                          stabilization: StabilizationPolicy = StabilizationPolicy()) -> CompactnessReport:
    """Bounded-domain, bounded-target criterion: absolute column tails vanish."""
    return _column_tail_report("LINF-DOMAIN", A, order, math.inf, r_grid=r_grid,
                               row_count=row_count, column_bound=column_bound,
                               stabilization=stabilization)


def sargent_criterion(A: MatrixSource, order, *, m_grid, row_count, column_window,
                      stabilization: StabilizationPolicy = StabilizationPolicy()) -> CompactnessReport:
    """Uniform column-pair criterion for the summable domain, bounded target.

    For each column pair the sup over all window rows of the entry
    difference must be reached uniformly by the sups over rows
    ``0..m``.  Grid value at ``m``: the largest remaining defect over
    pairs from ``[0, column_window)``.  The defect is nonnegative and
    nonincreasing in ``m``.
    """
    if not isinstance(column_window, int) or column_window < 2:
        raise ValueError(f"column_window must be an integer >= 2, got {column_window!r}")
    _, grid, window = _window(A, order, 1, m_grid, row_count, column_window,
                              grid_name="m_grid", upper_exclusive=row_count)
    C = _columns(window.values, column_window)
    defects = np.zeros(len(grid))
    for k1 in range(column_window - 1):
        with np.errstate(over="ignore"):  # checked on the next line
            diffs = np.abs(C[:, k1 + 1:] - C[:, k1: k1 + 1])
        full = diffs.max(axis=0)
        if not np.isfinite(full).all():
            raise ValueError("a column difference of the transformed window is past the float range")
        running = np.maximum.accumulate(diffs, axis=0)
        for gi, m in enumerate(grid):
            gap = (full - running[m]).max()
            if gap > defects[gi]:
                defects[gi] = gap
    notes = (
        f"uniformity defect of column-pair sups, pairs from [0, {column_window}), "
        f"truncated sup over rows [0, m]"
    )
    return _report("T7", grid, defects.tolist(), stabilization, notes)


@dataclass(frozen=True)
class Criterion:
    """One grid criterion: its CLI subcommand and how its function is called."""

    command: str  # CLI subcommand
    function: str  # name of the criterion function in this module
    grid: str  # keyword of its grid argument
    columns: str  # keyword of its column-window argument
    takes_p: bool  # whether it takes the domain index p


CRITERIA = (
    Criterion("mnc-c0", "mnc_c0", "r_grid", "column_bound", True),
    Criterion("mnc-c", "mnc_c", "r_grid", "column_bound", True),
    Criterion("mnc-l1", "mnc_l1", "r_grid", "column_bound", True),
    Criterion("crit-linf", "criterion_linf_target", "r_grid", "column_bound", True),
    Criterion("sargent", "sargent_criterion", "m_grid", "column_window", False),
    Criterion("crit-linfdom", "criterion_linf_domain", "r_grid", "column_bound", False),
)

# table item -> (criterion function, p fixed by the item or None for the caller's 1 < p < inf)
_TABLE = {
    1: ("mnc_c0", None),
    2: ("mnc_c", None),
    3: ("criterion_linf_target", None),
    4: ("mnc_l1", None),
    5: ("mnc_c0", 1),
    6: ("mnc_c", 1),
    7: ("sargent_criterion", None),
}


def table_criterion(item: int, A: MatrixSource, order, *, p=None, r_grid=None, m_grid=None,
                    row_count, column_bound, method: str = "exhaustive",
                    stabilization: StabilizationPolicy = StabilizationPolicy()) -> CompactnessReport:
    """Dispatch the numbered compactness conditions T1..T7.

    Items 1-4 take the domain index ``p`` with ``1 < p < inf``; items
    5-7 fix the summable domain.  The report is relabeled with the
    table identifier.
    """
    if item not in _TABLE:
        raise ValueError(f"table item must be in {sorted(_TABLE)}, got {item!r}")
    name, fixed_p = _TABLE[item]
    spec = next(c for c in CRITERIA if c.function == name)
    if spec.takes_p and fixed_p is None:
        if p is None:
            raise ValueError(f"table item {item} requires p")
        pe = Exponent.of(p)
        if pe.p <= 1.0 or pe.is_inf:
            raise ValueError(f"table item {item} requires 1 < p < inf, got {pe.label()}")
    grid = r_grid if spec.grid == "r_grid" else m_grid
    if grid is None:
        raise ValueError(f"table item {item} requires {spec.grid}")
    kwargs = {spec.grid: grid, spec.columns: column_bound}
    if spec.takes_p:
        kwargs["p"] = p if fixed_p is None else fixed_p
    if name == "mnc_l1":
        kwargs["method"] = method
    # looked up at call time, so a rebound module attribute is what runs
    report = globals()[name](A, order, row_count=row_count, stabilization=stabilization, **kwargs)
    return dataclasses.replace(report, criterion_id=f"T{item}")
