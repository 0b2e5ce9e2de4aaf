"""Finite representations of infinite matrices and their transformed windows.

A :class:`MatrixSource` yields one finitely stored row at a time, or its
leading rows at once as a zero-padded array.  The transformed window
applies the upper-triangular dual convolution (the inverse-order
coefficients) to every row; the result satisfies ``A x == Ahat y``
entrywise whenever ``y`` is the forward transform of ``x``, which is the
integration contract the tests pin down.

Operator norms toward bounded-sequence targets are sups of
conjugate-index row norms; the absolutely-summable target requires a
supremum over nonempty row subsets, provided here both as exhaustive
enumeration (cost-guarded) and as a sign-greedy lower bound.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .coefficients import FractionalOrder, raw_prefix
from .errors import CostGuardError, SourceError
from .serialize import format_float, json_integer, json_number, json_numbers
from .transforms import Exponent, lq_norm, triangular_apply, _is_exact_number

KIND_DENSE = "dense-window"
KIND_BANDED = "banded"
KIND_GENERATOR = "generator"

GENERATOR_RULES = ("identity", "diagonal", "finite-rows", "row-scaled-shift")

DEFAULT_SUBSET_GUARD = 22
SUBSET_GUARD_ENV = "FRACSEQ_MAX_SUBSET_ROWS"

_ROW_CHUNK = 256  # rows (and columns) per step of the hat product and row reductions
_SCRATCH_BYTES = 1 << 21  # row-norm and subset-scan scratch: numpy asks for huge pages from 4 MiB, which can stay resident


def subset_guard_limit() -> int:
    raw = os.environ.get(SUBSET_GUARD_ENV)
    if raw is None:
        return DEFAULT_SUBSET_GUARD
    try:
        limit = int(raw)
    except ValueError:
        raise ValueError(f"{SUBSET_GUARD_ENV} must be an integer, got {raw!r}") from None
    if limit < 1:
        raise ValueError(f"{SUBSET_GUARD_ENV} must be positive, got {limit}")
    return limit


def _not_finite(n: int, k: int, v) -> SourceError:
    return SourceError(f"row {n} entry {k} is not a finite number: {v!r}")


def _check_row_values(values, n: int) -> list:
    out = list(values)
    for k, v in enumerate(out):
        if _is_exact_number(v):
            continue
        if isinstance(v, float) and math.isfinite(v):
            continue
        raise _not_finite(n, k, v)
    return out


def _first_nonfinite(values: np.ndarray):
    """``(row, column)`` of the first non-finite entry in row-major order, or None."""
    bad = np.argwhere(~np.isfinite(values))
    return tuple(bad[0].tolist()) if len(bad) else None


def _call_row_fn(fn, n: int):
    try:
        return fn(n)
    except (ValueError, SourceError):
        raise
    except Exception as exc:
        raise SourceError(f"matrix source failed at row {n}: {exc}") from exc


def _pad_rows(values: np.ndarray, lengths: np.ndarray, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """A block of the rows below a row bound, extended with empty rows to ``n_rows``."""
    m = len(lengths)
    if m < n_rows:
        values = np.vstack([values, np.zeros((n_rows - m, values.shape[1]))])
        lengths = np.concatenate([lengths, np.zeros(n_rows - m, dtype=np.int64)])
    return values, lengths


def _stack_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """Ragged rows as one zero-padded float array plus each row's length."""
    lengths = np.array([len(r) for r in rows], dtype=np.int64)
    values = np.zeros((len(rows), int(lengths.max(initial=0))))
    for n, r in enumerate(rows):
        values[n, : len(r)] = r
    return values, lengths


# Block builders.  ``block(m)`` yields rows ``0..m-1`` (``m`` never exceeds
# the declared row bound) as a fresh zero-padded array exactly as wide as
# its longest row, plus the row lengths, and raises the error ``row()``
# would raise first when walking those rows in order.  Band-structured
# sources instead build ``bands(m)``, fresh ``(offset, values[m])`` pairs
# that ``_checked_bands`` checks and ``_scatter_bands`` turns into the block.


def _stored_block(stored):
    """Rows held in memory; asking past them is an error."""

    def block(m):
        values, lengths = _stack_rows(stored[:m])
        bad = _first_nonfinite(values)
        if bad is not None:
            raise _not_finite(*bad, float(values[bad]))
        if m > len(stored):
            raise SourceError(f"row {len(stored)} outside the stored window of {len(stored)} rows")
        return values, lengths

    return block


def _band_lengths(offsets, m: int) -> np.ndarray:
    """Stored length of rows ``0..m-1`` of a band source: row ``n`` reaches column ``n + max(offsets)``."""
    if not offsets:
        return np.zeros(m, dtype=np.int64)
    return np.maximum(np.arange(m, dtype=np.int64) + max(offsets) + 1, 0)


def _scatter_bands(bands, m: int):
    """``block(m)`` of a band-structured source: ``a[n, n + o] = d[n]`` for every band ``(o, d)``."""
    lengths = _band_lengths([o for o, _ in bands], m)
    width = int(lengths.max(initial=0))
    values = np.zeros((m, width))
    flat = values.reshape(-1)
    for o, d in bands:
        lo = max(0, -o)  # first row whose band entry has a nonnegative column
        if lo < m:
            flat[lo * (width + 1) + o :: width + 1][: m - lo] = d[lo:]
    return values, lengths


def _checked_bands(bands):
    """Zero each band's rows before its first nonnegative column, then raise at the
    first non-finite entry in row-major order, as ``row()`` would."""
    first = None
    for o, d in bands:
        d[: max(0, -o)] = 0.0
        bad = np.flatnonzero(~np.isfinite(d))
        if len(bad) and (first is None or (bad[0], bad[0] + o) < first[:2]):
            first = (int(bad[0]), int(bad[0]) + o, float(d[bad[0]]))
    if first is not None:
        raise _not_finite(*first)
    return bands


def _summed_bands(offsets, diags):
    """Bands of ``a[n, n + offsets[j]] = diags[j]``, repeated offsets summed (a diagonal is
    a scalar, or indexed by row and zero past its end)."""
    arrays = [d if isinstance(d, float) else np.asarray(d, dtype=float) for d in diags]

    def bands(m):
        sums = {}
        with np.errstate(over="ignore", invalid="ignore"):  # a repeated offset may sum to inf or nan
            for o, d in zip(offsets, arrays):
                band = sums.setdefault(o, np.zeros(m))
                if isinstance(d, float):
                    band += d
                else:
                    seg = d[:m]
                    band[: len(seg)] += seg
        return list(sums.items())

    return bands


def _powers(rule: str, scale: float, ratio: float):
    """``n -> scale * ratio**n``; a power past the float range names the rule, the parameter and the row."""

    def value(n):
        try:
            return scale * ratio**n
        except OverflowError:
            raise SourceError(
                f"{rule} rule: scale*ratio**{n} is past the float range at row {n} (ratio={ratio!r})"
            ) from None

    return value


def _one_band(value, shift: int, diagonal=None):
    """Row function and bands of rows holding one entry, ``value(n)`` at column ``n + shift``.

    ``diagonal(m)``, when given, returns ``value(0..m-1)`` as an array at once.
    """

    def row_fn(n):
        return [0.0] * (n + shift) + [value(n)]

    def bands(m):
        if diagonal is not None:
            return [(shift, diagonal(m))]
        d = np.empty(m)
        for n in range(m):
            d[n] = v = _call_row_fn(value, n)
            if not math.isfinite(v):  # before a later row's power can overflow
                raise _not_finite(n, n + shift, v)
        return [(shift, d)]

    return row_fn, bands


class MatrixSource:
    """A row-indexed description of an infinite matrix.

    ``row(n)`` returns the finitely stored entries of row ``n`` for
    columns ``[0, len(result))``.  When ``declared_column_decay`` holds,
    the zero tail beyond the stored entries is the true tail; otherwise
    the matrix is only known on the stored window.  ``declared_row_bound``
    asserts that rows at or past the bound are identically zero.
    ``block(n)`` returns the first ``n`` rows at once.
    """

    def __init__(self, kind, row_fn, *, row_bound=None, column_decay=True, payload=None):
        if kind not in (KIND_DENSE, KIND_BANDED, KIND_GENERATOR):
            raise ValueError(f"unknown matrix kind {kind!r}")
        if row_bound is not None and (not isinstance(row_bound, int) or row_bound < 0):
            raise ValueError(f"row_bound must be a nonnegative integer, got {row_bound!r}")
        self.kind = kind
        self.declared_row_bound = row_bound
        self.declared_column_decay = bool(column_decay)
        self._row_fn = row_fn
        self._block_fn = None  # set by the constructors that build block() directly
        self._bands_fn = None  # m -> [(offset, values[m])], distinct offsets; set by band-structured constructors
        self._payload = payload or {}

    def row(self, n: int) -> list:
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError(f"row index must be a nonnegative integer, got {n!r}")
        if self.declared_row_bound is not None and n >= self.declared_row_bound:
            return []
        return _check_row_values(_call_row_fn(self._row_fn, n), n)

    def block(self, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows ``0..n_rows-1`` as one zero-padded float array plus each row's stored length.

        Row ``n`` is ``values[n, :lengths[n]]``, equal to ``row(n)`` in
        floats, and the columns past it are zero; the array is as wide as
        the longest row.  Errors are those ``row()`` raises first.  Sources
        built from a callable, or holding exact numbers, are read through
        ``row()``.  The array is new, so the caller may write to it.
        """
        if not isinstance(n_rows, int) or isinstance(n_rows, bool) or n_rows < 0:
            raise ValueError(f"row count must be a nonnegative integer, got {n_rows!r}")
        if not self.floats_only:
            return _stack_rows([self.row(n) for n in range(n_rows)])
        return _pad_rows(*self._block_fn(self._bounded(n_rows)), n_rows)

    def _bounded(self, n_rows: int) -> int:
        """How many of the first ``n_rows`` rows lie below the declared row bound."""
        bound = self.declared_row_bound
        return n_rows if bound is None else min(n_rows, bound)

    @property
    def floats_only(self) -> bool:
        """True when the source is known to hold only floats, so ``block()`` skips ``row()``."""
        return self._block_fn is not None

    def _with_block(self, block_fn) -> "MatrixSource":
        self._block_fn = block_fn
        return self

    def _with_bands(self, bands_fn) -> "MatrixSource":
        self._bands_fn = bands_fn
        return self._with_block(lambda m: _scatter_bands(_checked_bands(bands_fn(m)), m))

    # -- constructors ---------------------------------------------------

    @classmethod
    def dense_window(cls, rows, *, row_bound=None, column_decay=True) -> "MatrixSource":
        stored = [list(r) for r in rows]
        if row_bound is not None:
            for n in range(row_bound, len(stored)):
                if any(v != 0 for v in stored[n]):
                    raise ValueError(f"row {n} is nonzero but row_bound={row_bound} declares it zero")

        def row_fn(n):
            if n < len(stored):
                return list(stored[n])
            raise SourceError(f"row {n} outside the stored window of {len(stored)} rows")

        types = set(map(type, itertools.chain.from_iterable(stored)))
        floats = all(issubclass(t, float) for t in types)
        return cls(
            KIND_DENSE,
            row_fn,
            row_bound=row_bound,
            column_decay=column_decay,
            payload={"rows": stored},
        )._with_block(_stored_block(stored) if floats else None)

    @classmethod
    def banded(cls, offsets, diagonals, *, row_bound=None) -> "MatrixSource":
        """Band storage: ``a[n, n + offsets[j]] = diagonals[j][n]``.

        A scalar diagonal is constant along its band; list diagonals are
        indexed by row and contribute zero past their end.
        """
        offsets = [int(o) for o in offsets]
        if len(offsets) != len(diagonals):
            raise ValueError("offsets and diagonals must have equal length")
        diags = []
        for d in diagonals:
            if isinstance(d, (int, float)) and not isinstance(d, bool):
                diags.append(float(d))
            else:
                diags.append([float(v) for v in d])
        if row_bound is None and all(isinstance(d, list) for d in diags):
            row_bound = max((len(d) for d in diags), default=0)

        def row_fn(n):
            width = 0
            pairs = []
            for o, d in zip(offsets, diags):
                col = n + o
                if col < 0:
                    continue
                val = d if isinstance(d, float) else (d[n] if n < len(d) else 0.0)
                pairs.append((col, val))
                width = max(width, col + 1)
            out = [0.0] * width
            for col, val in pairs:
                out[col] += val
            return out

        return cls(
            KIND_BANDED,
            row_fn,
            row_bound=row_bound,
            column_decay=True,
            payload={"offsets": offsets, "diagonals": diags},
        )._with_bands(_summed_bands(offsets, diags))

    @classmethod
    def generator(cls, rule: str, params: dict | None = None) -> "MatrixSource":
        params = dict(params or {})
        bound = None
        if rule == "identity":
            row_fn, bands_fn = _one_band(lambda n: 1.0, 0, np.ones)
        elif rule == "diagonal":
            if "values" in params:
                values = [float(v) for v in params["values"]]
                row_fn, bands_fn = _one_band(values.__getitem__, 0, lambda m: np.array(values[:m]))
                bound = len(values)
            elif "ratio" in params:
                scale = float(params.get("scale", 1.0))
                ratio = float(params["ratio"])
                row_fn, bands_fn = _one_band(_powers(rule, scale, ratio), 0)
            else:
                raise ValueError('diagonal rule needs params "values" or "ratio"')
        elif rule == "finite-rows":
            if "rows" not in params:
                raise ValueError('finite-rows rule needs params "rows"')
            stored = [[float(v) for v in r] for r in params["rows"]]
            row_fn, bound = (lambda n: list(stored[n])), len(stored)
        elif rule == "row-scaled-shift":
            scale = float(params.get("scale", 1.0))
            ratio = float(params.get("ratio", 1.0))
            shift = int(params.get("shift", 0))
            if shift < 0:
                raise ValueError('row-scaled-shift param "shift" must be nonnegative')
            row_fn, bands_fn = _one_band(_powers(rule, scale, ratio), shift)
        else:
            raise ValueError(f"unknown generator rule {rule!r}; expected one of {GENERATOR_RULES}")
        source = cls(
            KIND_GENERATOR,
            row_fn,
            row_bound=bound,
            column_decay=True,
            payload={"rule": rule, "params": params},
        )
        if rule == "finite-rows":
            return source._with_block(_stored_block(stored))
        return source._with_bands(bands_fn)

    @classmethod
    def from_callable(cls, row_fn, *, row_bound=None, column_decay=True) -> "MatrixSource":
        """Wrap an arbitrary ``n -> entries`` callable (not serializable)."""
        return cls(
            KIND_GENERATOR,
            row_fn,
            row_bound=row_bound,
            column_decay=column_decay,
            payload={"rule": "custom", "params": {}},
        )

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        if self.kind == KIND_DENSE:
            return {
                "kind": self.kind,
                "rows": [[float(v) for v in r] for r in self._payload["rows"]],
                "row_bound": self.declared_row_bound,
                "column_decay": self.declared_column_decay,
            }
        if self.kind == KIND_BANDED:
            return {
                "kind": self.kind,
                "band": {
                    "offsets": self._payload["offsets"],
                    "diagonals": self._payload["diagonals"],
                },
                "row_bound": self.declared_row_bound,
            }
        if self._payload.get("rule") == "custom":
            raise ValueError("a custom-callable matrix source cannot be serialized")
        return {
            "kind": self.kind,
            "rule": self._payload["rule"],
            "params": self._payload["params"],
        }

    @classmethod
    def from_json_dict(cls, obj) -> "MatrixSource":
        """Load the JSON form; malformed fields raise ``ValueError`` naming their path."""
        if not isinstance(obj, dict):
            raise ValueError("matrix JSON must be an object")
        kind = obj.get("kind")
        row_bound = obj.get("row_bound")
        if row_bound is not None:
            row_bound = json_integer(row_bound, "matrix.row_bound")
        if kind == KIND_DENSE:
            rows = obj.get("rows")
            if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
                raise ValueError('matrix field "rows" must be an array of arrays')
            return cls.dense_window(
                [json_numbers(r, f"matrix.rows[{n}]") for n, r in enumerate(rows)],
                row_bound=row_bound,
                column_decay=bool(obj.get("column_decay", True)),
            )
        if kind == KIND_BANDED:
            band = obj.get("band")
            if not isinstance(band, dict) or "offsets" not in band or "diagonals" not in band:
                raise ValueError('matrix field "band" must hold "offsets" and "diagonals"')
            offsets, diagonals = band["offsets"], band["diagonals"]
            for name, value in (("offsets", offsets), ("diagonals", diagonals)):
                if not isinstance(value, list):
                    raise ValueError(f'matrix field "band.{name}" must be an array')
            offsets = [json_integer(o, "matrix.band.offsets", j) for j, o in enumerate(offsets)]
            diagonals = [
                json_numbers(d, f"matrix.band.diagonals[{j}]") if isinstance(d, list)
                else json_number(d, "matrix.band.diagonals", j)
                for j, d in enumerate(diagonals)
            ]
            return cls.banded(offsets, diagonals, row_bound=row_bound)
        if kind == KIND_GENERATOR:
            rule = obj.get("rule")
            if not isinstance(rule, str):
                raise ValueError('matrix field "rule" must be a string')
            return cls.generator(rule, _json_params(obj.get("params") or {}))
        raise ValueError(f'matrix field "kind" must be one of {(KIND_DENSE, KIND_BANDED, KIND_GENERATOR)}, got {kind!r}')


def _json_params(params) -> dict:
    """Generator params with each known field checked against its JSON type."""
    if not isinstance(params, dict):
        raise ValueError('matrix field "params" must be an object')
    out = dict(params)
    for key in ("scale", "ratio"):
        if key in out:
            out[key] = json_number(out[key], f"matrix.params.{key}")
    if "shift" in out:
        out["shift"] = json_integer(out["shift"], "matrix.params.shift")
    if "values" in out:
        out["values"] = json_numbers(out["values"], "matrix.params.values")
    if "rows" in out:
        rows = out["rows"]
        if not isinstance(rows, list):
            raise ValueError('matrix field "params.rows" must be an array')
        out["rows"] = [json_numbers(r, f"matrix.params.rows[{n}]") for n, r in enumerate(rows)]
    return out


@dataclass(frozen=True, eq=False)
class HatMatrixWindow:
    """Transformed rows as one zero-padded float array plus each row's natural length.

    Row ``n`` is ``values[n, :lengths[n]]``; the columns past it hold
    zeros.  An exact window also keeps its ``Fraction`` rows in
    ``exact_rows``.  Windows are equal, and hash alike, when their
    ``rows``, ``column_bound`` and ``exactness`` are equal.
    """

    values: np.ndarray
    lengths: np.ndarray
    column_bound: int
    exactness: str  # "exact" | "truncated"
    exact_rows: tuple | None = None

    @property
    def row_count(self) -> int:
        return len(self.lengths)

    @cached_property
    def rows(self) -> tuple:
        """Each row at its natural length: ``Fraction`` entries when exact, floats otherwise."""
        if self.exact_rows is not None:
            return self.exact_rows
        return tuple(tuple(r) for r in self.as_float_rows())

    def _key(self) -> tuple:
        return self.rows, self.column_bound, self.exactness

    def __eq__(self, other):
        if not isinstance(other, HatMatrixWindow):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def as_float_rows(self) -> list[list[float]]:
        return [row[:n].tolist() for row, n in zip(self.values, self.lengths.tolist())]

    def dense(self, width: int | None = None) -> list[list[float]]:
        if width is None:
            width = max(self.values.shape[1], self.column_bound)
        return _columns(self.values, width).tolist()

    def to_json_dict(self) -> dict:
        return {
            "rows": self.dense(),
            "column_bound": self.column_bound,
            "exactness": self.exactness,
        }


def _columns(values: np.ndarray, width: int) -> np.ndarray:
    """The first ``width`` columns of a zero-padded window, widened with zeros as needed."""
    out = np.zeros((values.shape[0], width))
    k = min(width, values.shape[1])
    out[:, :k] = values[:, :k]
    return out


def _window_args(row_count, column_bound):
    for name, v in (("row_count", row_count), ("column_bound", column_bound)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValueError(f"{name} must be a positive integer, got {v!r}")


def _float_prefix(alpha: float, width: int) -> np.ndarray:
    """The coefficient prefix as floats; one past the float range raises ``FloatingPointError``,
    since its products with finite entries raise no overflow."""
    prefix = np.array(raw_prefix(alpha, width))
    if not np.isfinite(prefix).all():
        raise FloatingPointError("coefficient prefix past the float range")
    return prefix


def _triangular_product(values: np.ndarray, lengths: np.ndarray, alpha: float) -> None:
    """``values <- values @ U`` in place, where ``U[j, k] = c_{j-k}`` for ``j >= k``.

    ``c`` is the coefficient prefix at ``alpha``.  Rows go in chunks;
    each chunk multiplies only the leading block ``U[:L, :L]`` its
    longest row reaches, which keeps short rows cheap.  That block is
    taken in column slabs left to right: slab ``[k0, k1)`` needs only
    columns ``k0..L-1`` of the rows (``U`` is zero above its diagonal),
    so it skips half the work and may overwrite the columns it has
    consumed.  ``U`` is Toeplitz, so every slab ``U[k0:L, k0:k1]`` is the
    top left corner of its first slab ``U[:, :_ROW_CHUNK]``, the only
    part ever built.
    """
    width = values.shape[1]
    if width == 0:
        return
    slab_width = min(width, _ROW_CHUNK)
    padded = np.concatenate([np.zeros(slab_width - 1), _float_prefix(alpha, width)])
    slab = np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(padded, slab_width)[:, ::-1])
    cols = np.arange(width)
    for start in range(0, values.shape[0], _ROW_CHUNK):
        lens = lengths[start:start + _ROW_CHUNK]
        L = int(lens.max())
        head = values[start:start + _ROW_CHUNK, :L]
        for k0 in range(0, L, _ROW_CHUNK):
            k1 = min(k0 + _ROW_CHUNK, L)
            head[:, k0:k1] = head[:, k0:] @ slab[: L - k0, : k1 - k0]
        if lens.min() < L:  # past a row's end the product holds zeros of either sign
            np.copyto(head, 0.0, where=cols[:L] >= lens[:, None])


def _band_hat(bands, m: int, n_rows: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Hat window of band rows ``0..m-1``: ``hat[n, k] = sum_o d_o[n] c_{n+o-k}`` (``c_j = 0`` for ``j < 0``).

    Row ``n`` of band ``o`` is row ``W-1-n-o`` of the width-``W`` sliding
    windows of ``Q = [c_{W-1}, ..., c_0, 0, ...]``, so a run of rows is a
    reversed slice of them: no Toeplitz block, no gather.  Bands after the
    first are added through one scratch buffer of at most
    ``_SCRATCH_BYTES``.  With one band the bits equal the product's.
    """
    lengths = np.zeros(n_rows, dtype=np.int64)
    lengths[:m] = _band_lengths([o for o, _ in bands], m)
    width = int(lengths.max(initial=0))
    out = np.zeros((n_rows, width))
    if width:
        prefix = np.zeros(2 * width - 1)
        prefix[width - 1 :: -1] = _float_prefix(alpha, width)
        windows = np.lib.stride_tricks.sliding_window_view(prefix, width)
        step = max(1, min(_ROW_CHUNK, _SCRATCH_BYTES // (8 * width)))
        scratch = np.empty((min(step, m), width)) if len(bands) > 1 else None
        for start in range(0, m, step):
            stop = min(start + step, m)
            for j, (o, d) in enumerate(bands):
                lo, k = max(start, -o), stop + o  # columns from k on are zero in these rows
                if lo >= stop:
                    continue
                rows = windows[width - k : width - o - lo][::-1, :k]
                if j == 0:
                    np.multiply(rows, d[lo:stop, None], out=out[lo:stop, :k])
                else:
                    out[lo:stop, :k] += np.multiply(rows, d[lo:stop, None], out=scratch[: stop - lo, :k])
            out[start:stop, : max(0, stop + bands[0][0])] += 0.0  # -0.0 becomes +0.0, as in the product's sums
    return out, lengths


def hat_matrix(A: MatrixSource, order, row_count: int, column_bound: int) -> HatMatrixWindow:
    """Transformed window: each row convolved with the inverse-order prefix.

    Exact when the source declares finite row supports (stored entries
    are the whole row); otherwise rows are clipped at ``column_bound``
    and the window is tagged truncated.  Rows holding only exact numbers
    at an exact order give ``Fraction`` rows.  A band-structured source
    sums shifted coefficient prefixes (:func:`_band_hat`); every other
    window is one triangular product on the float block of the rows.
    """
    order = FractionalOrder.of(order)
    _window_args(row_count, column_bound)
    exactness = "exact" if A.declared_column_decay else "truncated"
    clip = None if A.declared_column_decay else column_bound
    alpha = -order.value
    if order.is_exact and not A.floats_only:
        stored_rows = [A.row(n)[:clip] for n in range(row_count)]
        if all(all(_is_exact_number(v) for v in r) for r in stored_rows):
            hat_rows = _exact_hat_rows(stored_rows, -order.exact)
            return HatMatrixWindow(*_stack_rows(hat_rows), column_bound, exactness, hat_rows)
        values, lengths = _stack_rows(stored_rows)
    elif A._bands_fn is not None:  # band sources decay, so nothing is clipped
        m = A._bounded(row_count)
        bands = _checked_bands(A._bands_fn(m))
        values, lengths = _in_float_range(_band_hat, bands, m, row_count, alpha)
        return HatMatrixWindow(values, lengths, column_bound, exactness)
    else:
        values, lengths = A.block(row_count)
        if clip is not None and values.shape[1] > clip:
            values = values[:, :clip].copy()
            lengths = np.minimum(lengths, clip)
    _in_float_range(_triangular_product, values, lengths, alpha)
    return HatMatrixWindow(values, lengths, column_bound, exactness)


def _in_float_range(fn, *args):
    """``fn(*args)``, with an overflowing or invalid float step raised as ``ValueError``."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return fn(*args)
    except FloatingPointError:
        raise ValueError("a transformed window entry is past the float range") from None


def _exact_hat_rows(stored_rows, alpha: Fraction) -> tuple:
    coeffs = raw_prefix(alpha, max((len(r) for r in stored_rows), default=0))
    return tuple(tuple(triangular_apply(r, coeffs, len(r), upper=True)) for r in stored_rows)


@np.errstate(over="ignore")  # a norm past the float range reads inf
def _row_norms(values: np.ndarray, q: float, center: np.ndarray | None = None) -> np.ndarray:
    """``l_q`` norm of every row of a zero-padded window, taken in row chunks.

    ``center``, when given, is subtracted from the leading columns of
    every row first; the rows are widened with zeros to fit it.
    """
    n, width = values.shape
    if center is not None:
        width = max(width, len(center))
    out = np.empty(n)
    step = max(1, min(_ROW_CHUNK, _SCRATCH_BYTES // (8 * max(width, 1))))
    buf = np.empty((min(n, step), width))
    for start in range(0, n, step):
        chunk = values[start:start + step]
        work = buf[: len(chunk)]
        work[:, : chunk.shape[1]] = chunk
        if center is not None:
            work[:, chunk.shape[1]:] = 0.0
            work[:, : len(center)] -= center
        out[start:start + step] = _chunk_norms(work, q)
    return out


def opnorm_to_linf(A: MatrixSource, order, p, row_count: int, column_bound: int) -> float:
    """Sup over window rows of the conjugate-index norm of the transformed row.

    This is the operator norm toward each of the bounded, convergent,
    and null target spaces.
    """
    q = Exponent.of(p).q
    window = hat_matrix(A, order, row_count, column_bound)
    return float(_row_norms(window.values, q).max(initial=0.0))


def _chunk_norms(sums: np.ndarray, q: float, axis: int = 1) -> np.ndarray:
    """``l_q`` norm of each row (``axis=1``) or column (``axis=0``) of ``sums``, which it overwrites."""
    a = np.abs(sums, out=sums)
    if math.isinf(q):
        return a.max(axis=axis, initial=0.0)
    if q == 1.0:
        return a.sum(axis=axis)
    return np.power(a, q, out=a).sum(axis=axis) ** (1.0 / q)


def _subset_table(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums of all ``2**k`` subsets of the ``k`` rows as columns of a ``width x 2**k`` table.

    Columns come in segments by lowest row, row 0's first, then the
    empty subset.  Segment ``v`` is row ``v`` added to every later
    column, so each sum adds its rows in descending order.  Returns the
    table and the row mask of each column.
    """
    k, width = rows.shape
    n = 1 << k
    table = np.zeros((width, n))
    masks = np.zeros(n, dtype=np.int64)
    for v in range(k - 1, -1, -1):
        size = 1 << (k - 1 - v)
        start = n - 2 * size
        np.add(table[:, start + size:], rows[v][:, None], out=table[:, start:start + size])
        masks[start:start + size] = masks[start + size:] | (1 << v)
    return table, masks


def _lex_smallest(masks: np.ndarray) -> tuple:
    """The lexicographically smallest of the row-index tuples of distinct nonempty ``masks``."""
    out = []
    while True:
        low = masks & -masks
        if not low.all():  # that tuple ends here, so it is a prefix of every other one
            return tuple(out)
        bit = low.min()
        masks = masks[low == bit] ^ bit
        out.append(int(bit).bit_length() - 1)


def _norm_overflow(q: float) -> ValueError:
    return ValueError(f"the l_q norm (q={format_float(q)}) of a sum of window rows is past the float range")


def _enumerate_subsets(rows: np.ndarray, q: float, want_by_min: bool):
    """Scan all nonempty subsets of the row set.

    Returns ``(best_value, best_certificate, by_min)`` where
    ``by_min[v]`` is the best value among subsets whose smallest element
    is ``v`` (zeros when ``want_by_min`` is false).  The certificate is
    the lexicographically smallest maximizer.  Raises ``CostGuardError``
    above :func:`subset_guard_limit` rows.

    The first ``k`` rows, as many as fit a ``width x 2**k`` table in
    ``_SCRATCH_BYTES``, give a table of all their subset sums.  Each
    subset of the other rows is summed afresh in ascending order and
    added to the whole table at once, so a subset costs O(width) and no
    working array outgrows the table.
    """
    m, width = rows.shape
    limit = subset_guard_limit()
    if m > limit:
        raise CostGuardError(
            f"exhaustive subset enumeration over {m} rows exceeds the "
            f"limit of {limit} (override via {SUBSET_GUARD_ENV})"
        )
    k = min(m, max(0, (_SCRATCH_BYTES // (8 * max(width, 1))).bit_length() - 1))
    n = 1 << k
    segments = [n - (1 << (k - v)) for v in range(k)] + [n - 1]
    high = np.empty(width)
    best_val = -1.0
    best_cert = None
    by_min = np.zeros(m)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below: vals.max() keeps inf and nan
        table, low_masks = _subset_table(rows[:k])
        buf = np.empty_like(table)
        for h in range(1 << (m - k)):
            high[:] = 0.0
            for j in range(m - k):
                if h >> j & 1:
                    high += rows[k + j]
            vals = _chunk_norms(np.add(table, high[:, None], out=buf), q, axis=0)
            if want_by_min:
                seg = np.maximum.reduceat(vals, segments)
                np.maximum(by_min[:k], seg[:k], out=by_min[:k])
                if h:
                    v = k + (h & -h).bit_length() - 1
                    by_min[v] = max(by_min[v], seg[k])
            if not h:
                vals = vals[:-1]  # the empty subset
                if not len(vals):
                    continue
            cmax = float(vals.max())
            if not math.isfinite(cmax):
                raise _norm_overflow(q)
            if cmax >= best_val:
                cert = _lex_smallest(low_masks[:len(vals)][vals == cmax] | (h << k))
                if cmax > best_val or cert < best_cert:
                    best_val, best_cert = cmax, cert
    return best_val, best_cert, by_min


def _greedy_subset(rows: np.ndarray, q: float, indices) -> tuple[float, tuple]:
    """Include a row iff it strictly increases the accumulated norm."""
    current = np.zeros(rows.shape[1])
    value = 0.0
    chosen = []
    for n in indices:
        with np.errstate(over="ignore", invalid="ignore"):
            cand = current + rows[n]
        cval = lq_norm(cand.tolist(), q)
        if not math.isfinite(cval):
            raise _norm_overflow(q)
        if cval > value:
            current = cand
            value = cval
            chosen.append(n)
    if not chosen:
        return 0.0, (indices[0],) if len(indices) else ()
    return value, tuple(chosen)


def opnorm_to_l1(
    A: MatrixSource,
    order,
    p,
    row_count: int,
    column_bound: int,
    method: str = "exhaustive",
) -> tuple[float, tuple]:
    """Operator norm toward the absolutely-summable target.

    Maximizes the conjugate-index norm of the sum of a nonempty subset
    of transformed rows.  ``exhaustive`` enumerates all subsets (guarded
    at :func:`subset_guard_limit` rows, lexicographically smallest
    maximizer as certificate); ``greedy`` returns a lower bound.
    """
    q = Exponent.of(p).q
    window = hat_matrix(A, order, row_count, column_bound)
    rows = window.values
    if method == "exhaustive":
        _, cert, _ = _enumerate_subsets(rows, q, want_by_min=False)
        value = lq_norm(rows[list(cert)].sum(axis=0).tolist(), q)
        return value, cert
    if method == "greedy":
        return _greedy_subset(rows, q, list(range(row_count)))
    raise ValueError(f'method must be "exhaustive" or "greedy", got {method!r}')
