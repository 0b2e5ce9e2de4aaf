"""Property tests for the block read of matrix sources and the float hat product.

``block(n)`` is checked against stacking ``row(0..n-1)``, the reference
row-at-a-time reader, for every serializable constructor; the float hat
window is checked against a per-row ``np.convolve`` reference.
"""

from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from fracseq import MatrixSource, SourceError, hat_matrix
from fracseq.coefficients import raw_prefix
from fracseq.matrix_domain import _row_norms

# zero, or a magnitude in [1e-3, 1e3]: products stay normal and finite
values = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))
# occasionally a non-finite entry, to compare the errors of both readers
nonfinite = st.sampled_from([float("nan"), float("inf"), -float("inf")])
entries = st.one_of(values, values, values, nonfinite)


@st.composite
def sources(draw, entry=entries):
    kinds = ["identity", "values", "ratio", "finite-rows", "shift", "banded", "dense", "dense-clipped"]
    kind = draw(st.sampled_from(kinds))
    if kind == "identity":
        return MatrixSource.generator("identity")
    if kind == "values":
        return MatrixSource.generator("diagonal", {"values": draw(st.lists(entry, max_size=10))})
    if kind == "ratio":
        ratio = draw(st.one_of(st.floats(-2, 2, allow_nan=False), st.sampled_from([1e200, -1e300])))
        return MatrixSource.generator("diagonal", {"ratio": ratio, "scale": draw(entry)})
    if kind == "finite-rows":
        rows = draw(st.lists(st.lists(entry, max_size=8), max_size=10))
        return MatrixSource.generator("finite-rows", {"rows": rows})
    if kind == "shift":
        params = {"scale": draw(entry), "ratio": draw(st.floats(-2, 2, allow_nan=False)),
                  "shift": draw(st.integers(0, 3))}
        return MatrixSource.generator("row-scaled-shift", params)
    if kind == "banded":
        offsets = draw(st.lists(st.integers(-4, 3), max_size=4))
        diagonals = [draw(st.one_of(entry, st.lists(entry, max_size=12))) for _ in offsets]
        row_bound = draw(st.one_of(st.none(), st.integers(0, 12)))
        return MatrixSource.banded(offsets, diagonals, row_bound=row_bound)
    rows = draw(st.lists(st.lists(entry, max_size=8), max_size=10))
    row_bound = draw(st.one_of(st.none(), st.integers(0, 12)))
    if row_bound is not None:  # rows at or past the bound must be stored as zeros
        rows = rows[:row_bound] + [[0.0] * len(r) for r in rows[row_bound:]]
    return MatrixSource.dense_window(rows, row_bound=row_bound, column_decay=kind == "dense")


def read_rows(source, n):
    try:
        return [source.row(k) for k in range(n)], None
    except SourceError as exc:
        return None, str(exc)


def read_block(source, n):
    try:
        return source.block(n), None
    except SourceError as exc:
        return None, str(exc)


@settings(max_examples=300, deadline=None)
@given(sources(), st.integers(0, 14))
def test_block_equals_stacked_rows(source, n):
    rows, row_error = read_rows(source, n)
    block, block_error = read_block(source, n)
    assert block_error == row_error  # same row and entry index, same message
    if rows is None:
        return
    values, lengths = block
    assert lengths.tolist() == [len(r) for r in rows]
    assert values.shape == (n, max(map(len, rows), default=0))
    for k, row in enumerate(rows):
        assert values[k, : len(row)].tolist() == row
        assert not values[k, len(row):].any()


def test_block_reads_exact_and_callable_sources_through_rows():
    exact = MatrixSource.dense_window([[Fraction(1, 3)], [1, Fraction(2)]])
    values, lengths = exact.block(2)
    assert values.tolist() == [[1 / 3, 0.0], [1.0, 2.0]]
    assert lengths.tolist() == [1, 2]

    custom = MatrixSource.from_callable(lambda n: [float(n)] * (n % 3))
    values, lengths = custom.block(4)
    assert lengths.tolist() == [0, 1, 2, 0]
    assert values.tolist() == [[0.0, 0.0], [1.0, 0.0], [2.0, 2.0], [0.0, 0.0]]

    bad = MatrixSource.from_callable(lambda n: [1.0, float("nan")])
    assert read_block(bad, 2)[1] == "row 0 entry 1 is not a finite number: nan"


def test_block_past_a_dense_window_fails_like_row():
    dense = MatrixSource.dense_window([[1.0], [2.0, 3.0]])
    assert read_block(dense, 3)[1] == read_rows(dense, 3)[1] == (
        "row 2 outside the stored window of 2 rows")


orders = st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(1, 3), 0.3, 1.5, 0])


@settings(max_examples=200, deadline=None)
@given(sources(entry=values), orders, st.integers(1, 14), st.integers(1, 12))
def test_float_hat_matches_rowwise_convolution(source, order, n, column_bound):
    rows, error = read_rows(source, n)
    assume(error is None)
    window = hat_matrix(source, order, n, column_bound)
    clip = None if source.declared_column_decay else column_bound
    rows = [r[:clip] for r in rows]
    alpha = -float(order)
    coeffs = np.array(raw_prefix(alpha, max(map(len, rows), default=0) or 1))
    single_entry = all(sum(v != 0 for v in r) <= 1 for r in rows)
    assert window.lengths.tolist() == [len(r) for r in rows]
    for k, row in enumerate(rows):
        got = window.values[k, : len(row)]
        ref = np.convolve(row[::-1], coeffs[: len(row)])[: len(row)][::-1] if row else got[:0]
        scale = max(1.0, float(np.abs(row).sum()) * float(np.abs(coeffs).max()))
        assert np.all(np.abs(got - ref) <= 1e-12 * scale)
        assert np.array_equal(got == 0, ref == 0)
        assert not window.values[k, len(row):].any()
        if single_entry:  # one product per entry: no rounding to reorder
            assert got.tolist() == ref.tolist()


def test_float_hat_of_a_few_long_rows_stays_small():
    import tracemalloc

    shift = 30000
    tracemalloc.start()
    try:
        shifted = hat_matrix(MatrixSource.generator("row-scaled-shift", {"shift": shift}), 0.5, 2, 1)
        banded = hat_matrix(MatrixSource.banded([shift], [1.0]), 0.5, 2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * 2**20  # a full shift x shift Toeplitz matrix would take 7.2 GB
    coeffs = np.array(raw_prefix(-0.5, shift + 2))
    for window in (shifted, banded):
        assert window.lengths.tolist() == [shift + 1, shift + 2]
        for n in range(2):
            assert window.values[n].tolist() == coeffs[n + shift :: -1].tolist() + [0.0] * (1 - n)


def test_windows_compare_by_rows_bound_and_exactness():
    source = MatrixSource.banded([0, 1], [0.5, -1.0])
    window = hat_matrix(source, Fraction(1, 2), 6, 6)
    same = hat_matrix(MatrixSource.banded([0, 1], [0.5, -1.0]), Fraction(1, 2), 6, 6)
    assert window == same and hash(window) == hash(same)
    assert window != hat_matrix(source, Fraction(1, 3), 6, 6)
    assert window != hat_matrix(source, Fraction(1, 2), 6, 7)
    exact = hat_matrix(MatrixSource.dense_window([[Fraction(1, 2)]]), Fraction(1, 2), 1, 1)
    assert exact == hat_matrix(MatrixSource.dense_window([[Fraction(1, 2)]]), Fraction(1, 2), 1, 1)
    assert len({window, same, exact}) == 2


def test_wide_row_norms_equal_rowwise_norms():
    # past 1024 columns the row-norm scratch holds fewer than 256 rows
    rng = np.random.default_rng(5)
    values = rng.standard_normal((300, 3000))
    for center in (None, rng.standard_normal(3100)):
        for q in (1.0, 1.5, float("inf")):
            rowwise = [_row_norms(values[i:i + 1], q, center)[0] for i in range(len(values))]
            assert _row_norms(values, q, center).tolist() == rowwise
