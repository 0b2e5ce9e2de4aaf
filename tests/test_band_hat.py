"""The band hat of band-structured sources against the triangular product.

Identity, diagonal, row-scaled-shift and banded sources build their hat
window from shifted coefficient prefixes.  The reference is the product
the other sources take, run on the same ``block(n)``.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracseq.matrix_domain as md
from fracseq import MatrixSource, SourceError, hat_matrix, opnorm_to_l1
from fracseq.coefficients import raw_prefix

# zero (either sign), or a magnitude in [1e-3, 1e3]: sums of products stay normal and finite
values = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))
nonfinite = st.sampled_from([float("nan"), float("inf"), -float("inf")])
# products past the float range at orders whose coefficients exceed one
big = st.sampled_from([1e308, -1e308, 1.5e308])


@st.composite
def band_sources(draw):
    """A band-structured source and whether it has a single distinct offset.

    A quarter of the sources may hold non-finite entries; only one-band
    sources hold entries whose products overflow, since the order of a sum
    decides whether it overflows.
    """

    def entries(one_band):
        bad = [nonfinite] if draw(st.integers(0, 3)) == 0 else []
        return st.one_of(values, values, values, *bad, *([big] if one_band else []))

    kind = draw(st.sampled_from(["identity", "values", "ratio", "shift", "banded", "banded", "banded"]))
    if kind == "identity":
        return MatrixSource.generator("identity"), True
    if kind == "values":
        return MatrixSource.generator("diagonal", {"values": draw(st.lists(entries(True), max_size=30))}), True
    ratio = draw(st.one_of(st.floats(-1.1, 1.1, allow_nan=False), st.sampled_from([1e200, -1e300])))
    if kind == "ratio":
        return MatrixSource.generator("diagonal", {"ratio": ratio, "scale": draw(entries(True))}), True
    if kind == "shift":
        params = {"scale": draw(entries(True)), "ratio": ratio, "shift": draw(st.integers(0, 5))}
        return MatrixSource.generator("row-scaled-shift", params), True
    offsets = draw(st.lists(st.integers(-6, 4), min_size=1, max_size=10))
    one_band = len(set(offsets)) == 1
    diagonals = [draw(st.one_of(entries(one_band), st.lists(entries(one_band), max_size=35)))
                 for _ in offsets]
    row_bound = draw(st.one_of(st.none(), st.integers(0, 35)))
    return MatrixSource.banded(offsets, diagonals, row_bound=row_bound), one_band


def product_hat(source, order, n):
    """The triangular product on ``block(n)``, or the error it raises."""
    try:
        values, lengths = source.block(n)
        md._in_float_range(md._triangular_product, values, lengths, -float(order))
    except (SourceError, ValueError) as exc:
        return None, exc
    return (values, lengths), None


def band_hat(source, order, n):
    try:
        window = hat_matrix(source, order, n, max(n, 1))
    except (SourceError, ValueError) as exc:
        return None, exc
    return (window.values, window.lengths), None


orders = st.sampled_from([Fraction(1, 2), Fraction(2, 3), 1, 0, Fraction(-1, 3), 2,
                          Fraction(-1, 2), 3, 0.3])


@settings(max_examples=400, deadline=None)
@given(band_sources(), orders, st.integers(1, 40))
def test_band_hat_matches_the_triangular_product(drawn, order, n):
    source, one_band = drawn
    ref, ref_error = product_hat(source, order, n)
    got, error = band_hat(source, order, n)
    # the same SourceError (row, entry, message) or the same overflow ValueError
    assert (type(error), str(error)) == (type(ref_error), str(ref_error))
    if ref is None:
        return
    (values, lengths), (ref_values, ref_lengths) = got, ref
    assert lengths.tolist() == ref_lengths.tolist()
    assert values.shape == ref_values.shape
    if one_band:  # one product per entry: the same bits, signs of zeros included
        assert values.tolist() == ref_values.tolist()
        assert np.array_equal(np.signbit(values), np.signbit(ref_values))
        return
    block, _ = source.block(n)
    coeffs = np.abs(raw_prefix(-float(order), max(values.shape[1], 1)))
    for row, got_row, ref_row in zip(block, values, ref_values):
        scale = max(1.0, float(np.abs(row).sum()) * float(coeffs.max()))
        assert np.all(np.abs(got_row - ref_row) <= 1e-12 * scale)
    assert not np.signbit(values[values == 0]).any()  # the product's sums give +0.0


@pytest.mark.parametrize("order", [Fraction(1, 2), Fraction(2, 3), 1, 0, Fraction(-1, 3), 2,
                                   Fraction(-1, 2), 3])
def test_one_band_windows_are_bit_identical_to_the_product(order):
    sources = [
        MatrixSource.generator("identity"),
        MatrixSource.generator("diagonal", {"ratio": -0.999, "scale": -1.5}),
        MatrixSource.generator("row-scaled-shift", {"ratio": 0.99, "scale": 2.0, "shift": 3}),
        MatrixSource.banded([-2, -2], [[0.5, -0.0, 3.0] * 200, -0.25]),
    ]
    for source in sources:
        for n in (1, 5, 64, 256, 600):
            (values, lengths), _ = band_hat(source, order, n)
            (ref_values, ref_lengths), _ = product_hat(source, order, n)
            assert lengths.tolist() == ref_lengths.tolist()
            assert values.tobytes() == ref_values.tobytes()


def test_band_hat_overflow_raises_like_the_product():
    source = MatrixSource.banded([0, 1, 2], [1e308, 1e308, 1e308])  # every order of the sum overflows
    for hat in (band_hat, product_hat):
        _, error = hat(source, Fraction(1, 2), 4)
        assert isinstance(error, ValueError)
        assert str(error) == "a transformed window entry is past the float range"


def test_entries_left_of_column_zero_are_never_read():
    source = MatrixSource.banded([-2, 0], [[float("nan"), float("inf"), 1.0], 0.5])
    values, lengths = source.block(3)
    assert [values[n, :k].tolist() for n, k in enumerate(lengths)] == [
        source.row(n) for n in range(3)] == [[0.5], [0.0, 0.5], [1.0, 0.0, 0.5]]
    (hat, _), _ = band_hat(source, Fraction(1, 2), 3)
    (ref, _), _ = product_hat(source, Fraction(1, 2), 3)
    assert np.abs(hat - ref).max() <= 1e-15


def test_overflowing_coefficient_prefix_raises():
    # at order 1e300 the inverse-order coefficient c_2 is inf; finite entries times it
    # raise no overflow, so both paths check the prefix itself
    for source, n in ((MatrixSource.generator("identity"), 3),
                      (MatrixSource.generator("row-scaled-shift", {"shift": 2}), 1),
                      (MatrixSource.dense_window([[0.0, 0.0, 1.0]]), 1),
                      (MatrixSource.dense_window([[1.0, 1.0, 1.0]]), 1)):
        for hat in (band_hat, product_hat):
            _, error = hat(source, 1e300, n)
            assert isinstance(error, ValueError)
            assert str(error) == "a transformed window entry is past the float range"


def counted_product(monkeypatch):
    calls = []
    product = md._triangular_product

    def counted(*args):
        calls.append(args[0].shape)
        return product(*args)

    monkeypatch.setattr(md, "_triangular_product", counted)
    return calls


def test_only_sources_without_bands_take_the_product(monkeypatch):
    rng = np.random.default_rng(3)
    cases = []
    for k in (8, 16):
        offsets = list(range(-4, k - 4))
        cases.append(MatrixSource.banded(offsets, [list(rng.uniform(-1, 1, 40)) for _ in offsets]))
    cases.append(MatrixSource.banded([0, 1, 2] * 5, [1.0] * 15))
    cases.append(MatrixSource.dense_window([[1.0, 2.0]] * 40))
    cases.append(MatrixSource.generator("finite-rows", {"rows": [[1.0, -2.0]] * 40}))
    refs = [product_hat(source, Fraction(1, 2), 40)[0] for source in cases]
    calls = counted_product(monkeypatch)
    for source, (ref_values, ref_lengths), product_calls in zip(cases, refs, (0, 0, 0, 1, 2)):
        window = hat_matrix(source, Fraction(1, 2), 40, 40)
        assert len(calls) == product_calls
        assert window.lengths.tolist() == ref_lengths.tolist()
        assert np.allclose(window.values, ref_values, rtol=0, atol=1e-13)


def test_opnorm_l1_of_one_long_band_stays_small():
    source = MatrixSource.banded([30000], [1.0])
    tracemalloc.start()
    try:
        value, cert = opnorm_to_l1(source, Fraction(1, 2), 1, 14, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # a Toeplitz slab of the product alone is 61.5 MB here
    assert cert == tuple(range(14))
    # p = 1, q = inf, entries positive: all rows, largest in the column of row 0's c_0
    assert value == pytest.approx(sum(raw_prefix(-0.5, 14)), rel=1e-14)
