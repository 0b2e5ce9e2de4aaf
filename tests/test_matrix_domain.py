import math
import random
from fractions import Fraction

import pytest

from fracseq import (
    CostGuardError,
    FiniteSequence,
    MatrixSource,
    SourceError,
    forward_transform,
    hat_matrix,
    lq_norm,
    opnorm_to_l1,
    opnorm_to_linf,
    subset_guard_limit,
)
from fracseq.coefficients import raw_prefix

from helpers import brute_subset_sup, pre_inverted_source, triangle_source

HALF = Fraction(1, 2)


# -- sources -------------------------------------------------------------------


def test_dense_window_rows_and_bounds():
    A = MatrixSource.dense_window([[1.0, 2.0], [3.0]])
    assert A.row(0) == [1.0, 2.0]
    assert A.row(1) == [3.0]
    with pytest.raises(SourceError):
        A.row(2)

    B = MatrixSource.dense_window([[1.0]], row_bound=1)
    assert B.row(5) == []

    with pytest.raises(ValueError):
        MatrixSource.dense_window([[1.0], [2.0]], row_bound=1)


def test_banded_source_rows():
    # diagonal lists are indexed by row: a[n, n+offset] = diagonals[j][n]
    A = MatrixSource.banded([-1, 0], [[10.0, 20.0], [1.0, 2.0, 3.0]])
    assert A.row(0) == [1.0]
    assert A.row(1) == [20.0, 2.0]
    assert A.row(2) == [0.0, 0.0, 3.0]
    assert A.declared_row_bound == 3
    assert A.row(3) == []

    ident = MatrixSource.banded([0], [1.0])
    assert ident.declared_row_bound is None
    assert ident.row(4) == [0.0, 0.0, 0.0, 0.0, 1.0]


def test_generator_rules():
    assert MatrixSource.generator("identity").row(2) == [0.0, 0.0, 1.0]
    diag = MatrixSource.generator("diagonal", {"values": [5.0, 6.0]})
    assert diag.row(1) == [0.0, 6.0]
    assert diag.row(2) == []
    geo = MatrixSource.generator("diagonal", {"ratio": 0.5})
    assert geo.row(3) == [0.0, 0.0, 0.0, 0.125]
    fin = MatrixSource.generator("finite-rows", {"rows": [[1.0, 2.0]]})
    assert fin.row(0) == [1.0, 2.0]
    assert fin.row(9) == []
    shift = MatrixSource.generator("row-scaled-shift", {"scale": 2.0, "ratio": 0.5, "shift": 1})
    assert shift.row(1) == [0.0, 0.0, 1.0]

    with pytest.raises(ValueError):
        MatrixSource.generator("spiral")
    with pytest.raises(ValueError):
        MatrixSource.generator("diagonal", {})
    with pytest.raises(ValueError):
        MatrixSource.generator("row-scaled-shift", {"shift": -1})


def test_generator_failure_wrapped_as_source_error():
    def bad(n):
        raise KeyError("boom")

    A = MatrixSource.from_callable(bad)
    with pytest.raises(SourceError):
        A.row(0)

    nan_source = MatrixSource.from_callable(lambda n: [float("nan")])
    with pytest.raises(SourceError):
        nan_source.row(0)


def test_source_json_round_trips():
    dense = MatrixSource.dense_window([[1.0, 2.0]], row_bound=1)
    again = MatrixSource.from_json_dict(dense.to_json_dict())
    assert again.row(0) == [1.0, 2.0] and again.row(3) == []

    banded = MatrixSource.banded([0, 1], [[1.0, 2.0], 0.5])
    again = MatrixSource.from_json_dict(banded.to_json_dict())
    assert again.row(1) == [0.0, 2.0, 0.5]

    gen = MatrixSource.generator("diagonal", {"ratio": 0.25})
    again = MatrixSource.from_json_dict(gen.to_json_dict())
    assert again.row(1) == [0.0, 0.25]

    with pytest.raises(ValueError):
        MatrixSource.from_json_dict({"kind": "sparse"})
    with pytest.raises(ValueError):
        MatrixSource.from_json_dict({"kind": "dense-window", "rows": "nope"})
    with pytest.raises(ValueError):
        MatrixSource.from_callable(lambda n: []).to_json_dict()


# -- hat windows -----------------------------------------------------------------


def test_hat_of_identity_is_inverse_triangle():
    window = hat_matrix(MatrixSource.generator("identity"), HALF, 4, 4)
    assert window.exactness == "exact"
    inv = [float(v) for v in raw_prefix(-HALF, 4)]
    row2 = window.as_float_rows()[2]
    assert row2 == pytest.approx([inv[2], inv[1], inv[0]], rel=1e-14)
    assert row2 == pytest.approx([0.375, 0.5, 1.0], rel=1e-14)


def test_hat_single_row_unit_is_fixed():
    A = MatrixSource.dense_window([[1.0]], row_bound=1)
    window = hat_matrix(A, Fraction(2, 3), 3, 3)
    assert window.as_float_rows() == [[1.0], [], []]


def test_hat_order_zero_is_source_window():
    rows = [[1.0, 2.0], [3.0, 4.0, 5.0]]
    window = hat_matrix(MatrixSource.dense_window(rows), 0, 2, 3)
    assert window.as_float_rows() == rows


def test_hat_of_triangle_recovers_identity_exactly():
    window = hat_matrix(triangle_source(HALF, 6), HALF, 6, 6)
    for n, row in enumerate(window.rows):
        assert list(row) == [Fraction(0)] * n + [Fraction(1)]


def test_hat_truncation_tagging():
    A = MatrixSource.dense_window([[1.0, 1.0, 1.0, 1.0]], column_decay=False)
    window = hat_matrix(A, HALF, 1, 2)
    assert window.exactness == "truncated"
    assert len(window.rows[0]) == 2


def test_hat_window_argument_errors():
    A = MatrixSource.generator("identity")
    with pytest.raises(ValueError):
        hat_matrix(A, HALF, 0, 4)
    with pytest.raises(ValueError):
        hat_matrix(A, HALF, 4, 0)


def test_hat_dense_serialization():
    window = hat_matrix(MatrixSource.generator("identity"), 0, 2, 3)
    payload = window.to_json_dict()
    assert payload["rows"] == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    assert payload["exactness"] == "exact"
    assert payload["column_bound"] == 3


def test_master_consistency_on_random_banded_windows():
    rng = random.Random(31)
    for trial in range(10):
        order = rng.choice([0.5, 2 / 3, 1.3, 0.25])
        bw = rng.randrange(1, 4)
        offsets = list(range(-bw, bw + 1))
        diagonals = [[rng.uniform(-1, 1) for _ in range(16)] for _ in offsets]
        A = MatrixSource.banded(offsets, diagonals)
        window = hat_matrix(A, order, 16, 32)
        n_terms = max(len(r) for r in window.rows)
        x = FiniteSequence([rng.uniform(-1, 1) for _ in range(12)])
        y = forward_transform(x, order, n_terms)
        xf = x.as_floats()
        for n in range(16):
            row = A.row(n)
            lhs = sum(v * (xf[j] if j < len(xf) else 0.0) for j, v in enumerate(row))
            rhs = sum(float(v) * y[j] for j, v in enumerate(window.rows[n]))
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


# -- operator norms ----------------------------------------------------------------


def test_opnorm_linf_of_geometric_diagonal_hat():
    target = [[Fraction(0)] * n + [Fraction(1, 2**n)] for n in range(12)]
    A = pre_inverted_source(target, HALF)
    assert math.isclose(opnorm_to_linf(A, HALF, 2, 12, 12), 1.0, rel_tol=1e-12)


def test_opnorm_linf_zero_matrix():
    A = MatrixSource.dense_window([[0.0, 0.0]] * 4)
    assert opnorm_to_linf(A, HALF, 2, 4, 4) == 0.0


def test_opnorm_linf_identity_partial_sums_grow_with_window():
    inv_sq = [c * c for c in raw_prefix(-HALF, 64)]
    expected = math.sqrt(float(sum(inv_sq)))
    A = MatrixSource.generator("identity")
    v64 = opnorm_to_linf(A, HALF, 2, 64, 64)
    v32 = opnorm_to_linf(A, HALF, 2, 32, 64)
    assert math.isclose(v64, expected, rel_tol=1e-12)
    assert v64 > v32


def test_opnorm_linf_monotone_in_window():
    A = MatrixSource.generator("identity")
    values = [opnorm_to_linf(A, HALF, 2, rc, 64) for rc in (8, 16, 32, 64)]
    assert all(a <= b for a, b in zip(values, values[1:]))

    # nonnegative truncated source: longer column windows only add mass
    wide = MatrixSource.dense_window([[1.0] * 32] * 4, column_decay=False)
    cols = [opnorm_to_linf(wide, HALF, 2, 4, cb) for cb in (4, 8, 16, 32)]
    assert all(a <= b for a, b in zip(cols, cols[1:]))


def test_opnorm_l1_disjoint_rows_add():
    A = MatrixSource.dense_window([[1.0, 0.0], [0.0, 1.0]])
    value, cert = opnorm_to_l1(A, 0, "inf", 2, 2)  # q = 1
    assert value == 2.0
    assert cert == (0, 1)


def test_opnorm_l1_cancellation_prefers_single_row():
    A = MatrixSource.dense_window([[1.0], [-1.0]])
    value, cert = opnorm_to_l1(A, 0, "inf", 2, 2)
    assert value == 1.0
    assert cert == (0,)


def test_opnorm_l1_zero_matrix_certificate():
    A = MatrixSource.dense_window([[0.0], [0.0]])
    value, cert = opnorm_to_l1(A, 0, 2, 2, 2)
    assert value == 0.0
    assert cert == (0,)
    gvalue, gcert = opnorm_to_l1(A, 0, 2, 2, 2, method="greedy")
    assert gvalue == 0.0 and gcert == (0,)


def test_opnorm_l1_exhaustive_matches_brute_force():
    rng = random.Random(33)
    rows = [[rng.uniform(-1, 1) for _ in range(6)] for _ in range(8)]
    A = MatrixSource.dense_window(rows)
    window = hat_matrix(A, HALF, 8, 8)
    expected = brute_subset_sup(window.as_float_rows(), 2.0, range(8))
    value, cert = opnorm_to_l1(A, HALF, 2, 8, 8)
    assert math.isclose(value, expected, rel_tol=1e-12)
    assert cert  # nonempty certificate
    gvalue, _ = opnorm_to_l1(A, HALF, 2, 8, 8, method="greedy")
    assert gvalue <= value * (1.0 + 1e-12)
    single_best = max(lq_norm(r, 2.0) for r in window.as_float_rows())
    assert value >= single_best - 1e-12
    assert gvalue >= single_best - 1e-12


def test_opnorm_l1_greedy_equals_exhaustive_on_nonnegative_rows():
    rng = random.Random(34)
    target = [[rng.uniform(0.0, 1.0) for _ in range(5)] for _ in range(7)]
    A = pre_inverted_source(target, 0)  # order 0: hat rows are the rows themselves
    value, _ = opnorm_to_l1(A, 0, 2, 7, 5)
    gvalue, _ = opnorm_to_l1(A, 0, 2, 7, 5, method="greedy")
    assert math.isclose(gvalue, value, rel_tol=1e-12)


def test_opnorm_l1_cost_guard(monkeypatch):
    A = MatrixSource.generator("identity")
    with pytest.raises(CostGuardError):
        opnorm_to_l1(A, 0, 2, subset_guard_limit() + 1, 4)
    monkeypatch.setenv("FRACSEQ_MAX_SUBSET_ROWS", "5")
    assert subset_guard_limit() == 5
    with pytest.raises(CostGuardError):
        opnorm_to_l1(A, 0, 2, 6, 6)
    value, cert = opnorm_to_l1(A, 0, 2, 5, 5)
    assert value > 0.0
    monkeypatch.setenv("FRACSEQ_MAX_SUBSET_ROWS", "zero")
    with pytest.raises(ValueError):
        subset_guard_limit()


def test_opnorm_l1_method_validation():
    A = MatrixSource.generator("identity")
    with pytest.raises(ValueError):
        opnorm_to_l1(A, 0, 2, 2, 2, method="annealing")
