import dataclasses
import math
from fractions import Fraction

import pytest

from fracseq import (
    CostGuardError,
    LimitGrid,
    MatrixSource,
    StabilizationPolicy,
    criterion_linf_domain,
    criterion_linf_target,
    estimate_alpha_hat,
    mnc_c,
    mnc_c0,
    mnc_l1,
    opnorm_to_linf,
    sargent_criterion,
    table_criterion,
)

from helpers import brute_subset_sup, pre_inverted_source, triangle_rows, triangle_source

HALF = Fraction(1, 2)


def finite_rank_source():
    rows = [[1.0, 2.0, 0.5], [0.25, -1.0]] + [[] for _ in range(14)]
    return MatrixSource.dense_window(rows, row_bound=2)


def geometric_row_source(n=48):
    target = [[Fraction(0)] * k + [Fraction(1, 2**k)] for k in range(n)]
    return pre_inverted_source(target, HALF)


def geometric_column_source(base, n=40):
    target = [[Fraction(1, base**k) for k in range(r + 1)] for r in range(n)]
    return pre_inverted_source(target, HALF)


# -- null-target estimator -----------------------------------------------------


def test_mnc_c0_finite_rank_compact():
    report = mnc_c0(finite_rank_source(), HALF, 2, r_grid=range(0, 16, 2),
                    row_count=16, column_bound=8)
    assert report.verdict == "compact"
    assert report.grid.values[-1] == 0.0
    assert report.lower_value == report.upper_value


def test_mnc_c0_identity_noncompact_at_one():
    A = triangle_source(HALF, 64)
    report = mnc_c0(A, HALF, 2, r_grid=range(0, 64, 8), row_count=64, column_bound=64)
    assert report.verdict == "noncompact"
    assert all(v == 1.0 for v in report.grid.values)
    assert report.lower_value == report.upper_value == 1.0


def test_mnc_c0_geometric_rows_compact_with_closed_form():
    report = mnc_c0(geometric_row_source(), HALF, 2, r_grid=range(0, 48, 6),
                    row_count=48, column_bound=48,
                    stabilization=StabilizationPolicy(window=3, tolerance=1e-8))
    assert report.verdict == "compact"
    for r, v in zip(report.grid.r_values, report.grid.values):
        assert abs(v - 2.0 ** (-r)) < 1e-12


def test_mnc_c0_p1_uses_sup_norm():
    A = MatrixSource.dense_window([[0.5, -2.0, 1.0]] * 8)
    report = mnc_c0(A, 0, 1, r_grid=range(0, 8, 1), row_count=8, column_bound=4)
    assert all(v == 2.0 for v in report.grid.values)


def test_mnc_c0_grid_validation():
    A = finite_rank_source()
    with pytest.raises(ValueError):
        mnc_c0(A, HALF, 2, r_grid=[], row_count=16, column_bound=4)
    with pytest.raises(ValueError):
        mnc_c0(A, HALF, 2, r_grid=[0, 16], row_count=16, column_bound=4)
    with pytest.raises(ValueError):
        mnc_c0(A, HALF, 2, r_grid=[4, 2], row_count=16, column_bound=4)


def test_mnc_c0_matches_opnorm_at_grid_origin():
    A = triangle_source(Fraction(2, 3), 24)
    report = mnc_c0(A, Fraction(2, 3), 2, r_grid=range(0, 24, 4),
                    row_count=24, column_bound=24)
    norm = opnorm_to_linf(A, Fraction(2, 3), 2, 24, 24)
    assert abs(report.grid.values[0] - norm) <= 1e-12 * max(1.0, norm)


# -- convergent-target estimator -------------------------------------------------


def test_mnc_c_constant_rows_compact():
    target = [[Fraction(1), Fraction(1, 2), Fraction(1, 4)] for _ in range(48)]
    A = pre_inverted_source(target, HALF)
    report = mnc_c(A, HALF, 2, r_grid=range(0, 48, 6), row_count=48, column_bound=16)
    assert report.verdict == "compact"
    assert report.grid.values[-1] == 0.0


def test_mnc_c_identity_bounds_and_verdict():
    A = triangle_source(HALF, 64)
    report = mnc_c(A, HALF, 2, r_grid=range(0, 48, 6), row_count=64, column_bound=32)
    assert report.verdict == "noncompact"
    assert report.lower_value == 0.5
    assert report.upper_value == 1.0
    assert report.upper_value == 2.0 * report.lower_value


def test_mnc_c_perturbed_constant_rows_compact():
    n = 48
    target = []
    for r in range(n):
        row = [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(0)]
        row += [Fraction(0)] * (r + 1 - len(row))
        if r < len(row):
            row[r] += Fraction(1, 2**r)
        target.append(row)
    A = pre_inverted_source(target, HALF)
    report = mnc_c(A, HALF, 2, r_grid=range(0, 48, 4), row_count=48, column_bound=48)
    assert report.verdict == "compact"
    for r, v in zip(report.grid.r_values, report.grid.values):
        if r >= 4:  # past the constant block the defect is the geometric tail
            assert abs(v - 2.0 ** (-r)) < 1e-8


def test_mnc_c_unconverged_columns_poison_verdict_only():
    rows = [[1.0] if n % 2 == 0 else [-1.0] for n in range(32)]
    A = MatrixSource.dense_window(rows)
    report = mnc_c(A, 0, 2, r_grid=range(0, 32, 4), row_count=32, column_bound=4)
    assert report.verdict == "inconclusive"
    assert "unconverged" in report.notes
    assert all(v >= 1.0 for v in report.grid.values)


def test_mnc_c_builds_its_window_once(monkeypatch):
    import fracseq.compactness as compactness

    calls = []
    real = compactness.hat_matrix

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(compactness, "hat_matrix", counting)
    mnc_c(MatrixSource.generator("identity"), HALF, 2, r_grid=[8, 10, 12], row_count=16,
          column_bound=16)
    assert len(calls) == 1


def test_estimate_alpha_hat_identity_columns():
    A = triangle_source(HALF, 32)
    estimates = estimate_alpha_hat(A, HALF, row_count=32, column_bound=16)
    assert all(e.converged for e in estimates)
    assert all(abs(e.estimate) < 1e-15 for e in estimates)

    wide = estimate_alpha_hat(A, HALF, row_count=32, column_bound=32)
    tail = [e for e in wide if e.k >= 28]
    assert all(not e.converged for e in tail)


# -- summable-target estimator ----------------------------------------------------


def test_mnc_l1_finite_rank_compact():
    report = mnc_l1(finite_rank_source(), HALF, 2, r_grid=range(0, 14, 2),
                    row_count=16, column_bound=8)
    assert report.verdict == "compact"
    assert report.grid.values[-1] == 0.0
    assert report.upper_value == 4.0 * report.lower_value


def test_mnc_l1_identity_grid_matches_window_count():
    A = triangle_source(HALF, 16)
    report = mnc_l1(A, HALF, "inf", r_grid=range(0, 14, 2), row_count=16, column_bound=16)
    # disjoint unit rows: the subset supremum counts the available rows
    assert list(report.grid.values) == [15.0, 13.0, 11.0, 9.0, 7.0, 5.0, 3.0]
    # the grid is honest but never settles on a fixed window, so no verdict
    assert report.verdict == "inconclusive"


def test_mnc_l1_alternating_rows_match_enumeration():
    rows = [[1.0] if n % 2 == 0 else [-1.0] for n in range(14)]
    A = MatrixSource.dense_window(rows)
    report = mnc_l1(A, 0, "inf", r_grid=[0, 4, 8], row_count=14, column_bound=2)
    for r, v in zip(report.grid.r_values, report.grid.values):
        expected = brute_subset_sup(rows, 1.0, range(r + 1, 14))
        assert math.isclose(v, expected, rel_tol=1e-12)


def test_mnc_l1_greedy_is_lower_bound():
    import random

    rng = random.Random(41)
    rows = [[rng.uniform(-1, 1) for _ in range(6)] for _ in range(12)]
    A = MatrixSource.dense_window(rows)
    ex = mnc_l1(A, 0, 2, r_grid=[0, 2, 4, 6], row_count=12, column_bound=6)
    gr = mnc_l1(A, 0, 2, r_grid=[0, 2, 4, 6], row_count=12, column_bound=6, method="greedy")
    for g, e in zip(gr.grid.values, ex.grid.values):
        assert g <= e * (1.0 + 1e-12)


def test_mnc_l1_guard_and_validation():
    A = triangle_source(HALF, 30)
    with pytest.raises(CostGuardError):
        mnc_l1(A, HALF, 2, r_grid=[0, 2, 4], row_count=30, column_bound=8)
    with pytest.raises(ValueError):
        mnc_l1(A, HALF, 2, r_grid=[0, 15], row_count=16, column_bound=8)
    with pytest.raises(ValueError):
        mnc_l1(A, HALF, 2, r_grid=[0, 2], row_count=16, column_bound=8, method="luck")


# -- bounded-target criteria -------------------------------------------------------


def test_linf_target_banded_hat_compact():
    target = [[Fraction(0)] * r + [Fraction(1), Fraction(1, 3)] for r in range(10)]
    A = pre_inverted_source(target, HALF)
    report = criterion_linf_target(A, HALF, 2, r_grid=range(0, 24, 2),
                                   row_count=10, column_bound=16)
    assert report.verdict == "compact"
    assert report.grid.values[-1] == 0.0
    assert "finite-window" in report.notes


def test_linf_target_identity_noncompact():
    A = triangle_source(HALF, 48)
    report = criterion_linf_target(A, HALF, 2, r_grid=range(0, 40, 5),
                                   row_count=48, column_bound=48)
    assert report.verdict == "noncompact"
    assert all(v == 1.0 for v in report.grid.values)


def test_linf_target_geometric_columns_match_closed_form():
    A = geometric_column_source(2, n=52)
    report = criterion_linf_target(A, HALF, 2, r_grid=range(0, 52, 5),
                                   row_count=52, column_bound=52)
    assert report.verdict == "compact"
    for r, v in zip(report.grid.r_values, report.grid.values):
        oracle = math.sqrt(4.0 ** (-(r + 1)) / 0.75)  # infinite geometric tail in l2
        assert abs(v - oracle) < 1e-8


def test_linf_target_requires_interior_p():
    A = triangle_source(HALF, 8)
    for bad in (1, "inf"):
        with pytest.raises(ValueError):
            criterion_linf_target(A, HALF, bad, r_grid=[0, 1, 2, 3],
                                  row_count=8, column_bound=8)


def test_linf_domain_identity_noncompact_and_banded_compact():
    A = triangle_source(HALF, 48)
    report = criterion_linf_domain(A, HALF, r_grid=range(0, 40, 5),
                                   row_count=48, column_bound=48)
    assert report.verdict == "noncompact"
    assert all(v == 1.0 for v in report.grid.values)

    target = [[Fraction(0)] * r + [Fraction(2)] for r in range(8)]
    B = pre_inverted_source(target, HALF)
    report = criterion_linf_domain(B, HALF, r_grid=range(0, 20, 2),
                                   row_count=8, column_bound=12)
    assert report.verdict == "compact"


def test_linf_domain_geometric_tail_oracle():
    A = geometric_column_source(3, n=40)
    report = criterion_linf_domain(A, HALF, r_grid=range(0, 36, 4),
                                   row_count=40, column_bound=40)
    assert report.verdict == "compact"
    for r, v in zip(report.grid.r_values, report.grid.values):
        assert abs(v - 0.5 * 3.0 ** (-r)) < 1e-8


# -- uniform column-pair criterion ---------------------------------------------------


def test_sargent_finite_rank_compact():
    report = sargent_criterion(finite_rank_source(), HALF, m_grid=range(1, 13, 2),
                               row_count=16, column_window=8)
    assert report.verdict == "compact"
    assert all(v == 0.0 for v in report.grid.values)


def test_sargent_identity_noncompact():
    A = triangle_source(HALF, 64)
    report = sargent_criterion(A, HALF, m_grid=range(4, 44, 4),
                               row_count=64, column_window=48)
    assert report.verdict == "noncompact"
    assert all(v == 1.0 for v in report.grid.values)


def test_sargent_constant_rows_compact():
    A = MatrixSource.dense_window([[1.0, -2.0, 0.5]] * 32)
    report = sargent_criterion(A, 0, m_grid=range(1, 25, 3),
                               row_count=32, column_window=8)
    assert report.verdict == "compact"
    assert all(v == 0.0 for v in report.grid.values)


def test_sargent_validation():
    A = triangle_source(HALF, 8)
    with pytest.raises(ValueError):
        sargent_criterion(A, HALF, m_grid=[1, 8], row_count=8, column_window=4)
    with pytest.raises(ValueError):
        sargent_criterion(A, HALF, m_grid=[1, 2], row_count=8, column_window=1)


# -- cross-cutting properties ----------------------------------------------------------


def test_grids_monotone_nonincreasing_on_fixed_windows():
    A = triangle_source(HALF, 32)
    small = triangle_source(HALF, 18)
    reports = [
        mnc_c0(A, HALF, 2, r_grid=range(0, 32, 4), row_count=32, column_bound=32),
        mnc_c(A, HALF, 2, r_grid=range(0, 32, 4), row_count=32, column_bound=16),
        mnc_l1(small, HALF, 2, r_grid=range(0, 16, 2), row_count=18, column_bound=18),
        criterion_linf_target(A, HALF, 2, r_grid=range(0, 32, 4), row_count=32, column_bound=32),
        criterion_linf_domain(A, HALF, r_grid=range(0, 32, 4), row_count=32, column_bound=32),
        sargent_criterion(A, HALF, m_grid=range(1, 29, 4), row_count=32, column_window=24),
    ]
    for report in reports:
        values = report.grid.values
        assert all(a >= b for a, b in zip(values, values[1:])), report.criterion_id


def test_bound_factors_exact():
    A = triangle_source(HALF, 16)
    c_report = mnc_c(A, HALF, 2, r_grid=range(0, 16, 2), row_count=16, column_bound=8)
    assert c_report.upper_value == 2.0 * c_report.lower_value
    l1_report = mnc_l1(A, HALF, 2, r_grid=range(0, 14, 2), row_count=16, column_bound=16)
    assert l1_report.upper_value == 4.0 * l1_report.lower_value


def test_scaling_by_constant_scales_values_and_keeps_verdicts():
    lam = 3.0
    base_rows = [[Fraction(0)] * k + [Fraction(1, 2**k)] for k in range(54)]
    scaled_rows = [[lam * v for v in row] for row in base_rows]
    A = pre_inverted_source(base_rows, HALF)
    B = pre_inverted_source(scaled_rows, HALF)
    kwargs = dict(r_grid=range(0, 54, 6), row_count=54, column_bound=54)
    base = mnc_c0(A, HALF, 2, **kwargs)
    scaled = mnc_c0(B, HALF, 2, stabilization=StabilizationPolicy(tolerance=lam * 1e-8), **kwargs)
    for b, s in zip(base.grid.values, scaled.grid.values):
        if b:
            assert math.isclose(s, lam * b, rel_tol=1e-12)
        else:
            assert s == 0.0
    assert base.verdict == scaled.verdict == "compact"

    ident = triangle_source(HALF, 32)
    scaled_tri = MatrixSource.dense_window(
        [[lam * float(v) for v in row] for row in triangle_rows(HALF, 32, exact=False)]
    )
    r1 = mnc_c0(ident, HALF, 2, r_grid=range(0, 32, 4), row_count=32, column_bound=32)
    r2 = mnc_c0(scaled_tri, HALF, 2, r_grid=range(0, 32, 4), row_count=32, column_bound=32,
                stabilization=StabilizationPolicy(tolerance=lam * 1e-8))
    assert r1.verdict == r2.verdict == "noncompact"
    assert math.isclose(r2.upper_value, lam * r1.upper_value, rel_tol=1e-12)


def test_limit_grid_and_policy_validation():
    with pytest.raises(ValueError):
        LimitGrid((), (), 4, 1e-8)
    with pytest.raises(ValueError):
        LimitGrid((0, 0), (1.0, 1.0), 4, 1e-8)
    with pytest.raises(ValueError):
        LimitGrid((0, 1), (1.0, -1.0), 4, 1e-8)
    with pytest.raises(ValueError):
        StabilizationPolicy(window=1)
    with pytest.raises(ValueError):
        StabilizationPolicy(tolerance=0.0)
    with pytest.raises(ValueError):
        StabilizationPolicy(tolerance=math.inf)  # would stabilize every grid
    grid = LimitGrid((0, 1, 2), (1.0, 1.0, 1.0), 4, 1e-8)
    assert not grid.stabilized  # shorter than the stabilization window


def test_report_serialization_shape():
    report = mnc_c0(finite_rank_source(), HALF, 2, r_grid=range(0, 16, 2),
                    row_count=16, column_bound=8)
    payload = report.to_json_dict()
    assert list(payload) == ["criterion", "lower", "upper", "verdict", "grid", "notes"]
    assert payload["criterion"] == "MNC-C0"
    assert payload["grid"]["stabilized"] is True
    table = report.render_table()
    assert "verdict" in table and "compact" in table


def test_table_criterion_dispatch_and_validation():
    A = finite_rank_source()
    ids = []
    for item in (1, 2, 3, 4):
        report = table_criterion(item, A, HALF, p=2, r_grid=range(0, 14, 2),
                                 row_count=16, column_bound=8)
        ids.append(report.criterion_id)
        assert report.verdict == "compact"
    for item in (5, 6):
        report = table_criterion(item, A, HALF, r_grid=range(0, 14, 2),
                                 row_count=16, column_bound=8)
        ids.append(report.criterion_id)
        assert report.verdict == "compact"
    report = table_criterion(7, A, HALF, m_grid=range(2, 14, 2),
                             row_count=16, column_bound=8)
    ids.append(report.criterion_id)
    assert report.verdict == "compact"
    assert ids == ["T1", "T2", "T3", "T4", "T5", "T6", "T7"]

    with pytest.raises(ValueError):
        table_criterion(8, A, HALF, p=2, r_grid=[0, 1], row_count=16, column_bound=8)
    with pytest.raises(ValueError):
        table_criterion(1, A, HALF, r_grid=[0, 1], row_count=16, column_bound=8)
    with pytest.raises(ValueError):
        table_criterion(1, A, HALF, p=1, r_grid=[0, 1], row_count=16, column_bound=8)
    with pytest.raises(ValueError):
        table_criterion(7, A, HALF, row_count=16, column_bound=8)


def test_table_items_equal_their_criterion_reports():
    A = MatrixSource.banded([-1, 0, 1], [0.5, 1.0, -0.25])
    window = dict(row_count=12, column_bound=10,
                  stabilization=StabilizationPolicy(window=3, tolerance=1e-6))
    grid = range(0, 10, 2)
    p = Fraction(3, 2)
    expected = {
        1: mnc_c0(A, HALF, p, r_grid=grid, **window),
        2: mnc_c(A, HALF, p, r_grid=grid, **window),
        3: criterion_linf_target(A, HALF, p, r_grid=grid, **window),
        4: mnc_l1(A, HALF, p, r_grid=grid, method="greedy", **window),
        5: mnc_c0(A, HALF, 1, r_grid=grid, **window),
        6: mnc_c(A, HALF, 1, r_grid=grid, **window),
        7: sargent_criterion(A, HALF, m_grid=grid, row_count=12, column_window=10,
                             stabilization=window["stabilization"]),
    }
    for item, report in expected.items():
        table = table_criterion(item, A, HALF, p=p, r_grid=grid, m_grid=grid,
                                method="greedy", **window)
        assert table.criterion_id == f"T{item}"
        assert dataclasses.replace(table, criterion_id=report.criterion_id) == report


def test_overflowing_column_differences_and_means_raise():
    # column differences 1e308 - (-1e308) and the column sums of the last rows overflow
    A = MatrixSource.dense_window([[1e308, -1e308, 1e308], [-1e308, 1e308, -1e308],
                                   [1e308, 1e308, 1e308]])
    policy = StabilizationPolicy(window=2)
    with pytest.raises(ValueError, match="column difference of the transformed window is past the float range"):
        sargent_criterion(A, 0, m_grid=[1], row_count=3, column_window=3)
    with pytest.raises(ValueError, match="column mean of the transformed window is past the float range"):
        estimate_alpha_hat(A, 0, row_count=3, column_bound=3, stabilization=policy)
    with pytest.raises(ValueError, match="column mean"):
        mnc_c(A, 0, 1, r_grid=[0], row_count=3, column_bound=3, stabilization=policy)
    # a sample whose distance from a finite mean overflows is unconverged, not an error
    B = MatrixSource.dense_window([[1.7e308], [-1.7e308], [1.7e308]])
    (alpha,) = estimate_alpha_hat(B, 0, row_count=3, column_bound=1,
                                  stabilization=StabilizationPolicy(window=3))
    assert (alpha.estimate, alpha.converged) == (1.7e308 / 3, False)
