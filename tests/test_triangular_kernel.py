"""Property tests for the shared triangular kernel of the sequence layer.

The exact transforms and exact hat rows are checked against per-entry
``Fraction`` loops, the float transforms against the plain
``np.convolve`` calls, and the blocked ``space_norm`` against the
term-at-a-time loop it replaced.  Those reference loops are kept here
as oracles.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracseq import (
    FiniteSequence,
    FractionalOrder,
    MatrixSource,
    beta_dual_transform,
    forward_transform,
    hat_matrix,
    inverse_transform,
    space_norm,
)
from fracseq.coefficients import raw_prefix
from fracseq.transforms import ADAPTIVE_WINDOW

# -- oracles: the per-entry loops and the plain float calls ---------------------


def loop_convolve(x, coeffs, length):
    out = []
    n = len(x)
    for k in range(length):
        acc = Fraction(0)
        for i in range(max(0, k - n + 1), k + 1):
            acc += coeffs[i] * x[k - i]
        out.append(acc)
    return out


def loop_beta_dual(values, coeffs):
    n = len(values)
    out = []
    for k in range(n):
        acc = Fraction(0)
        for i in range(k, n):
            acc += coeffs[i - k] * values[i]
        out.append(acc)
    return out


def loop_hat_rows(stored_rows, alpha):
    max_len = max((len(r) for r in stored_rows), default=0)
    coeffs = raw_prefix(alpha, max_len) if max_len else []
    hat_rows = []
    for values in stored_rows:
        s = len(values)
        row = []
        for k in range(s):
            acc = Fraction(0)
            for j in range(k, s):
                acc += coeffs[j - k] * values[j]
            row.append(acc)
        hat_rows.append(tuple(row))
    return tuple(hat_rows)


def loop_space_norm(entries, alpha, p, tolerance=1e-10, max_terms=32768):
    """``(value, terms_used, tail_flagged)``, one term at a time."""
    support = len(entries)
    while support and entries[support - 1] == 0:
        support -= 1
    if support == 0:
        return 0.0, 0, False
    coeffs = [1.0]
    acc = 0.0
    streak = 0
    k = 0
    while k < max_terms:
        if len(coeffs) <= k:
            i = len(coeffs) - 1
            coeffs.append(-(coeffs[-1] * (alpha - i)) / (i + 1))
        y = 0.0
        for i in range(max(0, k - support + 1), k + 1):
            y += coeffs[i] * entries[k - i]
        if math.isinf(p):
            new = abs(y) if abs(y) > acc else acc
            rel = 0.0 if new == 0.0 else (new - acc) / new
            acc = new
        else:
            term = abs(y) ** p
            acc += term
            rel = term / acc if acc > 0.0 else 0.0
        k += 1
        if k > support:
            streak = streak + 1 if rel < tolerance else 0
            if streak >= ADAPTIVE_WINDOW:
                break
    value = acc if math.isinf(p) else acc ** (1.0 / p)
    return value, k, streak < ADAPTIVE_WINDOW


def plain_convolve(x, coeffs, length):
    return np.convolve(x, coeffs)[:length].tolist() if x else [0.0] * length


def plain_beta_dual(values, coeffs):
    return np.convolve(values[::-1], coeffs)[: len(values)][::-1].tolist()


# -- strategies ---------------------------------------------------------------

exact_entries = st.one_of(
    st.integers(-50, 50),
    st.fractions(-20, 20, max_denominator=60),
    st.just(0),
)
exact_sequences = st.one_of(
    st.lists(exact_entries, max_size=40),
    st.lists(st.just(0), max_size=6),  # all zero
)
float_sequences = st.lists(st.floats(-1e3, 1e3, allow_nan=False), max_size=40)
# any ratio order but the negative integers (no gamma there); integers included
orders = st.one_of(
    st.integers(0, 4).map(Fraction),
    st.fractions(-3, 3, max_denominator=12).filter(lambda a: a.denominator != 1 or a >= 0),
)


def exact_only(values):
    return all(type(v) in (int, Fraction) for v in values)


def same_types(got, ref):
    return [type(v) for v in got] == [type(v) for v in ref]


# -- exact paths ----------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(exact_sequences, orders, st.integers(1, 60))
def test_exact_transforms_equal_the_fraction_loops(x, a, length):
    seq = FiniteSequence(x)
    order = FractionalOrder(a)
    for transform, alpha in ((forward_transform, a), (inverse_transform, -a)):
        got = transform(seq, order, length).entries
        ref = loop_convolve(x, raw_prefix(alpha, length), length)
        assert list(got) == ref
        assert exact_only(got) and same_types(got, ref)


@settings(max_examples=200, deadline=None)
@given(exact_sequences, orders)
def test_exact_beta_dual_equals_the_fraction_loop(x, a):
    got = beta_dual_transform(FiniteSequence(x), a).entries
    ref = loop_beta_dual(x, raw_prefix(-a, len(x)) if x else [])
    assert list(got) == ref
    assert exact_only(got) and same_types(got, ref)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(exact_entries, max_size=12), min_size=1, max_size=8), orders)
def test_exact_hat_rows_equal_the_fraction_loop(rows, a):
    window = hat_matrix(MatrixSource.dense_window(rows), a, len(rows), 12)
    ref = loop_hat_rows(rows, -a)
    assert window.rows == ref
    assert all(exact_only(r) and same_types(r, s) for r, s in zip(window.rows, ref))


def test_inverse_at_positive_integer_order_is_exact():
    x = [Fraction(1, 3), -2, Fraction(5, 7)]
    for a in (1, 2, 3):
        got = inverse_transform(FiniteSequence(x), a, 8).entries
        assert list(got) == loop_convolve(x, raw_prefix(Fraction(-a), 8), 8)
        assert forward_transform(FiniteSequence(got), a, 3).entries == tuple(x)


# -- float paths ----------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(float_sequences, orders, st.integers(1, 60))
def test_float_transforms_are_bit_identical(x, a, length):
    seq = FiniteSequence(x)
    order = FractionalOrder(float(a))
    for transform, alpha in ((forward_transform, a), (inverse_transform, -a)):
        got = transform(seq, order, length).entries
        assert list(got) == plain_convolve(x, raw_prefix(float(alpha), length), length)
    got = beta_dual_transform(seq, order).entries
    assert list(got) == (plain_beta_dual(x, raw_prefix(float(-a), len(x))) if x else [])


# -- space_norm -------------------------------------------------------------------

P_VALUES = [1.0, 1.5, 2.0, math.inf]


def assert_norms_agree(entries, a, p, **kwargs):
    value, report = space_norm(FiniteSequence(entries), a, p, **kwargs)
    ref_value, ref_terms, ref_flagged = loop_space_norm(entries, float(Fraction(a)), p, **kwargs)
    assert (report.terms_used, report.tail_flagged) == (ref_terms, ref_flagged)
    assert value == pytest.approx(ref_value, rel=1e-13, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=300),
    st.fractions(-Fraction(1, 2), 3, max_denominator=8),
    st.sampled_from(P_VALUES),
    st.integers(1, 1200),
)
def test_space_norm_matches_the_term_loop_with_small_budgets(x, a, p, max_terms):
    assert_norms_agree(x, a, p, max_terms=max_terms)


@pytest.mark.parametrize("support, a, p", [
    (1, "1/3", 2.0),
    (17, "2/3", 1.0),
    (255, "1/2", math.inf),
    (256, "2/3", 1.5),
    (257, "1/4", 2.0),
    (700, "3/2", 1.5),
    (3000, "2/3", 2.0),
])
def test_space_norm_matches_the_term_loop_across_blocks(support, a, p):
    rng = random.Random(support)
    u = [rng.uniform(-1, 1) for _ in range(support)]
    shift = (sum(u) - 1.0) / support  # entries summing to 1 leave a long tail
    assert_norms_agree([v - shift for v in u], a, p)


@pytest.mark.parametrize("a", ["1/2", "1/4"])
def test_space_norm_impulse_is_bit_identical(a):
    value, report = space_norm(FiniteSequence([1.0]), a, 2)
    assert (value, report.terms_used, report.tail_flagged) == loop_space_norm([1.0], float(Fraction(a)), 2.0)


def test_space_norm_overflow_raises_value_error():
    with pytest.raises(ValueError, match="not a finite float"):
        space_norm(FiniteSequence([1e308, 1e308]), "1/2", 2)
    with pytest.raises(ValueError, match="not a finite float"):
        space_norm(FiniteSequence([1e308, 1e308, 1e308]), "-1/2", "inf")
