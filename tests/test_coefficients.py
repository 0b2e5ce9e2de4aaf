import json
import math
from fractions import Fraction

import pytest

from fracseq import (
    MODE_EXACT,
    MODE_FLOATING,
    DomainError,
    FractionalOrder,
    coefficient_closed_form,
    coefficient_prefix,
)
from fracseq.coefficients import raw_prefix
from fracseq.serialize import json_dumps

HALF = Fraction(1, 2)

GOLDEN = {
    Fraction(1, 2): [Fraction(1), Fraction(-1, 2), Fraction(-1, 8), Fraction(-1, 16), Fraction(-5, 128)],
    Fraction(-1, 2): [Fraction(1), Fraction(1, 2), Fraction(3, 8), Fraction(5, 16), Fraction(35, 128)],
    Fraction(2, 3): [Fraction(1), Fraction(-2, 3), Fraction(-1, 9), Fraction(-4, 81), Fraction(-7, 243)],
}


@pytest.mark.parametrize("order,expected", sorted(GOLDEN.items()))
def test_golden_exact_prefixes(order, expected):
    table = coefficient_prefix(order, 5, MODE_EXACT)
    assert list(table.entries) == expected


def test_integer_orders_degenerate_to_signed_binomials():
    for m in (1, 2, 3):
        table = coefficient_prefix(m, m + 4, MODE_EXACT)
        for i, c in enumerate(table.entries):
            expected = Fraction((-1) ** i * math.comb(m, i)) if i <= m else Fraction(0)
            assert c == expected


def test_order_zero_is_identity():
    assert list(coefficient_prefix(0, 3, MODE_EXACT).entries) == [1, 0, 0]


def test_first_difference_prefix():
    assert list(coefficient_prefix(1, 3, MODE_EXACT).entries) == [1, -1, 0]


def test_floating_matches_exact():
    exact = coefficient_prefix(HALF, 32, MODE_EXACT)
    floating = coefficient_prefix(0.5, 32, MODE_FLOATING)
    for e, f in zip(exact.entries, floating.entries):
        assert math.isclose(float(e), f, rel_tol=1e-13, abs_tol=1e-300)


def test_recurrence_ratio_holds_in_floating_mode():
    alpha = 0.3
    table = coefficient_prefix(alpha, 64)
    for i in range(63):
        expected = table[i] * (-(alpha - i) / (i + 1))
        assert math.isclose(table[i + 1], expected, rel_tol=1e-13)


@pytest.mark.parametrize("order", [0.3, 0.5, 2 / 3, 1.5, -0.5])
def test_closed_form_agrees_with_recurrence(order):
    table = coefficient_prefix(order, 64)
    for i in range(64):
        cf = coefficient_closed_form(order, i)
        denom = max(abs(table[i]), 1e-300)
        assert abs(cf - table[i]) / denom < 1e-10


def test_closed_form_printed_fraction():
    assert math.isclose(coefficient_closed_form(HALF, 4), -5 / 128, rel_tol=1e-12)


def test_closed_form_vanishes_past_integer_order():
    assert coefficient_closed_form(3, 5) == 0.0
    assert coefficient_closed_form(3, 4) == 0.0
    assert coefficient_closed_form(3, 3) == -1.0


def test_closed_form_extended_precision_value():
    # frozen from a 50-digit evaluation of the gamma-ratio form at i = 7
    assert math.isclose(coefficient_closed_form(0.3, 7), -0.01895727375, rel_tol=1e-12)


@pytest.mark.parametrize("order", [HALF, Fraction(2, 3), Fraction(5, 4)])
def test_convolution_inverse_identity_exact(order):
    n = 200
    fwd = raw_prefix(order, n)
    inv = raw_prefix(-order, n)
    for k in range(n):
        acc = sum(fwd[i] * inv[k - i] for i in range(k + 1))
        assert acc == (1 if k == 0 else 0)


def test_convolution_inverse_identity_floating():
    for order in (0.3, 1.5):
        fwd = raw_prefix(order, 200)
        inv = raw_prefix(-order, 200)
        for k in range(200):
            acc = sum(fwd[i] * inv[k - i] for i in range(k + 1))
            assert abs(acc - (1.0 if k == 0 else 0.0)) < 1e-12


@pytest.mark.parametrize("order", [0.3, 0.5, 2 / 3, 0.9])
def test_sign_pattern_for_orders_in_unit_interval(order):
    table = coefficient_prefix(order, 40)
    assert table[0] == 1.0
    assert all(c < 0 for c in table.entries[1:])


def test_decay_monotone_from():
    assert coefficient_prefix(0.5, 16).decay_monotone_from == 0
    # |c_0| = 1 < |c_1| = 1.5, decreasing afterwards
    assert coefficient_prefix(1.5, 16).decay_monotone_from == 1
    assert coefficient_prefix(0.5, 1).decay_monotone_from == 0


def test_prefix_argument_errors():
    with pytest.raises(ValueError):
        coefficient_prefix(0.5, 0)
    with pytest.raises(ValueError):
        coefficient_prefix(float("nan"), 4)
    with pytest.raises(ValueError):
        coefficient_prefix(float("inf"), 4)
    with pytest.raises(ValueError):
        coefficient_prefix(0.5, 4, mode="symbolic")
    with pytest.raises(ValueError):
        coefficient_prefix(0.5, 4, MODE_EXACT)  # float order has no exact ratio


def test_closed_form_argument_errors():
    with pytest.raises(ValueError):
        coefficient_closed_form(0.5, -1)


def test_negative_integer_orders_rejected():
    for bad in (-1, -2, Fraction(-3), "-1", -2.0):
        with pytest.raises(DomainError):
            FractionalOrder(bad)


def test_order_flags_and_labels():
    order = FractionalOrder("1/2")
    assert order.is_exact and order.exact == HALF
    assert order.inverse_gamma_defined
    assert order.label() == "1/2"

    two = FractionalOrder(2)
    assert not two.inverse_gamma_defined

    plain = FractionalOrder(0.3)
    assert not plain.is_exact
    assert plain.inverse_gamma_defined


def test_inverse_prefix_for_positive_integer_order_via_raw_negation():
    # inverse entries of the m-fold difference: binomial(m+i-1, i)
    inv = raw_prefix(Fraction(-2), 6)
    assert inv == [1, 2, 3, 4, 5, 6]


def test_table_json_serialization():
    table = coefficient_prefix(HALF, 5, MODE_EXACT)
    payload = table.to_json_dict()
    assert payload == {
        "order": "1/2",
        "mode": "exact-rational",
        "entries": ["1", "-1/2", "-1/8", "-1/16", "-5/128"],
    }
    parsed = json.loads(json_dumps(payload))
    assert parsed["entries"][4] == "-5/128"

    floating = coefficient_prefix(0.5, 3).to_json_dict()
    assert floating["mode"] == "floating"
    assert floating["entries"] == [1.0, -0.5, -0.125]
