"""The exhaustive subset scan against direct enumeration, and its memory bound."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracseq import MatrixSource
from fracseq import matrix_domain
from fracseq.matrix_domain import _enumerate_subsets, hat_matrix, opnorm_to_l1
from fracseq.transforms import lq_norm

from helpers import brute_subset_values

QS = (1.0, 1.5, 2.0, math.inf)


@st.composite
def row_sets(draw):
    """Rows of one width, some zero and some repeating an earlier row.

    Integral rows have exact float sums, so their ties are exact.
    """
    m = draw(st.integers(1, 12))
    width = draw(st.integers(1, 4))
    integral = draw(st.booleans())
    if integral:
        entry = st.integers(-3, 3).map(float)
    else:
        entry = st.floats(-10.0, 10.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-6)
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(("new", "zero", "copy"))) if rows else "new"
        if kind == "zero":
            rows.append([0.0] * width)
        elif kind == "copy":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append(draw(st.lists(entry, min_size=width, max_size=width)))
    return np.array(rows), integral


def _exact_key(total, q):
    """The exact order of the q-norm of an integer vector, for q in {1, 2, inf}."""
    if math.isinf(q):
        return max(abs(v) for v in total)
    return sum(abs(v) ** int(q) for v in total)


@settings(max_examples=300, deadline=None)
@given(row_sets(), st.sampled_from(QS), st.integers(0, 3), st.integers(0, 7))
def test_scan_matches_direct_enumeration(case, q, low_rows, slack):
    rows, integral = case
    m, width = rows.shape
    # a table of 2**low_rows columns: the other rows run as several high masks
    scratch = 8 * width * (1 << low_rows) + slack
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix_domain, "_SCRATCH_BYTES", scratch)
        best, cert, by_min = _enumerate_subsets(rows, q, want_by_min=True)

    values = dict(brute_subset_values(rows.tolist(), q, range(m)))
    want = max(values.values())
    assert math.isclose(best, want, rel_tol=1e-12)
    for v in range(m):
        want_v = max(val for subset, val in values.items() if subset[0] == v)
        assert math.isclose(by_min[v], want_v, rel_tol=1e-12), v
    assert cert in values and math.isclose(values[cert], want, rel_tol=1e-12)

    if integral:
        totals = {s: tuple(int(sum(rows[n, j] for n in s)) for j in range(width)) for s in values}
        if q == 1.5:
            ties = [s for s in values if totals[s] == totals[cert]]  # equal sums, equal floats
        else:
            keys = {s: _exact_key(t, q) for s, t in totals.items()}
            top = max(keys.values())
            ties = [s for s in values if keys[s] == top]
        assert cert == min(ties)
    if not rows.any():
        assert (best, cert) == (0.0, (0,))


def test_scan_memory_stays_bounded_on_long_rows():
    # 14 rows 30014 wide: a scan building a 2**14 x width product of
    # subset sums would need ~3.9 GB (~237 MB already at 10 rows)
    shift = 30000
    source = MatrixSource.banded([shift], [1.0])
    tracemalloc.start()
    try:
        value, cert = opnorm_to_l1(source, 0.5, 2, 14, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    rows = hat_matrix(source, 0.5, 14, 1).values
    assert rows.shape == (14, shift + 14)
    assert cert == tuple(range(14))
    assert value == lq_norm(rows.sum(axis=0).tolist(), 2.0)
