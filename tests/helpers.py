"""Shared construction helpers for the test suite."""

import itertools
import math
from fractions import Fraction

from fracseq import MODE_EXACT, MatrixSource, coefficient_prefix


def triangle_rows(order, n, exact=True):
    """Rows of the lower-triangular operator matrix; its hat window is the identity."""
    mode = MODE_EXACT if exact else "floating"
    tab = coefficient_prefix(order, n, mode)
    return [[tab[r - k] for k in range(r + 1)] for r in range(n)]


def triangle_source(order, n, exact=True):
    return MatrixSource.dense_window(triangle_rows(order, n, exact))


def pre_invert_rows(target_rows, order):
    """Source rows whose hat window equals ``target_rows`` (exact when given Fractions)."""
    exact = all(isinstance(v, (int, Fraction)) for row in target_rows for v in row)
    n = max((len(r) for r in target_rows), default=1)
    mode = MODE_EXACT if exact else "floating"
    tab = coefficient_prefix(order, max(n, 1), mode)
    out = []
    for row in target_rows:
        s = len(row)
        out.append([sum(tab[k - j] * row[k] for k in range(j, s)) for j in range(s)])
    return out


def pre_inverted_source(target_rows, order, **kwargs):
    return MatrixSource.dense_window(pre_invert_rows(target_rows, order), **kwargs)


def brute_subset_values(rows, q, members):
    """Every nonempty subset of ``members`` with the ``q``-norm of its summed rows."""
    members = list(members)
    width = max((len(r) for r in rows), default=0)
    for size in range(1, len(members) + 1):
        for subset in itertools.combinations(members, size):
            acc = [0.0] * width
            for n in subset:
                for j, v in enumerate(rows[n]):
                    acc[j] += float(v)
            if math.isinf(q):
                val = max((abs(v) for v in acc), default=0.0)
            else:
                val = sum(abs(v) ** q for v in acc) ** (1.0 / q)
            yield subset, val


def brute_subset_sup(rows, q, members):
    """Independent subset-supremum oracle by direct enumeration."""
    return max((val for _, val in brute_subset_values(rows, q, members)), default=0.0)
