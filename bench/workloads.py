"""The benchmark's four seeded workloads.

Each workload is a fixed cycle of operations.  Kinds and sizes never
depend on the seed; the seed draws every matrix entry, sequence value
and generator parameter, so cost stays comparable across seeds while the
inputs differ.  Cycle lengths are odd multiples of 5, and each cycle is
built so that, sorted by cost, the median and the 90th percentile of a
run of whole cycles fall inside a group of operations of similar cost
rather than between two groups.

The program only ever sees the generated inputs.  Every operation has a
reference computed by :mod:`oracles` outside the timed region.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as O
import program

BENCH = Path(__file__).resolve().parent
SHIM = BENCH / "cli_shim.py"


@dataclass
class Case:
    """One operation of a workload's cycle.

    ``call(tracer)`` runs it; ``tracer`` is None in untraced cycles and
    only the CLI cases use it (to run the child under the span shim).
    ``reference()`` computes what the result must be, outside the timed
    region; the runner keeps it for later repeats when ``cache_ref``.
    ``compare(result, ref)`` raises :class:`oracles.Mismatch`, or returns
    notes on known defects the result shows.
    """

    name: str
    call: Callable
    reference: Callable
    compare: Callable
    cache_ref: bool = True


@dataclass
class Workload:
    cases: list
    inputs: list  # JSON-able description of every generated input, for the digest
    child_rss_kb: list | None = None  # peak RSS of each CLI child, cli_oneshot only
    work: Path | None = None  # where cli_oneshot wrote its input files


def _orders(text: str) -> tuple[Fraction, float]:
    a = Fraction(text)
    return a, float(a)


def matrix_spec(rng: random.Random, kind: str, n: int) -> dict:
    if kind == "identity":
        return {"kind": "identity"}
    if kind == "banded":
        return {"kind": "banded", "offsets": [-1, 0, 1],
                "diagonals": [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(3)]}
    if kind == "row-scaled-shift":
        return {"kind": "row-scaled-shift", "scale": rng.uniform(0.5, 2.0),
                "ratio": rng.uniform(0.999, 1.0), "shift": rng.randrange(3)}
    if kind == "dense-window":
        return {"kind": "dense-window",
                "rows": [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]}
    raise ValueError(kind)


def matrix_json(spec: dict) -> dict:
    """The CLI's matrix file format for a generated matrix."""
    kind = spec["kind"]
    if kind == "banded":
        return {"kind": "banded", "band": {"offsets": spec["offsets"], "diagonals": spec["diagonals"]}}
    if kind == "dense-window":
        return {"kind": "dense-window", "rows": spec["rows"]}
    params = {k: spec[k] for k in ("scale", "ratio", "shift") if k in spec}
    return {"kind": "generator", "rule": kind, "params": params}


def make_source(fs, spec: dict):
    MS = fs.matrix_domain.MatrixSource
    kind = spec["kind"]
    if kind == "banded":
        return MS.banded(spec["offsets"], spec["diagonals"])
    if kind == "dense-window":
        return MS.dense_window(spec["rows"])
    return MS.generator(kind, {k: spec[k] for k in ("scale", "ratio", "shift") if k in spec})


def report_data(rep) -> dict:
    return {"criterion": rep.criterion_id, "r_values": list(rep.grid.r_values),
            "values": list(rep.grid.values), "lower": rep.lower_value,
            "upper": rep.upper_value, "verdict": rep.verdict}


def report_json(obj: dict) -> dict:
    return {"criterion": obj["criterion"], "r_values": obj["grid"]["r_values"],
            "values": obj["grid"]["values"], "lower": obj["lower"],
            "upper": obj["upper"], "verdict": obj["verdict"]}


def _check_opnorm_l1(value, cert, ref, what: str) -> None:
    P, q = ref["rows"], ref["q"]
    cert = tuple(int(i) for i in cert)
    O.require(cert and list(cert) == sorted(set(cert)) and 0 <= cert[0] and cert[-1] < len(P),
              f"{what}: malformed certificate {cert!r}")
    O.close(value, O.qnorm(P[list(cert)].sum(axis=0), q), f"{what}: certificate re-summed")
    if "maximizers" in ref:
        O.close(value, ref["value"], f"{what}: brute-force supremum")
        best = ref["maximizers"]
        O.require(cert == best[0] if len(best) == 1 else cert in best,
                  f"{what}: certificate {cert!r} is not the lexicographically smallest maximizer")
        return
    b = ref["bounds"]
    for name in ("greedy", "head", "tail"):
        O.require(value >= b[name] * (1 - 1e-12), f"{what}: value {value!r} below {name} bound {b[name]!r}")
    O.require(value <= b["triangle"] * (1 + 1e-12), f"{what}: value {value!r} above the triangle bound")


def _opnorm_l1_ref(spec, alpha, m, q) -> dict:
    P = O.padded(O.hat_rows(spec, alpha, m))
    ref = {"rows": P, "q": q}
    if m <= 14:
        ref["value"], ref["maximizers"] = O.brute_force_max(P, q)
    else:
        ref["bounds"] = O.subset_bounds(P, q)
    return ref


# -- windows_float -----------------------------------------------------------

# op, source, rows, order, p.  Sorted by cost the cycle is 23 sparse-source
# ops at 256 rows (the median falls in their middle), 5 dense-source or
# MNC-C ops at 256, 6 ops at 512 (the 90th percentile falls in their
# middle) and one at 2048.
WINDOWS = (
    ("hat", "identity", 256, "1/2", None),
    ("hat", "banded", 256, "2/3", None),
    ("hat", "banded", 256, "1/2", None),
    ("hat", "row-scaled-shift", 256, "1/2", None),
    ("opnorm_linf", "identity", 256, "1/2", "1"),
    ("opnorm_linf", "identity", 256, "2/3", "inf"),
    ("opnorm_linf", "banded", 256, "2/3", "2"),
    ("opnorm_linf", "row-scaled-shift", 256, "1/2", "inf"),
    ("mnc_c0", "identity", 256, "2/3", "2"),
    ("mnc_c0", "identity", 256, "1/2", "1"),
    ("mnc_c0", "banded", 256, "1/2", "inf"),
    ("mnc_c0", "row-scaled-shift", 256, "1/2", "1"),
    ("crit_linf", "identity", 256, "1/2", "2"),
    ("crit_linf", "banded", 256, "2/3", "2"),
    ("crit_linf", "row-scaled-shift", 256, "1/2", "2"),
    ("crit_linfdom", "identity", 256, "2/3", None),
    ("crit_linfdom", "banded", 256, "1/2", None),
    ("crit_linfdom", "row-scaled-shift", 256, "1/2", None),
    ("sargent", "identity", 256, "1/2", None),
    ("sargent", "banded", 256, "2/3", None),
    ("sargent", "banded", 256, "1/2", None),
    ("sargent", "row-scaled-shift", 256, "2/3", None),
    ("mnc_c0", "banded", 256, "2/3", "2"),
    ("hat", "dense-window", 256, "2/3", None),
    ("opnorm_linf", "dense-window", 256, "2/3", "2"),
    ("crit_linfdom", "dense-window", 256, "1/2", None),
    ("mnc_c", "identity", 256, "1/2", "inf"),
    ("mnc_c", "row-scaled-shift", 256, "2/3", "1"),
    ("hat", "identity", 512, "1/2", None),
    ("opnorm_linf", "identity", 512, "2/3", "2"),
    ("mnc_c0", "banded", 512, "1/2", "inf"),
    ("crit_linf", "row-scaled-shift", 512, "2/3", "2"),
    ("crit_linfdom", "banded", 512, "2/3", None),
    ("sargent", "row-scaled-shift", 512, "1/2", None),
    ("opnorm_linf", "identity", 2048, "1/2", "2"),
)

SARGENT_COLUMNS = 16


def _window_case(fs, op, spec, src, n, order, p) -> Case:
    md, cp = fs.matrix_domain, fs.compactness
    a, alpha = _orders(order)
    q = O.conjugate(p) if p else None
    name = f"{op}/{spec['kind']}/{n}/{order}" + (f"/p{p}" if p else "")
    grid = list(range(n // 2, n - 1, max(1, n // 16)))[:6]
    cw = min(SARGENT_COLUMNS, n)

    if op == "hat":
        def compare(res, ref):
            O.require(res.exactness == "exact", f"{name}: exactness {res.exactness!r}")
            O.compare_rows(list(res.rows), ref, name)
        return Case(name, lambda t: md.hat_matrix(src, a, n, n),
                    lambda: O.hat_rows(spec, alpha, n), compare, cache_ref=False)

    if op == "opnorm_linf":
        def reference():
            ref = {"value": max(O.qnorm(r, q) for r in O.hat_rows(spec, alpha, n))}
            if spec["kind"] == "identity":
                ref["closed_form"] = O.closed_form_identity_opnorm(a, n, q)
            return ref

        def compare(res, ref):
            O.close(res, ref["value"], name)
            if "closed_form" in ref:
                O.close(res, ref["closed_form"], f"{name}: mpmath closed form")
        return Case(name, lambda t: md.opnorm_to_linf(src, a, p, n, n), reference, compare)

    column_bound = cw if op == "sargent" else n
    if op == "sargent":
        call = lambda t: cp.sargent_criterion(src, a, m_grid=grid, row_count=n, column_window=cw)
    elif op == "crit_linfdom":
        call = lambda t: cp.criterion_linf_domain(src, a, r_grid=grid, row_count=n, column_bound=n)
    else:
        fn = {"mnc_c0": "mnc_c0", "mnc_c": "mnc_c", "crit_linf": "criterion_linf_target"}[op]
        call = lambda t: getattr(cp, fn)(src, a, p, r_grid=grid, row_count=n, column_bound=n)

    def reference():
        rows = O.hat_rows(spec, alpha, n)
        ref = O.grid_report(op, rows, q, grid, column_bound)
        if op == "mnc_c0" and spec["kind"] == "identity":
            ref["closed_form"] = O.closed_form_identity_opnorm(a, n, q)
        return ref

    def compare(res, ref):
        O.check_report(report_data(res), ref, name)
        if "closed_form" in ref:
            O.close(res.grid.values[0], ref["closed_form"], f"{name}: mpmath closed form")
    return Case(name, call, reference, compare)


def windows_float(fs, seed: int, tiny: bool) -> Workload:
    """Float hat windows, row norms and the five subset-free limit grids."""
    rng = random.Random(f"windows_float:{seed}")
    specs, sources, cases = {}, {}, []
    for op, kind, rows, order, p in WINDOWS:
        n = rows // 32 if tiny else rows
        key = (kind, 0 if kind in ("identity", "row-scaled-shift") else n)
        if key not in specs:
            specs[key] = matrix_spec(rng, kind, n)
            sources[key] = make_source(fs, specs[key])
        cases.append(_window_case(fs, op, specs[key], sources[key], n, order, p))
    return Workload(cases, [[list(k), v] for k, v in specs.items()])


# -- subsets_exhaustive ------------------------------------------------------

# op, source, rows, order, p, method.  Sorted by cost: 18 greedy or small
# exhaustive scans, 10 with a 16-row pool (the median falls in their
# middle), 9 with an 18-row pool, 6 with a 20-row pool (the 90th percentile
# falls in their middle) and 2 at the 22-row guard.  MNC-L1 scans the rows
# after the first, so its pool is one row smaller than its window.  Grids
# keep every pool the oracle scans at 14 rows or fewer.
SUBSETS = (
    ("mnc_l1", "dense-window", 12, "1/2", "2", "greedy"),
    ("mnc_l1", "dense-window", 10, "2/3", "inf", "greedy"),
    ("mnc_l1", "banded", 12, "1/2", "1", "greedy"),
    ("mnc_l1", "row-scaled-shift", 12, "2/3", "2", "greedy"),
    ("mnc_l1", "banded", 14, "2/3", "inf", "greedy"),
    ("mnc_l1", "dense-window", 14, "1/2", "1", "greedy"),
    ("opnorm_l1", "dense-window", 14, "1/2", "2", "exhaustive"),
    ("opnorm_l1", "dense-window", 12, "2/3", "inf", "exhaustive"),
    ("opnorm_l1", "row-scaled-shift", 13, "1/2", "1", "exhaustive"),
    ("opnorm_l1", "banded", 14, "2/3", "2", "exhaustive"),
    ("opnorm_l1", "banded", 12, "1/2", "1", "exhaustive"),
    ("opnorm_l1", "row-scaled-shift", 14, "2/3", "inf", "exhaustive"),
    ("mnc_l1", "dense-window", 15, "2/3", "2", "exhaustive"),
    ("mnc_l1", "banded", 12, "1/2", "2", "exhaustive"),
    ("mnc_l1", "row-scaled-shift", 15, "1/2", "1", "exhaustive"),
    ("mnc_l1", "dense-window", 13, "1/2", "inf", "exhaustive"),
    ("mnc_l1", "banded", 15, "2/3", "inf", "exhaustive"),
    ("mnc_l1", "row-scaled-shift", 13, "2/3", "2", "exhaustive"),
    ("opnorm_l1", "dense-window", 16, "1/2", "2", "exhaustive"),
    ("opnorm_l1", "dense-window", 16, "2/3", "1", "exhaustive"),
    ("opnorm_l1", "banded", 16, "2/3", "inf", "exhaustive"),
    ("opnorm_l1", "row-scaled-shift", 16, "1/2", "inf", "exhaustive"),
    ("opnorm_l1", "banded", 16, "1/2", "1", "exhaustive"),
    ("mnc_l1", "dense-window", 17, "1/2", "2", "exhaustive"),
    ("mnc_l1", "row-scaled-shift", 17, "1/2", "inf", "exhaustive"),
    ("mnc_l1", "banded", 17, "2/3", "2", "exhaustive"),
    ("mnc_l1", "dense-window", 17, "2/3", "1", "exhaustive"),
    ("mnc_l1", "banded", 17, "1/2", "inf", "exhaustive"),
    ("opnorm_l1", "dense-window", 18, "1/2", "inf", "exhaustive"),
    ("opnorm_l1", "row-scaled-shift", 18, "2/3", "2", "exhaustive"),
    ("opnorm_l1", "dense-window", 18, "2/3", "2", "exhaustive"),
    ("opnorm_l1", "banded", 18, "1/2", "1", "exhaustive"),
    ("opnorm_l1", "row-scaled-shift", 18, "1/2", "1", "exhaustive"),
    ("mnc_l1", "dense-window", 19, "2/3", "2", "exhaustive"),
    ("mnc_l1", "banded", 19, "1/2", "1", "exhaustive"),
    ("mnc_l1", "row-scaled-shift", 19, "2/3", "inf", "exhaustive"),
    ("mnc_l1", "dense-window", 19, "1/2", "inf", "exhaustive"),
    ("opnorm_l1", "dense-window", 20, "2/3", "1", "exhaustive"),
    ("opnorm_l1", "row-scaled-shift", 20, "1/2", "inf", "exhaustive"),
    ("opnorm_l1", "dense-window", 20, "1/2", "2", "exhaustive"),
    ("mnc_l1", "dense-window", 21, "1/2", "2", "exhaustive"),
    ("mnc_l1", "row-scaled-shift", 21, "2/3", "1", "exhaustive"),
    ("mnc_l1", "dense-window", 21, "2/3", "inf", "exhaustive"),
    ("opnorm_l1", "dense-window", 22, "1/2", "2", "exhaustive"),
    ("mnc_l1", "dense-window", 22, "2/3", "inf", "exhaustive"),
)


def _subset_case(fs, op, spec, src, m, order, p, method) -> Case:
    md, cp = fs.matrix_domain, fs.compactness
    a, alpha = _orders(order)
    q = O.conjugate(p)
    name = f"{op}/{method}/{spec['kind']}/{m}/{order}/p{p}"
    if op == "opnorm_l1":
        def compare(res, ref):
            _check_opnorm_l1(res[0], res[1], ref, name)
        return Case(name, lambda t: md.opnorm_to_l1(src, a, p, m, m, method=method),
                    lambda: _opnorm_l1_ref(spec, alpha, m, q), compare)
    grid = list(range(max(0, m - 15), m - 1, 2))[:6]

    def compare(res, ref):
        O.check_report(report_data(res), ref, name)
    return Case(name,
                lambda t: cp.mnc_l1(src, a, p, r_grid=grid, row_count=m, column_bound=m, method=method),
                lambda: O.grid_report("mnc_l1", O.hat_rows(spec, alpha, m), q, grid, m, method),
                compare)


def subsets_exhaustive(fs, seed: int, tiny: bool) -> Workload:
    """Exhaustive subset suprema at 12-23 rows plus greedy MNC-L1 on small windows."""
    rng = random.Random(f"subsets_exhaustive:{seed}")
    inputs, cases = [], []
    for op, kind, rows, order, p, method in SUBSETS:
        m = max(3, rows - 12) if tiny else rows
        spec = matrix_spec(rng, kind, m)
        inputs.append(spec)
        cases.append(_subset_case(fs, op, spec, make_source(fs, spec), m, order, p, method))
    return Workload(cases, inputs)


# -- sequences_exact ---------------------------------------------------------

# op, length, order, p.  Sorted by cost: 8 cheap ops, 9 exact ops at 100
# entries or 32 rows (the median falls in their middle), 4 mid-sized ops,
# and 4 exact transforms at 300 entries (the 90th percentile falls in their
# middle).  The p=2 impulses at orders 1/2 and 1/4 show the known
# truncation defect of space_norm (see README.md).
SEQUENCES = (
    ("impulse", 1, "1/2", "2"),
    ("impulse", 1, "1/4", "2"),
    ("impulse", 1, "1/2", "inf"),
    ("inverse_float", 2000, "1/2", None),
    ("dual_norm", 2000, "1/2", "2"),
    ("coeffs", 500, "2/3", None),
    ("coeffs", 1000, "1/4", None),
    ("hat_exact", 24, "1/2", None),
    ("forward", 100, "2/3", None),
    ("forward", 100, "1/3", None),
    ("inverse", 100, "1/2", None),
    ("inverse", 100, "2/3", None),
    ("beta_dual", 100, "1/2", None),
    ("beta_dual", 100, "1/3", None),
    ("dual_norm_exact", 100, "2/3", "inf"),
    ("dual_norm_exact", 100, "1/2", "2"),
    ("hat_exact", 32, "2/3", None),
    ("hat_exact", 40, "1/3", None),
    ("space_norm", 2000, "2/3", "inf"),
    ("space_norm", 2000, "2/3", "2"),
    ("space_norm", 2000, "1/2", "2"),
    ("forward", 300, "2/3", None),
    ("forward", 300, "1/2", None),
    ("inverse", 300, "1/3", None),
    ("beta_dual", 300, "1/2", None),
)


def _exact_sequence(rng, n):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]


def _unit_sum_sequence(rng, n):
    """Random entries summing to 1: the sum sets how long space_norm's tail runs."""
    u = [rng.uniform(-1, 1) for _ in range(n)]
    shift = (sum(u) - 1.0) / n
    return [v - shift for v in u]


def _compare_exact(entries, ref, what):
    O.require(all(isinstance(v, (int, Fraction)) for v in entries), f"{what}: result is not exact")
    O.require(list(entries) == ref, f"{what}: differs from the exact Fraction recomputation")


def _compare_floats(entries, ref, scale, what):
    got = np.asarray(entries, dtype=float)
    O.require(len(got) == len(ref), f"{what}: {len(got)} entries, reference {len(ref)}")
    err = float(np.abs(got - ref).max(initial=0.0))
    O.require(err <= 1e-12 * max(scale, 1.0), f"{what}: entries differ by {err:.3g}")


def _space_norm_compare(name, x, alpha, p, a):
    def compare(res, ref):
        value, report = res
        O.require(0 < report.terms_used, f"{name}: no terms used")
        O.close(value, O.space_norm_ref(x, alpha, p, report.terms_used),
                f"{name}: truncated sum at {report.terms_used} terms")
        if "exact" not in ref:
            return []
        err = abs(value - ref["exact"]) / ref["exact"]
        if err > report.tolerance and not report.tail_flagged:
            return [f"space_norm impulse order {a} p={p}: relative error {err:.2g} exceeds the "
                    f"reported tolerance {report.tolerance:g} with tail_flagged=False"]
        return []
    return compare


def _sequence_case(fs, rng, op, n, order, p):
    tr, co, md = fs.transforms, fs.coefficients, fs.matrix_domain
    FS = tr.FiniteSequence
    a, alpha = _orders(order)
    name = f"{op}/{n}/{order}" + (f"/p{p}" if p else "")

    if op in ("forward", "inverse", "beta_dual"):
        x = _exact_sequence(rng, n)
        seq = FS(x)
        if op == "forward":
            call = lambda t: tr.forward_transform(seq, a, n)
            ref = lambda: O.exact_lower(x, O.exact_coeffs(a, n), n)
        elif op == "inverse":
            call = lambda t: tr.inverse_transform(seq, a, n)
            ref = lambda: O.exact_lower(x, O.exact_coeffs(-a, n), n)
        else:
            call = lambda t: tr.beta_dual_transform(seq, a)
            ref = lambda: O.exact_upper(x, O.exact_coeffs(-a, n))
        return x, Case(name, call, ref, lambda res, r: _compare_exact(res.entries, r, name))

    if op == "coeffs":
        def compare(res, ref):
            O.require(res.mode == co.MODE_EXACT, f"{name}: mode {res.mode!r}")
            _compare_exact(res.entries, ref, name)
        return None, Case(name, lambda t: co.coefficient_prefix(a, n, co.MODE_EXACT),
                          lambda: O.exact_coeffs(a, n), compare)

    if op == "hat_exact":
        # rows are scaled forward-order coefficients, so the hat window is diag(scale)
        scale = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
        c = O.exact_coeffs(a, n)
        rows = [[scale[r] * c[r - j] for j in range(r + 1)] for r in range(n)]
        src = md.MatrixSource.dense_window(rows)

        def compare(res, ref):
            O.require(res.exactness == "exact", f"{name}: exactness {res.exactness!r}")
            O.require(len(res.rows) == n, f"{name}: {len(res.rows)} rows")
            for r, row in enumerate(res.rows):
                _compare_exact(row, ref[r], f"{name} row {r}")
        return [str(s) for s in scale], Case(
            name, lambda t: md.hat_matrix(src, a, n, n),
            lambda: [[Fraction(0)] * r + [scale[r]] for r in range(n)], compare)

    if op in ("space_norm", "impulse"):
        x = [1.0] if op == "impulse" else _unit_sum_sequence(rng, n)
        seq = FS(x)
        ref = (lambda: {"exact": O.impulse_norm_exact(a)}) if op == "impulse" and p == "2" else dict
        return x, Case(name, lambda t: tr.space_norm(seq, a, p), ref,
                       _space_norm_compare(name, x, alpha, p, a))

    if op == "dual_norm":
        x = [rng.uniform(-1, 1) for _ in range(n)]
        seq = FS(x)
        return x, Case(name, lambda t: tr.dual_norm(seq, a, p),
                       lambda: O.qnorm(O.float_upper(x, alpha), O.conjugate(p)),
                       lambda res, ref: O.close(res, ref, name))

    if op == "dual_norm_exact":
        x = _exact_sequence(rng, n)
        seq = FS(x)
        ref = lambda: O.qnorm([float(v) for v in O.exact_upper(x, O.exact_coeffs(-a, n))],
                              O.conjugate(p))
        return x, Case(name, lambda t: tr.dual_norm(seq, a, p), ref,
                       lambda res, r: O.close(res, r, name, rel=1e-12))

    if op == "inverse_float":
        x = [rng.uniform(-1, 1) for _ in range(n)]
        seq = FS(x)
        scale = float(np.abs(x).sum())
        return x, Case(name, lambda t: tr.inverse_transform(seq, a, n),
                       lambda: O.fft_conv(x, O.float_coeffs(-alpha, n), n),
                       lambda res, ref: _compare_floats(res.entries, ref, scale, name))
    raise ValueError(op)


def sequences_exact(fs, seed: int, tiny: bool) -> Workload:
    """Exact transforms and coefficients, exact hat windows, float norms and impulses."""
    rng = random.Random(f"sequences_exact:{seed}")
    inputs, cases = [], []
    for op, n, order, p in SEQUENCES:
        m = max(3, n // 20) if tiny and n > 1 else n
        data, case = _sequence_case(fs, rng, op, m, order, p)
        inputs.append([case.name, [str(v) for v in data] if data else None])
        cases.append(case)
    return Workload(cases, inputs)


# -- cli_oneshot ---------------------------------------------------------------


@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str


def _cli_call(argv, workload: Workload, env: dict):
    def call(tracer):
        prog = [str(SHIM)] if tracer is not None else ["-m", "fracseq.cli"]
        err_path = workload.work / "stderr.txt"
        with open(err_path, "w+", encoding="utf-8") as err:
            child = subprocess.Popen([sys.executable, *prog, *argv], stdout=subprocess.PIPE,
                                     stderr=err, env=env, cwd=workload.work)
            out = child.stdout.read()
            child.stdout.close()
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            err_text = err.read()
        workload.child_rss_kb.append(usage.ru_maxrss)
        if tracer is not None:
            tracer.count("cli.stdout_bytes", len(out))
            tracer.merge_child(err_text)
        return CliResult(child.returncode, out.decode("utf-8"), err_text)
    return call


def _cli_compare(name, check):
    def compare(res, ref):
        O.require(res.returncode == 0,
                  f"{name}: exit code {res.returncode}: {res.stderr.strip()[-300:]}")
        return check(json.loads(res.stdout), ref)
    return compare


def cli_oneshot(seed: int, tiny: bool, work: Path) -> Workload:
    """Representative CLI subcommands, one child process at a time."""
    rng = random.Random(f"cli_oneshot:{seed}")
    S = (lambda n: max(4, n // 16)) if tiny else (lambda n: n)
    rows, small = S(256), S(12)
    specs = {
        "identity": matrix_spec(rng, "identity", rows),
        "banded": matrix_spec(rng, "banded", rows),
        "rss": matrix_spec(rng, "row-scaled-shift", rows),
        "dense12": matrix_spec(rng, "dense-window", small),
        "banded12": matrix_spec(rng, "banded", small),
    }
    seqs = {"seq_a": [rng.uniform(-1, 1) for _ in range(S(200))],
            "seq_b": [rng.uniform(-1, 1) for _ in range(S(150))],
            "seq_c": [rng.uniform(-1, 1) for _ in range(S(50))]}
    for key, spec in specs.items():
        (work / f"{key}.json").write_text(json.dumps(matrix_json(spec)))
    (work / "seq_a.json").write_text(json.dumps({"entries": seqs["seq_a"]}))
    (work / "seq_b.csv").write_text("".join(f"{v!r}\n" for v in seqs["seq_b"]))
    (work / "seq_c.json").write_text(json.dumps({"entries": seqs["seq_c"]}))

    workload = Workload([], [specs, seqs], child_rss_kb=[], work=work)
    env = program.child_env()

    def add(name, argv, reference, check):
        workload.cases.append(Case(name, _cli_call(argv, workload, env), reference,
                                   _cli_compare(name, check)))

    def coeffs(order, n, mode):
        a = Fraction(order)

        def check(out, ref):
            if mode == "exact":
                O.require(out["mode"] == "exact-rational", f"coeffs: mode {out['mode']!r}")
                O.require([Fraction(v) for v in out["entries"]] == ref, "coeffs: exact entries differ")
            else:
                O.require(len(out["entries"]) == n, "coeffs: length")
                for v, e in zip(out["entries"], ref):
                    O.close(v, e, "coeffs entry", rel=1e-12)
        argv = ["coeffs", "--order", order, "--n", str(n)] + (["--mode", mode] if mode else [])
        ref = (lambda: O.exact_coeffs(a, n)) if mode == "exact" else (
            lambda: [float(c) for c in O.exact_coeffs(a, n)])
        add(f"coeffs/{order}/{n}/{mode or 'floating'}", argv, ref, check)

    def transform(order, key, path, length=None):
        x = seqs[key]
        alpha = float(Fraction(order))
        n = length or len(x)
        scale = float(np.abs(x).sum())
        argv = ["transform", "--order", order, "--in", path] + (["--length", str(n)] if length else [])
        add(f"transform/{order}/{path}", argv, lambda: O.fft_conv(x, O.float_coeffs(alpha, n), n),
            lambda out, ref: _compare_floats(out["entries"], ref, scale, "transform"))

    def norm(order, p):
        x = seqs["seq_c"]
        alpha = float(Fraction(order))

        def check(out, ref):
            terms = out["report"]["terms_used"]
            O.close(out["value"], O.space_norm_ref(x, alpha, p, terms), "norm")
        add(f"norm/{order}/p{p}", ["norm", "--order", order, "--p", p, "--in", "seq_c.json"], dict, check)

    def window_argv(order, key, n):
        return ["--order", order, "--matrix", f"{key}.json", "--rows", str(n), "--cols", str(n)]

    def hat(order, key):
        alpha = float(Fraction(order))

        def check(out, ref):
            O.require(out["exactness"] == "exact" and out["column_bound"] == rows, "hat: header")
            O.compare_rows(out["rows"], ref, "hat")
        add(f"hat/{order}/{key}", ["hat"] + window_argv(order, key, rows),
            lambda: O.hat_rows(specs[key], alpha, rows), check)

    def opnorm_linf(order, key, p):
        alpha, q = float(Fraction(order)), O.conjugate(p)
        add(f"opnorm-linf/{order}/{key}/p{p}", ["opnorm-linf", "--p", p] + window_argv(order, key, rows),
            lambda: max(O.qnorm(r, q) for r in O.hat_rows(specs[key], alpha, rows)),
            lambda out, ref: O.close(out["value"], ref, "opnorm-linf"))

    def mnc_c0(order, key, p, n):
        alpha, q = float(Fraction(order)), O.conjugate(p)
        grid = list(range(n // 2, n, max(1, n // 16)))
        argv = ["mnc-c0", "--p", p, "--r-grid", f"{n // 2}:{n}:{max(1, n // 16)}"] + window_argv(order, key, n)
        add(f"mnc-c0/{order}/{key}/p{p}", argv,
            lambda: O.grid_report("mnc_c0", O.hat_rows(specs[key], alpha, n), q, grid, n),
            lambda out, ref: O.check_report(report_json(out), ref, "mnc-c0"))

    def opnorm_l1(order, key, p):
        alpha, q = float(Fraction(order)), O.conjugate(p)
        add(f"opnorm-l1/{order}/{key}/p{p}", ["opnorm-l1", "--p", p] + window_argv(order, key, small),
            lambda: _opnorm_l1_ref(specs[key], alpha, small, q),
            lambda out, ref: _check_opnorm_l1(out["value"], out["certificate"], ref, "opnorm-l1"))

    def verify(order, p, n):
        def check(out, ref):
            names = [c["name"] for c in out["checks"]]
            O.require(out["ok"] is True and all(c["passed"] for c in out["checks"]),
                      f"verify: failed checks {out['checks']!r}")
            O.require(names == ["convolution-inverse", "round-trip", "duality",
                                "master-consistency", "opnorm-grid-agreement"],
                      f"verify: checks {names!r}")
        argv = ["verify", "--p", p, "--trials", str(S(10)), "--seed", str(seed)]
        argv += window_argv(order, "identity", n)
        add(f"verify/{order}/p{p}", argv, dict, check)

    coeffs("2/3", 5, None)
    coeffs("1/3", S(200), "exact")
    transform("1/2", "seq_a", "seq_a.json")
    transform("2/3", "seq_b", "seq_b.csv", length=S(300))
    norm("1/2", "2")
    norm("2/3", "inf")
    opnorm_linf("2/3", "banded", "1")
    mnc_c0("1/2", "identity", "2", S(128))
    opnorm_l1("1/2", "dense12", "2")
    opnorm_l1("2/3", "banded12", "inf")
    verify("1/2", "2", S(32))
    # the four 256-row hat windows are the dearest ops: the 90th percentile falls among them
    hat("1/2", "identity")
    hat("2/3", "banded")
    hat("1/2", "rss")
    hat("2/3", "identity")
    return workload


IN_PROCESS = {
    "windows_float": windows_float,
    "subsets_exhaustive": subsets_exhaustive,
    "sequences_exact": sequences_exact,
}
NAMES = tuple(IN_PROCESS) + ("cli_oneshot",)
