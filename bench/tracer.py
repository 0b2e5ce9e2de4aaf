"""Spans and counters around fracseq's public functions, installed from outside.

:meth:`Tracer.install` replaces each traced function by a wrapper in
every fracseq module that binds it (so cross-module imports such as
``fracseq.compactness.hat_matrix`` are covered) and on the class for
``MatrixSource.row``; :meth:`Tracer.uninstall` restores the originals.
A span is ``(metric, start, end, parent, outermost)``; spans stay in
memory until :meth:`Tracer.cycle` folds them into per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction

CHILD_MARKER = "@@fracseq-bench-trace@@"


def _terms(t, ba, result, dur):
    t.count("coefficients.terms", ba()["n"])


def _exact(t, ba, result, dur):
    entries = result.entries
    if len(entries) and isinstance(entries[0], Fraction):
        t.count("transforms.exact_calls", 1)


def _space_norm(t, ba, result, dur):
    report = result[1]
    t.count("transforms.space_norm.terms_used", report.terms_used)
    t.count("transforms.space_norm.tail_flagged", int(report.tail_flagged))


def _row(t, ba, result, dur):
    t.count("matrix_domain.rows_materialized", 1)


def _cells(t, ba, result, dur):
    t.count("matrix_domain.hat_cells", sum(len(r) for r in result.rows))


def _subsets(pool_offset):
    def count(t, ba, result, dur):
        args = ba()
        if args["method"] == "exhaustive":
            t.count("matrix_domain.subsets_scanned", (1 << (args["row_count"] - pool_offset)) - 1)
            t.count("_exhaustive_s", dur)
    return count


def _grid(t, ba, result, dur):
    t.count("compactness.grid_points", len(result.grid.values))


_pool_subsets = _subsets(1)  # MNC-L1 scans the rows after the first


def _grid_subsets(t, ba, result, dur):
    _grid(t, ba, result, dur)
    _pool_subsets(t, ba, result, dur)


def _bytes(t, ba, result, dur):
    t.count("serialize.bytes_out", len(result))


# (module, attribute, metric, counter)
TARGETS = (
    ("coefficients", "coefficient_prefix", "coefficients.prefix", None),
    ("coefficients", "raw_prefix", "coefficients.prefix", _terms),
    ("transforms", "forward_transform", "transforms.forward", _exact),
    ("transforms", "inverse_transform", "transforms.inverse", _exact),
    ("transforms", "beta_dual_transform", "transforms.beta_dual", _exact),
    ("transforms", "space_norm", "transforms.space_norm", _space_norm),
    ("transforms", "dual_norm", "transforms.dual_norm", None),
    ("matrix_domain", "MatrixSource.row", "matrix_domain.rows", _row),
    ("matrix_domain", "hat_matrix", "matrix_domain.hat", _cells),
    ("matrix_domain", "opnorm_to_linf", "matrix_domain.opnorm_linf", None),
    ("matrix_domain", "opnorm_to_l1", "matrix_domain.opnorm_l1", _subsets(0)),
    ("compactness", "mnc_c0", "compactness.mnc_c0", _grid),
    ("compactness", "mnc_c", "compactness.mnc_c", _grid),
    ("compactness", "mnc_l1", "compactness.mnc_l1", _grid_subsets),
    ("compactness", "criterion_linf_target", "compactness.crit_linf", _grid),
    ("compactness", "criterion_linf_domain", "compactness.crit_linfdom", _grid),
    ("compactness", "sargent_criterion", "compactness.sargent", _grid),
    ("serialize", "json_dumps", "serialize.emit", _bytes),
    ("serialize", "values_to_csv", "serialize.emit", _bytes),
)

SPAN_METRICS = tuple(dict.fromkeys(metric for _, _, metric, _ in TARGETS))
COUNT_METRICS = (
    "coefficients.terms",
    "transforms.space_norm.terms_used",
    "transforms.space_norm.tail_flagged",
    "transforms.exact_calls",
    "matrix_domain.rows_materialized",
    "matrix_domain.hat_cells",
    "matrix_domain.subsets_scanned",
    "compactness.grid_points",
    "serialize.bytes_out",
    "cli.stdout_bytes",
)


class Tracer:
    def __init__(self):
        self._patches = []
        self.reset()

    # -- recording ----------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self._depth = defaultdict(int)
        self._case = None
        self._counts = defaultdict(float)
        self._by_case = defaultdict(lambda: defaultdict(float))
        self._child = defaultdict(float)

    def _open(self, metric):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([metric, time.perf_counter(), 0.0, parent, self._depth[metric] == 0])
        self._depth[metric] += 1
        self._stack.append(len(self.spans) - 1)

    def _close(self, metric):
        i = self._stack.pop()
        self._depth[metric] -= 1
        span = self.spans[i]
        span[2] = time.perf_counter()
        dur = span[2] - span[1]
        if span[4] and self._case is not None:
            self._by_case[self._case][metric + "_s"] += dur
        return dur

    def count(self, name: str, n) -> None:
        self._counts[name] += n
        if self._case is not None:
            self._by_case[self._case][name] += n

    @contextlib.contextmanager
    def op(self, case: str):
        """One benchmark operation: the root span of the calls it makes."""
        self._case = case
        self._open("op")
        try:
            yield
        finally:
            self._close("op")
            self._case = None

    def merge_child(self, stderr_text: str) -> None:
        """Add the summary a traced CLI child printed after :data:`CHILD_MARKER`."""
        import json

        _, sep, tail = stderr_text.rpartition(CHILD_MARKER)
        if not sep:
            return
        summary = json.loads(tail)
        for name, v in summary["total"].items():
            self._child[name + "_s"] += v
            self._by_case[self._case][name + "_s"] += v
        for name, v in summary["self"].items():
            self._child[name + ".self_s"] += v
        for name, v in summary["counts"].items():
            self.count(name, v)

    # -- installing -----------------------------------------------------

    def _wrap(self, orig, metric, counter):
        tracer = self
        signature = []

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            tracer._open(metric)
            try:
                result = orig(*args, **kwargs)
            finally:
                dur = tracer._close(metric)
            if counter is not None:
                def bound():
                    if not signature:
                        signature.append(inspect.signature(orig))
                    ba = signature[0].bind(*args, **kwargs)
                    ba.apply_defaults()
                    return ba.arguments
                counter(tracer, bound, result, dur)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "fracseq" or name.startswith("fracseq."))]
        for module_name, attr, metric, counter in TARGETS:
            home = sys.modules.get(f"fracseq.{module_name}")
            if home is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                orig = getattr(cls, meth, None) if cls is not None else None
                if orig is None:
                    continue
                setattr(cls, meth, self._wrap(orig, metric, counter))
                self._patches.append((cls, meth, orig))
                continue
            orig = getattr(home, attr, None)
            if orig is None:
                continue
            wrapper = self._wrap(orig, metric, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches = []

    # -- folding ----------------------------------------------------------

    def _span_times(self):
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        total = defaultdict(float)
        self_time = defaultdict(float)
        for s, c in zip(spans, child):
            if s[0] == "op":
                continue
            dur = s[2] - s[1]
            self_time[s[0]] += dur - c
            if s[4]:
                total[s[0]] += dur
        return total, self_time

    def summary(self) -> dict:
        """Per-metric totals, self times and counts of everything recorded since reset."""
        total, self_time = self._span_times()
        return {"total": dict(total), "self": dict(self_time), "counts": dict(self._counts)}

    def cycle(self) -> dict:
        """Per-layer metrics of the operations recorded since the last reset."""
        total, self_time = self._span_times()
        out = {}
        for metric in SPAN_METRICS:
            out[metric + "_s"] = total[metric] + self._child[metric + "_s"]
            out[metric + ".self_s"] = self_time[metric] + self._child[metric + ".self_s"]
        for name in COUNT_METRICS:
            out[name] = self._counts[name]
        exhaustive = self._counts["_exhaustive_s"]
        out["matrix_domain.subsets_per_s"] = (
            self._counts["matrix_domain.subsets_scanned"] / exhaustive if exhaustive else 0.0)
        return out

    def by_case(self) -> dict:
        """Layer times and counts per operation name, for the record."""
        return {case: dict(v) for case, v in self._by_case.items()}


def median_metrics(cycles: list) -> dict:
    return {k: statistics.median(c[k] for c in cycles) for k in cycles[0]}
