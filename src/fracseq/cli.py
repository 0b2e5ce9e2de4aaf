"""Command-line front end.

Every library operation is exposed as a subcommand with file-based
I/O.  Reports are emitted as deterministic JSON (fixed field order,
floats at 17 significant digits), single-column CSV, or an aligned
text table.  Exit codes: 0 success, 2 invalid input or precondition
violation, 3 cost-guard refusal.  Verdicts never affect the exit code.
"""

from __future__ import annotations

import argparse
import random
import sys

import numpy as np

from . import __version__
from .coefficients import (
    MODE_EXACT,
    MODE_FLOATING,
    FractionalOrder,
    coefficient_prefix,
)
from . import compactness
from .compactness import CRITERIA, StabilizationPolicy, mnc_c0
from .errors import CostGuardError, SourceError
from .matrix_domain import MatrixSource, hat_matrix, opnorm_to_l1, opnorm_to_linf
from .serialize import format_float, json_dumps, json_loads, values_to_csv
from .transforms import (
    Exponent,
    FiniteSequence,
    beta_dual_transform,
    dual_norm,
    forward_transform,
    inverse_transform,
    space_norm,
)


def _parse_order(text: str) -> FractionalOrder:
    try:
        return FractionalOrder(text if "/" in text else float(text))
    except ValueError as exc:
        raise ValueError(f"order: {exc}") from None


def _parse_p(text: str) -> Exponent:
    try:
        return Exponent(text)
    except ValueError as exc:
        raise ValueError(f"p: {exc}") from None


def _parse_grid(text: str, name: str) -> list[int]:
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError("expected start:stop:step")
            start, stop, step = (int(v) for v in parts)
            if step <= 0:
                raise ValueError("step must be positive")
            values = list(range(start, stop, step))
        elif "," in text:
            values = [int(v) for v in text.split(",")]
        else:
            values = [int(text)]
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    if not values:
        raise ValueError(f"{name}: grid {text!r} is empty")
    return values


def _parse_mode(text: str) -> str:
    aliases = {"exact": MODE_EXACT, MODE_EXACT: MODE_EXACT,
               "float": MODE_FLOATING, MODE_FLOATING: MODE_FLOATING}
    if text not in aliases:
        raise ValueError(f"mode: expected exact or floating, got {text!r}")
    return aliases[text]


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_sequence(path: str) -> FiniteSequence:
    text = _read_text(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return FiniteSequence.from_json_dict(json_loads(text))
    return FiniteSequence.from_csv(text)


def _load_matrix(path: str) -> MatrixSource:
    text = _read_text(path)
    try:
        obj = json_loads(text)
    except ValueError as exc:
        raise ValueError(f"matrix: not valid JSON: {exc}") from None
    return MatrixSource.from_json_dict(obj)


def _write(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_sequence(args, seq: FiniteSequence) -> None:
    if args.format == "csv":
        _write(args, seq.to_csv())
    elif args.format == "table":
        lines = [f"{'k':>6}  value"]
        lines += [f"{k:>6}  {format_float(v)}" for k, v in enumerate(seq.as_floats())]
        _write(args, "\n".join(lines))
    else:
        _write(args, json_dumps(seq.to_json_dict()))


def _emit_report(args, report) -> None:
    if args.format == "table":
        _write(args, report.render_table())
    elif args.format == "csv":
        lines = [f"{r},{format_float(v)}" for r, v in zip(report.grid.r_values, report.grid.values)]
        _write(args, "\n".join(lines))
    else:
        _write(args, json_dumps(report.to_json_dict()))


def _stabilization(args) -> StabilizationPolicy:
    return StabilizationPolicy(window=args.stab_window, tolerance=args.stab_tol)


# -- subcommand handlers ------------------------------------------------


def _cmd_coeffs(args):
    order = _parse_order(args.order)
    mode = _parse_mode(args.mode)
    table = coefficient_prefix(order, args.n, mode)
    if args.format == "csv":
        _write(args, values_to_csv(table.as_floats()))
    elif args.format == "table":
        lines = [f"{'i':>6}  value"]
        if mode == MODE_EXACT:
            lines += [f"{i:>6}  {v}" for i, v in enumerate(table.entries)]
        else:
            lines += [f"{i:>6}  {format_float(v)}" for i, v in enumerate(table.entries)]
        _write(args, "\n".join(lines))
    else:
        _write(args, json_dumps(table.to_json_dict()))
    return 0


def _cmd_transform(args, inverse: bool):
    order = _parse_order(args.order)
    seq = _load_sequence(args.infile)
    length = args.length if args.length is not None else max(1, len(seq))
    op = inverse_transform if inverse else forward_transform
    _emit_sequence(args, op(seq, order, length))
    return 0


def _cmd_betadual(args):
    order = _parse_order(args.order)
    seq = _load_sequence(args.infile)
    _emit_sequence(args, beta_dual_transform(seq, order))
    return 0


def _cmd_norm(args):
    order = _parse_order(args.order)
    p = _parse_p(args.p)
    seq = _load_sequence(args.infile)
    value, report = space_norm(seq, order, p, tolerance=args.tol, max_terms=args.max_terms)
    payload = {"value": value, "report": report.to_json_dict()}
    if args.format == "table":
        lines = [
            f"value        {format_float(value)}",
            f"terms_used   {report.terms_used}",
            f"tail_flagged {'yes' if report.tail_flagged else 'no'}",
            f"tail_estimate {format_float(report.tail_estimate)}",
        ]
        _write(args, "\n".join(lines))
    else:
        _write(args, json_dumps(payload))
    return 0


def _cmd_dualnorm(args):
    order = _parse_order(args.order)
    p = _parse_p(args.p)
    seq = _load_sequence(args.infile)
    _write(args, json_dumps({"value": dual_norm(seq, order, p)}))
    return 0


def _cmd_hat(args):
    order = _parse_order(args.order)
    A = _load_matrix(args.matrix)
    window = hat_matrix(A, order, args.rows, args.cols)
    _write(args, json_dumps(window.to_json_dict()))
    return 0


def _cmd_opnorm_linf(args):
    order = _parse_order(args.order)
    p = _parse_p(args.p)
    A = _load_matrix(args.matrix)
    value = opnorm_to_linf(A, order, p, args.rows, args.cols)
    _write(args, json_dumps({"value": value}))
    return 0


def _cmd_opnorm_l1(args):
    order = _parse_order(args.order)
    p = _parse_p(args.p)
    A = _load_matrix(args.matrix)
    value, cert = opnorm_to_l1(A, order, p, args.rows, args.cols, method=args.method)
    _write(args, json_dumps({"value": value, "certificate": list(cert)}))
    return 0


def _cmd_criterion(args):
    spec = args.criterion
    A = _load_matrix(args.matrix)
    order = _parse_order(args.order)
    kwargs = {"p": _parse_p(args.p)} if spec.takes_p else {}
    kwargs[spec.grid] = _parse_grid(getattr(args, spec.grid), spec.grid.replace("_", "-"))
    kwargs[spec.columns] = args.cols
    if spec.command == "mnc-l1":
        kwargs["method"] = args.method
    # looked up at call time, so a rebound module attribute is what runs
    criterion = getattr(compactness, spec.function)
    _emit_report(args, criterion(A, order, row_count=args.rows,
                                 stabilization=_stabilization(args), **kwargs))
    return 0


def _cmd_verify(args):
    if args.trials < 1:
        raise ValueError(f"trials must be at least 1, got {args.trials}")
    order = _parse_order(args.order)
    p = _parse_p(args.p)
    rng = random.Random(args.seed)
    checks = []

    def record(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    # convolution inverse of the coefficient sequence
    fwd = coefficient_prefix(order, 200).entries
    inv_entries = inverse_transform(FiniteSequence.unit(0, 200), order, 200).entries
    worst = 0.0
    for k in range(200):
        acc = sum(fwd[i] * inv_entries[k - i] for i in range(k + 1))
        target = 1.0 if k == 0 else 0.0
        worst = max(worst, abs(acc - target))
    record("convolution-inverse", worst < 1e-12, f"max deviation {format_float(worst)}")

    # transform round trip on random sequences
    worst = 0.0
    for _ in range(args.trials):
        n = rng.randrange(1, 65)
        x = FiniteSequence([rng.uniform(-1, 1) for _ in range(n)])
        back = inverse_transform(forward_transform(x, order, n), order, n)
        worst = max(worst, max(abs(a - b) for a, b in zip(x.entries, back.entries)))
    record("round-trip", worst < 1e-12, f"max abs error {format_float(worst)}")

    # duality pairing
    worst = 0.0
    for _ in range(args.trials):
        n = rng.randrange(1, 65)
        a = FiniteSequence([rng.uniform(-1, 1) for _ in range(n)])
        x = FiniteSequence([rng.uniform(-1, 1) for _ in range(n)])
        y = forward_transform(x, order, n)
        abar = beta_dual_transform(a, order)
        lhs = sum(a[k] * x[k] for k in range(n))
        rhs = sum(abar[k] * y[k] for k in range(n))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    record("duality", worst < 1e-12, f"max relative residual {format_float(worst)}")

    if args.matrix:
        A = _load_matrix(args.matrix)
        window = hat_matrix(A, order, args.rows, args.cols)
        worst = 0.0
        for _ in range(args.trials):
            n = rng.randrange(1, args.cols + 1)
            x = FiniteSequence([rng.uniform(-1, 1) for _ in range(n)])
            xf = x.as_floats()
            support = max(len(r) for r in window.rows) if window.rows else 1
            y = forward_transform(x, order, max(support, n))
            for row_a, row_h in zip((A.row(i) for i in range(args.rows)), window.rows):
                lhs = sum(float(v) * (xf[j] if j < n else 0.0) for j, v in enumerate(row_a))
                rhs = sum(float(v) * y[j] for j, v in enumerate(row_h))
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
        record("master-consistency", worst < 1e-11, f"max relative error {format_float(worst)}")

        norm_value = opnorm_to_linf(A, order, p, args.rows, args.cols)
        report = mnc_c0(A, order, p, r_grid=[0], row_count=args.rows, column_bound=args.cols,
                        stabilization=StabilizationPolicy(window=2, tolerance=1e-8))
        gap = abs(norm_value - report.grid.values[0])
        record("opnorm-grid-agreement", gap <= 1e-12 * max(1.0, norm_value),
               f"difference {format_float(gap)}")

    ok = all(c["passed"] for c in checks)
    _write(args, json_dumps({"checks": checks, "ok": ok}))
    return 0 if ok else 1


# -- parser ---------------------------------------------------------------


def _add_command(subs, name, help):
    """A subcommand parser; every subcommand takes ``--order``."""
    sub = subs.add_parser(name, help=help)
    sub.add_argument("--order", required=True)
    return sub


def _add_io(sub, *, fmt=True):
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    if fmt:
        sub.add_argument("--format", choices=("json", "csv", "table"), default="json")


def _add_window(sub):
    sub.add_argument("--rows", type=int, default=32, help="row window size")
    sub.add_argument("--cols", type=int, default=32, help="column bound")


def _add_stab(sub):
    sub.add_argument("--stab-window", type=int, default=4)
    sub.add_argument("--stab-tol", type=float, default=1e-8)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracseq",
        description="Fractional difference sequence-space calculator",
    )
    parser.add_argument("--version", action="version", version=f"fracseq {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    s = _add_command(subs, "coeffs", help="coefficient prefix at an order")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--mode", default="floating")
    _add_io(s)
    s.set_defaults(handler=_cmd_coeffs)

    for name, inverse in (("transform", False), ("inverse", True)):
        s = _add_command(subs, name, help=f"{'inverse ' if inverse else ''}difference transform")
        s.add_argument("--in", dest="infile", required=True)
        s.add_argument("--length", type=int, default=None)
        _add_io(s)
        s.set_defaults(handler=lambda a, inv=inverse: _cmd_transform(a, inv))

    s = _add_command(subs, "betadual", help="dual transform of a finitely supported sequence")
    s.add_argument("--in", dest="infile", required=True)
    _add_io(s)
    s.set_defaults(handler=_cmd_betadual)

    s = _add_command(subs, "norm", help="transformed-space norm with adaptive truncation")
    s.add_argument("--p", default="2")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--tol", type=float, default=1e-10)
    s.add_argument("--max-terms", type=int, default=32768)
    _add_io(s)
    s.set_defaults(handler=_cmd_norm)

    s = _add_command(subs, "dualnorm", help="dual-space norm")
    s.add_argument("--p", default="2")
    s.add_argument("--in", dest="infile", required=True)
    _add_io(s)
    s.set_defaults(handler=_cmd_dualnorm)

    s = _add_command(subs, "hat", help="transformed matrix window")
    s.add_argument("--matrix", required=True)
    _add_window(s)
    _add_io(s, fmt=False)
    s.set_defaults(handler=_cmd_hat)

    s = _add_command(subs, "opnorm-linf", help="operator norm toward bounded targets")
    s.add_argument("--p", default="2")
    s.add_argument("--matrix", required=True)
    _add_window(s)
    _add_io(s, fmt=False)
    s.set_defaults(handler=_cmd_opnorm_linf)

    s = _add_command(subs, "opnorm-l1", help="operator norm toward the summable target")
    s.add_argument("--p", default="2")
    s.add_argument("--matrix", required=True)
    s.add_argument("--method", choices=("exhaustive", "greedy"), default="exhaustive")
    _add_window(s)
    _add_io(s, fmt=False)
    s.set_defaults(handler=_cmd_opnorm_l1)

    for spec in CRITERIA:
        s = _add_command(subs, spec.command, help=f"{spec.command} compactness report")
        if spec.takes_p:
            s.add_argument("--p", default="2")
        s.add_argument("--matrix", required=True)
        s.add_argument("--" + spec.grid.replace("_", "-"), required=True,
                       help="start:stop:step (half-open)")
        if spec.command == "mnc-l1":
            s.add_argument("--method", choices=("exhaustive", "greedy"), default="exhaustive")
        _add_window(s)
        _add_stab(s)
        _add_io(s)
        s.set_defaults(handler=_cmd_criterion, criterion=spec)

    s = _add_command(subs, "verify", help="cross-module consistency checks")
    s.add_argument("--p", default="2")
    s.add_argument("--matrix", default=None)
    s.add_argument("--trials", type=int, default=25)
    s.add_argument("--seed", type=int, default=0)
    _add_window(s)
    _add_io(s, fmt=False)
    s.set_defaults(handler=_cmd_verify)

    return parser


def _join_negative_orders(argv) -> list:
    """``--order -1/2`` -> ``--order=-1/2``, and likewise for an abbreviation such as
    ``--ord``: argparse reads only ``-<digits>[.<digits>]`` as a negative number and
    would take any other value starting with ``-`` for an option.  Joined, a prefix
    is still resolved (or refused as ambiguous) by argparse itself."""
    out = []
    for arg in argv:
        prev = out[-1] if out else ""
        if (len(prev) > 2 and "--order".startswith(prev)
                and len(arg) > 1 and arg[0] == "-" and arg[1] in "0123456789."):
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_orders(argv))
    try:
        with np.errstate(over="raise"):  # an overflow not handled below ends here, not in a warning
            return args.handler(args)
    except CostGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"error: a value is past the float range ({exc})", file=sys.stderr)
        return 2
    except (ValueError, SourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
