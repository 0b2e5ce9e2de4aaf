"""Random argv and input files through the CLI entry point, in process.

Whatever the arguments and payloads, ``run`` ends with exit code 0, 2
or 3 (1 only for a failed ``verify``), never lets an exception out, and
reports an error on one line.  Half of the examples draw only well-formed
arguments, so most of those reach the library.  Sizes stay small: rows,
columns, shifts and offsets are at most a few tens.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings, strategies as st

from fracseq.cli import run
from fracseq.compactness import CRITERIA

FINITE = st.one_of(
    st.integers(-3, 40),
    st.floats(-10, 10),
    st.sampled_from((0.0, 1e-300, 1e300, -1e308, 1e308)),
)
NUMBERS = st.one_of(FINITE, st.sampled_from((float("nan"), float("inf"))))
JUNK = st.one_of(NUMBERS, st.none(), st.booleans(), st.sampled_from(("1/2", "x", "")),
                 st.lists(NUMBERS, max_size=3), st.just({}))


def _lists(entry, max_size=5):
    return st.lists(entry, max_size=max_size)


def matrices(entry, junk):
    """Matrix JSON objects whose numbers come from ``entry`` and other fields from ``junk``."""
    offsets = st.one_of(st.integers(0, 40), junk)
    diagonal = st.one_of(entry, _lists(entry))
    band = st.integers(0, 3).flatmap(lambda k: st.fixed_dictionaries({
        "offsets": st.lists(offsets, min_size=k, max_size=k, unique_by=repr),
        "diagonals": st.lists(diagonal, min_size=k, max_size=k)}))
    return st.one_of(
        st.fixed_dictionaries(
            {"kind": st.just("dense-window"), "rows": st.one_of(_lists(_lists(entry), 8), junk)},
            optional={"row_bound": st.one_of(st.integers(0, 8), junk),
                      "column_decay": st.one_of(st.booleans(), junk)}),
        st.fixed_dictionaries(
            {"kind": st.just("banded"), "band": st.one_of(band, junk)},
            optional={"row_bound": st.one_of(st.integers(0, 8), junk)}),
        st.fixed_dictionaries(
            {"kind": st.just("generator"),
             "rule": st.sampled_from(("identity", "diagonal", "finite-rows", "row-scaled-shift", "x")),
             "params": st.fixed_dictionaries(
                 {}, optional={"ratio": st.one_of(entry, junk), "scale": st.one_of(entry, junk),
                               "shift": offsets, "values": _lists(entry, 8),
                               "rows": _lists(_lists(entry), 8)})}),
    )


def sequences(entry):
    return st.fixed_dictionaries({"entries": _lists(entry)})


def _csv(entry):
    return _lists(entry.map(repr)).map("\n".join)


WELL_FORMED = {  # payloads of the right kind for the flag that reads them
    "--matrix": matrices(FINITE, st.nothing()).map(json.dumps),
    "--in": st.one_of(sequences(FINITE).map(json.dumps), _csv(FINITE)),
}
ANY_PAYLOAD = st.one_of(
    matrices(NUMBERS, JUNK).map(json.dumps),
    sequences(st.one_of(NUMBERS, st.none(), st.sampled_from(("1/2", "x")))).map(json.dumps),
    JUNK.map(json.dumps),
    _lists(st.one_of(NUMBERS.map(repr), st.sampled_from(("", "x", "1,2", "1/2", " 3 ")))).map("\n".join),
    st.text(max_size=12),
)

# flag -> (well-formed values, malformed values)
VALUES = {
    "--order": (("1/2", "-1/2", "2/3", "-2/3", "0", "1", "0.3", "2"),
                ("-1", "1e308", "nan", "inf", "1/0", "x", "", "-")),
    "--p": (("1", "2", "3/2", "inf", "4"), ("0", "1/2", "-1", "nan", "1/0", "x")),
    "--n": (("0", "1", "5"), ("-1", "x")),
    "--mode": (("exact", "floating", "float"), ("x",)),
    "--length": (("0", "3", "7"), ("-2", "x")),
    "--tol": (("1e-10", "1e-3"), ("0", "-1", "nan", "inf", "x")),
    "--max-terms": (("1", "60"), ("0", "-5", "x")),
    "--rows": (("1", "3", "6", "30"), ("0", "-1", "x")),
    "--cols": (("1", "4", "8"), ("0", "-1", "x")),
    "--r-grid": (("0:4:1", "0:3:2", "1,2", "2"), ("0:4:0", "", "x", "-1", "0:3")),
    "--m-grid": (("1:4:1", "1,2", "3"), ("4:0:1", "x")),
    "--stab-window": (("2", "3"), ("1", "0", "-1", "x")),
    "--stab-tol": (("1e-8", "0.5"), ("-1", "inf", "nan", "x")),
    "--method": (("exhaustive", "greedy"), ("x",)),
    "--format": (("json", "csv", "table"), ("x",)),
    "--trials": (("1", "2"), ("0", "x")),
    "--seed": (("0", "7"), ("x",)),
    "--in": (("{payload}",), ("{missing}",)),
    "--matrix": (("{payload}",), ("{missing}",)),
    "--out": (("{out}",), ("{missing}",)),
}

IO = ("--out", "--format")
WINDOW = ("--rows", "--cols")
COMMANDS = {  # command -> (required flags, optional flags)
    "coeffs": (("--order", "--n"), ("--mode",) + IO),
    "transform": (("--order", "--in"), ("--length",) + IO),
    "inverse": (("--order", "--in"), ("--length",) + IO),
    "betadual": (("--order", "--in"), IO),
    "norm": (("--order", "--in"), ("--p", "--tol", "--max-terms") + IO),
    "dualnorm": (("--order", "--in"), ("--p",) + IO),
    "hat": (("--order", "--matrix"), WINDOW + ("--out",)),
    "opnorm-linf": (("--order", "--matrix"), ("--p",) + WINDOW + ("--out",)),
    "opnorm-l1": (("--order", "--matrix"), ("--p", "--method") + WINDOW + ("--out",)),
    "verify": (("--order",), ("--p", "--matrix", "--trials", "--seed") + WINDOW + ("--out",)),
}
for _spec in CRITERIA:
    COMMANDS[_spec.command] = (
        ("--order", "--matrix", "--" + _spec.grid.replace("_", "-")),
        (("--p",) if _spec.takes_p else ()) + (("--method",) if _spec.command == "mnc-l1" else ())
        + WINDOW + ("--stab-window", "--stab-tol") + IO)


@st.composite
def invocations(draw):
    """``(argv, payload)``; argv may hold ``{payload}``, ``{missing}`` and ``{out}``."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[command]
    clean = draw(st.booleans())
    flags = [f for f in required if clean or draw(st.integers(0, 9))]
    flags += [f for f in optional if draw(st.booleans())]
    if not clean:
        flags += draw(st.lists(st.sampled_from(sorted(VALUES)), max_size=2))
    flags = draw(st.permutations(flags))
    argv = [command]
    for flag in flags:
        good, bad = VALUES[flag]
        value = draw(st.sampled_from(good if clean else good + bad))
        spelled = draw(st.sampled_from(("--ord", "--order"))) if flag == "--order" else flag
        argv += [spelled, value] if clean or draw(st.integers(0, 9)) else [spelled]
    if not clean:
        argv += draw(st.lists(st.sampled_from(("-1/2", "--bogus", "--", "-x", "bogus")), max_size=1))
    reads = [f for f in ("--matrix", "--in") if f in flags]
    payload = draw(WELL_FORMED[reads[0]] if clean and reads else ANY_PAYLOAD)
    return argv, payload


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_cli_exit_codes_and_one_line_errors(case):
    argv, payload = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "payload")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
        places = {"{payload}": path, "{missing}": os.path.join(tmp, "missing", "file"),
                  "{out}": os.path.join(tmp, "out")}
        code, _, err = _run([places.get(arg, arg) for arg in argv])
    allowed = {0, 2, 3} | ({1} if argv[0] == "verify" else set())
    assert code in allowed, (argv, payload, err)
    assert "Traceback" not in err
    if code in (2, 3) and err.startswith("error: "):
        assert err.count("\n") == 1, err
    if code == 0:
        assert err == ""
