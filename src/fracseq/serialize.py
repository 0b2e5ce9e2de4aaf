"""Deterministic text serialization.

JSON emitted here is byte-stable: dict keys keep insertion order and
floats are rendered with 17 significant digits, enough to round-trip
any double exactly.  A non-finite float raises ``ValueError``: JSON has
no ``inf`` or ``nan``.  The stdlib ``json`` module is used for parsing;
only the emitter is custom.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


def format_float(value: float) -> str:
    return format(float(value), ".17g")


def _emit(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"JSON has no number for the non-finite value {obj!r}")
        return format_float(obj)
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_emit(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_dumps(obj) -> str:
    """Render ``obj`` as deterministic JSON text (no trailing newline).

    Raises ``ValueError`` naming the value when a float is not finite.
    """
    return _emit(obj)


def json_loads(text: str):
    return json.loads(text)


def parse_ratio(text: str) -> Fraction:
    """Parse ``"p/q"`` or a plain integer string as an exact ratio."""
    parts = text.strip().split("/")
    if len(parts) == 1:
        return Fraction(int(parts[0]))
    if len(parts) == 2:
        num, den = int(parts[0]), int(parts[1])
        if den == 0:
            raise ValueError(f"zero denominator in ratio {text!r}")
        return Fraction(num, den)
    raise ValueError(f"malformed ratio {text!r}")


def _describe(value) -> str:
    text = json.dumps(value, default=repr)
    return text if len(text) <= 40 else text[:37] + "..."


def json_number(value, path: str, index: int | None = None) -> float:
    """A parsed JSON number as a float.

    Anything else (``null``, a string, a boolean, an array, an integer
    beyond float range) raises ``ValueError`` naming the JSON path
    ``path`` or ``path[index]``.
    """
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:
            pass
    where = path if index is None else f"{path}[{index}]"
    raise ValueError(f"{where} must be a number, got {_describe(value)}")


def json_integer(value, path: str, index: int | None = None) -> int:
    """A parsed JSON integer (or integral float), else ``ValueError`` naming the path."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    where = path if index is None else f"{path}[{index}]"
    raise ValueError(f"{where} must be an integer, got {_describe(value)}")


def json_numbers(values, path: str) -> list[float]:
    """A parsed JSON array of numbers as floats, naming the first bad entry by its path."""
    if not isinstance(values, list):
        raise ValueError(f"{path} must be an array, got {_describe(values)}")
    return [json_number(v, path, k) for k, v in enumerate(values)]


def values_to_csv(values) -> str:
    """Single-column CSV, one value per line."""
    return "\n".join(format_float(v) for v in values) + "\n"


def values_from_csv(text: str) -> list[float]:
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(float(line))
        except ValueError:
            raise ValueError(f"line {lineno} is not a number: {line!r}") from None
    return out
