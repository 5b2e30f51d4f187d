"""Deterministic JSON and CSV writing, and shape checks of loaded JSON.

The standard library's encoder writes the JSON, indented, keys in the
order given.  Floats are written as their shortest round-trip text
(``repr``), so artifacts load back to the same floats, an integral
float stays a float (``0.0``), and identical runs produce
byte-identical files.  Non-finite floats are rejected, both on writing
and on loading.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

_NUMBER = (int, float)  # a JSON number; _check_shape refuses booleans for it


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite float {x!r} cannot be serialized")
    return repr(float(x))


def dumps(obj) -> str:
    """Serialize to indented JSON with key order as given."""
    return json.dumps(obj, indent=2, allow_nan=False)


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(dumps(obj) + "\n", encoding="utf-8")


def load_json(path: str | Path):
    """Parse the JSON at ``path``, refusing a number that is not finite."""
    return json.loads(Path(path).read_text(encoding="utf-8"),
                      parse_float=_finite, parse_constant=_finite)


def _finite(token: str) -> float:
    """The float of a JSON number or constant token; ValueError naming one
    that is not finite: NaN, Infinity, -Infinity, or a literal such as
    1e999 that overflows a float."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"number {token} is not finite")
    return value


def _check_shape(obj, shape, key: str | None = None) -> None:
    """Raise ValueError naming the first key at which loaded JSON ``obj``
    departs from ``shape``: a type or tuple of types (``bool`` only where
    named), a dict of required keys to their shapes, or [entry shape]."""
    if isinstance(shape, dict):
        for k, entry_shape in shape.items():
            if not isinstance(obj, dict) or k not in obj:
                raise ValueError(f"missing key {k!r}")
            _check_shape(obj[k], entry_shape, k)
    elif isinstance(shape, list):
        _check_shape(obj, list, key)
        for entry in obj:
            _check_shape(entry, shape[0], key)
    elif not isinstance(obj, shape) or (isinstance(obj, bool) and shape is not bool):
        raise ValueError(f"key {key!r} holds a {type(obj).__name__}")


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_cell(v) for v in row])
    Path(path).write_text(buf.getvalue(), encoding="utf-8")
