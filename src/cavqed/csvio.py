"""Bit-stable CSV emission and parsing.

Every file starts with ``#``-prefixed metadata lines (tool version, config
hash, seed, command context), then one header row.  Floats are serialized
with 9 significant digits.  The writer formats the whole table in one pass:
each column has one ``%`` format, and a row template repeated over the rows
takes every value at once.  Files are written atomically (write-then-rename),
so identical configuration and seed produce byte-identical output.  No
timestamps, ever.
"""

from __future__ import annotations

import hashlib
import json
import os
from itertools import chain
from pathlib import Path

import numpy as np

__all__ = ["format_float", "config_hash", "write_csv", "read_csv"]

_FLOAT_DIGITS = 9


def format_float(x) -> str:
    return f"{float(x):.{_FLOAT_DIGITS}g}"


def config_hash(config_dict: dict) -> str:
    """Stable 16-hex digest of a JSON-serializable configuration."""
    canonical = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    return str(value)


def _column_format(a: np.ndarray) -> tuple[str, list]:
    """A ``%`` format and the values it turns into the cells :func:`_format_cell` gives."""
    if a.dtype.kind == "f":
        return f"%.{_FLOAT_DIGITS}g", a.astype(float).tolist()
    if a.dtype.kind in "iuU":
        return "%s", a.tolist()
    return "%s", [_format_cell(v) for v in a]


def write_csv(path, columns: dict, meta: dict) -> None:
    """Write named columns with metadata; atomic replace on completion.

    A failed write or rename removes its temporary file and re-raises.
    """
    path = Path(path)
    names = list(columns)
    arrays = [np.asarray(columns[n]) for n in names]
    length = arrays[0].shape[0]
    if any(a.shape != (length,) for a in arrays):
        raise ValueError("all columns must be 1-D and equally long")
    head = [f"# {k}={_format_cell(v)}" for k, v in meta.items()]
    head.append(",".join(names))
    formats, values = zip(*map(_column_format, arrays))
    row = ",".join(formats) + "\n"
    payload = ("\n".join(head) + "\n"
               + row * length % tuple(chain.from_iterable(zip(*values))))
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_csv(path):
    """Parse a file written by :func:`write_csv`.

    Returns (meta, columns) where columns maps each header name to a numpy
    array (float when possible, strings otherwise).  A row whose cell count
    differs from the header's raises ``ValueError`` naming file and line.
    """
    meta: dict = {}
    header: list[str] | None = None
    rows: list[str] = []
    with open(path) as fh:
        for number, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, value = body.split("=", 1)
                    meta[key.strip()] = value.strip()
                continue
            if header is None:
                header = [c.strip() for c in line.split(",")]
                continue
            cells = line.count(",") + 1
            if cells != len(header):
                raise ValueError(f"{path}:{number}: {cells} cells, "
                                 f"header has {len(header)}")
            rows.append(line)
    if header is None:
        raise ValueError(f"{path}: no header row found")
    # Column j is every len(header)-th cell from j; floats parse past whitespace.
    cells = ",".join(rows).split(",") if rows else []
    columns = {}
    for j, name in enumerate(header):
        column = cells[j::len(header)]
        try:
            columns[name] = np.array(column, dtype=float)
        except ValueError:
            columns[name] = np.array([c.strip() for c in column])
    return meta, columns
