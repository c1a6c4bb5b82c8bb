"""Deterministic result persistence: CSV / JSON-lines emission and manifests.

Identical record lists produce byte-identical files: keys are sorted, floats
are canonicalized to 12 significant digits, and line endings are fixed.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import MODULES, __version__

__all__ = [
    "canonical_value",
    "canonical_json",
    "config_digest",
    "write_manifest",
    "write_reports",
    "Table",
]


def canonical_value(value):
    """Canonical form for emission: floats to 12 significant digits."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {str(k): canonical_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical_value(v) for v in value]
    try:
        return canonical_value(float(value))  # numpy scalars
    except (TypeError, ValueError):
        return str(value)


def canonical_json(obj) -> str:
    return json.dumps(canonical_value(obj), sort_keys=True, separators=(",", ":"))


try:  # the interpreter's own SHA-256, as random.py takes its _sha512: hashlib would load OpenSSL
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256 as _sha256


def config_digest(config: dict) -> str:
    """Stable SHA-256 hex of a canonicalized config: equal configs, equal digests."""
    return _sha256(canonical_json(config).encode("utf-8")).hexdigest()


def _format_cell(value) -> str:
    """One CSV cell; a float (numpy scalars too) is formatted once, to 12 significant digits.

    For every double, f"{v:.12g}" is the string that canonical_value's
    rounding formats to, nan and +-inf included.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, (int, str)):
        return str(value)
    try:
        return f"{float(value):.12g}"
    except (TypeError, ValueError):
        return str(canonical_value(value))


def _json_float(cell: str) -> str:
    """canonical_json of a float, given its CSV cell f"{v:.12g}".

    A fixed-point cell with a decimal point is already repr of the rounded
    float: at most 12 digits name one double, and repr writes the shortest
    digits that name it.  Integral values, exponents (repr moves to them at
    1e16, not 1e12; subnormals have fewer digits), nan and +-inf differ.
    """
    if "." in cell and "e" not in cell:
        return cell
    if cell in ("nan", "inf", "-inf"):
        return json.dumps(cell)
    return repr(float(cell))


def _cells(column) -> tuple[list, list]:
    """(CSV cells, canonical_json values) of a column; each float is formatted once, for both."""
    if isinstance(column, np.ndarray):
        cells = [f"{v:.12g}" for v in column.tolist()]
        return cells, [s if "." in s and "e" not in s else _json_float(s) for s in cells]
    # a string column repeats a few labels: each is encoded once
    strings = {v: json.dumps(v) for v in {v for v in column if isinstance(v, str)}}
    if all(type(v) is str for v in column):  # plain labels are their own CSV cells
        return column, [strings[v] for v in column]
    cells = [_format_cell(v) for v in column]
    return cells, [
        strings[v] if isinstance(v, str) else _json_float(s) if isinstance(v, float) else canonical_json(v)
        for v, s in zip(column, cells)
    ]


class Table:
    """Homogeneous report rows held as columns; each cell is formatted once for every file written from it.

    ``columns`` maps each key to its column, all of one length: a float
    numpy array, or a list of values of any kind canonical_value takes.  As
    a sequence, a table holds its rows as dicts.
    """

    def __init__(self, columns: dict):
        self.columns = columns

    @classmethod
    def of(cls, records) -> Table:
        """The table of a list of dicts, which must all carry the same keys."""
        records = list(records)
        keys = records[0].keys() if records else {}
        if any(rec.keys() != keys for rec in records):
            raise ValueError("records must be homogeneous per file")
        return cls({k: [rec[k] for rec in records] for k in keys})

    @classmethod
    def concat(cls, tables: list[Table]) -> Table:
        """The rows of every table in turn; the tables share their keys and column kinds."""
        return cls({
            k: np.concatenate([t.columns[k] for t in tables]) if isinstance(col, np.ndarray)
            else [v for t in tables for v in t.columns[k]]
            for k, col in tables[0].columns.items()
        })

    def take(self, rows) -> Table:
        """The table of the rows at the indices ``rows``, in that order."""
        return Table({
            k: col[rows] if isinstance(col, np.ndarray) else [col[i] for i in rows]
            for k, col in self.columns.items()
        })

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def __getitem__(self, i: int) -> dict:
        return {k: col[i].item() if isinstance(col, np.ndarray) else col[i] for k, col in self.columns.items()}

    def __iter__(self):
        values = [col.tolist() if isinstance(col, np.ndarray) else col for col in self.columns.values()]
        return (dict(zip(self.columns, row)) for row in zip(*values))

    @functools.cached_property
    def cells(self) -> dict:
        """Each column's (CSV cells, canonical_json values)."""
        return {k: _cells(col) for k, col in self.columns.items()}


def write_reports(records, path) -> None:
    """Write a Table or homogeneous records as CSV or JSONL, by the suffix of ``path``; byte-deterministic.

    Columns come in sorted key order.  A JSONL line is canonical_json of its
    row, and a CSV float cell f"{v:.12g}"; a Table formats each of its cells
    once, for all the files written from it.
    """
    path = Path(path)
    if path.suffix not in (".csv", ".jsonl"):
        raise ValueError(f"unknown report format {path.suffix!r} of {path}")
    table = records if isinstance(records, Table) else Table.of(records)
    keys = sorted(table.columns)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if path.suffix == ".csv":
            writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
            writer.writerow(keys)
            writer.writerows(zip(*(table.cells[k][0] for k in keys)))
        else:
            # canonical_json's key order: canonical_value makes every key a str
            order = sorted(keys, key=str)
            line = ",".join(json.dumps(str(k)).replace("%", "%%") + ":%s" for k in order)
            fh.writelines("{" + line % row + "}\n" for row in zip(*(table.cells[k][1] for k in order)))


def write_manifest(config: dict, path) -> None:
    """Write the run manifest of ``config``: toolkit version, seed, config digest, time, modules."""
    manifest = {
        "toolkit_version": __version__,
        "seed": int(config["seed"]),
        "config_digest": config_digest(config),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "module_list": list(MODULES),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(manifest) + "\n")
