"""Deterministic result persistence: CSV / JSON-lines emission and manifests.

Identical record lists produce byte-identical files: keys are sorted, floats
are canonicalized to 12 significant digits, and line endings are fixed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from datetime import datetime, timezone
from pathlib import Path

from . import MODULES, __version__

__all__ = [
    "canonical_value",
    "canonical_json",
    "config_digest",
    "write_manifest",
    "write_reports",
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


def config_digest(config: dict) -> str:
    """Stable hash of a canonicalized config: equal configs, equal digests."""
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def _format_cell(value) -> str:
    value = canonical_value(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if value is None:
        return ""
    return str(value)


def write_reports(records: list, path) -> None:
    """Write homogeneous records as CSV or JSONL, by the suffix of ``path``; byte-deterministic.

    Columns come from the sorted union of the first record's keys; every
    record must carry the same keys.
    """
    path = Path(path)
    if path.suffix not in (".csv", ".jsonl"):
        raise ValueError(f"unknown report format {path.suffix!r} of {path}")
    records = list(records)
    keys = sorted(records[0].keys()) if records else []
    for rec in records:
        if sorted(rec.keys()) != keys:
            raise ValueError("records must be homogeneous per file")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if path.suffix == ".csv":
            writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
            writer.writerow(keys)
            for rec in records:
                writer.writerow([_format_cell(rec[k]) for k in keys])
        else:
            for rec in records:
                fh.write(canonical_json(rec) + "\n")


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
