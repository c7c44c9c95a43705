"""Probe reports, deterministic CSV/JSON writers and the counter-based RNG.

Every empirical check is recorded as a ProbeReport: one row per sample plus
a summary that is always recomputed from the rows.  Files are written with
repr-roundtrip floats and sorted JSON keys so fixed-seed runs are
byte-identical.

Random streams come from the Philox 4x64 counter-based generator with
key = [seed, crc32(domain) << 32 | index]; the (seed, domain, index)
triple fully determines the stream, independent of execution order.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field as dc_field
from functools import partial
from pathlib import Path

import numpy as np

__all__ = ["stream", "ProbeReport", "write_csv", "write_json", "sha256_file"]


def stream(seed: int, domain: str, index: int = 0) -> np.random.Generator:
    """Independent reproducible generator for (seed, domain, index)."""
    if not (0 <= index < 2**32):
        raise ValueError("stream index must fit in 32 bits")
    sub = (zlib.crc32(domain.encode("utf-8")) << 32) | index
    key = np.array([seed % 2**64, sub % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (np.floating,)):
        return repr(float(value))
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


def write_csv(path: Path, rows: list[dict], columns: list[str] | None = None) -> None:
    path = Path(path)
    if columns is None:
        columns = list(rows[0].keys()) if rows else []
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(c, "")) for c in columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def write_json(path: Path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(_jsonable(payload), sort_keys=True, indent=1) + "\n",
        encoding="utf-8",
    )


def sha256_file(path: Path) -> str:
    # imported here: hashlib's OpenSSL library adds about 3.5 MB of RSS, which
    # would otherwise count in the peak of a run that hashes only at its end
    import hashlib

    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


@dataclass
class ProbeReport:
    """Per-sample ratio rows for one probed inequality plus environment."""

    name: str
    inequality: str
    rows: list = dc_field(default_factory=list)
    skipped: int = 0
    environment: dict = dc_field(default_factory=dict)

    def add(self, **row) -> None:
        self.rows.append(row)

    def skip(self) -> None:
        self.skipped += 1

    @property
    def ratios(self) -> np.ndarray:
        return np.array([r["ratio"] for r in self.rows], dtype=float)

    @property
    def sup(self) -> float:
        r = self.ratios
        return float(np.max(r)) if r.size else float("nan")

    @property
    def mean(self) -> float:
        r = self.ratios
        return float(np.mean(r)) if r.size else float("nan")

    @property
    def stddev(self) -> float:
        r = self.ratios
        return float(np.std(r)) if r.size else float("nan")

    def summary(self) -> dict:
        return {
            "name": self.name,
            "inequality": self.inequality,
            "samples": len(self.rows),
            "skipped": self.skipped,
            "sup": self.sup,
            "mean": self.mean,
            "stddev": self.stddev,
            "environment": self.environment,
        }

    def columns(self) -> list[str]:
        cols: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        return cols

    def files(self) -> dict:
        """The report's outputs: file name -> writer(path), the rows as
        <name>.csv and the summary as <name>.json."""
        return {
            f"{self.name}.csv": partial(write_csv, rows=self.rows,
                                        columns=self.columns()),
            f"{self.name}.json": partial(write_json, payload=self.summary()),
        }
