"""Binary snapshots of real fields.

Layout (little-endian): magic "BOGL", version u32, N u32, lambda f64,
time f64, kind u8 (0: a real field), then N f64 samples.

read_snapshot is the one place that decides what a snapshot is, and
write_snapshot writes only files that it accepts: both check the samples
with the same function.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .spectral import RealField, SpatialGrid, _analyze, make_grid

MAGIC = b"BOGL"
VERSION = 1
KIND_REAL = 0
_HEADER = struct.Struct("<4sIIddB")

__all__ = ["write_snapshot", "read_snapshot", "MAGIC", "VERSION"]


def write_snapshot(path, field: RealField, time: float = 0.0) -> None:
    """Write field and time to path.  Raises, writing nothing, where
    read_snapshot would reject the file."""
    if not isinstance(field, RealField):
        raise TypeError(f"a snapshot holds a RealField, got {type(field).__name__}")
    time = float(time)
    if not np.isfinite(time):
        raise ValueError(f"{path}: non-finite snapshot time {time}")
    samples = np.asarray(field.samples, dtype="<f8")
    _field(path, field.grid, samples)
    header = _HEADER.pack(
        MAGIC, VERSION, field.grid.n, field.grid.period_scale, time, KIND_REAL
    )
    Path(path).write_bytes(header + samples.tobytes())


def read_snapshot(path) -> tuple[RealField, float]:
    """The field and time of a snapshot.  Raises ValueError, naming the path,
    for a file that is not one, or whose time, samples or coefficients are
    not finite."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated snapshot header")
    magic, version, n, lam, time, kind = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    if not np.isfinite(time):
        raise ValueError(f"{path}: non-finite snapshot time {time}")
    if kind != KIND_REAL:
        raise ValueError(f"{path}: unknown field kind {kind} (0: a real field)")
    if len(raw) - _HEADER.size != 8 * n:
        raise ValueError(f"{path}: expected {n} samples in {8 * n} bytes, "
                         f"got {len(raw) - _HEADER.size} bytes")
    try:
        grid = make_grid(n, lam)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return _field(path, grid, np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)), time


def _field(path, grid: SpatialGrid, samples: np.ndarray) -> RealField:
    """The field of samples, or a ValueError naming path when the samples or
    their transform are not finite.  A non-finite sample spreads to every
    coefficient, and finite samples near the float range overflow the
    transform's sums, so one check of the coefficients covers both."""
    with np.errstate(over="ignore", invalid="ignore"):
        coefficients = _analyze(np.asarray(samples, dtype=np.float64))
        # RealField's Hermitian check cannot judge non-finite coefficients,
        # and its symmetrization can overflow near the float range
        if np.all(np.isfinite(coefficients)):
            field = RealField(grid, coefficients)
            if np.all(np.isfinite(field.coefficients)):
                return field
    raise ValueError(f"{path}: non-finite samples or transform")
