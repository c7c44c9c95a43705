"""Binary field snapshots.

Layout (little-endian): magic "BOGL", version u32, N u32, lambda f64,
time f64, kind u8 (0 real, 1 complex), then N f64 samples (2N interleaved
re/im for complex fields).
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .spectral import ComplexField, Field, RealField, SpatialGrid, make_grid

MAGIC = b"BOGL"
VERSION = 1
KIND_REAL = 0
KIND_COMPLEX = 1
_HEADER = struct.Struct("<4sIIddB")

__all__ = ["write_snapshot", "read_snapshot", "read_samples", "MAGIC", "VERSION"]


def write_snapshot(path, field: Field, time: float = 0.0) -> None:
    path = Path(path)
    kind = KIND_REAL if isinstance(field, RealField) else KIND_COMPLEX
    header = _HEADER.pack(
        MAGIC, VERSION, field.grid.n, field.grid.period_scale, float(time), kind
    )
    if kind == KIND_REAL:
        payload = np.asarray(field.samples, dtype="<f8").tobytes()
    else:
        s = np.asarray(field.samples, dtype=np.complex128)
        inter = np.empty(2 * field.grid.n, dtype="<f8")
        inter[0::2] = s.real
        inter[1::2] = s.imag
        payload = inter.tobytes()
    path.write_bytes(header + payload)


def read_samples(path) -> tuple[SpatialGrid, np.ndarray, float]:
    """The grid, samples and time of a snapshot, untransformed: float64
    samples for a real field, complex128 for a complex one."""
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
    if (len(raw) - _HEADER.size) % 8:
        raise ValueError(f"{path}: truncated snapshot body")
    body = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    grid = make_grid(n, lam)
    if kind == KIND_REAL:
        if body.size != n:
            raise ValueError(f"{path}: expected {n} samples, got {body.size}")
        return grid, np.asarray(body, dtype=np.float64), time
    if kind == KIND_COMPLEX:
        if body.size != 2 * n:
            raise ValueError(f"{path}: expected {2*n} floats, got {body.size}")
        return grid, body[0::2] + 1j * body[1::2], time
    raise ValueError(f"{path}: unknown field kind {kind}")


def read_snapshot(path) -> tuple[Field, float]:
    grid, samples, time = read_samples(path)
    cls = ComplexField if np.iscomplexobj(samples) else RealField
    return cls.from_samples(grid, samples), time
