"""Smooth dyadic cutoffs, Littlewood-Paley shells and the shell-summed L^p norm.

The cutoff eta is the exact-plateau smooth step

    eta(xi) = psi0(2 - |xi|),  psi0(t) = g(t) / (g(t) + g(1-t)),  g(t) = e^{-1/t} (t>0),

so eta = 1 on [-1,1], supp eta = [-2,2], 0 <= eta <= 1, C-infinity.  The shell
bumps are phi(xi) = eta(xi) - eta(2 xi) and phi_N(xi) = phi(xi/N) for dyadic
N >= 1, giving the telescoping partition eta(2 xi) + sum_N phi_N(xi) = 1 for
xi != 0 (and at xi = 0 the low mask alone is 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .spectral import Field, SpatialGrid, _is_power_of_two, lebesgue_norm

PROFILE_NAME = "smoothstep-exp"

__all__ = [
    "PROFILE_NAME",
    "eta",
    "phi",
    "phi_shell",
    "dyadic_shells",
    "shell_table",
    "shell_l2",
    "LPDecomposition",
    "decompose",
    "tilde_lp_norm",
]


def _g(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    pos = t > 0
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        out[pos] = np.exp(-1.0 / t[pos])
    return out


def eta(xi) -> np.ndarray | float:
    """Smooth even cutoff: 1 on |xi|<=1, 0 on |xi|>=2."""
    scalar = np.isscalar(xi)
    t = 2.0 - np.abs(np.asarray(xi, dtype=np.float64))
    num = _g(t)
    den = num + _g(1.0 - t)
    out = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
    return float(out) if scalar else out


def phi(xi) -> np.ndarray | float:
    """Dyadic bump phi = eta - eta(2 .), supported on 1/2 <= |xi| <= 2."""
    scalar = np.isscalar(xi)
    x = np.asarray(xi, dtype=np.float64)
    out = eta(x) - eta(2.0 * x)
    return float(out) if scalar else out


def phi_shell(xi, shell: int) -> np.ndarray | float:
    """phi_N(xi) = phi(xi/N), supported on N/2 <= |xi| <= 2N."""
    if not _is_power_of_two(shell):
        raise ValueError(f"shell must be a dyadic integer >= 1, got {shell}")
    return phi(np.asarray(xi, dtype=np.float64) / float(shell))


def dyadic_shells(max_freq: float) -> list[int]:
    """Shell indices 1, 2, 4, ..., N_max with N_max the smallest dyadic >= max_freq."""
    shells = [1]
    while shells[-1] < max_freq:
        shells.append(2 * shells[-1])
    return shells


class ShellTable(NamedTuple):
    """Dyadic shells up to a grid's Nyquist line, eta(xi) and phi_N(xi) rows."""

    shells: tuple[int, ...]
    low: np.ndarray
    phi: np.ndarray  # (len(shells), n)


@lru_cache(maxsize=32)
def shell_table(grid: SpatialGrid) -> ShellTable:
    """The grid's shell table, built once (read-only arrays)."""
    shells = tuple(dyadic_shells(grid.max_frequency()))
    low = eta(grid.xi)
    phi = np.array([phi_shell(grid.xi, n) for n in shells])
    low.flags.writeable = phi.flags.writeable = False
    return ShellTable(shells, low, phi)


def shell_l2(grid: SpatialGrid, norm: Callable[[np.ndarray], float]) -> float:
    """(sum_N norm(phi_N)^2)^{1/2} over the rows of the grid's shell table."""
    total = 0.0
    for row in shell_table(grid).phi:
        total += norm(row) ** 2
    return float(np.sqrt(total))


def _tilde_sum(grid: SpatialGrid, norm: Callable[[np.ndarray], float]) -> float:
    """norm(eta) + (sum_N norm(phi_N)^2)^{1/2}: the shell-summed norm, with
    norm taking a spatial frequency mask of the grid."""
    return norm(shell_table(grid).low) + shell_l2(grid, norm)


@dataclass(frozen=True)
class LPDecomposition:
    """Low part plus dyadic shells of a field.

    low carries the eta(2 xi) mask (the exact complement of the shells, so
    low + sum of shells reconstructs the field); note P_lo f = low + shell 1.
    """

    low: Field
    shells: tuple  # of (N, Field) pairs

    def reconstruct(self) -> Field:
        total = self.low.copy_coefficients()
        for _, piece in self.shells:
            total = total + piece.coefficients
        return type(self.low)(self.low.grid, total)

    def shell_masses(self) -> list[tuple[int, float]]:
        """Per-shell L^2 mass, with the low part reported as shell 0."""
        rows = [(0, lebesgue_norm(self.low, 2) ** 2)]
        rows += [(n, lebesgue_norm(piece, 2) ** 2) for n, piece in self.shells]
        return rows


def decompose(f: Field) -> LPDecomposition:
    """Split f into the eta(2 xi) low part and the shells P_N f, N = 1..N_max."""
    table = shell_table(f.grid)
    low = type(f)(f.grid, f.coefficients * eta(2.0 * f.grid.xi))
    pieces = (type(f)(f.grid, f.coefficients * row) for row in table.phi)
    return LPDecomposition(low=low, shells=tuple(zip(table.shells, pieces)))


def tilde_lp_norm(f: Field, p: int) -> float:
    """||P_lo f||_p + (sum_N ||P_N f||_p^2)^{1/2} over dyadic N >= 1."""
    if p not in (2, 4):
        raise ValueError("shell-summed norm supports p in {2, 4}")
    return _tilde_sum(
        f.grid, lambda m: lebesgue_norm(type(f)(f.grid, f.coefficients * m), p)
    )
