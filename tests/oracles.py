"""Slow and exact references that the tests check bogl's fast paths against.

None of this is reached by a command; each function is the direct form of
a formula that the library evaluates another way:

  - the exact-integer resonance identity and A/B/C region split
    (FrequencyTuple, resonance_defect, classify, region_scan), against
    bilinear.region_pairing's masked convolutions;
  - the quadruple sum over D (trilinear_I_oracle), against trilinear_I;
  - w = -(i/2) P_+(e^{-iF/2} u) on the padded fine lattice
    (gauge_w_product_form), against gauge.gauge_w;
  - the dealiased u u_x from the samples (nonlinearity), against the
    stepper's conservative (u^2/2)_x;
  - the traveling wave's profile equation (steady_residual), against
    dynamics.traveling_wave.

The tests import it as `from oracles import ...`: tests/ has no
__init__.py, so pytest puts it on sys.path.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from bogl.bilinear import _require_integer_lattice
from bogl.bourgain import SpaceTimeField
from bogl.gauge import _coarse_plus, _embed, exponential_pair
from bogl.lp import dyadic_shells
from bogl.spectral import (
    ComplexField,
    RealField,
    _analyze,
    _band_product,
    derivative,
    hilbert,
)

# ----------------------------------------------------------------------------
# the resonance identity and the region split in exact integer arithmetic
# ----------------------------------------------------------------------------


class RegionTag(Enum):
    A = "A"
    B = "B"
    C = "C"


@dataclass(frozen=True)
class FrequencyTuple:
    """Integer tuple (xi, xi1, tau, tau1) and its modulations."""

    xi: int
    xi1: int
    tau: int
    tau1: int

    @property
    def xi2(self) -> int:
        return self.xi - self.xi1

    @property
    def tau2(self) -> int:
        return self.tau - self.tau1

    @property
    def sigma(self) -> int:
        return self.tau + abs(self.xi) * self.xi

    @property
    def sigma1(self) -> int:
        return self.tau1 + abs(self.xi1) * self.xi1

    @property
    def sigma2(self) -> int:
        return self.tau2 + abs(self.xi2) * self.xi2

    @property
    def in_domain(self) -> bool:
        return self.xi >= 1 and self.xi1 >= 1 and self.xi2 <= 0


def resonance_defect(t: FrequencyTuple) -> int:
    """sigma1 + sigma2 - sigma + 2 xi xi2; exactly zero on D."""
    return t.sigma1 + t.sigma2 - t.sigma + 2 * t.xi * t.xi2


def _in_shell(mag, shell: int):
    """Sharp membership 1 <= mag, N/2 <= mag <= 2N (scalars or arrays)."""
    return (mag >= 1) & (2 * mag >= shell) & (mag <= 2 * shell)


def classify(t: FrequencyTuple, shell: int, shell2: int) -> RegionTag:
    """The tuple's region for the shell pair (N, N2); exact integer
    thresholds (|sigma| >= N N2 / 6 as 6 |sigma| >= N N2)."""
    if not t.in_domain:
        raise ValueError("tuple lies outside the domain D")
    if not _in_shell(abs(t.xi), shell):
        raise ValueError(f"|xi| = {abs(t.xi)} is not in shell {shell}")
    if not _in_shell(abs(t.xi2), shell2):
        raise ValueError(f"|xi2| = {abs(t.xi2)} is not in shell {shell2}")
    threshold = shell * shell2
    if 6 * abs(t.sigma) >= threshold:
        return RegionTag.A
    if 6 * abs(t.sigma1) >= threshold:
        return RegionTag.B
    if 6 * abs(t.sigma2) >= threshold:
        return RegionTag.C
    raise AssertionError("uncovered tuple: contradicts the resonance identity")


def region_scan(k_max: int = 32, tau_half: int = 16) -> dict:
    """Integer scan of the resonance identity and coverage.

    Scans xi, xi1 in [1, k_max] and tau, tau1 in [-tau_half, tau_half),
    restricted to D with |xi2| >= 1; every tuple is classified for every
    admissible shell pair, counting gaps and overlaps (both must be zero).
    """
    xi = np.arange(1, k_max + 1, dtype=np.int64)
    tau = np.arange(-tau_half, tau_half, dtype=np.int64)
    xiv = xi[:, None, None, None]
    tauv = tau[None, :, None, None]
    xi1v = xi[None, None, :, None]
    tau1v = tau[None, None, None, :]
    xi2 = xiv - xi1v
    tau2 = tauv - tau1v
    sigma = tauv + np.abs(xiv) * xiv
    sigma1 = tau1v + np.abs(xi1v) * xi1v
    sigma2 = tau2 + np.abs(xi2) * xi2
    in_d = xi2 <= -1  # xi, xi1 >= 1 by construction; drop the xi2 = 0 line

    defect = sigma1 + sigma2 - sigma + 2 * xiv * xi2
    defect_in_d = defect[np.broadcast_to(in_d, defect.shape)]
    max_defect = int(np.max(np.abs(defect_in_d))) if defect_in_d.size else 0

    gaps = 0
    overlaps = 0
    classified = 0
    pair_count = 0
    for shell in dyadic_shells(k_max):
        m_xi = _in_shell(xi, shell)[:, None, None, None]
        for shell2 in dyadic_shells(k_max):
            m_xi2 = _in_shell(-xi2, shell2)
            member = in_d & m_xi & m_xi2
            if not member.any():
                continue
            pair_count += 1
            thr = shell * shell2
            in_a = 6 * np.abs(sigma) >= thr
            in_b = (6 * np.abs(sigma1) >= thr) & ~in_a
            in_c = (6 * np.abs(sigma2) >= thr) & ~in_a & (6 * np.abs(sigma1) < thr)
            count = (
                in_a.astype(np.int64) + in_b.astype(np.int64) + in_c.astype(np.int64)
            )
            full = np.broadcast_shapes(count.shape, member.shape, defect.shape)
            count = np.broadcast_to(count, full)[np.broadcast_to(member, full)]
            gaps += int(np.sum(count == 0))
            overlaps += int(np.sum(count > 1))
            classified += int(count.size)
    return {
        "tuples_in_domain": int(np.sum(np.broadcast_to(in_d, defect.shape))),
        "max_resonance_defect": max_defect,
        "classified": classified,
        "gaps": gaps,
        "overlaps": overlaps,
        "shell_pairs": pair_count,
    }


# ----------------------------------------------------------------------------
# the trilinear form as a direct sum
# ----------------------------------------------------------------------------


class GridTooLargeError(ValueError):
    pass


def trilinear_I_oracle(
    h: SpaceTimeField, w: SpaceTimeField, u: SpaceTimeField, limit: int = 32
) -> complex:
    """The direct quadruple sum over D, up to the oracle limit."""
    grid = h.grid
    _require_integer_lattice(h, w, u)
    m, n = grid.num_times, grid.spatial.n
    if m > limit or n > limit:
        raise GridTooLargeError(
            f"oracle limited to {limit}x{limit} grids, got {n}x{m}"
        )
    taus = np.arange(-m // 2, m // 2, dtype=np.int64)
    xis = np.arange(-n // 2, n // 2, dtype=np.int64)
    # coefficients reindexed to [tau = -M/2..M/2-1, xi = -N/2..N/2-1]
    hc, wc, uc = (np.fft.fftshift(f.coefficients) for f in (h, w, u))
    t_off, x_off = m // 2, n // 2
    total = 0.0 + 0.0j
    for ki, k in enumerate(xis):
        if k < 1:
            continue
        for k1i, k1 in enumerate(xis):
            if k1 < 1:
                continue
            k2 = k - k1
            if k2 > 0 or k2 < xis[0]:
                continue
            for mi, tau_ in enumerate(taus):
                sigma = tau_ + abs(k) * k
                hval = hc[mi, ki] * k / np.sqrt(1.0 + abs(sigma))
                if hval == 0:
                    continue
                for m1i, tau1 in enumerate(taus):
                    tau2 = tau_ - tau1
                    if tau2 < taus[0] or tau2 > taus[-1]:
                        continue
                    total += (
                        hval
                        * wc[m1i, k1i] / k1
                        * k2 * uc[tau2 + t_off, k2 + x_off]
                    )
    return complex(total)


# ----------------------------------------------------------------------------
# the gauge and the evolution in their textbook forms
# ----------------------------------------------------------------------------


def gauge_w_product_form(u: RealField, oversample: int = 4) -> ComplexField:
    """w computed as -(i/2) P_+(e^{-iF/2} u); equals gauge_w up to aliasing."""
    em = exponential_pair(u, oversample)[1]
    prod = _band_product(em, _embed(u.coefficients, oversample))
    return ComplexField(u.grid, -0.5j * _coarse_plus(prod, u.grid))


def nonlinearity(u: RealField) -> RealField:
    """u * u_x dealiased by the 2/3 rule (the right-hand side of the evolution)."""
    grid = u.grid
    ux = derivative(u)
    coeff = _analyze(np.asarray(u.samples) * np.asarray(ux.samples))
    coeff[np.abs(grid.k) > grid.n // 3] = 0.0
    return RealField(grid, coeff)


def steady_residual(profile: RealField, speed: float) -> float:
    """L2 residual of -c phi + H phi' - phi^2/2 + mean(phi^2)/2 = 0."""
    grid = profile.grid
    hpx = hilbert(derivative(profile))
    sq = profile.samples**2
    a = float(np.mean(sq)) / 2.0
    res = -speed * profile.samples + np.asarray(hpx.samples) - sq / 2.0 + a
    return float(np.sqrt(np.sum(res**2) * grid.dx))
