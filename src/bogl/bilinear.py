"""Bilinear operator, trilinear pairings, resonance identity and region split.

Everything here lives on the unit-scale lattice (integer frequencies) with a
2*pi time window (integer tau), so the modulation algebra

    sigma = tau + |xi| xi,   sigma1 + sigma2 - sigma = -2 xi xi2
    on  D = { xi >= 1, xi1 >= 1, xi2 = xi - xi1 <= 0 }

is carried out in exact integer arithmetic.  For a dyadic shell pair
(N, N2) the domain splits into

    A: |sigma|  >= N N2 / 6
    B: |sigma1| >= N N2 / 6,  |sigma| < N N2 / 6
    C: |sigma|, |sigma1| < N N2 / 6,  |sigma2| >= N N2 / 6

(ties belong upward: >= goes to the earlier region); coverage inside the
shells follows from the resonance identity since 2|xi xi2| >= N N2 / 2.
Each test reads one modulation, so each region part is a trilinear pairing
of masked factors: the sigma mask and phi_N(xi) on h, the sigma1 mask on w,
the sigma2 mask and phi_N2(|xi2|) on u.  region_pairing evaluates these
with one tau-FFT per masked factor and lagged products along xi, without
any (xi, tau, xi1, tau1) array, and checks their sum against the exact
2-D convolution (spectral._band_product) that also evaluates trilinear_I.

The bilinear operator d/dx P_+( dx^{-1} w P_- du/dx ) uses the sharp
positive/negative projections: on the integer lattice the positive
projection equals the xi >= 1 restriction defining D, which is what makes
the duality identity  <sigma-weighted h, B(w,u)> = i * I(h,w,u)  exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial

import numpy as np

from .bourgain import (
    ProbeConfig,
    SpaceTimeField,
    SpaceTimeGrid,
    _bracket,
    _decay_schedule,
    spacetime_lebesgue,
    x_norm,
    z_tilde_norm,
    random_spacetime_field,
)
from .gauge import _gauge_exponential, _truncate
from .lp import dyadic_shells, shell_l2, shell_table
from .reporting import ProbeReport, stream
from .spectral import (
    ComplexField,
    RealField,
    _band_product,
    derivative,
    fractional,
    lebesgue_norm,
    pointwise_product,
    project,
    projection_symbol,
    random_field,
)

__all__ = [
    "FrequencyTuple",
    "RegionTag",
    "classify",
    "resonance_defect",
    "region_scan",
    "GridTooLargeError",
    "bilinear_core",
    "bilinear_B",
    "trilinear_I",
    "trilinear_I_oracle",
    "duality_pair",
    "region_pairing",
    "estimate_probe",
    "default_period_scale",
    "bracket_convolution_check",
    "bracket_convolution_integral",
    "decay_exponent",
]


class RegionTag(Enum):
    A = "A"
    B = "B"
    C = "C"
    OUTSIDE_D = "outside_D"


@dataclass(frozen=True)
class FrequencyTuple:
    """Integer lattice tuple (xi, xi1, tau, tau1) with derived modulations."""

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
    """Region of the tuple for the shell pair (N, N2); exact rational thresholds."""
    if not t.in_domain:
        raise ValueError("tuple lies outside the domain D")
    if not _in_shell(abs(t.xi), shell):
        raise ValueError(f"|xi| = {abs(t.xi)} is not in shell {shell}")
    if not _in_shell(abs(t.xi2), shell2):
        raise ValueError(f"|xi2| = {abs(t.xi2)} is not in shell {shell2}")
    threshold = Fraction(shell * shell2, 6)
    if abs(t.sigma) >= threshold:
        return RegionTag.A
    if abs(t.sigma1) >= threshold:
        return RegionTag.B
    if abs(t.sigma2) >= threshold:
        return RegionTag.C
    raise AssertionError("uncovered tuple: contradicts the resonance identity")


def region_scan(k_max: int = 32, tau_half: int = 16) -> dict:
    """Exhaustive integer scan of the resonance identity and region coverage.

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


class GridTooLargeError(ValueError):
    pass


# ----------------------------------------------------------------------------
# lattice plumbing: centered coefficient tables on the integer lattice
# ----------------------------------------------------------------------------


def _require_integer_lattice(grid: SpaceTimeGrid) -> None:
    if grid.spatial.period_scale != 1.0:
        raise ValueError("the resonance machinery requires the unit-scale lattice")
    if abs(grid.t_span - 2.0 * np.pi) > 1e-12:
        raise ValueError("the resonance machinery requires a 2*pi time window")


def _centered(field: SpaceTimeField) -> np.ndarray:
    """Coefficients reindexed to [tau = -M/2..M/2-1, xi = -N/2..N/2-1]."""
    return np.fft.fftshift(field.coefficients)


def _lattice_values(grid: SpaceTimeGrid) -> tuple[np.ndarray, np.ndarray]:
    m, n = grid.num_times, grid.spatial.n
    return (
        np.arange(-m // 2, m // 2, dtype=np.int64),
        np.arange(-n // 2, n // 2, dtype=np.int64),
    )


# ----------------------------------------------------------------------------
# bilinear operator and trilinear pairings
# ----------------------------------------------------------------------------


def _check_positive_support(w: SpaceTimeField) -> None:
    xi = w.grid.spatial.xi
    bad = np.abs(w.coefficients[:, xi < 1.0 - 1e-12])
    scale = max(float(np.max(np.abs(w.coefficients))), 1e-300)
    if bad.size and float(np.max(bad)) > 1e-12 * max(scale, 1.0):
        raise ValueError("w must be supported on frequencies xi >= 1")


def bilinear_core(w: SpaceTimeField, u: SpaceTimeField) -> SpaceTimeField:
    """P_+( w P_- du/dx ), sharp sign projections (the half-weight/periodic
    form; bilinear_B wraps it in dx^{-1} and d/dx)."""
    _check_positive_support(w)
    grid = w.grid
    if u.grid != grid:
        raise ValueError("fields live on different space-time grids")
    xi = grid.spatial.xi
    wc = w.coefficients.copy()
    wc[:, xi < 1.0 - 1e-12] = 0.0
    uc = u.coefficients * ((xi < 0) * (1j * xi))[None, :]
    prod = _band_product([(wc, uc)])
    prod *= (xi > 0)[None, :]
    return SpaceTimeField(grid, prod)


def bilinear_B(w: SpaceTimeField, u: SpaceTimeField) -> SpaceTimeField:
    """The critical operator d/dx P_+( dx^{-1} w P_- du/dx )."""
    _check_positive_support(w)
    xi = w.grid.spatial.xi
    pos = xi >= 1.0 - 1e-12
    inv = np.zeros_like(w.coefficients)
    inv[:, pos] = w.coefficients[:, pos] / (1j * xi[pos])
    core = bilinear_core(SpaceTimeField(w.grid, inv), u)
    return SpaceTimeField(w.grid, core.coefficients * (1j * xi)[None, :])


def _d_convolution(w: SpaceTimeField, u: SpaceTimeField) -> np.ndarray:
    """Exact convolution of xi1^{-1} w_hat on xi1 >= 1 with xi2 u_hat on
    xi2 <= 0, on the lattice of (xi, tau) = (xi1 + xi2, tau1 + tau2)."""
    grid = w.grid
    xi = grid.spatial.xi
    wc = w.coefficients.copy()
    wc[:, xi < 1.0 - 1e-12] = 0.0
    pos = xi >= 1.0 - 1e-12
    wc[:, pos] = wc[:, pos] / xi[pos]
    uc = u.coefficients * ((xi <= 0) * xi)[None, :]
    return _band_product([(wc, uc)])


def _h_factor(h: SpaceTimeField, form: str) -> np.ndarray:
    """The pairing's weighted h on the lattice, zero for xi < 1: form "I" is
    xi <sigma>^{-1/2} h_hat, form "J" is xi <sigma>^{-1} (sum_N phi_N^2) h_hat."""
    grid = h.grid
    xi = grid.spatial.xi
    pos = xi >= 1.0 - 1e-12
    if form == "I":
        return h.coefficients * (xi * pos)[None, :] / np.sqrt(_bracket(grid.sigma))
    if form == "J":
        shell_sq = sum(shell_table(grid.spatial).phi ** 2)
        return h.coefficients * (xi * pos * shell_sq)[None, :] / _bracket(grid.sigma)
    raise ValueError("form must be 'I' or 'J'")


def trilinear_I(h: SpaceTimeField, w: SpaceTimeField, u: SpaceTimeField) -> complex:
    """I = sum over D of xi <sigma>^{-1/2} h_hat * xi1^{-1} w_hat * xi2 u_hat.

    Fast path: the (xi1, tau1) sum is an exact 2-D convolution; the
    restriction to D comes from the sharp masks (xi >= 1 on h, xi1 >= 1 on
    w, xi2 <= 0 on u along with the explicit xi2 factor).
    """
    _require_integer_lattice(h.grid)
    return complex(np.sum(_h_factor(h, "I") * _d_convolution(w, u)))


def trilinear_I_oracle(
    h: SpaceTimeField, w: SpaceTimeField, u: SpaceTimeField, limit: int = 32
) -> complex:
    """Direct quadruple sum over D; refuses grids beyond the oracle limit."""
    grid = h.grid
    _require_integer_lattice(grid)
    m, n = grid.num_times, grid.spatial.n
    if m > limit or n > limit:
        raise GridTooLargeError(
            f"oracle limited to {limit}x{limit} grids, got {n}x{m}"
        )
    taus, xis = _lattice_values(grid)
    hc, wc, uc = _centered(h), _centered(w), _centered(u)
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


def duality_pair(h: SpaceTimeField, bfield: SpaceTimeField) -> complex:
    """<h, v> with the <sigma>^{-1/2} weight on h: sum sigma-weighted h_hat v_hat."""
    grid = h.grid
    weight = 1.0 / np.sqrt(_bracket(grid.sigma))
    return complex(np.sum(h.coefficients * weight * bfield.coefficients))


# ----------------------------------------------------------------------------
# region-decomposed pairings
# ----------------------------------------------------------------------------


def _tau_padded(rows: np.ndarray) -> np.ndarray:
    """(xi, tau) rows in FFT order, zero-padded to 2M taus so that tau
    convolutions of lattice data do not wrap."""
    m = rows.shape[1]
    out = np.zeros((rows.shape[0], 2 * m), dtype=np.complex128)
    out[:, : m // 2] = rows[:, : m // 2]
    out[:, 2 * m - m // 2 :] = rows[:, m // 2 :]
    return out


def _region_parts(hf: np.ndarray, w: SpaceTimeField, u: SpaceTimeField) -> np.ndarray:
    """A, B, C parts of sum_D hf(xi,tau) xi1^{-1} w_hat(xi1,tau1) xi2 u_hat(xi2,tau2).

    Each region test reads one variable (|sigma| on h, |sigma1| on w,
    |sigma2| on u) and the shell weights phi_N(xi), phi_N2(|xi2|) sit on h
    and u, so every part is a sum of masked trilinear pairings.  One FFT
    along tau (length 2M) turns the tau convolution into a product per
    frequency omega, and xi1 = xi + |xi2| turns the xi sum into lagged
    products: with H = ifft(h part), W = fft(w part), U = fft(u part),

        sum_D = sum_{lag >= 1} sum_omega U(lag, omega)
                sum_xi H(xi, omega) W(xi + lag, omega).

    Pairs are grouped by N2, whose weight selects the lags.
    """
    grid = w.grid
    m, n = grid.num_times, grid.spatial.n
    k = n // 2 - 1
    ks = np.arange(1, k + 1)
    lags = np.arange(k)  # |xi2| = xi1 - xi; lag 0 carries the factor xi2 = 0
    hx = _tau_padded(hf[:, 1 : k + 1].T)
    wx = _tau_padded((w.coefficients[:, 1 : k + 1] / ks).T)
    ux = _tau_padded((u.coefficients[:, -lags % n] * -lags).T)
    tau = np.r_[0:m, -m:0]  # the 2M padded taus in FFT order
    six_sigma = 6 * np.abs(tau + (ks * ks)[:, None])  # |sigma| on h, |sigma1| on w
    six_sigma2 = 6 * np.abs(tau - (lags * lags)[:, None])

    table = shell_table(grid.spatial)
    shells = table.shells
    # phi is even, so the columns at xi = -lag hold phi_N2(|xi2|)
    phi, phi2 = table.phi[:, 1 : k + 1], table.phi[:, -lags % n]
    pairs = [
        (i, j)
        for j, p2 in enumerate(phi2)
        for i, p in enumerate(phi)
        if p.any() and p2.any() and ks[p > 0][0] + lags[p2 > 0][0] <= k
    ]
    thresholds = sorted({shells[i] * shells[j] for i, j in pairs})
    thr = np.array(thresholds)[:, None, None]
    ge, ge2 = six_sigma >= thr, six_sigma2 >= thr
    h_ge, h_lt = np.fft.ifft(hx * ge), np.fft.ifft(hx * ~ge)
    w_ge, w_lt = np.fft.fft(wx * ge), np.fft.fft(wx * ~ge)
    u_ge = np.fft.fft(ux * ge2)
    w_all, u_all = np.fft.fft(wx), np.fft.fft(ux)

    parts = np.zeros(3, dtype=np.complex128)  # A, B, C
    for j in sorted({j for _, j in pairs}):
        i_idx = np.array([i for i, jj in pairs if jj == j])
        t_idx = np.array([thresholds.index(shells[i] * shells[j]) for i in i_idx])
        # A: sum_N phi_N [6|sigma| >= N N2] h against the whole of w and u
        h_a = np.einsum("px,pxl->xl", phi[i_idx], h_ge[t_idx])
        # B: phi_N [6|sigma| < N N2] h, [6|sigma1| >= N N2] w, u;
        # C: the same h, [6|sigma1| < N N2] w, [6|sigma2| >= N N2] u
        h_bc = phi[i_idx][:, :, None] * h_lt[t_idx]
        w_bc = np.stack([w_ge[t_idx], w_lt[t_idx]])
        u_c = u_ge[t_idx]
        for lag in np.flatnonzero(phi2[j]):
            lo, hi = slice(0, k - lag), slice(lag, k)
            b, c = np.einsum("pxl,cpxl->cpl", h_bc[:, lo], w_bc[:, :, hi])
            parts += phi2[j, lag] * np.array([
                np.einsum("xl,xl,l->", h_a[lo], w_all[hi], u_all[lag]),
                np.einsum("pl,l->", b, u_all[lag]),
                np.einsum("pl,pl->", c, u_c[:, lag]),
            ])
    return parts


def region_pairing(
    h: SpaceTimeField,
    w: SpaceTimeField,
    u: SpaceTimeField,
    form: str = "I",
) -> dict:
    """Total pairing over D plus its A/B/C region parts.

    form "I": integrand xi <sigma>^{-1/2} h_hat xi1^{-1} w_hat xi2 u_hat.
    form "J": integrand xi <sigma>^{-1} (sum_N phi_N^2)(xi) g_hat ... with the
    witness family g_N = phi_N g_hat realizing the shell-dual pairing.

    The total is the exact 2-D convolution of trilinear_I under the form's
    h weight; the parts come from masked tau-FFT convolutions summed over
    shell pairs (_region_parts).  The two are independent evaluations, so
    closure_gap = |A + B + C - total| checks one against the other.
    """
    _require_integer_lattice(h.grid)
    hf = _h_factor(h, form)
    total = complex(np.sum(hf * _d_convolution(w, u)))
    part_a, part_b, part_c = (complex(p) for p in _region_parts(hf, w, u))
    return {
        "total": total,
        "A": part_a,
        "B": part_b,
        "C": part_c,
        "closure_gap": abs(part_a + part_b + part_c - total),
    }


# ----------------------------------------------------------------------------
# estimate probes
# ----------------------------------------------------------------------------


def estimate_probe(which: str, cfg: ProbeConfig) -> ProbeReport:
    """Empirical sup-ratio report for one of the bilinear/Leibniz estimates;
    sample i draws from the stream (which, i)."""
    if which not in PROBE_NAMES:
        raise ValueError(f"unknown probe {which!r}; choose from {PROBE_NAMES}")
    win = cfg.window()
    env = {
        "n": cfg.n,
        "num_times": cfg.num_times,
        "t_span": win.t_span,
        "period_scale": cfg.period_scale,
        "samples": cfg.samples,
        "seed": cfg.seed,
        "s": cfg.s,
    }
    return _PROBES[which](which, cfg, win, env)


# pairing form -> (inequality, norm of B(w, u)): B(w, u) is measured in both
# parts of the dual of Y = X^{s,1/2} & Ztilde^{s,0}, one per form
_CRITICAL_FORMS = {
    "I": (
        "|dx P_+(dx^{-1} w P_- dx u)|_{X^{s,-1/2}} <= C |w|_{X^{s,1/2}} "
        "(|u|_{L2} + |u|_{L4} + |u|_{X^{-1,1}})",
        lambda b, s: x_norm(b, s, -0.5),
    ),
    "J": (
        "|dx P_+(dx^{-1} w P_- dx u)|_{Ztilde^{s,-1}} <= C |w|_{X^{s,1/2}} "
        "(|u|_{L2} + |u|_{L4} + |u|_{X^{-1,1}})",
        lambda b, s: z_tilde_norm(b, s, -1.0),
    ),
}


def _probe_bilinear_critical(name, cfg, win, env, form) -> ProbeReport:
    inequality, lhs_norm = _CRITICAL_FORMS[form]
    rep = ProbeReport(name, inequality, environment=env)
    s = cfg.s
    for i in range(cfg.samples):
        rng = stream(cfg.seed, name, i)
        decay = _decay_schedule(i)
        w = random_spacetime_field(win, rng, xi_decay=decay, sigma_decay=1.25,
                                   positive_xi_only=True)
        u = random_spacetime_field(win, rng, xi_decay=decay, sigma_decay=1.25,
                                   real=True)
        h = random_spacetime_field(win, rng, xi_decay=0.5, sigma_decay=0.75)
        rhs = x_norm(w, s, 0.5) * (
            spacetime_lebesgue(u, 2) + spacetime_lebesgue(u, 4) + x_norm(u, -1.0, 1.0)
        )
        if rhs == 0:
            rep.skip()
            continue
        lhs = lhs_norm(bilinear_B(w, u), s)
        parts = region_pairing(h, w, u, form=form)
        denom = max(abs(parts["total"]), 1e-300)
        row = dict(
            sample=i,
            lhs=lhs,
            rhs=rhs,
            ratio=lhs / rhs,
            region_A=abs(parts["A"]),
            region_B=abs(parts["B"]),
            region_C=abs(parts["C"]),
            pairing_total=abs(parts["total"]),
            closure_rel=parts["closure_gap"] / denom,
        )
        if form == "J":
            row["g_dual_norm"] = _g_dual_norm(h)
        rep.add(**row)
    return rep


def _g_dual_norm(g: SpaceTimeField) -> float:
    """Discrete shell-dual norm of g: each shell in L^2_xi of the max over tau."""
    length = g.grid.spatial.length
    return shell_l2(g.grid.spatial, lambda mask: np.sqrt(
        float(np.sum(np.max(np.abs(g.coefficients * mask), axis=0) ** 2)) * length
    ))


def _probe_bilinear_weighted(name, cfg, win, env, periodic) -> ProbeReport:
    """The W-weighted estimate: at the s > 1/4 weighting of arXiv 1007.1545
    (half weight) or at the periodic one of Molinet."""
    # w_sb, u_sb, out_sb: the (s, b) of the norms of W, of the X term of u
    # and of the output
    if periodic:
        s = max(cfg.s, 0.25)
        inequality = (
            "|P_+(W P_- dx u)|_{X^{s+1/2,-1/2}} <= C |W|_{X^{s+1/2,1/2}} "
            "(|J^s u|_{L2} + |J^s u|_{L4} + |u|_{X^{s-1,1}})"
        )
        environment = {**env, "s_effective": s}
        w_sb, u_sb, out_sb = (s + 0.5, 0.5), (s - 1.0, 1.0), (s + 0.5, -0.5)
    else:
        s = cfg.s if cfg.s > 0 else 0.25
        delta = s / 20.0
        theta = 0.5 + delta
        inequality = (
            "|P_+(W P_- dx u)|_{X^{1/2,-1/2+2d}} <= C |W|_{X^{1/2,1/2+d}} "
            "(|J^s u|_{L2} + |J^s u|_{L4} + |u|_{X^{s-th,th}})"
        )
        environment = {**env, "s_effective": s, "delta": delta, "theta": theta}
        w_sb, u_sb, out_sb = (
            (0.5, 0.5 + delta), (s - theta, theta), (0.5, -0.5 + 2 * delta)
        )
    rep = ProbeReport(name, inequality, environment=environment)
    bessel = (1.0 + win.spatial.xi**2) ** (s / 2.0)
    for i in range(cfg.samples):
        rng = stream(cfg.seed, name, i)
        decay = _decay_schedule(i)
        bigw = random_spacetime_field(win, rng, xi_decay=decay + 0.5,
                                      sigma_decay=1.25, positive_xi_only=True)
        u = random_spacetime_field(win, rng, xi_decay=decay, sigma_decay=1.25,
                                   real=True)
        js = SpaceTimeField(win, u.coefficients * bessel[None, :])
        rhs = x_norm(bigw, *w_sb) * (
            spacetime_lebesgue(js, 2) + spacetime_lebesgue(js, 4) + x_norm(u, *u_sb)
        )
        if rhs == 0:
            rep.skip()
            continue
        op = bilinear_core(bigw, u)
        lhs = x_norm(op, *out_sb)
        rep.add(sample=i, lhs=lhs, rhs=rhs, ratio=lhs / rhs)
    return rep


def _probe_exp_lowband(name, cfg, win, env) -> ProbeReport:
    rep = ProbeReport(
        name,
        "|dx P_+(P_lo e^{-iF/2} P_- dx u)|_{Ztilde^{s,-1} & X^{s,-1/2}} <= C |u|_{L4}^2",
        environment=env,
    )
    s = cfg.s
    grid = win.spatial
    xi = grid.xi
    s_lo = projection_symbol("lo", xi)
    s_minus_dx = projection_symbol("minus", xi) * (1j * xi)
    s_outer = projection_symbol("plus", xi) * (1j * xi)
    for i in range(cfg.samples):
        rng = stream(cfg.seed, name, i)
        decay = max(_decay_schedule(i), 1.0)
        u = random_spacetime_field(win, rng, xi_decay=decay, sigma_decay=1.5,
                                   real=True, zero_mean_x=True)
        l4 = spacetime_lebesgue(u, 4)
        if l4 == 0:
            rep.skip()
            continue
        samples = u.samples.real
        out = np.zeros((win.num_times, grid.n), dtype=np.complex128)
        for mth in range(win.num_times):
            slice_u = RealField.from_samples(grid, samples[mth])
            em = _gauge_exponential(slice_u, 4)
            e_lo = _truncate(em, grid) * s_lo
            ux_m = slice_u.coefficients * s_minus_dx
            prod = pointwise_product(ComplexField(grid, e_lo), ComplexField(grid, ux_m))
            out[mth] = prod.coefficients * s_outer
        op = SpaceTimeField.from_raw_samples(
            win, np.fft.ifft(out, axis=1) * grid.n
        )
        lhs = z_tilde_norm(op, s, -1.0) + x_norm(op, s, -0.5)
        rep.add(sample=i, lhs=lhs, rhs=l4**2, ratio=lhs / l4**2)
    return rep


def _probe_leibniz(name, cfg, win, env) -> ProbeReport:
    rep = ProbeReport(
        name,
        "|D^{1/2} P_+(f P_- dx g)|_{L2} <= C |D^{3/4} f|_{L4} |D^{3/4} g|_{L4}",
        environment=env,
    )
    grid = win.spatial
    for i in range(cfg.samples):
        rng = stream(cfg.seed, name, i)
        decay = _decay_schedule(i)
        f = random_field(grid, rng, decay=decay, amplitude=1.0)
        g = random_field(grid, rng, decay=decay, amplitude=1.0)
        inner = pointwise_product(f, project(derivative(g), "minus"))
        lhs = lebesgue_norm(fractional(project(inner, "plus"), "riesz", 0.5), 2)
        rhs = lebesgue_norm(fractional(f, "riesz", 0.75), 4) * lebesgue_norm(
            fractional(g, "riesz", 0.75), 4
        )
        if rhs == 0:
            rep.skip()
            continue
        rep.add(sample=i, lhs=lhs, rhs=rhs, ratio=lhs / rhs)
    return rep


_PROBES = {
    "bilinear_critical_x": partial(_probe_bilinear_critical, form="I"),
    "bilinear_critical_shell": partial(_probe_bilinear_critical, form="J"),
    "exp_lowband": _probe_exp_lowband,
    "leibniz_split": _probe_leibniz,
    "bilinear_half_weight": partial(_probe_bilinear_weighted, periodic=False),
    "bilinear_periodic": partial(_probe_bilinear_weighted, periodic=True),
}
PROBE_NAMES = tuple(_PROBES)


def default_period_scale(which: str, requested: float = 0.0) -> float:
    """The period scale of a probe run: `requested` when positive, else the
    probe's default."""
    if requested > 0:
        return requested
    # the low-frequency operator of exp_lowband vanishes identically on the
    # unit lattice (its content sits at fractional frequencies), so that
    # probe defaults to period scale 2
    return 2.0 if which == "exp_lowband" else 1.0


# ----------------------------------------------------------------------------
# the bracket-weight convolution bound
# ----------------------------------------------------------------------------


def _tanh_sinh_rule(h: float, t_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the tanh-sinh rule on [0, 1]: x = (1 + tanh u)/2,
    u = (pi/2) sinh t, t = k h for |t| <= t_max (rounded up to a whole step).

    x and 1 - x are formed as 1/(1 + e^{-+2u}), so neither cancels near its
    endpoint; nodes where x, 1 - x or the weight underflow to 0 are dropped.
    """
    k = np.ceil(t_max / h)
    t = np.arange(-k, k + 1) * h
    u = 0.5 * np.pi * np.sinh(t)
    x = 1.0 / (1.0 + np.exp(-2.0 * u))
    x_comp = 1.0 / (1.0 + np.exp(2.0 * u))
    w = 0.25 * np.pi * h * np.cosh(t) / np.cosh(u) ** 2
    keep = (x > 0) & (x_comp > 0) & (w > 0)
    return x[keep], w[keep]


# 411 nodes; built once, the bracket integrals below are plain dot products
_TS_NODES, _TS_WEIGHTS = _tanh_sinh_rule(1.0 / 64, 3.2)


def bracket_convolution_integral(a_minus: float, a_plus: float, mu: float) -> float:
    """int <y>^{-2a-} <y-mu>^{-2a+} dy with <v> = 1 + |v| (tanh-sinh rule).

    With p = 2a-, q = 2a+ and c = p + q - 1 > 0 the integral (even in mu) is

        tail(p, q) + tail(q, p) + half(p, q) + half(q, p),
        tail(a, b) = int_0^inf (1+t)^{-a} (1+mu+t)^{-b} dt,
        half(a, b) = int_0^{mu/2} (1+y)^{-a} (1+mu-y)^{-b} dy,

    the tails from y < 0 and y > mu, the halves from [0, mu] split at mu/2.
    Each piece is mapped to [0, 1] so that its integrand is smooth there.
    A tail is split at t = mu: t = (1+mu)^x - 1 below, and above
    x = ((1+mu)/(1+t))^c, which turns the integrand into
    (1+mu)^{-c}/c (1 + mu/(1+mu) x^{1/c})^{-b}.  A half takes
    y = (1+mu/2)^x - 1.  The sum agrees with exact and 40-digit values to
    about 1e-15 relative, for mu up to 1e12.
    """
    if not (0 < a_minus <= a_plus):
        raise ValueError("need 0 < a_minus <= a_plus")
    if a_minus + a_plus <= 0.5:
        raise ValueError("need a_minus + a_plus > 1/2")
    mu = abs(mu)
    p, q = 2.0 * a_minus, 2.0 * a_plus
    c = p + q - 1.0
    x, w = _TS_NODES, _TS_WEIGHTS
    lg, lg_half = np.log1p(mu), np.log1p(mu / 2.0)
    y, y_half = np.expm1(lg * x), np.expm1(lg_half * x)
    far = 1.0 + mu / (1.0 + mu) * x ** (1.0 / c)

    def tail(a: float, b: float) -> float:
        near = lg * (w @ ((1.0 + y) ** (1.0 - a) * (1.0 + mu + y) ** (-b)))
        return near + (1.0 + mu) ** (-c) / c * (w @ far ** (-b))

    def half(a: float, b: float) -> float:
        return lg_half * (w @ ((1.0 + y_half) ** (1.0 - a) * (1.0 + mu - y_half) ** (-b)))

    return float(tail(p, q) + tail(q, p) + half(p, q) + half(q, p))


def decay_exponent(a_minus: float, a_plus: float, eps: float = 0.01) -> float:
    """Decay rate of the convolution bound: 2a- for a+ > 1/2, 2a- - eps at
    the borderline a+ = 1/2, and 2(a- + a+) - 1 for a+ < 1/2."""
    if a_plus > 0.5:
        return 2 * a_minus
    if a_plus == 0.5:
        return 2 * a_minus - eps
    return 2 * (a_minus + a_plus) - 1


def bracket_convolution_check(
    a_minus: float,
    a_plus: float,
    mu_values,
    eps: float = 0.01,
) -> ProbeReport:
    """Weighted-integral sweep: rows carry integral * <mu>^s, s per the case split."""
    s = decay_exponent(a_minus, a_plus, eps)
    rep = ProbeReport(
        "bracket_convolution",
        "int <y>^{-2a-} <y-mu>^{-2a+} dy <= C <mu>^{-s}",
        environment={"a_minus": a_minus, "a_plus": a_plus, "s": s, "eps": eps},
    )
    for mu in mu_values:
        val = bracket_convolution_integral(a_minus, a_plus, float(mu))
        weighted = val * (1.0 + abs(float(mu))) ** s
        rep.add(mu=float(mu), integral=val, ratio=weighted)
    return rep
