"""Bilinear operator, trilinear pairings, resonance identity and region split.

Everything here lives on the unit-scale lattice (integer frequencies) with a
2*pi time window (integer tau), so the modulation algebra

    sigma = tau + |xi| xi,   sigma1 + sigma2 - sigma = -2 xi xi2
    on  D = { xi >= 1, xi1 >= 1, xi2 = xi - xi1 <= 0 }

holds exactly (the tests check it, and the split below, tuple by tuple in
integer arithmetic).  For a dyadic shell pair
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
The tau transforms have 3M/2 points, the 3/2 rule of spectral's products:
tau1 + tau2 lies in [-M, M-2] and the taus of h in [-M/2, M/2-1], so no
alias tau1 + tau2 +- 3M/2 reaches h.  Each lag is one contraction over xi
of the stacked A, B and C rows, and the masks, shell pairs and lags that
depend on the grid alone are built once per grid (_region_plan).

The bilinear operator d/dx P_+( dx^{-1} w P_- du/dx ) uses the sharp
positive/negative projections: on the integer lattice the positive
projection equals the xi >= 1 restriction defining D, which is what makes
the duality identity  <sigma-weighted h, B(w,u)> = i * I(h,w,u)  exact.

Docstrings that say "tau-lattice code" read the (tau, xi) layout of the
coefficients directly; all else reaches time through SpaceTimeGrid.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .bourgain import (
    ProbeConfig,
    SpaceTimeField,
    SpaceTimeGrid,
    _bracket,
    _environment,
    _l2_and_l4,
    _ratio_row,
    _sample_loop,
    spacetime_lebesgue,
    x_norm,
    z_tilde_norm,
    random_spacetime_field,
)
from .gauge import _exponential, _truncate
from .lp import shell_l2, shell_table
from .reporting import ProbeReport
from .spectral import (
    ComplexField,
    _band_product,
    _complex_coefficients,
    _real_coefficients,
    _reband,
    fractional,
    lebesgue_norm,
    projection_symbol,
    random_field,
)

__all__ = [
    "bilinear_core",
    "bilinear_B",
    "trilinear_I",
    "duality_pair",
    "region_pairing",
    "estimate_probe",
    "default_period_scale",
    "bracket_convolution_check",
    "bracket_convolution_integral",
    "decay_exponent",
]


# ----------------------------------------------------------------------------
# lattice plumbing: centered coefficient tables on the integer lattice
# ----------------------------------------------------------------------------


def _one_grid(*fields: SpaceTimeField) -> SpaceTimeGrid:
    """The space-time grid that all the fields live on; ValueError if they differ."""
    grid = fields[0].grid
    if any(f.grid != grid for f in fields[1:]):
        raise ValueError("fields live on different space-time grids")
    return grid


def _require_integer_lattice(*fields: SpaceTimeField) -> None:
    """tau-lattice code: require fields on one grid, the integer (tau, xi)
    lattice of the 2 pi slab."""
    grid = _one_grid(*fields)
    if grid.spatial.period_scale != 1.0:
        raise ValueError("the resonance machinery requires the unit-scale lattice")
    if abs(grid.t_span - 2.0 * np.pi) > 1e-12:
        raise ValueError("the resonance machinery requires a 2*pi time window")


# ----------------------------------------------------------------------------
# bilinear operator and trilinear pairings
# ----------------------------------------------------------------------------


def _positive_part(w: SpaceTimeField, u: SpaceTimeField) -> np.ndarray:
    """w's coefficients, zero off xi >= 1: the w slot of every critical
    product.  ValueError if w has content at xi < 1 or u lives on another grid."""
    pos = w.grid.spatial.xi >= 1.0 - 1e-12
    bad = np.abs(w.coefficients[:, ~pos])
    scale = max(float(np.max(np.abs(w.coefficients))), 1.0)
    if bad.size and float(np.max(bad)) > 1e-12 * scale:
        raise ValueError("w must be supported on frequencies xi >= 1")
    _one_grid(w, u)
    return np.where(pos, w.coefficients, 0)


def _minus_dx_product(a: np.ndarray, u: np.ndarray, xi: np.ndarray,
                      axes=None) -> np.ndarray:
    """a P_-(du/dx), exact on the band along axes (as _band_product), for
    coefficient arrays a, u whose last axis has the frequencies xi: the one
    product of every probe of dx P_+(W P_- dx u).  Callers apply P_+."""
    return _band_product(a, u * ((xi < 0) * (1j * xi)), axes)


def bilinear_core(w: SpaceTimeField, u: SpaceTimeField) -> SpaceTimeField:
    """P_+( w P_- du/dx ), sharp sign projections (the half-weight/periodic
    form); tau-lattice code, as _minus_dx_product convolves the (tau, xi)
    tables."""
    xi = w.grid.spatial.xi
    prod = _minus_dx_product(_positive_part(w, u), u.coefficients, xi)
    prod *= (xi > 0)[None, :]
    return SpaceTimeField(w.grid, prod)


def bilinear_B(w: SpaceTimeField, u: SpaceTimeField) -> SpaceTimeField:
    """The critical operator d/dx P_+( dx^{-1} w P_- du/dx ): d/dx P_+ of the
    convolution that the critical probes and the pairings share."""
    return _dx_plus(w.grid, _d_convolution(w, u))


def _d_convolution(w: SpaceTimeField, u: SpaceTimeField) -> np.ndarray:
    """Exact convolution of xi1^{-1} w_hat on xi1 >= 1 with xi2 u_hat on
    xi2 <= 0, on the lattice of (xi, tau) = (xi1 + xi2, tau1 + tau2): tau-lattice
    code, as _minus_dx_product convolves the (tau, xi) tables."""
    xi = w.grid.spatial.xi
    wc = _positive_part(w, u)
    pos = xi >= 1.0 - 1e-12
    wc[:, pos] /= xi[pos]
    # xi1^{-1} w times i xi2 u is i times the convolution; -1j takes the i
    # out exactly
    return -1j * _minus_dx_product(wc, u.coefficients, xi)


def _dx_plus(grid: SpaceTimeGrid, coeff: np.ndarray) -> SpaceTimeField:
    """d/dx P_+ of the (tau, xi) table coeff."""
    xi = grid.spatial.xi
    return SpaceTimeField(grid, coeff * ((xi > 0) * (1j * xi))[None, :])


@lru_cache(maxsize=32)
def _h_weights(grid: SpaceTimeGrid, form: str) -> tuple[np.ndarray, np.ndarray]:
    """The xi row and the sigma divisor of _h_factor's form, built once
    (read-only)."""
    xi = grid.spatial.xi
    pos = xi >= 1.0 - 1e-12
    if form == "I":
        row, div = xi * pos, np.sqrt(_bracket(grid.sigma))
    elif form == "J":
        shell_sq = sum(shell_table(grid.spatial).phi ** 2)
        row, div = xi * pos * shell_sq, _bracket(grid.sigma)
    else:
        raise ValueError("form must be 'I' or 'J'")
    row.flags.writeable = div.flags.writeable = False
    return row, div


def _h_factor(h: SpaceTimeField, form: str) -> np.ndarray:
    """The pairing's weighted h on the lattice, zero for xi < 1: form "I" is
    xi <sigma>^{-1/2} h_hat, form "J" is xi <sigma>^{-1} (sum_N phi_N^2) h_hat."""
    row, div = _h_weights(h.grid, form)
    return h.coefficients * row[None, :] / div


def trilinear_I(h: SpaceTimeField, w: SpaceTimeField, u: SpaceTimeField) -> complex:
    """I = sum over D of xi <sigma>^{-1/2} h_hat * xi1^{-1} w_hat * xi2 u_hat.

    Fast path: the (xi1, tau1) sum is an exact 2-D convolution; the
    restriction to D comes from the sharp masks (xi >= 1 on h, xi1 >= 1 on
    w, xi2 <= 0 on u along with the explicit xi2 factor).
    """
    _require_integer_lattice(h, w, u)
    return complex(np.sum(_h_factor(h, "I") * _d_convolution(w, u)))


def duality_pair(h: SpaceTimeField, bfield: SpaceTimeField) -> complex:
    """<h, v> with the <sigma>^{-1/2} weight on h: sum sigma-weighted h_hat v_hat."""
    weight = 1.0 / np.sqrt(_bracket(_one_grid(h, bfield).sigma))
    return complex(np.sum(h.coefficients * weight * bfield.coefficients))


# ----------------------------------------------------------------------------
# region-decomposed pairings
# ----------------------------------------------------------------------------


class _ShellPlan(NamedTuple):
    """The pairs (N, N2) of one N2 shell: the rows of the N shells, their
    threshold rows, the lags that phi_N2 reaches and phi_N2 there."""

    phi: np.ndarray  # (P, k): phi_N(xi), xi = 1..k, of the shells paired with N2
    rows: slice  # the P thresholds N N2, consecutive rows of the masks
    lags: np.ndarray  # (a,): the |xi2| with phi_N2(|xi2|) > 0
    phi2: np.ndarray  # (a,): phi_N2 at those lags


class _RegionPlan(NamedTuple):
    """Everything _region_parts needs that depends on the grid alone."""

    length: int  # padded tau length, 3M/2
    ks: np.ndarray  # xi = 1..k
    lags: np.ndarray  # |xi2| = 0..k-1
    ge: np.ndarray  # (T, k, length): 6|sigma| >= N N2 at each threshold
    lt: np.ndarray  # its complement
    ge2: np.ndarray  # (T, k, length): 6|sigma2| >= N N2, rows indexed by lag
    by_shell: tuple[_ShellPlan, ...]


@lru_cache(maxsize=32)
def _region_plan(grid: SpaceTimeGrid) -> _RegionPlan:
    """tau-lattice code: the grid's region plan, built once (read-only arrays)."""
    n = grid.spatial.n
    k = n // 2 - 1
    length = 3 * grid.num_times // 2
    ks = np.arange(1, k + 1)
    lags = np.arange(k)  # |xi2| = xi1 - xi; lag 0 carries the factor xi2 = 0
    # 6|sigma| at xi = 1..k (|sigma| on h, |sigma1| on w) and at xi = -lag
    # (|sigma2| on u), as (xi, tau) rows zero-padded to `length` taus: the
    # padded taus meet only the zero padding of the rows they mask
    six_sigma, six_sigma2 = (
        6 * np.abs(_reband(grid.sigma[:, cols].T, (k, length)).real)
        for cols in (ks, -lags % n)
    )

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
    by_shell = []
    for j in sorted({j for _, j in pairs}):
        i_idx = [i for i, jj in pairs if jj == j]
        t_idx = [thresholds.index(shells[i] * shells[j]) for i in i_idx]
        rows = slice(t_idx[0], t_idx[-1] + 1)
        assert t_idx == list(range(rows.start, rows.stop)), "thresholds not consecutive"
        on = np.flatnonzero(phi2[j])
        by_shell.append(_ShellPlan(phi[i_idx], rows, on, phi2[j, on]))
    plan = _RegionPlan(length, ks, lags, ge, ~ge, ge2, tuple(by_shell))
    arrays = (a for s in by_shell for a in (s.phi, s.lags, s.phi2))
    for arr in (ks, lags, ge, plan.lt, ge2, *arrays):
        arr.flags.writeable = False
    return plan


@lru_cache(maxsize=4)
def _region_work(grid: SpaceTimeGrid) -> list[np.ndarray]:
    """tau-lattice code: _region_parts's per-call arrays, for the widest N2 shell."""
    plan = _region_plan(grid)
    (t, k, length), rows = plan.ge.shape, 2 * max(len(s.phi) for s in plan.by_shell) + 1
    shapes = [(t, k, length)] * 5 + [(k, length)] + [(rows, k, length)] * 2
    return [np.empty(shape, np.complex128) for shape in shapes + [k * rows * length]]


def _region_parts(hf: np.ndarray, w: SpaceTimeField, u: SpaceTimeField) -> np.ndarray:
    """A, B, C parts of sum_D hf(xi,tau) xi1^{-1} w_hat(xi1,tau1) xi2 u_hat(xi2,tau2);
    tau-lattice code.

    Each region test reads one variable (|sigma| on h, |sigma1| on w,
    |sigma2| on u) and the shell weights phi_N(xi), phi_N2(|xi2|) sit on h
    and u, so every part is a sum of masked trilinear pairings.  One FFT
    along tau turns the tau convolution into a product per frequency omega,
    and xi1 = xi + |xi2| turns the xi sum into lagged products: with
    H = ifft(h part), W = fft(w part), U = fft(u part),

        sum_D = sum_{lag >= 1} sum_omega U(lag, omega)
                sum_xi H(xi, omega) W(xi + lag, omega).

    The transforms have L = 3M/2 points: tau1 + tau2 lies in [-M, M-2] and
    the taus of h in [-M/2, M/2-1], so an alias tau1 + tau2 +- L misses every
    tau of h exactly when L >= 3M/2.  Pairs are grouped by N2, whose weight
    selects the lags; the rows A (the phi_N-summed [6|sigma| >= N N2] h
    against all of w), B (each [6|sigma| < N N2] h against
    [6|sigma1| >= N N2] w) and C (the same h against [6|sigma1| < N N2] w)
    are stacked, so each lag is one contraction over xi, and each N2 shell
    three contractions with phi_N2(lag) and u (all of u for A and B,
    [6|sigma2| >= N N2] u for C).  The grid-only masks and indices come
    from _region_plan (its masks read grid.sigma, and each N2 shell's
    thresholds are one slice of mask rows); the tables live in the grid's one
    workspace (_region_work), not fresh per call, so _region_parts is
    non-reentrant.
    """
    plan = _region_plan(w.grid)
    h_ge, h_lt, w_ge, w_lt, u_ge, u_all, h_stack, w_stack, flat = _region_work(w.grid)
    n, k, length = w.grid.spatial.n, len(plan.ks), plan.length
    # (xi, tau) rows in FFT order, zero-padded to `length` taus
    hx = _reband(hf[:, 1 : k + 1].T, (k, length))
    wx = _reband((w.coefficients[:, 1 : k + 1] / plan.ks).T, (k, length))
    ux = _reband((u.coefficients[:, -plan.lags % n] * -plan.lags).T, (k, length))
    for x, mask, out in ((hx, plan.ge, h_ge), (hx, plan.lt, h_lt), (wx, plan.ge, w_ge),
                         (wx, plan.lt, w_lt), (ux, plan.ge2, u_ge)):
        for row, row_mask in zip(out, mask):  # at once, the cast buffers 0.2 MB
            np.multiply(x, row_mask, out=row)
        (np.fft.ifft if x is hx else np.fft.fft)(out, out=out)  # H; W and U
    w_all, u_all = np.fft.fft(wx, out=w_stack[0]), np.fft.fft(ux, out=u_all)

    parts = np.zeros(3, dtype=np.complex128)  # A, B, C
    for shell in plan.by_shell:
        p, rows, lags = len(shell.phi), shell.rows, shell.lags
        h_rows, w_rows = h_stack[: 2 * p + 1], w_stack[: 2 * p + 1]  # w_rows[0]: w_all
        b, c = slice(1, p + 1), slice(p + 1, None)
        np.einsum("px,pxl->xl", shell.phi, h_ge[rows], out=h_rows[0])
        np.multiply(h_lt[rows], shell.phi[:, :, None], out=h_rows[b])
        h_rows[c] = h_rows[b]
        w_rows[b], w_rows[c] = w_ge[rows], w_lt[rows]
        corr = flat[: len(lags) * (2 * p + 1) * length].reshape(-1, 2 * p + 1, length)
        for a, lag in enumerate(lags):
            np.einsum("qxl,qxl->ql", h_rows[:, : k - lag], w_rows[:, lag:], out=corr[a])
        parts += (
            np.einsum("a,al,al->", shell.phi2, corr[:, 0], u_all[lags]),
            np.einsum("a,apl,al->", shell.phi2, corr[:, 1 : p + 1], u_all[lags]),
            np.einsum("a,apl,pal->", shell.phi2, corr[:, p + 1 :],
                      u_ge[rows, lags]),
        )
    return parts


def region_pairing(
    h: SpaceTimeField,
    w: SpaceTimeField,
    u: SpaceTimeField,
    form: str = "I",
    convolution: np.ndarray | None = None,
) -> dict:
    """Total pairing over D plus its A/B/C region parts.

    form "I": integrand xi <sigma>^{-1/2} h_hat xi1^{-1} w_hat xi2 u_hat.
    form "J": integrand xi <sigma>^{-1} (sum_N phi_N^2)(xi) g_hat ... with the
    witness family g_N = phi_N g_hat realizing the shell-dual pairing.

    The total is the exact 2-D convolution of trilinear_I under the form's
    h weight; the parts come from masked tau-FFT convolutions summed over
    shell pairs (_region_parts).  The two are independent evaluations, so
    closure_gap = |A + B + C - total| checks one against the other.
    convolution, if given, is _d_convolution(w, u), formed by the caller.
    """
    _require_integer_lattice(h, w, u)
    hf = _h_factor(h, form)
    if convolution is None:
        convolution = _d_convolution(w, u)
    total = complex(np.sum(hf * convolution))
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
    sample i draws from the stream (which, i).  Each family builds its report
    and its per-draw function, which bourgain._sample_loop runs."""
    if which not in PROBE_NAMES:
        raise ValueError(f"unknown probe {which!r}; choose from {PROBE_NAMES}")
    win = cfg.window()
    rep, sample = _PROBES[which](which, cfg, win)
    _sample_loop(cfg, which, sample)
    return rep


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


def _probe_bilinear_critical(name, cfg, win, form):
    inequality, lhs_norm = _CRITICAL_FORMS[form]
    rep = ProbeReport(name, inequality, environment=_environment(cfg, win))
    s = cfg.s

    def sample(rng, decay):
        w = random_spacetime_field(win, rng, xi_decay=decay, sigma_decay=1.25,
                                   positive_xi_only=True)
        u = random_spacetime_field(win, rng, xi_decay=decay, sigma_decay=1.25,
                                   real=True)
        h = random_spacetime_field(win, rng, xi_decay=0.5, sigma_decay=0.75)
        rhs = x_norm(w, s, 0.5) * (sum(_l2_and_l4(u)) + x_norm(u, -1.0, 1.0))
        if rhs == 0:
            return [(rep, None)]
        # one band product for B(w, u) and the pairing's total
        d = _d_convolution(w, u)
        row = _ratio_row(lhs_norm(_dx_plus(win, d), s), rhs)
        parts = region_pairing(h, w, u, form=form, convolution=d)
        denom = max(abs(parts["total"]), 1e-300)
        row.update(
            region_A=abs(parts["A"]),
            region_B=abs(parts["B"]),
            region_C=abs(parts["C"]),
            pairing_total=abs(parts["total"]),
            closure_rel=parts["closure_gap"] / denom,
        )
        if form == "J":
            row["g_dual_norm"] = _g_dual_norm(h)
        return [(rep, row)]

    return rep, sample


def _g_dual_norm(g: SpaceTimeField) -> float:
    """Discrete shell-dual norm of g: each shell in L^2_xi of the max over tau."""
    length = g.grid.spatial.length
    return shell_l2(g.grid.spatial, lambda mask: np.sqrt(
        float(np.sum(np.max(np.abs(g.coefficients * mask), axis=0) ** 2)) * length
    ))


def _probe_bilinear_weighted(name, cfg, win, periodic):
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
        environment = _environment(cfg, win, s_effective=s)
        w_sb, u_sb, out_sb = (s + 0.5, 0.5), (s - 1.0, 1.0), (s + 0.5, -0.5)
    else:
        s = cfg.s if cfg.s > 0 else 0.25
        delta = s / 20.0
        theta = 0.5 + delta
        inequality = (
            "|P_+(W P_- dx u)|_{X^{1/2,-1/2+2d}} <= C |W|_{X^{1/2,1/2+d}} "
            "(|J^s u|_{L2} + |J^s u|_{L4} + |u|_{X^{s-th,th}})"
        )
        environment = _environment(cfg, win, s_effective=s, delta=delta, theta=theta)
        w_sb, u_sb, out_sb = (
            (0.5, 0.5 + delta), (s - theta, theta), (0.5, -0.5 + 2 * delta)
        )
    rep = ProbeReport(name, inequality, environment=environment)
    bessel = (1.0 + win.spatial.xi**2) ** (s / 2.0)

    def sample(rng, decay):
        bigw = random_spacetime_field(win, rng, xi_decay=decay + 0.5,
                                      sigma_decay=1.25, positive_xi_only=True)
        u = random_spacetime_field(win, rng, xi_decay=decay, sigma_decay=1.25,
                                   real=True)
        js = SpaceTimeField(win, u.coefficients * bessel[None, :])
        rhs = x_norm(bigw, *w_sb) * (sum(_l2_and_l4(js)) + x_norm(u, *u_sb))
        return [(rep, None if rhs == 0 else
                 _ratio_row(x_norm(bilinear_core(bigw, u), *out_sb), rhs))]

    return rep, sample


def _exp_lowband_operator(u: SpaceTimeField) -> np.ndarray:
    """dx P_+(P_lo e^{-iF/2} P_- dx u) on each time slice of the real field u,
    F the primitive of the slice: the (M, n) array of spatial coefficients,
    formed in one pass over all slices."""
    grid = u.grid.spatial
    xi = grid.xi
    coeff = _real_coefficients(u.slices())
    e_lo = _truncate(_exponential(coeff, grid, 4)[1], grid) * projection_symbol("lo", xi)
    prod = _minus_dx_product(e_lo, coeff, xi, axes=(-1,))
    return _complex_coefficients(prod) * (projection_symbol("plus", xi) * (1j * xi))


def _probe_exp_lowband(name, cfg, win):
    rep = ProbeReport(
        name,
        "|dx P_+(P_lo e^{-iF/2} P_- dx u)|_{Ztilde^{s,-1} & X^{s,-1/2}} <= C |u|_{L4}^2",
        environment=_environment(cfg, win),
    )

    def sample(rng, decay):
        u = random_spacetime_field(win, rng, xi_decay=max(decay, 1.0),
                                   sigma_decay=1.5, real=True, zero_mean_x=True)
        l4 = spacetime_lebesgue(u, 4)
        if l4 == 0:
            return [(rep, None)]
        op = SpaceTimeField.from_slices(win, _exp_lowband_operator(u))
        lhs = z_tilde_norm(op, cfg.s, -1.0) + x_norm(op, cfg.s, -0.5)
        return [(rep, _ratio_row(lhs, l4**2))]

    return rep, sample


def _probe_leibniz(name, cfg, win):
    rep = ProbeReport(
        name,
        "|D^{1/2} P_+(f P_- dx g)|_{L2} <= C |D^{3/4} f|_{L4} |D^{3/4} g|_{L4}",
        environment=_environment(cfg, win),
    )
    grid = win.spatial

    def sample(rng, decay):
        f = random_field(grid, rng, decay=decay, amplitude=1.0)
        g = random_field(grid, rng, decay=decay, amplitude=1.0)
        rhs = lebesgue_norm(fractional(f, "riesz", 0.75), 4) * lebesgue_norm(
            fractional(g, "riesz", 0.75), 4
        )
        if rhs == 0:
            return [(rep, None)]
        inner = _minus_dx_product(f.coefficients, g.coefficients, grid.xi)
        plus = ComplexField(grid, inner * (grid.xi > 0))
        lhs = lebesgue_norm(fractional(plus, "riesz", 0.5), 2)
        return [(rep, _ratio_row(lhs, rhs))]

    return rep, sample


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
    probe's default.  The critical probes pair on the integer lattice
    (region_pairing), so any other scale is a ValueError for them."""
    if requested > 0:
        critical = which in ("bilinear_critical_x", "bilinear_critical_shell")
        if critical and requested != 1.0:
            raise ValueError(
                f"{which} runs only at period scale 1 (the integer lattice), "
                f"got {requested}"
            )
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
