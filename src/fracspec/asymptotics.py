"""Power-law fits for spectra and eigenfunction boundary profiles.

Three measurement tools: least-squares power laws s_j ~ C j^e in log-log
coordinates (free or fixed exponent), boundary exponents of |u| ~ d^a
profiles near the domain boundary, and the logarithmic divergence rate
of the weighted integral I(delta) = int_{delta<x<1} x^{-1} |zeta|^2 that
certifies a d^{1/2}-type element just failing H^1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError


# ---------------------------------------------------------------------------
# Weyl-law fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeylFit:
    """Least-squares power law value_j ~ constant * j^exponent.

    residual is the root-mean-square misfit in log-log coordinates;
    fixed_exponent marks the one-parameter mode, in which the exponent
    field carries the imposed value exactly.
    """

    exponent: float
    constant: float
    window: tuple
    residual: float
    fixed_exponent: bool = False

    def __post_init__(self):
        j_lo, j_hi = self.window
        if j_lo < 2 or j_hi < j_lo:
            raise ValueError("fit window must satisfy 2 <= j_lo <= j_hi")


def default_window(m: int) -> tuple:
    """Middle third of a length-m sequence (1-based, inclusive).

    Low indices are preasymptotic and the top third carries the
    discretization error, so both are left out.
    """
    j_lo = max(2, m // 3)
    j_hi = max(j_lo, (2 * m) // 3)
    return (j_lo, j_hi)


def weyl_fit(values, window: tuple | None = None, fixed_exponent: float | None = None) -> WeylFit:
    """Fit value_j ~ C j^e over the window (default: middle third) of a 1-D sequence.

    With fixed_exponent given, only C is fit: log C is the mean of
    log value_j - e log j, i.e. C is the geometric mean of value_j *
    j^{-e} over the window.
    """
    values = np.asarray(values, dtype=float).ravel()
    m = values.size
    if window is None:
        window = default_window(m)
    j_lo, j_hi = int(window[0]), int(window[1])
    if j_lo < 2 or j_hi > m or j_hi < j_lo:
        raise ValueError(f"window {window} invalid for a length-{m} sequence")
    if j_hi - j_lo + 1 < 10:
        raise ValueError("fit window must contain at least 10 values")
    v = values[j_lo - 1 : j_hi]
    if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
        raise NumericError("fit window contains nonpositive or non-finite values")
    j = np.arange(j_lo, j_hi + 1, dtype=float)
    lj, lv = np.log(j), np.log(v)
    if fixed_exponent is None:
        A = np.stack([lj, np.ones_like(lj)], axis=1)
        (slope, intercept), *_ = np.linalg.lstsq(A, lv, rcond=None)
        resid = float(np.sqrt(np.mean((lv - slope * lj - intercept) ** 2)))
        return WeylFit(float(slope), float(np.exp(intercept)), (j_lo, j_hi), resid, False)
    e = float(fixed_exponent)
    logc = float(np.mean(lv - e * lj))
    resid = float(np.sqrt(np.mean((lv - e * lj - logc) ** 2)))
    return WeylFit(e, float(np.exp(logc)), (j_lo, j_hi), resid, True)


# ---------------------------------------------------------------------------
# boundary exponents
# ---------------------------------------------------------------------------


def exponent_from_profile(u, d, band: tuple) -> float:
    """Slope of log|u| against log d over samples with d inside band.

    Samples with |u| below 1e-13 * max|u| are excluded (dead zone around
    sign changes); fewer than 20 usable samples is an error.
    """
    u = np.abs(np.asarray(u, dtype=float).ravel())
    d = np.asarray(d, dtype=float).ravel()
    if u.shape != d.shape:
        raise ValueError("profile values and distances must align")
    lo, hi = band
    if not 0.0 < lo < hi:
        raise ValueError("band must satisfy 0 < d_min < d_max")
    keep = (d >= lo) & (d <= hi) & (u > 1e-13 * u.max())
    if keep.sum() < 20:
        raise NumericError(f"only {int(keep.sum())} usable nodes in band, need 20")
    x, y = np.log(d[keep]), np.log(u[keep])
    A = np.stack([x, np.ones_like(x)], axis=1)
    (slope, _), *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(slope)


def _normal_line_samples(grid, values, band):
    """(t, |u|) pairs along inward normal lines of an axis-aligned domain.

    One line per boundary node lying on exactly one face plane
    (Grid.on_planes; corner and edge nodes have no unique normal and are
    skipped).  t is the distance from the line's base point; the band
    test is strict on both ends.
    """
    eps = 1e-9 * grid.h
    lo, hi = band
    hits = grid.on_planes(grid.boundary_idx)
    nfaces = hits.sum(axis=(1, 2))
    interior_mask = np.zeros(grid.size, dtype=bool)
    interior_mask[grid.interior_idx] = True
    strides = np.array([int(np.prod(grid.shape[ax + 1 :])) for ax in range(grid.n)], dtype=np.int64)
    ks = np.arange(1, int(np.floor(hi / grid.h + 0.5)) + 1)
    ts_all = ks * grid.h
    inband = (ts_all > lo + eps) & (ts_all < hi - eps)
    t_parts, v_parts = [], []
    for ax in range(grid.n):
        for sgn, face_mask in ((+1, hits[:, ax, 0]), (-1, hits[:, ax, 1])):
            base = grid.boundary_idx[face_mask & (nfaces == 1)]
            if base.size == 0:
                continue
            reach = ts_all <= grid.domain.extent()[ax] - 0.5 * grid.h
            kk = ks[inband & reach]
            if kk.size == 0:
                continue
            nodes = base[:, None] + sgn * kk[None, :] * strides[ax]
            ok = interior_mask[nodes]
            t_parts.append(np.broadcast_to(kk * grid.h, nodes.shape)[ok])
            v_parts.append(values[nodes[ok]])
    if not t_parts:
        return np.array([]), np.array([])
    return np.concatenate(t_parts), np.concatenate(v_parts)


def _grid_profile(u, grid):
    """Values of a grid function on the interior nodes, and their distances."""
    u = np.asarray(u, dtype=float).ravel()
    if u.size != grid.interior_idx.size:
        raise ValueError("grid function must live on the interior nodes")
    return u, grid.d


def _fit_band(grid, band=None) -> tuple:
    """band, or the default (2h, 20h): below 2h the d^a profile is unresolved, above 20h the
    smooth interior factor contaminates the slope."""
    return (2.0 * grid.h, 20.0 * grid.h) if band is None else tuple(band)


def boundary_exponent(u, grid, band: tuple | None = None) -> float:
    """Boundary decay exponent of a grid function: |u| ~ d^a near d = 0.

    For axis-aligned domains the samples run along the inward normal
    line of every boundary node that lies on exactly one face, with d
    the distance from the line's base point; one least-squares line is
    fit through the pooled in-band samples.  Lines near a corner carry a
    roughly constant suppression factor, which shifts their intercept
    but not the pooled slope, so no corner margin is needed.  Domains
    without axis-aligned faces fall back to the plain in-band profile
    against nearest-boundary distance.  band defaults to _fit_band's.  Both
    fits are exponent_from_profile.
    """
    band = _fit_band(grid, band)
    vals, dist = _grid_profile(u, grid)
    if grid.domain.box_like:
        full = np.zeros(grid.size)
        full[grid.interior_idx] = np.abs(vals)
        t, v = _normal_line_samples(grid, full, band)
        if t.size:
            return exponent_from_profile(v, t, band)
    return exponent_from_profile(vals, dist, band)


@dataclass(frozen=True)
class RatioTraceReport:
    max_ratio: float
    near_max: float
    threshold: float
    nonvanishing: bool
    band: tuple


def ratio_trace_check(u, grid, a: float, band: tuple | None = None, threshold: float = 0.5) -> RatioTraceReport:
    """Nonvanishing check of the boundary ratio u / d^a.

    The nearest-to-boundary fifth of the band must reach at least
    threshold times the band-wide maximum of |u|/d^a: true for a genuine
    d^a profile (ratio roughly constant), false when u/d^a still decays
    toward the boundary (one extra power of d loses a factor ~10 over
    the default band).
    """
    vals, dist = _grid_profile(u, grid)
    lo, hi = band = _fit_band(grid, band)
    inband = (dist >= lo) & (dist <= hi)
    if inband.sum() < 20:
        raise NumericError(f"only {int(inband.sum())} nodes in band, need 20")
    ratio = np.abs(vals[inband]) / dist[inband] ** a
    near = dist[inband] <= lo + 0.2 * (hi - lo)
    if not near.any():
        raise NumericError("no nodes in the nearest-to-boundary band")
    gmax = float(ratio.max())
    nmax = float(ratio[near].max())
    return RatioTraceReport(gmax, nmax, threshold, bool(nmax > threshold * gmax), band)


# ---------------------------------------------------------------------------
# log-divergence probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogDivergenceReport:
    integrals: np.ndarray
    slope: float
    norm_sq: float
    degenerate: bool


def log_divergence_probe(psi, deltas, decay: str = "harmonic") -> LogDivergenceReport:
    """Rate of the logarithmic blow-up of I(delta) = int_delta^1 x^{-1} |zeta(x,.)|^2.

    zeta is the decaying extension of the interface data psi: mode k of
    psi picks up e^{-<k> x} with <k> = (1 + k^2)^{1/2} (decay
    "harmonic"), or stays constant in x (decay "flat").  psi is either a
    scalar (0-dimensional interface: the 1D surrogate, which replaces
    <k> by 1) or uniform samples on a periodic interface of length 2 pi.
    The reported slope of I against |log delta| is normalized by the
    squared data norm, so it tends to 1 exactly when the weighted
    integral diverges at the borderline-H^1 rate.
    """
    deltas = np.asarray(deltas, dtype=float).ravel()
    if deltas.size < 2:
        raise ValueError("need at least two delta values")
    if np.any((deltas <= 0.0) | (deltas >= 1.0)):
        raise ValueError("deltas must lie in (0, 1)")
    if np.any(np.diff(deltas) >= 0.0):
        raise ValueError("deltas must be strictly decreasing")
    if decay not in ("harmonic", "flat"):
        raise ValueError(f"unknown decay mode {decay!r}")

    psi_arr = np.atleast_1d(np.asarray(psi, dtype=float))
    if psi_arr.ndim != 1:
        raise ValueError("interface data must be a scalar or a 1D sample array")
    if psi_arr.size == 1:
        coeff_sq = np.array([psi_arr[0] ** 2])
        bracket = np.array([1.0])
    else:
        m = psi_arr.size
        psi_hat = np.fft.fft(psi_arr) / m
        k = np.fft.fftfreq(m, d=1.0 / m)
        coeff_sq = 2.0 * np.pi * np.abs(psi_hat) ** 2
        bracket = np.sqrt(1.0 + k**2)

    norm_sq = float(coeff_sq.sum())
    if norm_sq == 0.0:
        zeros = np.zeros_like(deltas)
        return LogDivergenceReport(zeros, 0.0, 0.0, True)

    if decay == "flat":
        integrals = norm_sq * (-np.log(deltas))
    else:
        from scipy.special import exp1  # imported here: only this probe needs it, and its import takes tens of ms

        upper = exp1(2.0 * bracket)
        integrals = np.array([float(np.sum(coeff_sq * (exp1(2.0 * bracket * dl) - upper))) for dl in deltas])

    x = -np.log(deltas)
    A = np.stack([x, np.ones_like(x)], axis=1)
    (slope, _), *_ = np.linalg.lstsq(A, integrals, rcond=None)
    return LogDivergenceReport(integrals, float(slope) / norm_sq, norm_sq, False)
