"""Power-law fits, boundary exponents, and the log-divergence probe."""

import numpy as np
import pytest

from fracspec.asymptotics import (
    LogDivergenceReport,
    WeylFit,
    boundary_exponent,
    default_window,
    exponent_from_profile,
    log_divergence_probe,
    ratio_trace_check,
    weyl_fit,
)
from fracspec.discretize import build_grid
from fracspec.errors import NumericError
from fracspec.quadrature import DomainSpec


class TestWeylFit:
    def test_exact_power_law(self):
        j = np.arange(1, 101, dtype=float)
        fit = weyl_fit(2.0 * j**0.5)
        assert fit.exponent == pytest.approx(0.5, abs=1e-12)
        assert fit.constant == pytest.approx(2.0, rel=1e-12)
        assert fit.residual < 1e-13
        assert not fit.fixed_exponent

    def test_recovers_half_power_constant(self):
        C = np.sqrt(4.0 * np.pi)
        j = np.arange(1, 301, dtype=float)
        fit = weyl_fit(C * j**0.5)
        assert fit.constant == pytest.approx(C, rel=1e-10)

    def test_descending_tail_fixed_exponent(self):
        j = np.arange(1, 241, dtype=float)
        mu = 0.25 / j * (1.0 + 1.0 / j)
        fit = weyl_fit(mu, window=(20, 200), fixed_exponent=-1.0)
        assert fit.exponent == -1.0
        assert abs(fit.constant - 0.25) / 0.25 < 0.02

    def test_fixed_exponent_is_geometric_mean(self):
        rng = np.random.default_rng(2)
        v = np.exp(rng.standard_normal(60)) * np.arange(1, 61) ** 1.3
        fit = weyl_fit(v, window=(5, 55), fixed_exponent=1.3)
        j = np.arange(5, 56, dtype=float)
        gm = np.exp(np.mean(np.log(v[4:55] * j**-1.3)))
        assert fit.constant == pytest.approx(gm, rel=1e-14)

    def test_default_window_is_middle_third(self):
        assert default_window(300) == (100, 200)
        assert default_window(9) == (3, 6)

    def test_window_validation(self):
        v = np.arange(1, 100, dtype=float)
        with pytest.raises(ValueError):
            weyl_fit(v, window=(1, 50))
        with pytest.raises(ValueError):
            weyl_fit(v, window=(2, 500))
        with pytest.raises(ValueError):
            weyl_fit(v, window=(40, 45))

    def test_nonpositive_values_rejected(self):
        v = np.ones(100)
        v[30] = -1.0
        with pytest.raises(NumericError):
            weyl_fit(v, window=(20, 80))


class TestBoundaryExponent:
    def test_exact_half_power_on_grid(self):
        g = build_grid(DomainSpec.unit_interval(), 64)
        u = g.d**0.5
        assert boundary_exponent(u, g) == pytest.approx(0.5, abs=1e-12)

    def test_leading_order_linear_profile(self):
        d = np.geomspace(1e-3, 1e-1, 200)
        u = d * (1.0 + d)
        slope = exponent_from_profile(u, d, (1e-3, 1e-1))
        assert abs(slope - 1.0) < 0.02

    def test_scaling_invariance(self):
        g = build_grid(DomainSpec.unit_square(), 32)
        rng = np.random.default_rng(8)
        u = g.d**0.7 * (1.0 + 0.1 * rng.random(g.interior_idx.size))
        s1 = boundary_exponent(u, g)
        s2 = boundary_exponent(-3.5 * u, g)
        assert s1 == pytest.approx(s2, abs=1e-12)

    def test_dead_zone_exclusion(self):
        d = np.geomspace(1e-3, 1e-1, 100)
        u = d.copy()
        u[::7] = 1e-300  # near-zero crossings must not poison the log fit
        slope = exponent_from_profile(u, d, (1e-3, 1e-1))
        assert slope == pytest.approx(1.0, abs=1e-10)

    def test_too_few_nodes(self):
        d = np.geomspace(1e-3, 1e-1, 10)
        with pytest.raises(NumericError):
            exponent_from_profile(d, d, (1e-3, 1e-1))

    def test_bad_band(self):
        d = np.geomspace(1e-3, 1e-1, 100)
        with pytest.raises(ValueError):
            exponent_from_profile(d, d, (0.0, 1e-1))


class TestRatioTrace:
    def test_exact_profile_flags_true(self):
        g = build_grid(DomainSpec.unit_interval(), 256)
        u = g.d**0.5
        rep = ratio_trace_check(u, g, 0.5)
        assert rep.nonvanishing
        assert rep.max_ratio == pytest.approx(1.0, rel=1e-12)
        assert rep.near_max == pytest.approx(1.0, rel=1e-12)

    def test_extra_power_flags_false(self):
        g = build_grid(DomainSpec.unit_interval(), 256)
        u = g.d**1.5
        rep = ratio_trace_check(u, g, 0.5)
        assert not rep.nonvanishing
        assert rep.near_max < rep.max_ratio


def brute_force_divergence(psi: np.ndarray, delta: float) -> float:
    """x-space quadrature oracle for I(delta) with harmonic decay."""
    m = psi.size
    psi_hat = np.fft.fft(psi) / m
    k = np.fft.fftfreq(m, d=1.0 / m)
    bracket = np.sqrt(1.0 + k**2)

    def slice_norm_sq(x):
        zeta = np.fft.ifft(psi_hat * np.exp(-bracket * x) * m)
        return 2.0 * np.pi / m * float(np.sum(np.abs(zeta) ** 2))

    # integrate x^{-1} f(x) over (delta, 1) as f(e^t) dt over (log delta, 0)
    t_nodes, t_weights = np.polynomial.legendre.leggauss(400)
    lo, hi = np.log(delta), 0.0
    t = 0.5 * (hi - lo) * (t_nodes + 1.0) + lo
    w = 0.5 * (hi - lo) * t_weights
    return float(sum(wi * slice_norm_sq(np.exp(ti)) for ti, wi in zip(t, w)))


class TestLogDivergence:
    def test_surrogate_slope_near_one(self):
        deltas = np.array([1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
        rep = log_divergence_probe(1.0, deltas)
        assert abs(rep.slope - 1.0) < 0.05
        assert not rep.degenerate

    def test_flat_extension_exact_log(self):
        deltas = np.array([1e-1, 1e-2, 1e-3])
        rep = log_divergence_probe(1.0, deltas, decay="flat")
        assert rep.integrals == pytest.approx(-np.log(deltas), rel=1e-14)
        assert rep.slope == pytest.approx(1.0, abs=1e-12)

    def test_zero_data_degenerate(self):
        deltas = np.array([1e-2, 1e-3])
        rep = log_divergence_probe(np.zeros(16), deltas)
        assert rep.degenerate
        assert np.all(rep.integrals == 0.0)
        assert rep.slope == 0.0

    def test_normalized_slope_scale_invariant(self):
        rng = np.random.default_rng(4)
        psi = rng.standard_normal(32)
        deltas = np.geomspace(1e-2, 1e-5, 6)
        r1 = log_divergence_probe(psi, deltas)
        r2 = log_divergence_probe(7.0 * psi, deltas)
        assert r1.slope == pytest.approx(r2.slope, rel=1e-12)
        assert r2.norm_sq == pytest.approx(49.0 * r1.norm_sq, rel=1e-12)

    def test_matches_brute_force_quadrature(self):
        rng = np.random.default_rng(12)
        psi = 1.0 + 0.5 * rng.standard_normal(32)
        deltas = np.array([1e-1, 1e-2, 1e-3])
        rep = log_divergence_probe(psi, deltas)
        for dl, val in zip(deltas, rep.integrals):
            assert val == pytest.approx(brute_force_divergence(psi, dl), rel=1e-8)

    def test_interface_norm_matches_parseval(self):
        rng = np.random.default_rng(9)
        psi = rng.standard_normal(64)
        rep = log_divergence_probe(psi, np.array([1e-2, 1e-3]))
        assert rep.norm_sq == pytest.approx(2.0 * np.pi * np.mean(psi**2), rel=1e-12)

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            log_divergence_probe(1.0, np.array([0.5]))
        with pytest.raises(ValueError):
            log_divergence_probe(1.0, np.array([1e-3, 1e-2]))
        with pytest.raises(ValueError):
            log_divergence_probe(1.0, np.array([0.5, 1.5]))
        with pytest.raises(ValueError):
            log_divergence_probe(1.0, np.array([1e-2, 1e-3]), decay="cubic")

    def test_surrogate_against_analytic_expansion(self):
        # E1(2 delta) = -gamma - log(2 delta) + 2 delta + O(delta^2)
        from scipy.special import exp1

        deltas = np.geomspace(1e-3, 1e-6, 4)
        rep = log_divergence_probe(1.0, deltas)
        expect = exp1(2.0 * deltas) - exp1(2.0)
        assert rep.integrals == pytest.approx(expect, rel=1e-14)
