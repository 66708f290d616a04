import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspec import symbols as sy


def _random_spd(rng, n, scale=1.0):
    g = rng.standard_normal((n, n))
    return scale * (g @ g.T + n * np.eye(n))


def _random_frame(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def test_a_batch_matches_the_per_point_loop():
    # one call of the coefficient per point, the same matrices bit for bit as stacking a_at
    rng = np.random.default_rng(3)
    q = _random_frame(rng, 3)
    coeffs = sy.SecondOrderCoeffs(3, a=lambda x: (q * (2.0 + np.sin(x))) @ q.T)
    pts = rng.uniform(-1.0, 1.0, (50, 3))
    assert np.array_equal(coeffs.a_batch(pts), np.stack([coeffs.a_at(x) for x in pts]))


@pytest.mark.parametrize("field", [
    lambda x: np.eye(2),  # every matrix the wrong size
    lambda x: np.eye(3)[: 2 + (x[0] > 0)],  # ragged: the sizes differ between points
    lambda x: float(x[0]),  # a number, not a matrix
])
def test_a_batch_rejects_wrong_shapes(field):
    pts = np.array([[-0.5, 0.0, 0.0], [0.5, 0.0, 0.0]])
    with pytest.raises(ValueError, match="wrong shape"):
        sy.SecondOrderCoeffs(3, a=field).a_batch(pts)


def test_ellipticity_margin_examples():
    pts = [[0.0, 0.0], [0.5, 0.5]]
    assert sy.strong_ellipticity_margin(sy.SecondOrderCoeffs.laplacian(2), pts) == pytest.approx(1.0, abs=1e-12)
    # the margin is the smallest eigenvalue: min of cos^2 + 4 sin^2 is 1
    d14 = sy.SecondOrderCoeffs(2, np.diag([1.0, 4.0]))
    assert sy.strong_ellipticity_margin(d14, pts) == pytest.approx(1.0, abs=1e-12)
    # eigenvalues of [[2,1],[1,2]] are 1 and 3
    m = sy.SecondOrderCoeffs(2, [[2.0, 1.0], [1.0, 2.0]])
    assert sy.strong_ellipticity_margin(m, pts) == pytest.approx(1.0, abs=1e-12)
    # indefinite and variable forms: the minimum over the points
    assert sy.strong_ellipticity_margin(sy.SecondOrderCoeffs(2, [[1.0, 2.0], [2.0, 1.0]]), pts) == pytest.approx(-1.0)
    var = sy.SecondOrderCoeffs(2, lambda x: np.diag([1.0 + x[0], 2.0]))
    assert sy.strong_ellipticity_margin(var, pts) == pytest.approx(1.0, abs=1e-15)
    assert sy.strong_ellipticity_margin(var, [[-0.25, 0.0]]) == pytest.approx(0.75, abs=1e-15)


def test_ellipticity_margin_is_the_cosphere_minimum():
    # the exact minimum lies at or below every sampled direction, and a dense circle gets within 1e-4
    rng = np.random.default_rng(4)
    th = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    dirs = np.column_stack([np.cos(th), np.sin(th)])
    for _ in range(20):
        coeffs = sy.SecondOrderCoeffs(2, _random_spd(rng, 2))
        sampled = np.einsum("si,ij,sj->s", dirs, coeffs.a, dirs).min()
        margin = sy.strong_ellipticity_margin(coeffs, [[0.0, 0.0]])
        assert margin <= sampled + 1e-12
        assert margin >= sampled - 1e-4 * sampled


def test_symmetry_rule_is_absolute():
    # asymmetry up to 1e-12 is accepted whatever the scale, anything more is not
    sy.SecondOrderCoeffs(2, [[1e6, 1.0], [1.0 + 5e-13, 1e6]])
    sy.SecondOrderCoeffs(2, [[1.0, 0.5], [0.5 + 5e-13, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        sy.SecondOrderCoeffs(2, [[1e6, 1.0], [1.0 + 1e-11, 1e6]])
    # a NaN or infinite entry is refused too, even where the matrix equals its transpose
    refused = [
        [[1.0, np.nan], [0.0, 1.0]],
        [[np.inf, 0.0], [0.0, 1.0]],
        [[1.0, np.inf], [np.inf, 1.0]],
        [[1.0, -np.inf], [-np.inf, 1.0]],
        [[np.nan, 0.0], [0.0, 1.0]],
        [[1.0, 0.5], [0.5 + 1e-11, 1.0]],
    ]
    for a in refused:
        with pytest.raises(ValueError, match="symmetric"):
            sy.SecondOrderCoeffs(2, a)


def test_coefficient_refusals_keep_their_messages():
    # the shape is checked first, then one test over k >= j refuses asymmetry, NaN and inf alike
    sy.SecondOrderCoeffs(2, [[1.0, 0.0], [1e-12, 1.0]])  # an asymmetry of exactly 1e-12 is accepted
    asymmetric = [[1.0, 0.0], [np.nextafter(1e-12, 1.0), 1.0]]
    for a in ([[1.0, 0.0], [0.0, np.inf]], [[np.nan, 0.0], [0.0, 1.0]], [[1.0, np.nan], [np.nan, 1.0]], asymmetric):
        with pytest.raises(ValueError, match="^coefficient matrix must be finite and symmetric$"):
            sy.SecondOrderCoeffs(2, a)
    for a in (np.eye(3), [1.0, 0.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]):
        with pytest.raises(ValueError, match=r"^coefficient matrix must be \(2, 2\)$"):
            sy.SecondOrderCoeffs(2, a)
    with pytest.raises(ValueError, match="setting an array element with a sequence"):  # numpy's, as before
        sy.SecondOrderCoeffs(2, [[1.0, 0.0], [0.0]])
    stored = sy.SecondOrderCoeffs(2, [[2.0, 1.0], [1.0, 2.0]]).a
    assert isinstance(stored, np.ndarray) and stored.dtype == float


def test_one_sample_factorizations_take_tuples_and_lists():
    # dtn_symbol_probe passes the point (0.0, 0.0) and the covector (xi,) as tuples
    rng = np.random.default_rng(11)
    for n in (2, 3):
        coeffs, frame = sy.SecondOrderCoeffs(n, _random_spd(rng, n)), _random_frame(rng, n)
        xip = rng.standard_normal(n - 1)
        want = sy.boundary_reduction(coeffs, np.zeros(n), frame, xip)
        assert sy.boundary_reduction(coeffs, (0.0,) * n, frame.tolist(), tuple(xip.tolist())) == want
        assert sy.boundary_reduction(coeffs, [0.0] * n, frame, xip.tolist()) == want
        want = sy.tangential_factorization(coeffs, np.zeros(n), frame, xip[: n - 2])
        assert sy.tangential_factorization(coeffs, (0.0,) * n, frame.tolist(), tuple(xip[: n - 2].tolist())) == want
        assert sy.tangential_factorization(coeffs, [0.0] * n, frame, xip[: n - 2].tolist()) == want
    assert isinstance(want.a_tt, float) and isinstance(want.kappat_plus, complex)


def test_root_pair_degenerate_and_nan():
    # the degenerate tangential pair of n = 2 (b = c = 0): constant roots 0, residual 0, as _root_pairs gives
    for ann in (0.5, 2.0, 7.25):
        got = sy._root_pair(ann, 0.0, 0.0)
        k0, kp, km, res = sy._root_pairs(ann, 0.0, 0.0, sy._XI_N_PROBE)
        assert got == (0.0, 0j, 0j, 0.0) and (k0, kp, km, res.max()) == (0.0, 0j, 0j, 0.0)
    for args in ((math.nan, 1.0, 2.0), (2.0, math.nan, 2.0), (2.0, 1.0, math.nan)):
        assert math.isnan(sy._root_pair(*args)[3])


def test_root_pair_keeps_a_nan_residual(monkeypatch):
    # a NaN at the first probe is the residual, though finite ones follow
    monkeypatch.setattr(sy, "_PROBE", [(math.nan, complex(0.0, math.nan)), *sy._PROBE])
    assert math.isnan(sy._root_pair(2.0, 1.0, 2.0)[3])


def test_one_sample_path_stays_off_the_batch_kernels():
    # the one-sample path is tangential_factorization and boundary_reduction with the helpers they
    # call; the batch functions keep _root_pairs
    one_sample = (sy.tangential_factorization, sy.boundary_reduction, sy._reduce_one, sy._quantities_one,
                  sy._root_pair)
    for fn in one_sample:
        assert not re.search(r"\b(_root_pairs|boundary_quantities|reduce_frames)\(", inspect.getsource(fn)), fn
    for fn in (sy.factorization_residuals, sy.boundary_residuals):
        assert re.search(r"\b_root_pairs\(", inspect.getsource(fn)), fn


def test_boundary_reduction_laplacian():
    bf = sy.boundary_reduction(sy.SecondOrderCoeffs.laplacian(2), [0.0, 0.0], np.eye(2), [1.0])
    assert bf.kappa0 == pytest.approx(1.0, abs=1e-15)
    assert bf.kappa_plus == pytest.approx(1.0 + 0j, abs=1e-15)
    assert bf.kappa_minus == pytest.approx(1.0 + 0j, abs=1e-15)


def test_boundary_reduction_diag14():
    # xi_1^2 + 4 xi_2^2 = 4 (1/2 + i xi_2)(1/2 - i xi_2)
    d14 = sy.SecondOrderCoeffs(2, np.diag([1.0, 4.0]))
    bf = sy.boundary_reduction(d14, [0.0, 0.0], np.eye(2), [1.0])
    assert bf.a_nn == 4.0
    assert bf.b == 0.0
    assert bf.c == 1.0
    assert bf.kappa0 == pytest.approx(2.0, abs=1e-15)
    assert bf.kappa_plus == pytest.approx(0.5 + 0j, abs=1e-15)


def test_boundary_reduction_offdiagonal():
    # roots of 2 lambda^2 + 2 lambda + 2: a' = 3, kappa0 = sqrt(3)
    m = sy.SecondOrderCoeffs(2, [[2.0, 1.0], [1.0, 2.0]])
    bf = sy.boundary_reduction(m, [0.0, 0.0], np.eye(2), [1.0])
    assert bf.a_nn == 2.0
    assert bf.b == 1.0
    assert bf.c == 2.0
    assert bf.a_prime == pytest.approx(3.0, abs=1e-15)
    assert bf.kappa0 == pytest.approx(np.sqrt(3.0), rel=1e-15)
    assert bf.kappa_plus == pytest.approx((np.sqrt(3.0) + 1j) / 2.0, abs=1e-15)
    assert bf.kappa_minus == pytest.approx((np.sqrt(3.0) - 1j) / 2.0, abs=1e-15)
    assert bf.residual <= 1e-12


def test_boundary_reduction_rejects_bad_frame():
    lap = sy.SecondOrderCoeffs.laplacian(2)
    with pytest.raises(ValueError):
        sy.boundary_reduction(lap, [0.0, 0.0], np.array([[1.0, 1.0], [0.0, 1.0]]), [1.0])


def test_nan_inputs_are_refused_not_factored():
    # a NaN compares false with every bound, so each check is written to fail on it
    lap = sy.SecondOrderCoeffs.laplacian(3)
    frame = np.eye(3)
    frame[0, 0] = np.nan
    with pytest.raises(ValueError, match="orthonormal"):
        sy.tangential_factorization(lap, np.zeros(3), frame, [0.3])
    with pytest.raises(ValueError, match="orthonormal"):
        sy.boundary_reduction(lap, np.zeros(3), frame, [0.3, 0.1])
    nan_field = sy.SecondOrderCoeffs(3, lambda x: np.full((3, 3), np.nan))
    with pytest.raises(sy.EllipticityError, match="abar_nn"):
        sy.tangential_factorization(nan_field, np.zeros(3), np.eye(3), [0.3])
    with pytest.raises(sy.EllipticityError, match="abar_nn"):
        sy.boundary_residuals(nan_field, np.zeros((2, 3)), np.stack([np.eye(3)] * 2), np.ones((2, 2)))


def test_boundary_reduction_ellipticity_failure():
    # indefinite form: reduced discriminant goes nonpositive
    bad = sy.SecondOrderCoeffs(2, [[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(sy.EllipticityError):
        sy.boundary_reduction(bad, [0.0, 0.0], np.eye(2), [1.0])


def test_factorization_identity_random_batch():
    rng = np.random.default_rng(7)
    m = 2000
    for n in (2, 3):
        mats = np.stack([_random_spd(rng, n) for _ in range(m)])
        frames = np.stack([_random_frame(rng, n) for _ in range(m)])
        xips = rng.standard_normal((m, n - 1))
        xips[np.all(xips == 0.0, axis=1)] = 1.0
        xins = rng.standard_normal(m)
        kappa0, re_k, resid = sy.factorization_residuals(mats, frames, xips, xins)
        assert np.all(kappa0 > 0.0)
        assert np.all(re_k > 0.0)
        assert resid.max() <= 1e-12


def test_root_real_parts_match_kappa0_over_ann():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 4))
        coeffs = sy.SecondOrderCoeffs(n, _random_spd(rng, n))
        frame = _random_frame(rng, n)
        xip = rng.standard_normal(n - 1)
        bf = sy.boundary_reduction(coeffs, np.zeros(n), frame, xip)
        assert bf.kappa_plus.real == pytest.approx(bf.kappa0 / bf.a_nn, rel=1e-12)
        assert bf.kappa_minus.real == pytest.approx(bf.kappa0 / bf.a_nn, rel=1e-12)
        assert bf.kappa0**2 == pytest.approx(bf.a_prime, rel=1e-12)


def test_kappa0_even_and_homogeneous():
    rng = np.random.default_rng(11)
    coeffs = sy.SecondOrderCoeffs(3, _random_spd(rng, 3))
    frame = _random_frame(rng, 3)
    for _ in range(20):
        xip = rng.standard_normal(2)
        k_plus = sy.boundary_reduction(coeffs, np.zeros(3), frame, xip).kappa0
        k_minus = sy.boundary_reduction(coeffs, np.zeros(3), frame, -xip).kappa0
        assert k_plus == k_minus  # exact evenness: b flips sign, c is even
        for t in (0.5, 2.0, 7.5):
            kt = sy.boundary_reduction(coeffs, np.zeros(3), frame, t * xip).kappa0
            assert kt == pytest.approx(t * k_plus, rel=1e-12)


def test_tangential_factorization_laplacian_n3():
    lap = sy.SecondOrderCoeffs.laplacian(3)
    bf = sy.tangential_factorization(lap, np.zeros(3), np.eye(3), [1.0])
    assert bf.a_tt == pytest.approx(1.0, abs=1e-15)
    assert bf.kappat_plus == pytest.approx(1.0 + 0j, abs=1e-15)
    assert bf.kappat_minus == pytest.approx(1.0 + 0j, abs=1e-15)
    bf2 = sy.tangential_factorization(lap, np.zeros(3), np.eye(3), [2.0])
    assert bf2.kappat_plus == pytest.approx(2.0 + 0j, abs=1e-15)
    assert bf.tangential_residual <= 1e-12


def test_tangential_factorization_diag114():
    # a' form of diag(1,1,4) with normal e3 is diag(4,4); factor in xi_2
    coeffs = sy.SecondOrderCoeffs(3, np.diag([1.0, 1.0, 4.0]))
    bf = sy.tangential_factorization(coeffs, np.zeros(3), np.eye(3), [1.0])
    assert bf.a_tt == pytest.approx(4.0)
    assert bf.tangential_residual <= 1e-12
    # brute-force polynomial expansion oracle at a few xi_2 values
    for xi2 in (-1.5, 0.3, 2.0):
        base = sy.boundary_reduction(coeffs, np.zeros(3), np.eye(3), [1.0, xi2])
        rec = bf.kappa0_sq_tangential(xi2)
        assert abs(rec.imag) <= 1e-12 * abs(rec)
        assert rec.real == pytest.approx(base.kappa0**2, rel=1e-12)


def test_tangential_half_power_split():
    rng = np.random.default_rng(5)
    coeffs = sy.SecondOrderCoeffs(3, _random_spd(rng, 3))
    frame = _random_frame(rng, 3)
    bf = sy.tangential_factorization(coeffs, np.zeros(3), frame, [1.3])
    for xi2 in (-2.0, -0.4, 0.0, 1.1):
        split = bf.kappa0_split_tangential(xi2)
        base = sy.boundary_reduction(coeffs, np.zeros(3), frame, np.array([1.3, xi2]))
        assert complex(split) == pytest.approx(base.kappa0 + 0j, rel=1e-12)


def test_tangential_n2_constant_roots():
    # empty xi'' leaves the constant (degenerate) root pair
    m = sy.SecondOrderCoeffs(2, [[2.0, 1.0], [1.0, 2.0]])
    bf = sy.tangential_factorization(m, np.zeros(2), np.eye(2), [])
    assert bf.kappat_plus == 0.0 and bf.kappat_minus == 0.0
    # reconstruction stays exact: kappa0(xi_1)^2 = a_tt xi_1^2
    base = sy.boundary_reduction(m, np.zeros(2), np.eye(2), [0.7])
    assert bf.kappa0_sq_tangential(0.7).real == pytest.approx(base.kappa0**2, rel=1e-12)


def test_dtn_principal_examples():
    # the principal DtN symbol is -kappa0
    assert -sy.boundary_reduction(sy.SecondOrderCoeffs.laplacian(2), [0, 0], np.eye(2), [1.0]).kappa0 == pytest.approx(-1.0)
    d14 = sy.SecondOrderCoeffs(2, np.diag([1.0, 4.0]))
    assert -sy.boundary_reduction(d14, [0, 0], np.eye(2), [1.0]).kappa0 == pytest.approx(-2.0)
    m = sy.SecondOrderCoeffs(2, [[2.0, 1.0], [1.0, 2.0]])
    assert -sy.boundary_reduction(m, [0, 0], np.eye(2), [1.0]).kappa0 == pytest.approx(-np.sqrt(3.0))


def test_dtn_poisson_kernel_decay():
    m = sy.SecondOrderCoeffs(2, [[2.0, 1.0], [1.0, 2.0]])
    bf = sy.boundary_reduction(m, [0, 0], np.eye(2), [1.0])
    ker = bf.poisson_kernel(np.array([0.0, 1.0, 2.0]))
    assert ker[0] == 1.0
    # |exp(-k x)| = exp(-Re k x), strictly decaying since Re kappa_plus > 0
    assert np.all(np.abs(ker[1:]) < np.abs(ker[:-1]))


def test_dtn_negativity_bound():
    # -kappa0 <= -sqrt(margin) on the unit cosphere: a' >= margin * ann and ann <= trace
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(2, 4))
        coeffs = sy.SecondOrderCoeffs(n, _random_spd(rng, n))
        margin = sy.strong_ellipticity_margin(coeffs, [np.zeros(n)])
        frame = _random_frame(rng, n)
        xip = rng.standard_normal(n - 1)
        xip /= np.linalg.norm(xip)
        val = -sy.boundary_reduction(coeffs, np.zeros(n), frame, xip).kappa0
        assert val < 0.0
        assert val <= -margin / np.sqrt(coeffs.a[range(n), range(n)].max())


def test_mu_transmission_even_symbol():
    s = sy.PrincipalSymbol.from_coeffs(sy.SecondOrderCoeffs.laplacian(2), 0.3)
    pts = [[0.0, 0.0], [0.5, 0.25]]
    normals = [[1.0, 0.0], [0.6, 0.8]]
    assert sy.mu_transmission_residual(s, 0.3, pts, normals) <= 1e-14


def test_mu_transmission_kappa0_symbol():
    # evenness of kappa0 in xi' gives the half-transmission property
    m = sy.SecondOrderCoeffs(3, [[2.0, 0.5, 0.1], [0.5, 1.5, 0.2], [0.1, 0.2, 3.0]])
    sym = sy.PrincipalSymbol(order=1.0, fn=lambda x, xip: sy.boundary_reduction(m, x, np.eye(3), xip).kappa0)
    pts = [np.zeros(3), np.zeros(3)]
    normals = [[1.0, 0.0], [0.3, -0.9]]
    assert sy.mu_transmission_residual(sym, 0.5, pts, normals) <= 1e-12


def test_mu_transmission_odd_symbol_max_violation():
    a = 0.4

    def fn(x, xi):
        return xi[0] * float(xi @ xi) ** (a - 0.5)

    s = sy.PrincipalSymbol(order=2 * a, fn=fn)
    r = sy.mu_transmission_residual(s, a, [[0.0, 0.0]], [[1.0, 0.0]])
    assert r == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("power, mu", [(1.0, 1.0), (0.5, 0.3), (0.75, 0.2), (1.3, 1.0)])
def test_mu_transmission_batched_matches_the_per_point_loop(power, mu):
    # symbol-check's 2000 samples (n = 3), drawn as the command draws them; the coefficient symbol
    # takes one batched quadratic form, the same symbol without coeffs the per-point calls
    n, samples = 3, 2000
    draws = np.random.default_rng(11).standard_normal((samples, n * n + 2 * n - 1))
    frames = np.linalg.qr(draws[:, : n * n].reshape(samples, n, n))[0]
    points, normals = draws[:, n * n : n * n + n], frames[:, :, -1]
    rng = np.random.default_rng(5)
    for coeffs in (sy.SecondOrderCoeffs(3, _random_spd(rng, 3)),
                   sy.SecondOrderCoeffs(3, a=lambda x: np.diag(2.0 + np.sin(x)))):
        symbol = sy.PrincipalSymbol.from_coeffs(coeffs, power)
        batched = sy.mu_transmission_residual(symbol, mu, points, normals)
        per_point = sy.mu_transmission_residual(sy.PrincipalSymbol(symbol.order, symbol.fn), mu, points, normals)
        assert type(batched) is float and batched == per_point
        assert (batched == 0.0) == (mu == power)


def test_mu_transmission_degenerate_coefficient_symbol():
    s = sy.PrincipalSymbol.from_coeffs(sy.SecondOrderCoeffs.laplacian(2), 0.5)
    with pytest.raises(sy.DegenerateSymbolError):
        sy.mu_transmission_residual(s, 0.5, [[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]])


def test_mu_transmission_degenerate_symbol():
    s = sy.PrincipalSymbol(order=1.0, fn=lambda x, xi: xi[0])
    with pytest.raises(sy.DegenerateSymbolError):
        sy.mu_transmission_residual(s, 0.5, [[0.0, 0.0]], [[0.0, 1.0]])


@settings(max_examples=60, deadline=None)
@given(
    a11=st.floats(0.2, 5.0),
    a22=st.floats(0.2, 5.0),
    rho=st.floats(-0.9, 0.9),
    xi1=st.floats(-4.0, 4.0),
    xin=st.floats(-4.0, 4.0),
)
def test_factorization_identity_hypothesis(a11, a22, rho, xi1, xin):
    off = rho * np.sqrt(a11 * a22)
    coeffs = sy.SecondOrderCoeffs(2, [[a11, off], [off, a22]])
    if abs(xi1) < 1e-3:
        xi1 = 1.0
    bf = sy.boundary_reduction(coeffs, [0.0, 0.0], np.eye(2), [xi1])
    poly = bf.eval_poly(xin)
    fact = bf.eval_factored(xin)
    assert abs(poly - fact) <= 1e-12 * abs(poly)
