"""Krein-term algebra, the chain-Schur core, the DtN strip probe, and the disk and face mode routes."""

import inspect
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspec.discretize import OperatorMatrix, build_grid, schur_split
from fracspec import _kernels, discretize, eig, zaremba
from fracspec.asymptotics import weyl_fit
from fracspec.errors import ConfigurationError, NotPositiveError, NumericError
from fracspec.quadrature import DomainSpec
from fracspec.symbols import SecondOrderCoeffs
from fracspec.zaremba import (
    _radial_chains,
    chain_schur,
    disk_interface_spectra,
    dtn_symbol_probe,
    face_mode_spectra,
    interface_spectra,
    krein_from_matrix,
    krein_identity_check,
    krein_term,
)
from test_discretize import PolarDiskGrid, assemble_polar_laplacian


def wrap(mat, interior, splus, h=1.0):
    meta = {"row_sets": {"interior": interior, "sigma_plus": splus}, "h": h}
    return OperatorMatrix(np.asarray(mat, dtype=float), meta=meta)


def basis(k):
    """G = [K; I], whose range holds the range of M."""
    return np.vstack([k.K, np.eye(k.n_boundary)])


def factor(k):
    """F = [K; I] R^{-1} with S = R^T R (N x n_B), so that M = F F^T."""
    return sla.solve_triangular(sla.cholesky(k.S), basis(k).T, trans="T").T


def materialized_m(k):
    """The N x N matrix M = F F^T: the oracle of the factored certificate."""
    F = factor(k)
    return F @ F.T


def materialized_ritz(M, G):
    """Descending Ritz values of M on range(G) and rho = ||M - Q B Q^T||_F, on the whole matrix."""
    Q = np.linalg.qr(G)[0]
    B = Q.T @ M @ Q
    return sla.eigvalsh(0.5 * (B + B.T))[::-1], float(np.linalg.norm(M - Q @ B @ Q.T))


class TestKreinToy:
    # A = [[2,-1],[-1,1.5]], interior {0}, free boundary {1}:
    # K = 1/2, S = 1.5 - 1/2 = 1, M = [[1/4,1/2],[1/2,1]], spectrum {5/4, 0}
    def toy(self):
        return krein_from_matrix(wrap([[2.0, -1.0], [-1.0, 1.5]], [0], [1]))

    def test_toy_matrix(self):
        k = self.toy()
        assert np.allclose(materialized_m(k), [[0.25, 0.5], [0.5, 1.0]], atol=1e-14)

    def test_toy_spectrum(self):
        k = self.toy()
        assert np.allclose(k.mu_exact(), [1.25], atol=1e-14)
        assert np.allclose(k.ritz_from_M()[0], [1.25], atol=1e-14)

    def test_toy_identity_report(self):
        rep = krein_identity_check(self.toy())
        assert rep.max_rel_mismatch <= 1e-14
        assert rep.rank_bound_ok

    def test_random_dense_identity(self):
        rng = np.random.default_rng(7)
        B = rng.standard_normal((9, 9))
        A = B @ B.T + 9 * np.eye(9)
        k = krein_from_matrix(wrap(A, [0, 2, 4, 6, 8], [1, 3, 5, 7]))
        rep = krein_identity_check(k)
        assert rep.max_rel_mismatch <= 1e-12
        assert rep.rank_bound_ok

    def test_m_is_psd_with_bounded_rank(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((8, 8))
        A = B @ B.T + 8 * np.eye(8)
        k = krein_from_matrix(wrap(A, [0, 1, 2, 3, 4, 5], [6, 7]))
        w = np.linalg.eigvalsh(materialized_m(k))
        assert w.min() >= -1e-12 * w.max()
        assert np.sum(w > 1e-10 * w.max()) <= 2

    def test_empty_free_boundary(self):
        k = krein_from_matrix(wrap(np.eye(3) * 2.0, [0, 1, 2], []))
        assert k.mu_exact().size == 0
        ritz, rho = k.ritz_from_M()
        assert ritz.size == 0 and rho == 0.0
        assert krein_identity_check(k).max_rel_mismatch == 0.0

    def test_missing_spacing_rejected(self):
        # L_weighted = h S reads the spacing; no default stands in for it
        bare = OperatorMatrix(np.array([[2.0, -1.0], [-1.0, 1.5]]),
                              meta={"row_sets": {"interior": [0], "sigma_plus": [1]}})
        with pytest.raises(ConfigurationError, match="spacing"):
            krein_from_matrix(bare)

    def test_indefinite_schur_rejected(self):
        with pytest.raises(NotPositiveError):
            krein_from_matrix(wrap([[1.0, 2.0], [2.0, 1.0]], [0], [1]))

    def test_sparse_interior_block(self):
        g = np.asarray([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        dense = krein_from_matrix(wrap(g, [0, 1], [2]))
        om = OperatorMatrix(sp.csr_matrix(g),
                            meta={"row_sets": {"interior": [0, 1], "sigma_plus": [2]}, "h": 1.0})
        sparse = krein_from_matrix(om)
        assert np.allclose(materialized_m(dense), materialized_m(sparse), atol=1e-13)


def congruence_mu(S, inner):
    """Descending spectrum of S^{-1} inner through the S^{-1/2} similarity."""
    w, V = sla.eigh(S)
    root = (V / np.sqrt(w)) @ V.T
    G = root @ inner @ root
    return sla.eigvalsh(0.5 * (G + G.T))[::-1]


@st.composite
def split_spd(draw):
    """A random SPD matrix (eigenvalues in [0.5, 4]) with a random I/B split and spacing h."""
    size = draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((size, size)))
    A = (q * rng.uniform(0.5, 4.0, size)) @ q.T
    perm = rng.permutation(size)
    nB = draw(st.integers(1, size - 1))
    B, I = np.sort(perm[:nB]), np.sort(perm[nB:])
    return wrap(0.5 * (A + A.T), I.tolist(), B.tolist(), h=float(rng.uniform(0.1, 1.0)))


class TestKreinOracle:
    """The generalized-definite spectra against the materialized M and the S^{-1/2} congruence."""

    @settings(max_examples=30, deadline=None)
    @given(split_spd())
    def test_mu_exact_matches_materialized_m(self, om):
        k = krein_from_matrix(om)
        top = np.linalg.eigvalsh(materialized_m(k))[::-1][: k.n_boundary]
        mu = k.mu_exact()
        assert np.max(np.abs(mu - top)) <= 1e-10 * mu[0]

    @settings(max_examples=30, deadline=None)
    @given(split_spd(), st.integers(1, 3), st.booleans())
    def test_weighted_mu_matches_congruence(self, om, n, half_cell):
        # the oracle keeps the uniform grid's weights, the node volume h^n inside and h^(n-1) on the
        # free boundary, in form units; weighted_mu drops them, as they cancel in the pencil
        h = om.meta["h"]
        k = krein_from_matrix(om)
        inner = h**n * k.K.T @ k.K
        inner[np.diag_indices_from(inner)] += (0.5 * h if half_cell else 0.0) * h ** (n - 1)
        want = congruence_mu(h**n * k.S, inner)
        got = k.weighted_mu(half_cell=half_cell)
        assert np.max(np.abs(got - want)) <= 1e-10 * want[0]

    def test_identity_check_solves_m_once(self, monkeypatch):
        calls = []
        real = sla.eigh

        def spy(a, b=None, *args, **kwargs):
            if b is None:  # a solve of one matrix, not a pencil
                calls.append(np.shape(a)[0])
            return real(a, b, *args, **kwargs)

        monkeypatch.setattr(sla, "eigh", spy)
        k = krein_term(SecondOrderCoeffs.laplacian(2), 0.5, build_grid(DomainSpec.unit_square(), 8))
        rep = krein_identity_check(k)
        assert calls == [k.n_boundary]  # the Ritz matrix B, never the N x N matrix M
        assert rep.max_rel_mismatch <= 1e-10

    def test_gram_product_formed_once(self, monkeypatch):
        # K^T K, the one product contracted over the interior nodes, serves every pencil
        contractions, real = [], _kernels.gemm

        def spy(a, b):
            contractions.append(a.shape[1])
            return real(a, b)

        monkeypatch.setattr(_kernels, "gemm", spy)
        k = krein_term(SecondOrderCoeffs.laplacian(3), 0.5, build_grid(DomainSpec.unit_box(), 12), shift=1.0)
        k.weighted_mu()
        k.weighted_mu(half_cell=True)
        k.mu_exact()
        assert contractions.count(k.n_interior) == 1


def full_spectrum_verdict(M, n_boundary, scale):
    """Descending full spectrum of the materialized M and the rank/sign test on it."""
    w = np.linalg.eigvalsh(M)[::-1]
    t = 1e-12 * max(scale, 1.0)
    return w, bool(np.sum(np.abs(w) > t) <= n_boundary and w.min() >= -t)


def grid_krein(domain, nodes, sigma):
    grid = build_grid(domain, nodes)
    return krein_term(SecondOrderCoeffs.laplacian(grid.n), sigma, grid)


def read_perturbed_f(monkeypatch, D):
    """Make the certificate read the factor F + D (N x n_B), as a defect in the assembled F would show.

    ritz_from_M fills F^T a row block at a time by a transposed triangular solve (and Q^T by an
    untransposed one); the patch adds the block's rows of D to each transposed solve, in order.
    """
    real, end = sla.solve_triangular, [0]

    def solve(a, b, *args, trans=0, **kwargs):
        x = real(a, b, *args, trans=trans, **kwargs)
        if trans != "T":
            return x
        lo = end[0] % D.shape[0]
        end[0] = lo + b.shape[1]
        return x + D[lo : end[0]].T

    monkeypatch.setattr(sla, "solve_triangular", solve)


class TestRitzCertificate:
    """The Rayleigh-Ritz check against a full eigensolve of M, and defects it must catch."""

    def assert_weyl_bound(self, k):
        rep = krein_identity_check(k)
        ritz, rho = k.ritz_from_M()
        scale = np.abs(rep.mu_identity).max()
        M = materialized_m(k)
        # the blocked certificate against the same quantities on the whole matrix
        ritz_ref, rho_ref = materialized_ritz(M, basis(k))
        assert np.max(np.abs(ritz - ritz_ref)) <= 1e-13 * scale
        assert abs(rho - rho_ref) <= 1e-13 * scale
        w, verdict = full_spectrum_verdict(M, k.n_boundary, scale)
        slack = rho + 1e-13 * scale
        assert np.max(np.abs(w[: k.n_boundary] - ritz)) <= slack
        assert np.max(np.abs(w[k.n_boundary :]), initial=0.0) <= slack
        assert rep.rank_bound_ok == verdict
        assert rep.residual == pytest.approx(rho / scale, rel=1e-15)
        assert np.array_equal(rep.mu_from_m, ritz)
        return rep

    @settings(max_examples=30, deadline=None)
    @given(split_spd())
    def test_ritz_values_bound_full_spectrum(self, om):
        assert self.assert_weyl_bound(krein_from_matrix(om)).rank_bound_ok

    @pytest.mark.parametrize("domain, nodes, sigma", [
        (DomainSpec.unit_box(), 12, 0.5),
        (DomainSpec.unit_square(), 48, 1.25),
    ], ids=["box12", "square48"])
    def test_ritz_values_bound_full_spectrum_on_grids(self, domain, nodes, sigma):
        rep = self.assert_weyl_bound(grid_krein(domain, nodes, sigma))
        assert rep.rank_bound_ok
        assert rep.residual <= 1e-12
        assert rep.max_rel_mismatch <= 1e-12

    def test_certificate_holds_no_n_by_n_array(self):
        k = grid_krein(DomainSpec.unit_box(), 12, 0.5)
        size = k.n_interior + k.n_boundary
        tracemalloc.start()
        try:
            assert krein_identity_check(k).rank_bound_ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size * size * 8 / 2  # one N x N float array would be twice this

    def test_certificate_peak_stays_below_the_whole_array_build(self):
        # [F | Q] (2 N n_B floats) is filled a row block at a time from the rows of G = [K; I],
        # which is never held whole, and released before the 2 n_B x 2 n_B blocks are formed:
        # 2.69 N n_B measured here.  Holding G beside [F | Q] took 3.52 N n_B, and the build of
        # whole F^T and Q^T, which held G, [F | Q]^T and one solve's output at once, 4.17 N n_B
        k = grid_krein(DomainSpec.unit_box(), 12, 0.5)
        size, nB = k.n_interior + k.n_boundary, k.n_boundary
        tracemalloc.start()
        try:
            assert krein_identity_check(k).rank_bound_ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * size * nB * 8

    def test_symmetric_perturbation_fails_certificate(self, monkeypatch):
        k = grid_krein(DomainSpec.unit_square(), 16, 0.5)
        assert krein_identity_check(k).rank_bound_ok
        F = factor(k)
        D = np.random.default_rng(1).standard_normal(F.shape)
        # ||D|| ||F|| = 1e-9: M' - M = F D^T + D F^T + D D^T is a symmetric defect of order 1e-9
        read_perturbed_f(monkeypatch, 1e-9 * D / (np.linalg.norm(D) * np.linalg.norm(F)))
        rep = krein_identity_check(k)
        assert not rep.rank_bound_ok
        assert rep.residual * np.abs(rep.mu_identity).max() > 1e-10

    def test_rank_one_outside_range_fails_both_routes(self, monkeypatch):
        k = grid_krein(DomainSpec.unit_square(), 16, 0.5)
        G, F = basis(k), factor(k)
        rng = np.random.default_rng(2)
        v = rng.standard_normal(G.shape[0])
        v -= G @ np.linalg.lstsq(G, v, rcond=None)[0]  # orthogonal to range([K; I])
        v /= np.linalg.norm(v)
        u = rng.standard_normal(k.n_boundary)
        u /= np.linalg.norm(u)
        scale = np.abs(k.mu_exact()).max()
        # F' = F + D puts 1e-3 scale v v^T and the cross terms F u v^T + v u^T F^T into M' = F' F'^T
        D = np.sqrt(1e-3 * scale) * np.outer(v, u)
        M = (F + D) @ (F + D).T
        read_perturbed_f(monkeypatch, D)
        rep = krein_identity_check(k)
        assert not rep.rank_bound_ok
        assert rep.residual == pytest.approx(materialized_ritz(M, G)[1] / scale, rel=1e-6)
        # the full spectrum of M' holds the defect too: tr M' = tr M + 1e-3 scale, as F^T v = 0
        w = np.linalg.eigvalsh(M)
        assert w.sum() - rep.mu_identity.sum() == pytest.approx(1e-3 * scale, rel=1e-6)
        assert rep.max_rel_mismatch <= 1e-12  # while the Ritz values still match the identity

    @pytest.mark.parametrize("size", [1e-10, 1e-6])
    @pytest.mark.parametrize("domain, nodes", [
        (DomainSpec.unit_square(), 16),
        (DomainSpec.unit_box(), 12),
    ], ids=["square16", "box12"])
    def test_factored_rho_matches_the_materialized_residual(self, monkeypatch, domain, nodes, size):
        # a rank-one defect of F lifts rho far above roundoff, where the trace form and the entries
        # of M' - Q B' Q^T (M' = F' F'^T) must agree to many digits, not only both be tiny.  Any
        # double-precision rho, this oracle's too, carries an absolute error of a fraction of
        # eps ||M'||_F: at size 1e-10 that is up to 1e-7 of rho against an extended-precision rho
        k = grid_krein(domain, nodes, 0.5)
        F = factor(k)
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal(F.shape[0]), rng.standard_normal(F.shape[1])
        D = size * np.linalg.norm(F) * np.outer(x / np.linalg.norm(x), y / np.linalg.norm(y))
        M = (F + D) @ (F + D).T
        read_perturbed_f(monkeypatch, D)
        want = materialized_ritz(M, basis(k))[1]
        assert k.ritz_from_M()[1] == pytest.approx(want, rel=1e-8, abs=np.finfo(float).eps * np.linalg.norm(M))

    def test_certificate_flops_grow_as_n_not_n_squared(self, monkeypatch):
        # box 16: N = 3600, n_B = 225.  The certificate's products, the gram G^T G included, take
        # 19 N n_B^2 flops; forming the entries of M - Q B Q^T alone would take 2 N^2 n_B, 32 N n_B^2.
        # The gram's K^T K is formed with the assembly, so the spy counts from before it
        flops, real = [], _kernels.gemm

        def spy(a, b):
            flops.append(2 * a.shape[0] * a.shape[1] * b.shape[1])
            return real(a, b)

        monkeypatch.setattr(_kernels, "gemm", spy)
        k = grid_krein(DomainSpec.unit_box(), 16, 0.5)
        size, nB = k.n_interior + k.n_boundary, k.n_boundary
        assert krein_identity_check(k).rank_bound_ok
        assert sum(flops) <= 24 * size * nB**2


class TestOneBlasPool:
    """The assembled route's dense products run on scipy's BLAS (_kernels.gemm), never on numpy's."""

    @staticmethod
    def operands():
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((70, 50)), rng.standard_normal((50, 40))
        yield a, b
        yield np.asfortranarray(a), b
        yield a, np.asfortranarray(b)
        yield a.T.T[::2], b[:, 3:33]  # strided in both orders: copied, still the product
        yield a[:, 10:].T, rng.standard_normal((70, 20))
        # the layouts ritz_from_M passes (N = 300, n_B = 40, blocks of 128 rows): row blocks of
        # [F | Q] against F^T Q (C-ordered) and A = (F^T Q)^T (Fortran-ordered), a block's Q half
        # transposed against an F-half product, and the n_B-sized blocks; the whole [F | Q] against
        # itself is one more layout
        fq, nb = rng.standard_normal((300, 80)), 40
        FtQ = rng.standard_normal((nb, nb))
        for lo in range(0, 300, 128):
            rows = fq[lo : lo + 128]
            yield rows[:, :nb], FtQ
            yield rows[:, nb:].T, rows[:, :nb]
            yield rows[:, nb:], FtQ.T
        yield fq.T, fq
        yield FtQ.T, FtQ
        yield rng.standard_normal((2 * nb, 2 * nb)), rng.standard_normal((2 * nb, 2 * nb))

    def test_gemm_is_the_matrix_product(self):
        for a, b in self.operands():
            got, want = _kernels.gemm(a, b), a @ b
            assert got.shape == want.shape and got.flags.c_contiguous
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_route_wakes_no_numpy_blas(self):
        # numpy's linalg and @ run on numpy's own OpenBLAS pool; the assembled route keeps to scipy's
        text = pathlib.Path(zaremba.__file__).read_text()
        assert not re.search(r"\b(np|numpy)\.linalg\b", text)
        for obj in (zaremba.KreinAssembly, discretize.schur_split, discretize._level_sweep, discretize._factor):
            code = inspect.getsource(obj)
            assert not re.search(r"\b(np|numpy)\.linalg\b", code)
            assert not re.search(r"[\w)\]][ \t]*@[ \t]*[\w(]", code), obj  # a matmul, not a decorator


class TestKreinGrid:
    def setup_method(self):
        self.grid = build_grid(DomainSpec.unit_square(), 16)
        self.co = SecondOrderCoeffs.laplacian(2)

    def test_identity_on_grid(self):
        k = krein_term(self.co, 0.5, self.grid)
        rep = krein_identity_check(k)
        assert rep.max_rel_mismatch <= 1e-10
        assert rep.rank_bound_ok

    def test_auto_shift_floor(self):
        # positive operators still get the unit shift from 1 + max(0, -2 min)
        k = krein_term(self.co, 0.5, self.grid)
        assert k.shift == 1.0

    def test_zero_shift_override(self):
        k = krein_term(self.co, 0.5, self.grid, shift=0.0)
        assert k.shift == 0.0
        assert krein_identity_check(k).max_rel_mismatch <= 1e-10

    def test_robin_monotone_to_dirichlet(self):
        mus = [krein_term(self.co, s, self.grid, shift=1.0).mu_exact()
               for s in (1.0, 10.0, 1e6)]
        assert np.all(mus[1] <= mus[0] + 1e-12)
        assert np.all(mus[2] <= mus[1] + 1e-12)
        assert mus[2].max() < 1e-5  # Dirichlet limit kills the difference

    def test_partition_interlacing(self):
        ids = self.grid.sigma_plus_idx
        full = krein_term(self.co, 0.5, self.grid, shift=1.0)
        half = krein_term(self.co, 0.5, self.grid, partition=ids[::2], shift=1.0)
        quart = krein_term(self.co, 0.5, self.grid, partition=ids[::4], shift=1.0)
        mu_f, mu_h, mu_q = full.mu_exact(), half.mu_exact(), quart.mu_exact()
        assert mu_h.size < mu_f.size
        assert np.all(mu_h <= mu_f[: mu_h.size] + 1e-12)
        assert np.all(mu_q <= mu_h[: mu_q.size] + 1e-12)

    def test_partition_outside_free_set_rejected(self):
        bad = [int(self.grid.interior_idx[0])]
        with pytest.raises(ConfigurationError):
            krein_term(self.co, 0.5, self.grid, partition=bad)

    def test_weighted_interface_spectrum(self):
        k = krein_term(self.co, 0.5, self.grid, shift=1.0)
        lam = k.weighted_L_spectrum()
        assert lam.min() > 0.0
        assert np.all(np.diff(lam) >= -1e-12)
        # the form-unit Schur complement h^n S over the boundary weight h^(n-1), in 2d
        h, n = self.grid.h, self.grid.n
        root = 1.0 / np.sqrt(h ** (n - 1))
        assert np.allclose(k.L_weighted, root * (h**n * k.S) * root, atol=1e-14)


KD = 1.0 / 128.0


def kappa_discrete(xi, h):
    s = 2.0 * np.sin(xi * h / 2.0) / h
    return s * np.sqrt(1.0 + (h * s / 2.0) ** 2)


def direct_strip_schur(a, n_x, h, n_rows):
    """Dense Schur complement of a periodic strip onto its bottom row.

    Same energy conventions as the grid assembler: half tangential edge
    weight on the boundary row, Dirichlet top layer eliminated, constant
    cross terms through the diagonal-difference cell form.  Returns the
    per-mode interface values via the circulant symbol of the Schur
    block.
    """
    size = n_rows * n_x
    T = np.zeros((size, size))
    idx = lambda j, k: j * n_x + (k % n_x)

    def add_edge(p, q, w):
        T[p, p] += w
        T[q, q] += w
        T[p, q] -= w
        T[q, p] -= w

    for j in range(n_rows):
        wx = a[0, 0] * (0.5 if j == 0 else 1.0)
        for k in range(n_x):
            add_edge(idx(j, k), idx(j, k + 1), wx)
    for j in range(n_rows):
        for k in range(n_x):
            if j + 1 < n_rows:
                add_edge(idx(j, k), idx(j + 1, k), a[1, 1])
            else:
                T[idx(j, k), idx(j, k)] += a[1, 1]  # edge into the Dirichlet layer
    half = a[0, 1] / 2.0
    for j in range(n_rows):
        for k in range(n_x):
            sw, se = idx(j, k), idx(j, k + 1)
            if j + 1 < n_rows:
                nw, ne = idx(j + 1, k), idx(j + 1, k + 1)
                # (a12/2) [ (u_ne - u_sw)^2 - (u_nw - u_se)^2 ]
                T[ne, ne] += half
                T[sw, sw] += half
                T[ne, sw] -= half
                T[sw, ne] -= half
                T[nw, nw] -= half
                T[se, se] -= half
                T[nw, se] += half
                T[se, nw] += half
            else:
                T[sw, sw] += half
                T[se, se] -= half
    bot = np.arange(n_x)
    rest = np.arange(n_x, size)
    S = T[np.ix_(bot, bot)] - T[np.ix_(bot, rest)] @ np.linalg.solve(
        T[np.ix_(rest, rest)], T[np.ix_(rest, bot)]
    )
    return np.real(np.fft.fft(S[0]))


class TestDtnProbe:
    def test_laplacian_prediction(self):
        rep = dtn_symbol_probe(SecondOrderCoeffs.laplacian(2), [1.0], h=KD)
        assert rep.predicted[0] == pytest.approx(-1.0, abs=1e-14)
        assert rep.rel_errors[0] < 1e-4

    def test_laplacian_matches_discrete_symbol(self):
        # per-mode elimination is exact: the strip value is the lattice
        # dispersion kappa_h = s sqrt(1 + h^2 s^2 / 4), s = 2 sin(xi h/2)/h
        rep = dtn_symbol_probe(SecondOrderCoeffs.laplacian(2), [1.0, 2.0, 3.0], h=KD)
        want = -kappa_discrete(rep.xi, KD)
        assert np.allclose(rep.measured, want, rtol=1e-10)

    @pytest.mark.parametrize(
        "mat,kappa",
        [
            (np.eye(2), 1.0),
            (np.diag([1.0, 4.0]), 2.0),
            ([[2.0, 1.0], [1.0, 2.0]], np.sqrt(3.0)),
        ],
    )
    def test_tenth_accuracy_at_standard_spacing(self, mat, kappa):
        co = SecondOrderCoeffs(2, a=np.asarray(mat, dtype=float))
        rep = dtn_symbol_probe(co, [1.0], h=KD)
        assert rep.predicted[0] == pytest.approx(-kappa, rel=1e-12)
        assert rep.rel_errors[0] <= 0.10

    def test_second_order_refinement(self):
        co = SecondOrderCoeffs(2, a=np.array([[2.0, 1.0], [1.0, 2.0]]))
        coarse = dtn_symbol_probe(co, [1.0, 2.0], h=1.0 / 128.0)
        fine = dtn_symbol_probe(co, [1.0, 2.0], h=1.0 / 256.0)
        assert np.all(fine.rel_errors <= 0.7 * coarse.rel_errors)

    def test_against_direct_strip_elimination(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        n_x, n_rows = 16, 40
        h = 2.0 * np.pi / n_x
        sym = direct_strip_schur(a, n_x, h, n_rows)
        co = SecondOrderCoeffs(2, a=a)
        rep = dtn_symbol_probe(co, [1.0, 2.0, 3.0], h=h, height=n_rows * h)
        assert rep.meta["rows"] == n_rows
        direct = -sym[[1, 2, 3]] / h
        assert np.allclose(rep.measured, direct, rtol=1e-10)

    def test_incommensurate_frequency_rejected(self):
        with pytest.raises(ConfigurationError):
            dtn_symbol_probe(SecondOrderCoeffs.laplacian(2), [1.5], h=KD)

    def test_zero_frequency_rejected(self):
        with pytest.raises(ConfigurationError):
            dtn_symbol_probe(SecondOrderCoeffs.laplacian(2), [0.0], h=KD)

    def test_variable_coefficients_rejected(self):
        co = SecondOrderCoeffs(2, a=lambda x: np.eye(2) * (1.0 + x[0] ** 2))
        with pytest.raises(ConfigurationError):
            dtn_symbol_probe(co, [1.0], h=KD)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ConfigurationError):
            dtn_symbol_probe(SecondOrderCoeffs.laplacian(3), [1.0], h=KD)

    @pytest.mark.parametrize("h", [0.0, -0.01, np.nan, np.inf])
    def test_bad_spacing_rejected(self, h):
        with pytest.raises(ConfigurationError, match="strip spacing h"):
            dtn_symbol_probe(SecondOrderCoeffs.laplacian(2), [1.0], h=h)


def radial_mode_reduction_banded(n_r, n_theta, radius, shift, m):
    """Per-mode (s_m, q_m) of the disk's radial chain by one banded solve.

    The slow path the batched chain core replaced: the centre joins the
    m = 0 chain only, the boundary ring's value is 1, and the extension
    mass sums the interior node volumes.
    """
    dr = radius / n_r
    dth = 2.0 * np.pi / n_theta
    mang = 2.0 - 2.0 * np.cos(m * dth)
    r = dr * np.arange(1, n_r + 1)
    w_rad = (r[:-1] + 0.5 * dr) * dth / dr
    w_ang = dr / (r * dth)
    w_ang[-1] *= 0.5
    vol = r * dr * dth
    vol[-1] *= 0.5

    with_center = m == 0
    n_int = (n_r - 1) + (1 if with_center else 0)
    diag = np.zeros(n_int)
    off = np.zeros(max(n_int - 1, 0))
    base = 1 if with_center else 0
    for j in range(n_r - 1):
        pos = base + j
        diag[pos] += w_ang[j] * mang + shift * vol[j]
        if j + 1 < n_r - 1:
            diag[pos] += w_rad[j]
            diag[base + j + 1] += w_rad[j]
            off[pos] = -w_rad[j]
        else:
            diag[pos] += w_rad[j]
    diag[base] += dth / 2.0
    if with_center:
        diag[0] += dth / 2.0 + shift * (np.pi * (dr / 2.0) ** 2) / n_theta
        off[0] = -dth / 2.0
    s_diag = w_ang[-1] * mang + w_rad[-1] + shift * vol[-1]

    ab = np.zeros((3, n_int))
    ab[0, 1:] = off
    ab[1] = diag
    ab[2, :-1] = off
    rhs = np.zeros(n_int)
    rhs[-1] = w_rad[-1]
    u = sla.solve_banded((1, 1), ab, rhs)
    vols = np.concatenate(([np.pi * (dr / 2.0) ** 2 / n_theta], vol[: n_r - 1])) if with_center else vol[: n_r - 1]
    return s_diag - w_rad[-1] * u[-1], vols @ u**2


@st.composite
def hermitian_chains(draw):
    """A batch of diagonally dominant Hermitian tridiagonal chains with a free end node."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    modes, length = draw(st.integers(1, 6)), draw(st.integers(1, 30))
    cplx = draw(st.booleans())
    off = rng.standard_normal((modes, length - 1)) + (1j * rng.standard_normal((modes, length - 1)) if cplx else 0.0)
    c = rng.standard_normal(modes) + (1j * rng.standard_normal(modes) if cplx else 0.0)
    diag = rng.uniform(0.5, 2.0, (modes, length)) + 2.0 * np.abs(np.pad(off, ((0, 0), (1, 1)))).max(axis=1, keepdims=True)
    return diag, off, rng.uniform(0.5, 2.0, modes) + np.abs(c), c, rng.uniform(0.1, 1.0, (modes, length))


class TestChainCore:
    """The batched chain-Schur sweep against dense elimination and the per-mode banded solves."""

    @settings(max_examples=40, deadline=None)
    @given(hermitian_chains())
    def test_matches_dense_schur_and_extension(self, chains):
        diag, off, d_free, c, vol = chains
        s, q = chain_schur(diag, off, d_free, c, vol)
        for m in range(diag.shape[0]):
            T = np.diag(diag[m]).astype(complex) + np.diag(off[m], 1) + np.diag(np.conj(off[m]), -1)
            b = np.zeros(diag.shape[1], dtype=complex)
            b[-1] = c[m]
            u = -np.linalg.solve(T, b)
            want_s = d_free[m] + np.vdot(b, u).real
            assert s[m] == pytest.approx(want_s, rel=1e-12, abs=1e-12 * abs(d_free[m]))
            assert q[m] == pytest.approx(vol[m] @ np.abs(u) ** 2, rel=1e-12)

    @pytest.mark.parametrize("n_r, n_theta", [(1024, 640), (128, 256)], ids=["1024x640", "128x256"])
    @pytest.mark.parametrize("shift", [0.0, 2.5])
    def test_disk_chains_match_banded_oracle(self, n_r, n_theta, shift):
        modes = np.arange(n_theta // 2 + 1)
        s, q = _radial_chains(n_r, n_theta, 1.0, shift, modes)
        ref = np.array([radial_mode_reduction_banded(n_r, n_theta, 1.0, shift, m) for m in modes])
        scale = np.abs(ref[:, 0]).max()
        assert np.max(np.abs(s - ref[:, 0])) <= 1e-10 * scale
        assert np.max(np.abs(q - ref[:, 1])) <= 1e-10 * np.abs(ref[:, 1]).max()

    def test_overflowing_pivots_refuse_a_zero_mass(self):
        # pivots near 1e200 square past the float range, so the masses would read 0 where c != 0;
        # a zero coupling c keeps its zero mass
        diag = np.full((2, 4), 1e200)
        with pytest.raises(NumericError, match="lost an extension mass"):
            chain_schur(diag, np.full((2, 3), -1.0), diag[:, 0], np.array([-1.0, 0.0]), np.ones((2, 4)))
        s, q = chain_schur(diag, np.full((2, 3), -1.0), diag[:, 0], np.zeros(2), np.ones((2, 4)))
        assert np.array_equal(q, np.zeros(2)) and np.array_equal(s, diag[:, 0])

    def test_holds_no_per_layer_array(self):
        # 4096 modes x 1024 layers as broadcast views, as the face route passes them: one
        # (modes, layers) float array would be 32 MiB, and the sweep keeps vectors over the modes only
        modes, length = 4096, 1024
        diag = np.broadcast_to(np.linspace(2.5, 4.0, modes)[:, None], (modes, length))
        off = np.broadcast_to(-1.0, (modes, length - 1))
        vol = np.broadcast_to(1.0 / length, (modes, length))
        tracemalloc.start()
        try:
            s, q = chain_schur(diag, off, diag[:, 0], np.full(modes, -1.0), vol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(s > 0.0) and np.all(q > 0.0)
        assert peak < 4 * 2**20


class TestDiskSpectra:
    def dual_route(self, shift):
        pg = PolarDiskGrid(n_r=10, n_theta=16, radius=1.0, arc=(0.0, np.pi))
        F = assemble_polar_laplacian(pg)
        vols = np.asarray(F.meta["volumes"])
        mat = F.matrix + sp.diags(shift * vols) if shift else F.matrix
        K, S = schur_split(mat, F.rows("interior"), F.rows("sigma_plus"))
        # the polar form, weighted by the polar node volumes and the arc length 2 pi / 16
        mu = sla.eigh((K * vols[F.rows("interior")][:, None]).T @ K, S, eigvals_only=True)[::-1]
        L = S / (2.0 * np.pi / 16.0)
        fast = disk_interface_spectra(10, 16, arc=(0.0, np.pi), shift=shift)
        return mu, L, fast

    def test_mode_route_matches_assembled_route(self):
        mu_g, L_g, fast = self.dual_route(0.0)
        assert np.max(np.abs(mu_g - fast.mu)) <= 1e-12 * fast.mu[0]
        assert np.max(np.abs(L_g - fast.L_weighted)) <= 1e-12 * np.abs(fast.L_weighted).max()

    def test_mode_route_matches_with_volume_shift(self):
        mu_g, L_g, fast = self.dual_route(2.5)
        assert np.max(np.abs(mu_g - fast.mu)) <= 1e-12 * fast.mu[0]
        assert np.max(np.abs(L_g - fast.L_weighted)) <= 1e-12 * np.abs(fast.L_weighted).max()

    def test_robin_adds_exact_diagonal(self):
        base = disk_interface_spectra(10, 16, shift=0.0)
        robin = disk_interface_spectra(10, 16, shift=0.0, sigma=3.0)
        want = base.S_plus + 3.0 * (2.0 * np.pi / 16.0) * np.eye(base.S_plus.shape[0])
        assert np.array_equal(robin.S_plus, want)

    def test_half_circle_inverse_square_law(self):
        # resolvent-difference spectrum of the half-circle interface: the
        # k-th value behaves like 1/(2 k (k+1)), an inverse-square law
        d = disk_interface_spectra(1024, 640, arc=(0.0, np.pi), shift=1.0)
        assert d.mu.size == 319
        j = np.arange(1, d.mu.size + 1)
        pred = 1.0 / (2.0 * j * (j + 1.0))
        band = slice(9, 64)
        assert np.max(np.abs(d.mu[band] - pred[band]) / pred[band]) <= 0.07
        lo, hi = 8, 64
        A = np.vstack([np.log(j[lo:hi]), np.ones(hi - lo)]).T
        slope = np.linalg.lstsq(A, np.log(d.mu[lo:hi]), rcond=None)[0][0]
        assert slope == pytest.approx(-2.0, abs=0.2)

    def test_interface_spectrum(self):
        d = disk_interface_spectra(12, 24, arc=(0.5, 4.0), shift=1.0, sigma=0.3)
        w = sla.eigvalsh(d.L_weighted)
        assert np.allclose(d.interface, w, rtol=1e-12, atol=0.0)
        assert np.all(np.diff(d.interface) >= 0.0)

    def test_spectrum_positive_descending(self):
        d = disk_interface_spectra(12, 24, shift=1.0)
        assert d.mu.min() > 0.0
        assert np.all(np.diff(d.mu) <= 1e-15)

    def test_arc_distances_symmetric(self):
        d = disk_interface_spectra(12, 32, arc=(0.0, np.pi), shift=1.0)
        assert np.allclose(d.arc_distances, d.arc_distances[::-1], atol=1e-12)
        assert d.arc_distances.min() > 0.0

    def test_record_and_flag(self):
        d = disk_interface_spectra(10, 16, shift=1.0)
        assert d.report["n2_flagged"] is True

    def test_bad_arc_rejected(self):
        with pytest.raises(ConfigurationError):
            disk_interface_spectra(10, 16, arc=(2.0, 1.0))

    def test_too_coarse_rejected(self):
        with pytest.raises(ConfigurationError):
            disk_interface_spectra(2, 16)

    def test_indefinite_arc_schur_rejected(self):
        with pytest.raises(NotPositiveError):
            disk_interface_spectra(10, 16, shift=-5.0)


def box_face_chain_mu(N, shift, half_cell=False):
    """Per-mode normal-chain spectrum for the unit box with one free face.

    Tangential sine modes diagonalize the separable assembly, so each
    (m1, m2) reduces to a scalar interface Schur complement s_m and an
    extension mass q_m from one tridiagonal solve.  Fully independent of
    the sparse assembly and of the dense eigensolve.
    """
    import scipy.linalg

    h = 1.0 / N
    out = []
    for m1 in range(1, N):
        for m2 in range(1, N):
            lam = 4 * np.sin(np.pi * m1 * h / 2) ** 2 + 4 * np.sin(np.pi * m2 * h / 2) ** 2
            nz = N - 1
            ab = np.zeros((3, nz))
            ab[0, 1:] = -1.0 / h**2
            ab[2, :-1] = -1.0 / h**2
            ab[1] = (2.0 + lam) / h**2 + shift
            rhs = np.zeros(nz)
            rhs[0] = 1.0 / h**2
            u = scipy.linalg.solve_banded((1, 1), ab, rhs)
            a_bb = (lam / 2 + 1.0) / h**2 + shift / 2
            s_m = a_bb - u[0] / h**2
            q_m = u @ u + (0.5 if half_cell else 0.0)
            out.append(q_m / s_m)
    return np.sort(np.array(out))[::-1]


class TestBoxFaceModes:
    def setup_method(self):
        grid = build_grid(DomainSpec.unit_box(), 12)
        self.k = krein_term(SecondOrderCoeffs.laplacian(3), 0.0, grid, shift="auto")

    def test_separable_mode_oracle_matches_assembly(self):
        assert self.k.shift == 1.0
        mu = self.k.weighted_mu()
        oracle = box_face_chain_mu(12, shift=1.0)
        assert mu.size == oracle.size == 11 * 11
        assert np.max(np.abs(mu - oracle) / oracle) <= 1e-11

    def test_separable_mode_oracle_half_cell(self):
        mu = self.k.weighted_mu(half_cell=True)
        oracle = box_face_chain_mu(12, shift=1.0, half_cell=True)
        assert np.max(np.abs(mu - oracle) / oracle) <= 1e-11

    def test_half_cell_between_lean_and_trace_mass(self):
        # the diagonal increment h*w_B/2 >= 0 gives elementwise ordering
        lean = self.k.weighted_mu()
        half = self.k.weighted_mu(half_cell=True)
        assert np.all(half >= lean - 1e-15)

    def test_fine_grid_interface_law(self):
        # 64 layers via the separable reduction: the trapezoid-corrected
        # spectrum follows c j^{-1} with c = 1/(8 pi) jointly in slope and
        # level (measured -0.88 and -17% on modes 8..40), which pins the
        # coarse-grid misses at 16 layers on resolution, not assembly
        mu = box_face_chain_mu(64, shift=1.0, half_cell=True)
        fit = weyl_fit(mu, window=(8, 40))
        fixed = weyl_fit(mu, window=(8, 40), fixed_exponent=-1.0)
        target = 1.0 / (8.0 * np.pi)
        assert abs(fit.exponent - (-1.0)) <= 0.15
        assert abs(fixed.constant - target) / target <= 0.30


def grid_route(coeffs, sigma, domain, nodes):
    """interface_spectra on a square or box, whose route reads no disk resolution."""
    return interface_spectra(coeffs, sigma, domain, nodes, n_r=None, n_theta=None)


class TestFaceModes:
    """face_mode_spectra against the assembled krein_term route and the test-side chain oracle."""

    @pytest.mark.parametrize("domain, nodes, coeffs, sigma, part", [
        (DomainSpec.unit_box(), 12, np.eye(3), 0.0, "full"),
        (DomainSpec.unit_box(), 12, np.eye(3), 0.5, "every-third"),
        (DomainSpec.unit_box(), 16, np.diag([1.0, 2.0, 0.5]), 1.5, "full"),
        (DomainSpec.unit_box(), 16, np.eye(3), 0.0, "half"),
        (DomainSpec.unit_square(), 32, np.diag([2.0, 0.7]), 0.75, "full"),
        (DomainSpec.unit_square(sigma_plus=("x+",)), 32, np.diag([2.0, 0.7]), 0.75, "every-third"),
    ], ids=["box12", "box12-robin-patch", "box16-robin-diag", "box16-patch", "square32-robin",
            "square32-xface-robin-patch"])
    def test_matches_assembled_route(self, domain, nodes, coeffs, sigma, part):
        grid = build_grid(domain, nodes)
        ids = grid.sigma_plus_idx
        partition = {"full": None, "every-third": ids[::3], "half": ids[: ids.size // 2]}[part]
        co = SecondOrderCoeffs(grid.n, a=coeffs)
        k = krein_term(co, sigma, grid, partition=partition, shift=1.0)
        positions = None if partition is None else np.searchsorted(ids, partition)
        f = face_mode_spectra(co, sigma, domain, nodes, partition=positions, shift=1.0)
        mu, lam = k.weighted_mu(), k.weighted_L_spectrum()
        assert f.mu.size == mu.size == k.n_boundary == f.report["boundary_nodes"]
        assert f.report["interior_nodes"] == k.n_interior
        assert np.max(np.abs(f.mu - mu) / mu) <= 1e-11
        assert np.max(np.abs(f.interface - lam) / lam) <= 1e-11

    def test_matches_chain_oracle(self):
        f = face_mode_spectra(SecondOrderCoeffs.laplacian(3), 0.0, DomainSpec.unit_box(), 64, shift=1.0)
        oracle = box_face_chain_mu(64, shift=1.0)
        assert np.max(np.abs(f.mu - oracle) / oracle) <= 1e-11

    def test_route_past_the_cap(self, monkeypatch):
        box, co = DomainSpec.unit_box(), SecondOrderCoeffs.laplacian(3)
        res = grid_route(co, 0.5, box, 16)
        assert res.report["krein_path"] == "assembled"
        assert res.report["interior_nodes"] + res.report["boundary_nodes"] == 3600
        assert res.identity.rank_bound_ok and res.identity.max_rel_mismatch <= 1e-10
        builds = []
        monkeypatch.setattr(zaremba, "build_grid", lambda *a: builds.append(a))
        res = grid_route(co, 0.5, box, 24)  # 12696 nodes
        assert (res.report["krein_path"], res.identity, builds) == ("modes", None, [])
        monkeypatch.undo()
        cross = SecondOrderCoeffs(3, a=np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 1.0]]))
        for coeffs, sigma in ((cross, 0.5), (co, -0.5)):
            assert grid_route(coeffs, sigma, box, 16).report["krein_path"] == "assembled"
            work = []
            with monkeypatch.context() as m:
                m.setattr(zaremba, "assemble_second_order", lambda *a, **k: work.append("assemble"))
                m.setattr(zaremba, "schur_split", lambda *a: work.append("schur_split"))
                with pytest.raises(NumericError, match="M would be 12696x12696, above the 8192 cap"):
                    grid_route(coeffs, sigma, box, 24)
            assert work == []

    def test_disk_refuses_other_forms_before_the_work(self, monkeypatch):
        calls = []
        monkeypatch.setattr(zaremba, "disk_interface_spectra", lambda *a, **k: calls.append(a))
        with pytest.raises(ConfigurationError, match=r"Laplacian only, not coefficients diag\(1,4\)"):
            interface_spectra(SecondOrderCoeffs(2, a=np.diag([1.0, 4.0])), 0.0, DomainSpec.disk(), 16, 16, 32)
        assert calls == []

    def test_cap_read_from_eig(self, monkeypatch):
        # eig.DENSE_CAP is the one cap, read at call time by the route choice and by the certificate
        box, co = DomainSpec.unit_box(), SecondOrderCoeffs.laplacian(3)
        assert grid_route(co, 0.5, box, 12).report["krein_path"] == "assembled"
        k = krein_term(co, 0.5, build_grid(box, 12))
        monkeypatch.setattr(eig, "DENSE_CAP", 1000)
        assert grid_route(co, 0.5, box, 12).report["krein_path"] == "modes"  # 11^3 + 11^2 = 1452 nodes
        with pytest.raises(NumericError, match="M would be 1452x1452, above the 1000 cap"):
            krein_identity_check(k)

    def test_non_separable_rejected(self):
        square = DomainSpec.unit_square()
        cross = SecondOrderCoeffs(2, a=np.array([[2.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(ConfigurationError):
            face_mode_spectra(cross, 0.0, square, 16)
        with pytest.raises(ConfigurationError):
            face_mode_spectra(SecondOrderCoeffs.laplacian(2), 0.0, DomainSpec.unit_square(("x-", "y-")), 16)
        with pytest.raises(ConfigurationError):
            face_mode_spectra(SecondOrderCoeffs.laplacian(2), 0.0, square, 16, partition=[15])


class TestAutoShift:
    """shift "auto" is exactly 1 on separable inputs, with no estimate; elsewhere the Lanczos estimate."""

    @staticmethod
    def spy(monkeypatch):
        calls, real = [], zaremba.lanczos_extreme
        monkeypatch.setattr(zaremba, "lanczos_extreme", lambda *a, **k: calls.append(1) or real(*a, **k))
        return calls

    def test_separable_input_takes_one_without_lanczos(self, monkeypatch):
        calls = self.spy(monkeypatch)
        square, co = DomainSpec.unit_square(), SecondOrderCoeffs.laplacian(2)
        grid = build_grid(square, 16)
        auto = krein_term(co, 0.5, grid)
        assert calls == [] and auto.shift == 1.0
        assert np.array_equal(auto.S, krein_term(co, 0.5, grid, shift=1.0).S)
        for nodes in (16, 128):  # the assembled route and, past the cap, the face modes
            assert grid_route(co, 0.5, square, nodes).report["shift"] == 1.0
        disk = interface_spectra(co, 0.5, DomainSpec.disk(), None, 16, 32)
        assert disk.report["shift"] == 1.0 and calls == []

    @pytest.mark.parametrize("n_r, n_theta", [(16, 32), (64, 96)])
    def test_disk_doubling_stops_at_the_scale_unsolved(self, monkeypatch, n_r, n_theta):
        # no shift makes S positive for sigma = -1e300: the doubling solves at 1, 2, 4, ... up to the
        # operator's scale and refuses the next shift before solving it, at most ceil(log2 scale) + 2 solves
        shifts, real = [], zaremba.disk_interface_spectra
        monkeypatch.setattr(zaremba, "disk_interface_spectra",
                            lambda *a, **k: shifts.append(k["shift"]) or real(*a, **k))
        scale = zaremba._disk_scale(n_r, n_theta, 1.0)
        with pytest.raises(NumericError, match="past the disk operator's scale"):
            interface_spectra(SecondOrderCoeffs.laplacian(2), -1e300, DomainSpec.disk(), None, n_r, n_theta)
        assert len(shifts) <= np.ceil(np.log2(scale)) + 2
        assert max(shifts) <= scale < 2.0 * max(shifts)

    def test_negative_sigma_keeps_the_estimate(self, monkeypatch):
        # a Robin weight of -5 makes the unshifted assembly indefinite: auto lifts it past 1
        calls = self.spy(monkeypatch)
        k = krein_term(SecondOrderCoeffs.laplacian(2), -5.0, build_grid(DomainSpec.unit_square(), 16))
        assert len(calls) == 1 and k.shift == pytest.approx(23.615228374033318, rel=1e-8)
        rep = krein_identity_check(k)
        assert rep.max_rel_mismatch <= 1e-10 and rep.rank_bound_ok
