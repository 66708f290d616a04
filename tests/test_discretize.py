"""Grid construction, second-order assembly, and fractional restriction.

Two contrast objects live here, since only tests use them: a
boundary-fitted polar disk grid with its form-unit Laplacian (the
assembled oracle of the disk mode route in zaremba, imported by
test_zaremba), and the dense fractional power of a matrix by
eigendecomposition, on the whole matrix of a coefficient form on the
torus of a RestrictedPowerOperator (the operator's oracle and the route
of criterion 05, imported by test_acceptance).
"""

import pathlib
import re
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.special import jn_zeros

import fracspec
from fracspec._kernels import toeplitz_gather
from fracspec.discretize import (
    OperatorMatrix,
    RestrictedPowerOperator,
    _distance_to_boundary,
    _even_kernel,
    _multiplier_values,
    assemble_second_order,
    build_grid,
    schur_split,
)
from fracspec.errors import ConfigurationError, InvariantError, NotPositiveError, NumericError
from fracspec.quadrature import DomainSpec
from fracspec.symbols import SecondOrderCoeffs
from fracspec.zaremba import krein_from_matrix


def laplacian(n):
    return SecondOrderCoeffs.laplacian(n)


# ---------------------------------------------------------------------------
# polar disk grid (boundary-fitted, n = 2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolarDiskGrid:
    """Polar grid on a disk: a center node plus n_r rings of n_theta nodes.

    Node 0 is the center; ring j (1-based radius j*dr) occupies the slice
    1 + (j-1)*n_theta + k for angle index k.  The outermost ring carries
    the boundary; sigma_plus is the relative interior of the given arc.
    """

    radius: float
    n_r: int
    n_theta: int
    arc: tuple

    def __post_init__(self):
        if self.n_r < 4 or self.n_theta < 8:
            raise ConfigurationError("polar grid needs n_r >= 4 and n_theta >= 8")

    @property
    def dr(self) -> float:
        return self.radius / self.n_r

    @property
    def dtheta(self) -> float:
        return 2.0 * np.pi / self.n_theta

    @property
    def size(self) -> int:
        return 1 + self.n_r * self.n_theta

    def node_id(self, j: int, k: int) -> int:
        return 1 + (j - 1) * self.n_theta + k % self.n_theta

    @property
    def thetas(self) -> np.ndarray:
        return self.dtheta * np.arange(self.n_theta)

    @property
    def interior_idx(self) -> np.ndarray:
        return np.arange(0, 1 + (self.n_r - 1) * self.n_theta)

    @property
    def boundary_idx(self) -> np.ndarray:
        return np.arange(1 + (self.n_r - 1) * self.n_theta, self.size)

    @property
    def boundary_arc_mask(self) -> np.ndarray:
        """Relative interior of the arc among boundary-ring angles."""
        th0, th1 = self.arc
        th = self.thetas
        eps = 1e-12
        return (th > th0 + eps) & (th < th1 - eps)

    @property
    def sigma_plus_idx(self) -> np.ndarray:
        return self.boundary_idx[self.boundary_arc_mask]

    @property
    def sigma_minus_idx(self) -> np.ndarray:
        return self.boundary_idx[~self.boundary_arc_mask]

    def points(self) -> np.ndarray:
        pts = np.zeros((self.size, 2))
        r = self.dr * np.arange(1, self.n_r + 1)
        th = self.thetas
        rr, tt = np.meshgrid(r, th, indexing="ij")
        pts[1:, 0] = (rr * np.cos(tt)).ravel()
        pts[1:, 1] = (rr * np.sin(tt)).ravel()
        return pts

    def volumes(self) -> np.ndarray:
        """Dual-cell areas (half cell on the boundary ring)."""
        v = np.empty(self.size)
        v[0] = np.pi * (0.5 * self.dr) ** 2
        r = self.dr * np.arange(1, self.n_r + 1)
        ring = r * self.dr * self.dtheta
        ring[-1] = r[-1] * (0.5 * self.dr) * self.dtheta
        v[1:] = np.repeat(ring, self.n_theta).reshape(self.n_r, self.n_theta).ravel()
        return v

    def arc_weights(self) -> np.ndarray:
        """Per-node boundary arc length on the outer ring."""
        return np.full(self.n_theta, self.radius * self.dtheta)


def assemble_polar_laplacian(grid: PolarDiskGrid, sigma: float = 0.0) -> OperatorMatrix:
    """Form-unit assembly of the Laplacian on the polar disk grid.

    Radial edges carry r_mid * dtheta / dr, angular edges dr / (r dtheta),
    center-to-ring edges dtheta / 2; a Robin term sigma adds arc weights
    on sigma_plus.  Natural boundary on the outer ring; returned with all
    boundary nodes present, ordered interior then sigma_plus then
    sigma_minus by row sets in meta.
    """
    nt, nr, dr, dth = grid.n_theta, grid.n_r, grid.dr, grid.dtheta
    rows, cols, vals = [], [], []

    def add_edge(a, b, w):
        rows.extend((a, b, a, b))
        cols.extend((a, b, b, a))
        vals.extend((w, w, -w, -w))

    for k in range(nt):
        add_edge(0, grid.node_id(1, k), 0.5 * dth)
    for j in range(1, nr):
        r_mid = (j + 0.5) * dr
        w = r_mid * dth / dr
        for k in range(nt):
            add_edge(grid.node_id(j, k), grid.node_id(j + 1, k), w)
    for j in range(1, nr + 1):
        r_j = j * dr
        w = dr / (r_j * dth)
        if j == nr:
            w *= 0.5  # half dual cell outside the boundary ring
        for k in range(nt):
            add_edge(grid.node_id(j, k), grid.node_id(j, (k + 1) % nt), w)

    mat = sp.csr_matrix((vals, (rows, cols)), shape=(grid.size, grid.size))
    mat.sum_duplicates()
    if sigma:
        aw = grid.arc_weights()
        mask = grid.boundary_arc_mask
        d = np.zeros(grid.size)
        d[grid.boundary_idx[mask]] = sigma * aw[mask]
        mat = mat + sp.diags(d)

    order = np.concatenate([grid.interior_idx, grid.sigma_plus_idx, grid.sigma_minus_idx])
    perm = mat[order][:, order]
    ni, npl = grid.interior_idx.size, grid.sigma_plus_idx.size
    row_sets = {
        "interior": np.arange(ni),
        "sigma_plus": ni + np.arange(npl),
        "sigma_minus": ni + npl + np.arange(grid.sigma_minus_idx.size),
    }
    meta = {
        "row_sets": row_sets,
        "node_ids": order,
        "h": dr,
        "volumes": grid.volumes()[order],
        "arc_weights": grid.arc_weights(),
        "sigma": sigma,
    }
    return OperatorMatrix(perm, None, "Laplacian form on a polar disk grid", meta)


# ---------------------------------------------------------------------------
# dense fractional power by eigendecomposition
# ---------------------------------------------------------------------------


def torus_matrix(coeffs: SecondOrderCoeffs, torus: tuple, h: float) -> np.ndarray:
    """Dense matrix of the multiplier xi . A xi on a torus of spacing h: its even kernel read at every pair of nodes."""
    kern = _even_kernel(_multiplier_values(coeffs, torus, h))
    multi = np.stack(np.unravel_index(np.arange(kern.size), torus), axis=-1)
    return toeplitz_gather(kern.ravel(), multi, torus)


def dense_power(base, a: float, interior=None) -> np.ndarray:
    """(base^a)[interior, interior] of a symmetric positive semidefinite matrix; every row by default.

    base is dense, or has toarray().  Its power is V diag(w^a) V^T from
    one eigendecomposition, rounding below 0 in w clipped, formed as
    F F^T with F = V diag(w^(a/2)), so it is symmetric bit for bit.  On
    torus_matrix(coeffs, op.torus, h) and op.interior, op a
    RestrictedPowerOperator on a grid of spacing h, this is r+ P_a e+ by
    the slow generic route, against the operator's transforms.
    """
    w, V = sla.eigh(base.toarray() if hasattr(base, "toarray") else base)
    F = V * np.clip(w, 0.0, None) ** (0.5 * a)
    R = F @ F.T
    return R if interior is None else R[np.ix_(interior, interior)]


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


class TestBuildGrid:
    def test_interval_counts(self):
        g = build_grid(DomainSpec.unit_interval(), 16)
        assert g.shape == (17,)
        assert g.interior_idx.size == 15
        # x- face is Sigma+, the other endpoint falls to Sigma-
        assert g.sigma_plus_idx.size == 1
        assert g.sigma_minus_idx.size == 1
        assert g.h == pytest.approx(1.0 / 16.0)

    def test_square_counts(self):
        g = build_grid(DomainSpec.unit_square(sigma_plus=("y-",)), 16)
        assert g.shape == (17, 17)
        assert g.interior_idx.size == 15 * 15
        assert g.sigma_plus_idx.size == 15
        # three remaining open faces plus four corners
        assert g.sigma_minus_idx.size == 3 * 15 + 4

    def test_corners_are_sigma_minus(self):
        g = build_grid(DomainSpec.unit_square(sigma_plus=("x-", "x+", "y-", "y+")), 16)
        assert g.sigma_plus_idx.size == 4 * 15
        assert g.sigma_minus_idx.size == 4
        corners = g.points(g.sigma_minus_idx)
        for c in corners:
            assert set(np.round(c, 12)) <= {0.0, 1.0}

    def test_disk_interior_area(self):
        g = build_grid(DomainSpec.disk(), 32)
        area = g.interior_idx.size * g.h**2
        assert abs(area - np.pi) / np.pi < 0.03

    def test_node_sets_partition_torus(self):
        # the node sets are disjoint and ascending, and every other node of the bounding block lies outside
        # the closed domain: the block's corners of the disk and the ball, no node of the square and rectangle
        for domain in (DomainSpec.unit_square(), DomainSpec("rectangle", lengths=(1.0, 0.53)),
                       DomainSpec.disk(), DomainSpec.ball()):
            g = build_grid(domain, 12)
            sets = [g.interior_idx, g.sigma_plus_idx, g.sigma_minus_idx]
            assert all(np.all(np.diff(s) > 0) for s in sets)
            closure = np.concatenate(sets)
            assert np.unique(closure).size == closure.size
            rest = g.points(np.setdiff1d(np.arange(g.size), closure))
            assert (rest.shape[0] > 0) == (not domain.box_like)
            assert not domain.contains(rest).any()
            assert _distance_to_boundary(domain, rest).min(initial=np.inf) > 1e-9 * g.h
            assert g.d.shape == g.interior_idx.shape and np.isfinite(g.d).all()

    def test_distance_field(self):
        g = build_grid(DomainSpec.unit_square(), 16)
        pts = g.points(g.interior_idx)
        expect = np.minimum.reduce([pts[:, 0], 1 - pts[:, 0], pts[:, 1], 1 - pts[:, 1]])
        assert np.allclose(g.d, expect)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            build_grid(DomainSpec.unit_interval(), 4)


# ---------------------------------------------------------------------------
# second-order assembly
# ---------------------------------------------------------------------------


class TestAssembly:
    def test_1d_dirichlet_tridiagonal(self):
        g = build_grid(DomainSpec.unit_interval(), 16)
        A = assemble_second_order(laplacian(1), g, bc="dirichlet")
        h = g.h
        ref = (np.diag(np.full(15, 2.0)) + np.diag(np.full(14, -1.0), 1) + np.diag(np.full(14, -1.0), -1)) / h**2
        assert np.abs(A.toarray() - ref).max() == 0.0

    def test_1d_dirichlet_eigenvalues(self):
        g = build_grid(DomainSpec.unit_interval(), 16)
        A = assemble_second_order(laplacian(1), g, bc="dirichlet")
        h, m = g.h, 15
        w = np.sort(sla.eigvalsh(A.toarray()))
        k = np.arange(1, m + 1)
        exact = (2.0 - 2.0 * np.cos(k * np.pi * h)) / h**2
        assert np.allclose(w, np.sort(exact), rtol=1e-12)

    def test_mixed_below_dirichlet(self):
        g = build_grid(DomainSpec.unit_square(sigma_plus=("y-",)), 8)
        Am = assemble_second_order(laplacian(2), g, bc="mixed", sigma=0.0)
        Ad = assemble_second_order(laplacian(2), g, bc="dirichlet")
        wm = sla.eigvalsh(Am.toarray())
        wd = sla.eigvalsh(Ad.toarray())
        assert wm[0] > 0.0
        assert wm[0] < wd[0]

    @pytest.mark.parametrize("domain", [DomainSpec.disk(), DomainSpec.ball()], ids=lambda d: d.kind)
    def test_mixed_needs_free_nodes(self, domain):
        g = build_grid(domain, 8)
        assert g.sigma_plus_idx.size == 0
        with pytest.raises(ConfigurationError, match="needs free boundary nodes"):
            assemble_second_order(laplacian(domain.n), g, bc="mixed", sigma=0.0)

    def test_mixed_requires_sigma(self):
        g = build_grid(DomainSpec.unit_square(), 8)
        with pytest.raises(ConfigurationError):
            assemble_second_order(laplacian(2), g, bc="mixed")

    def test_unknown_bc(self):
        g = build_grid(DomainSpec.unit_square(), 8)
        with pytest.raises(ConfigurationError):
            assemble_second_order(laplacian(2), g, bc="neumann")

    def test_robin_increases_energy(self):
        g = build_grid(DomainSpec.unit_square(sigma_plus=("y-",)), 8)
        A0 = assemble_second_order(laplacian(2), g, bc="mixed", sigma=0.0)
        A1 = assemble_second_order(laplacian(2), g, bc="mixed", sigma=2.0)
        d = A1.toarray() - A0.toarray()
        assert sla.eigvalsh(d).min() >= -1e-12
        assert np.any(d > 0)

    def test_callable_coefficients_rejected(self):
        # the assembly takes constant coefficients only: a callable is refused before anything is sampled,
        # whether it varies on the diagonal or nowhere
        g = build_grid(DomainSpec.unit_square(), 8)
        for a in (lambda x: np.diag([1.0 + x[0], 2.0]), lambda x: 2.0 * np.eye(2)):
            with pytest.raises(ConfigurationError, match="assemble_second_order takes constant coefficients only"):
                assemble_second_order(SecondOrderCoeffs(n=2, a=a), g, bc="dirichlet")

    def test_variable_cross_rejected(self):
        g = build_grid(DomainSpec.unit_square(), 8)
        coeffs = SecondOrderCoeffs(n=2, a=lambda x: np.array([[2.0, x[0]], [x[0], 2.0]]))
        with pytest.raises(ConfigurationError, match="assemble_second_order takes constant coefficients only"):
            assemble_second_order(coeffs, g, bc="dirichlet")

    def test_local_variable_cross_rejected(self):
        # a cross coefficient on a small disk between sample nodes cannot be dropped silently:
        # the callable is refused at entry, whatever it returns at the nodes
        g = build_grid(DomainSpec.unit_square(), 16)

        def a(x):
            c = 0.5 if np.hypot(x[0] - 0.25, x[1] - 0.75) < 0.07 else 0.0
            return np.array([[2.0, c], [c, 2.0]])

        with pytest.raises(ConfigurationError, match="assemble_second_order takes constant coefficients only"):
            assemble_second_order(SecondOrderCoeffs(n=2, a=a), g, bc="dirichlet")

    def test_cross_term_interior_stencil(self):
        # constant a12: interior stencil couples diagonal neighbours with -a12/(2h^2)
        g = build_grid(DomainSpec.unit_square(), 8)
        a = np.array([[2.0, 0.5], [0.5, 2.0]])
        A = assemble_second_order(SecondOrderCoeffs(n=2, a=a), g, bc="dirichlet")
        Ad = A.toarray()
        h = g.h
        pts = g.points(g.interior_idx)
        mid = np.array([0.5, 0.5])
        i0 = int(np.argmin(np.linalg.norm(pts - mid, axis=1)))
        i_diag = int(np.argmin(np.linalg.norm(pts - (pts[i0] + [h, h]), axis=1)))
        i_anti = int(np.argmin(np.linalg.norm(pts - (pts[i0] + [h, -h]), axis=1)))
        assert Ad[i0, i_diag] == pytest.approx(-0.5 / (2 * h**2), rel=1e-12)
        assert Ad[i0, i_anti] == pytest.approx(+0.5 / (2 * h**2), rel=1e-12)
        assert Ad[i0, i0] == pytest.approx(2.0 * (2.0 + 2.0) / h**2, rel=1e-12)

    def test_cross_term_positive(self):
        g = build_grid(DomainSpec.unit_square(), 8)
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        A = assemble_second_order(SecondOrderCoeffs(n=2, a=a), g, bc="dirichlet")
        assert sla.eigvalsh(A.toarray()).min() > 0.0

    @pytest.mark.parametrize("lengths", [(1.0, 1.0), (1.0, 0.53)], ids=["square", "rectangle"])
    def test_neighbours_do_not_wrap(self, lengths):
        # every face free and a cross term: each entry couples nodes at most one block index apart along every
        # axis, so no neighbour wraps from a high face of the block to its low face
        g = build_grid(DomainSpec("rectangle", lengths=lengths, sigma_plus=("x-", "x+", "y-", "y+")), 12)
        A = assemble_second_order(SecondOrderCoeffs(n=2, a=np.array([[2.0, 0.5], [0.5, 1.0]])), g, bc="mixed",
                                  sigma=0.0)
        coo = A.matrix.tocoo()
        multi = np.stack(np.unravel_index(A.meta["node_ids"], g.shape), axis=-1)
        assert coo.nnz and np.abs(multi[coo.row] - multi[coo.col]).max() == 1

    def test_box_face_halving_is_a_kron_sum(self):
        # free z- face, in-face cross term: the form separates into
        # kron(2D Dirichlet form, 1D lumped mass) + kron(2D lumped mass, 1D mixed form),
        # so the halved edges, cross cells and node volumes on the face are pinned
        a11, a22, a12, a33, sigma, a0 = 2.0, 1.5, 0.4, 1.25, 0.7, 0.3
        a = np.array([[a11, a12, 0.0], [a12, a22, 0.0], [0.0, 0.0, a33]])
        g = build_grid(DomainSpec.unit_box(sigma_plus=("z-",)), 8)
        A = assemble_second_order(SecondOrderCoeffs(n=3, a=a), g, bc="mixed", sigma=sigma, a0=a0)
        N, h = 8, g.h
        m = N - 1
        eye, T = np.eye(m), 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
        D = np.eye(m, k=1) - np.eye(m, k=-1)
        form_2d = a11 * np.kron(T, eye) + a22 * np.kron(eye, T) - 0.5 * a12 * np.kron(D, D)
        mass_2d = h**2 * np.eye(m * m)
        # z nodes 0 (free, half cell) .. N-1; node N is Dirichlet
        mass_1d = h * np.diag(np.r_[0.5, np.ones(N - 1)])
        T1 = 2.0 * np.eye(N) - np.eye(N, k=1) - np.eye(N, k=-1)
        T1[0, 0] = 1.0
        form_1d = a33 / h * T1 + sigma * np.diag(np.r_[1.0, np.zeros(N - 1)]) + a0 * mass_1d
        ref = np.kron(form_2d, mass_1d) + np.kron(mass_2d, form_1d)
        # the assembly's rows in the (x, y, z) order of the reference
        ijk = np.stack(np.unravel_index(A.meta["node_ids"], g.shape), axis=-1) - g.planes[:, 0]
        order = ((ijk[:, 0] - 1) * m + ijk[:, 1] - 1) * N + ijk[:, 2]
        assert np.array_equal(np.sort(order), np.arange(ref.shape[0]))
        got = np.empty_like(ref)
        got[np.ix_(order, order)] = h**3 * A.toarray()
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_matrix_symmetry_guard(self):
        with pytest.raises(InvariantError, match="symmetric"):
            OperatorMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# fractional restriction
# ---------------------------------------------------------------------------


class TestFractional:
    @pytest.mark.parametrize("shape", [(7,), (6, 9), (4, 5, 6)])
    def test_toeplitz_gather_matches_wrapped_differences(self, shape):
        # reference: the m x m x n wrapped difference array, indexed through the flat strides
        from fracspec._kernels import toeplitz_gather

        rng = np.random.default_rng(len(shape))
        kern = rng.standard_normal(shape).ravel()
        rows = np.stack([rng.integers(0, m, 40) for m in shape], axis=-1)
        cols = np.stack([rng.integers(0, m, 30) for m in shape], axis=-1)
        strides = np.array([int(np.prod(shape[k + 1 :])) for k in range(len(shape))])
        wrapped = (rows[:, None, :] - cols[None, :, :]) % np.array(shape)
        assert np.array_equal(toeplitz_gather(kern, rows, shape, cols), kern[wrapped @ strides])
        square = (rows[:, None, :] - rows[None, :, :]) % np.array(shape)
        assert np.array_equal(toeplitz_gather(kern, rows, shape), kern[square @ strides])

    @pytest.mark.parametrize("shape", [(7,), (6, 9), (4, 5, 6)])
    def test_signed_groups_match_wrapped_differences(self, shape):
        # 300 x 500 entries span three blocks of rows, the last one short, so the reused scratch is read
        # at two lengths; the reference sums in the same order, so the two agree bit for bit
        rng = np.random.default_rng(len(shape))
        kern = rng.standard_normal(shape).ravel()
        rows = np.stack([rng.integers(0, m, 300) for m in shape], axis=-1)
        groups = [[np.stack([rng.integers(0, m, 500) for m in shape], axis=-1) for _ in range(terms)]
                  for terms in (2, 1, 3)]
        signs = [-1, 1, -1]
        strides = np.array([int(np.prod(shape[k + 1 :])) for k in range(len(shape))])
        expect = np.zeros((300, 500))
        for sign, group in zip(signs, groups):
            terms = [kern[((rows[:, None, :] - c[None, :, :]) % np.array(shape)) @ strides] for c in group]
            expect += sign * sum(terms[1:], start=terms[0])
        assert np.array_equal(toeplitz_gather(kern, rows, shape, groups, signs), expect)

    def test_two_node_toy(self):
        R = dense_power(np.diag([2.0, 8.0]), 0.5)
        assert np.allclose(R, np.diag([np.sqrt(2.0), 2.0 * np.sqrt(2.0)]), rtol=1e-14)

    def test_whole_torus_eigenvalues_are_multiplier_powers(self):
        g = build_grid(DomainSpec.unit_interval(), 16)
        coeffs = SecondOrderCoeffs(1, [[2.0]])
        torus = RestrictedPowerOperator(coeffs, 1.5, g).torus
        R = dense_power(torus_matrix(coeffs, torus, g.h), 1.5)
        w = np.sort(sla.eigvalsh(R))
        xi = 2.0 * np.pi * np.fft.fftfreq(torus[0], d=g.h)
        expect = np.sort((2.0 * xi**2) ** 1.5)
        assert np.allclose(w, expect, rtol=1e-10)

    def test_restricted_below_spectral(self):
        # half-circle restriction of the 1D periodic Laplacian on the operator's torus, twice the interval
        g = build_grid(DomainSpec.unit_interval(), 64)
        op = RestrictedPowerOperator(laplacian(1), 0.5, g)
        assert op.torus == (128,)
        column = np.zeros(op.torus[0])
        column[[0, 1, -1]] = 2.0, -1.0, -1.0
        Ap = sla.circulant(column) / g.h**2
        Rr = dense_power(Ap, 0.5, op.interior)
        Ad = assemble_second_order(laplacian(1), g, bc="dirichlet")
        Rs = dense_power(Ad, 0.5)
        wr = sla.eigvalsh(Rr)
        ws = sla.eigvalsh(Rs)
        assert Rr.shape == Rs.shape
        assert wr[0] <= ws[0] + 1e-12

    def test_fast_and_dense_paths_agree(self):
        g = build_grid(DomainSpec.unit_interval(), 16)
        coeffs = SecondOrderCoeffs(1, [[2.0]])
        Rfast = RestrictedPowerOperator(coeffs, 1.0, g)
        Rdense = dense_power(torus_matrix(coeffs, Rfast.torus, g.h), 1.0, Rfast.interior)
        assert np.abs(Rfast.toarray() - Rdense).max() < 1e-10

    def test_restricted_positive_definite(self):
        g = build_grid(DomainSpec.unit_square(), 8)
        R = RestrictedPowerOperator(laplacian(2), 0.5, g).toarray()
        w = sla.eigvalsh(R)
        assert w.min() > 0.0
        assert np.abs(R - R.T).max() == 0.0

    def test_truncation_never_raises_eigenvalues_of_enlargement(self):
        # ordered eigenvalues of the restriction to a LARGER node set sit
        # below those of the smaller set (minimax over a larger trial space)
        g = build_grid(DomainSpec.unit_square(), 8)
        op = RestrictedPowerOperator(laplacian(2), 0.5, g)
        small = op.interior[: op.interior.size // 2]
        dense = torus_matrix(laplacian(2), op.torus, g.h)
        w_small = np.sort(sla.eigvalsh(dense_power(dense, 0.5, small)))
        w_big = np.sort(sla.eigvalsh(dense_power(dense, 0.5, op.interior)))
        assert np.all(w_big[: w_small.size] <= w_small + 1e-10)

    def test_negative_multiplier_rejected(self):
        # an indefinite form
        g = build_grid(DomainSpec.unit_interval(), 16)
        with pytest.raises(NotPositiveError):
            RestrictedPowerOperator(SecondOrderCoeffs(1, [[-1.0]]), 0.5, g)

    def test_nonpositive_exponent_rejected(self):
        # and the exponents that are not finite
        g = build_grid(DomainSpec.unit_interval(), 16)
        for a in (0.0, -0.5, np.inf, np.nan):
            with pytest.raises(ValueError, match="finite and positive"):
                RestrictedPowerOperator(laplacian(1), a, g)


class TestSpectralFractional:
    def test_diagonal_example(self):
        A = OperatorMatrix(np.diag([1.0, 4.0]))
        S = dense_power(A, 0.5)
        assert np.allclose(S, np.diag([1.0, 2.0]), atol=1e-14)

    def test_exponent_one_identity(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((9, 9))
        A = OperatorMatrix(B @ B.T + 9 * np.eye(9))
        S = dense_power(A, 1.0)
        assert np.abs(S - A.toarray()).max() < 1e-12

    def test_1d_interval_sine_eigenvalues(self):
        g = build_grid(DomainSpec.unit_interval(), 64)
        A = assemble_second_order(laplacian(1), g, bc="dirichlet")
        S = dense_power(A, 0.5)
        w = np.sort(sla.eigvalsh(S))
        h, m = g.h, 63
        k = np.arange(1, m + 1)
        exact = np.sqrt((2.0 - 2.0 * np.cos(k * np.pi * h)) / h**2)
        assert np.allclose(w, np.sort(exact), rtol=1e-10)


# ---------------------------------------------------------------------------
# Poisson extension and DtN: schur_split's K and the Krein assembly's L
# ---------------------------------------------------------------------------


def _square_all_faces(nodes=16):
    dom = DomainSpec.unit_square(sigma_plus=("x-", "x+", "y-", "y+"))
    g = build_grid(dom, nodes)
    A = assemble_second_order(laplacian(2), g, bc="mixed", sigma=0.0)
    return g, A


def _extension(A):
    """phi -> [K phi; phi] in A's rows, K the extension map of schur_split, and the Schur complement S."""
    I, B = A.rows("interior"), A.rows("sigma_plus")
    K, S = schur_split(A.matrix, I, B)

    def apply(phi):
        u = np.empty(A.shape[0])
        u[I] = K @ phi
        u[B] = phi
        return u

    return apply, S


class TestPoissonExtension:
    def test_1d_linear_interpolant(self):
        dom = DomainSpec.unit_interval(sigma_plus=("x-", "x+"))
        g = build_grid(dom, 16)
        A = assemble_second_order(laplacian(1), g, bc="mixed", sigma=0.0)
        ext, _ = _extension(A)
        alpha, beta = 2.0, -1.0
        u = ext(np.array([alpha, beta]))
        nodes = A.meta["node_ids"]
        x = g.points(nodes)[:, 0]
        assert np.allclose(u, alpha + (beta - alpha) * x, atol=1e-12)

    def test_zero_data(self):
        _, A = _square_all_faces(8)
        ext, _ = _extension(A)
        u = ext(np.zeros(A.rows("sigma_plus").size))
        assert np.abs(u).max() == 0.0

    def test_constant_data_extends_exactly(self):
        # through the Krein assembly, whose K is the extension map
        _, A = _square_all_faces(16)
        K = krein_from_matrix(A).K
        assert np.abs(K @ np.ones(K.shape[1]) - 1.0).max() < 1e-10

    def test_discrete_harmonicity(self):
        _, A = _square_all_faces(12)
        ext, _ = _extension(A)
        rng = np.random.default_rng(11)
        phi = rng.standard_normal(A.rows("sigma_plus").size)
        u = ext(phi)
        r = (A.matrix @ u)[A.rows("interior")]
        scale = np.abs(A.matrix @ u).max()
        assert np.abs(r).max() <= 1e-10 * scale

    def test_singular_interior_rejected(self):
        # interior block with a zero row pair: singular
        bad = OperatorMatrix(
            np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            meta={"row_sets": {"interior": [0, 1], "sigma_plus": [2]}},
        )
        with pytest.raises(NumericError):
            krein_from_matrix(bad)


class TestSchurDtn:
    """The DtN operator is -L, L = KreinAssembly.L_weighted = h S of the operator-unit Schur complement S.

    That is the form-unit complement h^n S over the boundary weight h^{n-1}: the volume weights cancel.
    """

    def test_two_node_toy(self):
        A = OperatorMatrix(
            np.array([[2.0, -1.0], [-1.0, 1.5]]),
            meta={"row_sets": {"interior": [0], "sigma_plus": [1]}, "h": 1.0},
        )
        assert krein_from_matrix(A).L_weighted == pytest.approx(np.array([[1.0]]))

    def test_1d_interval_dtn_is_minus_one(self):
        dom = DomainSpec.unit_interval()
        g = build_grid(dom, 32)
        A = assemble_second_order(laplacian(1), g, bc="mixed", sigma=0.0)
        assert -krein_from_matrix(A).L_weighted == pytest.approx(np.array([[-1.0]]), rel=1e-12)

    def test_energy_identity(self):
        _, A = _square_all_faces(12)
        ext, S = _extension(A)
        rng = np.random.default_rng(5)
        nb = A.rows("sigma_plus").size
        phi = rng.standard_normal(nb)
        psi = rng.standard_normal(nb)
        u, v = ext(phi), ext(psi)
        lhs = u @ (A.matrix @ v)
        rhs = phi @ (S @ psi)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_full_sigma_plus_keeps_everything(self):
        # the interface operator covers every retained boundary node: h S, that is h^n S / h^{n-1}
        g, A = _square_all_faces(8)
        _, S = _extension(A)
        L = krein_from_matrix(A).L_weighted
        assert L.shape == S.shape == (A.rows("sigma_plus").size,) * 2
        assert np.allclose(L, g.h * S, rtol=1e-14, atol=0.0)

    def test_sigma_minus_elimination_matches_submatrix(self):
        # Schur over Sigma+ after Dirichlet-dropping Sigma- equals the
        # Sigma+ principal submatrix of the full-boundary Schur complement
        pg = PolarDiskGrid(radius=1.0, n_r=10, n_theta=16, arc=(0.0, np.pi))
        F = assemble_polar_laplacian(pg)
        n_plus = pg.sigma_plus_idx.size
        arc_w = pg.radius * pg.dtheta
        _, S = schur_split(F.matrix, F.rows("interior"), F.rows("sigma_plus"))
        _, S_full = schur_split(F.matrix, F.rows("interior"),
                                np.concatenate([F.rows("sigma_plus"), F.rows("sigma_minus")]))
        assert S.shape == (n_plus, n_plus)
        assert np.allclose(S / arc_w, S_full[:n_plus, :n_plus] / arc_w, atol=1e-12)

    def test_positive_after_shift(self):
        _, A = _square_all_faces(8)
        assert sla.eigvalsh(krein_from_matrix(A).L_weighted).min() > 0.0

    @pytest.mark.parametrize("domain, nodes, sigma", [
        (DomainSpec.unit_box(), 12, 0.0),
        (DomainSpec.unit_square(), 48, 1.25),
    ], ids=["box12", "square48-robin"])
    def test_sparse_split_matches_dense_solve(self, domain, nodes, sigma):
        # the level-block sweep against scipy.linalg.solve on the dense blocks
        g = build_grid(domain, nodes)
        A = assemble_second_order(laplacian(g.n), g, bc="mixed", sigma=sigma, a0=1.0)
        assert_split_matches_dense(A.matrix, A.rows("interior"), A.rows("sigma_plus"))

    def test_level_sweep_cross_coefficient_box(self):
        # cross coefficients couple each level to its neighbours' diagonal neighbours too
        g = build_grid(DomainSpec.unit_box(), 12)
        co = SecondOrderCoeffs(n=3, a=np.array([[2.0, 0.5, 0.3], [0.5, 2.0, 0.4], [0.3, 0.4, 1.0]]))
        A = assemble_second_order(co, g, bc="mixed", sigma=0.5, a0=1.0)
        assert_split_matches_dense(A.matrix, A.rows("interior"), A.rows("sigma_plus"))

    def test_level_sweep_all_faces_square(self):
        # the levels are rings closing on the centre
        _, A = _square_all_faces(48)
        assert_split_matches_dense(A.matrix, A.rows("interior"), A.rows("sigma_plus"))

    def test_level_sweep_face_patch(self):
        # a patch of the free face, as krein_term's partition selects it: levels widen as they recede
        g = build_grid(DomainSpec.unit_box(), 12)
        A = assemble_second_order(laplacian(3), g, bc="mixed", sigma=0.5, a0=1.0)
        B = A.rows("sigma_plus")
        pts = g.points(np.asarray(A.meta["node_ids"])[B])
        patch = B[(np.abs(pts[:, 0] - 0.5) < 0.2) & (np.abs(pts[:, 1] - 0.5) < 0.2)]
        assert 0 < patch.size < B.size
        assert_split_matches_dense(A.matrix, A.rows("interior"), patch)

    def test_level_sweep_interval(self):
        # 2047 levels of one node each, merged into blocks
        g = build_grid(DomainSpec.unit_interval(), 2048)
        A = assemble_second_order(laplacian(1), g, bc="mixed", sigma=0.5, a0=1.0)
        assert_split_matches_dense(A.matrix, A.rows("interior"), A.rows("sigma_plus"))

    def test_level_sweep_interval_two_free_ends_is_backward_stable(self):
        # Both ends free: the far block holds the middle, where the two chains meet.  The sweep
        # and the dense solve are both backward stable, but K is as ill-conditioned as A_II
        # (cond 1.7e6), and they differ by 1.3e-12 relative (4.6e-13 for the dense solve, 1.3e-12
        # for the sweep, against an extended-precision solve); the residual is the sharp check.
        g = build_grid(DomainSpec.unit_interval(sigma_plus=("x-", "x+")), 2048)
        A = assemble_second_order(laplacian(1), g, bc="mixed", sigma=0.5, a0=1.0)
        I, B = A.rows("interior"), A.rows("sigma_plus")
        M = A.matrix.tocsr()
        A_II, A_IB = M[I][:, I], M[I][:, B].toarray()
        K, _ = schur_split(M, I, B)
        scale = abs(A_II).sum(axis=1).max() * np.abs(K).max()
        assert np.abs(A_II @ K + A_IB).max() <= 1e-14 * scale
        K_d, _ = dense_split(M, I, B)
        assert np.abs(K - K_d).max() <= 1e-11 * np.abs(K_d).max()

    def test_level_sweep_polar_disk_whole_ring(self):
        # not a grid: rings inward from Sigma+ and Sigma-, the centre coupled to the whole first ring
        pg = PolarDiskGrid(radius=1.0, n_r=10, n_theta=16, arc=(0.0, np.pi))
        F = assemble_polar_laplacian(pg)
        B = np.concatenate([F.rows("sigma_plus"), F.rows("sigma_minus")])
        assert_split_matches_dense(F.matrix, F.rows("interior"), B)

    def test_level_sweep_unreached_component(self):
        # an interior component no free node reaches keeps K = 0 there, and is still factored
        _, A = _square_all_faces(16)
        n = A.shape[0]
        chain = sp.diags([-np.ones(39), np.full(40, 2.5), -np.ones(39)], [-1, 0, 1])
        mat = sp.block_diag([A.matrix, chain]).tocsr()
        I = np.concatenate([A.rows("interior"), n + np.arange(40)])
        K = assert_split_matches_dense(mat, I, A.rows("sigma_plus"))
        assert not K[-40:].any()
        lone = sp.block_diag([A.matrix, sp.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))]).tocsr()
        with pytest.raises(NumericError, match="singular interior block; apply a positivity shift"):
            schur_split(lone, np.concatenate([A.rows("interior"), [n, n + 1]]), A.rows("sigma_plus"))

    def test_level_sweep_is_the_only_elimination(self):
        # no module calls a general solver or LU factorization: a Schur split, of a dense matrix
        # too, is the sweep's own dgetrf; triangular solves and Cholesky factors stay allowed
        src = pathlib.Path(fracspec.__file__).parent
        callers = [p.name for p in sorted(src.glob("*.py"))
                   if re.search(r"\b(solve|lu_factor|splu|spsolve|factorized)\(", p.read_text())]
        assert callers == []

    def test_singular_sparse_interior_rejected(self):
        bad = sp.csr_matrix(np.array([[1.0, -1.0, 0.5], [-1.0, 1.0, 0.0], [0.5, 0.0, 1.0]]))
        with pytest.raises(NumericError, match="singular interior block; apply a positivity shift"):
            schur_split(bad, [0, 1], [2])

    def test_indefinite_interior_is_solved(self):
        # shift -30 puts the square's lowest Dirichlet eigenvalues (2 pi^2 and 5 pi^2 ~ 49.3 less
        # their discretization error) on both sides of zero: nonsingular, indefinite
        g = build_grid(DomainSpec.unit_square(), 16)
        A = assemble_second_order(laplacian(2), g, bc="mixed", sigma=0.5, a0=-30.0)
        I = A.rows("interior")
        assert sla.eigvalsh(A.matrix.toarray()[np.ix_(I, I)]).min() < 0.0
        assert_split_matches_dense(A.matrix, I, A.rows("sigma_plus"))

    @pytest.mark.parametrize("domain, nodes, far", [
        (DomainSpec.unit_square(), 16, 9),  # the far 3 of 5 blocks of 3 rows
        (DomainSpec.unit_box(), 12, 4),  # the far 4 of 11 one-plane blocks
    ], ids=["square16", "box12"])
    def test_singular_far_strip_is_pivoted_across_blocks(self, domain, nodes, far):
        # The shift zeroes the lowest Dirichlet eigenvalue of the strip of the `far` node layers
        # farthest from the free face, a principal submatrix of A_II made of the sweep's far
        # blocks, while A_II stays nonsingular (its nearest eigenvalue 10 or more away).
        # Pivoting inside each block breaks down on the strip (K off by 6e-3 and 2e-2, with no
        # error raised); the sweep's pivots cross into the next block.
        g = build_grid(domain, nodes)
        n, h = g.n, 1.0 / nodes
        e1, strip = 2.0 - 2.0 * np.cos(np.pi / nodes), 2.0 - 2.0 * np.cos(np.pi / (far + 1))
        A = assemble_second_order(laplacian(n), g, bc="mixed", sigma=0.5, a0=-((n - 1) * e1 + strip) / h**2)
        I = A.rows("interior")
        A_II = A.matrix.toarray()[np.ix_(I, I)]
        layer = g.points(np.asarray(A.meta["node_ids"])[I])[:, -1]  # the free face is the last axis' low face
        in_strip = layer > 1.0 - (far + 0.5) * h
        assert np.abs(sla.eigvalsh(A_II[np.ix_(in_strip, in_strip)])).min() < 1e-9
        assert np.abs(sla.eigvalsh(A_II)).min() > 10.0
        assert_split_matches_dense(A.matrix, I, A.rows("sigma_plus"))

    def test_level_sweep_solves_a_nonsymmetric_interior(self):
        # both off-diagonal blocks are read as they are: a skew part on A's pattern (a drift
        # term), on an indefinite interior, against a general dense solve; the dense form of the
        # matrix takes the same sweep (a solve that reads one triangle of A_II is 3e-3 off here)
        g = build_grid(DomainSpec.unit_square(), 16)
        A = assemble_second_order(laplacian(2), g, bc="mixed", sigma=0.5, a0=-30.0)
        upper = sp.triu(A.matrix, 1)
        mat = (A.matrix + 0.3 * (upper - upper.T)).tocsr()
        I, B = A.rows("interior"), A.rows("sigma_plus")
        dense = mat.toarray()
        K_ref = -sla.solve(dense[np.ix_(I, I)], dense[np.ix_(I, B)])
        for form in (mat, dense):
            K, _ = schur_split(form, I, B)
            assert np.abs(K - K_ref).max() <= 1e-13 * np.abs(K_ref).max()

    def test_singular_far_plane_strip_box16_residual(self):
        # The box-16 case of the test above: the far 9 of 15 one-plane blocks are singular at
        # this shift, A_II's nearest eigenvalue is 13.9 away.  The dense oracle is itself 1e-13
        # off here (dsysv, against a solve refined with an extended-precision residual, where
        # the sweep is 1e-15 off), so the residual is the check; pivoting inside each block
        # alone leaves it at 2e-3.
        g = build_grid(DomainSpec.unit_box(), 16)
        e1, strip = 2.0 - 2.0 * np.cos(np.pi / 16), 2.0 - 2.0 * np.cos(np.pi / 10)
        A = assemble_second_order(laplacian(3), g, bc="mixed", sigma=0.5, a0=-256.0 * (2.0 * e1 + strip))
        I, B = A.rows("interior"), A.rows("sigma_plus")
        M = A.matrix.tocsr()
        A_II, A_IB = M[I][:, I], M[I][:, B].toarray()
        K, _ = schur_split(M, I, B)
        scale = abs(A_II).sum(axis=1).max() * np.abs(K).max()
        assert np.abs(A_II @ K + A_IB).max() <= 1e-14 * scale


def dense_split(mat, I, B):
    """schur_split's oracle: K by scipy.linalg.solve on the dense blocks, S = A_BB + A_IB^T K symmetrized."""
    dense = mat.toarray()
    A_IB = dense[np.ix_(I, B)]
    K = -sla.solve(dense[np.ix_(I, I)], A_IB, assume_a="sym")
    S = dense[np.ix_(B, B)] + A_IB.T @ K
    return K, 0.5 * (S + S.T)


def assert_split_matches_dense(mat, I, B):
    """schur_split of the sparse mat against the dense oracle (dense_split), at 1e-13; returns K."""
    K, S = schur_split(mat, I, B)
    K_d, S_d = dense_split(mat, I, B)
    assert np.abs(K - K_d).max() <= 1e-13 * np.abs(K_d).max()
    assert np.abs(S - S_d).max() <= 1e-13 * np.abs(S_d).max()
    return K


# ---------------------------------------------------------------------------
# polar disk grid
# ---------------------------------------------------------------------------


class TestPolarDisk:
    def test_counts_and_sets(self):
        pg = PolarDiskGrid(radius=1.0, n_r=8, n_theta=16, arc=(0.0, np.pi))
        assert pg.size == 1 + 8 * 16
        assert pg.interior_idx.size == 1 + 7 * 16
        assert pg.boundary_idx.size == 16
        # arc (0, pi): strictly inside among 16 angles -> k = 1..7
        assert pg.sigma_plus_idx.size == 7

    def test_volumes_sum_to_disk_area(self):
        pg = PolarDiskGrid(radius=1.0, n_r=32, n_theta=64, arc=(0.0, np.pi))
        assert pg.volumes().sum() == pytest.approx(np.pi, rel=1e-3)

    def test_dirichlet_eigenvalues_match_bessel_zeros(self):
        pg = PolarDiskGrid(radius=1.0, n_r=48, n_theta=72, arc=(0.0, np.pi))
        F = assemble_polar_laplacian(pg)
        I = F.rows("interior")
        FI = F.matrix[I][:, I].toarray()
        VI = np.diag(F.meta["volumes"][I])
        w = np.sort(sla.eigvalsh(FI, VI))
        t1 = jn_zeros(0, 1)[0] ** 2
        t2 = jn_zeros(1, 1)[0] ** 2
        assert abs(w[0] - t1) / t1 < 2e-3
        assert abs(w[1] - t2) / t2 < 2e-3

    def test_radius_scaling(self):
        pg1 = PolarDiskGrid(radius=1.0, n_r=24, n_theta=48, arc=(0.0, np.pi))
        pg2 = PolarDiskGrid(radius=2.0, n_r=24, n_theta=48, arc=(0.0, np.pi))
        F1 = assemble_polar_laplacian(pg1)
        F2 = assemble_polar_laplacian(pg2)
        I = F1.rows("interior")
        w1 = sla.eigvalsh(F1.matrix[I][:, I].toarray(), np.diag(F1.meta["volumes"][I]))
        w2 = sla.eigvalsh(F2.matrix[I][:, I].toarray(), np.diag(F2.meta["volumes"][I]))
        # -div grad scales as 1/R^2 on a disk of radius R
        assert w1[0] == pytest.approx(4.0 * w2[0], rel=1e-12)

    def test_form_constant_in_kernel_without_boundary_terms(self):
        pg = PolarDiskGrid(radius=1.0, n_r=8, n_theta=16, arc=(0.0, np.pi))
        F = assemble_polar_laplacian(pg)
        ones = np.ones(pg.size)
        assert np.abs(F.matrix @ ones).max() < 1e-12

    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            PolarDiskGrid(radius=1.0, n_r=2, n_theta=16, arc=(0.0, np.pi))
