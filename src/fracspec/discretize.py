"""Grids and matrix realizations.

Uniform torus grids carry the periodic-embedding path for restricted
fractional powers r+ P_a e+, either gathered into a dense matrix
(fractional_restricted, for full spectra and as the oracle) or applied
matrix-free by transforms (fractional_operator, for a few eigenpairs past
the dense cap); the same grids feed the second-order
Dirichlet and mixed assemblies whose Schur complements (schur_split, the
one routine the Krein, DtN and Poisson-extension paths share) realize the
discrete Dirichlet-to-Neumann operators.  A boundary-fitted polar grid
covers the n = 2 disk work, where the curved boundary needs per-node
arc-length weights.

Unit conventions
----------------
Assembled OperatorMatrix objects are in operator units: the matrix of
the bilinear form divided by the node volume h^n, so the 1D Dirichlet
Laplacian is the classical tridiag(-1, 2, -1)/h^2.  The form matrix is
recovered as h^n * matrix; Schur complements of the form matrix divided
by the boundary weight h^{n-1} approximate the continuum DtN.  Polar
assemblies keep form units (their node volumes are nonuniform) and say
so in meta["units"].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _kernels
from .errors import ConfigurationError, InvariantError, NotPositiveError, NumericError
from .quadrature import DomainSpec
from .symbols import SecondOrderCoeffs

DENSE_POWER_CAP = 8192
_SNAP = 1e-9  # relative to h; boundary-hit tolerance


# ---------------------------------------------------------------------------
# uniform torus grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """Uniform torus grid with node classification for an embedded domain.

    Node sets (flat indices into the row-major torus array) are disjoint
    and cover the torus: interior of Omega, sigma_plus, sigma_minus,
    exterior.  d holds every node's distance to the domain boundary.
    """

    domain: DomainSpec
    h: float
    shape: tuple
    origin: np.ndarray
    interior_idx: np.ndarray
    sigma_plus_idx: np.ndarray
    sigma_minus_idx: np.ndarray
    exterior_idx: np.ndarray
    d: np.ndarray

    @property
    def n(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @property
    def boundary_idx(self) -> np.ndarray:
        return np.concatenate([self.sigma_plus_idx, self.sigma_minus_idx])

    def points(self, idx=None) -> np.ndarray:
        """Coordinates of the given flat indices (default: all nodes)."""
        if idx is None:
            idx = np.arange(self.size)
        multi = np.stack(np.unravel_index(np.asarray(idx), self.shape), axis=-1)
        return self.origin + self.h * multi

    def frequencies(self) -> list[np.ndarray]:
        """Angular Fourier frequencies per axis for the torus."""
        return [2.0 * np.pi * np.fft.fftfreq(m, d=self.h) for m in self.shape]


def build_grid(domain: DomainSpec, nodes_per_axis: int) -> Grid:
    """Uniform torus grid of spacing h = max extent / nodes_per_axis.

    Omega membership is decided by the cell-center indicator; nodes
    landing on the boundary (within snap tolerance) are classified into
    sigma_plus (relative face interiors) and sigma_minus.
    """
    if nodes_per_axis < 8:
        raise ConfigurationError("nodes_per_axis must be at least 8")
    extent = domain.extent()
    h = float(extent.max()) / nodes_per_axis
    shape = tuple(int(round(domain.torus_pad * e / h)) for e in extent)
    if any(m * h < e + 2 * h for m, e in zip(shape, extent)):
        raise ConfigurationError("domain does not fit in the padded torus")
    offsets = np.array([(m - int(round(e / h))) // 2 for m, e in zip(shape, extent)])
    origin = domain.origin() - offsets * h

    multi = np.stack(np.unravel_index(np.arange(int(np.prod(shape))), shape), axis=-1)
    x = origin + h * multi

    snap = _SNAP * h
    d = _distance_to_boundary(domain, x)
    on_boundary = d <= snap
    inside = domain.contains(x) & ~on_boundary
    splus = np.zeros(x.shape[0], dtype=bool)
    if on_boundary.any() and domain.kind in ("interval", "rectangle", "box"):
        lo = domain.origin()
        hi = lo + extent
        for face in domain.sigma_plus:
            axis = {"x": 0, "y": 1, "z": 2}[face[0]]
            val = lo[axis] if face[1] == "-" else hi[axis]
            on_face = np.abs(x[:, axis] - val) <= snap
            rel_int = np.ones(x.shape[0], dtype=bool)
            for j in range(domain.n):
                if j != axis:
                    rel_int &= (x[:, j] > lo[j] + snap) & (x[:, j] < hi[j] - snap)
            splus |= on_boundary & on_face & rel_int
    idx = np.arange(x.shape[0])
    return Grid(
        domain=domain,
        h=h,
        shape=shape,
        origin=origin,
        interior_idx=idx[inside],
        sigma_plus_idx=idx[splus],
        sigma_minus_idx=idx[on_boundary & ~splus],
        exterior_idx=idx[~inside & ~on_boundary],
        d=d,
    )


def _distance_to_boundary(domain: DomainSpec, x: np.ndarray) -> np.ndarray:
    lo = domain.origin()
    hi = lo + domain.extent()
    if domain.kind in ("interval", "rectangle", "box"):
        below = np.maximum(lo - x, 0.0)
        above = np.maximum(x - hi, 0.0)
        outside = np.sqrt((below**2 + above**2).sum(axis=1))
        inside_margin = np.minimum(x - lo, hi - x).min(axis=1)
        return np.where(outside > 0.0, outside, np.abs(inside_margin))
    if domain.kind in ("disk", "ball"):
        r = np.linalg.norm(x - np.asarray(domain.center), axis=1)
        return np.abs(r - domain.radius)
    raise ConfigurationError(f"no distance rule for domain kind {domain.kind!r}")


# ---------------------------------------------------------------------------
# operator matrices
# ---------------------------------------------------------------------------


class OperatorMatrix:
    """Symmetric matrix realization of a continuum operator.

    Carries the node-set labels its rows act on (meta["row_sets"] maps
    set names to row positions), the grid it came from, and a plain-text
    descriptor of the continuum object.
    """

    def __init__(self, matrix, index_label: str, grid=None, descriptor: str = "", meta: dict | None = None):
        if sp.issparse(matrix):
            matrix = matrix.tocsr()
            scale = np.abs(matrix.data).max() if matrix.nnz else 0.0
            diff = (matrix - matrix.T).tocoo()
            asym = np.abs(diff.data).max() if diff.nnz else 0.0
        else:
            matrix = np.asarray(matrix, dtype=float)
            scale = np.abs(matrix).max() if matrix.size else 0.0
            asym = np.abs(matrix - matrix.T).max() if matrix.size else 0.0
        if scale and asym > 1e-12 * scale:
            raise InvariantError("operator matrix is not symmetric to working tolerance")
        self.matrix = matrix
        self.index_label = index_label
        self.grid = grid
        self.descriptor = descriptor
        self.meta = dict(meta or {})

    @property
    def shape(self):
        return self.matrix.shape

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray() if sp.issparse(self.matrix) else np.asarray(self.matrix)

    def rows(self, name: str) -> np.ndarray:
        try:
            return np.asarray(self.meta["row_sets"][name])
        except KeyError as exc:
            raise KeyError(f"matrix has no row set {name!r}") from exc


# ---------------------------------------------------------------------------
# second-order assembly (edge form + diagonal-difference cross form)
# ---------------------------------------------------------------------------


def _coeff_entries(coeffs: SecondOrderCoeffs, x_mid: np.ndarray, i: int, j: int) -> np.ndarray:
    """a_ij sampled at edge midpoints (vectorized over x_mid rows)."""
    if coeffs.constant:
        return np.full(x_mid.shape[0], coeffs.a[i, j])
    mats = coeffs.a_batch(x_mid)
    return mats[:, i, j]


def assemble_second_order(coeffs: SecondOrderCoeffs, grid: Grid, bc: str, sigma=None, a0=0.0) -> OperatorMatrix:
    """Symmetric realization of -div(a grad u) + a0 u on the grid.

    bc = "dirichlet" keeps interior nodes only; "mixed" keeps interior
    plus sigma_plus nodes (Robin term sigma there, Dirichlet on
    sigma_minus) and requires sigma, 0.0 being a valid choice; "periodic"
    assembles on the whole torus with no boundary terms.

    Diagonal coefficients may vary over the domain (edge-midpoint
    sampling); cross coefficients enter through the diagonal-difference
    form per grid cell and must be constant.
    """
    n, h = grid.n, grid.h
    if bc not in ("dirichlet", "mixed", "periodic"):
        raise ConfigurationError(f"unknown boundary condition {bc!r}")
    if bc == "mixed" and sigma is None:
        raise ConfigurationError("mixed assembly needs sigma (0.0 is allowed)")
    if coeffs.n != n:
        raise ConfigurationError("coefficient dimension does not match the grid")

    if bc == "periodic":
        keep = np.arange(grid.size)
        row_sets = {"torus": np.arange(grid.size)}
    elif bc == "dirichlet":
        keep = grid.interior_idx
        row_sets = {"interior": np.arange(keep.size)}
    else:
        keep = np.concatenate([grid.interior_idx, grid.sigma_plus_idx])
        row_sets = {
            "interior": np.arange(grid.interior_idx.size),
            "sigma_plus": grid.interior_idx.size + np.arange(grid.sigma_plus_idx.size),
        }
    pos = np.full(grid.size, -1, dtype=np.int64)
    pos[keep] = np.arange(keep.size)

    closure = np.zeros(grid.size, dtype=bool)
    if bc == "periodic":
        closure[:] = True
    else:
        closure[grid.interior_idx] = True
        closure[grid.boundary_idx] = True
    on_bdry = np.zeros(grid.size, dtype=bool)
    if bc != "periodic":
        on_bdry[grid.boundary_idx] = True

    shape = grid.shape
    size = grid.size
    all_multi = np.stack(np.unravel_index(np.arange(size), shape), axis=-1)
    x_all = grid.origin + h * all_multi

    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    edge_w = h ** (n - 2)
    for axis in range(n):
        nb_multi = all_multi.copy()
        nb_multi[:, axis] = (nb_multi[:, axis] + 1) % shape[axis]
        nb = np.ravel_multi_index(nb_multi.T, shape)
        if bc == "periodic":
            mask = np.ones(size, dtype=bool)
        else:
            wraps = all_multi[:, axis] + 1 >= shape[axis]
            mask = closure & closure[nb] & ~wraps
        k = np.arange(size)[mask]
        l = nb[mask]
        # dual-cell fraction: halve per transverse axis on which both
        # endpoints lie on the boundary
        frac = np.ones(k.size)
        if bc != "periodic":
            dom_lo = grid.domain.origin()
            dom_hi = dom_lo + grid.domain.extent()
            both = on_bdry[k] & on_bdry[l]
            for t_axis in range(n):
                if t_axis == axis:
                    continue
                lo_t = dom_lo[t_axis]
                hi_t = dom_hi[t_axis]
                on_t = (np.abs(x_all[k, t_axis] - lo_t) <= _SNAP * h) | (np.abs(x_all[k, t_axis] - hi_t) <= _SNAP * h)
                frac[both & on_t] *= 0.5
        mid = 0.5 * (x_all[k] + x_all[l])
        w = edge_w * frac * _coeff_entries(coeffs, mid, axis, axis)
        add(k, k, w)
        add(l, l, w)
        add(k, l, -w)
        add(l, k, -w)

    if not coeffs.constant:
        probe = coeffs.a_batch(x_all[:: max(1, size // 16)])
        off = probe.copy()
        for i in range(n):
            off[:, i, i] = 0.0
        if np.abs(off).max() > 0.0:
            raise ConfigurationError("variable cross-derivative coefficients are not supported")
        amat = None
    else:
        amat = np.asarray(coeffs.a, dtype=float)

    if amat is not None:
        cell_w = 0.5 * h ** (n - 2)
        for i in range(n):
            for j in range(i + 1, n):
                aij = amat[i, j]
                if aij == 0.0:
                    continue
                for sgn in (1, -1):
                    # diagonal-difference edges along e_i + sgn e_j over each cell
                    base = all_multi.copy()
                    if sgn < 0:
                        base[:, j] = (base[:, j] + 1) % shape[j]
                    corner = base.copy()
                    corner[:, i] = (corner[:, i] + 1) % shape[i]
                    corner[:, j] = (corner[:, j] + sgn) % shape[j]
                    kf = np.ravel_multi_index(base.T, shape)
                    lf = np.ravel_multi_index(corner.T, shape)
                    if bc == "periodic":
                        mask = np.ones(size, dtype=bool)
                    else:
                        wraps_i = all_multi[:, i] + 1 >= shape[i]
                        wraps_j = all_multi[:, j] + 1 >= shape[j]
                        # cell must sit inside the closure: check all 4 cell corners
                        c10 = all_multi.copy()
                        c10[:, i] = (c10[:, i] + 1) % shape[i]
                        c01 = all_multi.copy()
                        c01[:, j] = (c01[:, j] + 1) % shape[j]
                        c11 = c10.copy()
                        c11[:, j] = (c11[:, j] + 1) % shape[j]
                        corners_ok = (
                            closure
                            & closure[np.ravel_multi_index(c10.T, shape)]
                            & closure[np.ravel_multi_index(c01.T, shape)]
                            & closure[np.ravel_multi_index(c11.T, shape)]
                        )
                        mask = corners_ok & ~wraps_i & ~wraps_j
                    k = kf[mask]
                    l = lf[mask]
                    w = np.full(k.size, sgn * aij * cell_w)
                    if bc != "periodic" and n > 2:
                        # halve cells lying inside a boundary face along a
                        # transverse axis (constant coordinate on the face)
                        dom_lo = grid.domain.origin()
                        dom_hi = dom_lo + grid.domain.extent()
                        xk = x_all[k]
                        for t_axis in range(n):
                            if t_axis in (i, j):
                                continue
                            on_t = (np.abs(xk[:, t_axis] - dom_lo[t_axis]) <= _SNAP * h) | (
                                np.abs(xk[:, t_axis] - dom_hi[t_axis]) <= _SNAP * h
                            )
                            w[on_t] *= 0.5
                    add(k, k, w)
                    add(l, l, w)
                    add(k, l, -w)
                    add(l, k, -w)

    # zero-order and Robin terms (node volumes, boundary fractions)
    diag_extra = np.zeros(size)
    if a0 or (bc != "periodic"):
        bfrac = np.ones(size)
        if bc != "periodic":
            dom_lo = grid.domain.origin()
            dom_hi = dom_lo + grid.domain.extent()
            for t_axis in range(n):
                lo_t = dom_lo[t_axis]
                hi_t = dom_hi[t_axis]
                on_t = (np.abs(x_all[:, t_axis] - lo_t) <= _SNAP * h) | (np.abs(x_all[:, t_axis] - hi_t) <= _SNAP * h)
                bfrac[on_t & on_bdry] *= 0.5
        if a0:
            a0_vals = a0(x_all) if callable(a0) else a0
            diag_extra += np.asarray(a0_vals, dtype=float) * h**n * bfrac
    if bc == "mixed" and sigma is not None and grid.sigma_plus_idx.size:
        sp_idx = grid.sigma_plus_idx
        sig_vals = sigma(x_all[sp_idx]) if callable(sigma) else sigma
        diag_extra[sp_idx] += np.asarray(sig_vals, dtype=float) * h ** (n - 1)
    nz = diag_extra != 0.0
    if nz.any():
        k = np.arange(size)[nz]
        add(k, k, diag_extra[nz])

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    keep_mask = (pos[rows] >= 0) & (pos[cols] >= 0)
    form = sp.csr_matrix(
        (vals[keep_mask], (pos[rows[keep_mask]], pos[cols[keep_mask]])),
        shape=(keep.size, keep.size),
    )
    form.sum_duplicates()
    mat = form / h**n
    desc = f"second-order form, bc={bc}, coefficients {coeffs.describe()}"
    meta = {
        "units": "operator",
        "row_sets": row_sets,
        "node_ids": keep,
        "h": h,
        "bc": bc,
        "circulant": bc == "periodic" and coeffs.constant,
    }
    if a0:
        meta["a0"] = "callable" if callable(a0) else float(a0)
    if bc == "mixed":
        meta["sigma"] = "callable" if callable(sigma) else float(sigma)
    return OperatorMatrix(mat, bc, grid, desc, meta)


# ---------------------------------------------------------------------------
# fractional powers on the torus, restricted to Omega
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusMultiplier:
    """Constant-coefficient operator given by its Fourier multiplier.

    fn maps a covector array of shape (..., n) to nonnegative multiplier
    values; it is evaluated on the torus frequency lattice.
    """

    fn: object
    descriptor: str = "multiplier"

    @classmethod
    def from_coeffs(cls, coeffs: SecondOrderCoeffs) -> "TorusMultiplier":
        if not coeffs.constant:
            raise ConfigurationError("multiplier path needs constant coefficients")
        a = np.asarray(coeffs.a, dtype=float)

        def fn(xi):
            return np.einsum("...i,ij,...j->...", xi, a, xi)

        return cls(fn, f"quadratic-form multiplier {coeffs.describe()}")


def _multiplier_values(mult: TorusMultiplier, grid: Grid) -> np.ndarray:
    freqs = np.meshgrid(*grid.frequencies(), indexing="ij")
    xi = np.stack(freqs, axis=-1)
    vals = np.asarray(mult.fn(xi), dtype=float)
    if vals.shape != grid.shape:
        raise ConfigurationError("multiplier did not evaluate to one value per torus node")
    return vals


def _symbol_power(mult: TorusMultiplier, a: float, grid: Grid) -> np.ndarray:
    """The multiplier to the power a on the frequency lattice.

    The one source of the symbol for both the dense gather and the
    matrix-free apply, so the two routes realize the same operator.
    """
    vals = _multiplier_values(mult, grid)
    if vals.min() < -1e-10 * max(vals.max(), 1.0):
        raise NotPositiveError("multiplier takes negative values on the frequency lattice")
    vals = np.clip(vals, 0.0, None)
    return vals**a


def _restricted_from_multiplier(vals_pow: np.ndarray, grid: Grid, interior: np.ndarray) -> np.ndarray:
    kern = np.fft.ifftn(vals_pow)
    kern = np.ascontiguousarray(kern.real.ravel())
    multi = np.stack(np.unravel_index(interior, grid.shape), axis=-1).astype(np.int64)
    strides = np.array([int(np.prod(grid.shape[k + 1 :])) for k in range(grid.n)], dtype=np.int64)
    shape = np.asarray(grid.shape, dtype=np.int64)
    R = _kernels.toeplitz_gather(kern, np.ascontiguousarray(multi), strides, shape)
    return 0.5 * (R + R.T)


def materialize_torus_operator(mult: TorusMultiplier, grid: Grid, circulant_hint: bool = True) -> OperatorMatrix:
    """Dense torus matrix of a Fourier multiplier.

    With circulant_hint=False the returned matrix routes fractional
    powers through the dense eigendecomposition path, which is the
    slow-but-generic contrast to the fast transform route.
    """
    vals = _multiplier_values(mult, grid)
    dense = _restricted_from_multiplier(vals, grid, np.arange(grid.size))
    meta = {"units": "operator", "circulant": circulant_hint, "h": grid.h}
    return OperatorMatrix(dense, "torus", grid, f"dense torus matrix of {mult.descriptor}", meta)


def fractional_restricted(base, a: float, grid: Grid | None = None, interior=None) -> OperatorMatrix:
    """Discrete r+ P_a e+: the a-th power on the torus, cut down to Omega.

    base is either a TorusMultiplier (constant-coefficient fast path via
    the fast transform) or a symmetric positive semidefinite torus
    matrix (dense eigendecomposition path, capped at 8192).  a = 1 with
    a matrix base returns the principal submatrix exactly.
    """
    if not a > 0.0:
        raise ValueError("fractional exponent a must be positive")
    if interior is None:
        if grid is not None:
            interior = grid.interior_idx
    interior = None if interior is None else np.asarray(interior)

    if isinstance(base, TorusMultiplier):
        if grid is None:
            raise ConfigurationError("multiplier path needs a grid")
        idx = interior if interior is not None else np.arange(grid.size)
        R = _restricted_from_multiplier(_symbol_power(base, a, grid), grid, idx)
        desc = f"({base.descriptor})^{a:g} restricted to {idx.size} nodes"
        return OperatorMatrix(R, "interior", grid, desc, {"units": "operator", "path": "multiplier", "a": a})

    mat = base.toarray() if isinstance(base, OperatorMatrix) else np.asarray(base, dtype=float)
    desc_base = base.descriptor if isinstance(base, OperatorMatrix) else "matrix"
    meta_base = base.meta if isinstance(base, OperatorMatrix) else {}
    idx = interior if interior is not None else np.arange(mat.shape[0])

    if a == 1.0:
        R = mat[np.ix_(idx, idx)]
        return OperatorMatrix(R, "interior", grid, f"({desc_base}) restricted", {"units": "operator", "path": "submatrix", "a": 1.0})

    if meta_base.get("circulant") and grid is not None and mat.shape[0] == grid.size:
        kern_row = mat[0].reshape(grid.shape)
        vals = np.fft.fftn(kern_row)
        vals = vals.real
        if vals.min() < -1e-10 * max(vals.max(), 1.0):
            raise NotPositiveError("torus operator has negative eigenvalues beyond tolerance")
        vals = np.clip(vals, 0.0, None)
        R = _restricted_from_multiplier(vals**a, grid, idx)
        return OperatorMatrix(R, "interior", grid, f"({desc_base})^{a:g} restricted", {"units": "operator", "path": "multiplier", "a": a})

    if mat.shape[0] > DENSE_POWER_CAP:
        raise NumericError(f"dense fractional power capped at {DENSE_POWER_CAP} nodes, got {mat.shape[0]}")
    w, V = scipy.linalg.eigh(0.5 * (mat + mat.T))
    if w.min() < -1e-10 * max(abs(w.max()), 1.0):
        raise NotPositiveError("base operator has negative eigenvalues beyond tolerance")
    w = np.clip(w, 0.0, None)
    P = (V * w**a) @ V.T
    R = P[np.ix_(idx, idx)]
    R = 0.5 * (R + R.T)
    return OperatorMatrix(R, "interior", grid, f"({desc_base})^{a:g} restricted", {"units": "operator", "path": "dense", "a": a})


class RestrictedPowerOperator(spla.LinearOperator):
    """Matrix-free r+ P_a e+ for a torus multiplier.

    The operator fractional_restricted gathers into a dense m x m matrix,
    applied instead by zero extension, transforms and restriction
    (circulant embedding: Chan & Jin, An Introduction to Iterative
    Toeplitz Solvers, SIAM 2007).  Storage is one half-lattice symbol and
    each product costs two transforms of the torus, so a few Lanczos
    pairs stay within reach past the dense cap.  The dense gather keeps
    the real, symmetrized part of the torus kernel, i.e. the even part of
    the lattice symbol, and that even part is what the transforms multiply
    by; toarray() is the gather itself, for the dense route.
    """

    def __init__(self, mult: TorusMultiplier, a: float, grid: Grid):
        idx = grid.interior_idx
        super().__init__(np.float64, (idx.size, idx.size))
        vals_pow = _symbol_power(mult, a, grid)
        axes = tuple(range(grid.n))
        even = 0.5 * (vals_pow + np.roll(np.flip(vals_pow, axes), 1, axes))
        self.symbol = np.ascontiguousarray(even[..., : grid.shape[-1] // 2 + 1])
        self.mult, self.a, self.grid, self.interior = mult, a, grid, idx
        self.descriptor = f"({mult.descriptor})^{a:g} restricted to {idx.size} nodes"

    @property
    def norm_bound(self) -> float:
        """Upper bound on the 2-norm: restriction cannot raise the multiplier's largest value."""
        return float(np.abs(self.symbol).max())

    def toarray(self) -> np.ndarray:
        """The dense matrix fractional_restricted gathers for the same operator."""
        return fractional_restricted(self.mult, self.a, grid=self.grid).matrix

    def _matmat(self, X):
        return _kernels.restricted_power_apply(self.symbol, self.interior, self.grid.shape, X)


def fractional_operator(mult: TorusMultiplier, a: float, grid: Grid) -> RestrictedPowerOperator:
    """Discrete r+ P_a e+ on the grid's interior as a matrix-free LinearOperator.

    The same operator as fractional_restricted(mult, a, grid), which stays
    the oracle.
    """
    if not a > 0.0:
        raise ValueError("fractional exponent a must be positive")
    return RestrictedPowerOperator(mult, a, grid)


def spectral_fractional_dirichlet(A_dir, a: float) -> OperatorMatrix:
    """The a-th power of the Dirichlet realization itself (contrast object)."""
    mat = A_dir.toarray() if isinstance(A_dir, OperatorMatrix) else np.asarray(A_dir, dtype=float)
    desc = A_dir.descriptor if isinstance(A_dir, OperatorMatrix) else "matrix"
    grid = A_dir.grid if isinstance(A_dir, OperatorMatrix) else None
    if a == 1.0:
        return OperatorMatrix(mat.copy(), "interior", grid, desc, {"units": "operator", "a": 1.0})
    w, V = scipy.linalg.eigh(0.5 * (mat + mat.T))
    if w.min() <= 0.0:
        raise NotPositiveError("Dirichlet realization must be positive definite")
    P = (V * w**a) @ V.T
    return OperatorMatrix(0.5 * (P + P.T), "interior", grid, f"({desc})^{a:g} spectral", {"units": "operator", "a": a})


# ---------------------------------------------------------------------------
# Poisson extension and Schur DtN
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoissonExtension:
    """Discrete harmonic extension [ -A_II^{-1} A_IB phi ; phi ]."""

    K: np.ndarray
    interior_rows: np.ndarray
    boundary_rows: np.ndarray
    descriptor: str = ""

    def apply(self, phi) -> np.ndarray:
        phi = np.asarray(phi, dtype=float)
        out = np.empty(self.K.shape[0] + self.K.shape[1])
        out[self.interior_rows] = self.K @ phi
        out[self.boundary_rows] = phi
        return out


def schur_split(mat, I, B):
    """Extension map and boundary Schur complement over row sets I and B.

    mat is dense or sparse.  Returns K = -A_II^{-1} A_IB and the
    symmetrized S = A_BB + A_IB^T K; an empty B gives an (nI, 0) K and a
    (0, 0) S.  A sparse A_II is LU-factored under the minimum-degree
    ordering of A_II + A_II^T, which suits its symmetric pattern (half
    the fill of COLAMD on the 16-layer box).  A singular interior block
    raises NumericError.
    """
    I = np.asarray(I, dtype=int)
    B = np.asarray(B, dtype=int)
    if B.size == 0:
        return np.zeros((I.size, 0)), np.zeros((0, 0))
    if sp.issparse(mat):
        mat = mat.tocsr()
        A_II, A_IB, A_BB = mat[I][:, I].tocsc(), mat[I][:, B].toarray(), mat[B][:, B].toarray()
    else:
        mat = np.asarray(mat, dtype=float)
        A_II, A_IB, A_BB = mat[np.ix_(I, I)], mat[np.ix_(I, B)], mat[np.ix_(B, B)]
    try:
        if sp.issparse(A_II):
            lu = spla.splu(A_II, permc_spec="MMD_AT_PLUS_A")
            K = -lu.solve(A_IB) if np.abs(lu.U.diagonal()).min() > 1e-300 else None
        else:
            K = -scipy.linalg.solve(A_II, A_IB, assume_a="sym")
    except (RuntimeError, scipy.linalg.LinAlgError) as exc:
        raise NumericError(f"interior block solve failed (missing positivity shift?): {exc}") from exc
    if K is None:
        raise NumericError("singular interior block; apply a positivity shift")
    S = A_BB + A_IB.T @ K
    return K, 0.5 * (S + S.T)


def _boundary_rows(A_full: OperatorMatrix) -> np.ndarray:
    """Sigma+ rows followed by any Sigma- rows the assembly retained."""
    B = A_full.rows("sigma_plus")
    if "sigma_minus" in A_full.meta.get("row_sets", {}):
        B = np.concatenate([B, A_full.rows("sigma_minus")])
    return B


def poisson_extension(A_full: OperatorMatrix) -> PoissonExtension:
    """K_gamma for an assembly that retained its boundary nodes."""
    I, B = A_full.rows("interior"), _boundary_rows(A_full)
    K, _ = schur_split(A_full.matrix, I, B)
    return PoissonExtension(K, I, B, f"Poisson extension of [{A_full.descriptor}]")


def schur_dtn(A_full: OperatorMatrix, partition=None, boundary_weights=None):
    """Discrete DtN pair from the boundary Schur complement.

    Returns (P_dtn, L): P_dtn is the negated Schur complement of the
    form matrix scaled by the boundary weight (h^{n-1} by default), a
    consistent approximation of the continuum DtN principal part; L is
    the positive restriction of -P_dtn to the partition's Sigma_+ nodes.
    The unweighted algebraic Schur complement is kept in meta for the
    exact Krein identity.
    """
    B = _boundary_rows(A_full)
    _, S_alg = schur_split(A_full.matrix, A_full.rows("interior"), B)

    grid = A_full.grid
    n = grid.n if grid is not None else 1
    h = A_full.meta.get("h", grid.h if grid is not None else 1.0)
    if boundary_weights is None:
        w = np.full(B.size, h ** (n - 1))
    else:
        w = np.asarray(boundary_weights, dtype=float)
    # form-unit Schur = h^n * algebraic (operator units); weighted by w
    units = A_full.meta.get("units", "operator")
    S_form = (h**n) * S_alg if units == "operator" else S_alg
    root = 1.0 / np.sqrt(w)
    S_w = root[:, None] * S_form * root[None, :]

    if partition is None:
        # default Sigma_+ restriction; keeps everything when no Sigma_-
        # rows are present (it was eliminated at assembly time)
        sel = np.arange(A_full.rows("sigma_plus").size)
    else:
        # partition entries are grid node ids, or boundary positions when
        # the matrix carries no node ids
        node_ids = A_full.meta.get("node_ids")
        boundary_nodes = np.arange(B.size) if node_ids is None else np.asarray(node_ids)[B]
        lookup = {int(nid): k for k, nid in enumerate(boundary_nodes)}
        wanted = [int(p) for p in np.asarray(partition).ravel()]
        if any(p not in lookup for p in wanted):
            raise ConfigurationError("partition contains nodes outside the boundary set")
        sel = np.array([lookup[p] for p in wanted], dtype=int)

    P = OperatorMatrix(
        -S_w,
        "boundary",
        grid,
        f"discrete DtN of [{A_full.descriptor}]",
        {"units": "weighted-form", "algebraic_schur": S_alg, "weights": w, "schur_selector": sel},
    )
    L = OperatorMatrix(
        S_w[np.ix_(sel, sel)],
        "sigma_plus",
        grid,
        f"interface operator of [{A_full.descriptor}]",
        {"units": "weighted-form", "algebraic_schur": S_alg[np.ix_(sel, sel)], "weights": w[sel]},
    )
    return P, L


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
        "units": "form",
        "row_sets": row_sets,
        "node_ids": order,
        "h": dr,
        "volumes": grid.volumes()[order],
        "arc_weights": grid.arc_weights(),
        "sigma": sigma,
    }
    return OperatorMatrix(perm, "polar-disk", None, "Laplacian form on a polar disk grid", meta)
