"""Grids and matrix realizations.

A grid is the domain's node set on its bounding block (Grid): uniform
nodes of one spacing (grid_spacing, the one spacing rule), classified
into interior, free and Dirichlet boundary nodes, with the face planes
that carry them decided once, from integer block indices (Grid.planes).
RestrictedPowerOperator, on such a grid, is the restricted fractional
power r+ P_a e+ of P = -div(A grad) with constant coefficients A, and
the one owner of the periodic embedding: it places the block in a torus
of _TORUS_PAD times the domain's extent, evaluates the power of the
symbol once on the torus frequency lattice and owns its torus kernel.
It is applied matrix-free by transforms, for a few eigenpairs past the
dense cap, gathered into a dense matrix (toarray), and split into
reflection-parity blocks (ParitySplit) on tensor-block interiors, folded
further where axes of equal length swap, for full spectra.  Its dense
oracle, the power of the whole torus matrix by eigendecomposition, lives
with the tests (test_discretize.dense_power).  The second-order
Dirichlet and mixed assemblies of constant coefficients sum the form
over the closure nodes of the domain with one neighbour rule for both
boundary conditions.  schur_split is the one Schur complement: its
extension map K and interface S are the discrete Poisson extension and,
times the spacing h, the discrete Dirichlet-to-Neumann operator of the
Krein assembly (zaremba.KreinAssembly.K and L_weighted = h S).
The interior block, dense or sparse, is eliminated over the breadth-first
levels of its graph from the free boundary, in which any matrix is block
tridiagonal (George & Liu, Computer Solution of Large Sparse Positive
Definite Systems, 1981, ch. 4): one sweep of dense LU factors and
products, block by block from the far end, with partial pivoting across
neighbouring blocks as in a banded LU, the block form of
zaremba.chain_schur's per-mode sweep.

Unit conventions
----------------
Assembled OperatorMatrix objects are in operator units: the matrix of
the bilinear form divided by the node volume h^n, so the 1D Dirichlet
Laplacian is the classical tridiag(-1, 2, -1)/h^2.  The form matrix is
recovered as h^n * matrix; a Schur complement S of the operator-unit
matrix times h (h^n S over the boundary weight h^{n-1}) approximates
the continuum DtN, and h^n cancels in a pencil of two such matrices.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import dgemm, dtrsm
from scipy.linalg.lapack import dgetrf, dgetrs, dlaswp

from . import _kernels
from .errors import ConfigurationError, InvariantError, NotPositiveError, NumericError
from .quadrature import DomainSpec
from .symbols import SecondOrderCoeffs

PARITY_DEFECT = 1e-12  # largest relative kernel defect ParitySplit accepts
_SNAP = 1e-9  # relative to h; boundary-hit tolerance
_TORUS_PAD = 2.0  # torus extent over domain extent, per axis, of the periodic embedding
_SLAB = 1 << 16  # bounding-block nodes build_grid classifies at a time, rounded to whole planes
_LEVEL_BLOCK = 32  # fewest nodes in one block of schur_split's level sweep


# ---------------------------------------------------------------------------
# uniform grid on the bounding block
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """Uniform grid on the domain's bounding block, with node classification.

    shape is the block, cells + 1 nodes per axis (grid_spacing), whose
    node 0 sits at domain.origin().  Node sets (flat indices into the
    row-major block, ascending) are disjoint: interior of Omega,
    sigma_plus and sigma_minus; every other block node lies outside the
    closure.  d holds the distance to the domain boundary of each
    interior node, aligned with interior_idx.  planes (n, 2) holds the
    block index of each axis's low and high face plane (see _plane_hits).
    """

    domain: DomainSpec
    h: float
    shape: tuple
    planes: np.ndarray
    interior_idx: np.ndarray
    sigma_plus_idx: np.ndarray
    sigma_minus_idx: np.ndarray
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
        return self.domain.origin() + self.h * multi

    def on_planes(self, idx) -> np.ndarray:
        """(len(idx), n, 2) mask of the given flat indices on each axis's low / high face plane."""
        return _plane_hits(self.planes, np.stack(np.unravel_index(np.asarray(idx), self.shape), axis=-1))


def grid_spacing(domain: DomainSpec, nodes_per_axis: int) -> tuple[float, list[int]]:
    """Spacing h = max extent / nodes_per_axis and the whole cells per axis, round(extent / h)."""
    if nodes_per_axis < 8:
        raise ConfigurationError("nodes_per_axis must be at least 8")
    extent = domain.extent()
    h = float(extent.max()) / nodes_per_axis
    return h, [int(round(e / h)) for e in extent]


def _plane_hits(planes: np.ndarray, multi: np.ndarray) -> np.ndarray:
    """Face-plane membership from integer block indices, (len(multi), n, 2).

    A node lies on the low (high) face plane of axis t when its index
    along t equals planes[t, 0] (planes[t, 1]).  Only box-like domains
    have face planes: the low one is node-aligned by construction, the
    high one when the extent is a whole number of cells; the other
    entries are -1 and match no node.
    """
    return multi[:, :, None] == planes


def build_grid(domain: DomainSpec, nodes_per_axis: int) -> Grid:
    """Uniform grid of spacing h = max extent / nodes_per_axis on the domain's bounding block.

    Omega membership is decided by the cell-center indicator; nodes
    landing on the boundary (within snap tolerance) are classified into
    sigma_plus (relative interiors of its faces: on the face's plane and
    on no other) and sigma_minus.  The block holds every closure node.  It
    is classified in slabs of whole planes along axis 0, of about _SLAB
    nodes each, which bounds the temporaries.  Free nodes lie on faces of
    intervals, rectangles and boxes only, so a disk or ball grid has no
    sigma_plus nodes.
    """
    h, cells = grid_spacing(domain, nodes_per_axis)
    shape = tuple(c + 1 for c in cells)
    planes = np.full((len(shape), 2), -1)
    if domain.box_like:
        for t, (c, e) in enumerate(zip(cells, domain.extent())):
            planes[t] = 0, (c if abs(c * h - e) <= _SNAP * h else -1)

    plane, total = int(np.prod(shape[1:])), int(np.prod(shape))
    step = max(1, _SLAB // plane) * plane
    parts = []  # per slab: interior, sigma_plus and sigma_minus indices, interior distances
    for lo in range(0, total, step):
        idx = np.arange(lo, min(lo + step, total))
        multi = np.stack(np.unravel_index(idx, shape), axis=-1)
        x = domain.origin() + h * multi
        d_slab = _distance_to_boundary(domain, x)
        on_boundary = d_slab <= _SNAP * h
        inside = domain.contains(x) & ~on_boundary
        splus = np.zeros(x.shape[0], dtype=bool)
        if domain.box_like:
            hits = _plane_hits(planes, multi)
            on_plane = hits.any(axis=2)
            for face in domain.sigma_plus:
                axis = "xyz".index(face[0])
                on_other = np.delete(on_plane, axis, axis=1).any(axis=1)
                splus |= on_boundary & hits[:, axis, int(face[1] == "+")] & ~on_other
        parts.append((idx[inside], idx[splus], idx[on_boundary & ~splus], d_slab[inside]))
    interior_idx, sigma_plus_idx, sigma_minus_idx, d = (np.concatenate(p) for p in zip(*parts))
    return Grid(
        domain=domain,
        h=h,
        shape=shape,
        planes=planes,
        interior_idx=interior_idx,
        sigma_plus_idx=sigma_plus_idx,
        sigma_minus_idx=sigma_minus_idx,
        d=d,
    )


def _distance_to_boundary(domain: DomainSpec, x: np.ndarray) -> np.ndarray:
    if not domain.box_like:  # the disk or the ball, centred at the origin
        return np.abs(np.linalg.norm(x, axis=1) - domain.radius)
    lo = domain.origin()
    hi = lo + domain.extent()
    below = np.maximum(lo - x, 0.0)
    above = np.maximum(x - hi, 0.0)
    outside = np.sqrt((below**2 + above**2).sum(axis=1))
    inside_margin = np.minimum(x - lo, hi - x).min(axis=1)
    return np.where(outside > 0.0, outside, np.abs(inside_margin))


# ---------------------------------------------------------------------------
# operator matrices
# ---------------------------------------------------------------------------


class OperatorMatrix:
    """Symmetric matrix realization of a continuum operator.

    Carries the node sets its rows act on (meta["row_sets"] maps set
    names to row positions), the grid it came from, and a plain-text
    descriptor of the continuum object.
    """

    def __init__(self, matrix, grid=None, descriptor: str = "", meta: dict | None = None):
        if sp.issparse(matrix):
            matrix = matrix.tocsr()
            scale = np.abs(matrix.data).max() if matrix.nnz else 0.0
            diff = (matrix - matrix.T).tocoo()
            asym = np.abs(diff.data).max() if diff.nnz else 0.0
        else:
            matrix = np.asarray(matrix, dtype=float)
            asym, scale = _kernels.asymmetry(matrix)
        if scale and not asym <= 1e-12 * scale:  # NaN fails the comparison
            raise InvariantError("operator matrix is not symmetric to working tolerance")
        self.matrix = matrix
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


def assemble_second_order(coeffs: SecondOrderCoeffs, grid: Grid, bc: str, sigma=None, a0=0.0) -> OperatorMatrix:
    """Symmetric realization of -div(a grad u) + a0 u on the grid.

    bc = "dirichlet" keeps interior nodes only; "mixed" keeps interior
    plus sigma_plus nodes (Robin term sigma there, Dirichlet on
    sigma_minus) and requires sigma, 0.0 being a valid choice, and a grid
    with sigma_plus nodes.  a0 and sigma are numbers.

    The form is summed over the closure nodes (interior and boundary) in
    ascending block index, and one neighbour rule serves both boundary
    conditions: the closure position of node + offset, or -1 where that
    lies outside the block or the closure.  A dual cell on a face plane
    (Grid.planes) is halved once per plane: edges along the plane, cross
    cells in it, node volumes.

    The coefficients are constant; cross coefficients enter through the
    diagonal-difference form per grid cell.
    """
    n, h = grid.n, grid.h
    if not coeffs.constant:
        raise ConfigurationError("assemble_second_order takes constant coefficients only")
    if bc not in ("dirichlet", "mixed"):
        raise ConfigurationError(f"unknown boundary condition {bc!r}")
    if bc == "mixed" and sigma is None:
        raise ConfigurationError("mixed assembly needs sigma (0.0 is allowed)")
    if bc == "mixed" and grid.sigma_plus_idx.size == 0:
        raise ConfigurationError(f"mixed assembly needs free boundary nodes, and the {grid.domain.kind} grid has "
                                 "none: they lie on faces of intervals, rectangles and boxes only")
    if coeffs.n != n:
        raise ConfigurationError("coefficient dimension does not match the grid")

    if bc == "dirichlet":
        keep = grid.interior_idx
        row_sets = {"interior": np.arange(keep.size)}
    else:
        keep = np.concatenate([grid.interior_idx, grid.sigma_plus_idx])
        row_sets = {
            "interior": np.arange(grid.interior_idx.size),
            "sigma_plus": grid.interior_idx.size + np.arange(grid.sigma_plus_idx.size),
        }
    closure = np.sort(np.concatenate([grid.interior_idx, grid.boundary_idx]))
    multi = np.stack(np.unravel_index(closure, grid.shape), axis=-1)
    on_plane = _plane_hits(grid.planes, multi).any(axis=2)

    def neighbour(offset):
        step = multi + offset
        inside = ((step >= 0) & (step < grid.shape)).all(axis=1)
        t = np.ravel_multi_index(np.where(inside, step.T, 0), grid.shape)
        p = np.minimum(np.searchsorted(closure, t), closure.size - 1)
        return np.where(inside & (closure[p] == t), p, -1)

    rows, cols, vals = [], [], []

    def add_edges(k, l, w):
        rows.extend((k, l, k, l))
        cols.extend((k, l, l, k))
        vals.extend((w, w, -w, -w))

    unit = np.eye(n, dtype=int)
    for axis in range(n):
        nb = neighbour(unit[axis])
        k = np.flatnonzero(nb >= 0)
        l = nb[k]
        frac = 0.5 ** np.delete(on_plane[k], axis, axis=1).sum(axis=1)
        add_edges(k, l, h ** (n - 2) * frac * coeffs.a[axis, axis])

    # diagonal-difference edges along e_i + e_j and e_i - e_j over each closure cell
    for i in range(n):
        for j in range(i + 1, n):
            aij = coeffs.a[i, j]
            if aij == 0.0:
                continue
            c10, c01, c11 = neighbour(unit[i]), neighbour(unit[j]), neighbour(unit[i] + unit[j])
            cell = np.flatnonzero((c10 >= 0) & (c01 >= 0) & (c11 >= 0))
            half = 0.5 ** np.delete(on_plane[cell], (i, j), axis=1).sum(axis=1)
            for sgn, k, l in ((1, cell, c11[cell]), (-1, c01[cell], c10[cell])):
                add_edges(k, l, np.full(k.size, sgn * aij * 0.5 * h ** (n - 2)) * half)

    # zero-order and Robin terms (node volumes, boundary fractions)
    diag = np.zeros(closure.size)
    if a0:
        diag += a0 * h**n * 0.5 ** on_plane.sum(axis=1)
    if bc == "mixed":
        diag[np.searchsorted(closure, grid.sigma_plus_idx)] += sigma * h ** (n - 1)
    nz = np.flatnonzero(diag)
    rows.append(nz)
    cols.append(nz)
    vals.append(diag[nz])

    pos = np.full(closure.size, -1)
    pos[np.searchsorted(closure, keep)] = np.arange(keep.size)
    r, c = pos[np.concatenate(rows)], pos[np.concatenate(cols)]
    kept = (r >= 0) & (c >= 0)
    form = sp.csr_matrix((np.concatenate(vals)[kept], (r[kept], c[kept])), shape=(keep.size, keep.size))
    form.sum_duplicates()
    mat = form / h**n
    desc = f"second-order form, bc={bc}, coefficients {coeffs.describe()}"
    meta = {"row_sets": row_sets, "node_ids": keep, "h": h}
    return OperatorMatrix(mat, grid, desc, meta)


# ---------------------------------------------------------------------------
# fractional powers on the torus, restricted to Omega
# ---------------------------------------------------------------------------


def _multiplier_values(coeffs: SecondOrderCoeffs, torus: tuple, h: float) -> np.ndarray:
    """The quadratic form xi . A xi of constant coefficients A on the frequency lattice of a torus of spacing h."""
    if not coeffs.constant:
        raise ConfigurationError("multiplier path needs constant coefficients")
    freqs = [2.0 * np.pi * np.fft.fftfreq(m, d=h) for m in torus]
    xi = np.stack(np.meshgrid(*freqs, indexing="ij"), axis=-1)
    return np.einsum("...i,ij,...j->...", xi, coeffs.a, xi)


def _reflect(x: np.ndarray, axes) -> np.ndarray:
    """x(-d) of a torus array x(d), d negated modulo the torus along the given axes."""
    return np.roll(np.flip(x, axes), 1, axes)


def _even_kernel(vals_pow: np.ndarray) -> np.ndarray:
    """The real torus kernel of a lattice symbol, made even: K(d) = K(-d) bit for bit."""
    kern = np.fft.ifftn(vals_pow).real
    return 0.5 * (kern + _reflect(kern, tuple(range(kern.ndim))))


@dataclass(frozen=True)
class ParitySplit:
    """Reflection-parity blocks of r+ P_a e+ on a tensor-block interior, folded by axis swaps.

    When the even torus kernel K is even along every axis as well, the
    restricted operator commutes with the reflection j_k -> L_k - 1 - j_k
    of each axis of the interior block (L_k nodes along axis k), so it
    splits into one block per parity p in {0, 1}^n (Cantoni & Butler,
    Linear Algebra Appl. 13 (1976), for one reflection).  Block p acts on
    the half-block with ceil(L_k/2) nodes (the centre included) along an
    even axis and floor(L_k/2) along an odd one:

        B_p[I, J] = f(I) f(J) sum_s (-1)^(p.s) K(I - rho_s J),

    where rho_s reflects the axes in s and f is the product of 1/sqrt(2)
    over the axes where I is the centre of an odd length.  The spectra of
    the blocks together are the operator's.

    Two axes of equal length, on a torus of equal size, are swappable
    when the swap tau of their offsets leaves K unchanged within
    PARITY_DEFECT; swapping the two node indices is then a symmetry of the
    operator too, and the blocks reduce further in a basis adapted to it
    (symmetry-adapted bases: Bossavit, Comput. Methods Appl. Mech. Engrg.
    56 (1986)).  Swappable axes form classes.  (a) A permutation within
    the classes maps block p onto a block with the same spectrum, so one
    block is solved per key, p sorted within each class of axes, and its
    values are repeated for the key's other parities.  (b) A block with
    p_i = p_j on a swappable pair (i, j) commutes with the swap I -> tau I
    of its nodes and splits into a symmetric and an antisymmetric half,
    on the tau-orbit representatives I_i <= I_j (I_i < I_j for the
    antisymmetric half):

        B_p^+-[I, J] = g(I) g(J) sum_s (-1)^(p.s) (K(I - rho_s J) +- K(I - rho_s tau J)),

    where g is f times 1/sqrt(2) at the swap-fixed nodes I_i = I_j.  Each
    half is gathered directly; the block it halves is never formed.  The
    kernel is made even along every axis, and invariant under each class's
    permutations, bit for bit, and the terms of s and tau s are summed
    before the rest, so every block and half is exactly symmetric.
    """

    kernel: np.ndarray  # torus kernel, even along every axis and swap-invariant within each class, bit for bit
    corner: np.ndarray  # torus multi-index of the interior block's low corner
    lengths: np.ndarray  # interior nodes per axis
    defect: float  # max over axes of max|K - flip_k K|, relative to max|K|, before K was made even per axis
    classes: tuple = ()  # classes of two or more mutually swappable axes
    swap_defect: float | None = None  # min of max|K - tau K| / max|K| over pairs of equal length; None without one

    @property
    def parities(self) -> list[tuple]:
        """The parities p whose half-blocks are nonempty (a length-1 axis has no odd half)."""
        return [p for p in itertools.product((0, 1), repeat=self.lengths.size) if (self.lengths > p).all()]

    def half(self, p) -> np.ndarray:
        """Half-block lengths of parity p: ceil(L_k/2) where p_k = 0, floor(L_k/2) where p_k = 1."""
        return (self.lengths + 1 - np.asarray(p)) // 2

    @property
    def sizes(self) -> list[int]:
        return [int(np.prod(self.half(p))) for p in self.parities]

    @property
    def solves(self) -> list[tuple]:
        """(p, pair, sign, copies, order) of each matrix block(p, pair, sign) the split's spectrum needs.

        p is a key and copies the number of parities it stands for; pair
        is the first swappable pair (i, j) with p_i = p_j, or None; sign is
        1, or -1 for an antisymmetric half, left out when it is empty.
        order is the matrix's order, from the half-block lengths alone:
        nothing is gathered.  A half on a pair of equal half lengths l
        keeps the l (l + 1) / 2 orbit representatives with I_i <= I_j of
        each l x l plane, or the l (l - 1) / 2 with I_i < I_j.
        """
        keys: dict[tuple, int] = {}
        for p in self.parities:
            key = list(p)
            for c in self.classes:
                for k, bit in zip(c, sorted(p[k] for k in c)):
                    key[k] = bit
            keys[tuple(key)] = keys.get(tuple(key), 0) + 1
        out = []
        for p, copies in keys.items():
            half = self.half(p)
            pair = next((ij for c in self.classes for ij in itertools.combinations(c, 2) if p[ij[0]] == p[ij[1]]), None)
            l = 1 if pair is None else int(half[pair[0]])  # l = 1: the whole block, one sign
            for sign in (1,) if l == 1 else (1, -1):
                out.append((p, pair, sign, copies, int(np.prod(half)) // (l * l) * (l * (l + sign) // 2)))
        return out

    def block(self, p, pair=None, sign=1) -> np.ndarray:
        """The dense block B_p, or with a swappable pair (i, j), p_i = p_j, its half of the given sign."""
        L, half = self.lengths, self.half(p)
        local = np.stack(np.unravel_index(np.arange(np.prod(half)), tuple(half)), axis=-1)
        f = np.where((L % 2 == 1) & (local == L // 2), np.sqrt(0.5), 1.0).prod(axis=1)
        swap = list(range(L.size))  # tau as an order of the axes: none without a pair
        if pair is not None:
            i, j = pair
            swap[i], swap[j] = j, i
            keep = local[:, i] < local[:, j] if sign < 0 else local[:, i] <= local[:, j]
            local, f = local[keep], f[keep] * np.where(local[keep, i] == local[keep, j], np.sqrt(0.5), 1.0)
        columns = [(local, 1)] if pair is None else [(local, 1), (local[:, swap], sign)]  # J, and tau J
        groups, signs = [], []
        for s in itertools.product((0, 1), repeat=L.size):
            t = tuple(s[k] for k in swap)
            if t < s:
                continue  # summed with its swap image t
            for J, weight in columns:
                groups.append([self.corner + np.where(r, L - 1 - J, J) for r in dict.fromkeys((s, t))])
                signs.append(weight * (-1) ** int(np.dot(p, s)))
        B = _kernels.toeplitz_gather(self.kernel.ravel(), self.corner + local, self.kernel.shape, groups, signs)
        B *= np.multiply.outer(f, f)  # f(I) f(J) rounds alike for (I, J) and (J, I)
        return B


def _swap_invariant(kern: np.ndarray, classes) -> np.ndarray:
    """An even kernel read at each offset folded into [0, N_k/2] per axis and sorted within each class of axes.

    Folding keeps every value of an even kernel, and sorting makes it
    invariant under the permutations of each class, bit for bit.
    """
    shape = np.array(kern.shape).reshape(-1, *(1,) * kern.ndim)
    d = np.indices(kern.shape)
    d = np.minimum(d, shape - d)
    for c in classes:
        d[list(c)] = np.sort(d[list(c)], axis=0)
    return kern[tuple(d)]


class RestrictedPowerOperator(spla.LinearOperator):
    """Matrix-free r+ P_a e+ for P = -div(A grad), A the constant coefficients.

    The operator owns the periodic embedding: the grid's bounding block
    sits in the middle of a torus (torus, its shape) of _TORUS_PAD times
    the domain's extent per axis, at offsets (torus - cells) // 2, and
    interior holds the interior nodes' flat torus indices.  The
    multiplier xi . A xi of P is evaluated once, on the torus frequency
    lattice, and raised to the power a; both forms of the
    operator come from that one array.  Products use its even part on the
    half lattice: zero extension, transforms and restriction (circulant
    embedding: Chan & Jin, An Introduction to Iterative Toeplitz Solvers,
    SIAM 2007), two transforms of the torus each, so a few Lanczos pairs
    stay within reach past the dense cap.  The dense forms use its torus
    kernel, the real, symmetrized inverse transform, i.e. the kernel of
    the same even part: toarray() gathers it into the m x m matrix, for
    the dense route, and parity_split() folds it into reflection-parity
    blocks, for full spectra.  The kernel is built on the first of those
    calls only.  block, found once here, is (low corner, nodes per axis)
    of the interior when it fills a tensor block, else None;
    parity_split() and preconditioner() both read it.
    """

    def __init__(self, coeffs: SecondOrderCoeffs, a: float, grid: Grid):
        if not 0.0 < a < np.inf:  # NaN fails the comparison
            raise ValueError("fractional exponent a must be finite and positive")
        h, extent = grid.h, grid.domain.extent()
        torus = tuple(int(round(_TORUS_PAD * e / h)) for e in extent)
        if any(m * h < e + 2 * h for m, e in zip(torus, extent)):
            raise ConfigurationError("domain does not fit in the padded torus")
        offsets = (np.array(torus) - (np.array(grid.shape) - 1)) // 2  # (torus - cells) // 2 per axis
        multi = offsets + np.stack(np.unravel_index(grid.interior_idx, grid.shape), axis=-1)
        idx = np.ravel_multi_index(multi.T, torus)  # ascending: the block's C order is the torus's
        super().__init__(np.float64, (idx.size, idx.size))
        vals = _multiplier_values(coeffs, torus, h)
        if vals.min() < -1e-10 * max(vals.max(), 1.0):  # an indefinite form
            raise NotPositiveError("multiplier takes negative values on the frequency lattice")
        self._vals_pow = np.clip(vals, 0.0, None) ** a
        even = 0.5 * (self._vals_pow + _reflect(self._vals_pow, tuple(range(grid.n))))
        self.symbol = np.ascontiguousarray(even[..., : torus[-1] // 2 + 1])
        self.coeffs, self.a, self.grid, self.torus, self.interior = coeffs, a, grid, torus, idx
        corner = multi.min(axis=0)
        lengths = multi.max(axis=0) - corner + 1
        # (torus multi-index of the low corner, nodes per axis) of the interior, or None if it is no tensor block
        self.block = (corner, lengths) if idx.size == np.prod(lengths) else None
        self.descriptor = f"(quadratic-form multiplier {coeffs.describe()})^{a:g} restricted to {idx.size} nodes"

    @functools.cached_property
    def _kernel(self) -> np.ndarray:
        """The even torus kernel of the power, torus shape."""
        return _even_kernel(self._vals_pow)

    @property
    def norm_bound(self) -> float:
        """Upper bound on the 2-norm: restriction cannot raise the multiplier's largest value."""
        return float(np.abs(self.symbol).max())

    def toarray(self) -> np.ndarray:
        """The dense m x m matrix: the kernel read at the offsets between interior nodes."""
        multi = np.stack(np.unravel_index(self.interior, self.torus), axis=-1)
        return _kernels.toeplitz_gather(self._kernel.ravel(), multi, self.torus)

    def parity_split(self) -> ParitySplit | None:
        """The reflection-parity blocks of the operator, or None when it does not split.

        It splits when the interior fills a tensor block and the even
        kernel departs from evenness along each axis by at most
        PARITY_DEFECT, relative to its largest value.  Axes of equal
        length and torus size whose swap moves the kernel by at most
        PARITY_DEFECT, relative to the same value, are swappable; each
        class of mutually swappable axes folds the blocks further.
        """
        if self.block is None:
            return None
        corner, lengths = self.block
        kern = self._kernel
        scale = np.abs(kern).max()
        defect = max(np.abs(kern - _reflect(kern, k)).max() for k in range(kern.ndim)) / scale
        if not defect <= PARITY_DEFECT:  # NaN for a zero kernel: no split either
            return None
        swaps = {(i, j): float(np.abs(kern - np.swapaxes(kern, i, j)).max() / scale)
                 for i, j in itertools.combinations(range(kern.ndim), 2)
                 if lengths[i] == lengths[j] and kern.shape[i] == kern.shape[j]}
        classes: list[list[int]] = []
        for k in range(kern.ndim):  # into the first class every member of which swaps with k
            home = next((c for c in classes if all(swaps.get((i, k), np.inf) <= PARITY_DEFECT for i in c)), None)
            if home is None:
                classes.append([k])
            else:
                home.append(k)
        classes = tuple(tuple(c) for c in classes if len(c) > 1)
        for k in range(kern.ndim):  # each step keeps the earlier axes even bit for bit; the cached kernel stays
            kern = 0.5 * (kern + _reflect(kern, k))
        if classes:
            kern = _swap_invariant(kern, classes)
        return ParitySplit(kern, corner, lengths, float(defect), classes, min(swaps.values(), default=None))

    def preconditioner(self) -> spla.LinearOperator | None:
        """S diag(lambda^(-a)) S, an approximate inverse for LOBPCG, or None where it does not apply.

        S is the orthonormal DST-I on the interior block (L_k nodes along
        axis k) and lambda_j = sum_k a_kk (pi j_k / ((L_k + 1) h))^2, a_kk
        the diagonal of the coefficients, are the Dirichlet eigenvalues of
        the diagonal part of the form on the block's extent, j_k = 1..L_k:
        this is the spectral power (-Delta_h)^a, whose energy norm is
        equivalent to the restricted operator's for 0 < a < 1 (Bonito et
        al., Comput. Vis. Sci. 19 (2018)).  A cross-coefficient form is
        preconditioned by its diagonal.  None when the interior is not a
        tensor block (self.block is None) or a lies outside (0, 1).
        """
        if self.block is None or not 0.0 < self.a < 1.0:
            return None
        lengths, h = self.block[1], self.grid.h
        per_axis = [d * (np.pi * np.arange(1, L + 1) / ((L + 1) * h)) ** 2
                    for d, L in zip(np.diag(self.coeffs.a), lengths)]
        weight = functools.reduce(np.add.outer, per_axis) ** -self.a
        axes = tuple(range(self.grid.n))

        def apply(X):
            cols = np.asarray(X, dtype=float).reshape((*lengths, -1))
            out = _kernels.dst1(weight[..., None] * _kernels.dst1(cols, axes), axes)
            return out.reshape(np.shape(X))

        return spla.LinearOperator(self.shape, matvec=apply, matmat=apply, dtype=np.float64)

    def _matmat(self, X):
        return _kernels.restricted_power_apply(self.symbol, self.interior, self.torus, X)


# ---------------------------------------------------------------------------
# Schur complement
# ---------------------------------------------------------------------------


def schur_split(mat, I, B):
    """Extension map and boundary Schur complement over row sets I and B.

    mat is dense or sparse; a dense one is converted to CSR, so every input
    takes the one elimination, _level_sweep (one block, a general dense LU,
    where A_IB touches every row).  Returns K = -A_II^{-1} A_IB, correct for
    any nonsingular A_II, and the symmetrized S = A_BB + A_IB^T K, the Schur
    complement only of a symmetric mat (A_BI = A_IB^T; OperatorMatrix checks
    it for every caller); an empty B gives an (nI, 0) K and a (0, 0) S.
    A_IB^T K is summed over the touched rows only, where A_IB is nonzero.
    A singular interior block raises NumericError.
    """
    I = np.asarray(I, dtype=int)
    B = np.asarray(B, dtype=int)
    if B.size == 0:
        return np.zeros((I.size, 0)), np.zeros((0, 0))
    mat = sp.csr_matrix(mat, dtype=float)
    rows = mat[I]
    A_II, A_IB, A_BB = rows[:, I], rows[:, B].toarray(), mat[B][:, B].toarray()
    touched = np.flatnonzero(A_IB.any(axis=1))
    K = _level_sweep(A_II, A_IB, touched)
    # on scipy's BLAS, as the sweep (see _kernels)
    S = A_BB + _kernels.gemm(A_IB[touched].T, K[touched])
    return K, 0.5 * (S + S.T)


def _level_sweep(A_II, A_IB, touched):
    """K = -A_II^{-1} A_IB, A_II in CSR, by block elimination over breadth-first levels.

    Level j holds the interior nodes at graph distance j, in the pattern
    of A_II + A_II^T, from the touched rows (the rows where A_IB is
    nonzero), so A_II couples only equal or adjacent levels and is block
    tridiagonal in level order (George & Liu, Computer Solution of Large
    Sparse Positive Definite Systems, 1981, ch. 4).  Consecutive levels,
    from the touched ones outward, are merged into blocks of at least
    _LEVEL_BLOCK nodes, numbered from the far end: block 0 is the
    farthest, block `last` holds the touched rows.

    The sweep is Gaussian elimination with partial pivoting on the
    augmented [A_II | A_IB], restricted to its block band as LAPACK's
    banded dgbtrf restricts it to a scalar band.  Step l factors the
    columns of block l over every row that still has entries there: the
    rows carried from step l-1 (the rows left after its pivots, which
    reach columns l and l+1) and block row l+1 (columns l, l+1 and l+2).
    One dgetrf on that tall panel picks the pivots, so a row may cross
    from block l+1 into block l's pivots.  Pivoting inside each block
    alone breaks down where a far-side principal submatrix (blocks 0..l)
    is singular although A_II is not, as for an indefinite interior at a
    shift where a far strip of it is singular; crossing pivots do not.
    The panel's pivot rows give W_l = U_l^{-1} [U_{l,l+1} | U_{l,l+2}]
    (dtrsm), the second part only where a crossed row brings one in, and
    the other rows are carried, less their share (dgemm).  The columns
    of A_IB join the band at block `last`, the only rows where A_IB is
    nonzero; the carried rows left at the end are solved against them
    (dgetrf, dgetrs), and back-substitution is one or two products per
    block, K_l = -W_l [K_{l+1}; K_{l+2}], written into K's rows.  Off-diagonal
    blocks are read as they are, so a matrix that is not symmetric is
    solved too.  Nodes run by descending level within a block as well,
    so each block's pivots go toward B like the sweep; on one long chain
    this keeps the scalar recursion's accuracy, where ordering each
    block from its near side lost a factor 40 on the 2048-node interval.
    Each block row of A_II is made dense only when the sweep reaches it,
    and only the W_l are kept.  Interior nodes that the touched rows do
    not reach are decoupled from them and have K = 0; their block is
    still factored, so a singular interior is refused there too
    (NumericError).
    """
    from scipy.sparse import csgraph  # imported here: only this sweep needs it, and its import adds 1 MB to every run

    n, nB = A_II.shape[0], A_IB.shape[1]
    K = np.empty((n, nB))
    pattern = sp.csr_matrix((np.ones(A_II.nnz), A_II.indices, A_II.indptr), shape=A_II.shape)
    dist = csgraph.dijkstra(pattern, directed=False, indices=touched, unweighted=True, min_only=True) \
        if touched.size else np.full(n, np.inf)
    reached = np.isfinite(dist)
    if not reached.all():
        unreached = np.flatnonzero(~reached)
        _factor(A_II[unreached][:, unreached].toarray(order="F"))
        K[unreached] = 0.0
    if not reached.any():
        return K
    level = dist[reached].astype(int)
    nodes = np.flatnonzero(reached)[np.argsort(-level, kind="stable")]  # far first
    cuts = [0]  # levels merged from B outward, then read from the far end
    for end in np.cumsum(np.bincount(level)):
        if end - cuts[-1] >= _LEVEL_BLOCK or end == nodes.size:
            cuts.append(int(end))
    bounds = [nodes.size - c for c in reversed(cuts)]
    last = len(bounds) - 2
    P = A_II[nodes][:, nodes].tocsr()
    P.sum_duplicates()
    row_of = np.repeat(np.arange(nodes.size), np.diff(P.indptr))

    def block_row(r, out):
        """Scatter block row r of P (columns from block r-1 on) into out, then A_IB's rows if r is last."""
        lo, hi, c0 = bounds[r], bounds[r + 1], bounds[max(r - 1, 0)]
        a, b = P.indptr[lo], P.indptr[hi]
        out[row_of[a:b] - lo, P.indices[a:b] - c0] = P.data[a:b]
        if r == last:
            out[:, nodes.size - c0 :] = A_IB[nodes[lo:hi]]
        return out

    # rows carried into step l, over the columns of blocks l and l+1 (A_IB's past block `last`)
    width = bounds[min(2, last + 1)] + (nB if last == 0 else 0)
    carried = block_row(0, np.zeros((bounds[1], width), order="F"))
    W = []  # W_l = U_l^{-1} [U_{l,l+1} | U_{l,l+2}], block 0 the farthest
    for l in range(last):
        lo, mid, hi = bounds[l], bounds[l + 1], bounds[l + 2]
        end = bounds[l + 3] if l + 2 <= last else hi + nB  # columns through block l+2, or A_IB's
        k = mid - lo  # block l's columns, and the rows carried into this step
        panel = np.zeros((k + hi - mid, end - lo), order="F")
        panel[:k, : carried.shape[1]] = carried
        block_row(l + 1, panel[k:])
        lu, piv = _factor(panel[:, :k])
        rest = dlaswp(panel[:, k:], piv, overwrite_a=True)
        far = l + 2 > last or rest[:k, hi - mid :].any()  # A_IB's columns, or block l+2's from a crossed pivot row
        reach = end - mid if far else hi - mid
        U = dtrsm(1.0, lu[:k], rest[:k, :reach], lower=1, diag=1, overwrite_b=True)
        carried = np.array(rest[k:], order="F")
        dgemm(-1.0, lu[k:], U, beta=1.0, c=carried[:, :reach], overwrite_c=True)
        W.append(dtrsm(1.0, lu[:k], U, overwrite_b=True))
    lu, piv = _factor(carried[:, : bounds[last + 1] - bounds[last]])
    x, _ = dgetrs(lu, piv, carried[:, lu.shape[1] :])
    K_near = K_far = -x  # K on blocks l+1 and l+2
    K[nodes[bounds[last] :]] = K_near
    for l in range(last - 1, -1, -1):
        w, split = W.pop(), bounds[l + 2] - bounds[l + 1]
        if l + 1 == last:  # the columns past block l+1 are A_IB's: K_l = -(W' K_{l+1} + W'')
            x = dgemm(-1.0, w[:, :split], K_near, beta=-1.0, c=w[:, split:], overwrite_c=True)
        else:
            x = dgemm(-1.0, w[:, :split], K_near)
            if w.shape[1] > split:
                x = dgemm(-1.0, w[:, split:], K_far, beta=1.0, c=x, overwrite_c=True)
        K_near, K_far = x, K_near
        K[nodes[bounds[l] : bounds[l + 1]]] = x
    return K


def _factor(D):
    """LU factor (dgetrf) of a dense block, square or tall, in place when D is Fortran-ordered.

    NumericError when a pivot is zero or below 1e-300 in magnitude: the
    block's columns are then singular over its rows.
    """
    lu, piv, info = dgetrf(D, overwrite_a=True)
    if info != 0 or not np.abs(np.diagonal(lu)).min() > 1e-300:
        raise NumericError("singular interior block; apply a positivity shift")
    return lu, piv
