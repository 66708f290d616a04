"""Mixed-problem spectral objects: the Krein term M and its checks.

The resolvent difference M between the mixed (Robin on Sigma+, Dirichlet
on Sigma-) and the all-Dirichlet realizations is assembled through
Schur-complement algebra, never by subtracting two dense inverses: with
K = -A_II^{-1} A_IB and S = A_BB - A_BI A_II^{-1} A_IB over the free
boundary nodes B = Sigma+,

    M = [K; I] S^{-1} [K; I]^T,

whose nonzero spectrum equals that of S^{-1}(K^T K + I) exactly.  K and
S come from discretize.schur_split, the one Schur complement, which
eliminates the interior block by breadth-first level blocks from
the free boundary (George & Liu, Computer Solution of Large Sparse
Positive Definite Systems, 1981, ch. 4), with partial pivoting across
the blocks: K is the discrete Poisson extension, and L = h S
(KreinAssembly.L_weighted: the form matrix h^n S over the boundary
weight h^{n-1}) is the discrete DtN operator with its sign reversed.
S = R^T R is Cholesky-factored once, so M = F F^T with F = [K; I] R^{-1},
and every spectrum of the form S^{-1} X is a generalized-definite
eigensolve of the pencil (X, S) in operator units: the volume weight
h^n of its two form matrices cancels.

The identity (criterion 08) is certified without an eigensolve of the
N x N matrix M, and without storing it.  With Q an orthonormal basis of
range([K; I]), the Rayleigh-Ritz values of M are the eigenvalues of
B = Q^T M Q = (Q^T F)(F^T Q) (n_B x n_B), and rho = ||F F^T - Q B Q^T||_F
follows from the factors: with A = Q^T F and E = F - Q A,
F F^T - Q B Q^T = [E | Q] Z [E | Q]^T with Z = [[I, A^T], [A, A A^T - B]],
a matrix of rank at most 2 n_B, so rho^2 = tr(Z W Z W) with the
2 n_B x 2 n_B gram W = [E | Q]^T [E | Q].  The certificate takes about
20 N n_B^2 flops (products, the gram G^T G among them, and two
triangular solves), where forming every entry of F F^T - Q B Q^T would
take 2 N^2 n_B, and it holds no array larger than the N x 2 n_B factor
[F | Q] (at the 16-layer box, N = 3600, M alone would be 104 MB).  By
Weyl's inequality every eigenvalue of M lies within rho of the Ritz
values or of zero (Parlett, The Symmetric Eigenvalue Problem, ch. 11),
so a small rho proves both the rank bound and the sign of the spectrum,
and the Ritz values stand for the nonzero spectrum of M in the
comparison with S^{-1}(K^T K + I).  rho relative to the spectral scale
is reported as identity_residual.  The identity is only checked for
N <= eig.DENSE_CAP (krein_path "assembled").

On separable geometries each tangential mode reduces the mixed problem
to one tridiagonal normal chain (Buzbee, Golub & Nielson, SIAM J. Numer.
Anal. 7 (1970)).  chain_schur is the one chain elimination: a batch of
chains, one LDL^H sweep over the chain index vectorized over the modes,
returning the per-mode interface Schur value s_m and extension mass q_m.
Three callers share it: the disk (angular Fourier modes, radial chains,
arc submatrices gathered from mode-synthesized columns), the square and box
faces (DST-I modes over the free face, normal chains, partition
submatrices, on the cells that discretize.grid_spacing gives build_grid
too), and the flat-strip probe measuring the DtN principal symbol
against -kappa0.  The module also carries the interior-weighted spectra
used for asymptotic comparisons.

interface_spectra is the one route choice (disk modes, face modes past
the cap, the assembled route with its certificate, or a refusal before
any assembly), and every route returns an InterfaceSpectra.  Each route
decides the shift "auto" where it solves: krein_term on the grid (1 on
separable inputs, else a Lanczos estimate), interface_spectra on the
mode routes (1, which the disk doubles while S is not positive).

Every spectrum here, the pencils (X, S) and the interface operators
alike, comes from eig.sym_eig, which owns the dense cap and the
symmetry check; routes report mu descending and interface spectra
ascending.  The assembled route's dense products go through
_kernels.gemm (the certificate's gram through scipy's dsyrk and dsymm)
and its factorizations through scipy.linalg, so one OpenBLAS (scipy's)
runs the route and numpy's thread pool stays asleep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dsymm, dsyrk

from . import _kernels, eig
from .discretize import Grid, OperatorMatrix, assemble_second_order, build_grid, grid_spacing, schur_split
from .eig import lanczos_extreme, sym_eig
from .errors import ConfigurationError, NotPositiveError, NumericError
from .symbols import SecondOrderCoeffs, boundary_reduction

_NOT_POSITIVE = "interface Schur complement is not positive definite; apply a larger positivity shift"
_ROW_BLOCK = 128  # rows of [F | Q] per solve and per product of the Rayleigh-Ritz certificate


def _cap_message(size: int) -> str:
    return f"M would be {size}x{size}, above the {eig.DENSE_CAP} cap"


# ---------------------------------------------------------------------------
# Krein assembly
# ---------------------------------------------------------------------------


class KreinAssembly:
    """Schur-factorized resolvent difference for one mixed assembly.

    Built from the extension map K and the interface Schur complement S
    of discretize.schur_split, of an operator-unit matrix on a uniform
    grid of spacing h.  Holds the Cholesky factor of S, KtK = K^T K
    (formed once, read-only) and L_weighted = h S.  M itself is never
    stored: the identity certificate reads its factor F.
    """

    def __init__(self, K, S, h: float, shift: float):
        nI, nB = K.shape
        self.shift = float(shift)
        self.n_interior = nI
        self.n_boundary = nB
        self.K = K
        self.S = S
        self._chol = None
        if nB:
            try:
                self._chol = scipy.linalg.cho_factor(S)
            except scipy.linalg.LinAlgError as exc:
                raise NotPositiveError(_NOT_POSITIVE) from exc
        self.L_weighted = float(h) * S
        self.KtK = _kernels.gemm(K.T, K)
        self.KtK.flags.writeable = False

    def _pencil(self, c: float) -> np.ndarray:
        """Descending spectrum of the pencil (K^T K + c I, S)."""
        return sym_eig(self.KtK + c * np.eye(self.n_boundary), self.S).values[::-1]

    # -- spectra -----------------------------------------------------------

    def mu_exact(self) -> np.ndarray:
        """Nonzero spectrum of M through the algebraic identity side."""
        return self._pencil(1.0)

    def ritz_from_M(self) -> tuple[np.ndarray, float]:
        """Ritz values of M on range([K; I]), descending, and rho = ||M - Q B Q^T||_F.

        M = F F^T with F^T = R^{-T} G^T, and Q^T = C^{-1} G^T is the
        thin-QR basis of G = [K; I] with C C^T = G^T G (Cholesky QR).
        Cholesky QR loses orthogonality as eps cond(G)^2, and the identity
        block keeps cond(G)^2 <= 1 + ||K||^2 small (below 8 on the square
        and box grids, where ||Q^T Q - I|| is a few eps).  B = Q^T (M Q)
        with M Q = F (F^T Q).  rho^2 = tr(Z W Z W), Z and W the 2 n_B x 2 n_B
        matrices of the module docstring: E = F - Q A overwrites F in the
        stacked factor [F | Q] (N x 2 n_B, C-ordered) a row block at a
        time, W is one symmetric product over the whole of it (dsyrk,
        which forms its upper triangle, read by dsymm in Z W, so W is
        exactly symmetric), and the trace is summed entrywise as
        sum_ij (Z W)_ij (Z W)_ji, clamped at 0.  The cancellations are
        those of the entries of M - Q B Q^T, in E and in A A^T - B; no
        term of the trace is a product of two O(1) numbers.
        No N x N array is formed, G is never held whole, and [F | Q] is
        released before the 2 n_B x 2 n_B blocks are formed.  Refused past
        eig.DENSE_CAP, the size the assembled route is kept to.
        """
        nB = self.n_boundary
        if nB == 0:
            return np.zeros(0), 0.0
        size = self.n_interior + nB
        if size > eig.DENSE_CAP:
            raise NumericError(_cap_message(size))
        C = scipy.linalg.cholesky(self.KtK + np.eye(nB), lower=True)
        nI, eye = self.n_interior, np.eye(nB)
        blocks = [(lo, min(lo + _ROW_BLOCK, size)) for lo in range(0, size, _ROW_BLOCK)]
        # [F | Q] is filled a row block at a time from the same rows of G = [K; I], so neither G
        # nor a whole F^T or Q^T is held beside it, and F^T Q is summed from each block's solves
        # while they are contiguous
        FQ = np.empty((size, 2 * nB))
        FtQ = np.zeros((nB, nB))
        for lo, hi in blocks:
            # rows lo:hi of G, C-ordered: their transpose is Fortran-ordered, which LAPACK reads uncopied
            Gt = np.vstack([self.K[lo:hi], eye[max(lo - nI, 0) : max(hi - nI, 0)]]).T
            Ft = scipy.linalg.solve_triangular(self._chol[0], Gt, trans="T", lower=self._chol[1])
            Qt = scipy.linalg.solve_triangular(C, Gt, lower=True)
            FQ[lo:hi, :nB], FQ[lo:hi, nB:] = Ft.T, Qt.T
            FtQ += _kernels.gemm(Ft, Qt.T)
        del C, Gt, Ft, Qt
        # Q^T (M Q) with M Q = F (F^T Q), not (Q^T F)(F^T Q): this order keeps the
        # 2-node worked example's Ritz value at exactly 5/4
        B = np.zeros((nB, nB))
        for lo, hi in blocks:
            B += _kernels.gemm(FQ[lo:hi, nB:].T, _kernels.gemm(FQ[lo:hi, :nB], FtQ))
        B = 0.5 * (B + B.T)
        ritz = sym_eig(B).values[::-1]
        # rho^2 = tr(Z W Z W), Z = [[I, A^T], [A, A A^T - B]] and W = [E | Q]^T [E | Q]
        A = FtQ.T  # Q^T F
        for lo, hi in blocks:  # E = F - Q A overwrites F in [F | Q]
            FQ[lo:hi, :nB] -= _kernels.gemm(FQ[lo:hi, nB:], A)
        W = dsyrk(1.0, FQ.T)  # upper triangle; FQ.T is Fortran-ordered, read uncopied
        del FQ  # so that the 2 n_B x 2 n_B blocks below are not held beside it
        Z = np.block([[eye, FtQ], [A, _kernels.gemm(A, FtQ) - B]])
        WZt = dsymm(1.0, W, Z.T)  # (Z W)^T, W read from its upper triangle
        return ritz, float(np.sqrt(max(float((WZt * WZt.T).sum()), 0.0)))

    def weighted_mu(self, half_cell: bool = False) -> np.ndarray:
        """Descending spectrum of S^{-1} K^T K, the pencil (K^T K, S).

        The continuum-consistent mu_j: interface form against the
        interior L2 mass of the extension.  The boundary trace mass
        (h^{n-1} on each Sigma+ node) is an O(h) discrete artifact and
        is left out; the exact algebraic identity keeps it.

        half_cell adds the volume quadrature contribution of the free
        boundary nodes themselves (boundary weight h^{n-1} times h/2, so
        1/2 against h^n).  The extension equals the boundary data there,
        so this is the trapezoid end correction of the same interior mass
        integral; it sharpens the constant in ordered-eigenvalue fits on
        coarse grids where the default one-sided sum underweights slowly
        decaying extensions.
        """
        return self._pencil(0.5 if half_cell else 0.0)

    def weighted_L_spectrum(self) -> np.ndarray:
        """Ascending spectrum of the boundary-weighted interface operator."""
        return sym_eig(self.L_weighted).values


def krein_from_matrix(A_full: OperatorMatrix) -> KreinAssembly:
    """Krein assembly from an operator-unit matrix carrying interior/sigma_plus row sets, as given.

    Operator units are assemble_second_order's, on a uniform grid of spacing meta["h"],
    which L_weighted = h S reads; a matrix without it is refused (ConfigurationError).
    A positivity shift belongs in the matrix: grid-based callers fold it into the
    zero-order term at assembly time (krein_term), which uses the true node volumes.
    """
    K, S = schur_split(A_full.matrix, A_full.rows("interior"), A_full.rows("sigma_plus"))
    if "h" not in A_full.meta:
        raise ConfigurationError('the Krein assembly needs the grid spacing meta["h"] of its operator-unit matrix')
    return KreinAssembly(K, S, A_full.meta["h"], 0.0)


def krein_term(coeffs: SecondOrderCoeffs, sigma, grid: Grid, partition=None,
               shift="auto") -> KreinAssembly:
    """Assemble the mixed realization on the grid and factor its Krein term.

    partition optionally selects a subset of the grid's Sigma+ node ids
    as the free boundary set; unselected Sigma+ nodes are eliminated as
    Dirichlet.  The shift is folded into the zero-order term so the mass
    is the true node volume; it is recorded in the assembly.  A number is
    taken as given.  "auto" is exactly 1 on separable_face inputs, known
    positive there since separable_face requires sigma >= 0, and elsewhere
    1 + max(0, -2 lambda_min), lambda_min a Lanczos estimate on the
    unshifted mixed assembly.
    """
    if shift != "auto":
        shift = float(shift)
    elif separable_face(coeffs, sigma, grid.domain):
        shift = 1.0
    else:
        probe = assemble_second_order(coeffs, grid, bc="mixed", sigma=sigma)
        est = float(lanczos_extreme(probe.matrix, k=1).values[0]) if probe.shape[0] else 1.0
        shift = 1.0 + max(0.0, -2.0 * est)
    A = assemble_second_order(coeffs, grid, bc="mixed", sigma=sigma, a0=shift)

    B = A.rows("sigma_plus")
    if partition is not None:
        node_ids = np.asarray(A.meta["node_ids"])
        wanted = set(int(p) for p in np.asarray(partition).ravel())
        B = np.array([r for r in B if int(node_ids[r]) in wanted], dtype=int)
        if len(B) != len(wanted):
            raise ConfigurationError("partition contains nodes outside the grid's sigma_plus set")
    K, S = schur_split(A.matrix, A.rows("interior"), B)
    return KreinAssembly(K, S, grid.h, shift)


@dataclass(frozen=True)
class KreinIdentityReport:
    max_rel_mismatch: float
    mu_from_m: np.ndarray
    mu_identity: np.ndarray
    rank_bound_ok: bool
    residual: float


def krein_identity_check(k: KreinAssembly) -> KreinIdentityReport:
    """Compare the two independent routes to the nonzero spectrum of M.

    Left side: the Rayleigh-Ritz values of M = F F^T on range([K; I])
    with their residual rho, from the factors F and Q (ritz_from_M).  Every
    eigenvalue of M lies within rho of a Ritz value or of zero, so
    rho <= t and min(ritz) - rho >= -t (t = 1e-12 max(scale, 1)) prove
    that at most n_boundary eigenvalues exceed t in modulus and none
    falls below -t.
    Right side: the spectrum of S^{-1}(K^T K + I) as a generalized-definite
    solve.  The agreement is an exact finite-dimensional matrix identity,
    so the expected mismatch and residual are pure roundoff.
    """
    mu_id = k.mu_exact()
    if mu_id.size == 0:
        return KreinIdentityReport(0.0, np.zeros(0), mu_id, True, 0.0)
    ritz, rho = k.ritz_from_M()
    scale = np.abs(mu_id).max()
    mismatch = float(np.abs(ritz - mu_id).max() / scale)
    t = 1e-12 * max(scale, 1.0)
    bound_ok = rho <= t and ritz.min() - rho >= -t
    return KreinIdentityReport(mismatch, ritz, mu_id, bool(bound_ok), float(rho / scale))


# ---------------------------------------------------------------------------
# batched chain-Schur core
# ---------------------------------------------------------------------------


def chain_schur(diag, off, d_free, c, vol=None):
    """Schur complements of a batch of Hermitian tridiagonal chains onto a free end node.

    Row m of diag (modes, L) and off (modes, L-1) is the chain T_m: real
    diagonal d_j = diag[m, j] and superdiagonal o_j = T_m[j, j+1] =
    off[m, j], real or complex.  Position 0 is the far end; position L-1
    couples to one free node with weight c[m] (the entry T[L-1, free])
    whose diagonal is d_free[m].  One forward sweep over j, vectorized over
    the modes, carries the LDL^H pivot p_j of the leading block T_{0..j}
    and the mass m_j = sum_i vol[m, i] |x_i|^2 of the last column x of its
    inverse, x = [-o_{j-1} x' / p_j; 1 / p_j] with x' the previous block's
    (Meurant, SIAM J. Matrix Anal. Appl. 13 (1992)):

        p_j = d_j - |o_{j-1}|^2 / p_{j-1},  m_j = (|o_{j-1}|^2 m_{j-1} + vol_j) / p_j^2,

    from p_0 = d_0 and m_0 = vol_0 / p_0^2.  Then s_m = d_free[m] - |c[m]|^2 / p_{L-1},
    and q_m = |c[m]|^2 m_{L-1} is the mass of the extension -T^{-1} c e_{L-1}
    of a unit value on the free node.  The chains are read a column at a
    time (broadcast views stay uncopied) and only vectors over the modes are
    held.  Returns (s, q), q None without vol.  No pivoting: the chains of a
    positive assembly are positive definite.  A q_m that is not positive
    although c_m != 0 raises NumericError: p_j^2 overflowed and the masses
    underflowed to zero, which a huge shift brings about.
    """
    with np.errstate(over="ignore"):  # an overflow ends as a zero or non-finite q or s, refused below
        piv = diag[:, 0]
        mass = None if vol is None else vol[:, 0] / piv**2
        for j in range(1, diag.shape[1]):
            e2 = np.abs(off[:, j - 1]) ** 2
            piv = diag[:, j] - e2 / piv
            if vol is not None:
                mass = (e2 * mass + vol[:, j]) / piv**2
    c2 = np.abs(c) ** 2
    s = np.asarray(d_free) - c2 / piv
    q = None if vol is None else c2 * mass
    if not (np.all(np.isfinite(s)) and (q is None or np.all(np.isfinite(q)))):
        raise NumericError("chain elimination met a zero pivot")
    if q is not None and not (q[c2 != 0.0] > 0.0).all():
        raise NumericError("chain elimination lost an extension mass: q_m = 0 although c_m != 0, "
                           "as p_j^2 overflowed (the shift dwarfs the operator's scale)")
    return s, q


# ---------------------------------------------------------------------------
# flat-strip DtN symbol probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DtnProbeReport:
    xi: np.ndarray
    measured: np.ndarray
    predicted: np.ndarray
    rel_errors: np.ndarray
    meta: dict = field(default_factory=dict)


def dtn_symbol_probe(coeffs: SecondOrderCoeffs, xi_primes, h: float = 1.0 / 128.0,
                     height: float | None = None) -> DtnProbeReport:
    """Measure the DtN principal symbol on a flat strip against -kappa0.

    The strip is periodic in the tangential direction (length 2 pi, so the
    frequencies are integers) and extends far enough into the normal
    direction that the Dirichlet truncation error sits below roundoff
    (decay rate read off the factorization roots).  Each admissible
    tangential frequency xi is an exact eigenvector of the weighted
    interface operator, so the Rayleigh quotient is the per-mode scalar
    Schur complement.
    """
    if coeffs.n != 2:
        raise ConfigurationError("the strip probe is two-dimensional")
    if not coeffs.constant:
        raise ConfigurationError("the strip probe needs constant coefficients")
    if not (np.isfinite(h) and h > 0.0):
        raise ConfigurationError(f"strip spacing h must be finite and positive, got {h!r}")
    xi_arr = np.atleast_1d(np.asarray(xi_primes, dtype=float))
    if xi_arr.size == 0 or np.any(xi_arr == 0.0):
        raise ConfigurationError("tangential frequencies must be nonzero")
    if np.any(np.abs(xi_arr - np.round(xi_arr)) > 1e-9):
        raise ConfigurationError("tangential frequency incommensurate with the strip period 2 pi")

    frame = np.eye(2)  # tangent e1, inward normal e2
    facts = [boundary_reduction(coeffs, (0.0, 0.0), frame, (xi,)) for xi in xi_arr]
    predicted = np.array([-f.kappa0 for f in facts])
    # truncation height from the decay rate Re kappa_plus of the inward solution
    rate = min(f.kappa_plus.real for f in facts)
    H = height if height is not None else 14.0 / rate
    n_rows = int(np.ceil(H / h))
    if n_rows > 200000:
        raise ConfigurationError("strip too tall for the requested spacing")

    # one chain per frequency: rows 1..n_rows-1 above the free row 0, which
    # carries half the tangential weight; the Dirichlet top row is eliminated
    a = np.asarray(coeffs.a, dtype=float)
    mxi = 2.0 - 2.0 * np.cos(xi_arr * h)
    off = -a[1, 1] - 1j * a[0, 1] * np.sin(xi_arr * h)  # T[j, j+1]
    length = n_rows - 1
    up = np.conj(off)  # T[j, j-1]: each chain runs from the top row down to row 1
    s, _ = chain_schur(np.broadcast_to((a[0, 0] * mxi + 2.0 * a[1, 1])[:, None], (xi_arr.size, length)),
                       np.broadcast_to(up[:, None], (xi_arr.size, length - 1)),
                       0.5 * a[0, 0] * mxi + a[1, 1], up)
    measured = -s / h
    rel = np.abs(measured - predicted) / np.abs(predicted)
    return DtnProbeReport(xi_arr, measured, predicted, rel, {"rows": n_rows})


# ---------------------------------------------------------------------------
# disk interface fast path
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiskSpectra:
    """Interface spectra on a disk with a circular-arc free boundary.

    mu: descending interior-weighted Krein spectrum, eig(S^-1 K^T W K).
    interface: ascending spectrum of L_weighted, as InterfaceSpectra.interface.
    L_weighted: arc-weighted interface Schur matrix over Sigma+ nodes, and
    S_plus the unweighted one.  arc_distances: geodesic distance of each
    Sigma+ node to the nearest arc endpoint.  report: the route's report
    rows, as InterfaceSpectra.report.
    """

    mu: np.ndarray
    interface: np.ndarray
    L_weighted: np.ndarray
    S_plus: np.ndarray
    arc_distances: np.ndarray
    report: dict


def _rings(n_r: int, n_theta: int, radius: float):
    """dr, dth, and per ring j = 1..n_r (the boundary ring last): the radial edge weight
    to ring j+1 (rings 1..n_r-1), the angular edge weight and the node volume."""
    dr = radius / n_r
    dth = 2.0 * np.pi / n_theta
    r = dr * np.arange(1, n_r + 1)
    # radial edge weights between rings j and j+1 (midpoint radius)
    w_rad = (r[:-1] + 0.5 * dr) * dth / dr
    # angular edge weight at ring j, halved on the boundary ring
    w_ang = dr / (r * dth)
    w_ang[-1] *= 0.5
    # node volumes: r_j dr dth, halved on the boundary ring
    vol = r * dr * dth
    vol[-1] *= 0.5
    return dr, dth, w_rad, w_ang, vol


def _disk_scale(n_r: int, n_theta: int, radius: float) -> float:
    """The unshifted disk operator's scale: its largest stiffness-to-mass ratio.

    Each ring's stiffness diagonal at the highest angular mode (its
    angular edges times max 2 - 2 cos(m dth), plus its radial edges) over
    the ring's volume, maximized over the rings that carry mass: the
    interior rings and the boundary ring.  The centre is left out, since
    it has no mass in any mode m != 0.  About 2.7e4 at n_r = 16,
    n_theta = 32 (ring 1, whose angular edges are the stiffest), growing
    like n_theta^2 n_r^2.
    """
    _, dth, w_rad, w_ang, vol = _rings(n_r, n_theta, radius)
    radial = np.append(w_rad, 0.0) + np.insert(w_rad, 0, dth / 2.0)  # outer edge + inner edge (the centre's)
    mang = 2.0 - 2.0 * np.cos((n_theta // 2) * dth)  # the highest of the modes 0..n_theta // 2
    return float(np.max((w_ang * mang + radial) / vol))


def _radial_chains(n_r: int, n_theta: int, radius: float, shift: float, modes: np.ndarray):
    """Scalar Schur s_m and extension mass q_m of the given angular modes.

    The mode-m energy restricted to one radial chain, in form units per
    boundary node: position 0 is the centre, positions 1..n_r-1 the
    interior rings, and ring n_r the boundary ring (the free node).  The
    centre joins mode 0 only; in every other mode it is a decoupled unit
    with no volume.
    """
    dr, dth, w_rad, w_ang, vol = _rings(n_r, n_theta, radius)
    mang = (2.0 - 2.0 * np.cos(modes * dth))[:, None]

    # ring j sees its outer radial edge and its inner one; ring 1's inner
    # edges go to the centre, weight dth/2 per sector, in every mode
    inner = np.concatenate(([dth / 2.0], w_rad[:-1]))
    zero = modes == 0
    v_centre = np.pi * (dr / 2.0) ** 2 / n_theta  # per-mode share of the centre volume
    diag = np.empty((modes.size, n_r))
    diag[:, 0] = np.where(zero, dth / 2.0 + shift * v_centre, 1.0)
    diag[:, 1:] = w_ang[:-1] * mang + shift * vol[:-1] + w_rad + inner
    off = np.empty((modes.size, n_r - 1))
    off[:, 0] = np.where(zero, -dth / 2.0, 0.0)
    off[:, 1:] = -w_rad[:-1]
    vols = np.empty((modes.size, n_r))
    vols[:, 0] = np.where(zero, v_centre, 0.0)
    vols[:, 1:] = vol[:-1]
    # boundary node diagonal: its angular edges + the last radial edge + mass
    d_free = w_ang[-1] * mang[:, 0] + w_rad[-1] + shift * vol[-1]
    return chain_schur(diag, off, d_free, np.full(modes.size, -w_rad[-1]), vols)


def disk_interface_spectra(n_r: int, n_theta: int, arc=(0.0, np.pi), radius: float = 1.0,
                           shift: float = 1.0, sigma: float = 0.0) -> DiskSpectra:
    """Krein and interface spectra for a disk whose free boundary is an arc.

    Separation of variables makes the full-circle Schur complement and
    the extension mass K^T W K cyclic in the angle, each fixed by its first
    column, synthesized from per-mode scalar chains, so no dense interior
    solve is ever formed.  Dropping the complement of the arc (Dirichlet
    elimination) is exactly taking the arc submatrices, gathered from the
    columns; that is where the mixed problem and its arc geometry enter.
    """
    if n_r < 4 or n_theta < 8:
        raise ConfigurationError("disk resolution too small to resolve the interface")
    th0, th1 = float(arc[0]), float(arc[1])
    if not 0.0 <= th0 < th1 <= 2.0 * np.pi:
        raise ConfigurationError("arc endpoints must satisfy 0 <= a < b <= 2 pi")

    half = n_theta // 2
    s_half, q_half = _radial_chains(n_r, n_theta, radius, shift, np.arange(half + 1))
    s_col, q_col = (np.fft.ifft(np.concatenate([v, v[1 : n_theta - half][::-1]])).real for v in (s_half, q_half))

    dth = 2.0 * np.pi / n_theta
    thetas = dth * np.arange(n_theta)
    snap = 1e-9 * dth
    on_arc = (thetas > th0 + snap) & (thetas < th1 - snap)  # relative interior
    sel = np.flatnonzero(on_arc)
    if sel.size == 0:
        raise ConfigurationError("arc contains no boundary nodes at this resolution")
    lag = (sel[:, None] - sel) % n_theta
    S_plus, Q_plus = s_col[lag], q_col[lag]

    arc_w = radius * dth
    if sigma:
        # a Robin term only touches the retained boundary diagonal, which
        # commutes with the interior elimination, so adding it here is exact
        S_plus = S_plus + sigma * arc_w * np.eye(sel.size)

    try:
        mu = sym_eig(Q_plus, S_plus).values[::-1]
    except NotPositiveError as exc:  # S_plus is the pencil's B
        raise NotPositiveError(_NOT_POSITIVE) from exc

    L_weighted = S_plus / arc_w
    d_lo = radius * (thetas[sel] - th0)
    d_hi = radius * (th1 - thetas[sel])
    arc_distances = np.minimum(d_lo, d_hi)

    report = {"boundary_nodes": int(mu.size), "shift": shift, "n2_flagged": True, "krein_path": "modes"}
    return DiskSpectra(mu, sym_eig(L_weighted).values, L_weighted, S_plus, arc_distances, report)


# ---------------------------------------------------------------------------
# box and square face route
# ---------------------------------------------------------------------------


def separable_face(coeffs: SecondOrderCoeffs, sigma, domain) -> bool:
    """Whether the mixed assembly separates into face modes with the auto shift 1.

    True for a rectangle or box with one free face, constant diagonal
    coefficients with positive entries and a constant sigma >= 0: the
    assembly is then positive, and tangential DST-I modes diagonalize it.
    """
    if domain.kind not in ("rectangle", "box") or len(domain.sigma_plus) != 1:
        return False
    if not coeffs.constant or sigma is None or sigma < 0.0:
        return False
    a = np.asarray(coeffs.a)
    return bool(np.all(a == np.diag(np.diag(a))) and np.all(np.diag(a) > 0.0))


def _face_cells(domain, nodes: int):
    """Spacing and cells per axis (grid_spacing, as build_grid), the free face's normal axis
    and its tangential axes, without building the grid."""
    h, cells = grid_spacing(domain, nodes)
    normal = "xyz".index(domain.sigma_plus[0][0])
    return h, cells, normal, [t for t in range(len(cells)) if t != normal]


def face_mode_spectra(coeffs: SecondOrderCoeffs, sigma: float, domain, nodes: int, partition=None,
                      shift: float = 1.0) -> InterfaceSpectra:
    """Krein and interface spectra of the mixed problem on a square or box face.

    The discrete problem of krein_term on build_grid(domain, nodes) with a
    numeric shift, solved without the grid: tangential DST-I modes over
    the free face's n-1 axes diagonalize the separable assembly, and each
    mode is one normal chain for chain_schur.  A full free face is
    diagonal in the modes.  partition selects a patch of the face by
    position in its nodes (C order over the tangential axes, the order of
    the grid's sigma_plus_idx); the rest of the face is Dirichlet, and
    the patch takes the submatrices of S = V diag(s) V and
    Q = V diag(q) V, V the orthonormal DST-I (_kernels.dst1), as the
    disk takes the arc's.
    """
    if not separable_face(coeffs, sigma, domain):
        raise ConfigurationError("the face mode route needs a rectangle or box with one free face, "
                                 "constant positive diagonal coefficients and a constant sigma >= 0")
    h, cells, normal, tangential = _face_cells(domain, nodes)
    n = len(cells)
    face_shape = tuple(cells[t] - 1 for t in tangential)
    a = np.diag(coeffs.a)

    # tangential stiffness per mode: sum over face axes of a_t 4 sin^2(pi m / 2 cells_t)
    lam = np.ix_(*(a[t] * 4.0 * np.sin(np.pi * np.arange(1, cells[t]) / (2.0 * cells[t])) ** 2
                   for t in tangential))
    w = h ** (n - 2)  # edge weight of the form
    stiff = w * np.broadcast_to(sum(lam), face_shape).ravel()
    modes, length = stiff.size, cells[normal] - 1
    s, q = chain_schur(np.broadcast_to((stiff + 2.0 * w * a[normal] + shift * h**n)[:, None], (modes, length)),
                       np.broadcast_to(-w * a[normal], (modes, length - 1)),
                       0.5 * stiff + w * a[normal] + 0.5 * shift * h**n + sigma * h ** (n - 1),
                       np.full(modes, -w * a[normal]),
                       np.broadcast_to(h**n, (modes, length)))
    if s.min() <= 0.0:
        raise NotPositiveError(_NOT_POSITIVE)

    w_b = h ** (n - 1)
    if partition is None:
        n_free = modes
        mu = np.sort(q / s)[::-1]
        interface = np.sort(s) / w_b
    else:
        sel = np.unique(np.asarray(partition, dtype=int).ravel())
        if sel.size == 0 or sel[0] < 0 or sel[-1] >= modes:
            raise ConfigurationError(f"partition positions must lie in the {modes} free face nodes")
        n_free = sel.size
        # rows sel of V, from the DST of unit vectors
        V = np.zeros((n_free, modes))
        V[np.arange(n_free), sel] = 1.0
        V = _kernels.dst1(V.reshape(n_free, *face_shape), tuple(range(1, n))).reshape(n_free, modes)
        S_plus = (V * s) @ V.T
        mu = sym_eig((V * q) @ V.T, S_plus).values[::-1]
        interface = sym_eig(S_plus).values / w_b
    report = _report(np.prod([c - 1 for c in cells]), n_free, shift, sigma, n, "modes")
    return InterfaceSpectra(mu, interface, report)


# ---------------------------------------------------------------------------
# the route choice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterfaceSpectra:
    """The answer of one route to the Zaremba question.

    mu: descending interior-weighted Krein spectrum (KreinAssembly.weighted_mu).
    interface: ascending spectrum of the boundary-weighted interface operator
    (weighted_L_spectrum).  report: the report quantities in row order, krein_path
    last.  identity: the assembled route's certificate, None on the mode routes.
    """

    mu: np.ndarray
    interface: np.ndarray
    report: dict
    identity: KreinIdentityReport | None = None


def _report(interior, boundary, shift, sigma, n: int, path: str) -> dict:
    """The report rows of the two grid routes, the face modes and the assembled route, in row order."""
    return {"interior_nodes": int(interior), "boundary_nodes": int(boundary), "shift": float(shift),
            "sigma": sigma, "n2_flagged": n == 2, "krein_path": path}


def interface_spectra(coeffs: SecondOrderCoeffs, sigma, domain, nodes: int, n_r: int, n_theta: int,
                      shift="auto") -> InterfaceSpectra:
    """Answer the Zaremba question on the route that fits the input.

    Both mode routes read "auto" as 1, and a numeric shift as given; the
    assembled route leaves the shift to krein_term.  The disk takes its
    angular modes (n_r rings, n_theta angles), under "auto" at the first
    shift 1, 2, 4, ... whose S is positive, and refuses coefficients other
    than the Laplacian.  A doubled shift past _disk_scale raises
    NumericError before it is solved: mu would then measure the shift, not
    the operator.  So the doubling makes at most log2(scale) + 2 disk solves,
    and never reaches a shift whose chain pivots overflow.

    A grid domain takes the assembled route, the only
    one that certifies the Krein identity, while M (N = n_I + n_B on
    build_grid(domain, nodes)) fits under eig.DENSE_CAP.  Past the cap,
    separable inputs take the face modes, which need no grid, and any other
    input raises NumericError.  Both refusals come before any assembly.
    """
    value = 1.0 if shift == "auto" else float(shift)
    if domain.kind == "disk":
        if not np.array_equal(coeffs.a, np.eye(2)):
            raise ConfigurationError(f"the disk mode route solves the Laplacian only, "
                                     f"not coefficients {coeffs.describe()}")
        while True:  # "auto" doubles from 1 while S is not positive; S grows without bound in the shift
            try:
                d = disk_interface_spectra(n_r, n_theta, arc=domain.sigma_plus[1:], radius=domain.radius,
                                           shift=value, sigma=sigma)
                break
            except NotPositiveError:
                if shift != "auto":
                    raise
                value *= 2.0
                scale = _disk_scale(n_r, n_theta, domain.radius)
                if value > max(1.0, scale):
                    raise NumericError(f"the auto shift doubled to {value:g}, past the disk operator's scale "
                                       f"{scale:.4g} (its largest stiffness-to-mass ratio): the shift alone "
                                       "would decide mu") from None
        return InterfaceSpectra(d.mu, d.interface, d.report)
    if separable_face(coeffs, sigma, domain):
        _, cells, _, tangential = _face_cells(domain, nodes)
        if np.prod([c - 1 for c in cells]) + np.prod([cells[t] - 1 for t in tangential]) > eig.DENSE_CAP:
            return face_mode_spectra(coeffs, sigma, domain, nodes, shift=value)
    grid = build_grid(domain, nodes)
    size = grid.interior_idx.size + grid.sigma_plus_idx.size
    if size > eig.DENSE_CAP:
        raise NumericError(_cap_message(size))
    k = krein_term(coeffs, sigma, grid, shift=shift)
    identity = krein_identity_check(k)
    report = _report(k.n_interior, k.n_boundary, k.shift, sigma, grid.n, "assembled")
    return InterfaceSpectra(k.weighted_mu(), k.weighted_L_spectrum(), report, identity)
