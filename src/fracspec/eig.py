"""Symmetric eigendecomposition: the package's one entry point to eigensolvers.

No other module calls a dense or iterative eigensolver, and DENSE_CAP is the one
dense-size cap; callers that must refuse work past it (the Krein term M, the
Zaremba route choice) read it here at call time.  Every dense solve is one call
site of LAPACK's symmetric drivers, _eigh (scipy.linalg.eigh), with one error
map, and every matrix reaches it through _as_dense, which gathers, caps and
checks symmetry in one step.

Full spectra: sym_eig, values only, from LAPACK's tridiagonalization +
implicit-shift drivers.  An operator that splits into reflection-parity
blocks (discretize.RestrictedPowerOperator.parity_split: a tensor-block
interior and a kernel even along every axis) has its values taken matrix by
matrix of split.solves, each capped at DENSE_CAP (eig_path "parity"); where
axes of equal length swap too (identity coefficients on the square and the
box), parities that a swap maps onto each other are solved once, and a block
whose parities agree on a swapped pair is solved as its symmetric and
antisymmetric halves.  Any other input is gathered whole and capped at
DENSE_CAP before the gather (eig_path "dense").  Given B as well, sym_eig
solves the symmetric-definite pencil A x = lambda B x (the Krein and interface
spectra of zaremba) with the same cap and symmetry check on both matrices; a B
that is not positive definite raises NotPositiveError.  Every matrix is checked
symmetric within a relative 1e-8 before it is symmetrized, never silently.

A few lowest pairs: lanczos_extreme, on a dense, sparse or matrix-free
operator, uncapped, with one residual rule for every iterative route.  Two
iterative routes are tried in order: preconditioned LOBPCG (Knyazev, SIAM J.
Sci. Comput. 23 (2001)) when the operator returns a preconditioner
(RestrictedPowerOperator.preconditioner: a tensor-block interior and
0 < a < 1) and k <= LOBPCG_MAX_K, the measured crossover (eig_path "lobpcg");
then ARPACK's implicitly restarted Lanczos (eig_path "lanczos").  The parity
split is only a reason to skip ARPACK: for values only, when the split's
matrices are within DENSE_CAP and their dense work is the cheaper by the
measured rule PARITY_KAPPA.  The one dense exit takes what no iterative route
finishes (eig_path "dense"): values only through sym_eig, so by the parity
blocks where the operator has them (eig_path "parity"); with vectors the whole
matrix, within the cap.

Every Spectrum holds its eigenvalues ascending, repeated according to
multiplicity, and checks that order; callers that report a descending
sequence (the Krein mu of zaremba) reverse the values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from ._kernels import asymmetry
from .errors import InvariantError, NotPositiveError, NumericError

DENSE_CAP = 8192
MAX_RESIDUAL = 1e-8  # eigenpair residual, relative to |lambda|, lanczos_extreme accepts
BACKWARD_ERROR = 100  # or this many eps ||A|| (measured pairs: 0.7-52 eps ||A||)
_SCALE_FLOOR = np.finfo(float).eps ** (2.0 / 3.0)  # smallest |lambda| residuals are relative to (ARPACK's)
LOBPCG_MAX_K = 6  # most pairs LOBPCG is given: ARPACK was faster at k = 8 on box 24, at k = 12 on square 64 and 128
LOBPCG_TOL = 1e-2 * MAX_RESIDUAL  # LOBPCG's residual target, relative to an upper estimate of |lambda_1|
LOBPCG_MAXITER = 200  # the slowest k <= 6 measured took 147 (square 64, a = 0.9, k = 5 splitting a double pair)
PARITY_KAPPA = 5000  # lanczos_extreme skips ARPACK, values only, if sum s^3 <= PARITY_KAPPA k m log2 m (measured)
ARPACK_MIN_RESTARTS = 64  # floor on ARPACK's n // (ncv - k) + 1 restarts: intervals of 128-512 needed up to 45


def _check_cap(n: int) -> None:
    if n > DENSE_CAP:
        raise NumericError(f"dense eigensolve capped at {DENSE_CAP}, got {n}: full spectra stop there, and a few "
                           "pairs past it come only from LOBPCG or Lanczos within the residual bound (lanczos_extreme)")


def _unwrap(A):
    """The operator behind A: its .matrix (an OperatorMatrix), or A itself."""
    return A.matrix if hasattr(A, "matrix") else A


def _as_dense(A) -> np.ndarray:
    """A gathered into a dense symmetric matrix: capped first, then checked symmetric.

    A is an ndarray, scipy sparse, a LinearOperator, or anything exposing
    .matrix.  The result is (M + M^T)/2 after checking max|M - M^T| <= 1e-8
    max|M|; M itself when it is exactly symmetric.
    """
    A = _unwrap(A)
    _check_cap(getattr(A, "shape", (0,))[0])
    if hasattr(A, "toarray") or isinstance(A, spla.LinearOperator):  # sparse, or an operator: gather it
        A = A.toarray() if hasattr(A, "toarray") else A @ np.eye(A.shape[0])
    M = np.asarray(A, dtype=float)
    if M.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    asym, scale = asymmetry(M)
    if scale and not asym <= 1e-8 * scale:  # NaN fails the comparison
        raise InvariantError("matrix is not symmetric within tolerance")
    return M if asym == 0.0 else 0.5 * (M + M.T)


@dataclass(frozen=True)
class Spectrum:
    """Ascending real spectrum, multiplicities repeated, with the eigenvectors on request."""

    values: np.ndarray
    vectors: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if not np.all(np.diff(v) >= -1e-12):
            raise InvariantError("values are not ascending")

    def residuals(self, A) -> np.ndarray:
        """Per-pair ||A v - lambda v|| / (|lambda| ||v||), |lambda| >= eps^(2/3); A has @ or .matrix."""
        if self.vectors is None:
            raise ValueError("spectrum was computed without eigenvectors")
        rs = _unwrap(A) @ self.vectors - self.vectors * self.values
        scale = np.maximum(np.abs(self.values), _SCALE_FLOOR)
        return np.linalg.norm(rs, axis=0) / (scale * np.linalg.norm(self.vectors, axis=0))


def _eigh(M: np.ndarray, B: np.ndarray | None = None, want_vectors: bool = False, overwrite: bool = False,
          subset=None):
    """(values, vectors or None) from the package's one LAPACK symmetric eigensolve, scipy.linalg.eigh.

    B makes it the pencil M x = lambda B x; subset, an index range [lo, hi],
    the pairs lo..hi only; overwrite lets LAPACK work in M's own memory (M^T
    is M, in Fortran order).  LAPACK's failure is NotPositiveError with B
    (B not positive definite) and NumericError without.
    """
    try:
        out = scipy.linalg.eigh(M.T if overwrite else M, B, eigvals_only=not want_vectors, overwrite_a=overwrite,
                                subset_by_index=subset)
    except scipy.linalg.LinAlgError as exc:
        if B is not None:
            raise NotPositiveError(f"pencil matrix B is not positive definite: {exc}") from exc
        raise NumericError(f"symmetric eigensolver did not converge: {exc}") from exc  # pragma: no cover
    return out if want_vectors else (out, None)


def sym_eig(A, B=None) -> Spectrum:
    """Full ascending spectrum, values only, of a symmetric matrix or operator A, or of the pencil (A, B).

    With B, the symmetric-definite pencil A x = lambda B x (Golub & Van
    Loan, Matrix Computations, sec. 8.7): both matrices are capped and
    checked symmetric, and a B that is not positive definite raises
    NotPositiveError.  An operator with a parity split
    (parity_split() not None), without B: DENSE_CAP applies to the order
    of each matrix of split.solves (a block, or the half of one that an
    axis swap leaves), checked before any gather; each is gathered and
    solved on its own, its values are repeated for each parity it stands
    for and merged, and the m x m matrix is never formed.  meta reports
    the parity blocks, the largest of them and the split's parity_defect,
    solves (the number of dense eigensolves), and, when two axes have
    equal lengths, swap_defect.  Otherwise the whole matrix is gathered,
    capped first, and its symmetrized part (A + A^T)/2 is decomposed.
    """
    split = None if B is not None or not hasattr(A, "parity_split") else A.parity_split()
    if split is not None:
        return _parity_values(split)
    w, _ = _eigh(_as_dense(A), None if B is None else _as_dense(B))
    return Spectrum(w, meta={"eig_path": "dense"})


def _parity_values(split) -> Spectrum:
    """Every value of an operator from its parity split: DENSE_CAP per matrix solved, checked before any gather."""
    solves, sizes = split.solves, split.sizes
    _check_cap(max(order for *_, order in solves))
    # each block or half is built here and dropped after its solve, so LAPACK may overwrite it; the
    # values of a key stand for each of its parities, copied
    w = np.sort(np.concatenate([np.tile(_eigh(_as_dense(split.block(p, pair, sign)), overwrite=True)[0], copies)
                                for p, pair, sign, copies, _ in solves]))
    meta = {"eig_path": "parity", "blocks": len(sizes), "max_block": max(sizes), "parity_defect": split.defect,
            "solves": len(solves)}
    if split.swap_defect is not None:
        meta["swap_defect"] = split.swap_defect
    return Spectrum(w, None, meta=meta)


def _accepted(op, w: np.ndarray, V: np.ndarray, norm: float) -> tuple[bool, np.ndarray]:
    """Whether every pair (w, V) meets the residual rule of lanczos_extreme, and the pairs' residuals."""
    res = Spectrum(w, V).residuals(op)
    floor = BACKWARD_ERROR * np.finfo(float).eps * norm / np.maximum(np.abs(w), _SCALE_FLOOR)
    return bool(np.all(res <= np.maximum(MAX_RESIDUAL, floor))), res


def _lobpcg(op, k: int, precond, norm: float):
    """(w, V, residuals, iterations) from preconditioned LOBPCG, or None on an error or a residual miss.

    The start block is fixed, so repeated calls agree bit for bit.  LOBPCG's stopping tolerance is
    absolute, so it is scaled by the Rayleigh quotient of the first start column preconditioned twice:
    an upper bound on |lambda_1|, within a factor 4 of it on interval, square and box grids for
    0.05 <= a <= 0.99.  Its warnings are not misses: the final Rayleigh-Ritz step often leaves pairs
    locked just under that tolerance a little above it, still well inside the residual rule, which decides.
    """
    n = op.shape[0]
    X = np.random.default_rng(0).uniform(-1.0, 1.0, (n, k))
    x = precond @ (precond @ X[:, 0])
    scale = abs(float(x @ (op @ x)) / float(x @ x))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            w, V, hist = spla.lobpcg(op, X, M=precond, tol=LOBPCG_TOL * scale, maxiter=LOBPCG_MAXITER,
                                     largest=False, retResidualNormsHistory=True)
        except (ValueError, np.linalg.LinAlgError):
            return None
    order = np.argsort(w, kind="stable")
    w, V = w[order], V[:, order]
    ok, res = _accepted(op, w, V, norm)
    return (w, V, res, len(hist) - 2) if ok else None


def lanczos_extreme(A, k: int = 6, want_vectors: bool = False) -> Spectrum:
    """The k smallest eigenpairs of A (dense, sparse, LinearOperator or .matrix), ascending.

    Above dimension max(4k, 64) two iterative routes are tried in order.  (1) When k <= LOBPCG_MAX_K and the
    operator offers a preconditioner (A.preconditioner() not None), LOBPCG from a fixed start block, to LOBPCG_TOL
    (eig_path "lobpcg"; meta iterations).  (2) ARPACK from a fixed start vector, within DENSE_CAP for about n
    operator products and at least ARPACK_MIN_RESTARTS restarts (eig_path "lanczos"); skipped for values only when
    the operator's parity split has every matrix of split.solves within DENSE_CAP and its dense work is the
    cheaper: sum s^3 over those matrices <= PARITY_KAPPA k m log2 m.  A pair of (1) or (2) counts if
    ||A v - lambda v|| <= max(MAX_RESIDUAL |lambda|, BACKWARD_ERROR eps ||A||), ||A|| <= the operator's
    norm_bound or 1-norm: rounding alone leaves eps ||A||.  (3) Otherwise the dense route answers: values only,
    the first k of sym_eig, with its meta, which takes the parity blocks where the operator has them (eig_path
    "parity"); with vectors, the whole matrix (residual reported, unchecked), or NumericError past DENSE_CAP.
    meta: eig_path, and max_residual where pairs were computed; the parity meta on the parity blocks.

    The cost rule compares the LAPACK work of the parity blocks, s^3 per matrix of order s, with about k m log2 m
    for ARPACK; PARITY_KAPPA = 5000 puts every point below on its faster side.  Measured with values only at a =
    1/2 on two Intel Xeon cores, best of 2, each time with the operator's build; ratio is sum s^3 / (k m log2 m):

        grid (m)                    parity   ARPACK k = 7 / 12 / 40   ratio k = 7 / 12 / 40
        square 64 (3969)            0.21 s   0.27 / 0.28 / 0.55 s     4420 / 2578 /  773
        square 64, diag(1, 4)       0.33 s   0.17 / 0.23 / 0.58 s    11783 / 6874 / 2062
        square 80 (6241)            0.55 s   0.44 / 0.49 / 1.11 s    10356 / 6041 / 1812
        box 24 (12167)              0.65 s   1.94 / 1.87 / 3.70 s     3218 / 1877 /  563
        box 32 (29791)              5.40 s   4.70 / 4.46 / 8.39 s    17184 / 10024 / 3007
        interval 2048 (2047)        0.21 s   0.21 / 0.21 / 0.34 s    13605 / 7937 / 2381
        interval 4096 (4095)        1.28 s   0.61 / 0.64 / 1.04 s    49909 / 29114 / 8734
    """
    op = _unwrap(A)
    n = op.shape[0]
    path, extra = "dense", {}
    if n > max(4 * k, 64):
        norm = getattr(op, "norm_bound", 0.0) if isinstance(op, spla.LinearOperator) else abs(op).sum(axis=0).max()
        precond = op.preconditioner() if k <= LOBPCG_MAX_K and hasattr(op, "preconditioner") else None
        got = None if precond is None else _lobpcg(op, k, precond, norm)
        if got is not None:
            w, V, res, iterations = got
            path, extra = "lobpcg", {"iterations": iterations}
        elif want_vectors or not _parity_cheaper(op, k):
            ncv = min(n, max(2 * k + 1, 20))
            try:  # a fixed start vector makes repeated calls agree bit for bit; ARPACK returns ascending values
                w, V = spla.eigsh(op, k=k, which="SA", tol=0.0, ncv=ncv,
                                  v0=np.random.default_rng(0).uniform(-1.0, 1.0, n),
                                  maxiter=max(n // (ncv - k) + 1, ARPACK_MIN_RESTARTS) if n <= DENSE_CAP else None)
                ok, res = _accepted(op, w, V, norm)
                path = "lanczos" if ok else path
            except spla.ArpackNoConvergence:
                pass  # the dense route answers below; past DENSE_CAP (per parity block, values only), NumericError
    if path == "dense":
        if not want_vectors:
            return _first(sym_eig(op), k)
        w, V = _eigh(_as_dense(op), want_vectors=True, subset=[0, min(k, n) - 1])
        res = Spectrum(w, V).residuals(op)
    return Spectrum(w, V if want_vectors else None, meta={"eig_path": path, "max_residual": float(res.max()), **extra})


def _parity_cheaper(op, k: int) -> bool:
    """Whether op's parity split, solved whole within DENSE_CAP, costs less than ARPACK's k pairs (PARITY_KAPPA)."""
    split = op.parity_split() if hasattr(op, "parity_split") else None
    if split is None:
        return False
    orders = [order for *_, order in split.solves]
    n = op.shape[0]
    return max(orders) <= DENSE_CAP and sum(s**3 for s in orders) <= PARITY_KAPPA * k * n * np.log2(n)


def _first(spec: Spectrum, k: int) -> Spectrum:
    """The k lowest values of a values-only spectrum, with its meta."""
    return Spectrum(spec.values[:k], None, meta=spec.meta)
