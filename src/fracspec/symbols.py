"""Boundary symbol algebra for second-order strongly elliptic operators.

At a boundary point, in coordinates whose last direction is the interior
normal, the principal symbol of ``-sum_{jk} a_jk d_j d_k`` is the
quadratic polynomial

    abar(xi', xi_n) = ann xi_n**2 + 2 b(xi') xi_n + c(xi'),

with ``b = sum_{j<n} a_jn xi_j`` and ``c = sum_{j,k<n} a_jk xi_j xi_k``.
Strong ellipticity makes the reduced discriminant ``a' = ann c - b**2``
positive, and the polynomial factors exactly as

    abar = ann (kappa_plus + i xi_n) (kappa_minus - i xi_n),

where ``kappa_pm = (kappa0 ± i b) / ann`` and ``kappa0 = sqrt(a')``.
Both roots have real part ``kappa0 / ann > 0``.  The function ``kappa0``
is even and 1-homogeneous in ``xi'``; ``-kappa0`` is the principal
symbol of the half-space Dirichlet-to-Neumann map, whose model Poisson
kernel decays like ``exp(-kappa_plus x_n)``.

The same quadratic-root rule applied to ``kappa0**2``, viewed as a
polynomial in the covector component normal to the interface between
the two boundary regimes, yields a second factorization

    kappa0**2 = att (kappat_plus + i xi_last) (kappat_minus - i xi_last),

whose principal-branch half-power split carries the square-root
boundary behavior of the mixed problem.

Two kernels compute these factorizations.  The batch kernel works on
arrays that broadcast: ``reduce_frames``, then
``_kernels.boundary_quantities`` for (ann, b, c), then ``_root_pairs``;
``factorization_residuals`` and ``boundary_residuals`` run it over many
samples, and ``tangential_form`` gives the batch its a'.  The one-sample
kernel works on Python floats once numpy has formed one sample's
F^T [F | A F]: ``_reduce_one`` (the reduction and its frame check),
``_quantities_one`` (the same row-then-dot association as
``boundary_quantities``) and ``_root_pair``.  ``boundary_reduction``
and ``tangential_factorization`` run it, since numpy's per-call cost on
(n, n) arrays would be most of a sample's time; the second runs only the
tangential pair, on the a' of one sample's reduced matrix.  The oracle
test ``test_one_sample_root_pair_matches_the_batch`` holds the two
kernels within 4 eps of each other.

A variable coefficient is a field: a per-point callable ``x -> (n, n)``
that may also declare ``batch(points) -> (N, n, n)``.  Every read at many
points goes through ``SecondOrderCoeffs.a_batch``, which calls a declared
``batch`` once, checks its shape, and compares its first, middle and last
rows with the per-point field before using it; a field without ``batch``
is called point by point.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _kernels
from .eig import sym_eig

__all__ = [
    "EllipticityError",
    "DegenerateSymbolError",
    "SecondOrderCoeffs",
    "PrincipalSymbol",
    "BoundaryFactorization",
    "strong_ellipticity_margin",
    "boundary_reduction",
    "boundary_residuals",
    "tangential_form",
    "tangential_factorization",
    "mu_transmission_residual",
    "reduce_frames",
    "factorization_residuals",
]

_FRAME_TOL = 1e-10


class EllipticityError(ValueError):
    """Raised when a reduced discriminant or diagonal entry is not positive."""


class DegenerateSymbolError(ValueError):
    """Raised when a symbol vanishes where a nonzero value is required."""


# ---------------------------------------------------------------------------
# coefficient container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SecondOrderCoeffs:
    """Principal coefficients a_jk of a second-order symmetric operator.

    ``a`` is either a constant (n, n) symmetric array or a callable
    ``x -> (n, n) array``.  A callable may also declare a vectorized form,
    a method ``batch(points) -> (N, n, n) array``; ``a_batch`` uses it
    after checking its shape and its agreement with the callable at probe
    rows.  The zeroth-order term and the Robin
    coefficient are arguments of the assembly (``assemble_second_order``,
    ``krein_term``), not fields here.
    """

    n: int
    a: object

    def __post_init__(self):
        if not callable(self.a):
            mat = np.asarray(self.a, dtype=float)
            if mat.shape != (self.n, self.n):
                raise ValueError(f"coefficient matrix must be {(self.n, self.n)}")
            rows = mat.tolist()
            # |a_jk - a_kj| <= 1e-12 over k >= j also refuses a NaN or infinite entry: on the
            # diagonal x - x is NaN for those, and off it the difference is NaN or infinite
            for j, row in enumerate(rows):
                for k in range(j, self.n):
                    if not abs(row[k] - rows[k][j]) <= 1e-12:
                        raise ValueError("coefficient matrix must be finite and symmetric")
            object.__setattr__(self, "a", mat)

    @classmethod
    def laplacian(cls, n: int) -> "SecondOrderCoeffs":
        return cls(n=n, a=np.eye(n))

    @property
    def constant(self) -> bool:
        return not callable(self.a)

    def a_at(self, x) -> np.ndarray:
        if callable(self.a):
            mat = np.asarray(self.a(np.asarray(x, dtype=float)), dtype=float)
            if mat.shape != (self.n, self.n):
                raise ValueError("coefficient callable returned a wrong shape")
            return mat
        return self.a

    def a_batch(self, points: np.ndarray) -> np.ndarray:
        """Coefficient matrices at many points, shape (npts, n, n).

        A field with a ``batch`` method is evaluated by one ``batch(points)``
        call.  Its result's shape is checked, and its first, middle and last
        rows are checked against ``a_at`` at those points: each entry must
        agree within 1e-12 max|A| (the largest finite entry of the batch),
        or both be NaN.  A wrong shape or a disagreement raises ValueError,
        so a refused batch is never used.  The probe catches a batch that
        evaluates another field or orders its axes otherwise, not an error
        confined to unprobed rows.
        A field without ``batch`` is called once per point, like a_at, and
        the stacked result's shape is checked once.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        shape = (points.shape[0], self.n, self.n)
        if self.constant:
            return np.broadcast_to(self.a, shape).copy()
        batch = getattr(self.a, "batch", None)
        mats = [self.a(x) for x in points] if batch is None else batch(points)
        try:
            out = np.asarray(mats, dtype=float)
        except ValueError:  # ragged: the matrices differ in shape
            out = None
        if out is None or out.shape != shape:
            raise ValueError(f"coefficient {'callable' if batch is None else 'batch'} returned a wrong shape")
        if batch is not None and shape[0]:
            tol = 1e-12 * np.abs(out).max(initial=0.0, where=np.isfinite(out))
            for i in sorted({0, shape[0] // 2, shape[0] - 1}):
                if not np.isclose(out[i], self.a_at(points[i]), rtol=0.0, atol=tol, equal_nan=True).all():
                    raise ValueError(f"coefficient batch disagrees with the per-point field at row {i}")
        return out

    def describe(self) -> str:
        if not self.constant:
            return "variable"
        mat = np.asarray(self.a)
        if np.array_equal(mat, np.eye(self.n)):
            return "identity"
        if np.array_equal(mat, np.diag(np.diag(mat))):
            return "diag(" + ",".join(f"{v:g}" for v in np.diag(mat)) + ")"
        return "[" + ";".join(",".join(f"{v:g}" for v in row) for row in mat) + "]"


# ---------------------------------------------------------------------------
# principal symbols
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrincipalSymbol:
    """Homogeneous principal symbol p(x, xi) of known order.

    ``coeffs`` is filled when the symbol is a power of a second-order
    coefficient form; quadrature uses it for a fused evaluation path
    instead of calling ``fn`` node by node.
    """

    order: float
    fn: Callable
    coeffs: Optional[SecondOrderCoeffs] = None

    def __call__(self, x, xi):
        return self.fn(np.asarray(x, dtype=float), np.asarray(xi, dtype=float))

    @classmethod
    def from_coeffs(cls, coeffs: SecondOrderCoeffs, power: float = 1.0) -> "PrincipalSymbol":
        """(xi . a(x) xi)^power, order 2*power; the fractional Laplacian's is from_coeffs(laplacian(n), a)."""

        def fn(x, xi):
            return float(xi @ coeffs.a_at(x) @ xi) ** power

        return cls(order=2.0 * power, fn=fn, coeffs=coeffs)


def strong_ellipticity_margin(coeffs: SecondOrderCoeffs, sample_points) -> float:
    """Min over the sample points of the smallest eigenvalue of a(x).

    This is the exact minimum of abar(x, xi) / |xi|^2 over the cosphere
    at each point; the caller treats a nonpositive return as an invalid
    operator.
    """
    points = np.atleast_2d(np.asarray(sample_points, dtype=float))
    if points.shape[0] == 0:
        raise ValueError("sample_points must be nonempty")
    return min(float(sym_eig(mat).values[0]) for mat in coeffs.a_batch(points))


# ---------------------------------------------------------------------------
# boundary factorization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryFactorization:
    """Quadratic boundary factorization data at one (x', xi') sample.

    Base fields (filled by boundary_reduction) describe abar = ann xi_n^2
    + 2 b xi_n + c and its root pair; tangential fields (filled by
    tangential_factorization) describe the second factorization of
    kappa0^2 in the interface-normal covector.
    """

    a_nn: float
    b: Optional[float] = None
    c: Optional[float] = None
    a_prime: Optional[float] = None
    kappa0: Optional[float] = None
    kappa_plus: Optional[complex] = None
    kappa_minus: Optional[complex] = None
    residual: Optional[float] = None
    # tangential (second) factorization
    a_tt: Optional[float] = None
    kappat_plus: Optional[complex] = None
    kappat_minus: Optional[complex] = None
    tangential_residual: Optional[float] = None

    def eval_poly(self, xi_n):
        """abar(xi', xi_n) from the polynomial coefficients."""
        xi_n = np.asarray(xi_n, dtype=float)
        return self.a_nn * xi_n**2 + 2.0 * self.b * xi_n + self.c

    def eval_factored(self, xi_n):
        """abar(xi', xi_n) from ann (kappa+ + i xi_n)(kappa- - i xi_n)."""
        xi_n = np.asarray(xi_n, dtype=float)
        return self.a_nn * (self.kappa_plus + 1j * xi_n) * (self.kappa_minus - 1j * xi_n)

    def poisson_kernel(self, x_n):
        """Model Poisson kernel exp(-kappa_plus x_n) of the half-space problem."""
        return np.exp(-self.kappa_plus * np.asarray(x_n, dtype=float))

    def kappa0_sq_tangential(self, xi_last):
        """kappa0^2 reconstructed from the tangential root pair."""
        xi_last = np.asarray(xi_last, dtype=float)
        prod = (self.kappat_plus + 1j * xi_last) * (self.kappat_minus - 1j * xi_last)
        return self.a_tt * prod

    def kappa0_split_tangential(self, xi_last):
        """Half-power split att^(1/2) (k+ + i xi)^(1/2) (k- - i xi)^(1/2).

        Principal square-root branches; the factors stay in the open right
        half plane, away from the cut.
        """
        xi_last = np.asarray(xi_last, dtype=float)
        return (
            np.sqrt(self.a_tt)
            * np.sqrt(self.kappat_plus + 1j * xi_last)
            * np.sqrt(self.kappat_minus - 1j * xi_last)
        )


def _root_pairs(ann, b, c, x):
    """The one factorization ann x^2 + 2 b x + c = ann (kappa+ + i x)(kappa- - i x), on arrays.

    Arguments broadcast.  Returns kappa0 = sqrt(ann c - b^2), the pair
    kappa_pm = (kappa0 ± i b) / ann, and the relative residual of the
    factored form at x.  Callers check a' = ann c - b^2 > 0 first, where
    the polynomial has no real zero and the residual's 1e-300 floor never
    binds; only the degenerate tangential pair (a' = 0) meets it.
    """
    kappa0 = np.sqrt(ann * c - b * b)
    ib, ix = 1j * b, 1j * x
    kappa_plus = (kappa0 + ib) / ann
    kappa_minus = (kappa0 - ib) / ann
    poly = ann * x**2 + 2.0 * b * x + c
    fact = ann * (kappa_plus + ix) * (kappa_minus - ix)
    return kappa0, kappa_plus, kappa_minus, np.abs(poly - fact) / np.maximum(np.abs(poly), 1e-300)


def _elliptic_quantities(red, xips):
    """ann, b, c and a' = ann c - b^2 per sample; raises EllipticityError unless every a' > 0."""
    ann, b, c = _kernels.boundary_quantities(red, xips)
    a_prime = ann * c - b * b
    if not (a_prime > 0.0).all():  # written so that a NaN fails too, as in every check below
        raise EllipticityError("reduced discriminant a' = ann c - b^2 must be positive")
    return ann, b, c, a_prime


def _check_frames(frames, shape: tuple) -> np.ndarray:
    """Frames of the given shape, (n, n) or (N, n, n), whose columns are orthonormal to _FRAME_TOL."""
    frames = np.asarray(frames, dtype=float)
    if frames.shape != shape:
        raise ValueError(f"frame must be an {shape[-2:]} matrix with columns = frame vectors")
    if not abs(frames.swapaxes(-1, -2) @ frames - np.eye(shape[-1])).max() <= _FRAME_TOL:  # a NaN fails too
        raise ValueError("frame columns must be orthonormal")
    return frames


def _reduce_one(coeffs: SecondOrderCoeffs, point, frame) -> list:
    """The frame-reduced abar at one point as nested Python floats, its frame checked and its abar_nn > 0.

    The product F^T [F | A F] gives F^T F, whose distance from the identity
    checks the frame as _check_frames does, and abar = F^T A F; one
    .tolist() leaves numpy.
    """
    n = coeffs.n
    frame = np.asarray(frame, dtype=float)
    if frame.shape != (n, n):
        raise ValueError(f"frame must be an {(n, n)} matrix with columns = frame vectors")
    # ndarray.dot: on (n, n) operands the matmul ufunc's dispatch costs about a microsecond more
    prod = frame.T.dot(np.concatenate((frame, coeffs.a_at(point).dot(frame)), axis=1)).tolist()
    for j, row in enumerate(prod):
        for k in range(n):
            if not abs(row[k] - (j == k)) <= _FRAME_TOL:  # a NaN fails too
                raise ValueError("frame columns must be orthonormal")
    abar = [row[n:] for row in prod]
    if not abar[-1][-1] > 0.0:
        raise EllipticityError("abar_nn must be positive")
    return abar


def _quantities_one(mat: list, xi: list) -> tuple:
    """ann, b, c of one sample on Python floats, as _kernels.boundary_quantities forms them.

    The row x' mat[:-1, :] first, its last entry b, then the dot of its
    other entries with x' for c.
    """
    row = [sum(map(operator.mul, xi, col), 0.0) for col in zip(*mat)]
    return mat[-1][-1], row[-1], sum(map(operator.mul, row, xi), 0.0)


_XI_N_PROBE = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
_PROBE = [(x, 1j * x) for x in _XI_N_PROBE.tolist()]  # (xi_n, i xi_n) on Python floats, for _root_pair


def _root_pair(ann: float, b: float, c: float) -> tuple:
    """_root_pairs for one sample on Python floats, its residual the largest over the _XI_N_PROBE components.

    Returns (kappa0, kappa_plus, kappa_minus, residual).  As for
    _root_pairs, callers check a' = ann c - b^2 first: a' is positive, or
    the zero of the degenerate tangential pair, or NaN.  A NaN residual at
    any probe is the result, never passed over by the maximum.
    """
    kappa0 = math.sqrt(ann * c - b * b)
    kappa_plus = complex(kappa0, b) / ann
    kappa_minus = complex(kappa0, -b) / ann
    worst = 0.0
    for x, ix in _PROBE:
        poly = ann * x**2 + 2.0 * b * x + c
        size = abs(poly)
        r = abs(poly - ann * (kappa_plus + ix) * (kappa_minus - ix)) / (size if size > 1e-300 else 1e-300)
        if not r <= worst:
            if r != r:  # NaN: no later value may replace it
                return kappa0, kappa_plus, kappa_minus, r
            worst = r
    return kappa0, kappa_plus, kappa_minus, worst


def _check_dimension(n: int) -> None:
    """A boundary of dimension n - 1 >= 1, which has tangential covectors."""
    if n < 2:
        raise ValueError(f"boundary symbols need n >= 2: a {n}-dimensional domain has no tangential covector")


def _check_xi_prime(xips: np.ndarray, n: int) -> None:
    """xi' per sample, (N, n-1): of dimension n - 1 >= 1 and nonzero."""
    _check_dimension(n)
    if xips.shape[1:] != (n - 1,):
        raise ValueError(f"xi_prime must have dimension {n - 1}")
    if not xips.any(axis=1).all():
        raise ValueError("xi_prime must be nonzero")


def boundary_reduction(
    coeffs: SecondOrderCoeffs, boundary_point, normal_frame, xi_prime
) -> BoundaryFactorization:
    """Factor the boundary symbol at one point and tangential covector.

    ``normal_frame`` has the tangent vectors in its first n-1 columns and
    the interior normal in the last one.  Raises EllipticityError when the
    reduced discriminant a' = ann c - b^2 is not positive.  The residual
    is the largest over the _XI_N_PROBE normal components.
    """
    xip = np.asarray(xi_prime, dtype=float).reshape(-1)
    _check_xi_prime(xip[None], coeffs.n)
    ann, b, c = _quantities_one(_reduce_one(coeffs, boundary_point, normal_frame), xip.tolist())
    a_prime = ann * c - b * b
    if not a_prime > 0.0:  # a NaN fails too
        raise EllipticityError("reduced discriminant a' = ann c - b^2 must be positive")
    kappa0, kappa_plus, kappa_minus, residual = _root_pair(ann, b, c)
    return BoundaryFactorization(a_nn=ann, b=b, c=c, a_prime=a_prime, kappa0=kappa0, kappa_plus=kappa_plus,
                                 kappa_minus=kappa_minus, residual=residual)


def boundary_residuals(coeffs: SecondOrderCoeffs, points, frames, xips) -> np.ndarray:
    """boundary_reduction's residual at a batch of samples, with its checks.

    points (N, n), frames (N, n, n) and xips (N, n-1), one sample per
    row.  One reduce_frames, _elliptic_quantities and _root_pairs serve
    the whole batch; the result is each sample's largest relative
    residual over the _XI_N_PROBE normal components.
    """
    n = coeffs.n
    xips = np.asarray(xips, dtype=float)
    _check_xi_prime(xips, n)
    abar = reduce_frames(coeffs.a_batch(points), _check_frames(frames, (xips.shape[0], n, n)))
    if not (abar[:, -1, -1] > 0.0).all():
        raise EllipticityError("abar_nn must be positive")
    ann, b, c, _ = _elliptic_quantities(abar, xips)
    return _root_pairs(ann[:, None], b[:, None], c[:, None], _XI_N_PROBE)[3].max(axis=1)


def tangential_form(abar: np.ndarray) -> np.ndarray:
    """Matrix of the quadratic form a'(xi') = ann c(xi') - b(xi')^2, for one abar (n, n) or any leading shape.

    With abar frame-reduced, a'_jk = ann abar_jk - abar_jn abar_kn for
    j, k < n, so kappa0(xi')^2 = xi' . a' xi'.
    """
    v = abar[..., :-1, -1:]
    return abar[..., -1:, -1:] * abar[..., :-1, :-1] - v * v.swapaxes(-1, -2)


def tangential_factorization(
    coeffs: SecondOrderCoeffs, interface_point, frame, xi_dprime
) -> BoundaryFactorization:
    """Second factorization, of kappa0^2 in the interface-normal covector.

    ``frame`` is as in :func:`boundary_reduction` with the extra convention
    that its column n-2 (the last tangential one) is normal to the
    interface inside the boundary.  ``xi_dprime`` holds the remaining n-2
    covector components; it is empty for n = 2, in which case the root
    pair degenerates to constants.  The tangential pair factors a' (in
    which the interface normal is last) exactly as the base pair factors
    abar; the base fields stay unset (boundary_reduction fills them).
    With att > 0, a'' > 0 forces kappa0^2 = c_t > 0 at xi' = (xi'', 0),
    so the base pair there is elliptic too.
    """
    _check_dimension(coeffs.n)
    xidp = np.asarray(xi_dprime, dtype=float).reshape(-1)
    if xidp.shape != (coeffs.n - 2,):
        raise ValueError(f"xi_dprime must have dimension {coeffs.n - 2}")
    abar = _reduce_one(coeffs, interface_point, frame)
    # a'_jk = ann abar_jk - abar_jn abar_kn for j, k < n, as tangential_form forms it
    ann, v = abar[-1][-1], [row[-1] for row in abar[:-1]]
    form = [[ann * row[k] - vj * v[k] for k in range(len(v))] for row, vj in zip(abar, v)]
    xidp = xidp.tolist()
    att, b_t, c_t = _quantities_one(form, xidp)  # b_t = c_t = 0 for zero xi''
    if not att > 0.0:
        raise EllipticityError("a'_{n-1,n-1} must be positive")
    a_pp = att * c_t - b_t * b_t
    if not a_pp > 0.0 and any(xidp):  # zero xi'' gives a'' = 0: the pair degenerates to constants
        raise EllipticityError("tangential reduced discriminant must be positive")
    _, kappat_plus, kappat_minus, residual = _root_pair(att, b_t, c_t)
    return BoundaryFactorization(a_nn=ann, a_tt=att, kappat_plus=kappat_plus, kappat_minus=kappat_minus,
                                 tangential_residual=residual)


# ---------------------------------------------------------------------------
# transmission condition
# ---------------------------------------------------------------------------


def mu_transmission_residual(symbol: PrincipalSymbol, mu: float, boundary_points, normals) -> float:
    """Residual of p(x, -N) = exp(i pi (m - 2 mu)) p(x, N), relative to |p(x, N)|.

    The principal part is evaluated exactly at each boundary point and
    normal; the maximum over the points is returned.  A coefficient symbol
    (symbol.coeffs set) is evaluated for all points at once: one batched
    quadratic form N . A(x) N per sign of N, raised to the symbol's power
    one value at a time by Python's float power, as its fn raises it, so
    the residuals equal the per-point ones bit for bit.  A callable symbol
    is called point by point.
    """
    points = np.atleast_2d(np.asarray(boundary_points, dtype=float))
    norms = np.atleast_2d(np.asarray(normals, dtype=float))
    if points.shape[0] != norms.shape[0]:
        raise ValueError("boundary_points and normals must pair up")
    phase = np.exp(1j * np.pi * (symbol.order - 2.0 * mu))
    if symbol.coeffs is not None:
        mats, power = symbol.coeffs.a_batch(points), symbol.order / 2.0
        p_plus, p_minus = (np.array([q**power for q in (v[:, None, :] @ mats @ v[:, :, None]).ravel().tolist()],
                                    dtype=complex) for v in (norms, -norms))
        # moduli by libm's hypot, as abs() of one complex takes them (numpy's complex abs rounds otherwise)
        size = np.hypot(p_plus.real, p_plus.imag)
        if (size < 1e-300).any():
            raise DegenerateSymbolError("symbol vanishes on the given normal")
        d = p_minus - phase * p_plus
        # fmax from 0 skips a NaN residual, as max() from 0 does
        return float(np.fmax.reduce(np.hypot(d.real, d.imag) / size, initial=0.0))
    worst = 0.0
    for x, nvec in zip(points, norms):
        p_plus = complex(symbol(x, nvec))
        if abs(p_plus) < 1e-300:
            raise DegenerateSymbolError("symbol vanishes on the given normal")
        p_minus = complex(symbol(x, -nvec))
        worst = max(worst, abs(p_minus - phase * p_plus) / abs(p_plus))
    return float(worst)


# ---------------------------------------------------------------------------
# batched reductions (shared with the quadrature and acceptance paths)
# ---------------------------------------------------------------------------


def reduce_frames(mats: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Frame-reduce coefficient matrices: F^T A F per sample, for one (n, n) sample or any leading shape.

    One matmul chain, (F^T A) F; mats and frames broadcast over their
    leading axes.
    """
    return np.swapaxes(frames, -1, -2) @ mats @ frames


def factorization_residuals(mats, frames, xips, xins):
    """Relative factorization residuals for a batch of random samples.

    mats: (N, n, n) symmetric coefficient matrices.
    frames: (N, n, n) orthonormal frames, interior normal last.
    xips: (N, n-1) tangential covectors.  xins: (N,) normal components.
    Returns (kappa0, re_kappa, residual) arrays; raises EllipticityError
    if any reduced discriminant fails to be positive.
    """
    xips = np.atleast_2d(np.asarray(xips, dtype=float))
    xins = np.asarray(xins, dtype=float)
    red = reduce_frames(np.asarray(mats, dtype=float), np.asarray(frames, dtype=float))
    ann, b, c, _ = _elliptic_quantities(red, xips)
    kappa0, _, _, resid = _root_pairs(ann, b, c, xins)
    return kappa0, kappa0 / ann, resid
