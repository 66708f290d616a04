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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _kernels

__all__ = [
    "EllipticityError",
    "DegenerateSymbolError",
    "SecondOrderCoeffs",
    "PrincipalSymbol",
    "BoundaryFactorization",
    "eval_principal",
    "strong_ellipticity_margin",
    "boundary_reduction",
    "tangential_factorization",
    "dtn_principal",
    "kappa0_symbol",
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
    ``x -> (n, n) array``.  The zeroth-order term and the Robin
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
            if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-12):
                raise ValueError("coefficient matrix must be symmetric")
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
        """Coefficient matrices at many points, shape (npts, n, n)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.constant:
            return np.broadcast_to(self.a, (points.shape[0], self.n, self.n)).copy()
        return np.stack([self.a_at(x) for x in points])

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

    ``coeffs`` and ``power`` are filled when the symbol is a power of a
    second-order coefficient form; quadrature uses them for a fused
    evaluation path instead of calling ``fn`` node by node.
    """

    order: float
    fn: Callable
    kind: str = "user-supplied"
    coeffs: Optional[SecondOrderCoeffs] = None
    power: Optional[float] = None

    def __call__(self, x, xi):
        return self.fn(np.asarray(x, dtype=float), np.asarray(xi, dtype=float))

    @classmethod
    def fractional_laplacian(cls, n: int, a: float) -> "PrincipalSymbol":
        """|xi|^(2a), the symbol of the fractional Laplacian of power a."""

        def fn(x, xi):
            return float(np.dot(xi, xi)) ** a

        return cls(
            order=2.0 * a,
            fn=fn,
            kind=f"fractional-power(laplacian, {a})",
            coeffs=SecondOrderCoeffs.laplacian(n),
            power=a,
        )

    @classmethod
    def from_coeffs(cls, coeffs: SecondOrderCoeffs, power: float = 1.0) -> "PrincipalSymbol":
        """(xi . a(x) xi)^power, order 2*power."""

        def fn(x, xi):
            return float(xi @ coeffs.a_at(x) @ xi) ** power

        kind = "differential" if power == 1.0 else f"fractional-power(coeffs, {power})"
        return cls(order=2.0 * power, fn=fn, kind=kind, coeffs=coeffs, power=power)

    def check_homogeneity(self, points, covectors, scales) -> float:
        """Max relative deviation of p(x, t xi) from t^m p(x, xi)."""
        worst = 0.0
        for x, xi in zip(points, covectors):
            base = self(x, xi)
            for t in scales:
                lhs = self(x, t * xi)
                rhs = t**self.order * base
                denom = max(abs(rhs), 1e-300)
                worst = max(worst, abs(lhs - rhs) / denom)
        return worst


def eval_principal(coeffs: SecondOrderCoeffs, x, xi) -> float:
    """Value of the quadratic form sum a_jk(x) xi_j xi_k."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (coeffs.n,):
        raise ValueError(f"covector must have dimension {coeffs.n}")
    return float(xi @ coeffs.a_at(x) @ xi)


def _unit_directions(n: int, rule) -> np.ndarray:
    """Unit covectors used for sampled-minimum ellipticity checks."""
    if isinstance(rule, np.ndarray):
        return rule
    npts = rule if isinstance(rule, int) else None
    if n == 1:
        return np.array([[-1.0], [1.0]])
    if n == 2:
        k = npts or 256
        th = 2.0 * np.pi * np.arange(k) / k
        return np.column_stack([np.cos(th), np.sin(th)])
    if n == 3:
        nz = npts or 64
        nphi = 2 * nz
        z, _ = np.polynomial.legendre.leggauss(nz)
        phi = 2.0 * np.pi * np.arange(nphi) / nphi
        r = np.sqrt(1.0 - z**2)
        dirs = np.empty((nz * nphi, 3))
        dirs[:, 0] = np.outer(r, np.cos(phi)).ravel()
        dirs[:, 1] = np.outer(r, np.sin(phi)).ravel()
        dirs[:, 2] = np.repeat(z, nphi)
        return dirs
    # generic fallback: Fibonacci-style deterministic directions
    rng = np.random.default_rng(0)
    g = rng.standard_normal((npts or 1024, n))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def strong_ellipticity_margin(coeffs: SecondOrderCoeffs, sample_points, sphere_rule="default") -> float:
    """Min over samples of abar(x, xi) / |xi|^2 on the unit cosphere.

    The caller treats a nonpositive return as an invalid operator.
    """
    points = np.atleast_2d(np.asarray(sample_points, dtype=float))
    if points.shape[0] == 0:
        raise ValueError("sample_points must be nonempty")
    dirs = _unit_directions(coeffs.n, None if sphere_rule == "default" else sphere_rule)
    worst = np.inf
    for x in points:
        mat = coeffs.a_at(x)
        vals = np.einsum("si,ij,sj->s", dirs, mat, dirs)
        worst = min(worst, float(vals.min()))
    return worst


# ---------------------------------------------------------------------------
# boundary factorization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryFactorization:
    """Quadratic boundary factorization data at one (x', xi') sample.

    Base fields describe abar = ann xi_n^2 + 2 b xi_n + c and its root
    pair; tangential fields (when filled) describe the second
    factorization of kappa0^2 in the interface-normal covector.
    """

    x: np.ndarray
    frame: np.ndarray
    abar: np.ndarray
    a_nn: float
    xi_prime: Optional[np.ndarray] = None
    b: Optional[float] = None
    c: Optional[float] = None
    a_prime: Optional[float] = None
    kappa0: Optional[float] = None
    kappa_plus: Optional[complex] = None
    kappa_minus: Optional[complex] = None
    residual: Optional[float] = None
    # tangential (second) factorization
    xi_dprime: Optional[np.ndarray] = None
    a_tangent: Optional[np.ndarray] = None
    a_tt: Optional[float] = None
    b_t: Optional[float] = None
    c_t: Optional[float] = None
    a_pp: Optional[float] = None
    kappa0_t: Optional[float] = None
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


def _check_frame(frame: np.ndarray, n: int) -> np.ndarray:
    frame = np.asarray(frame, dtype=float)
    if frame.shape != (n, n):
        raise ValueError(f"frame must be an {(n, n)} matrix with columns = frame vectors")
    if np.max(np.abs(frame.T @ frame - np.eye(n))) > _FRAME_TOL:
        raise ValueError("frame columns must be orthonormal")
    return frame


_XI_N_PROBE = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


def boundary_reduction(
    coeffs: SecondOrderCoeffs, boundary_point, normal_frame, xi_prime
) -> BoundaryFactorization:
    """Factor the boundary symbol at one point and tangential covector.

    ``normal_frame`` has the tangent vectors in its first n-1 columns and
    the interior normal in the last one.  Raises EllipticityError when the
    reduced discriminant a' = ann c - b^2 is not positive.
    """
    x = np.asarray(boundary_point, dtype=float)
    frame = _check_frame(normal_frame, coeffs.n)
    xip = np.asarray(xi_prime, dtype=float).reshape(-1)
    if xip.shape != (coeffs.n - 1,):
        raise ValueError(f"xi_prime must have dimension {coeffs.n - 1}")
    if not np.any(xip):
        raise ValueError("xi_prime must be nonzero")
    abar = frame.T @ coeffs.a_at(x) @ frame
    ann = float(abar[-1, -1])
    if ann <= 0.0:
        raise EllipticityError("abar_nn must be positive")
    return BoundaryFactorization(x=x, frame=frame, abar=abar, a_nn=ann, **_root_pair(abar, xip))


def _root_pair(abar: np.ndarray, xip: np.ndarray) -> dict:
    """The base fields of the factorization of the frame-reduced abar (abar_nn > 0) at xi'."""
    ann = float(abar[-1, -1])
    b = float(abar[:-1, -1] @ xip)
    c = float(xip @ abar[:-1, :-1] @ xip)
    a_prime = ann * c - b * b
    if a_prime <= 0.0:
        raise EllipticityError("reduced discriminant a' = ann c - b^2 must be positive")
    kappa0 = float(np.sqrt(a_prime))
    kappa_plus = (kappa0 + 1j * b) / ann
    kappa_minus = (kappa0 - 1j * b) / ann
    poly = ann * _XI_N_PROBE**2 + 2.0 * b * _XI_N_PROBE + c
    fact = ann * (kappa_plus + 1j * _XI_N_PROBE) * (kappa_minus - 1j * _XI_N_PROBE)
    residual = float(np.max(np.abs(poly - fact) / np.abs(poly)))
    return dict(xi_prime=xip, b=b, c=c, a_prime=a_prime, kappa0=kappa0, kappa_plus=kappa_plus,
                kappa_minus=kappa_minus, residual=residual)


def tangential_form(abar: np.ndarray) -> np.ndarray:
    """Matrix of the quadratic form a'(xi') = ann c(xi') - b(xi')^2.

    With abar frame-reduced, a'_jk = ann abar_jk - abar_jn abar_kn for
    j, k < n, so kappa0(xi')^2 = xi' . a' xi'.
    """
    ann = abar[-1, -1]
    v = abar[:-1, -1]
    return ann * abar[:-1, :-1] - np.outer(v, v)


def tangential_factorization(
    coeffs: SecondOrderCoeffs, interface_point, frame, xi_dprime
) -> BoundaryFactorization:
    """Second factorization, of kappa0^2 in the interface-normal covector.

    ``frame`` is as in :func:`boundary_reduction` with the extra convention
    that its column n-2 (the last tangential one) is normal to the
    interface inside the boundary.  ``xi_dprime`` holds the remaining n-2
    covector components; it is empty for n = 2, in which case the root
    pair degenerates to constants.
    """
    x = np.asarray(interface_point, dtype=float)
    frame = _check_frame(frame, coeffs.n)
    xidp = np.asarray(xi_dprime, dtype=float).reshape(-1)
    if xidp.shape != (coeffs.n - 2,):
        raise ValueError(f"xi_dprime must have dimension {coeffs.n - 2}")
    abar = frame.T @ coeffs.a_at(x) @ frame
    ann = float(abar[-1, -1])
    if ann <= 0.0:
        raise EllipticityError("abar_nn must be positive")
    a_tan = tangential_form(abar)
    att = float(a_tan[-1, -1])
    if att <= 0.0:
        raise EllipticityError("a'_{n-1,n-1} must be positive")
    if xidp.size:
        b_t = float(a_tan[:-1, -1] @ xidp)
        c_t = float(xidp @ a_tan[:-1, :-1] @ xidp)
    else:
        b_t = 0.0
        c_t = 0.0
    a_pp = att * c_t - b_t * b_t
    if xidp.size and np.any(xidp) and a_pp <= 0.0:
        raise EllipticityError("tangential reduced discriminant must be positive")
    kappa0_t = float(np.sqrt(max(a_pp, 0.0)))
    kappat_plus = (kappa0_t + 1j * b_t) / att
    kappat_minus = (kappa0_t - 1j * b_t) / att
    # reconstruction residual: kappa0(xi'', xi_last)^2 against the factored form
    kap_sq = att * _XI_N_PROBE**2 + 2.0 * b_t * _XI_N_PROBE + c_t
    fact = att * (kappat_plus + 1j * _XI_N_PROBE) * (kappat_minus - 1j * _XI_N_PROBE)
    scale = np.maximum(np.abs(kap_sq), 1e-300)
    residual = float(np.max(np.abs(kap_sq - fact) / scale))
    base = _root_pair(abar, np.append(xidp, 0.0)) if xidp.size and np.any(xidp) else {}
    return BoundaryFactorization(
        x=x,
        frame=frame,
        abar=abar,
        a_nn=ann,
        xi_dprime=xidp,
        a_tangent=a_tan,
        a_tt=att,
        b_t=b_t,
        c_t=c_t,
        a_pp=a_pp,
        kappa0_t=kappa0_t,
        kappat_plus=kappat_plus,
        kappat_minus=kappat_minus,
        tangential_residual=residual,
        **base,
    )


@dataclass(frozen=True)
class DtnPrincipal:
    """Principal DtN value -kappa0 with its Poisson-kernel companion."""

    value: float
    factorization: BoundaryFactorization

    def __float__(self):
        return self.value

    def poisson_kernel(self, x_n):
        return self.factorization.poisson_kernel(x_n)


def dtn_principal(coeffs: SecondOrderCoeffs, boundary_point, frame, xi_prime) -> DtnPrincipal:
    """Principal symbol -kappa0(x', xi') of the Dirichlet-to-Neumann map."""
    bf = boundary_reduction(coeffs, boundary_point, frame, xi_prime)
    return DtnPrincipal(value=-bf.kappa0, factorization=bf)


def kappa0_symbol(coeffs: SecondOrderCoeffs, frame) -> PrincipalSymbol:
    """kappa0(x', xi') as an order-1 symbol in the tangential covector."""

    def fn(x, xip):
        return boundary_reduction(coeffs, x, frame, xip).kappa0

    return PrincipalSymbol(order=1.0, fn=fn, kind="differential")


# ---------------------------------------------------------------------------
# transmission condition
# ---------------------------------------------------------------------------


def _fd_derivatives(symbol, x, xi, order, step):
    """Central finite-difference xi-derivatives of p at (x, xi), up to order 2."""
    n = xi.size
    out = []
    if order >= 1:
        for j in range(n):
            e = np.zeros(n)
            e[j] = step
            out.append((1, (symbol(x, xi + e) - symbol(x, xi - e)) / (2 * step)))
    if order >= 2:
        # second differences divide by step^2, so the roundoff floor is
        # eps/step^2; keep the step at or above eps^(1/4) to stay near the
        # truncation/roundoff balance point
        step = max(step, float(np.finfo(float).eps) ** 0.25)
        for j in range(n):
            e = np.zeros(n)
            e[j] = step
            second = (symbol(x, xi + e) - 2 * symbol(x, xi) + symbol(x, xi - e)) / step**2
            out.append((2, second))
            for k in range(j + 1, n):
                f = np.zeros(n)
                f[k] = step
                mixed = (
                    symbol(x, xi + e + f)
                    - symbol(x, xi + e - f)
                    - symbol(x, xi - e + f)
                    + symbol(x, xi - e - f)
                ) / (4 * step**2)
                out.append((2, mixed))
    return out


def mu_transmission_residual(
    symbol: PrincipalSymbol,
    mu: float,
    boundary_points,
    normals,
    deriv_order: int = 0,
    fd_step: float = 1e-5,
) -> float:
    """Residual of p(x, -N) = exp(i pi (m - 2 mu - |alpha|)) p(x, N).

    The principal part (alpha = 0) is evaluated exactly; covector
    derivatives up to ``deriv_order`` (at most 2) are approximated by
    central differences with the given step, so their contribution to the
    residual is approximate at roughly the 1e-6 level.
    """
    points = np.atleast_2d(np.asarray(boundary_points, dtype=float))
    norms = np.atleast_2d(np.asarray(normals, dtype=float))
    if points.shape[0] != norms.shape[0]:
        raise ValueError("boundary_points and normals must pair up")
    if deriv_order > 2:
        raise ValueError("derivative checks are supported up to order 2")
    m = symbol.order
    worst = 0.0
    for x, nvec in zip(points, norms):
        p_plus = complex(symbol(x, nvec))
        if abs(p_plus) < 1e-300:
            raise DegenerateSymbolError("symbol vanishes on the given normal")
        p_minus = complex(symbol(x, -nvec))
        phase = np.exp(1j * np.pi * (m - 2.0 * mu))
        worst = max(worst, abs(p_minus - phase * p_plus) / abs(p_plus))
        if deriv_order:
            d_plus = _fd_derivatives(symbol, x, nvec, deriv_order, fd_step)
            d_minus = _fd_derivatives(symbol, x, -nvec, deriv_order, fd_step)
            for (ka, gp), (_, gm) in zip(d_plus, d_minus):
                ph = np.exp(1j * np.pi * (m - 2.0 * mu - ka))
                denom = max(abs(gp), 1e-12 * abs(p_plus), 1e-300)
                worst = max(worst, abs(gm - ph * gp) / denom)
    return worst


# ---------------------------------------------------------------------------
# batched reductions (shared with the quadrature and acceptance paths)
# ---------------------------------------------------------------------------


def reduce_frames(mats: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Frame-reduce a batch of coefficient matrices: F^T A F per sample."""
    return np.einsum("kia,kij,kjb->kab", frames, mats, frames)


def factorization_residuals(mats, frames, xips, xins):
    """Relative factorization residuals for a batch of random samples.

    mats: (N, n, n) symmetric coefficient matrices.
    frames: (N, n, n) orthonormal frames, interior normal last.
    xips: (N, n-1) tangential covectors.  xins: (N,) normal components.
    Returns (kappa0, re_kappa, residual) arrays; raises EllipticityError
    if any reduced discriminant fails to be positive.
    """
    mats = np.ascontiguousarray(mats, dtype=float)
    frames = np.ascontiguousarray(frames, dtype=float)
    xips = np.ascontiguousarray(np.atleast_2d(xips), dtype=float)
    xins = np.asarray(xins, dtype=float)
    red = np.ascontiguousarray(reduce_frames(mats, frames))
    ann, b, c = _kernels.boundary_quantities(red, xips)
    ap = ann * c - b * b
    if np.any(ap <= 0.0):
        raise EllipticityError("nonpositive reduced discriminant in batch")
    kappa0 = np.sqrt(ap)
    kplus = (kappa0 + 1j * b) / ann
    kminus = (kappa0 - 1j * b) / ann
    poly = ann * xins**2 + 2.0 * b * xins + c
    fact = ann * (kplus + 1j * xins) * (kminus - 1j * xins)
    resid = np.abs(poly - fact) / np.abs(poly)
    return kappa0, kappa0 / ann, resid
