"""Quadrature for Weyl-law constants over domain x cosphere products.

Three asymptotic constants are computed here:

* the Dirichlet constant ``C' = (n (2 pi)^n)^{-1} int_Omega int_{|xi|=1}
  |p(x, xi)|^{-n/2a} domega dx`` of the fractional Weyl law, with its
  companion ``C = C'**(-2a/n)``;
* the interface constant ``c(L) = ((n-1) (2 pi)^{n-1})^{-1} int_{Sigma+}
  int_{|xi'|=1} kappa0^{-(n-1)}`` for the weighted mixed-problem operator;
* the perturbation constant ``c(M)``, same prefactor with integrand
  ``(ann / (2 kappa0^2))^{(n-1)/2}``.

For coefficient-form symbols every cosphere integral above is of
(xi . A xi)^{-k/2} over the unit sphere S^{k-1}, which the Gaussian
integral in polar coordinates gives in closed form:

    int_{S^{k-1}} (xi . A xi)^{-k/2} dsigma = |S^{k-1}| det(A)^{-1/2},

with A = a(x) for C' (k = n) and A = a', the tangential form of
``symbols.tangential_form``, for c(L) and c(M) (k = n - 1; c(M) carries
the extra factor (ann / 2)^{(n-1)/2}).  One batched Cholesky per rule
node checks A positive definite exactly and gives det(A)^{-1/2} as
1 / prod diag(L), so only the spatial rule is summed.

User-supplied symbols without coefficients are summed node by node over
cosphere rules: composite trapezoid on the circle and product
Gauss-Legendre x trapezoid on the 2-sphere; the "cosphere" of a
1-dimensional tangent space is the two-point set {-1, +1} with counting
measure.  Error estimates come from comparing two refinement levels of
the spatial rule (and of the cosphere rule, where one is used), since no
external truth is available for these integrals.

Every rule, spatial or cosphere, is built from three private helpers:
_gauss (Gauss-Legendre mapped onto [lo, hi]), _periodic (the trapezoid
rule on [0, 2 pi)) and _sphere (unit vectors of the 2-sphere from a
polar-cosine rule times the azimuth trapezoid).  Box volumes and faces
are tensor products of _gauss rules; the disk takes _gauss in radius
(or in angle on its boundary) and _periodic in angle; sphere_rule(3),
the ball volume and the ball cap all go through _sphere, the first two
with the raw Gauss-Legendre nodes on [-1, 1].  Those nodes come from
_leggauss, which builds them once per size.

DomainSpec holds the geometry of every domain the package meets and
refuses impossible geometry (lengths and radii that are not finite and
positive, arcs outside 0 <= t0 < t1 <= 2 pi, caps outside (0, pi]);
DomainSpec.box_like is the one test for the interval, rectangle and box
kinds, which have per-axis lengths and named faces.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .symbols import EllipticityError, PrincipalSymbol, SecondOrderCoeffs, reduce_frames, tangential_form

__all__ = [
    "DomainSpec",
    "QuadratureResult",
    "SphereRule",
    "sphere_rule",
    "weyl_constant_dirichlet",
    "weyl_constant_L",
    "weyl_constant_M",
]


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "error", abs(self.error))


# ---------------------------------------------------------------------------
# cosphere rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphereRule:
    nodes: np.ndarray  # (ns, n) unit covectors
    weights: np.ndarray  # (ns,), sums to the sphere measure


@functools.cache
def _leggauss(m: int):
    """m-point Gauss-Legendre nodes and weights on [-1, 1], built once per m and read-only.

    Only these two 1-d arrays are kept; the rules built from them are not,
    since a fine ball-cap rule runs to megabytes.
    """
    t, w = np.polynomial.legendre.leggauss(m)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _gauss(m: int, lo, hi):
    """m-point Gauss-Legendre rule on [lo, hi]: nodes 0.5 (hi - lo)(t + 1) + lo, weights 0.5 (hi - lo) w."""
    t, w = _leggauss(m)
    return 0.5 * (hi - lo) * (t + 1.0) + lo, 0.5 * (hi - lo) * w


def _periodic(k: int):
    """k-point trapezoid rule on [0, 2 pi): equally spaced angles, equal weights 2 pi / k."""
    return 2.0 * np.pi * np.arange(k) / k, np.full(k, 2.0 * np.pi / k)


def _sphere(z: np.ndarray, wz: np.ndarray, k: int):
    """(unit vectors, weights) on the 2-sphere: a rule (z, wz) in the polar cosine times k azimuths.

    Vectors run over z first, then the azimuth, row-major.
    """
    lam, wl = _periodic(k)
    s = np.sqrt(np.clip(1.0 - z**2, 0.0, None))
    u = np.empty((z.size * k, 3))
    u[:, 0] = np.outer(s, np.cos(lam)).ravel()
    u[:, 1] = np.outer(s, np.sin(lam)).ravel()
    u[:, 2] = np.repeat(z, k)
    return u, np.outer(wz, wl).ravel()


def sphere_rule(n: int, level: int = 0) -> SphereRule:
    """Quadrature rule on the unit sphere in R^n.

    n = 1 is the two-point set with counting measure; n = 2 a composite
    trapezoid rule on the circle; n = 3 product Gauss-Legendre in the
    polar cosine times trapezoid in azimuth.  Each level doubles nodes.
    """
    scale = 2.0**level
    if n == 1:
        return SphereRule(
            nodes=np.array([[1.0], [-1.0]]),
            weights=np.array([1.0, 1.0]),
        )
    if n == 2:
        k = max(int(256 * scale), 8)
        th, weights = _periodic(k)
        return SphereRule(np.column_stack([np.cos(th), np.sin(th)]), weights)
    if n == 3:
        nz, nphi = max(int(64 * scale), 8), max(int(128 * scale), 16)
        nodes, weights = _sphere(*_leggauss(nz), nphi)
        return SphereRule(nodes, weights)
    raise ValueError("sphere rules are provided for n in {1, 2, 3}")


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

_BOX_FACES = {
    1: ("x-", "x+"),
    2: ("x-", "x+", "y-", "y+"),
    3: ("x-", "x+", "y-", "y+", "z-", "z+"),
}


@dataclass(frozen=True)
class DomainSpec:
    """Shape and boundary split Sigma+/Sigma-.

    kind: interval | rectangle | box | disk | ball.
    lengths: per-axis extents for box-like kinds.
    radius: for disk and ball, which are centred at the origin.
    sigma_plus: face-id tuple for box-like kinds (e.g. ("y-",)), an
        ("arc", th0, th1) angle range for the disk, or ("cap", phi_max)
        (polar angle from the north pole) for the ball.
    """

    kind: str
    lengths: tuple = ()
    radius: float = 1.0
    sigma_plus: tuple = ()

    def __post_init__(self):
        if self.kind not in ("interval", "rectangle", "box", "disk", "ball"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.box_like:
            if len(self.lengths) != self.n:
                raise ValueError(f"{self.kind} needs {self.n} lengths")
            if not all(np.isfinite(L) and L > 0.0 for L in self.lengths):
                raise ValueError(f"{self.kind} lengths must be finite and positive, got {self.lengths}")
            bad = [f for f in self.sigma_plus if f not in _BOX_FACES[self.n]]
            if bad:
                raise ValueError(f"unknown faces in sigma_plus: {bad}")
            return
        if not (np.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"{self.kind} radius must be finite and positive, got {self.radius!r}")
        if self.kind == "disk" and self.sigma_plus:
            if len(self.sigma_plus) != 3 or self.sigma_plus[0] != "arc":
                raise ValueError("disk sigma_plus must be ('arc', th0, th1)")
            _, th0, th1 = self.sigma_plus
            if not 0.0 <= th0 < th1 <= 2.0 * np.pi:
                raise ValueError(f"disk arc must satisfy 0 <= t0 < t1 <= 2 pi, got ({th0!r}, {th1!r})")
        if self.kind == "ball" and self.sigma_plus:
            if len(self.sigma_plus) != 2 or self.sigma_plus[0] != "cap":
                raise ValueError("ball sigma_plus must be ('cap', phi_max)")
            if not 0.0 < self.sigma_plus[1] <= np.pi:
                raise ValueError(f"ball cap must lie in (0, pi], got {self.sigma_plus[1]!r}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def unit_interval(cls, sigma_plus=("x-",)):
        return cls("interval", lengths=(1.0,), sigma_plus=tuple(sigma_plus))

    @classmethod
    def unit_square(cls, sigma_plus=("y-",)):
        return cls("rectangle", lengths=(1.0, 1.0), sigma_plus=tuple(sigma_plus))

    @classmethod
    def unit_box(cls, sigma_plus=("z-",)):
        return cls("box", lengths=(1.0, 1.0, 1.0), sigma_plus=tuple(sigma_plus))

    @classmethod
    def disk(cls, radius=1.0, arc=(0.0, np.pi)):
        return cls("disk", radius=radius, sigma_plus=("arc",) + tuple(arc))

    @classmethod
    def ball(cls, radius=1.0, cap=np.pi / 2):
        return cls("ball", radius=radius, sigma_plus=("cap", cap))

    # -- basic geometry -----------------------------------------------------

    @property
    def n(self) -> int:
        return {"interval": 1, "rectangle": 2, "box": 3, "disk": 2, "ball": 3}[self.kind]

    @property
    def box_like(self) -> bool:
        """Interval, rectangle or box: per-axis lengths, the origin at zero and named faces."""
        return self.kind in ("interval", "rectangle", "box")

    def extent(self) -> np.ndarray:
        """Per-axis side lengths of the bounding box."""
        if self.box_like:
            return np.asarray(self.lengths, dtype=float)
        return np.full(self.n, 2.0 * self.radius)

    def origin(self) -> np.ndarray:
        """Lower corner of the bounding box."""
        if self.box_like:
            return np.zeros(self.n)
        return np.full(self.n, -self.radius)

    def measure(self) -> float:
        if self.box_like:
            return float(np.prod(self.lengths))
        if self.kind == "disk":
            return float(np.pi * self.radius**2)
        return float(4.0 / 3.0 * np.pi * self.radius**3)

    def _face_measure(self, face: str) -> float:
        ax = "xyz".index(face[0])
        others = [self.lengths[i] for i in range(self.n) if i != ax]
        return float(np.prod(others))

    def sigma_plus_measure(self) -> float:
        if self.box_like:
            return float(sum(self._face_measure(f) for f in self.sigma_plus))
        if self.kind == "disk":
            _, th0, th1 = self.sigma_plus
            return float(self.radius * (th1 - th0))
        _, phi1 = self.sigma_plus
        return float(2.0 * np.pi * self.radius**2 * (1.0 - np.cos(phi1)))

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Strict interior membership of each point."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.box_like:
            lo = points > 0.0
            hi = points < np.asarray(self.lengths)
            return np.logical_and(lo.all(axis=1), hi.all(axis=1))
        return np.einsum("ki,ki->k", points, points) < self.radius**2

    # -- volume rule --------------------------------------------------------

    def volume_rule(self, level: int = 0):
        """(points, weights) integrating over the domain; Gauss-Legendre based."""
        m = max(int(32 * 2.0**level), 4)
        if self.box_like:
            return _tensor_rule([_gauss(m, 0.0, L) for L in self.lengths])
        r, wr = _gauss(m, 0.0, self.radius)
        if self.kind == "disk":
            th, wth = _periodic(4 * m)
            pts = np.empty((m * th.size, 2))
            pts[:, 0] = np.outer(r, np.cos(th)).ravel()
            pts[:, 1] = np.outer(r, np.sin(th)).ravel()
            return pts, np.outer(wr * r, wth).ravel()
        # ball: Gauss-Legendre in radius and polar cosine, trapezoid azimuth
        u, wu = _sphere(*_leggauss(m), 2 * m)
        pts = (r[:, None, None] * u[None]).reshape(-1, 3)
        return pts, ((wr * r**2)[:, None] * wu[None]).ravel()

    # -- boundary rule ------------------------------------------------------

    def _face_rule(self, face: str, m: int):
        ax = "xyz".index(face[0])
        side = face[1]
        n = self.n
        normal = np.zeros(n)
        normal[ax] = 1.0 if side == "-" else -1.0  # interior normal
        cols = [i for i in range(n) if i != ax]
        frame = np.column_stack([np.eye(n)[i] for i in cols] + [normal]) if n > 1 else normal.reshape(1, 1)
        if n == 1:
            pt = np.array([[0.0 if side == "-" else self.lengths[0]]])
            return pt, np.array([frame]), np.array([1.0])
        sub_pts, wts = _tensor_rule([_gauss(m, 0.0, self.lengths[i]) for i in cols])
        pts = np.empty((sub_pts.shape[0], n))
        pts[:, cols] = sub_pts
        pts[:, ax] = 0.0 if side == "-" else self.lengths[ax]
        frames = np.broadcast_to(frame, (pts.shape[0], n, n)).copy()
        return pts, frames, wts

    def boundary_rule(self, part: str = "sigma_plus", level: int = 0):
        """(points, frames, weights) over Sigma+ (or the whole boundary).

        Frames have tangent columns first and the interior normal last, so
        frame-reduced coefficient matrices feed the boundary factorization
        directly.
        """
        m = max(int(32 * 2.0**level), 4)
        if self.box_like:
            faces = self.sigma_plus if part == "sigma_plus" else _BOX_FACES[self.n]
            return tuple(np.concatenate(c) for c in zip(*(self._face_rule(f, m) for f in faces)))
        if self.kind == "disk":
            if part == "sigma_plus":
                _, th0, th1 = self.sigma_plus
            else:
                th0, th1 = 0.0, 2.0 * np.pi
            th, wth = _gauss(8 * m, th0, th1)
            cs, sn = np.cos(th), np.sin(th)
            pts = np.column_stack([cs, sn]) * self.radius
            frames = np.empty((th.size, 2, 2))
            frames[:, 0, 0] = -sn
            frames[:, 1, 0] = cs
            frames[:, 0, 1] = -cs
            frames[:, 1, 1] = -sn
            return pts, frames, wth * self.radius
        # ball cap
        phi1 = self.sigma_plus[1] if part == "sigma_plus" else np.pi
        z, wz = _gauss(2 * m, np.cos(phi1), 1.0)
        k = 4 * m
        rad, wts = _sphere(z, wz, k)
        pts = self.radius * rad
        # frame: e_phi, e_lambda tangents, inward radial normal
        lam = _periodic(k)[0]
        e_lam = np.column_stack([-np.tile(np.sin(lam), z.size), np.tile(np.cos(lam), z.size), np.zeros(rad.shape[0])])
        e_phi = np.cross(e_lam, rad)
        frames = np.stack([e_phi, e_lam, -rad], axis=2)
        return pts, frames, self.radius**2 * wts


def _tensor_rule(axes):
    """Tensor product of 1-d rules (nodes, weights), the last axis fastest."""
    pts, wts = zip(*axes)
    w = wts[0]
    for wi in wts[1:]:
        w = np.outer(w, wi).ravel()
    return np.column_stack([g.ravel() for g in np.meshgrid(*pts, indexing="ij")]), w


# ---------------------------------------------------------------------------
# the three constants
# ---------------------------------------------------------------------------


def _sphere_measure(k: int) -> float:
    """|S^{k-1}| = 2 pi^{k/2} / Gamma(k/2): 2 for the two-point set, 2 pi for the circle."""
    return 2.0 * math.pi ** (0.5 * k) / math.gamma(0.5 * k)


def _inv_sqrt_det(mats: np.ndarray, what: str) -> np.ndarray:
    """det(A)^{-1/2} per matrix of a batch (N, k, k), from one batched Cholesky.

    Raises EllipticityError, naming ``what``, unless every A is positive
    definite.
    """
    try:
        diag = np.diagonal(np.linalg.cholesky(mats), axis1=1, axis2=2)
        ok = (diag > 0.0).all()  # a NaN form gives a NaN factor without raising; it fails here
    except np.linalg.LinAlgError:
        ok = False
    if not ok:
        raise EllipticityError(f"{what} not positive definite at a quadrature node")
    return 1.0 / diag.prod(axis=1)


def weyl_constant_dirichlet(symbol: PrincipalSymbol, domain: DomainSpec, level: int = 0) -> QuadratureResult:
    """Dirichlet Weyl constant C' and its companion C = C'**(-2a/n).

    For symbols built from coefficient matrices the integrand
    |p|^{-n/2a} reduces to (xi . a(x) xi)^{-n/2}, independent of a, whose
    cosphere integral is |S^{n-1}| det(a(x))^{-1/2}.
    """
    n = domain.n
    two_a = symbol.order
    if two_a <= 0:
        raise ValueError("symbol order must be positive")
    coeffs = symbol.coeffs
    if coeffs is not None and coeffs.n != n:
        raise ValueError(f"symbol coefficients are {coeffs.n}-dimensional, the domain {n}-dimensional")
    vals = {}
    for lev in (level - 1, level):
        pts, wx = domain.volume_rule(lev)
        if coeffs is not None:
            total = _sphere_measure(n) * float(wx @ _inv_sqrt_det(coeffs.a_batch(pts), "coefficient form"))
        else:
            rule = sphere_rule(n, lev)
            total = 0.0
            for x, w in zip(pts, wx):
                fv = np.array([abs(complex(symbol(x, xi))) for xi in rule.nodes])
                if np.any(fv <= 0.0) or not np.all(np.isfinite(fv)):
                    raise EllipticityError(f"symbol not elliptic at sample x={x}")
                total += w * float(rule.weights @ fv ** (-n / two_a))
        vals[lev] = total / (n * (2.0 * np.pi) ** n)
    cprime = vals[level]
    companion = cprime ** (-two_a / n)
    return QuadratureResult(
        value=cprime,
        error=vals[level] - vals[level - 1],
        meta={"companion_C": companion},
    )


def _boundary_constant(coeffs: SecondOrderCoeffs, domain: DomainSpec, level: int, which: str) -> QuadratureResult:
    """c(L) or c(M), with int_{|xi'|=1} kappa0^{-(n-1)} = |S^{n-2}| det(a')^{-1/2}, a' the tangential form."""
    n = domain.n
    if n < 2:
        raise ValueError("boundary constants need n >= 2")
    vals = {}
    for lev in (level - 1, level):
        pts, frames, wx = domain.boundary_rule("sigma_plus", lev)
        abar = reduce_frames(coeffs.a_batch(pts), frames)
        ann = abar[:, -1, -1]
        if not (ann > 0.0).all():
            raise EllipticityError("abar_nn not positive at a quadrature node")
        f = _inv_sqrt_det(tangential_form(abar), "tangential form a'")
        if which == "M":
            f *= (0.5 * ann) ** (0.5 * (n - 1))
        vals[lev] = _sphere_measure(n - 1) * float(wx @ f) / ((n - 1) * (2.0 * np.pi) ** (n - 1))
    meta = {}
    if which == "M" and n == 2:
        meta["n2_special_case"] = True  # reported value sits outside the main n >= 3 scope
    return QuadratureResult(
        value=vals[level],
        error=vals[level] - vals[level - 1],
        meta=meta,
    )


def weyl_constant_L(coeffs: SecondOrderCoeffs, domain: DomainSpec, level: int = 0) -> QuadratureResult:
    """Interface constant c(L): boundary integral of kappa0^{-(n-1)}."""
    return _boundary_constant(coeffs, domain, level, "L")


def weyl_constant_M(coeffs: SecondOrderCoeffs, domain: DomainSpec, level: int = 0) -> QuadratureResult:
    """Perturbation constant c(M): boundary integral of (ann/(2 kappa0^2))^{(n-1)/2}."""
    return _boundary_constant(coeffs, domain, level, "M")
