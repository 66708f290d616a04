import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspec import _kernels, quadrature
from fracspec.quadrature import (
    DomainSpec,
    EllipticityError,
    sphere_rule,
    weyl_constant_dirichlet,
    weyl_constant_L,
    weyl_constant_M,
)
from fracspec.symbols import PrincipalSymbol, SecondOrderCoeffs


def test_sphere_rule_total_measure():
    assert sphere_rule(1).weights.sum() == 2.0
    assert sphere_rule(2).weights.sum() == pytest.approx(2.0 * np.pi, rel=1e-14)
    assert sphere_rule(3).weights.sum() == pytest.approx(4.0 * np.pi, rel=1e-13)


def test_domain_measures_closed_form():
    assert DomainSpec.unit_square().measure() == 1.0
    assert DomainSpec.unit_box().measure() == 1.0
    assert DomainSpec.disk().measure() == pytest.approx(np.pi)
    assert DomainSpec.ball().measure() == pytest.approx(4.0 * np.pi / 3.0)
    # boundary parts
    assert DomainSpec.unit_square().sigma_plus_measure() == 1.0
    assert DomainSpec.disk(arc=(0.0, np.pi)).sigma_plus_measure() == pytest.approx(np.pi)
    # hemisphere cap: 2 pi (1 - cos(pi/2)) = 2 pi
    assert DomainSpec.ball(cap=np.pi / 2).sigma_plus_measure() == pytest.approx(2.0 * np.pi)


def test_domain_rejects_impossible_geometry():
    cases = [
        (lambda: DomainSpec("rectangle", lengths=(1.0, 0.0)), "lengths must be finite and positive"),
        (lambda: DomainSpec("interval", lengths=(np.inf,)), "lengths must be finite and positive"),
        (lambda: DomainSpec("box", lengths=(1.0, -2.0, 1.0)), "lengths must be finite and positive"),
        (lambda: DomainSpec.disk(radius=-1.0), "radius must be finite and positive, got -1.0"),
        (lambda: DomainSpec.disk(radius=0.0), "radius must be finite and positive, got 0.0"),
        (lambda: DomainSpec.ball(radius=np.nan), "radius must be finite and positive"),
        (lambda: DomainSpec.disk(arc=(2.0, 1.0)), "0 <= t0 < t1 <= 2 pi, got (2.0, 1.0)"),
        (lambda: DomainSpec.disk(arc=(-0.1, 1.0)), "0 <= t0 < t1 <= 2 pi"),
        (lambda: DomainSpec.disk(arc=(0.0, 7.0)), "0 <= t0 < t1 <= 2 pi"),
        (lambda: DomainSpec.ball(cap=4.0), "cap must lie in (0, pi], got 4.0"),
        (lambda: DomainSpec.ball(cap=0.0), "cap must lie in (0, pi]"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as exc:
            build()
        assert message in str(exc.value)
    # the closed ends of the ranges stay valid
    assert DomainSpec.disk(arc=(0.0, 2.0 * np.pi)).sigma_plus_measure() == pytest.approx(2.0 * np.pi)
    assert DomainSpec.ball(cap=np.pi).sigma_plus_measure() == pytest.approx(4.0 * np.pi)


def test_domain_measures_by_rule_match():
    for dom in (DomainSpec.unit_square(), DomainSpec.unit_box(), DomainSpec.disk(), DomainSpec.ball()):
        total = dom.volume_rule()[1].sum()
        assert total == pytest.approx(dom.measure(), rel=1e-10)
        assert abs(total - dom.measure()) <= 1e-10 * max(1.0, dom.measure())
    for dom in (DomainSpec.unit_box(), DomainSpec.disk(arc=(0.3, 2.1)), DomainSpec.ball(cap=1.0)):
        total = dom.boundary_rule("sigma_plus")[2].sum()
        assert total == pytest.approx(dom.sigma_plus_measure(), rel=1e-10)


def test_boundary_frames_are_adapted():
    for dom in (DomainSpec.unit_box(), DomainSpec.disk(), DomainSpec.ball()):
        pts, frames, w = dom.boundary_rule("sigma_plus")
        assert np.all(w > 0.0)
        eye = np.eye(dom.n)
        for p, f in zip(pts[::17], frames[::17]):
            assert np.abs(f.T @ f - eye).max() <= 1e-10
            if dom.kind in ("disk", "ball"):
                # interior normal (last column) points toward the center
                assert f[:, -1] @ p < 0.0


def test_weyl_constant_square_laplacian():
    # |Omega| sigma(S^1) / (n (2 pi)^n) = 2 pi / (2 (2 pi)^2) = 1 / (4 pi)
    sym = PrincipalSymbol.from_coeffs(SecondOrderCoeffs.laplacian(2), 0.5)
    res = weyl_constant_dirichlet(sym, DomainSpec.unit_square())
    assert res.value == pytest.approx(1.0 / (4.0 * np.pi), rel=1e-8)
    assert res.meta["companion_C"] == pytest.approx((4.0 * np.pi) ** 0.5, rel=1e-8)


def test_weyl_constant_order_independent_for_coeff_symbols():
    dom = DomainSpec.unit_square()
    lap = SecondOrderCoeffs.laplacian(2)
    v = [weyl_constant_dirichlet(PrincipalSymbol.from_coeffs(lap, a), dom).value for a in (0.25, 0.5, 0.9)]
    assert max(v) - min(v) <= 1e-14


def test_weyl_constant_ball_laplacian():
    # (4 pi / 3) 4 pi / (3 (2 pi)^3) = 2 / (9 pi)
    sym = PrincipalSymbol.from_coeffs(SecondOrderCoeffs.laplacian(3), 0.5)
    res = weyl_constant_dirichlet(sym, DomainSpec.ball())
    assert res.value == pytest.approx(2.0 / (9.0 * np.pi), rel=1e-8)


def test_weyl_constant_anisotropic_oracle():
    # int dtheta / (A cos^2 + B sin^2) = 2 pi / sqrt(A B)
    dom = DomainSpec.unit_square()
    sym = PrincipalSymbol.from_coeffs(SecondOrderCoeffs(2, np.diag([1.0, 4.0])), 1.0)
    assert weyl_constant_dirichlet(sym, dom).value == pytest.approx(1.0 / (8.0 * np.pi), rel=1e-8)
    sym23 = PrincipalSymbol.from_coeffs(SecondOrderCoeffs(2, np.diag([2.0, 3.0])), 0.5)
    assert weyl_constant_dirichlet(sym23, dom).value == pytest.approx(
        1.0 / (4.0 * np.pi * np.sqrt(6.0)), rel=1e-8
    )


def test_weyl_constant_generic_callable_matches_fused_path():
    dom = DomainSpec.unit_square()
    generic = PrincipalSymbol(order=1.0, fn=lambda x, xi: float(xi @ xi) ** 0.5)
    fused = PrincipalSymbol.from_coeffs(SecondOrderCoeffs.laplacian(2), 0.5)
    a = weyl_constant_dirichlet(generic, dom).value
    b = weyl_constant_dirichlet(fused, dom).value
    assert a == pytest.approx(b, rel=1e-12)


def test_weyl_constant_rejects_indefinite():
    dom = DomainSpec.unit_square()
    sym = PrincipalSymbol.from_coeffs(SecondOrderCoeffs(2, [[1.0, 2.0], [2.0, 1.0]]), 1.0)
    with pytest.raises(EllipticityError):
        weyl_constant_dirichlet(sym, dom)


def test_weyl_constant_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimensional"):
        weyl_constant_dirichlet(PrincipalSymbol.from_coeffs(SecondOrderCoeffs.laplacian(2), 0.5), DomainSpec.unit_box())


def test_interface_constant_hemisphere():
    lap = SecondOrderCoeffs.laplacian(3)
    res = weyl_constant_L(lap, DomainSpec.ball(cap=np.pi / 2))
    assert res.value == pytest.approx(0.5, rel=1e-8)


def test_interface_constant_cap_area_law():
    # c(L) = |cap| / (4 pi) for the Laplacian on the unit sphere
    lap = SecondOrderCoeffs.laplacian(3)
    for cap in (np.pi / 3, 1.0):
        area = 2.0 * np.pi * (1.0 - np.cos(cap))
        res = weyl_constant_L(lap, DomainSpec.ball(cap=cap))
        assert res.value == pytest.approx(area / (4.0 * np.pi), rel=1e-8)


def test_interface_constant_disk_arc_law():
    # n = 2: c(L) = s / pi for an arc of length s
    lap = SecondOrderCoeffs.laplacian(2)
    assert weyl_constant_L(lap, DomainSpec.disk(arc=(0.0, np.pi))).value == pytest.approx(1.0, rel=1e-10)
    assert weyl_constant_L(lap, DomainSpec.disk(arc=(0.0, np.pi / 2))).value == pytest.approx(0.5, rel=1e-10)


def test_interface_constant_box_face():
    lap = SecondOrderCoeffs.laplacian(3)
    res = weyl_constant_L(lap, DomainSpec.unit_box(("z-",)))
    assert res.value == pytest.approx(1.0 / (4.0 * np.pi), rel=1e-8)


def test_perturbation_constant_hemisphere():
    lap = SecondOrderCoeffs.laplacian(3)
    res = weyl_constant_M(lap, DomainSpec.ball(cap=np.pi / 2))
    assert res.value == pytest.approx(0.25, rel=1e-8)
    assert "n2_special_case" not in res.meta


def test_perturbation_constant_cap_area_law():
    lap = SecondOrderCoeffs.laplacian(3)
    for cap in (np.pi / 3, 1.2):
        area = 2.0 * np.pi * (1.0 - np.cos(cap))
        res = weyl_constant_M(lap, DomainSpec.ball(cap=cap))
        assert res.value == pytest.approx(area / (8.0 * np.pi), rel=1e-8)


def test_perturbation_constant_box_face():
    lap = SecondOrderCoeffs.laplacian(3)
    assert weyl_constant_M(lap, DomainSpec.unit_box(("z-",))).value == pytest.approx(1.0 / (8.0 * np.pi), rel=1e-8)


def test_perturbation_constant_disk_flags_n2():
    lap = SecondOrderCoeffs.laplacian(2)
    res = weyl_constant_M(lap, DomainSpec.disk(arc=(0.0, np.pi)))
    assert res.value == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-10)
    assert res.meta.get("n2_special_case") is True


def test_boundary_constant_scaling_laws():
    # a -> t a sends kappa0 -> t kappa0 and ann/(2 kappa0^2) -> (1/t) ann/(2 kappa0^2),
    # so c(L) scales by t^{-(n-1)} and c(M) by t^{-(n-1)/2}
    t = 4.0
    box = DomainSpec.unit_box(("z-",))
    lap3 = SecondOrderCoeffs.laplacian(3)
    scaled3 = SecondOrderCoeffs(3, t * np.eye(3))
    assert weyl_constant_L(scaled3, box).value == pytest.approx(
        weyl_constant_L(lap3, box).value / t**2, rel=1e-10
    )
    assert weyl_constant_M(scaled3, box).value == pytest.approx(
        weyl_constant_M(lap3, box).value / t, rel=1e-10
    )
    disk = DomainSpec.disk(arc=(0.0, np.pi))
    lap2 = SecondOrderCoeffs.laplacian(2)
    scaled2 = SecondOrderCoeffs(2, 9.0 * np.eye(2))
    assert weyl_constant_L(scaled2, disk).value == pytest.approx(
        weyl_constant_L(lap2, disk).value / 9.0, rel=1e-10
    )
    assert weyl_constant_M(scaled2, disk).value == pytest.approx(
        weyl_constant_M(lap2, disk).value / 3.0, rel=1e-10
    )


def test_boundary_constant_additive_over_disjoint_arcs():
    lap = SecondOrderCoeffs.laplacian(2)
    whole = DomainSpec.disk(arc=(0.2, 2.6))
    left = DomainSpec.disk(arc=(0.2, 1.3))
    right = DomainSpec.disk(arc=(1.3, 2.6))
    for fn in (weyl_constant_L, weyl_constant_M):
        assert fn(lap, whole).value == pytest.approx(fn(lap, left).value + fn(lap, right).value, rel=1e-10)


def test_boundary_constant_positive_anisotropic():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((3, 3))
    coeffs = SecondOrderCoeffs(3, g @ g.T + 3.0 * np.eye(3))
    for fn in (weyl_constant_L, weyl_constant_M):
        res = fn(coeffs, DomainSpec.ball(cap=1.0))
        assert res.value > 0.0
        assert res.error <= 1e-6 * res.value


def test_refinement_shrinks_error():
    rng = np.random.default_rng(8)
    g = rng.standard_normal((3, 3))
    coeffs = SecondOrderCoeffs(3, g @ g.T + 3.0 * np.eye(3))
    dom = DomainSpec.ball(cap=1.0)
    r0 = weyl_constant_L(coeffs, dom, level=0)
    r1 = weyl_constant_L(coeffs, dom, level=1)
    assert r1.error <= r0.error + 1e-15
    assert r1.value == pytest.approx(r0.value, rel=1e-8)


def test_boundary_constant_rejects_indefinite():
    bad = SecondOrderCoeffs(2, [[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(EllipticityError):
        weyl_constant_L(bad, DomainSpec.disk())


def _spd_batch(rng, m, n):
    mats = np.empty((m, n, n))
    for i in range(m):
        g = rng.standard_normal((n, n))
        mats[i] = g @ g.T + n * np.eye(n)
    return mats


def _reduced_parts(A, t):
    # ann, b, c of a frame-reduced matrix at tangential covector t
    k = A.shape[0] - 1
    return A[k, k], A[:k, k] @ t, t @ A[:k, :k] @ t


# ---------------------------------------------------------------------------
# oracle: the closed-form cosphere integrals against per-node x sphere_rule sums
# ---------------------------------------------------------------------------


def _spd(rng, n):
    """Symmetric positive definite, eigenvalues in [1, 4], in a random frame."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * rng.uniform(1.0, 4.0, n)) @ q.T


class _SmoothField:
    """a(x) = Q diag(2.5 + amp sin(K x + phi)) Q^T: smooth, eigenvalues in [1, 4]."""

    def __init__(self, rng, n):
        self.q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        self.k = rng.uniform(-2.0, 2.0, (n, n))
        self.phi = rng.uniform(0.0, 2.0 * np.pi, n)
        self.amp = rng.uniform(0.5, 1.5, n)

    def __call__(self, x):
        return (self.q * (2.5 + self.amp * np.sin(self.k @ x + self.phi))) @ self.q.T


# sphere level of the reference sums: converged to roundoff for eigenvalue ratios up to 4
_REF_SPHERE_LEVEL = -1
_CONSTANTS = ("dirichlet", "L", "M")


def _forms(mats, dirs):
    """dirs[s] . mats[d] dirs[s] for every (d, s), as one GEMM."""
    outer = (dirs[:, :, None] * dirs[:, None, :]).reshape(dirs.shape[0], -1)
    return mats.reshape(mats.shape[0], -1) @ outer.T


def _oracle_domain(n, which):
    if which == "dirichlet":
        return DomainSpec.unit_square() if n == 2 else DomainSpec.unit_box()
    return DomainSpec.disk(arc=(0.3, 2.1)) if n == 2 else DomainSpec.ball(cap=1.0)


def _reference(coeffs, which, level):
    """The constant as a product sum over the spatial rule x sphere_rule, node blocks of 256.

    The integrands are the definitions: (xi . a xi)^(-n/2) for C', and
    kappa0^(-(n-1)) or (ann / (2 kappa0^2))^((n-1)/2) with
    kappa0^2 = ann c - b^2 for c(L) and c(M).
    """
    n = coeffs.n
    dom = _oracle_domain(n, which)
    if which == "dirichlet":
        pts, wx = dom.volume_rule(level)
        rule = sphere_rule(n, _REF_SPHERE_LEVEL)
        total = 0.0
        for lo in range(0, pts.shape[0], 256):
            q = _forms(coeffs.a_batch(pts[lo : lo + 256]), rule.nodes)
            total += wx[lo : lo + 256] @ (q ** (-0.5 * n) @ rule.weights)
        return total / (n * (2.0 * np.pi) ** n)
    pts, frames, wx = dom.boundary_rule("sigma_plus", level)
    rule = sphere_rule(n - 1, _REF_SPHERE_LEVEL)
    total = 0.0
    for lo in range(0, pts.shape[0], 256):
        fr = frames[lo : lo + 256]
        red = np.swapaxes(fr, 1, 2) @ coeffs.a_batch(pts[lo : lo + 256]) @ fr
        ann = red[:, -1, -1][:, None]
        b = red[:, :-1, -1] @ rule.nodes.T
        ap = ann * _forms(np.ascontiguousarray(red[:, :-1, :-1]), rule.nodes) - b * b
        vals = ap ** (-0.5 * (n - 1)) if which == "L" else (ann / (2.0 * ap)) ** (0.5 * (n - 1))
        total += wx[lo : lo + 256] @ (vals @ rule.weights)
    return total / ((n - 1) * (2.0 * np.pi) ** (n - 1))


def _closed_form(coeffs, which, level):
    dom = _oracle_domain(coeffs.n, which)
    if which == "dirichlet":
        return weyl_constant_dirichlet(PrincipalSymbol.from_coeffs(coeffs, 0.5), dom, level=level).value
    return (weyl_constant_L if which == "L" else weyl_constant_M)(coeffs, dom, level=level).value


@settings(max_examples=24, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    level=st.integers(-2, 0),
    which=st.sampled_from(_CONSTANTS),
    variable=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_closed_form_matches_product_sum_hypothesis(n, level, which, variable, seed):
    rng = np.random.default_rng(seed)
    coeffs = SecondOrderCoeffs(n, _SmoothField(rng, n) if variable else _spd(rng, n))
    assert _closed_form(coeffs, which, level) == pytest.approx(_reference(coeffs, which, level), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_matches_per_pair_reference(n):
    rng = np.random.default_rng(12)
    field = SecondOrderCoeffs(n, _SmoothField(rng, n))
    for which in _CONSTANTS:
        assert _closed_form(field, which, -2) == pytest.approx(_reference(field, which, -2), rel=1e-12)

    m = 40
    mats = _spd_batch(rng, m, n)
    xips = rng.standard_normal((m, n - 1))
    got = _kernels.boundary_quantities(mats, xips)
    want = np.array([_reduced_parts(mats[k], xips[k]) for k in range(m)]).T
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-13, atol=0.0)


def test_closed_form_rejects_nonpositive_form():
    box = DomainSpec.unit_box(("z-",))
    # indefinite in full and in reduced (tangential) form, on half the box
    half = SecondOrderCoeffs(3, lambda x: np.diag([1.0, 1.0 if x[0] < 0.5 else -1.0, 1.0]))
    with pytest.raises(EllipticityError):
        weyl_constant_dirichlet(PrincipalSymbol.from_coeffs(half, 0.5), box, level=-2)
    for fn in (weyl_constant_L, weyl_constant_M):
        with pytest.raises(EllipticityError):
            fn(half, box, level=-2)
        # a' = ann c - b^2 = I is positive, but abar_nn = -1 is not
        with pytest.raises(EllipticityError):
            fn(SecondOrderCoeffs(3, -np.eye(3)), box, level=-2)


def test_indefinite_form_between_sphere_nodes_rejected():
    # eigenvalues (1, 1, -1e-6): the negative cone is about 1e-3 wide and falls between
    # the cosphere nodes, so a check at the nodes alone passes it
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    a = q @ np.diag([1.0, 1.0, -1e-6]) @ q.T
    a = 0.5 * (a + a.T)
    for lev in (-2, -1):
        nodes = sphere_rule(3, lev).nodes
        assert (np.einsum("si,ij,sj->s", nodes, a, nodes) > 0.0).all()
    symbol = PrincipalSymbol.from_coeffs(SecondOrderCoeffs(3, a), 0.5)
    with pytest.raises(EllipticityError):
        weyl_constant_dirichlet(symbol, DomainSpec.unit_box(), level=-1)


def test_coefficient_constants_never_call_sphere_rule(monkeypatch):
    calls = []

    def spy(n, level=0):
        calls.append((n, level))
        return sphere_rule(n, level)

    monkeypatch.setattr(quadrature, "sphere_rule", spy)
    lap = SecondOrderCoeffs.laplacian(3)
    weyl_constant_dirichlet(PrincipalSymbol.from_coeffs(lap, 0.5), DomainSpec.ball(), level=-2)
    weyl_constant_L(lap, DomainSpec.ball(), level=-2)
    weyl_constant_M(lap, DomainSpec.ball(), level=-2)
    assert calls == []
    # a user-supplied symbol keeps the node loop over the cosphere rule
    generic = PrincipalSymbol(order=1.0, fn=lambda x, xi: float(xi @ xi) ** 0.5)
    weyl_constant_dirichlet(generic, DomainSpec.unit_square(), level=-3)
    assert calls == [(2, -4), (2, -3)]


def test_cached_gauss_legendre_nodes_build_the_same_rules(monkeypatch):
    # the nodes are built once per size and shared, so they are read-only; every rule built from
    # them equals the rule built from a fresh leggauss call, bit for bit
    t, w = quadrature._leggauss(16)
    for arr in (t, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    domains = [DomainSpec.ball(), DomainSpec.disk(), DomainSpec.unit_box(),
               DomainSpec("rectangle", lengths=(1.3, 0.7), sigma_plus=("y-",))]
    levels = range(-2, 2)

    def rules():
        out = [(r.nodes, r.weights) for n in (1, 2, 3) for r in (sphere_rule(n, lev) for lev in levels)]
        for dom in domains:
            for lev in levels:
                out += [dom.volume_rule(lev), dom.boundary_rule("sigma_plus", lev)]
        return out

    cached = rules()
    monkeypatch.setattr(quadrature, "_leggauss", np.polynomial.legendre.leggauss)
    for got, want in zip(cached, rules(), strict=True):
        assert all(np.array_equal(g, v) for g, v in zip(got, want, strict=True))
