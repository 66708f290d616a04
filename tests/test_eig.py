import pathlib
import re

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fracspec import eig
from fracspec.discretize import (
    OperatorMatrix,
    RestrictedPowerOperator,
    assemble_second_order,
    build_grid,
)
from fracspec.eig import (
    DENSE_CAP,
    Spectrum,
    lanczos_extreme,
    sym_eig,
)
from fracspec.errors import InvariantError, NotPositiveError, NumericError
from fracspec.quadrature import DomainSpec
from fracspec.symbols import SecondOrderCoeffs


def dirichlet_tridiag(N, h):
    A = (np.diag(np.full(N, 2.0)) + np.diag(np.full(N - 1, -1.0), 1) + np.diag(np.full(N - 1, -1.0), -1))
    return A / h**2


def test_sym_eig_diag():
    assert np.allclose(sym_eig(np.diag([3.0, 1.0, 2.0])).values, [1.0, 2.0, 3.0])


def test_sym_eig_offdiag():
    assert np.allclose(sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]])).values, [-1.0, 1.0])


def test_sym_eig_dirichlet_sine_spectrum():
    # closed-form discrete sine eigenvalues (2 - 2 cos(k pi / (N+1))) / h^2
    N, h = 4, 1.0 / 5.0
    w = sym_eig(dirichlet_tridiag(N, h)).values
    k = np.arange(1, N + 1)
    expected = np.sort((2.0 - 2.0 * np.cos(k * np.pi / 5.0)) / h**2)
    assert np.allclose(w, expected, rtol=1e-12)


def test_sym_eig_rejects_nonsymmetric():
    with pytest.raises(InvariantError, match="symmetric"):
        sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_sym_eig_symmetrizes_roundoff_input():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((6, 6))
    A = g + g.T
    w_clean = sym_eig(A).values
    w_perturbed = sym_eig(A + 1e-12 * rng.standard_normal((6, 6))).values
    assert np.allclose(w_clean, w_perturbed, atol=1e-11)


@pytest.mark.parametrize("m", [1, 7, 300, 1100])
def test_asymmetry_matches_the_full_difference(m):
    # rows go in blocks of 2^16 entries: 300 and 1100 leave a ragged last block
    from fracspec._kernels import asymmetry

    M = np.random.default_rng(m).standard_normal((m, m))
    assert asymmetry(M) == (np.abs(M - M.T).max(), np.abs(M).max())
    S = M + M.T
    assert asymmetry(S) == (0.0, np.abs(S).max())


@pytest.mark.parametrize("where", [(0, 1), (0, 1099), (1099, 0)], ids=["2x2", "first-block", "last-block"])
def test_nan_entry_is_not_symmetric(where):
    # a NaN anywhere, in any of the row blocks, makes both guards refuse the matrix
    from fracspec._kernels import asymmetry

    M = np.array([[2.0, 0.0], [0.0, 2.0]]) if where == (0, 1) else 2.0 * np.eye(1100)
    M[where] = np.nan
    assert all(np.isnan(asymmetry(M)))
    with pytest.raises(InvariantError, match="symmetric"):
        sym_eig(M)
    with pytest.raises(InvariantError, match="symmetric"):
        OperatorMatrix(M)


def test_check_symmetric_returns_exactly_symmetric_input_itself():
    M = np.random.default_rng(3).standard_normal((50, 50))
    S = M + M.T
    assert eig._as_dense(S) is S
    near = S + 1e-12 * np.triu(np.ones_like(S), 1)
    assert np.array_equal(eig._as_dense(near), 0.5 * (near + near.T))


def test_sym_eig_dense_cap():
    big = np.zeros((DENSE_CAP + 1, DENSE_CAP + 1))
    with pytest.raises(NumericError, match="capped"):
        sym_eig(big)


@pytest.mark.parametrize("seed", range(5))
def test_sym_eig_pencil_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    g, c = rng.standard_normal((2, n, n))
    A, B = g + g.T, c @ c.T + n * np.eye(n)
    spec = sym_eig(A, B)
    assert np.all(np.diff(spec.values) >= 0.0)
    # exactly symmetric inputs reach LAPACK unchanged
    assert np.array_equal(spec.values, sla.eigh(A, B, eigvals_only=True))


def test_sym_eig_pencil_indefinite_b():
    with pytest.raises(NotPositiveError):
        sym_eig(np.eye(3), np.diag([1.0, -1.0, 2.0]))


def test_sym_eig_pencil_capped_before_solve(monkeypatch):
    calls = []
    monkeypatch.setattr(eig, "DENSE_CAP", 8)
    monkeypatch.setattr(eig.scipy.linalg, "eigh", lambda *a, **k: calls.append(a))
    for A, B in ((np.eye(9), np.eye(9)), (np.eye(4), np.eye(9))):
        with pytest.raises(NumericError, match="capped at 8, got 9"):
            sym_eig(A, B)
    assert calls == []


def test_pencil_symmetry_checked():
    with pytest.raises(InvariantError):
        sym_eig(np.eye(2), np.array([[2.0, 1.0], [0.0, 2.0]]))


def test_eig_is_the_only_eigensolver_caller():
    # every dense or iterative eigensolve of the package goes through eig.py
    src = pathlib.Path(eig.__file__).parent
    callers = [p.name for p in sorted(src.glob("*.py"))
               if p.name != "eig.py" and re.search(r"\b(eigh|eigvalsh|eigsh|lobpcg)\(", p.read_text())]
    assert callers == []
    # and within eig.py every dense solve is the one LAPACK call site of _eigh
    text = (src / "eig.py").read_text()
    assert len(re.findall(r"scipy\.linalg\.eigh\(", text)) == 1 and "eigvalsh" not in text


def test_eigvector_residuals_and_orthogonality():
    rng = np.random.default_rng(1)
    g = rng.standard_normal((40, 40))
    A = g + g.T
    spec = lanczos_extreme(A, k=40, want_vectors=True)
    assert spec.residuals(A).max() <= 1e-8
    V = spec.vectors
    assert np.abs(V.T @ V - np.eye(40)).max() <= 1e-8


def test_trace_consistency():
    rng = np.random.default_rng(2)
    g = rng.standard_normal((80, 80))
    A = g + g.T
    w = sym_eig(A).values
    assert w.sum() == pytest.approx(np.trace(A), rel=1e-8)


def test_spectrum_ordering_enforced():
    with pytest.raises(InvariantError, match="ascending"):
        Spectrum(np.array([2.0, 1.0]))


def test_lanczos_matches_dense_tail():
    rng = np.random.default_rng(6)
    n = 300
    diags = rng.random(n) + 1.0
    A = sp.diags(diags) + sp.diags(np.full(n - 1, 0.1), 1) + sp.diags(np.full(n - 1, 0.1), -1)
    small = lanczos_extreme(A, k=4).values
    dense = sym_eig(A.toarray()).values[:4]
    assert np.allclose(small, dense, rtol=1e-8)


def test_min_eigenvalue_estimate():
    # the estimate behind krein_term's auto shift
    assert lanczos_extreme(np.diag([0.5, 2.0, 3.0]), k=1).values[0] == pytest.approx(0.5, rel=1e-10)


def test_residuals_relative_to_each_eigenvalue():
    # the same absolute defect weighs 1e6 times more on the pair at 1e-3
    # than on the pair at 1e3; a LinearOperator gives the same numbers
    A = np.diag([1e-3, 1.0, 1e3])
    spec = Spectrum(np.array([1e-3 + 1e-9, 1.0, 1e3 + 1e-9]), np.eye(3))
    res = spec.residuals(A)
    assert res[0] == pytest.approx(1e-6, rel=1e-5)
    assert res[2] == pytest.approx(1e-12, rel=1e-3)
    assert np.array_equal(spec.residuals(spla.aslinearoperator(A)), res)


def test_lanczos_vectors_and_route():
    rng = np.random.default_rng(7)
    n = 200
    A = sp.diags(rng.random(n) + 1.0) + sp.diags(np.full(n - 1, 0.2), 1) + sp.diags(np.full(n - 1, 0.2), -1)
    spec = lanczos_extreme(spla.aslinearoperator(A), k=3, want_vectors=True)
    assert spec.meta["eig_path"] == "lanczos"
    assert spec.meta["max_residual"] <= 1e-12
    assert np.allclose(spec.values, sym_eig(A).values[:3], rtol=1e-12)
    small = lanczos_extreme(A, k=60)  # k >= n/4: the dense route
    assert small.meta["eig_path"] == "dense" and small.vectors is None
    assert np.allclose(small.values, sym_eig(A).values[:60], rtol=1e-12)


def test_lanczos_repeat_calls_bit_identical():
    # a fixed start vector: two calls in one process agree to the last bit
    g = build_grid(DomainSpec.unit_square(), 48)
    A = assemble_second_order(SecondOrderCoeffs.laplacian(2), g, bc="mixed", sigma=0.0)
    first = lanczos_extreme(A, k=1, want_vectors=True)
    second = lanczos_extreme(A, k=1, want_vectors=True)
    assert first.meta["eig_path"] == "lanczos"
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.vectors, second.vectors)


def test_lanczos_residual_gate(monkeypatch):
    # a product that is not symmetric gives Ritz pairs that miss the check:
    # within the cap the dense route takes over (and rejects the matrix),
    # past it lanczos_extreme raises
    n = 100
    A = sp.diags(np.arange(1.0, n + 1.0)) + sp.diags(np.full(n - 1, 0.5), 1)
    with pytest.raises(InvariantError, match="not symmetric"):
        lanczos_extreme(A, k=2)
    monkeypatch.setattr(eig, "DENSE_CAP", 64)
    with pytest.raises(NumericError, match="residual"):
        lanczos_extreme(A, k=2)


@pytest.mark.parametrize("n", [500, DENSE_CAP + 500])
def test_lanczos_accepts_rounding_floor(n):
    # ||A|| / lambda_1 = 1e9: rounding alone leaves a residual near
    # eps * 1e9 = 2e-7 > MAX_RESIDUAL, which the check accepts as a
    # backward error of at most BACKWARD_ERROR * eps * ||A||, within the
    # dense cap and past it
    d = np.concatenate([[1.0], np.linspace(1e8, 1e9, n - 1)])
    spec = lanczos_extreme(sp.diags(d).tocsr(), k=1)
    assert spec.meta["eig_path"] == "lanczos"
    assert eig.MAX_RESIDUAL < spec.meta["max_residual"] <= eig.BACKWARD_ERROR * np.finfo(float).eps * 1e9
    assert spec.values[0] == pytest.approx(1.0, abs=eig.BACKWARD_ERROR * np.finfo(float).eps * 1e9)


def _unconverged(monkeypatch, want_vectors):
    # (-Laplacian)^1.5 on 511 interval nodes: ||A|| / lambda_1 ~ 3e7, and
    # Lanczos needs far more than its n operator products, so ARPACK stops
    # unconverged and the dense route answers
    g = build_grid(DomainSpec.unit_interval(), 512)
    raised, real = [], spla.eigsh

    def eigsh(*args, **kwargs):
        try:
            return real(*args, **kwargs)
        except spla.ArpackNoConvergence:
            raised.append(kwargs["maxiter"])
            raise

    monkeypatch.setattr(eig.spla, "eigsh", eigsh)
    op = RestrictedPowerOperator(SecondOrderCoeffs.laplacian(1), 1.5, g)
    spec = lanczos_extreme(op, k=1, want_vectors=want_vectors)
    assert raised
    # both dense solves are backward stable: they agree to eps ||A||, not to eps lambda_1
    dense = sym_eig(op.toarray()).values[0]
    assert spec.values[0] == pytest.approx(dense, abs=eig.BACKWARD_ERROR * np.finfo(float).eps * op.norm_bound)
    return spec


def test_lanczos_no_convergence_falls_back(monkeypatch):
    # with vectors, from the whole matrix
    assert _unconverged(monkeypatch, want_vectors=True).meta["eig_path"] == "dense"


def test_lanczos_no_convergence_values_from_parity_blocks(monkeypatch):
    # values only, through sym_eig: from the interval's two parity blocks
    spec = _unconverged(monkeypatch, want_vectors=False)
    assert spec.meta["eig_path"] == "parity" and spec.meta["blocks"] == 2


def _power_operator(domain, nodes, a=0.5, form=None):
    g = build_grid(domain, nodes)
    coeffs = SecondOrderCoeffs.laplacian(g.n) if form is None else SecondOrderCoeffs(g.n, a=form)
    return RestrictedPowerOperator(coeffs, a, g)


@pytest.mark.parametrize("shape, axes", [((1,), (0,)), ((9,), (0,)), ((6, 5), (0, 1)), ((5, 4, 3), (0, 1)),
                                         ((4, 3, 6, 2), (0, 1, 2))])
def test_dst1_matches_scipy_fft(shape, axes):
    import scipy.fft

    from fracspec._kernels import dst1

    X = np.random.default_rng(len(shape)).standard_normal(shape)
    expect = scipy.fft.dstn(X, type=1, norm="ortho", axes=axes)
    assert np.allclose(dst1(X, axes), expect, rtol=0.0, atol=1e-14 * np.abs(X).sum())
    assert np.allclose(dst1(dst1(X, axes), axes), X, rtol=0.0, atol=1e-13)  # its own inverse


def test_preconditioner_inverts_the_spectral_power_on_sine_modes():
    # the sine mode (j1, j2) of a rectangle block is an eigenvector of S diag(lambda^-a) S, with
    # lambda = sum_k a_kk (pi j_k / ((L_k + 1) h))^2 from the form's diagonal only
    form = np.array([[2.0, 0.3], [0.3, 0.5]])
    op = _power_operator(DomainSpec("rectangle", lengths=(1.0, 0.75)), 16, a=0.4, form=form)
    L, h = op.block[1], op.grid.h
    assert tuple(L) == (15, 11)
    j = (2, 3)
    u = np.multiply.outer(*(np.sin(np.pi * jk * np.arange(1, Lk + 1) / (Lk + 1)) for jk, Lk in zip(j, L))).ravel()
    lam = sum(d * (np.pi * jk / ((Lk + 1) * h)) ** 2 for d, jk, Lk in zip((2.0, 0.5), j, L))
    assert np.allclose(op.preconditioner() @ u, lam**-0.4 * u, rtol=0.0, atol=1e-12 * lam**-0.4)


@pytest.mark.parametrize("domain, a, path", [
    (DomainSpec.disk(radius=0.5), 0.5, "lanczos"),  # no tensor block
    (DomainSpec.unit_square(), 1.0, "lanczos"),
    (DomainSpec.unit_square(), 1.5, "dense"),  # ||A|| / lambda_1 ~ 1e5: ARPACK stops short, the dense route answers
], ids=["disk", "a=1", "a=1.5"])
def test_preconditioner_only_for_tensor_blocks_and_a_below_1(domain, a, path):
    # with vectors: a values-only request on the square would take the parity blocks
    op = _power_operator(domain, 24, a=a)
    assert op.preconditioner() is None
    spec = lanczos_extreme(op, k=1, want_vectors=True)
    assert spec.meta["eig_path"] == path and "iterations" not in spec.meta


def test_lobpcg_route_up_to_max_k():
    # past LOBPCG_MAX_K, ARPACK with vectors, the parity blocks for values only
    op = _power_operator(DomainSpec.unit_square(), 32)
    dense = sym_eig(op).values
    for k, vectors, path in ((1, False, "lobpcg"), (eig.LOBPCG_MAX_K, False, "lobpcg"),
                             (eig.LOBPCG_MAX_K + 1, True, "lanczos"), (eig.LOBPCG_MAX_K + 1, False, "parity")):
        spec = lanczos_extreme(op, k=k, want_vectors=vectors)
        assert spec.meta["eig_path"] == path
        assert path == "parity" or spec.meta["max_residual"] <= eig.MAX_RESIDUAL
        assert np.allclose(spec.values, dense[:k], rtol=1e-10)
    assert lanczos_extreme(op, k=1).meta["iterations"] > 0


@pytest.mark.parametrize("fault", ["miss", "error"])
def test_lobpcg_miss_falls_back_to_arpack(monkeypatch, fault):
    # pairs that fail the residual rule, or an error inside LOBPCG, hand the request to ARPACK
    def lobpcg(A, X, **kwargs):
        if fault == "error":
            raise ValueError("eigh has failed in lobpcg postprocessing")
        return np.ones(X.shape[1]), np.linalg.qr(X)[0], [None] * 3  # random unit vectors: far from eigenvectors

    monkeypatch.setattr(eig.spla, "lobpcg", lobpcg)
    op = _power_operator(DomainSpec.unit_square(), 32)
    spec = lanczos_extreme(op, k=2, want_vectors=True)
    assert spec.meta["eig_path"] == "lanczos" and spec.meta["max_residual"] <= eig.MAX_RESIDUAL
    assert np.allclose(spec.values, sym_eig(op).values[:2], rtol=1e-10)


def test_lobpcg_repeat_calls_bit_identical():
    # a fixed start block: two calls in one process agree to the last bit
    op = _power_operator(DomainSpec.unit_square(), 32)
    first, second = (lanczos_extreme(op, k=3, want_vectors=True) for _ in range(2))
    assert first.meta["eig_path"] == "lobpcg" and first.meta == second.meta
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.vectors, second.vectors)


@pytest.mark.parametrize("k", [7, 12, 40])
@pytest.mark.parametrize("domain, nodes, diagonal", [
    (DomainSpec.unit_interval(), 200, False),  # 199 nodes
    (DomainSpec.unit_interval(), 201, True),  # 200
    (DomainSpec("rectangle", lengths=(1.0, 0.75)), 20, True),  # 19 x 14
    (DomainSpec.unit_square(), 21, False),  # 20 x 20: swap halves
    (DomainSpec.unit_box(), 10, False),  # 9^3: swap halves
    (DomainSpec.unit_box(), 11, True),  # 10^3
], ids=["interval-odd", "interval-even-diag", "rectangle-diag", "square-even", "box-odd", "box-even-diag"])
def test_parity_route_matches_dense_and_arpack(domain, nodes, diagonal, k):
    # values only, on a split whose dense work the cost rule finds cheaper: sym_eig's values and meta
    form = np.diag(np.random.default_rng(nodes).uniform(0.5, 2.0, domain.n)) if diagonal else None
    op = _power_operator(domain, nodes, form=form)
    spec = lanczos_extreme(op, k=k)
    assert spec.meta["eig_path"] == "parity" and spec.vectors is None and spec.meta == sym_eig(op).meta
    assert np.allclose(spec.values, sym_eig(op.toarray()).values[:k], rtol=1e-12, atol=0.0)
    arpack = spla.eigsh(op, k=k, which="SA", tol=0.0, return_eigenvectors=False,
                       v0=np.random.default_rng(0).uniform(-1.0, 1.0, op.shape[0]))
    assert np.allclose(spec.values, np.sort(arpack), rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("domain, form", [
    (DomainSpec.disk(radius=0.5), None),  # no tensor block
    (DomainSpec.unit_square(), np.array([[2.0, 0.3], [0.3, 1.0]])),  # a kernel not even along each axis
], ids=["disk", "cross"])
def test_no_parity_split_keeps_arpack(domain, form):
    op = _power_operator(domain, 24, form=form)
    assert op.parity_split() is None
    spec = lanczos_extreme(op, k=12)
    assert spec.meta["eig_path"] == "lanczos"
    assert np.allclose(spec.values, sym_eig(op).values[:12], rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("diagonal, k, path", [
    ((1.0, 1.0), 40, "parity"),  # sum s^3 = 773 k m log2 m
    ((1.0, 4.0), 7, "lanczos"),  # 11783 k m log2 m: no swap, four whole blocks
], ids=["parity-side", "arpack-side"])
def test_parity_cost_rule_sides(monkeypatch, diagonal, k, path):
    from fracspec import discretize

    eigsh_calls, blocks = [], []
    real_eigsh, real_block = spla.eigsh, discretize.ParitySplit.block
    monkeypatch.setattr(eig.spla, "eigsh", lambda *a, **kw: eigsh_calls.append(1) or real_eigsh(*a, **kw))
    monkeypatch.setattr(discretize.ParitySplit, "block", lambda *a, **kw: blocks.append(1) or real_block(*a, **kw))
    op = _power_operator(DomainSpec.unit_square(), 64, form=np.diag(diagonal))
    spec = lanczos_extreme(op, k=k)
    assert spec.meta["eig_path"] == path and spec.values.size == k
    if path == "parity":
        assert blocks and not eigsh_calls
    else:
        assert eigsh_calls and not blocks


def test_parity_route_past_block_cap_falls_through_to_arpack(monkeypatch):
    from fracspec import _kernels

    op = _power_operator(DomainSpec.unit_square(), 32)
    dense = sym_eig(op).values[:12]
    gathers = []
    monkeypatch.setattr(_kernels, "toeplitz_gather", lambda *a, **kw: gathers.append(a))
    monkeypatch.setattr(eig, "DENSE_CAP", 200)  # blocks of 16^2 = 256 and less
    spec = lanczos_extreme(op, k=12)
    assert spec.meta["eig_path"] == "lanczos" and not gathers
    assert np.allclose(spec.values, dense, rtol=1e-10, atol=0.0)


def test_arpack_restart_floor_on_short_intervals():
    # interval 512 at k = 12: ARPACK needs 45 restarts, more than n // (ncv - k) + 1 = 40 of 511 nodes; the
    # floor ARPACK_MIN_RESTARTS lets it finish, so the pairs do not fall to the dense route
    op = _power_operator(DomainSpec.unit_interval(), 512)
    assert op.shape[0] // (25 - 12) + 1 < eig.ARPACK_MIN_RESTARTS
    spec = lanczos_extreme(op, k=12, want_vectors=True)
    assert spec.meta["eig_path"] == "lanczos" and spec.meta["max_residual"] <= eig.MAX_RESIDUAL
    assert np.allclose(spec.values, sym_eig(op).values[:12], rtol=1e-10, atol=0.0)
