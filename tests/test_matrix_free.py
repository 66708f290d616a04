"""Oracle tests: the matrix-free restricted power against the dense gather.

fractional_restricted gathers r+ P_a e+ into a dense matrix and stays the
reference; RestrictedPowerOperator applies the same operator by transforms,
lanczos_extreme takes a few pairs from it (preconditioned LOBPCG for a < 1,
ARPACK's Lanczos from a = 1 on), and sym_eig takes its full spectrum from
the reflection-parity blocks.  Random SPD forms in n = 1, 2, 3, with cross
terms, powers a in (0, 1.5] and small grids; for the parity blocks, random
diagonal forms, powers a in (0, 2) and boxes with odd and even node counts
per axis.
"""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspec.asymptotics import boundary_exponent
from fracspec.discretize import RestrictedPowerOperator, TorusMultiplier, build_grid, fractional_restricted
from fracspec.eig import lanczos_extreme, sym_eig
from fracspec.quadrature import DomainSpec
from fracspec.symbols import SecondOrderCoeffs

# (domain, nodes per axis) ranges with more than 64 interior nodes, so k <= 4
# pairs take an iterative route, and at least 20 samples in the default band
DOMAINS = {
    1: (DomainSpec.unit_interval, 72, 128),
    2: (DomainSpec.unit_square, 10, 16),
    3: (DomainSpec.unit_box, 8, 10),
}


@st.composite
def problems(draw):
    """A random SPD form (eigenvalues in [0.5, 4]), a power and a grid."""
    n = draw(st.sampled_from(sorted(DOMAINS)))
    make, lo, hi = DOMAINS[n]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    form = (q * rng.uniform(0.5, 4.0, n)) @ q.T
    a = draw(st.floats(0.05, 1.5))
    grid = build_grid(make(), draw(st.integers(lo, hi)))
    return TorusMultiplier.from_coeffs(SecondOrderCoeffs(n, a=0.5 * (form + form.T))), a, grid, rng


@settings(max_examples=20, deadline=None)
@given(problems())
def test_matmat_matches_dense_gather(problem):
    mult, a, grid, rng = problem
    dense = fractional_restricted(mult, a, grid=grid).toarray()
    X = rng.standard_normal((dense.shape[0], 3))
    expect = dense @ X
    got = RestrictedPowerOperator(mult, a, grid) @ X
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


@settings(max_examples=20, deadline=None)
@given(problems(), st.integers(1, 4))
def test_few_pairs_match_dense_eigenvalues(problem, k):
    mult, a, grid, _ = problem
    dense = sla.eigvalsh(fractional_restricted(mult, a, grid=grid).toarray())
    spec = lanczos_extreme(RestrictedPowerOperator(mult, a, grid), k=k)
    assert a >= 1.0 or spec.meta["eig_path"] == "lobpcg"  # from a = 1 on, ARPACK, or the dense route
    # both solvers carry an absolute error of order eps ||A||, which dominates for large a
    assert np.allclose(spec.values, dense[:k], rtol=1e-10, atol=1e-13 * dense[-1])


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("form", [np.eye(2), np.array([[2.0, 0.3], [0.3, 1.0]])], ids=["identity", "cross"])
def test_few_pairs_degenerate_and_cross_forms(form, k):
    # the identity form's pairs 2 and 3 form one eigenspace: k = 2 splits it, k = 3 takes it whole
    grid = build_grid(DomainSpec.unit_square(), 16)
    mult = TorusMultiplier.from_coeffs(SecondOrderCoeffs(2, a=form))
    dense = sla.eigvalsh(fractional_restricted(mult, 0.5, grid=grid).toarray())
    spec = lanczos_extreme(RestrictedPowerOperator(mult, 0.5, grid), k=k)
    assert spec.meta["eig_path"] == "lobpcg"
    assert np.allclose(spec.values, dense[:k], rtol=1e-10, atol=1e-13 * dense[-1])


@settings(max_examples=20, deadline=None)
@given(problems())
def test_ground_state_boundary_exponent_matches_dense(problem):
    mult, a, grid, _ = problem
    _, vecs = sla.eigh(fractional_restricted(mult, a, grid=grid).toarray(), subset_by_index=[0, 0])
    ground = lanczos_extreme(RestrictedPowerOperator(mult, a, grid), k=1, want_vectors=True)
    assert a >= 1.0 or ground.meta["eig_path"] == "lobpcg"
    assert abs(boundary_exponent(ground.vectors[:, 0], grid) - boundary_exponent(vecs[:, 0], grid)) <= 1e-8


@st.composite
def diagonal_problems(draw):
    """A random diagonal form, a power in (0, 2) and an interval, rectangle or box grid.

    The longest side has `nodes` cells and the others a random fraction of
    it, so the interior lengths L_k are odd or even independently.
    """
    n = draw(st.sampled_from([1, 2, 3]))
    nodes = draw(st.integers(*{1: (8, 60), 2: (8, 20), 3: (8, 11)}[n]))
    cells = [nodes] + [draw(st.integers(3, nodes)) for _ in range(n - 1)]
    kind = {1: "interval", 2: "rectangle", 3: "box"}[n]
    domain = DomainSpec(kind, lengths=tuple(c / nodes for c in cells))
    form = np.diag(draw(st.lists(st.floats(0.25, 4.0), min_size=n, max_size=n)))
    a = draw(st.floats(0.05, 1.95))
    return TorusMultiplier.from_coeffs(SecondOrderCoeffs(n, a=form)), a, build_grid(domain, nodes)


@settings(max_examples=30, deadline=None)
@given(diagonal_problems())
def test_parity_spectrum_matches_dense_eigenvalues(problem):
    mult, a, grid = problem
    dense = sla.eigvalsh(fractional_restricted(mult, a, grid=grid).toarray())
    op = RestrictedPowerOperator(mult, a, grid)
    spec = sym_eig(op)
    assert spec.meta["eig_path"] == "parity" and spec.meta["parity_defect"] <= 1e-12
    split = op.parity_split()  # exactly symmetric blocks need no symmetrized copy
    assert all(np.array_equal(B, B.T) for B in map(split.block, split.parities))
    assert spec.meta["blocks"] == 2**grid.n and spec.meta["max_block"] < dense.size
    assert np.allclose(spec.values, dense, rtol=1e-10, atol=1e-13 * dense[-1])


def test_off_diagonal_form_takes_the_dense_gather():
    # a cross term breaks the evenness along each axis: no split, and the
    # values are those of the gathered matrix, bit for bit
    grid = build_grid(DomainSpec.unit_square(), 16)
    mult = TorusMultiplier.from_coeffs(SecondOrderCoeffs(2, a=np.array([[2.0, 0.3], [0.3, 1.0]])))
    op = RestrictedPowerOperator(mult, 0.5, grid)
    assert op.parity_split() is None
    spec = sym_eig(op)
    assert spec.meta == {"eig_path": "dense"}
    assert np.array_equal(spec.values, sla.eigvalsh(fractional_restricted(mult, 0.5, grid=grid).toarray()))


def test_disk_interior_takes_the_dense_gather():
    grid = build_grid(DomainSpec.disk(radius=0.5), 16)
    op = RestrictedPowerOperator(TorusMultiplier.from_coeffs(SecondOrderCoeffs.laplacian(2)), 0.5, grid)
    assert op.parity_split() is None and sym_eig(op).meta["eig_path"] == "dense"
