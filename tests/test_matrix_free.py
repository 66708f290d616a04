"""Oracle tests: the matrix-free restricted power against the dense gather.

fractional_restricted gathers r+ P_a e+ into a dense matrix and stays the
reference; fractional_operator applies the same operator by transforms,
and lanczos_extreme takes a few pairs from it.  Random SPD forms in
n = 1, 2, 3, powers a in (0, 1.5] and small grids.
"""

import numpy as np
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspec.asymptotics import boundary_exponent
from fracspec.discretize import TorusMultiplier, build_grid, fractional_operator, fractional_restricted
from fracspec.eig import lanczos_extreme
from fracspec.quadrature import DomainSpec
from fracspec.symbols import SecondOrderCoeffs

# (domain, nodes per axis) ranges with more than 64 interior nodes, so k <= 4
# pairs take the Lanczos route, and at least 20 samples in the default band
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
    got = fractional_operator(mult, a, grid=grid) @ X
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


@settings(max_examples=20, deadline=None)
@given(problems(), st.integers(1, 4))
def test_few_pairs_match_dense_eigenvalues(problem, k):
    mult, a, grid, _ = problem
    dense = sla.eigvalsh(fractional_restricted(mult, a, grid=grid).toarray())
    spec = lanczos_extreme(fractional_operator(mult, a, grid=grid), k=k)
    # both solvers carry an absolute error of order eps ||A||, which dominates for large a
    assert np.allclose(spec.values, dense[:k], rtol=1e-10, atol=1e-13 * dense[-1])


@settings(max_examples=20, deadline=None)
@given(problems())
def test_ground_state_boundary_exponent_matches_dense(problem):
    mult, a, grid, _ = problem
    _, vecs = sla.eigh(fractional_restricted(mult, a, grid=grid).toarray(), subset_by_index=[0, 0])
    ground = lanczos_extreme(fractional_operator(mult, a, grid=grid), k=1, want_vectors=True)
    assert abs(boundary_exponent(ground.vectors[:, 0], grid) - boundary_exponent(vecs[:, 0], grid)) <= 1e-8
