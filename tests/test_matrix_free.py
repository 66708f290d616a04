"""Oracle tests: the matrix-free restricted power against the dense gather.

RestrictedPowerOperator.toarray() gathers r+ P_a e+ into a dense matrix
from the operator's torus kernel and stays the reference; the operator
applies the same power by transforms, lanczos_extreme takes a few pairs
from it (preconditioned LOBPCG for a < 1, ARPACK's Lanczos from a = 1
on), and sym_eig takes its full spectrum from the reflection-parity
blocks, folded by axis swaps where lengths and coefficients allow.
Random SPD forms in n = 1, 2, 3, with cross terms, powers a in (0, 1.5]
and small grids; for the parity blocks, random diagonal forms, powers a
in (0, 2) and boxes with odd and even node counts per axis, and fixed
cases that take the swap, or miss it by a length or a coefficient.
The dense power by eigendecomposition of the whole torus matrix,
test_discretize's dense_power on torus_matrix, is the gather's own
oracle; no code in the package takes that route.
"""

import ast
import pathlib

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspec import discretize
from fracspec.asymptotics import boundary_exponent
from fracspec.discretize import RestrictedPowerOperator, build_grid
from fracspec.eig import lanczos_extreme, sym_eig
from fracspec.errors import NumericError
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
    return SecondOrderCoeffs(n, a=0.5 * (form + form.T)), a, grid, rng


@settings(max_examples=20, deadline=None)
@given(problems())
def test_matmat_matches_dense_gather(problem):
    coeffs, a, grid, rng = problem
    op = RestrictedPowerOperator(coeffs, a, grid)
    dense = op.toarray()
    X = rng.standard_normal((dense.shape[0], 3))
    expect = dense @ X
    got = op @ X
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


@settings(max_examples=20, deadline=None)
@given(problems(), st.integers(1, 4))
def test_few_pairs_match_dense_eigenvalues(problem, k):
    coeffs, a, grid, _ = problem
    op = RestrictedPowerOperator(coeffs, a, grid)
    dense = sla.eigvalsh(op.toarray())
    spec = lanczos_extreme(op, k=k)
    assert a >= 1.0 or spec.meta["eig_path"] == "lobpcg"  # from a = 1 on, ARPACK, or the dense route
    # both solvers carry an absolute error of order eps ||A||, which dominates for large a
    assert np.allclose(spec.values, dense[:k], rtol=1e-10, atol=1e-13 * dense[-1])


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("form", [np.eye(2), np.array([[2.0, 0.3], [0.3, 1.0]])], ids=["identity", "cross"])
def test_few_pairs_degenerate_and_cross_forms(form, k):
    # the identity form's pairs 2 and 3 form one eigenspace: k = 2 splits it, k = 3 takes it whole
    grid = build_grid(DomainSpec.unit_square(), 16)
    op = RestrictedPowerOperator(SecondOrderCoeffs(2, a=form), 0.5, grid)
    dense = sla.eigvalsh(op.toarray())
    spec = lanczos_extreme(op, k=k)
    assert spec.meta["eig_path"] == "lobpcg"
    assert np.allclose(spec.values, dense[:k], rtol=1e-10, atol=1e-13 * dense[-1])


@settings(max_examples=20, deadline=None)
@given(problems())
def test_ground_state_boundary_exponent_matches_dense(problem):
    coeffs, a, grid, _ = problem
    op = RestrictedPowerOperator(coeffs, a, grid)
    _, vecs = sla.eigh(op.toarray(), subset_by_index=[0, 0])
    ground = lanczos_extreme(op, k=1, want_vectors=True)
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
    return SecondOrderCoeffs(n, a=form), a, build_grid(domain, nodes)


@settings(max_examples=30, deadline=None)
@given(diagonal_problems())
def test_parity_spectrum_matches_dense_eigenvalues(problem):
    coeffs, a, grid = problem
    op = RestrictedPowerOperator(coeffs, a, grid)
    dense = sla.eigvalsh(op.toarray())
    spec = sym_eig(op)
    assert spec.meta["eig_path"] == "parity" and spec.meta["parity_defect"] <= 1e-12
    split = op.parity_split()  # exactly symmetric blocks need no symmetrized copy
    assert all(np.array_equal(B, B.T) for B in map(split.block, split.parities))
    assert spec.meta["blocks"] == 2**grid.n and spec.meta["max_block"] < dense.size
    assert np.allclose(spec.values, dense, rtol=1e-10, atol=1e-13 * dense[-1])


def _diag_operator(domain, nodes, *diagonal):
    form = SecondOrderCoeffs(len(diagonal), a=np.diag(diagonal))
    return RestrictedPowerOperator(form, 0.5, build_grid(domain, nodes))


@pytest.mark.parametrize("domain, nodes, diagonal, classes, solves", [
    (DomainSpec.unit_square(), 16, (1.0, 1.0), ((0, 1),), 5),  # 00 and 11 halved, 01 for 10
    (DomainSpec.unit_box(), 8, (1.0, 1.0, 1.0), ((0, 1, 2),), 8),  # 000, 001, 011, 111, each halved
    (DomainSpec.unit_square(), 16, (1.0, 4.0), (), 4),  # equal lengths, no swap symmetry
    (DomainSpec("rectangle", lengths=(1.0, 0.75)), 16, (1.0, 1.0), (), 4),  # unequal lengths
    (DomainSpec.unit_box(), 8, (1.0, 1.0, 4.0), ((0, 1),), 10),  # 001 stays apart from 010 and 100
    (DomainSpec.unit_square(), 16, (1.0, 1.0 + 1e-9), (), 4),  # swap defect about 1e-9: plain parity blocks
    # interior 7 x 2 x 2: the halves along axes 1 and 2 have length 1, so of the 6 keys the 4 with
    # p_1 = p_2 have an empty antisymmetric half, left out
    (DomainSpec("box", lengths=(1.0, 0.375, 0.375)), 8, (1.0, 1.0, 1.0), ((1, 2),), 6),
    (DomainSpec("box", lengths=(1.0, 0.25, 0.25)), 8, (1.0, 1.0, 1.0), ((1, 2),), 2),  # interior 7 x 1 x 1
], ids=["square", "box", "square-diag-1-4", "rectangle", "box-diag-1-1-4", "square-near-swap", "box-7-2-2",
        "box-7-1-1"])
def test_swap_folded_spectrum_matches_dense_eigenvalues(domain, nodes, diagonal, classes, solves):
    op = _diag_operator(domain, nodes, *diagonal)
    dense = sla.eigvalsh(op.toarray())
    spec = sym_eig(op)
    split = op.parity_split()
    assert split.classes == classes and spec.meta["solves"] == len(split.solves) == solves
    assert spec.meta["blocks"] == len(split.parities) and spec.meta["max_block"] == max(split.sizes)
    if len(set(split.lengths)) < split.lengths.size:  # some pair of axes has equal lengths
        assert (spec.meta["swap_defect"] <= discretize.PARITY_DEFECT) == bool(classes)
    else:
        assert "swap_defect" not in spec.meta
    solved = 0
    for p, pair, sign, copies, order in split.solves:
        B = split.block(p, pair, sign)
        assert B.size and B.shape[0] == order and np.array_equal(B, B.T)
        solved += copies * B.shape[0]
    assert solved == dense.size
    assert np.allclose(spec.values, dense, rtol=1e-10, atol=1e-13 * dense[-1])


def test_swap_halves_gathered_without_the_block(monkeypatch):
    # each half is gathered directly: no gathered array outgrows the largest matrix solved, and the
    # kernel reads (entries times column sets) stay within the parity route's, 2^n per block entry
    from fracspec import _kernels, eig

    gathers, solved, real_gather, real_eigh = [], [], _kernels.toeplitz_gather, eig._eigh

    def gather(kern, idx, shape, cols=None, signs=None):
        out = real_gather(kern, idx, shape, cols, signs)
        gathers.append((out.size, out.size * (1 if signs is None else sum(map(len, cols)))))
        return out

    monkeypatch.setattr(_kernels, "toeplitz_gather", gather)
    monkeypatch.setattr(eig, "_eigh", lambda M, *args, **kw: solved.append(M.shape[0]) or real_eigh(M, *args, **kw))
    op = _diag_operator(DomainSpec.unit_square(), 64, 1.0, 1.0)
    spec = sym_eig(op)
    sizes = op.parity_split().sizes
    assert spec.meta["solves"] == len(solved) == len(gathers) == 5
    assert max(size for size, _ in gathers) <= max(solved) ** 2 < max(sizes) ** 2
    assert sum(reads for _, reads in gathers) <= sum(4 * s * s for s in sizes)


def test_dense_cap_applies_to_the_matrices_solved(monkeypatch):
    # box 16: parity blocks of order up to 512, but the swap fold solves halves of order at most 288 and never
    # forms the blocks, so a cap of 300 leaves the values as they are; at 250 nothing is gathered
    from fracspec import eig

    op = _diag_operator(DomainSpec.unit_box(), 16, 1.0, 1.0, 1.0)
    split = op.parity_split()
    assert max(split.sizes) == 512 and max(order for *_, order in split.solves) == 288
    full = sym_eig(op)
    monkeypatch.setattr(eig, "DENSE_CAP", 300)
    capped = sym_eig(op)
    assert np.array_equal(capped.values, full.values) and capped.meta == full.meta
    assert lanczos_extreme(op, k=40).meta == full.meta  # the parity blocks, not ARPACK
    blocks, real_block = [], discretize.ParitySplit.block
    monkeypatch.setattr(discretize.ParitySplit, "block", lambda *a, **kw: blocks.append(1) or real_block(*a, **kw))
    monkeypatch.setattr(eig, "DENSE_CAP", 250)
    with pytest.raises(NumericError, match="capped at 250, got 288"):
        sym_eig(op)
    assert lanczos_extreme(op, k=40).meta["eig_path"] == "lanczos" and blocks == []


def test_off_diagonal_form_takes_the_dense_gather():
    # a cross term breaks the evenness along each axis: no split, and the
    # values are those of the gathered matrix, bit for bit
    grid = build_grid(DomainSpec.unit_square(), 16)
    op = RestrictedPowerOperator(SecondOrderCoeffs(2, a=np.array([[2.0, 0.3], [0.3, 1.0]])), 0.5, grid)
    assert op.parity_split() is None
    spec = sym_eig(op)
    assert spec.meta == {"eig_path": "dense"}
    assert np.array_equal(spec.values, sla.eigvalsh(op.toarray()))


def test_disk_interior_takes_the_dense_gather():
    grid = build_grid(DomainSpec.disk(radius=0.5), 16)
    op = RestrictedPowerOperator(SecondOrderCoeffs.laplacian(2), 0.5, grid)
    assert op.parity_split() is None and sym_eig(op).meta["eig_path"] == "dense"


@pytest.mark.parametrize("domain", [DomainSpec.unit_square, DomainSpec.disk], ids=["square", "disk"])
def test_multiplier_evaluated_once_per_operator(monkeypatch, domain):
    # products, the parity blocks and the dense gather all read the constructor's one evaluation
    calls, real = [], discretize._multiplier_values
    monkeypatch.setattr(discretize, "_multiplier_values", lambda *args: calls.append(args) or real(*args))
    op = RestrictedPowerOperator(SecondOrderCoeffs.laplacian(2), 0.5, build_grid(domain(), 24))
    sym_eig(op)
    op.toarray()
    lanczos_extreme(op, k=1)
    assert len(calls) == 1


def test_torus_kernel_has_one_owner():
    # the multiplier is evaluated, and a torus kernel built from it, only by the restricted operator
    owners = {"RestrictedPowerOperator"}
    callers = []
    for path in sorted(pathlib.Path(discretize.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if getattr(top, "name", None) in owners:
                continue
            callers += [f"{path.name}:{node.lineno}" for node in ast.walk(top) if isinstance(node, ast.Call)
                        and getattr(node.func, "id", getattr(node.func, "attr", None))
                        in ("_even_kernel", "_multiplier_values")]
    assert callers == []


def test_discretize_imports_nothing_from_eig():
    # grids and operators sit below the eigensolvers: eig takes discretize's operators as input, and discretize
    # calls no eigensolver
    imported = []  # dotted names: import a.b, and from a import b as a and a.b
    for node in ast.walk(ast.parse(pathlib.Path(discretize.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert imported and [name for name in imported if "eig" in name.split(".")] == []
