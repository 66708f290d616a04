"""Hot numeric kernels: vectorized numpy, with scipy's BLAS for large dense products.

``boundary_quantities`` evaluates the boundary symbol's (ann, b, c) per
sample.  ``toeplitz_gather`` reads a torus kernel at the offsets of two
sets of nodes, or sums such reads with signs, and
``restricted_power_apply`` is the matrix-free product
with a restricted torus multiplier; its work is in the compiled
transforms.  ``dst1`` is the orthonormal sine transform that diagonalizes
the Dirichlet Laplacian on a tensor block.  ``asymmetry`` measures how
far a dense matrix is from symmetric.  ``gemm`` is the dense matrix
product on scipy's BLAS (see below).  Kernels that would build a large
temporary work in blocks of about 2^16 entries (2^22 torus values for
the transforms), which bounds the working set.

Coefficient matrices arrive frame-reduced where stated, so the last
index is the interior-normal direction.  The Weyl-constant quadratures
need no kernel here: their cosphere integrals are in closed form (see
``quadrature``).

numpy and scipy each carry their own OpenBLAS, each with its own thread
pool.  A route that alternates numpy's ``@`` with scipy's LAPACK
(Cholesky, triangular solves, ``eigh``, SuperLU) wakes both pools in
turn, and the idle pool's spinning workers hold cores the other pool's
threaded call waits for.  So the large dense products that feed scipy
LAPACK go through ``gemm``, on scipy's BLAS, and numpy's pool stays
asleep along the assembled Krein route (``zaremba.KreinAssembly``,
``discretize.schur_split``).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dgemm


def boundary_quantities(mats, xips):
    """Per-sample ann, b, c for frame-reduced mats (N, n, n) and xips (N, n-1).

    One row product x' abar[:-1, :] per sample gives b, its last entry,
    and the row (a' x')^T that one more product turns into c.
    """
    row = xips[:, None, :] @ mats[:, :-1, :]
    return mats[:, -1, -1], row[:, 0, -1], (row[:, :, :-1] @ xips[:, :, None])[:, 0, 0]


def toeplitz_gather(kern_flat, idx, shape, cols=None, signs=None):
    """R[i, j] = kern[(idx[i] - cols[j]) mod shape] for a flat row-major torus kernel.

    idx and cols (default idx) are (m, n) torus multi-indices.  With signs,
    cols is a sequence of groups, each a sequence of (m', n) column sets,
    and R is the signed sum over groups g of signs[g] times the sum of
    kern[idx - c] over the sets c of group g: each group is summed first,
    in its order, and the groups are then added in theirs, starting from
    zero.  The kernel is tiled twice along each axis, so the offset
    idx[i] - c[j] + shape indexes the tiling directly, with no wrap; the
    flat offsets are formed, and every term summed, one block of rows at
    a time, of about 2^16 entries.  Every offset is in range by that
    construction, so the reads skip numpy's bounds check (mode "clip",
    which also lets them write into their output unbuffered), and the
    terms after a block's first are read into two reused scratch blocks.
    """
    if signs is None:
        cols, signs = [[idx if cols is None else cols]], [1]
    shape = np.asarray(shape, dtype=np.int64)
    tiled = np.tile(kern_flat.reshape(tuple(shape)), (2,) * shape.size).ravel()
    strides = np.array([np.prod(2 * shape[k + 1 :]) for k in range(shape.size)], dtype=np.int64)  # row-major, tiled
    rows = idx @ strides
    shifted = [[shape @ strides - c @ strides for c in group] for group in cols]
    width = shifted[0][0].size
    out = np.empty((rows.size, width))
    step = max(1, (1 << 16) // max(width, 1))
    group_sum, term = np.empty((2, min(step, rows.size), width))  # the one-set form never touches their pages
    for lo in range(0, rows.size, step):
        at, block = rows[lo : lo + step, None], out[lo : lo + step]
        for g, (sign, group) in enumerate(zip(signs, shifted)):
            acc = np.take(tiled, at + group[0], out=group_sum[: len(at)] if g else block, mode="clip")
            for offsets in group[1:]:
                acc += np.take(tiled, at + offsets, out=term[: len(at)], mode="clip")
            if g:
                (np.subtract if sign < 0 else np.add)(block, acc, out=block)
            elif sign < 0:  # 0 - x is -x exactly: the sum starts from zero
                np.negative(block, out=block)
    return out


def asymmetry(M):
    """(max|M - M^T|, max|M|) of a dense square matrix; both NaN if M holds a NaN.

    Blocks of rows are compared with the matching columns above the
    diagonal, so no temporary is larger than about 2^16 entries.
    """
    m = M.shape[0]
    step = max(1, (1 << 16) // max(m, 1))
    asym = scale = 0.0
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        x = float(np.abs(M[lo:hi, lo:] - M[lo:, lo:hi].T).max())
        y = float(np.abs(M[lo:hi]).max())
        # max(a, b) returns a when b is NaN: a NaN block replaces the fold, and max keeps it after
        asym = max(asym, x) if x == x else x
        scale = max(scale, y) if y == y else y
    return asym, scale


def gemm(a, b):
    """a @ b for real 2-d operands through scipy's BLAS (dgemm); C-ordered, as ``@`` returns it.

    dgemm writes a Fortran-ordered result, so it forms (a b)^T = b^T a^T,
    whose transpose is the C-ordered product.  A C-ordered operand enters
    through its transpose, a Fortran-ordered one with the transpose flag,
    so neither is copied; an operand contiguous in neither order is
    copied to Fortran order by the wrapper.
    """
    (bt, trans_bt), (at, trans_at) = (_fortran_transpose(x) for x in (b, a))
    return dgemm(1.0, bt, at, trans_a=trans_bt, trans_b=trans_at).T


def _fortran_transpose(x):
    """(y, trans) with op(y) = x^T for dgemm: y = x^T when that is Fortran-ordered, else x with the flag."""
    x = np.asarray(x, dtype=float)
    return (x.T, 0) if x.flags.c_contiguous else (x, 1)


def restricted_power_apply(symbol, interior, shape, X):
    """Product of the restricted torus multiplier with X, no matrix formed.

    The columns of X (values on the flat torus indices ``interior``) are
    zero-extended to the torus, transformed by ``rfftn``, multiplied by
    ``symbol`` (the multiplier on the half lattice ``rfftn`` returns),
    transformed back and restricted to ``interior`` again.  X is (m,) or
    (m, k) with m = interior.size; the result has the shape of X.
    Columns go through in blocks of at most 2^22 torus values.
    """
    X = np.asarray(X, dtype=float)
    cols = X.reshape(interior.size, -1)
    out = np.empty_like(cols)
    size = int(np.prod(shape))
    axes = tuple(range(1, len(shape) + 1))
    step = max(1, (1 << 22) // size)
    for lo in range(0, cols.shape[1], step):
        block = cols[:, lo : lo + step]
        torus = np.zeros((block.shape[1], size))
        torus[:, interior] = block.T
        spec = np.fft.rfftn(torus.reshape((-1, *shape)), axes=axes)
        spec *= symbol
        back = np.fft.irfftn(spec, s=shape, axes=axes).reshape(block.shape[1], size)
        out[:, lo : lo + step] = back[:, interior].T
    return out.reshape(X.shape)


def dst1(X, axes):
    """Orthonormal DST-I of X along each of the given axes; the transform is its own inverse.

    Along an axis of length L, entry k (from 0) is sqrt(2/(L+1))
    sum_j X[j] sin(pi (j+1)(k+1)/(L+1)): minus the imaginary part of the
    rfft of the odd extension (0, X, 0, -reversed X), of length 2(L+1),
    scaled by 1/sqrt(2(L+1)).
    """
    X = np.asarray(X, dtype=float)
    for axis in axes:
        Y = np.moveaxis(X, axis, -1)
        L = Y.shape[-1]
        ext = np.zeros((*Y.shape[:-1], 2 * (L + 1)))
        ext[..., 1 : L + 1] = Y
        ext[..., L + 2 :] = -Y[..., ::-1]
        Y = np.fft.rfft(ext)[..., 1 : L + 1].imag * -np.sqrt(0.5 / (L + 1))
        X = np.moveaxis(Y, -1, axis)
    return X
