"""Hot numeric kernels: one vectorized numpy/BLAS build.

Quadrature kernels sum over a (nodes x directions) product.  Each
256-node chunk evaluates its quadratic forms as one GEMM,
``mats.reshape(-1, n*n) @ outer(dirs).T``, whose rows of ``outer(dirs)``
are ``dirs[s] (x) dirs[s]``; chunking bounds the working set.
``toeplitz_gather`` reads a torus kernel at the offsets of two sets of
nodes, and ``restricted_power_apply`` is the matrix-free product with a
restricted torus multiplier; its work is in the compiled transforms.
``asymmetry`` measures how far a dense matrix is from symmetric.

Conventions shared by all kernels:

* coefficient matrices arrive frame-reduced where stated, so the last
  index is the interior-normal direction;
* quadrature kernels accumulate a plain weighted sum in a fixed order,
  which keeps results deterministic across runs;
* a nonpositive reduced discriminant (ellipticity failure) makes the
  quadrature kernels return NaN; wrappers turn that into an error.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 256


def _outer(dirs):
    """Rows dirs[s] (x) dirs[s], flattened: (ns, k*k) for dirs (ns, k)."""
    return (dirs[:, :, None] * dirs[:, None, :]).reshape(dirs.shape[0], -1)


def _quad_forms(mats, outer):
    """dirs[s]^T mats[d] dirs[s] for every (d, s) as one GEMM."""
    return mats.reshape(mats.shape[0], -1) @ outer.T


def quad_form_power_sum(mats, wx, dirs, ws, expo):
    """sum_{d,s} wx[d] ws[s] (dirs[s]^T mats[d] dirs[s])**expo, NaN if a form is <= 0."""
    outer = _outer(dirs)
    total = 0.0
    for lo in range(0, mats.shape[0], _CHUNK):
        q = _quad_forms(mats[lo : lo + _CHUNK], outer)
        if np.any(q <= 0.0):
            return np.nan
        total += wx[lo : lo + _CHUNK] @ (q**expo) @ ws
    return float(total)


def _reduced_ap(chunk, dirs, outer):
    # ann and the reduced discriminant a' = ann c - b^2 per (node, tangential direction)
    n = chunk.shape[1]
    ann = chunk[:, n - 1, n - 1]
    b = chunk[:, : n - 1, n - 1] @ dirs.T
    c = _quad_forms(chunk[:, : n - 1, : n - 1], outer)
    return ann, ann[:, None] * c - b * b


def kappa0_power_sum(mats, wx, dirs, ws, expo):
    """sum wx ws kappa0**expo over frame-reduced mats and tangential dirs (n-1 dims)."""
    outer = _outer(dirs)
    total = 0.0
    for lo in range(0, mats.shape[0], _CHUNK):
        _, ap = _reduced_ap(mats[lo : lo + _CHUNK], dirs, outer)
        if np.any(ap <= 0.0):
            return np.nan
        total += wx[lo : lo + _CHUNK] @ (ap ** (0.5 * expo)) @ ws
    return float(total)


def dtn_weight_sum(mats, wx, dirs, ws, p):
    """sum wx ws (ann / (2 kappa0^2))**p over the same product as ``kappa0_power_sum``."""
    outer = _outer(dirs)
    total = 0.0
    for lo in range(0, mats.shape[0], _CHUNK):
        ann, ap = _reduced_ap(mats[lo : lo + _CHUNK], dirs, outer)
        if np.any(ap <= 0.0):
            return np.nan
        total += wx[lo : lo + _CHUNK] @ ((ann[:, None] / (2.0 * ap)) ** p) @ ws
    return float(total)


def boundary_quantities(mats, xips):
    """Per-sample ann, b, c for frame-reduced mats (N, n, n) and xips (N, n-1)."""
    n = mats.shape[1]
    ann = np.ascontiguousarray(mats[:, n - 1, n - 1])
    b = np.einsum("ki,ki->k", mats[:, : n - 1, n - 1], xips)
    c = np.einsum("kij,ki,kj->k", mats[:, : n - 1, : n - 1], xips, xips)
    return ann, b, c


def toeplitz_gather(kern_flat, idx, shape, cols=None):
    """R[i, j] = kern[(idx[i] - cols[j]) mod shape] for a flat row-major torus kernel.

    idx and cols (default idx) are (m, n) torus multi-indices.  The kernel
    is tiled twice along each axis, so the offset idx[i] - cols[j] + shape
    indexes the tiling directly, with no wrap; the flat offsets are formed
    one block of rows at a time, of about 2^16 entries.
    """
    cols = idx if cols is None else cols
    shape = np.asarray(shape, dtype=np.int64)
    tiled = np.tile(kern_flat.reshape(tuple(shape)), (2,) * shape.size).ravel()
    strides = np.array([np.prod(2 * shape[k + 1 :]) for k in range(shape.size)], dtype=np.int64)  # row-major, tiled
    rows = idx @ strides
    shifted = shape @ strides - cols @ strides
    out = np.empty((rows.size, shifted.size))
    step = max(1, (1 << 16) // max(shifted.size, 1))
    for lo in range(0, rows.size, step):
        np.take(tiled, rows[lo : lo + step, None] + shifted, out=out[lo : lo + step])
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
