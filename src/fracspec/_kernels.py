"""Hot numeric loops, in numba and pure-numpy builds.

Public names (``quad_form_power_sum``, ``kappa0_power_sum``,
``dtn_weight_sum``, ``boundary_quantities``, ``toeplitz_gather``) point at
the active build chosen in :mod:`fracspec._accel`.  The ``*_nb`` and
``*_np`` variants are kept importable side by side so tests and the
benchmark can compare them.  ``restricted_power_apply``, the matrix-free
product with a restricted torus multiplier, has one build: its work is
in the compiled transforms.

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

from ._accel import NUMBA_ACTIVE, jit, kwd


# ---------------------------------------------------------------------------
# numba builds (plain loops; compiled when numba is active)
# ---------------------------------------------------------------------------


@jit(**kwd)
def quad_form_power_sum_nb(mats, wx, dirs, ws, expo):
    # sum_{d,s} wx[d] ws[s] (dirs[s]^T mats[d] dirs[s])**expo
    nd = mats.shape[0]
    n = mats.shape[1]
    ns = dirs.shape[0]
    total = 0.0
    for d in range(nd):
        acc = 0.0
        for s in range(ns):
            q = 0.0
            for i in range(n):
                row = 0.0
                for j in range(n):
                    row += mats[d, i, j] * dirs[s, j]
                q += dirs[s, i] * row
            if q <= 0.0:
                return np.nan
            acc += ws[s] * q**expo
        total += wx[d] * acc
    return total


@jit(**kwd)
def kappa0_power_sum_nb(mats, wx, dirs, ws, expo):
    # mats frame-reduced; dirs live in the tangent coordinates (n-1 dims)
    nd = mats.shape[0]
    n = mats.shape[1]
    ns = dirs.shape[0]
    total = 0.0
    for d in range(nd):
        ann = mats[d, n - 1, n - 1]
        acc = 0.0
        for s in range(ns):
            b = 0.0
            c = 0.0
            for i in range(n - 1):
                b += mats[d, i, n - 1] * dirs[s, i]
                row = 0.0
                for j in range(n - 1):
                    row += mats[d, i, j] * dirs[s, j]
                c += dirs[s, i] * row
            ap = ann * c - b * b
            if ap <= 0.0:
                return np.nan
            acc += ws[s] * ap ** (0.5 * expo)
        total += wx[d] * acc
    return total


@jit(**kwd)
def dtn_weight_sum_nb(mats, wx, dirs, ws, p):
    # sum of wx ws (ann / (2 kappa0^2))**p over the same product grid
    nd = mats.shape[0]
    n = mats.shape[1]
    ns = dirs.shape[0]
    total = 0.0
    for d in range(nd):
        ann = mats[d, n - 1, n - 1]
        acc = 0.0
        for s in range(ns):
            b = 0.0
            c = 0.0
            for i in range(n - 1):
                b += mats[d, i, n - 1] * dirs[s, i]
                row = 0.0
                for j in range(n - 1):
                    row += mats[d, i, j] * dirs[s, j]
                c += dirs[s, i] * row
            ap = ann * c - b * b
            if ap <= 0.0:
                return np.nan
            acc += ws[s] * (ann / (2.0 * ap)) ** p
        total += wx[d] * acc
    return total


@jit(**kwd)
def boundary_quantities_nb(mats, xips):
    # per-sample ann, b, c for frame-reduced mats (N,n,n) and xips (N,n-1)
    m = mats.shape[0]
    n = mats.shape[1]
    ann = np.empty(m)
    b = np.empty(m)
    c = np.empty(m)
    for k in range(m):
        ann[k] = mats[k, n - 1, n - 1]
        bk = 0.0
        ck = 0.0
        for i in range(n - 1):
            bk += mats[k, i, n - 1] * xips[k, i]
            row = 0.0
            for j in range(n - 1):
                row += mats[k, i, j] * xips[k, j]
            ck += xips[k, i] * row
        b[k] = bk
        c[k] = ck
    return ann, b, c


@jit(**kwd)
def toeplitz_gather_nb(kern_flat, idx, strides, shape):
    # R[i,j] = kern[(idx[i]-idx[j]) mod shape], row-major strides
    m = idx.shape[0]
    nd = idx.shape[1]
    out = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            flat = 0
            for k in range(nd):
                d = idx[i, k] - idx[j, k]
                d %= shape[k]
                flat += d * strides[k]
            out[i, j] = kern_flat[flat]
    return out


# ---------------------------------------------------------------------------
# numpy builds (vectorized, chunked to bound the working set)
# ---------------------------------------------------------------------------

_CHUNK = 256


def quad_form_power_sum_np(mats, wx, dirs, ws, expo):
    total = 0.0
    for lo in range(0, mats.shape[0], _CHUNK):
        chunk = mats[lo : lo + _CHUNK]
        q = np.einsum("dij,si,sj->ds", chunk, dirs, dirs)
        if np.any(q <= 0.0):
            return np.nan
        total += wx[lo : lo + _CHUNK] @ (q**expo) @ ws
    return float(total)


def _reduced_ap_np(chunk, dirs):
    n = chunk.shape[1]
    ann = chunk[:, n - 1, n - 1]
    b = chunk[:, : n - 1, n - 1] @ dirs.T
    c = np.einsum("dij,si,sj->ds", chunk[:, : n - 1, : n - 1], dirs, dirs)
    ap = ann[:, None] * c - b * b
    return ann, ap


def kappa0_power_sum_np(mats, wx, dirs, ws, expo):
    total = 0.0
    for lo in range(0, mats.shape[0], _CHUNK):
        _, ap = _reduced_ap_np(mats[lo : lo + _CHUNK], dirs)
        if np.any(ap <= 0.0):
            return np.nan
        total += wx[lo : lo + _CHUNK] @ (ap ** (0.5 * expo)) @ ws
    return float(total)


def dtn_weight_sum_np(mats, wx, dirs, ws, p):
    total = 0.0
    for lo in range(0, mats.shape[0], _CHUNK):
        ann, ap = _reduced_ap_np(mats[lo : lo + _CHUNK], dirs)
        if np.any(ap <= 0.0):
            return np.nan
        total += wx[lo : lo + _CHUNK] @ ((ann[:, None] / (2.0 * ap)) ** p) @ ws
    return float(total)


def boundary_quantities_np(mats, xips):
    n = mats.shape[1]
    ann = np.ascontiguousarray(mats[:, n - 1, n - 1])
    b = np.einsum("ki,ki->k", mats[:, : n - 1, n - 1], xips)
    c = np.einsum("kij,ki,kj->k", mats[:, : n - 1, : n - 1], xips, xips)
    return ann, b, c


def toeplitz_gather_np(kern_flat, idx, strides, shape):
    d = idx[:, None, :] - idx[None, :, :]
    d %= shape[None, None, :]
    return kern_flat[d @ strides]


# ---------------------------------------------------------------------------
# matrix-free restricted multiplier (single build)
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

if NUMBA_ACTIVE:
    quad_form_power_sum = quad_form_power_sum_nb
    kappa0_power_sum = kappa0_power_sum_nb
    dtn_weight_sum = dtn_weight_sum_nb
    boundary_quantities = boundary_quantities_nb
    toeplitz_gather = toeplitz_gather_nb
else:
    quad_form_power_sum = quad_form_power_sum_np
    kappa0_power_sum = kappa0_power_sum_np
    dtn_weight_sum = dtn_weight_sum_np
    boundary_quantities = boundary_quantities_np
    toeplitz_gather = toeplitz_gather_np
