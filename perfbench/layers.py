"""fracspec's layers for the traced run: what is wrapped and what each layer reports.

Each layer is one module of the package.  Every public function of the
module (a numba dispatcher counts as one), and every public method of its
public classes, is wrapped in every ``fracspec`` namespace that binds it.
Symmetric eigensolves that package code makes directly through scipy or
numpy are spans of the ``eig`` layer, whichever module makes them, so the
``eig`` numbers keep their meaning when those calls move into ``eig.py``.

Metrics described as computed are derived from array shapes: they repeat
exactly and ignore cache misses.
"""

from __future__ import annotations

import importlib
import inspect
import sys

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from spans import END, LAYER, NAME, OUTERMOST, PARENT, START, self_times

LAYERS = {
    "cli": "fracspec.cli",
    "symbols": "fracspec.symbols",
    "quadrature": "fracspec.quadrature",
    "kernels": "fracspec._kernels",
    "discretize": "fracspec.discretize",
    "eig": "fracspec.eig",
    "zaremba": "fracspec.zaremba",
    "asymptotics": "fracspec.asymptotics",
}

# (module, attribute, kind) of the direct symmetric eigensolvers
EIGENSOLVERS = [
    (scipy.linalg, "eigh", "dense"),
    (scipy.linalg, "eigvalsh", "dense"),
    (np.linalg, "eigh", "dense"),
    (np.linalg, "eigvalsh", "dense"),
    (scipy.sparse.linalg, "eigsh", "iterative"),
]
# factorizations counted under zaremba spans: sparse LU, dense solve, Cholesky
FACTORIZATIONS = [(scipy.sparse.linalg, "splu"), (scipy.linalg, "solve"), (scipy.linalg, "cho_factor")]
PACKAGE = "fracspec."

# self_s: span time minus child spans, summed over the layer; calls: spans in the layer,
# except eig.calls, which counts the eigensolver spans only (dense + iterative) so that
# moving a solve into eig.py, which adds a wrapping eig span, leaves it unchanged.
# Inclusive stage times (a_batch_s, grid_s, assemble_s, fractional_s) include child spans.
# quadrature.max_refine_err: largest |error / value| of the two-level estimates returned.
# pairs_per_s and gflops divide by the layer's time in its outermost spans.
# discretize.dense_mb: dense operator matrices returned, summed; *_dim: largest seen.
# trace.overhead_s: spans times the calibrated cost of one wrapper (spans.calibrate) plus
# the measured time of the after hooks; wrappers that only count calls are left out.
# trace.coverage: time in top-level spans over the traced pass's wall time.
PER_LAYER = [
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("symbols.self_s", "s"),
    ("symbols.calls", "count"),
    ("symbols.a_batch_s", "s"),
    ("symbols.a_batch_points", "count"),
    ("quadrature.self_s", "s"),
    ("quadrature.calls", "count"),
    ("quadrature.pairs", "count"),
    ("quadrature.pairs_per_s", "1/s"),
    ("quadrature.max_refine_err", "ratio"),
    ("kernels.self_s", "s"),
    ("kernels.calls", "count"),
    ("kernels.flops", "flop"),
    ("kernels.bytes", "bytes"),
    ("kernels.gflops", "GFLOP/s"),
    ("discretize.self_s", "s"),
    ("discretize.grid_s", "s"),
    ("discretize.assemble_s", "s"),
    ("discretize.fractional_s", "s"),
    ("discretize.dense_mb", "MB"),
    ("discretize.max_dim", "count"),
    ("eig.self_s", "s"),
    ("eig.calls", "count"),
    ("eig.dense_calls", "count"),
    ("eig.iterative_calls", "count"),
    ("eig.dense_n3", "count"),
    ("eig.pairs_returned", "count"),
    ("eig.max_dim", "count"),
    ("zaremba.self_s", "s"),
    ("zaremba.calls", "count"),
    ("zaremba.factorizations", "count"),
    ("zaremba.interior_dim", "count"),
    ("zaremba.boundary_dim", "count"),
    ("asymptotics.self_s", "s"),
    ("asymptotics.calls", "count"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
]

# metrics that must repeat exactly between two passes over the same inputs
COUNTS = {name for name, unit in PER_LAYER if unit in ("count", "flop", "bytes", "MB")}
# the work done, which must not depend on the seed; report sizes follow the printed values
WORK_COUNTS = COUNTS - {"cli.bytes_written"}

# layers each workload's questions go through; a traced run in which one of them
# records no spans has missed its functions, and counts as failed
USED_BY = {
    "quadrature": ("cli", "symbols", "quadrature", "kernels"),
    "frac-weyl": ("cli", "symbols", "quadrature", "kernels", "discretize", "eig", "asymptotics"),
    "frac-ground": ("cli", "symbols", "quadrature", "kernels", "discretize", "eig", "asymptotics"),
    "krein": ("cli", "symbols", "quadrature", "discretize", "eig", "zaremba"),
}

GRID = {"discretize.build_grid"}
ASSEMBLE = {"discretize.assemble_second_order", "discretize.assemble_polar_laplacian"}
FRACTIONAL = {
    "discretize.fractional_restricted",
    "discretize.spectral_fractional_dirichlet",
    "discretize.materialize_torus_operator",
}
A_BATCH = {"symbols.SecondOrderCoeffs.a_batch"}


# ---------------------------------------------------------------------------
# hooks: computed counts from the arguments and results of traced calls
# ---------------------------------------------------------------------------


def _pair_sum(flops_per_pair):
    """Quadrature kernels over nodes x directions: (mats, wx, dirs, ws, expo)."""

    def after(tracer, args, kwargs, result):
        mats, wx, dirs, ws = args[:4]
        pairs = mats.shape[0] * dirs.shape[0]
        c = tracer.counters
        c["quadrature.pairs"] += pairs
        c["kernels.flops"] += pairs * flops_per_pair(mats.shape[1])
        # inputs read once, one value per pair written and read back
        c["kernels.bytes"] += 8 * (mats.size + wx.size + dirs.size + ws.size + 2 * pairs)

    return after


def _boundary_quantities(tracer, args, kwargs, result):
    mats, xips = args[:2]
    count, n = mats.shape[0], mats.shape[1]
    tracer.counters["kernels.flops"] += count * (2 * (n - 1) ** 2 + 2 * (n - 1))
    tracer.counters["kernels.bytes"] += 8 * (mats.size + xips.size + 3 * count)


def _toeplitz_gather(tracer, args, kwargs, result):
    idx = args[1]
    m, nd = idx.shape
    # index difference, wrap and stride multiply-add per entry and axis
    tracer.counters["kernels.flops"] += m * m * 3 * nd
    # int64 difference array written and read, kernel values gathered, matrix written
    tracer.counters["kernels.bytes"] += 8 * m * m * (2 * nd + 2)


KERNEL_HOOKS = {
    # quadratic form d.A d (2 n^2), power, weighted accumulate
    "kernels.quad_form_power_sum": _pair_sum(lambda n: 2 * n * n + 3),
    # b (2(n-1)), c (2(n-1)^2), a' = ann c - b^2, power or ratio, accumulate
    "kernels.kappa0_power_sum": _pair_sum(lambda n: 2 * (n - 1) ** 2 + 2 * (n - 1) + 7),
    "kernels.dtn_weight_sum": _pair_sum(lambda n: 2 * (n - 1) ** 2 + 2 * (n - 1) + 7),
    "kernels.boundary_quantities": _boundary_quantities,
    "kernels.toeplitz_gather": _toeplitz_gather,
}


def _a_batch(tracer, args, kwargs, result):
    tracer.counters["symbols.a_batch_points"] += np.atleast_2d(args[1]).shape[0]


def _refine_err(tracer, args, kwargs, result):
    from fracspec.quadrature import QuadratureResult

    if isinstance(result, QuadratureResult) and result.value:
        tracer.high("quadrature.max_refine_err", abs(result.error / result.value))


def _operator_size(tracer, args, kwargs, result):
    from fracspec.discretize import OperatorMatrix

    if isinstance(result, OperatorMatrix):
        tracer.high("discretize.max_dim", result.shape[0])
        if not sp.issparse(result.matrix):
            tracer.counters["discretize.dense_mb"] += result.matrix.nbytes / 1e6


def _interface_size(tracer, args, kwargs, result):
    from fracspec.zaremba import DiskSpectra, KreinAssembly

    if isinstance(result, KreinAssembly):
        tracer.high("zaremba.interior_dim", result.n_interior)
        tracer.high("zaremba.boundary_dim", result.n_boundary)
    elif isinstance(result, DiskSpectra):
        tracer.high("zaremba.boundary_dim", result.S_plus.shape[0])


def _solver(kind):
    def after(tracer, args, kwargs, result):
        a = args[0] if args else kwargs.get("a", kwargs.get("A"))
        dim = int(a.shape[0])
        values = result[0] if isinstance(result, tuple) else result
        tracer.counters[f"eig.{kind}_calls"] += 1
        if kind == "dense":
            tracer.counters["eig.dense_n3"] += dim**3
        tracer.counters["eig.pairs_returned"] += int(np.size(values))
        tracer.high("eig.max_dim", dim)

    return after


def _hook(layer, name):
    if layer == "kernels":
        return KERNEL_HOOKS.get(name)
    if name in A_BATCH:
        return _a_batch
    return {"quadrature": _refine_err, "discretize": _operator_size, "zaremba": _interface_size}.get(layer)


# ---------------------------------------------------------------------------
# registration
# ---------------------------------------------------------------------------


def _defined_here(obj, module) -> bool:
    return getattr(obj, "__module__", None) == module.__name__


def public_functions(module):
    """(function, names) for each public function defined in ``module``.

    A numba dispatcher is taken by the Python function it compiles
    (``py_func``), so the kernels are wrapped whichever backend is active.
    """
    found = {}
    for attr, obj in vars(module).items():
        py = getattr(obj, "py_func", obj)
        if inspect.isfunction(py) and _defined_here(py, module):
            found.setdefault(obj, []).append(attr)
    return [(fn, names) for fn, names in found.items() if any(not n.startswith("_") for n in names)]


def public_methods(module):
    """(class, attribute, function, kind) for each public method of the public classes in ``module``."""
    out = []
    for attr, cls in vars(module).items():
        if attr.startswith("_") or not inspect.isclass(cls) or not _defined_here(cls, module):
            continue
        for name, raw in vars(cls).items():
            if name.startswith("_"):
                continue
            kind = "classmethod" if isinstance(raw, classmethod) else "staticmethod" if isinstance(raw, staticmethod) else None
            fn = raw.__func__ if kind else raw
            if inspect.isfunction(fn):
                out.append((cls, name, fn, kind))
    return out


def register(tracer):
    """Register every layer's public functions, the eigensolvers and the factorization counters."""
    package = [m for n, m in sys.modules.items() if n.startswith(PACKAGE)]
    for layer, modname in LAYERS.items():
        module = importlib.import_module(modname)
        for fn, names in public_functions(module):
            name = f"{layer}.{min((n for n in names if not n.startswith('_')), key=len)}"
            bindings = [(ns, attr) for ns in package for attr, obj in vars(ns).items() if obj is fn]
            tracer.wrap(bindings, fn, name, layer, after=_hook(layer, name))
        for cls, attr, fn, kind in public_methods(module):
            name = f"{layer}.{cls.__name__}.{attr}"
            tracer.wrap([(cls, attr)], fn, name, layer, after=_hook(layer, name), kind=kind)
    for module, attr, kind in EIGENSOLVERS:
        tracer.wrap([(module, attr)], getattr(module, attr), f"eig.{module.__name__}.{attr}", "eig",
                    after=_solver(kind), only_from=PACKAGE)
    for module, attr in FACTORIZATIONS:
        tracer.count(module, attr, getattr(module, attr), "zaremba.factorizations", "zaremba", PACKAGE)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass
# ---------------------------------------------------------------------------


def spans_by_layer(tracer) -> dict:
    """Number of spans each layer recorded."""
    counts = dict.fromkeys(LAYERS, 0)
    for s in tracer.spans:
        counts[s[LAYER]] += 1
    return counts


def per_layer(tracer, wall: float, span_cost: float, bytes_written: int) -> dict:
    """Every metric of PER_LAYER for one traced pass; 0 where a layer was unused."""
    spans = tracer.spans
    selfs = self_times(spans)
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = spans_by_layer(tracer)
    outermost = dict.fromkeys(LAYERS, 0.0)
    roots = 0.0
    for s, st in zip(spans, selfs):
        self_s[s[LAYER]] += st
        if s[OUTERMOST]:
            outermost[s[LAYER]] += s[END] - s[START]
        if s[PARENT] is None:
            roots += s[END] - s[START]

    def inclusive(names):
        return sum((s[END] - s[START] for s in spans if s[NAME] in names), 0.0)

    c, hi = tracer.counters, tracer.maxima
    m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    m.update({f"{layer}.calls": calls[layer] for layer in LAYERS})
    m["cli.bytes_written"] = bytes_written
    m["symbols.a_batch_s"] = inclusive(A_BATCH)
    m["symbols.a_batch_points"] = int(c["symbols.a_batch_points"])
    m["quadrature.pairs"] = int(c["quadrature.pairs"])
    m["quadrature.pairs_per_s"] = c["quadrature.pairs"] / outermost["quadrature"] if outermost["quadrature"] else 0.0
    m["quadrature.max_refine_err"] = hi.get("quadrature.max_refine_err", 0.0)
    m["kernels.flops"] = int(c["kernels.flops"])
    m["kernels.bytes"] = int(c["kernels.bytes"])
    m["kernels.gflops"] = c["kernels.flops"] / outermost["kernels"] / 1e9 if outermost["kernels"] else 0.0
    m["discretize.grid_s"] = inclusive(GRID)
    m["discretize.assemble_s"] = inclusive(ASSEMBLE)
    m["discretize.fractional_s"] = inclusive(FRACTIONAL)
    m["discretize.dense_mb"] = c["discretize.dense_mb"]
    m["discretize.max_dim"] = int(hi.get("discretize.max_dim", 0))
    for key in ("dense_calls", "iterative_calls", "dense_n3", "pairs_returned"):
        m[f"eig.{key}"] = int(c[f"eig.{key}"])
    m["eig.calls"] = m["eig.dense_calls"] + m["eig.iterative_calls"]
    m["eig.max_dim"] = int(hi.get("eig.max_dim", 0))
    m["zaremba.factorizations"] = int(c["zaremba.factorizations"])
    m["zaremba.interior_dim"] = int(hi.get("zaremba.interior_dim", 0))
    m["zaremba.boundary_dim"] = int(hi.get("zaremba.boundary_dim", 0))
    m["trace.overhead_s"] = tracer.overhead_s(span_cost)
    m["trace.coverage"] = roots / wall
    return {name: m[name] for name, _ in PER_LAYER}
