"""Command-line front end: configuration, runs, and report emission.

Eight subcommands cover the pipelines: symbol-check (factorization and
reflection-phase residuals), weyl-const (spectral constants by
quadrature), spectrum (assemble + eigensolve + export), weyl-fit
(power-law fit of a `j,value` file, such as spectrum's export),
boundary-exp (eigenfunction boundary decay), zaremba (Krein pipeline +
identity check), dtn-probe (interface symbol on a strip), singular-probe
(log-divergence detector).  spectrum and boundary-exp assemble the
Dirichlet realization; the mixed problem is zaremba's.

Configuration comes from an INI-style file ([section] with key = value
lines) merged with command-line flags, flags winning.  Both are declared
once, in the OPTIONS table: each row gives a config key, its flag, its
type and the subcommands that offer the flag, so a subcommand rejects a
flag its pipeline does not read.  A key read in some modes only is
refused by the handler in the others: operator.a by the interface
constants, domain.arc and domain.cap (the free boundary) by a Dirichlet
problem.  Unknown sections or keys, and config values their type cannot
read, are rejected before any computation.
Every run emits a
manifest recording the config hash, package and library versions, the
kernel build (always ``numpy``), the seed, and all tolerances; reports are
structured-record text, sequences are `j,value` files, and each
sequence ships with a small plot script.  With --repro set the files
contain no timestamps, so identical configs produce bit-identical
output.

Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 tolerance violation in --assert mode.

Heavy imports happen inside the handlers, and importing this module
(with the package) loads no numpy, so that --jobs (or [output] jobs in
the config file) can cap the thread pools (OMP, OpenBLAS, MKL, numexpr)
through the environment before the numeric stack loads.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import math
import os
import sys
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# option table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Floats:
    """Comma- (or semicolon-) separated numbers, exactly `count` of them if set."""

    count: int | None = None

    def __call__(self, raw: str) -> list:
        vals = [float(p) for p in raw.replace(";", ",").split(",") if p.strip()]
        if self.count is not None and len(vals) != self.count:
            raise ValueError(f"needs {self.count} comma-separated numbers, got {len(vals)}")
        return vals


@dataclass(frozen=True)
class _Int:
    """An integer of at least `lo`."""

    lo: int

    def __call__(self, raw: str) -> int:
        val = int(raw)
        if val < self.lo:
            raise ValueError(f"must be at least {self.lo}")
        return val


_floats = _Floats()
_pair = _Floats(2)


def _index_range(raw: str) -> list:
    """Two comma-separated integers lo,hi with lo < hi."""
    vals = [int(p) for p in raw.replace(";", ",").split(",") if p.strip()]
    if len(vals) != 2:
        raise ValueError(f"needs 2 comma-separated integers, got {len(vals)}")
    if vals[0] >= vals[1]:
        raise ValueError(f"needs lo < hi, got {vals[0]},{vals[1]}")
    return vals


def _shift(raw: str) -> float | str:
    """A finite number, or the word auto."""
    if raw.strip() == "auto":
        return "auto"
    try:
        val = float(raw)
        if math.isfinite(val):
            return val
    except ValueError:
        pass
    raise ValueError(f"needs a finite number or 'auto', got {raw!r}")


def _bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


SUBCOMMANDS = {
    "symbol-check": "factorization and reflection-phase residuals",
    "weyl-const": "spectral constants by cosphere quadrature",
    "spectrum": "assemble, eigensolve, export",
    "weyl-fit": "power-law fit of a spectral sequence",
    "boundary-exp": "boundary decay rate of the ground eigenfunction",
    "zaremba": "Krein pipeline with identity check",
    "dtn-probe": "interface symbol on a flat strip",
    "singular-probe": "log-divergence detector",
}
_ASSEMBLED = ("spectrum", "boundary-exp")  # read through _assemble_operator
_DOMAIN = ("weyl-const", "zaremba", *_ASSEMBLED)  # read through _build_domain
_ALL = tuple(SUBCOMMANDS)

# One row per option: (section, key, flag, type, subcommands offering the
# flag, help).  The type converts and checks the config text: float, int,
# _Int(lo) (at least lo), str, _floats, _pair (exactly two numbers),
# _index_range (integers lo < hi), _bool, _shift (a finite number or auto),
# or a tuple of the accepted words.  _get refuses a float, _floats or _pair
# value that is NaN or infinite.
# Every option is also a config key [section] key = value, accepted by any
# subcommand.
OPTIONS = (
    ("operator", "kind", "--op", ("frac-laplacian", "coeffs"), ("weyl-const",), "operator kind"),
    ("operator", "coeffs", "--coeffs", str, ("symbol-check", "dtn-probe", *_DOMAIN),
     "identity | diag:1,4 | matrix:2,1;1,2"),
    ("operator", "a", "--a", float, ("symbol-check", "weyl-const", *_ASSEMBLED), "fractional power"),
    ("operator", "sigma", "--sigma", float, ("zaremba",), "Robin weight on the free boundary"),
    ("operator", "shift", "--shift", _shift, ("zaremba",), "positivity shift (number or 'auto')"),
    ("operator", "mu", "--mu", float, ("symbol-check",), "reflection order (defaults to the power)"),
    ("domain", "kind", "--domain", ("interval", "square", "box", "disk", "ball"), _DOMAIN, "domain"),
    ("domain", "n", "--n", int, ("symbol-check", *_DOMAIN), "ambient dimension"),
    ("domain", "radius", "--radius", float, _DOMAIN, "disk or ball radius"),
    ("domain", "arc", "--arc", _pair, _DOMAIN, "free arc angles t0,t1 (disk)"),
    ("domain", "cap", "--cap", float, _DOMAIN, "cap angle (ball)"),
    ("grid", "nodes", "--nodes", int, ("zaremba", *_ASSEMBLED), "nodes per axis"),
    ("grid", "n_r", "--n-r", int, ("zaremba",), "radial rings (disk)"),
    ("grid", "n_theta", "--n-theta", int, ("zaremba",), "angular nodes (disk)"),
    ("grid", "h", "--h", float, ("dtn-probe",), "grid spacing (strip probe)"),
    ("task", "xi", "--xi", _floats, ("dtn-probe",), "tangential frequencies, comma separated"),
    ("task", "window", "--window", _index_range, ("weyl-fit",), "fit window j_lo,j_hi"),
    ("task", "fixed_exponent", "--fixed-exponent", float, ("weyl-fit",), "fit the constant at this exponent"),
    ("task", "deltas", "--deltas", _floats, ("singular-probe",), "cutoff sequence, comma separated, decreasing"),
    ("task", "decay", "--decay", ("flat", "harmonic"), ("singular-probe",), "decay profile"),
    ("task", "level", "--level", int, ("weyl-const",), "quadrature refinement level"),
    ("task", "count", "--count", _Int(1), ("spectrum",), "export only the first eigenvalues"),
    ("task", "band", "--band", _pair, ("boundary-exp",), "distance band lo,hi for the fit"),
    ("task", "threshold", "--threshold", float, ("boundary-exp",), "near-boundary ratio threshold"),
    ("task", "expect_exponent", "--expect-exponent", float, ("weyl-fit",), "expected exponent"),
    ("task", "expect_constant", "--expect-constant", float, ("weyl-fit",), "expected constant"),
    ("task", "tol", "--tol", float,
     ("symbol-check", "boundary-exp", "zaremba", "dtn-probe", "singular-probe"), "primary tolerance for --assert"),
    ("task", "tol_exponent", "--tol-exponent", float, ("weyl-fit",), "relative exponent tolerance"),
    ("task", "tol_constant", "--tol-constant", float, ("weyl-fit",), "relative constant tolerance"),
    ("task", "which", "--which", ("dirichlet", "interface-l", "interface-m"), ("weyl-const",), "spectral constant"),
    ("task", "input", "--input", str, ("weyl-fit",), "the j,value file to fit (spectrum writes one)"),
    ("task", "samples", "--samples", _Int(1), ("symbol-check",), "random boundary samples"),
    ("output", "directory", "--out", str, _ALL, "output directory (overrides FRACSPEC_OUT)"),
    ("output", "repro", "--repro", _bool, _ALL, "omit timestamps for bit-identical reruns"),
    ("output", "seed", "--seed", int, _ALL, "seed for sampled checks"),
    ("output", "jobs", "--jobs", int, _ALL, "cap worker threads"),
)
_TYPES = {(section, key): typ for section, key, _, typ, _, _ in OPTIONS}


class ToleranceFailure(RuntimeError):
    """An --assert bound was violated."""


def _load_config_file(path: str) -> dict:
    from .errors import ConfigurationError

    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigurationError(f"config file not found: {path}")
    cfg = {}
    for section in parser.sections():
        if section not in {s for s, _ in _TYPES}:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if (section, key) not in _TYPES:
                raise ConfigurationError(f"unknown key {key!r} in section [{section}]")
            cfg[(section, key)] = value.strip()
    return cfg


def _merge_flags(cfg: dict, args: argparse.Namespace) -> dict:
    """Flag values over the config: scalars as str(type(value)), the rest as given."""
    merged = dict(cfg)
    for section, key, flag, *_ in OPTIONS:
        val = getattr(args, flag[2:].replace("-", "_"), None)
        if val is not None:
            merged[(section, key)] = str(val)
    return merged


def _config_hash(cfg: dict, subcommand: str) -> str:
    text = subcommand + "\n" + "\n".join(f"{s}.{k}={v}" for (s, k), v in sorted(cfg.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _get(cfg, section, key, default=None):
    """The value at [section] key converted by its table type, or default if unset."""
    from .errors import ConfigurationError

    raw = cfg.get((section, key))
    if raw is None:
        return default
    typ = _TYPES[(section, key)]
    if isinstance(typ, tuple):
        if raw not in typ:
            raise ConfigurationError(f"{section}.{key} must be one of {' | '.join(typ)}, got {raw!r}")
        return raw
    try:
        val = typ(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{section}.{key}: cannot read {raw!r} ({exc})") from exc
    numbers = [val] if typ is float else val if isinstance(typ, _Floats) else []
    if not all(map(math.isfinite, numbers)):
        raise ConfigurationError(f"{section}.{key}: cannot read {raw!r} (needs finite numbers)")
    return val


# ---------------------------------------------------------------------------
# shared builders
# ---------------------------------------------------------------------------


def _build_coeffs(cfg, domain=None):
    """Strongly elliptic coefficient matrix from its text form.

    Accepted: `identity` / `laplacian`, `diag:1,4`, `matrix:2,1;1,2`.  The
    dimension is the domain's when one is given, else domain.n (default 2).
    """
    import numpy as np

    from .errors import ConfigurationError
    from .symbols import SecondOrderCoeffs, strong_ellipticity_margin

    spec = _get(cfg, "operator", "coeffs", "identity")
    if domain is not None:
        n, where = domain.n, f"the {_get(cfg, 'domain', 'kind', 'square')} domain is {domain.n}-dimensional"
    else:
        n = _get(cfg, "domain", "n", None)
        where = f"domain.n = {n}"
    if spec in ("identity", "laplacian"):
        return SecondOrderCoeffs.laplacian(2 if n is None else n)
    if spec.startswith("diag:"):
        mat = np.diag([float(p) for p in spec[5:].split(",")])
    elif spec.startswith("matrix:"):
        mat = np.asarray([[float(p) for p in row.split(",")] for row in spec[7:].split(";")], dtype=float)
        if mat.shape[0] != mat.shape[1]:
            raise ConfigurationError("coefficient matrix must be square")
    else:
        raise ConfigurationError(f"unknown coefficient form {spec!r}")
    if n is not None and n != mat.shape[0]:
        raise ConfigurationError(f"coefficients {spec!r} are {mat.shape[0]}-dimensional, but {where}")
    coeffs = SecondOrderCoeffs(mat.shape[0], a=mat)
    margin = strong_ellipticity_margin(coeffs, np.zeros((1, coeffs.n)))
    if margin <= 0.0:
        raise ConfigurationError(f"coefficients {spec!r} are not strongly elliptic (smallest eigenvalue {margin:.6g})")
    return coeffs


# the domain kinds that read each geometry key; set on any other kind, the key is refused
_GEOMETRY_KEYS = {"radius": ("disk", "ball"), "arc": ("disk",), "cap": ("ball",)}


def _build_domain(cfg, dirichlet: bool = False):
    """One of the five documented domains; domain.n, if set, must be its dimension.

    A Dirichlet problem (dirichlet=True) has no free boundary, so it
    refuses domain.arc and domain.cap, which place one.
    """
    import numpy as np

    from .errors import ConfigurationError
    from .quadrature import DomainSpec

    kind = _get(cfg, "domain", "kind", "square")
    for key, kinds in _GEOMETRY_KEYS.items():
        if kind not in kinds and ("domain", key) in cfg:
            raise ConfigurationError(f"domain.{key} applies to the {' and '.join(kinds)} only, "
                                     f"not the {kind} domain")
    for key in ("arc", "cap"):
        if dirichlet and ("domain", key) in cfg:
            raise ConfigurationError(f"domain.{key} places the free boundary, which the Dirichlet problem "
                                     "does not have")
    radius = _get(cfg, "domain", "radius", 1.0)
    if kind == "interval":
        domain = DomainSpec.unit_interval()
    elif kind == "square":
        domain = DomainSpec.unit_square()
    elif kind == "box":
        domain = DomainSpec.unit_box()
    elif kind == "disk":
        domain = DomainSpec.disk(radius=radius, arc=tuple(_get(cfg, "domain", "arc", [0.0, float(np.pi)])))
    else:
        domain = DomainSpec.ball(radius=radius, cap=_get(cfg, "domain", "cap", float(np.pi) / 2.0))
    n = _get(cfg, "domain", "n", domain.n)
    if n != domain.n:
        raise ConfigurationError(f"domain.n = {n}, but the {kind} domain is {domain.n}-dimensional")
    return domain


def _assemble_operator(cfg):
    """Dirichlet operator, its grid and the power a; a fractional power is the matrix-free RestrictedPowerOperator."""
    from .discretize import RestrictedPowerOperator, assemble_second_order, build_grid

    domain = _build_domain(cfg, dirichlet=True)
    coeffs = _build_coeffs(cfg, domain)
    nodes = _get(cfg, "grid", "nodes", 32)
    grid = build_grid(domain, nodes)
    a = _get(cfg, "operator", "a", 1.0)
    if a == 1.0:
        return assemble_second_order(coeffs, grid, bc="dirichlet"), grid, a
    return RestrictedPowerOperator(coeffs, a, grid), grid, a


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _resolve_outdir(cfg, args) -> str:
    if getattr(args, "out", None):
        return args.out
    env = os.environ.get("FRACSPEC_OUT")
    if env:
        return env
    return _get(cfg, "output", "directory", "fracspec-out")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


class Emitter:
    """Collects report rows, sequences, and tolerances, then writes files."""

    def __init__(self, outdir: str, task: str, cfg: dict, repro: bool):
        self.outdir = outdir
        self.task = task
        self.cfg = cfg
        self.repro = repro
        self.rows: list[tuple[str, str]] = []
        self.tolerances: dict[str, float] = {}
        self.csvs: list[tuple[str, list]] = []

    def row(self, key, value):
        self.rows.append((key, _fmt(value)))

    def tolerance(self, name, value):
        self.tolerances[name] = value

    def sequence(self, name, values):
        self.csvs.append((name, list(values)))

    def write(self):
        os.makedirs(self.outdir, exist_ok=True)
        report_path = os.path.join(self.outdir, f"{self.task}-report.txt")
        with open(report_path, "w") as fh:
            for key, value in self.rows:
                fh.write(f"{key} = {value}\n")
        for name, values in self.csvs:
            csv_path = os.path.join(self.outdir, f"{name}.csv")
            with open(csv_path, "w") as fh:
                fh.write("j,value\n")
                for j, v in enumerate(values, start=1):
                    fh.write(f"{j},{_fmt(float(v))}\n")
            plot_path = os.path.join(self.outdir, f"{name}-plot.py")
            with open(plot_path, "w") as fh:
                fh.write(_plot_script(f"{name}.csv"))
        self._manifest()
        return report_path

    def _manifest(self):
        import platform

        import numpy
        import scipy

        from . import __version__, backend

        entries = {
            "task": self.task,
            "config_hash": _config_hash(self.cfg, self.task),
            "package_version": __version__,
            "python_version": platform.python_version(),
            "numpy_version": numpy.__version__,
            "scipy_version": scipy.__version__,
            "kernel_backend": backend(),
            "seed": _get(self.cfg, "output", "seed", 0),
            "jobs": _get(self.cfg, "output", "jobs", 0) or "unlimited",
            "repro": str(self.repro).lower(),
        }
        for name, value in sorted(self.tolerances.items()):
            entries[f"tolerance_{name}"] = _fmt(value)
        if not self.repro:
            import datetime

            entries["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        with open(os.path.join(self.outdir, "manifest.txt"), "w") as fh:
            for key in entries:
                fh.write(f"{key} = {entries[key]}\n")


def _plot_script(csv_name: str) -> str:
    return (
        "#!/usr/bin/env python3\n"
        '"""Log-log plot of the exported sequence."""\n'
        "import csv\n"
        "import sys\n"
        "\n"
        "import matplotlib.pyplot as plt\n"
        "\n"
        f"path = sys.argv[1] if len(sys.argv) > 1 else {csv_name!r}\n"
        "with open(path) as fh:\n"
        "    rows = list(csv.DictReader(fh))\n"
        "j = [int(r['j']) for r in rows]\n"
        "v = [abs(float(r['value'])) for r in rows]\n"
        "plt.loglog(j, v, marker='.', linestyle='none')\n"
        "plt.xlabel('j')\n"
        "plt.ylabel('value')\n"
        "plt.grid(True, which='both', alpha=0.3)\n"
        "plt.tight_layout()\n"
        "plt.show()\n"
    )


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_symbol_check(cfg, args, em: Emitter) -> list[str]:
    import numpy as np

    from .symbols import PrincipalSymbol, boundary_residuals, mu_transmission_residual

    coeffs = _build_coeffs(cfg)
    n = coeffs.n
    a = _get(cfg, "operator", "a", 1.0)
    mu = _get(cfg, "operator", "mu", a)
    samples = _get(cfg, "task", "samples", 16)
    seed = _get(cfg, "output", "seed", 0)
    rng = np.random.default_rng(seed)

    # one row per sample: the QR input, then x, then xi', as drawn one sample at a time
    draws = rng.standard_normal((samples, n * n + 2 * n - 1))
    frames, _ = np.linalg.qr(draws[:, : n * n].reshape(samples, n, n))
    points = draws[:, n * n : n * n + n]
    worst_fact = float(boundary_residuals(coeffs, points, frames, draws[:, n * n + n :]).max())
    symbol = PrincipalSymbol.from_coeffs(coeffs, power=a)
    worst_trans = mu_transmission_residual(symbol, mu, points, frames[:, :, -1])

    em.row("law", "abar_nn (xi_n - kappa+)(xi_n - kappa-) = a(xi', xi_n); p(-N) = exp(i pi (m - 2 mu)) p(N)")
    em.row("coefficients", coeffs.describe())
    em.row("power", a)
    em.row("reflection_order", mu)
    em.row("samples", samples)
    em.row("factorization_residual", worst_fact)
    em.row("transmission_residual", worst_trans)
    # console floor: roundoff-level residuals read as 0; report keeps full precision
    lines = [
        f"factorization residual = {0 if worst_fact < 1e-14 else f'{worst_fact:.6g}'}",
        f"transmission residual = {0 if worst_trans < 1e-14 else f'{worst_trans:.6g}'}",
    ]
    tol = _get(cfg, "task", "tol", 1e-8)
    em.tolerance("residual", tol)
    if args.check_tolerances and max(worst_fact, worst_trans) > tol:
        raise ToleranceFailure(f"symbol residuals exceed {tol:g}")
    return lines


def _cmd_weyl_const(cfg, args, em: Emitter) -> list[str]:
    from .errors import ConfigurationError
    from .quadrature import weyl_constant_dirichlet, weyl_constant_L, weyl_constant_M
    from .symbols import PrincipalSymbol

    which = _get(cfg, "task", "which", "dirichlet")
    level = _get(cfg, "task", "level", 0)
    if which in ("interface-l", "interface-m"):  # c(L) and c(M) read the coefficients alone
        for key in ("a", "kind"):
            if ("operator", key) in cfg:
                raise ConfigurationError(f"operator.{key} applies to --which dirichlet only, not {which}")
    domain = _build_domain(cfg, dirichlet=which == "dirichlet")
    coeffs = _build_coeffs(cfg, domain)

    if which == "dirichlet":
        a = _get(cfg, "operator", "a", 1.0)
        op_kind = _get(cfg, "operator", "kind", "frac-laplacian")
        if op_kind == "frac-laplacian" and coeffs.describe() != "identity":
            raise ConfigurationError(f"--op frac-laplacian is the power of the Laplacian, not of coefficients "
                                     f"{coeffs.describe()}: use --op coeffs")
        res = weyl_constant_dirichlet(PrincipalSymbol.from_coeffs(coeffs, power=a), domain, level=level)
        em.row("law", "N(t) ~ C' t^(n/(2a)) as t -> infinity")
        name = "C'"
    elif which == "interface-l":
        res = weyl_constant_L(coeffs, domain, level=level)
        em.row("law", "N_L(t) ~ c_L t^(-(n-1)) as t -> 0+")
        name = "c_L"
    else:
        res = weyl_constant_M(coeffs, domain, level=level)
        em.row("law", "N_M(t) ~ c_M t^(-(n-1)/2) as t -> 0+")
        name = "c_M"

    value = float(res.value)
    em.row("constant", value)
    em.row("estimated_error", float(res.error))
    if which == "dirichlet":
        em.row("operator", op_kind)
        em.row("power", a)
    em.row("domain", _get(cfg, "domain", "kind", "square"))
    return [f"{name} = {value:.6g}"]


def _cmd_spectrum(cfg, args, em: Emitter) -> list[str]:
    from .eig import lanczos_extreme, sym_eig
    from .errors import ConfigurationError

    count = _get(cfg, "task", "count", None)
    A, grid, a = _assemble_operator(cfg)
    if count is not None and count > A.shape[0]:
        raise ConfigurationError(f"task.count {count} exceeds the operator dimension {A.shape[0]}")
    spec = sym_eig(A) if count is None else lanczos_extreme(A, k=count)
    values = spec.values
    em.row("law", "lambda_j ascending; Weyl: lambda_j ~ C j^(2a/n)")
    em.row("operator", A.descriptor)
    em.row("power", a)
    em.row("count", int(values.size))
    em.row("lambda_min", float(values[0]))
    em.row("lambda_max", float(values[-1]))
    em.row("h", grid.h)
    for key, value in spec.meta.items():  # eig_path; max_residual where pairs were checked; the parity blocks
        em.row(key, value)
    em.sequence("spectrum-values", values)
    return [f"computed {values.size} eigenvalues in [{values[0]:.6g}, {values[-1]:.6g}]"]


def _load_csv_values(path):
    import numpy as np

    from .errors import ConfigurationError

    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1)
    except OSError as exc:
        raise ConfigurationError(f"cannot read input sequence: {exc}") from exc
    return data[:, 1] if data.ndim == 2 else data[1:]


def _cmd_weyl_fit(cfg, args, em: Emitter) -> list[str]:
    from .asymptotics import weyl_fit
    from .errors import ConfigurationError

    source = _get(cfg, "task", "input")
    if not source:
        raise ConfigurationError("weyl-fit fits a j,value file: set --input (spectrum writes spectrum-values.csv)")
    values = _load_csv_values(source)
    window = _get(cfg, "task", "window")
    fixed = _get(cfg, "task", "fixed_exponent", None)
    fit = weyl_fit(values, window=tuple(window) if window else None, fixed_exponent=fixed)

    em.row("law", "v_j ~ C j^e on the fit window")
    em.row("source", source)
    em.row("exponent", float(fit.exponent))
    em.row("constant", float(fit.constant))
    em.row("window_lo", fit.window[0])
    em.row("window_hi", fit.window[1])
    em.row("residual", float(fit.residual))
    em.row("fixed_exponent", fit.fixed_exponent)
    em.sequence("weyl-fit-values", values)
    lines = [f"exponent = {fit.exponent:.6g}", f"constant = {fit.constant:.6g}"]

    exp_target = _get(cfg, "task", "expect_exponent", None)
    const_target = _get(cfg, "task", "expect_constant", None)
    tol_e = _get(cfg, "task", "tol_exponent", 0.05)
    tol_c = _get(cfg, "task", "tol_constant", 0.15)
    if exp_target is not None:
        em.tolerance("exponent_rel", tol_e)
        em.row("expect_exponent", exp_target)
    if const_target is not None:
        em.tolerance("constant_rel", tol_c)
        em.row("expect_constant", const_target)
    if args.check_tolerances:
        if exp_target is not None and abs(fit.exponent - exp_target) > tol_e * abs(exp_target):
            raise ToleranceFailure(
                f"exponent {fit.exponent:.6g} outside {tol_e:.0%} of {exp_target:.6g}"
            )
        if const_target is not None and abs(fit.constant - const_target) > tol_c * abs(const_target):
            raise ToleranceFailure(
                f"constant {fit.constant:.6g} outside {tol_c:.0%} of {const_target:.6g}"
            )
    return lines


def _cmd_boundary_exp(cfg, args, em: Emitter) -> list[str]:
    from .asymptotics import boundary_exponent, ratio_trace_check
    from .eig import lanczos_extreme

    A, grid, a = _assemble_operator(cfg)
    ground = lanczos_extreme(A, k=1, want_vectors=True)
    u = ground.vectors[:, 0]
    band = _get(cfg, "task", "band")  # None: the default band of asymptotics._fit_band
    exponent = boundary_exponent(u, grid, band=band)
    threshold = _get(cfg, "task", "threshold", 0.5)
    ratio = ratio_trace_check(u, grid, a, band=band, threshold=threshold)

    em.row("law", "u(x) ~ dist(x)^a near the boundary")
    em.row("power", a)
    em.row("ground_energy", float(ground.values[0]))
    for key, value in ground.meta.items():
        em.row(key, value)
    em.row("exponent", float(exponent))
    em.row("band_lo", float(ratio.band[0]))
    em.row("band_hi", float(ratio.band[1]))
    em.row("ratio_near_max", float(ratio.near_max))
    em.row("ratio_band_max", float(ratio.max_ratio))
    em.row("ratio_nonvanishing", ratio.nonvanishing)
    lines = [
        f"boundary exponent = {exponent:.6g} (target {a:.6g})",
        f"weighted ratio nonvanishing = {ratio.nonvanishing}",
    ]
    tol = _get(cfg, "task", "tol", 0.1)
    em.tolerance("exponent_abs", tol)
    if args.check_tolerances and abs(exponent - a) > tol:
        raise ToleranceFailure(f"boundary exponent {exponent:.6g} not within {tol:g} of {a:g}")
    return lines


def _cmd_zaremba(cfg, args, em: Emitter) -> list[str]:
    import numpy as np

    from .discretize import OperatorMatrix
    from .errors import ConfigurationError
    from .zaremba import interface_spectra, krein_from_matrix, krein_identity_check

    if args.toy:
        # 2-node worked example: interior node coupled to one free
        # boundary node; every quantity is hand-checkable, and it reads no key outside [output]
        for section, key in sorted(cfg):
            if section != "output":
                raise ConfigurationError(f"{section}.{key} does not apply to --toy, which reads [output] keys only")
        toy = OperatorMatrix(
            np.array([[2.0, -1.0], [-1.0, 1.5]]),
            meta={"row_sets": {"interior": [0], "sigma_plus": [1]}, "h": 1.0},
        )
        rep = krein_identity_check(krein_from_matrix(toy))
        mu = float(rep.mu_identity[0])
        em.row("law", "nonzero spec(M) = spec(S^-1 (K^T K + I))")
        em.row("mu_1", mu)
        em.row("krein_path", "assembled")
        _identity_rows(em, rep)
        return [
            f"M eigenvalue = {mu:.6g}",
            f"identity mismatch = {rep.max_rel_mismatch:.6g}",
        ]

    domain = _build_domain(cfg)
    kind = _get(cfg, "domain", "kind", "square")
    for key in ("nodes",) if kind == "disk" else ("n_r", "n_theta"):  # the resolution keys this route does not read
        if ("grid", key) in cfg:
            raise ConfigurationError(f"grid.{key} does not apply to the {kind} domain: the disk reads "
                                     "grid.n_r and grid.n_theta, the other domains grid.nodes")
    tol = _get(cfg, "task", "tol", 1e-10)
    em.tolerance("identity_rel", tol)
    res = interface_spectra(_build_coeffs(cfg, domain), _get(cfg, "operator", "sigma", 0.0), domain,
                            _get(cfg, "grid", "nodes", 16), _get(cfg, "grid", "n_r", 64),
                            _get(cfg, "grid", "n_theta", 128), _get(cfg, "operator", "shift", "auto"))
    rep = res.identity
    em.row("law", "nonzero spec(M) = spec(S^-1 (K^T K + I)); mu_j(M) ~ c j^(-2/(n-1))")
    for key, value in res.report.items():
        em.row(key, value)
    _identity_rows(em, rep)
    em.sequence("zaremba-mu", res.mu)
    em.sequence("zaremba-interface", res.interface)
    if rep is None:
        return [f"computed {res.mu.size} weighted interface eigenvalues (mode route; identity check not run)"]
    if args.check_tolerances and rep.max_rel_mismatch > tol:
        raise ToleranceFailure(f"Krein identity mismatch {rep.max_rel_mismatch:.3g} exceeds {tol:g}")
    return [f"identity mismatch = {rep.max_rel_mismatch:.6g}", f"computed {res.mu.size} weighted interface eigenvalues"]


def _identity_rows(em: Emitter, rep) -> None:
    """The certificate rows of a Krein identity report, or not_run without one."""
    em.row("identity_check", "not_run" if rep is None else "run")
    if rep is not None:
        em.row("identity_mismatch", float(rep.max_rel_mismatch))
        em.row("identity_residual", rep.residual)
        em.row("rank_bound_ok", rep.rank_bound_ok)


def _cmd_dtn_probe(cfg, args, em: Emitter) -> list[str]:
    import numpy as np

    from .zaremba import dtn_symbol_probe

    coeffs = _build_coeffs(cfg)
    xi = _get(cfg, "task", "xi", [1.0, 2.0, 3.0])
    h = _get(cfg, "grid", "h", 1.0 / 128.0)
    rep = dtn_symbol_probe(coeffs, xi, h=h)

    em.row("law", "p_dtn(xi') = -kappa0(xi') to principal order")
    em.row("h", h)
    em.row("rows", rep.meta["rows"])
    for k, x in enumerate(rep.xi):
        em.row(f"xi_{k+1}", float(x))
        em.row(f"measured_{k+1}", float(rep.measured[k]))
        em.row(f"predicted_{k+1}", float(rep.predicted[k]))
        em.row(f"rel_error_{k+1}", float(rep.rel_errors[k]))
    worst = float(np.max(rep.rel_errors))
    em.row("max_rel_error", worst)
    tol = _get(cfg, "task", "tol", 0.10)
    em.tolerance("symbol_rel", tol)
    if args.check_tolerances and worst > tol:
        raise ToleranceFailure(f"interface symbol off by {worst:.3g} > {tol:g}")
    return [f"max relative symbol error = {worst:.6g} over {len(xi)} frequencies"]


def _cmd_singular_probe(cfg, args, em: Emitter) -> list[str]:
    import numpy as np

    from .asymptotics import log_divergence_probe

    decay = _get(cfg, "task", "decay", "harmonic")
    deltas = _get(cfg, "task", "deltas")
    if deltas is None:
        deltas = np.geomspace(0.3, 1e-3, 25)
    probe = log_divergence_probe(1.0, np.asarray(deltas, dtype=float), decay=decay)

    tol = _get(cfg, "task", "tol", 0.05)
    divergent = (not probe.degenerate) and abs(probe.slope - 1.0) <= tol
    em.row("law", "I(delta) ~ ||psi||^2 |log delta| as delta -> 0+")
    em.row("decay", decay)
    em.row("normalized_slope", float(probe.slope))
    em.row("norm_sq", float(probe.norm_sq))
    em.row("degenerate", bool(probe.degenerate))
    em.row("divergent", divergent)
    em.sequence("singular-probe-values", probe.integrals)
    em.tolerance("slope_abs", tol)
    if args.check_tolerances and abs(probe.slope - 1.0) > tol:
        raise ToleranceFailure(f"log slope {probe.slope:.4g} not within {tol:g} of 1")
    return [f"normalized log slope = {probe.slope:.6g} (divergent = {divergent})"]


_HANDLERS = {
    "symbol-check": _cmd_symbol_check,
    "weyl-const": _cmd_weyl_const,
    "spectrum": _cmd_spectrum,
    "weyl-fit": _cmd_weyl_fit,
    "boundary-exp": _cmd_boundary_exp,
    "zaremba": _cmd_zaremba,
    "dtn-probe": _cmd_dtn_probe,
    "singular-probe": _cmd_singular_probe,
}


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracspec",
        description="Spectral pipelines for fractional and mixed-boundary elliptic operators.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, summary in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=summary, allow_abbrev=False)  # exact flags only
        p.add_argument("--config", help="INI-style config file")
        if name not in ("weyl-const", "spectrum"):  # the others check a tolerance
            p.add_argument("--assert", dest="check_tolerances", action="store_true",
                           help="exit 4 when a tolerance is violated")
        if name == "zaremba":
            p.add_argument("--toy", action="store_true", help="run the 2-node worked example")
        for _, _, flag, typ, subcommands, text in OPTIONS:
            if name not in subcommands:
                continue
            if typ is _bool:
                p.add_argument(flag, action="store_const", const="true", help=text)
            elif isinstance(typ, tuple):
                p.add_argument(flag, choices=typ, help=text)
            else:  # numbers parse as numbers here; limits and list lengths are checked in execute
                p.add_argument(flag, type=int if isinstance(typ, _Int) else typ if typ in (int, float) else None,
                               help=text)
    return parser


def execute(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    from .errors import ConfigurationError, NumericError

    try:
        cfg = _merge_flags(_load_config_file(args.config) if args.config else {}, args)
        for section, key in cfg:  # every value, read or not, is checked before any run
            _get(cfg, section, key)
        jobs = _get(cfg, "output", "jobs")
        if jobs:  # before any handler loads the numeric stack
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
                os.environ[var] = str(jobs)
        repro = _get(cfg, "output", "repro", False)
        outdir = _resolve_outdir(cfg, args)
        em = Emitter(outdir, args.subcommand, cfg, repro)
        lines = _HANDLERS[args.subcommand](cfg, args, em)
        em.write()
        for line in lines:
            print(line)
        return 0
    except ToleranceFailure as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return 4
    except (ConfigurationError, configparser.Error, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
