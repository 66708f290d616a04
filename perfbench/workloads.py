"""The benchmark's workloads: seeded inputs, question lists and answer checks.

Each workload is a fixed list of questions from the fracspec paper.  A
question is answered through ``fracspec.cli.execute(argv)`` or, where the
command line cannot express the input, through the public library call the
acceptance suite makes.  Problem sizes are fixed: the seed picks only the
coefficient matrices (SPD, eigenvalues in [1, 4]), the variable field's
parameters, the Robin weight and the symbol sample sets, so the work per
run does not depend on the seed.

Every answer is checked after the timed pass, against a closed form, an
exact identity, an independent reference sum over the package's public
quadrature rules, or the acceptance suite's bracket.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# questions call through the package modules, so a traced run sees every call
import fracspec.quadrature as quad
import fracspec.symbols as sym
from fracspec import cli
from fracspec.asymptotics import weyl_fit
from fracspec.quadrature import DomainSpec, sphere_rule
from fracspec.symbols import PrincipalSymbol, SecondOrderCoeffs

CLOSED_FORM_TOL = 1e-8  # criterion 03: quadrature constants against closed forms
REFERENCE_TOL = 1e-12  # same rules summed a second, independent way
RESIDUAL_TOL = 1e-12  # criteria 01 and 02
IDENTITY_TOL = 1e-10  # criterion 08
SAMPLES_PER_DIM = 5000  # 10^4 boundary samples over n = 2 and 3, as in criteria 01-02


# ---------------------------------------------------------------------------
# answers
# ---------------------------------------------------------------------------


@dataclass
class Answer:
    """What one question returned: a CLI exit code and output directory, or a value."""

    rc: int = 0
    outdir: str = ""
    task: str = ""
    value: object = None
    error: str = ""
    stderr: str = ""

    def report(self) -> dict:
        rows = {}
        with open(os.path.join(self.outdir, f"{self.task}-report.txt")) as fh:
            for line in fh:
                key, _, val = line.partition(" = ")
                rows[key] = val.rstrip("\n")
        return rows

    def number(self, key: str) -> float:
        return float(self.report()[key])

    def flag(self, key: str) -> bool:
        return self.report()[key] == "True"

    def sequence(self, name: str) -> np.ndarray:
        data = np.loadtxt(os.path.join(self.outdir, f"{name}.csv"), delimiter=",", skiprows=1, ndmin=2)
        return data[:, 1]

    def bytes_written(self) -> int:
        if not self.outdir or not os.path.isdir(self.outdir):
            return 0
        return sum(e.stat().st_size for e in os.scandir(self.outdir) if e.is_file())


@dataclass
class Question:
    """One paper question: CLI argv (given the output-directory lookup) or a library call."""

    name: str
    check: Callable[[Answer, dict], list]
    argv: Callable[[Callable[[str], str]], list] | None = None
    call: Callable[[], object] | None = None

    def ask(self, outdir_of: Callable[[str], str]) -> Answer:
        if self.argv is None:
            try:
                return Answer(value=self.call())
            except Exception as exc:  # a failed answer is counted, the run goes on
                return Answer(error=f"{type(exc).__name__}: {exc}")
        argv = self.argv(outdir_of) + ["--out", outdir_of(self.name), "--repro"]
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = cli.execute(argv)
        except Exception as exc:  # an unmapped error escaping the CLI is a failed answer
            return Answer(rc=1, outdir=outdir_of(self.name), task=argv[0], error=f"{type(exc).__name__}: {exc}")
        return Answer(rc=rc, outdir=outdir_of(self.name), task=argv[0], stderr=err.getvalue().strip())


@dataclass
class Workload:
    name: str
    questions: list
    notes: dict = field(default_factory=dict)  # reported values that are not gated

    def check(self, answers: dict) -> dict:
        """Failure messages per question name; an empty dict means every answer passed."""
        failures = {}
        for q in self.questions:
            ans = answers[q.name]
            if ans.error or ans.rc != 0:
                failures[q.name] = [ans.error or f"exit code {ans.rc}: {ans.stderr}"]
                continue
            try:
                msgs = q.check(ans, answers)
            except Exception as exc:  # unreadable or malformed output is a miss
                msgs = [f"check raised {type(exc).__name__}: {exc}"]
            if msgs:
                failures[q.name] = msgs
        return failures


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def _within(label: str, value: float, ref: float, tol: float) -> list:
    dev = _rel(value, ref)
    return [] if dev <= tol else [f"{label} {value!r} vs {ref!r}: relative deviation {dev:.3g} > {tol:g}"]


def _at_most(label: str, value: float, bound: float) -> list:
    return [] if value <= bound else [f"{label} {value:.6g} exceeds {bound:g}"]


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def random_orthogonal(rng, n: int, count: int | None = None) -> np.ndarray:
    """Haar-distributed orthogonal matrices by QR with the sign fix."""
    shape = (n, n) if count is None else (count, n, n)
    q, r = np.linalg.qr(rng.standard_normal(shape))
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    return q * signs[..., None, :]


def random_spd(rng, n: int, count: int | None = None) -> np.ndarray:
    """Symmetric matrices with eigenvalues drawn from [1, 4]."""
    q = random_orthogonal(rng, n, count)
    lam = rng.uniform(1.0, 4.0, size=q.shape[:-1])
    mats = np.einsum("...ij,...j,...kj->...ik", q, lam, q)
    return 0.5 * (mats + np.swapaxes(mats, -1, -2))


def matrix_arg(a: np.ndarray) -> str:
    """CLI text form of a coefficient matrix; repr keeps every digit."""
    return "matrix:" + ";".join(",".join(repr(float(v)) for v in row) for row in a)


class SmoothField:
    """A(x) = Q diag(2.5 + amp sin(K x + phi)) Q^T: smooth, symmetric, eigenvalues in [1, 4]."""

    def __init__(self, rng, n: int = 3):
        self.q = random_orthogonal(rng, n)
        self.k = rng.uniform(-2.0, 2.0, size=(n, n))
        self.phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
        self.amp = rng.uniform(0.5, 1.5, size=n)

    def __call__(self, x):
        lam = 2.5 + self.amp * np.sin(self.k @ x + self.phi)
        return (self.q * lam) @ self.q.T

    def batch(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation, used only by the reference sums."""
        lam = 2.5 + self.amp * np.sin(pts @ self.k.T + self.phi)
        return np.einsum("ij,kj,lj->kil", self.q, lam, self.q)


def boundary_samples(rng, n: int, count: int):
    """Coefficient matrices, orthonormal frames and covectors for criteria 01-02."""
    return (
        random_spd(rng, n, count),
        random_orthogonal(rng, n, count),
        rng.standard_normal((count, n - 1)),
        rng.standard_normal(count),
    )


# ---------------------------------------------------------------------------
# independent reference sums over the public rules
# ---------------------------------------------------------------------------

_REF_CHUNK = 256  # rows per block; keeps the reference's working set below the questions'


def _outer_rows(dirs: np.ndarray) -> np.ndarray:
    return (dirs[:, :, None] * dirs[:, None, :]).reshape(dirs.shape[0], -1)


def dirichlet_reference(mats_at, domain: DomainSpec, level: int) -> float:
    """C' as a blocked GEMM over volume_rule x sphere_rule: (x.A x)^(-n/2) summed."""
    n = domain.n
    pts, wx = domain.volume_rule(level)
    rule = sphere_rule(n, level)
    outer = _outer_rows(rule.nodes)
    total = 0.0
    for lo in range(0, pts.shape[0], _REF_CHUNK):
        mats = mats_at(pts[lo : lo + _REF_CHUNK]).reshape(-1, n * n)
        q = mats @ outer.T
        total += float(wx[lo : lo + _REF_CHUNK] @ (q ** (-0.5 * n) @ rule.weights))
    return total / (n * (2.0 * np.pi) ** n)


def boundary_reference(mats_at, domain: DomainSpec, level: int, which: str) -> float:
    """c(L) or c(M) as a blocked GEMM over boundary_rule x sphere_rule."""
    n = domain.n
    pts, frames, wx = domain.boundary_rule("sigma_plus", level)
    rule = sphere_rule(n - 1, level)
    dirs = rule.nodes
    outer = _outer_rows(dirs)
    total = 0.0
    for lo in range(0, pts.shape[0], _REF_CHUNK):
        fr = frames[lo : lo + _REF_CHUNK]
        red = np.matmul(np.swapaxes(fr, 1, 2), np.matmul(mats_at(pts[lo : lo + _REF_CHUNK]), fr))
        ann = red[:, n - 1, n - 1][:, None]
        b = red[:, : n - 1, n - 1] @ dirs.T
        c = red[:, : n - 1, : n - 1].reshape(red.shape[0], -1) @ outer.T
        ap = ann * c - b * b
        vals = ap ** (-0.5 * (n - 1)) if which == "L" else (ann / (2.0 * ap)) ** (0.5 * (n - 1))
        total += float(wx[lo : lo + _REF_CHUNK] @ (vals @ rule.weights))
    return total / ((n - 1) * (2.0 * np.pi) ** (n - 1))


def _constant(a: np.ndarray):
    return lambda pts: np.broadcast_to(a, (pts.shape[0],) + a.shape)


# ---------------------------------------------------------------------------
# workload: quadrature
# ---------------------------------------------------------------------------


def quadrature(seed: int) -> Workload:
    """Symbols, quadrature and kernels; no grid and no eigensolve.

    The constant-coefficient steps exercise the shortcut a constant
    integrand allows; the variable-field steps cannot take it.  Level -1
    runs the same code as level 0 at a size that fits many runs.
    """
    rng = np.random.default_rng(seed)
    a3 = random_spd(rng, 3)
    fld = SmoothField(rng)
    samples = {n: boundary_samples(rng, n, SAMPLES_PER_DIM) for n in (2, 3)}
    check_seed = int(rng.integers(0, 2**31 - 1))
    coeffs_arg = matrix_arg(a3)
    references = {
        "interface-l": lambda: boundary_reference(_constant(a3), DomainSpec.ball(), 1, "L"),
        "interface-m": lambda: boundary_reference(_constant(a3), DomainSpec.ball(), 1, "M"),
        "variable-box": lambda: dirichlet_reference(fld.batch, DomainSpec.unit_box(), -1),
        "variable-ball": lambda: dirichlet_reference(fld.batch, DomainSpec.ball(), -1),
        "variable-cap-m": lambda: boundary_reference(fld.batch, DomainSpec.ball(), 1, "M"),
    }
    # computed on first use, after the first timed pass, and kept for the later passes
    reference = functools.cache(lambda name: references[name]())

    ball_closed = 2.0 / (9.0 * math.pi)  # |B| sigma(S^2) / (3 (2 pi)^3)
    box_closed = 4.0 * math.pi / (3.0 * (2.0 * math.pi) ** 3 * math.sqrt(np.linalg.det(a3)))

    def weyl_const(*extra):
        return lambda out: ["weyl-const", *extra]

    def var_coeffs():
        return SecondOrderCoeffs(3, a=fld)

    def tangential():
        worst = 0.0
        for n, (mats, frames, xips, _xins) in samples.items():
            xidps = xips[:, : n - 2]
            for k in range(mats.shape[0]):
                co = SecondOrderCoeffs(n=n, a=mats[k])
                bf = sym.tangential_factorization(co, np.zeros(n), frames[k], xidps[k])
                worst = max(worst, bf.tangential_residual)
        return worst

    def factorization():
        return max(float(sym.factorization_residuals(*samples[n])[2].max()) for n in (2, 3))

    questions = [
        Question(
            "weyl-ball",
            argv=weyl_const("--op", "frac-laplacian", "--a", "0.5", "--domain", "ball", "--n", "3", "--level", "-1"),
            check=lambda ans, _: _within("C'", ans.number("constant"), ball_closed, CLOSED_FORM_TOL),
        ),
        Question(
            "weyl-box-coeffs",
            argv=weyl_const("--op", "coeffs", "--coeffs", coeffs_arg, "--a", "0.5", "--domain", "box", "--level", "-1"),
            check=lambda ans, _: _within("C'", ans.number("constant"), box_closed, CLOSED_FORM_TOL),
        ),
        Question(
            "interface-l",
            argv=weyl_const("--which", "interface-l", "--coeffs", coeffs_arg, "--domain", "ball", "--level", "1"),
            check=lambda ans, _: _within("c_L", ans.number("constant"), reference("interface-l"), REFERENCE_TOL),
        ),
        Question(
            "interface-m",
            argv=weyl_const("--which", "interface-m", "--coeffs", coeffs_arg, "--domain", "ball", "--level", "1"),
            check=lambda ans, _: _within("c_M", ans.number("constant"), reference("interface-m"), REFERENCE_TOL),
        ),
        Question(
            "variable-box",
            call=lambda: quad.weyl_constant_dirichlet(
                PrincipalSymbol.from_coeffs(var_coeffs(), 0.5), DomainSpec.unit_box(), level=-1
            ),
            check=lambda ans, _: _within("C'", ans.value.value, reference("variable-box"), REFERENCE_TOL),
        ),
        Question(
            "variable-ball",
            call=lambda: quad.weyl_constant_dirichlet(
                PrincipalSymbol.from_coeffs(var_coeffs(), 0.5), DomainSpec.ball(), level=-1
            ),
            check=lambda ans, _: _within("C'", ans.value.value, reference("variable-ball"), REFERENCE_TOL),
        ),
        Question(
            "variable-cap-m",
            call=lambda: quad.weyl_constant_M(var_coeffs(), DomainSpec.ball(), level=1),
            check=lambda ans, _: _within("c_M", ans.value.value, reference("variable-cap-m"), REFERENCE_TOL),
        ),
        Question(
            "symbol-check",
            argv=lambda out: ["symbol-check", "--coeffs", coeffs_arg, "--n", "3", "--samples", "2000",
                              "--seed", str(check_seed)],
            check=lambda ans, _: (
                _at_most("factorization residual", ans.number("factorization_residual"), RESIDUAL_TOL)
                + _at_most("transmission residual", ans.number("transmission_residual"), RESIDUAL_TOL)
            ),
        ),
        Question(
            "factorization-residuals",
            call=factorization,
            check=lambda ans, _: _at_most("max residual", ans.value, RESIDUAL_TOL),
        ),
        Question(
            "tangential-factorization",
            call=tangential,
            check=lambda ans, _: _at_most("max tangential residual", ans.value, RESIDUAL_TOL),
        ),
    ]
    return Workload("quadrature", questions)


# ---------------------------------------------------------------------------
# workloads: frac-weyl and frac-ground
# ---------------------------------------------------------------------------

# companion constants C = C'^(-2a/n) of the half-Laplacian, C' = |Omega| sigma(S^{n-1}) / (n (2 pi)^n)
SQUARE_C = (4.0 * math.pi) ** 0.5
BOX_C = (6.0 * math.pi**2) ** (1.0 / 3.0)


def _spectrum(domain: str, nodes: int, *extra):
    return lambda out: ["spectrum", "--coeffs", "identity", "--a", "0.5", "--domain", domain,
                        "--nodes", str(nodes), *extra]


def _count_is(expected: int):
    return lambda ans, _: [] if int(ans.number("count")) == expected else [
        f"exported {ans.number('count'):g} eigenvalues, expected {expected}"
    ]


def frac_weyl(seed: int) -> Workload:
    """Full dense spectra of restricted half-Laplacians, then Weyl fits (criterion 04).

    The whole spectrum is the answer, so neither a few-pairs nor a
    matrix-free path can serve it.  The identity form leaves the seed
    nothing to pick here.
    """
    del seed

    def fit(source: str, fixed: float | None):
        def argv(out):
            base = ["weyl-fit", "--input", os.path.join(out(source), "spectrum-values.csv")]
            return base + (["--fixed-exponent", repr(fixed)] if fixed is not None else [])
        return argv

    def exponent_near(target):
        return lambda ans, _: [] if _rel(ans.number("exponent"), target) <= 0.05 else [
            f"free exponent {ans.number('exponent'):.6g} not within 5% of {target:.6g}"
        ]

    def constant_near(target):
        return lambda ans, _: [] if _rel(ans.number("constant"), target) <= 0.15 else [
            f"constant {ans.number('constant'):.6g} not within 15% of {target:.6g}"
        ]

    questions = [
        Question("spectrum-square", argv=_spectrum("square", 64), check=_count_is(63**2)),
        Question("spectrum-box", argv=_spectrum("box", 16), check=_count_is(15**3)),
        Question("fit-square-free", argv=fit("spectrum-square", None), check=exponent_near(0.5)),
        Question("fit-square-fixed", argv=fit("spectrum-square", 0.5), check=constant_near(SQUARE_C)),
        Question("fit-box-free", argv=fit("spectrum-box", None), check=exponent_near(1.0 / 3.0)),
        Question("fit-box-fixed", argv=fit("spectrum-box", 1.0 / 3.0), check=constant_near(BOX_C)),
    ]
    return Workload("frac-weyl", questions)


def frac_ground(seed: int) -> Workload:
    """Few-pairs requests on dense restricted operators (criterion 06).

    Today each request pays for a dense eigensolve of the whole m x m
    operator.  The square exponent (0.601 at 64 nodes) is reported but not
    gated, as in the acceptance suite's strict expected failure.
    """
    del seed
    notes = {}

    def ground_energy_matches(ans, answers):
        first = float(ans.sequence("spectrum-values")[0])
        ground = answers["ground-square"].number("ground_energy")
        return _within("lambda_1 (full spectrum vs single pair)", first, ground, IDENTITY_TOL)

    def square_profile(ans, _):
        notes["square_exponent"] = ans.number("exponent")
        return [] if ans.flag("ratio_nonvanishing") else ["square compensated trace vanishes"]

    def interval_profile(ans, _):
        e = ans.number("exponent")
        msgs = [] if 0.4 <= e <= 0.6 else [f"interval exponent {e:.4f} outside [0.4, 0.6]"]
        return msgs + ([] if ans.flag("ratio_nonvanishing") else ["interval compensated trace vanishes"])

    def boundary_exp(domain, nodes):
        return lambda out: ["boundary-exp", "--coeffs", "identity", "--a", "0.5", "--domain", domain,
                            "--nodes", str(nodes)]

    questions = [
        Question("spectrum-count", argv=_spectrum("square", 64, "--count", "40"),
                 check=lambda ans, answers: _count_is(40)(ans, answers) + ground_energy_matches(ans, answers)),
        Question("ground-square", argv=boundary_exp("square", 64), check=square_profile),
        Question("ground-interval", argv=boundary_exp("interval", 2048), check=interval_profile),
    ]
    return Workload("frac-ground", questions, notes)


# ---------------------------------------------------------------------------
# workload: krein
# ---------------------------------------------------------------------------


def _fit_window(values: np.ndarray, window: tuple, fixed: float | None = None):
    pos = values[values > 0]
    return weyl_fit(pos, window=window, fixed_exponent=fixed)


def krein(seed: int) -> Workload:
    """Sparse assembly, the Zaremba Schur algebra and eig (criteria 07-10).

    The box and square steps pay for the dense Schur and eigensolve chain;
    the disk fast path and the strip probe bypass it.
    """
    rng = np.random.default_rng(seed)
    sigma = float(rng.uniform(0.25, 2.0))
    dtn_forms = ["identity"] + [matrix_arg(random_spd(rng, 2)) for _ in range(2)]

    def identity_ok(ans, _):
        return (_at_most("identity mismatch", ans.number("identity_mismatch"), IDENTITY_TOL)
                + ([] if ans.flag("rank_bound_ok") else ["rank bound violated"]))

    def box_laws(ans, answers):
        msgs = identity_ok(ans, answers)
        free = _fit_window(ans.sequence("zaremba-mu"), (2, 12))
        if abs(free.exponent + 1.0) > 0.15:
            msgs.append(f"interface-term exponent {free.exponent:.4f} not within 0.15 of -1")
        lam = ans.sequence("zaremba-interface")
        recip = 1.0 / lam[lam > 0]
        target = (1.0 / (4.0 * math.pi)) ** 0.5  # c(L)^(1/2) for the Laplacian face
        grow = weyl_fit(recip, window=(2, 20))
        fixed = weyl_fit(recip, window=(2, 20), fixed_exponent=-0.5)
        if _rel(grow.exponent, -0.5) > 0.15:
            msgs.append(f"interface-operator exponent {grow.exponent:.4f} not within 15% of -0.5")
        if _rel(fixed.constant, target) > 0.30:
            msgs.append(f"interface-operator constant {fixed.constant:.5f} not within 30% of {target:.5f}")
        return msgs

    def disk_law(ans, _):
        mu = ans.sequence("zaremba-mu")
        free = _fit_window(mu, (8, 64))
        fixed = _fit_window(mu, (8, 64), -2.0)
        msgs = [] if _rel(free.exponent, -2.0) <= 0.10 else [f"disk exponent {free.exponent:.4f} not within 10% of -2"]
        return msgs + _at_most("disk fixed-law residual", fixed.residual, 0.15)

    def dtn(k, coeffs):
        return Question(
            f"dtn-probe-{k}",
            argv=lambda out: ["dtn-probe", "--coeffs", coeffs, "--xi", "1,2,3", "--h", repr(1.0 / 256.0)],
            check=lambda ans, _: _at_most("DtN relative error", ans.number("max_rel_error"), 0.10),
        )

    questions = [
        Question("zaremba-box", argv=lambda out: ["zaremba", "--coeffs", "identity", "--domain", "box",
                                                  "--nodes", "16"], check=box_laws),
        Question("zaremba-square", argv=lambda out: ["zaremba", "--coeffs", "identity", "--domain", "square",
                                                     "--nodes", "48", "--sigma", repr(sigma)], check=identity_ok),
        Question("zaremba-disk", argv=lambda out: ["zaremba", "--domain", "disk", "--n-r", "1024",
                                                   "--n-theta", "640"], check=disk_law),
        *(dtn(k, coeffs) for k, coeffs in enumerate(dtn_forms)),
    ]
    return Workload("krein", questions)


WORKLOADS = {
    "quadrature": quadrature,
    "frac-weyl": frac_weyl,
    "frac-ground": frac_ground,
    "krein": krein,
}
