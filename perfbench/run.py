"""fracspec benchmark: answer one workload's paper questions, check them, print metrics.

Run from the repository root:

    python3 perfbench/run.py --workload quadrature --seed 1 --seconds 27 --trace 0

One process is one closed-loop client: it answers its workload's questions
one at a time, pass after pass, for as long as the next pass is expected to
end within ``--seconds`` (at least two passes).  Every answer of every pass
is checked after the pass, outside the timed region.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median over passes of the time to answer the question list;
* ``setup_s``: median over fresh child processes of the time from process
  start until the first question could be asked (imports and seeded inputs);
* ``peak_rss_mb``: peak resident set of this process;
* ``answers_ok_frac``: answers that passed their check over answers attempted.

``--trace 1`` runs two traced passes and reports the per-layer metrics of
``layers.PER_LAYER`` from the second.  The counts of the two passes must
agree exactly, and every layer in ``layers.USED_BY`` for the workload must
have recorded spans.  Spans and a per-function summary are written to
``perfbench/out``.  Every run prints the active kernel backend.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("quadrature", "frac-weyl", "frac-ground", "krein")  # keys of workloads.WORKLOADS
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_PASSES = 2
SETUP_PROBES = 3


def cap_threads() -> int:
    """Cap BLAS and OpenMP pools at the usable core count; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(cores)
    return cores


def set_up(workload: str, seed: int):
    """Import the program and its numeric stack, then generate the seeded inputs."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    import fracspec.asymptotics  # noqa: F401
    import fracspec.cli  # noqa: F401
    import fracspec.discretize  # noqa: F401
    import fracspec.eig  # noqa: F401
    import fracspec.zaremba  # noqa: F401
    import workloads

    return workloads.WORKLOADS[workload](seed)


def probe_setup(args) -> float:
    """Seconds from spawning a fresh process until it reports its set-up done."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait()
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"set-up probe failed with exit code {rc}")
    return elapsed


def run_pass(wl, pass_dir: str, tracer=None):
    """Answer every question once; returns (answers, per-question seconds, pass wall seconds)."""
    os.makedirs(pass_dir, exist_ok=True)

    def outdir_of(name):
        return os.path.join(pass_dir, name)

    answers, times = {}, {}
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        t_pass = time.perf_counter()
        for q in wl.questions:
            t0 = time.perf_counter()
            answers[q.name] = q.ask(outdir_of)
            times[q.name] = time.perf_counter() - t0
        wall = time.perf_counter() - t_pass
    finally:
        if tracer is not None:
            tracer.uninstall()
    return answers, times, wall


class Tally:
    """Answers attempted and failed over the whole run."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, answers, label):
        failures = self.wl.check(answers)
        self.attempted += len(answers)
        self.failed += len(failures)
        for name, msgs in failures.items():
            for msg in msgs:
                self.messages.append(f"{label} {name}: {msg}")


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def print_pass(label, times, wall):
    parts = ", ".join(f"{k} {v:.3f}" for k, v in times.items())
    print(f"# {label}: {wall:.3f} s ({parts})")


def measure_end_to_end(args, wl, work_dir, tally):
    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
    walls = []
    t_start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - t_start + statistics.median(walls) <= args.seconds:
        label = f"pass {len(walls) + 1}"
        pass_dir = os.path.join(work_dir, f"p{len(walls)}")
        answers, times, wall = run_pass(wl, pass_dir)
        walls.append(wall)
        print_pass(label, times, wall)
        tally.check(answers, label)
        shutil.rmtree(pass_dir, ignore_errors=True)
    print(f"# wall_s samples ({len(walls)} passes): {', '.join(f'{w:.4f}' for w in walls)}")
    print(f"# setup_s samples ({len(setups)} processes): {', '.join(f'{s:.4f}' for s in setups)}")
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "answers_ok_frac": (1.0 - tally.failed / tally.attempted, "ratio"),
    }


def measure_per_layer(args, wl, work_dir, tally):
    """Two traced passes over the same inputs: the second is reported, its counts must equal the first's."""
    import layers
    import spans

    span_cost = spans.calibrate()
    print(f"# calibrated cost of one span: {span_cost * 1e6:.3f} us")
    walls, results = [], []
    for label in ("traced pass 1", "traced pass 2"):
        tracer = spans.Tracer()
        layers.register(tracer)
        pass_dir = os.path.join(work_dir, label.replace(" ", "-"))
        answers, times, wall = run_pass(wl, pass_dir, tracer)
        print_pass(label, times, wall)
        tally.check(answers, label)
        walls.append(wall)
        written = sum(a.bytes_written() for a in answers.values())
        results.append(layers.per_layer(tracer, wall, span_cost, written))
        shutil.rmtree(pass_dir, ignore_errors=True)

    first, metrics = results
    for name in sorted(layers.COUNTS):
        if first[name] != metrics[name]:
            tally.failed += 1
            tally.messages.append(f"count {name} differs between traced passes: {first[name]!r} vs {metrics[name]!r}")
    spans_by_layer = layers.spans_by_layer(tracer)
    print(f"# spans by layer: {spans_by_layer}")
    for layer in layers.USED_BY[args.workload]:
        if not spans_by_layer[layer]:
            tally.failed += 1
            tally.messages.append(f"layer {layer} recorded no spans; its functions were not traced")

    never = tracer.never_called()
    print(f"# public functions never called ({len(never)}): {', '.join(never)}")
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"spans-{args.workload}")
    tracer.write(stem + ".tsv")
    with open(stem + "-summary.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "pass_walls_s": walls,
                   "span_cost_s": span_cost, "per_layer": metrics, "spans_by_layer": spans_by_layer,
                   "by_function": tracer.by_function(), "never_called": never}, fh, indent=1)
    units = dict(layers.PER_LAYER)
    return {name: (value, units[name]) for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cap_threads()
    wl = set_up(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    import fracspec

    print(f"# kernel backend: {fracspec.backend()}")

    tally = Tally(wl)
    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        if args.trace:
            metrics = measure_per_layer(args, wl, work_dir, tally)
        else:
            metrics = measure_end_to_end(args, wl, work_dir, tally)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for msg in tally.messages:
        print(f"# FAIL {msg}")
    for key, value in wl.notes.items():
        print(f"# reported, not gated: {key} = {value!r}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
