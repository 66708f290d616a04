"""Write the benchmark's run record, perfbench/RECORD.json.

Runs ``run.py`` the way the benchmark is meant to be run, one fresh
process per run, from the repository root, for every workload of
``run.WORKLOAD_NAMES`` at seeds 1 to 10 and for the ``run_seconds`` of
BENCHMARK.json, and records:

* the machine: core count, CPU model, Python, numpy and scipy versions,
  the BLAS numpy reports, and the ``kernel_backend`` a CLI run writes into
  its manifest;
* the thread caps ``run.py`` sets and the seeds used;
* per workload, every end-to-end run and, for each metric, the median and
  the quartile spread (q3 - q1) / median over the runs;
* per workload, traced runs at two seeds and again at the first seed, with
  the checks that the work counts agree across the two seeds and that every
  count agrees between the two runs of the first seed.

Usage: python3 perfbench/record.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (sets no state on import)

KEY_COUNTS = ["quadrature.pairs", "eig.dense_n3", "discretize.dense_mb"]
SEEDS = list(range(1, 11))
# traced runs: two seeds, then the first again
TRACED_SEEDS = [SEEDS[0], SEEDS[1], SEEDS[0]]


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["notes"] = {}
    for line in lines:
        if line.startswith("# kernel backend: "):
            result["backend"] = line[len("# kernel backend: "):]
        if line.startswith("# reported, not gated: "):
            key, _, value = line[len("# reported, not gated: "):].partition(" = ")
            result["notes"][key] = float(value)
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']}", file=sys.stderr, flush=True)
    return result


def spread(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def machine() -> dict:
    cores = run.cap_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    import scipy

    from fracspec import cli

    outdir = os.path.join(run.OUT, "record-manifest")
    with contextlib.redirect_stdout(io.StringIO()):
        cli.execute(["singular-probe", "--out", outdir, "--repro"])
    with open(os.path.join(outdir, "manifest.txt")) as fh:
        manifest = dict(line.rstrip("\n").split(" = ", 1) for line in fh)
    cpu = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": cores,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "kernel_backend": manifest["kernel_backend"],
        "thread_caps": {var: str(cores) for var in run.THREAD_VARS},
    }


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    record = {"machine": machine(), "seeds": SEEDS, "seconds": seconds, "workloads": {}}
    import layers

    for w in run.WORKLOAD_NAMES:
        runs = [bench(w, s, seconds, 0) for s in SEEDS]
        metrics = {k: spread([r["metrics"][k]["value"] for r in runs]) for k in runs[0]["metrics"]}
        traced = [bench(w, s, seconds, 1) for s in TRACED_SEEDS]
        values = [{k: v["value"] for k, v in t["metrics"].items()} for t in traced]
        record["workloads"][w] = {
            "end_to_end_runs": [{"seed": s, "backend": r["backend"], "correct": r["correct"],
                                 "attempted": r["attempted"], "failed": r["failed"], "notes": r["notes"],
                                 **{k: v["value"] for k, v in r["metrics"].items()}}
                                for s, r in zip(SEEDS, runs)],
            "end_to_end": metrics,
            "traced_seeds": TRACED_SEEDS,
            "traced_correct": [t["correct"] for t in traced],
            "key_counts": {k: [v[k] for v in values] for k in KEY_COUNTS},
            "work_counts_equal_across_seeds": all(values[0][k] == values[1][k] for k in layers.WORK_COUNTS),
            "counts_equal_same_seed": all(values[0][k] == values[2][k] for k in layers.COUNTS),
            "per_layer": values,
        }
    with open(os.path.join(HERE, "RECORD.json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
