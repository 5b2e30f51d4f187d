#!/usr/bin/env python3
"""matchbalance benchmark: one workload per run, closed loop, one client.

    python3 bench/run.py --workload rate_large --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; the program is imported from its
``src`` directory.  The workload's leagues are generated from ``--seed``
by the benchmark's own code and handed to the program as CSV only.  Set-up
(imports, league generation, CSV writing, one warm-up call) is done
several times and timed; then passes of the workload's unit of work run
back to back until ``--seconds`` have elapsed, and every pass's outputs
are checked.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``).  The lines before it give the environment and every
timing as median, the highest percentile with at least ten samples
beyond it, and the sample count.  A traced run keeps its spans in memory
and writes them to ``.bench_work/`` at exit.  Exit code 0 means every
correctness gate held.
"""

import os
import sys

# The benchmark's own environment, fixed before numpy loads: one BLAS
# thread, because the bootstrap's worker threads already use the cores and
# a threaded BLAS under them oversubscribes (see bench/README.md).
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 7
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

# per-layer metric -> the span whose self time it sums per job
SPAN_OF = {
    "data.parse_s": "data.parse_matches",
    "data.filter_s": "data.filter_valid",
    "design.index_s": "design.build_parameter_index",
    "design.build_s": "design.build_design",
    "glm.fit_s": "glm.fit_irls",
    "glm.lasso_select_s": "glm.select_lambda_cv",
    "glm.lasso_final_s": "glm.fit_lasso",
    "predict.rank_s": "predict.rank_players",
    "jsonio.dumps_s": "jsonio.dumps",
    "report.build_s": "report.build_report",
    "bootstrap.balance_s": "bootstrap.bootstrap_balance",
    "bootstrap.draw.resample_s": "bootstrap.draw.resample",
    "bootstrap.draw.index_s": "bootstrap.draw.index",
    "bootstrap.draw.design_s": "bootstrap.draw.design",
    "bootstrap.draw.fit_s": "bootstrap.draw.fit",
    "bootstrap.draw.aggregate_s": "bootstrap.draw.aggregate",
    "diagnostics.cv_s": "diagnostics.k_fold_cv",
    "diagnostics.cv_fold_fit_s": "diagnostics.cv_fold_fit",
    "diagnostics.lrt_s": "diagnostics.lrt_vs_constant",
    "diagnostics.hl_s": "diagnostics.hosmer_lemeshow",
    "diagnostics.dispersion_s": "diagnostics.pearson_dispersion",
    "diagnostics.residuals_s": "diagnostics.residuals_vs_fitted",
    "simulate.generate_s": "simulate.generate",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_program() -> None:
    """Import matchbalance from this checkout's sources, and nowhere else."""
    if not (SRC / "matchbalance" / "__init__.py").is_file():
        raise SystemExit(f"error: no matchbalance sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import matchbalance

    if Path(matchbalance.__file__).resolve().parent != SRC / "matchbalance":
        raise SystemExit(f"error: imported matchbalance from {matchbalance.__file__}")


def import_time() -> float:
    """Time ``import matchbalance`` (numpy and scipy included) in a fresh interpreter."""
    probe = ("import time; t0 = time.perf_counter(); import matchbalance; "
             "print(time.perf_counter() - t0)")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return float(subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                                capture_output=True, text=True, timeout=120).stdout)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info.get('version', '')}".strip()
        except (TypeError, KeyError):
            return "unknown"

    cpu = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": blas(numpy),
        "blas_scipy": blas(scipy),
        "blas_threads": int(PINNED_ENV["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
    }


def summarize(samples):
    """(median, percentile or None, its value or None, sample count)."""
    import numpy

    n = len(samples)
    if n == 0:
        return 0.0, None, None, 0
    median = statistics.median(samples)
    for q in PERCENTILES:
        if n * (1.0 - q / 100.0) >= 10.0:
            return median, q, float(numpy.percentile(samples, q)), n
    return median, None, None, n


def layer_samples(name: str, tr) -> list[float]:
    span = SPAN_OF.get(name)
    if span is None and name.startswith("cli.") and name.endswith("_s"):
        span = name[:-2]
    if span is not None:
        return list(tr.by_job(span).values())
    return tr.counts.get(name, [])


def run(args):
    from spans import Tracer
    from workloads import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workdir = WORK / f"run_{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            imported = import_time()
            t0 = time.perf_counter()
            wl = WORKLOADS[args.workload](args.seed, workdir)
            wl.setup()
            setup_times.append(imported + time.perf_counter() - t0)

        tr = Tracer(bool(args.trace))
        attempted = failed = 0
        walls = []
        deadline = time.perf_counter() + args.seconds
        job = 0
        while True:
            tr.job = job
            overhead0 = tr.overhead_s
            c0, t0 = time.process_time(), time.perf_counter()
            a, f = wl.run_pass(job, tr)
            wall = time.perf_counter() - t0
            tr.count("run.cpu_s", time.process_time() - c0)
            tr.count("run.pass_s", wall)
            tr.count("run.tracing_overhead_s", tr.overhead_s - overhead0)
            walls.append(wall)
            attempted += a
            failed += f
            wl.verify(job, tr)
            job += 1
            if time.perf_counter() >= deadline:
                break
        wl.after_passes(job, tr)
        if args.trace:
            wl.extras(tr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.seed)
    print("env " + json.dumps(env))
    print(f"workload {wl.name}: {len(walls)} passes in {sum(walls):.3f} s "
          f"({', '.join(f'{w:.3f}' for w in walls)}), "
          f"closed loop, one client; ops_failed_frac {failed / attempted:.6g} "
          f"= {failed} failed / {attempted} {wl.unit} attempted")

    samples = {
        "setup_s": setup_times,
        "wall_s": walls,
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
    }
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    print(f"{'metric':34} {'median':>14} {'unit':6} {'high pct':>22} {'n':>7}")
    for decl in declared[kind]:
        name = decl["name"]
        values = samples[name] if name in samples else layer_samples(name, tr)
        median, q, high, n = summarize(values)
        metrics[name] = {"value": median, "unit": decl["unit"]}
        if n == 0:
            print(f"{name:34} {'not exercised by this workload':>44}")
            continue
        high_text = f"p{q:g} {high:.6g}" if q is not None else "-"
        print(f"{name:34} {median:14.6g} {decl['unit']:6} {high_text:>22} {n:7d}")
    if args.trace:
        wl.report_trace(tr)
        path = WORK / f"trace_{wl.name}_seed{args.seed}.json"
        tr.write(path, {"workload": wl.name, "env": env, "metrics": metrics})
        print(f"trace: {len(tr.spans)} spans written to {path.relative_to(ROOT)}")
    for problem in wl.problems:
        print(f"FAILED GATE: {problem}", file=sys.stderr)
    correct = not wl.problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  {**os.environ, **PINNED_ENV})
    args = parse_args(sys.argv[1:])
    load_program()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
