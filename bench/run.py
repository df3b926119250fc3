"""eqlines benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
./src. Workloads: wh_chain, rational_lex, cyclo_wh3, seidel_gram (see
bench/README.md). The seed generates every input: one round of
instances, repeated until the next repeat would overrun --seconds;
outputs are checked against independent references outside the timed
region. `attempted` counts the instances of the round, `failed` those
that failed in any repeat.

With --trace 0 the result holds the end-to-end metrics, with --trace 1
the per-layer metrics from spans and cProfile. The last line of
standard output is the JSON result; the lines before it repeat each
metric with its unit and stamp the environment.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("wh_chain", "rational_lex", "cyclo_wh3", "seidel_gram")
SETUP_SAMPLES = 11
PROBE_TIMEOUT = 60

END_TO_END = {
    "verified_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sicgen.gen_s": "s",
    "sicgen.equations": "count",
    "groebner.basis_s": "s",
    "groebner.pairs": "count",
    "groebner.basis_size": "count",
    "groebner.pairs_per_s": "1/s",
    "groebner.qdim_s": "s",
    "groebner.budget_exhausted": "count",
    "polyring.reduce_poly.calls": "count",
    "polyring.reduce_poly_s": "s",
    "polyring.s_polynomial.calls": "count",
    "polyring.self_s": "s",
    "exact.cyclo_mul.calls": "count",
    "exact.cyclo_inverse.calls": "count",
    "exact.upoly_mul.calls": "count",
    "exact.upoly_divmod.calls": "count",
    "exact.self_s": "s",
    "exact.fraction_s": "s",
    "solver.solve_s": "s",
    "solver.points": "count",
    "solver.points_per_expected": "ratio",
    "solver.root_calls": "count",
    "solver.root_retries": "count",
    "solver.classify_s": "s",
    "solver.zauner_s": "s",
    "mpmath.self_s": "s",
    "verify.fiducial_s": "s",
    "verify.gram_s": "s",
    "verify.spectral_s": "s",
    "verify.real_s": "s",
    "cli.gen_s": "s",
    "cli.groebner_s": "s",
    "cli.solve_s": "s",
    "cli.verify_s": "s",
    "cli.overlaps_s": "s",
    "cli.bytes_out": "B",
    "trace.overhead_frac": "ratio",
}

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_environment():
    """One BLAS thread, and no basis cache so every basis is computed."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("EQLINES_CACHE_DIR", None)


def setup_sample(src, warm):
    out = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(src), json.dumps(warm)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT, check=True,
    )
    return float(out.stdout.split()[0])


def stamp():
    import mpmath
    import numpy

    return (
        f"# python {platform.python_version()} | mpmath {mpmath.__version__} "
        f"backend {mpmath.libmp.BACKEND} | numpy {numpy.__version__} | "
        f"nproc {len(os.sched_getaffinity(0))} | blas threads 1 | "
        f"EQLINES_CACHE_DIR unset"
    )


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def end_to_end(rec, setup):
    """Gated metrics, and the lines that report the timings."""
    import harness

    samples = rec.samples
    walls = [s.seconds for s in samples]
    cpus = [s.cpu for s in samples]
    lines = [f"  instances: {rec.round_size} per round, {len(samples)} timed "
             f"in {len(rec.untraced_walls)} repeat(s) of the round"]
    by_label = {}
    for s in samples:
        by_label.setdefault(s.label, []).append(s.cpu)
    lines += [f"    {label}: {len(ts)} x, median {statistics.median(ts):.4f} CPU s"
              for label, ts in by_label.items()]
    rounds = len(rec.untraced_walls)
    lines += [
        f"  cpu_s {statistics.median(rec.untraced_cpu)!r} s (median of {rounds} repeats, not gated)",
        f"  instance_cpu_p50_s {statistics.median(cpus)!r} s (n={len(cpus)}, not gated)",
        f"  wall_s {statistics.median(rec.untraced_walls)!r} s (median of {rounds} repeats, not gated)",
        f"  instance_p50_s {statistics.median(walls)!r} s (n={len(walls)}, not gated)",
    ]
    tail = harness.tail_percentile(walls)
    if tail:
        lines.append(f"  instance_tail_s {tail[1]!r} s (p{tail[0]} of {len(walls)}, not gated)")
    else:
        lines.append(f"  instance_tail_s omitted: {len(walls)} instances, "
                     "fewer than 10 beyond any percentile from p50 up")
    failed = len(rec.failed_instances(traced=False))
    metrics = {
        "verified_frac": (rec.round_size - failed) / rec.round_size,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    return metrics, lines


def write_spans(root, name, seed, tracer):
    out = root / ".bench_traces"
    out.mkdir(exist_ok=True)
    path = out / f"{name}-{seed}.jsonl"
    with path.open("w") as fh:
        for rec in tracer.spans:
            fh.write(json.dumps(rec) + "\n")
    return path


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "eqlines" / "__init__.py").is_file():
        print(f"error: no eqlines sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(src))
    import harness
    import setup_probe

    wl = importlib.import_module(args.workload)
    setup = [setup_sample(src, wl.WARM) for _ in range(SETUP_SAMPLES)]
    setup_probe.warm(wl.WARM)

    workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=root))
    try:
        if hasattr(wl, "WORKDIR"):
            wl.WORKDIR = workdir
        rec, tracer, profile = harness.run_rounds(wl, args.seed, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(stamp())
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} | closed loop, 1 instance in flight")
    every = rec.samples + rec.traced_samples
    shown = set()
    for s in every:
        if s.status != "ok" and (s.index, s.status, s.reason) not in shown:
            shown.add((s.index, s.status, s.reason))
            print(f"  {s.status}: instance {s.index} {s.label} ({s.seconds:.3f} s) {s.reason}")
    e2e, notes = end_to_end(rec, setup)
    if args.trace:
        metrics = harness.layer_metrics(rec, tracer, profile)
        units = PER_LAYER
        notes.append(f"  spans written to {write_spans(root, args.workload, args.seed, tracer)}")
    else:
        metrics, units = e2e, END_TO_END
    for line in notes:
        print(line)
    for name, value in metrics.items():
        print(f"  {name} {value!r} {units[name]}")
    result = {
        "correct": not any(s.status == "wrong" for s in every),
        "attempted": rec.round_size,
        "failed": len(rec.failed_instances()),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
