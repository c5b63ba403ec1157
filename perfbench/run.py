#!/usr/bin/env python3
"""Run one afrelay benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-default --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  With ``--trace 0`` the run reports the end-to-end metrics,
timed with nothing interposed.  With ``--trace 1`` it alternates
untraced units with units run under :class:`tracing.Tracer` and reports
the per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy is imported, here and in the
# set-up probes that inherit this environment.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("sweep-default", "design-fuzz", "oracle")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("draws_per_s", "1/s"),
    ("designs_per_s", "1/s"),
    ("design_ms_p50", "ms"),
    ("design_ms_p99", "ms"),
    ("peak_rss_mb", "MB"),
)
# Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 5
# Kernel probes before, between and after them (speed.py).
SETUP_PROBES = 20
# A run measures at least this many units of fixed work (of each kind
# when traced), even when they outlast --seconds.
MIN_UNITS = 3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _require_checkout() -> None:
    missing = [p for p in ("src/afrelay/__init__.py", "configs/default_sweep.json")
               if not (ROOT / p).is_file()]
    if missing:
        raise SystemExit(f"error: not an afrelay checkout, missing {', '.join(missing)} "
                         f"under {ROOT}")


def provenance(args) -> dict:
    """Code, toolchain, BLAS, threads and workload parameters of a run."""
    sha, dirty = None, None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=30).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):
        blas = {"name": None, "version": None}
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup(args, workdir: Path, probe) -> tuple[list[float], list[float]]:
    """Set-up times of SETUP_REPEATS fresh interpreters, in raw seconds
    and in seconds at the reference speed.

    Set-up is mostly imports, which track the kernel less closely than
    the timed parts do, so the scale is not taken per interpreter but
    from the median of all kernel times probed between them.
    """
    times = []
    for i in range(SETUP_REPEATS):
        for _ in range(SETUP_PROBES):
            probe.probe()
        probe_dir = workdir / f"setup{i}"
        probe_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--workdir", str(probe_dir)],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    for _ in range(SETUP_PROBES):
        probe.probe()
    scale = probe.overall_scale()
    return times, [t * scale for t in times]


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else float("nan")


def run(args) -> dict:
    """One benchmark run; returns the result object and prints a report."""
    _require_checkout()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads
    from speed import REF_KERNEL_S, SpeedProbe

    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_raw, setup = (measure_setup(args, workdir, SpeedProbe()) if args.trace == 0
                            else ([], []))
        wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, workdir)
        wl.warm_up()
        first = None
        fingerprints, plain, traced, part_reps, call_reps = [], [], [], [], []
        tracer = tracing.Tracer.for_package("afrelay")
        kinds = [plain, traced] if args.trace else [plain]
        start = perf_counter()
        while perf_counter() - start < args.seconds or min(map(len, kinds)) < MIN_UNITS:
            if args.trace and len(traced) < len(plain):
                with tracer:
                    t0 = perf_counter()
                    raw, _, _ = wl.run_unit()
                    traced.append(perf_counter() - t0)
            else:
                t0 = perf_counter()
                raw, parts, call_ms = wl.run_unit()
                plain.append(perf_counter() - t0)
                part_reps.append(parts)
                if args.trace == 0:
                    call_reps.append(wl.time_designs() if call_ms is None else call_ms)
            out = wl.collect(raw)
            if first is None:
                # Every unit repeats the first one's inputs and the
                # fingerprints below check that it repeats its outputs,
                # so operations are counted once, over distinct inputs.
                first = out
                attempted, failures = wl.operations(out)
            fingerprints.append(wl.fingerprint(out))
        checks = wl.check(first, fingerprints)
        failures.update(checks)
        correct = all(c.endswith(workloads.CHANCE_SUFFIX) for c in checks)
        # Every unit repeats identical work: each timed part counts at the
        # lower quartile of its repetitions, at the reference speed
        # (README, "Timing statistics").
        wall = sum(_percentile(times, 25) for times in zip(*part_reps))
        design_ms = [_percentile(times, 25) for times in zip(*call_reps)]
        if args.trace == 0:
            metrics = {
                "setup_s": statistics.median(setup),
                "wall_s": wall,
                "draws_per_s": wl.draws_per_unit / wall,
                "designs_per_s": wl.designs_per_unit / wall,
                "design_ms_p50": _percentile(design_ms, 50),
                "design_ms_p99": _percentile(design_ms, 99),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units_of = dict(END_TO_END)
        else:
            overhead = min(traced) / min(plain) - 1.0
            metrics = tracer.metrics(len(traced), overhead)
            units_of = dict(tracing.PER_LAYER)
        failed = sum(failures.values())
        kernel_s = wl.probe.samples
        detail = {
            "provenance": provenance(args),
            "params": wl.params,
            "units": {"untraced": len(plain), "traced": len(traced)},
            "unit_s": {"untraced": plain, "traced": traced},
            "setup_s_samples": setup,
            "setup_s_raw_samples": setup_raw,
            "speed_probe": {"ref_kernel_s": REF_KERNEL_S, "probes": len(kernel_s),
                            "kernel_s_min": min(kernel_s),
                            "kernel_s_median": statistics.median(kernel_s),
                            "kernel_s_max": max(kernel_s)},
            "design_ms_samples": len(design_ms),
            "fail_frac": failed / attempted if attempted else 0.0,
            "failures_by_cause": dict(sorted(failures.items())),
            "checks_failed": checks,
            "notes": wl.notes,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (HERE / "_work").rmdir()
        except OSError:
            pass

    for name, value in metrics.items():
        print(f"{args.workload}  {name:<55} {value:>14.6g} {units_of[name]}")
    print(f"{args.workload}  {'fail_frac':<55} {detail['fail_frac']:>14.6g} fraction "
          f"({failed} of {attempted})")
    if args.trace == 0:
        print(f"{args.workload}  design_ms percentiles over {detail['design_ms_samples']} "
              f"design() calls")
    print("detail " + json.dumps(detail, sort_keys=True))
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": units_of[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
