"""Run one fedassoc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-proposed --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the package is imported from ./src.
With --trace 0 the run measures the end-to-end metrics; with --trace 1 it
reports per-layer metrics from a traced pass, next to an untraced pass (for
the tracing overhead) and a single-BLAS-thread run of the same workload. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give the run record
and every figure by name and unit. The exit code is 0 only when every output
check passed, and 2 on bad arguments or a missing source tree.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "_out"
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 100


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("train-proposed", "train-baselines", "eval-checkpoint"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--blas-threads", type=int, default=1,
        help="BLAS threads, capped at the CPUs this process may use (default 1)",
    )
    # Internal: a set-up probe stops before the first episode; a reference run
    # reports ts_per_s only, without set-up probes or the episode floor.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1 or args.blas_threads < 1:
        parser.error("--seed must be >= 0, --seconds and --blas-threads >= 1")
    return args


def pin_blas_threads(requested: int) -> int:
    """Set the BLAS thread count before numpy loads; never above nproc."""
    threads = min(requested, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


# --------------------------------------------------------------------------
# Run record
# --------------------------------------------------------------------------

def _blas_threads_in_effect():
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_revision():
    if not (ROOT / ".git").exists():
        return None, None
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return rev, bool(status.strip())


def run_record(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rev, dirty = _git_revision()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads_in_effect(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": rev,
        "git_dirty": dirty,
    }


# --------------------------------------------------------------------------
# Passes
# --------------------------------------------------------------------------

def _child(args, *extra) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # run() has killed the child and waited for it.
        return subprocess.CompletedProcess(cmd, -9, "", f"timed out after {CHILD_TIMEOUT_S} s")


def setup_samples(args, out) -> list[float]:
    """Process start to first episode, in fresh processes run one after another."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        proc = _child(args, "--blas-threads", str(args.blas_threads), "--setup-probe")
        if proc.returncode != 0:
            out.fail(1, f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def timed_pass(workloads, args, workdir, out=None, min_episodes=None):
    """Set up and run the workload once; returns its Outcome."""
    out = workloads.Outcome() if out is None else out
    min_episodes = workloads.MIN_EPISODES if min_episodes is None else min_episodes
    workload = workloads.make(args.workload, args.seed, args.seconds, workdir, min_episodes)
    try:
        workload.setup()
    except Exception as exc:
        out.attempted += 1
        out.fail(1, f"setup: {exc!r}")
        return out
    with workloads.EpisodeClock().installed() as clock:
        workload.run(out, clock)
    return out


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _median_ms(samples) -> float:
    return statistics.median(samples) * 1e3 if samples else 0.0


def end_to_end(out, setup_s) -> dict:
    return {
        "ts_per_s": _metric(out.ts_per_s, "1/s"),
        "setup_s": _metric(statistics.median(setup_s) if setup_s else 0.0, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }


def workload_figures(out) -> dict:
    """Figures too noisy to bound, or that exist on one workload only (zero elsewhere)."""
    import numpy as np

    episodes_ms = np.asarray(out.episode_s) * 1e3
    p50, p90 = np.percentile(episodes_ms, [50, 90]) if len(episodes_ms) else (0.0, 0.0)
    figures = {
        "episode_ms_p50": _metric(float(p50), "ms"),
        "episode_ms_p90": _metric(float(p90), "ms"),
    }
    for algo in ("cdrl", "imarl", "fmarl-avg"):
        figures[f"ts_per_s.{algo}"] = _metric(out.trainer_ts_per_s.get(algo, 0.0), "1/s")
    figures["checkpoint_save_ms"] = _metric(_median_ms(out.save_s), "ms")
    figures["checkpoint_load_ms"] = _metric(_median_ms(out.load_s), "ms")
    figures["checkpoint_mb"] = _metric(out.checkpoint_bytes / 1e6, "MB")
    return figures


def report(record, figures, out) -> None:
    print("record " + json.dumps(record, sort_keys=True))
    print(f"episodes {len(out.episode_s)}")
    for name, m in figures.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    rate = out.failed / out.attempted if out.attempted else 0.0
    print(f"error_rate {rate!r} ratio ({out.failed} of {out.attempted} operations failed)")
    for problem in out.problems:
        print(f"problem {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    args.blas_threads = pin_blas_threads(args.blas_threads)
    if not (SRC / "fedassoc" / "__init__.py").is_file():
        print(f"error: no fedassoc source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fedassoc
    import tracer as tracing
    import workloads

    if Path(fedassoc.__file__).resolve().parent != SRC / "fedassoc":
        print(f"error: fedassoc imported from {fedassoc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        if args.setup_probe:
            workloads.make(args.workload, args.seed, args.seconds, workdir).setup()
            print(repr(time.monotonic()))
            return 0
        if args.reference:
            out = timed_pass(workloads, args, workdir, min_episodes=1)
            metrics = {"ts_per_s": _metric(out.ts_per_s, "1/s")}
        else:
            record = run_record(args)
            if args.trace:
                out, metrics, figures = traced_run(args, workloads, tracing, workdir, record)
            else:
                out = workloads.Outcome(attempted=SETUP_SAMPLES)
                setup = setup_samples(args, out)
                print("setup_samples_s " + " ".join(f"{s:.4f}" for s in setup))
                timed_pass(workloads, args, workdir, out)
                metrics = end_to_end(out, setup)
                figures = {**metrics, **workload_figures(out)}
            report(record, figures, out)
        correct = out.failed == 0
        print(json.dumps({"correct": correct, "attempted": max(out.attempted, 1),
                          "failed": out.failed, "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_run(args, workloads, tracing, workdir, record):
    """Untraced, traced and untraced passes, then a two-BLAS-thread run.

    The untraced passes before and after the traced one cancel a steady drift
    of the host's speed out of the tracing overhead.
    """
    before = timed_pass(workloads, args, workdir / "before", min_episodes=1)
    tracer = tracing.Tracer(wide_width=workloads.envmod.EnvConfig().actions_per_agent ** 2)
    with tracer.installed():
        traced = timed_pass(workloads, args, workdir / "traced", min_episodes=1)
    after = timed_pass(workloads, args, workdir / "after", min_episodes=1)
    multi = _child(args, "--blas-threads", "2", "--reference")
    passes = (before, traced, after)
    out = workloads.Outcome(
        attempted=sum(p.attempted for p in passes) + 1,
        failed=sum(p.failed for p in passes),
        problems=[problem for p in passes for problem in p.problems],
        episode_s=before.episode_s,
    )
    untraced_ts_per_s = (before.ts_per_s + after.ts_per_s) / 2
    multi_ts_per_s = 0.0
    if multi.returncode == 0:
        multi_ts_per_s = json.loads(multi.stdout.splitlines()[-1])["metrics"]["ts_per_s"]["value"]
    else:
        out.fail(1, f"two-thread run exited {multi.returncode}: {multi.stderr.strip()[-300:]}")
    metrics = tracer.layer_metrics()
    metrics["trace.ts_per_s_ratio"] = _metric(
        traced.ts_per_s / untraced_ts_per_s if untraced_ts_per_s else 0.0, "ratio"
    )
    metrics["blas2.ts_per_s"] = _metric(multi_ts_per_s, "1/s")
    metrics.update(workload_figures(before))
    OUT.mkdir(parents=True, exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps(
        {"record": record, "metrics": metrics, "spans": tracer.spans()}, indent=1
    ) + "\n")
    figures = {
        "ts_per_s.untraced": _metric(untraced_ts_per_s, "1/s"),
        "ts_per_s.traced": _metric(traced.ts_per_s, "1/s"),
        **metrics,
    }
    print(f"trace written to {trace_file.relative_to(ROOT)}")
    return out, metrics, figures


if __name__ == "__main__":
    sys.exit(main())
