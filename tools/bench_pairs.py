#!/usr/bin/env python3
"""Run the benchmark on a parent tree and a changed tree in alternating pairs.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload train-proposed \\
        --seeds 1-10 [--record LABEL]

For each workload and seed, `python3 perfbench/run.py --workload W --seed S
--seconds N --trace 0` runs once in each tree, on that tree's own files and
with the tree as working directory. Odd seeds run the parent first, even
seeds the change. N is the `run_seconds` of BENCHMARK.json, the run length
the benchmark fixes. Each run prints a `record {...}` line, one
`name value unit` line per metric and a JSON result line last.

Each run's metrics gain three that move less with host load than wall time:
the user and system CPU seconds and the minor page faults of the run and of
the set-up probes it starts (`cpu_user_s`, `cpu_sys_s`, `minor_faults`).
BENCHMARK.json bounds none of them.

The table gives, per workload and metric, each side's median [q1, q3], the
change in the median, the pairs the change won (ties count for neither) and
the parent's interquartile range over its median. An end-to-end metric of
BENCHMARK.json is flagged WORSE when its median moved the wrong way by more
than its bound, and UNRESOLVED when the parent's IQR over its median is
wider than the bound. --record writes every run's record, metrics and result
and the table to BENCH_<date>_<label>.json at the root of this repository.
The exit code is 1 when a run failed or a metric is flagged WORSE, else 0.
"""

from __future__ import annotations

import argparse
import datetime
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# The getrusage field of each metric that run_once adds; lower is better.
RUSAGE_METRICS = {"cpu_user_s": "ru_utime", "cpu_sys_s": "ru_stime", "minor_faults": "ru_minflt"}


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '1,3,5-7' as a list of seeds."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def parse_run(stdout: str) -> dict:
    """The record, the `name value unit` metrics and the result line of one run."""
    run = {"record": None, "metrics": {}, "result": None}
    lines = stdout.strip().splitlines()
    for line in lines:
        if line.startswith("record "):
            run["record"] = json.loads(line.removeprefix("record "))
            continue
        parts = line.split()
        if len(parts) == 3:
            try:
                run["metrics"][parts[0]] = float(parts[1])
            except ValueError:
                pass
    if lines and lines[-1].startswith("{"):
        run["result"] = json.loads(lines[-1])
    return run


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One perfbench run, with the rusage of the run and its set-up probes."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    run = parse_run(proc.stdout)
    for name, field in RUSAGE_METRICS.items():
        run["metrics"][name] = float(getattr(after, field) - getattr(before, field))
    return {**run, "exit": proc.returncode}


def run_pairs(trees: dict, workloads, seeds, seconds: int, runner=run_once) -> list[dict]:
    """Every run, in the order run; odd seeds run the parent first."""
    runs = []
    for workload in workloads:
        for seed in seeds:
            for side in SIDES if seed % 2 else SIDES[::-1]:
                run = runner(trees[side], workload, seed, seconds)
                runs.append({"workload": workload, "seed": seed, "side": side, **run})
                print(f"{workload} seed {seed} {side}: exit {run['exit']}", file=sys.stderr)
    return runs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: list[dict], bench: dict) -> list[dict]:
    """One row per workload and metric that some run reported as non-zero."""
    better = {name: "lower" for name in RUSAGE_METRICS}
    better.update((m["name"], m["better"]) for m in bench["end_to_end"] + bench["per_layer"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    rows = []
    for workload in dict.fromkeys(run["workload"] for run in runs):
        by_seed = {}
        for run in runs:
            if run["workload"] == workload:
                by_seed.setdefault(run["seed"], {})[run["side"]] = run["metrics"]
        pairs = [p for p in by_seed.values() if all(side in p for side in SIDES)]
        names = dict.fromkeys(name for p in pairs for side in SIDES for name in p[side])
        for name in names:
            values = {side: [p[side][name] for p in pairs if name in p[side]] for side in SIDES}
            if not any(v for side in SIDES for v in values[side]):
                continue
            (p1, pm, p3), (c1, cm, c3) = (_quartiles(values[side]) for side in SIDES)
            row = {
                "workload": workload, "metric": name,
                "parent": [pm, p1, p3], "change": [cm, c1, c3],
                "delta": (cm - pm) / pm if pm else None,
                "parent_iqr": (p3 - p1) / pm if pm else None,
                "won": None, "pairs": len(pairs), "bound": bounds.get(name), "flags": [],
            }
            sign = {"higher": 1, "lower": -1}.get(better.get(name))
            if sign is not None:
                row["won"] = sum(
                    sign * (p["change"][name] - p["parent"][name]) > 0
                    for p in pairs if name in p["parent"] and name in p["change"]
                )
                if row["bound"] is not None and row["delta"] is not None:
                    if -sign * row["delta"] > row["bound"]:
                        row["flags"].append("WORSE")
                    if row["parent_iqr"] > row["bound"]:
                        row["flags"].append("UNRESOLVED")
            rows.append(row)
    return rows


def _pct(x) -> str:
    return "" if x is None else f"{100 * x:+.1f} %"


def format_table(rows: list[dict]) -> str:
    lines = [
        "| workload | metric | parent median [q1, q3] | change median [q1, q3] | change in median "
        "| change better | parent IQR / median | bound | flags |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        parent, change = (f"{m:.4g} [{q1:.4g}, {q3:.4g}]" for m, q1, q3 in (r["parent"], r["change"]))
        won = "" if r["won"] is None else f"{r['won']}/{r['pairs']}"
        iqr = "" if r["parent_iqr"] is None else f"{100 * r['parent_iqr']:.1f} %"
        bound = "" if r["bound"] is None else f"{100 * r['bound']:g} %"
        lines.append(
            f"| {r['workload']} | `{r['metric']}` | {parent} | {change} | {_pct(r['delta'])} "
            f"| {won} | {iqr} | {bound} | {' '.join(r['flags'])} |"
        )
    return "\n".join(lines)


def failures(runs: list[dict]) -> list[str]:
    """One line per run that exited non-zero or did not report itself correct."""
    lines = []
    for run in runs:
        result = run["result"] or {}
        if run["exit"] != 0 or not result.get("correct", False):
            lines.append(
                f"{run['workload']} seed {run['seed']} {run['side']}: exit {run['exit']}, "
                f"{result.get('failed', '?')} of {result.get('attempted', '?')} operations failed"
            )
    return lines


def write_record(directory: Path, label: str, args: dict, runs: list[dict], rows: list[dict]) -> Path:
    path = directory / f"BENCH_{datetime.date.today().isoformat()}_{label}.json"
    path.write_text(json.dumps({**args, "runs": runs, "summary": rows}, indent=1) + "\n")
    return path


def main(argv=None, runner=run_once, record_dir: Path = ROOT) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", nargs="+", default=[w["name"] for w in bench["workloads"]],
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args(argv)
    for side in SIDES:
        if not (getattr(args, side) / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {getattr(args, side)} holds no perfbench/run.py")
    trees = {side: getattr(args, side).resolve() for side in SIDES}
    runs = run_pairs(trees, args.workload, args.seeds, bench["run_seconds"], runner)
    rows = summarize(runs, bench)
    print(format_table(rows))
    bad = failures(runs)
    for line in bad:
        print(f"failed: {line}")
    if args.record:
        settings = {
            "workloads": args.workload, "seeds": args.seeds, "seconds": bench["run_seconds"]
        }
        print(f"recorded {write_record(record_dir, args.record, settings, runs, rows)}")
    return 1 if bad or any("WORSE" in r["flags"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
