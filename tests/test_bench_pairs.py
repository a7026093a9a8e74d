"""tools/bench_pairs.py on canned perfbench output: no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def canned(workload, seed, ts_per_s, peak_rss_mb, failed=0):
    """What `perfbench/run.py --trace 0` prints, cut to a few metrics."""
    record = {"workload": workload, "seed": seed, "numpy": "2.4.6", "blas_threads": 1}
    result = {"correct": failed == 0, "attempted": 109, "failed": failed, "metrics": {}}
    return "\n".join([
        "setup_samples_s 0.2275 0.2390 0.1911",
        "record " + json.dumps(record),
        "episodes 100",
        f"ts_per_s {ts_per_s!r} 1/s",
        "setup_s 0.25 s",
        f"peak_rss_mb {peak_rss_mb!r} MB",
        "ts_per_s.cdrl 0.0 1/s",
        f"error_rate 0.0 ratio ({failed} of 109 operations failed)",
        json.dumps(result),
    ])


def fake_runner(values, calls):
    """A runner that gives each (side, seed) its canned (ts_per_s, peak_rss_mb)."""
    def run(tree, workload, seed, seconds):
        side = tree.name
        calls.append((side, seed))
        ts, rss = values[side](seed)
        return {**bench_pairs.parse_run(canned(workload, seed, ts, rss)), "exit": 0}
    return run


def trees(tmp_path):
    for side in bench_pairs.SIDES:
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    return ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]


def test_parse_run_reads_record_metrics_and_result():
    run = bench_pairs.parse_run(canned("train-proposed", 3, 600.5, 47.06))
    assert run["record"]["seed"] == 3
    assert run["metrics"] == {"ts_per_s": 600.5, "setup_s": 0.25, "peak_rss_mb": 47.06,
                              "ts_per_s.cdrl": 0.0}
    assert run["result"]["correct"] is True


def test_parse_seeds():
    assert bench_pairs.parse_seeds("1-4") == [1, 2, 3, 4]
    assert bench_pairs.parse_seeds("1,3,11-12") == [1, 3, 11, 12]


def test_pairs_alternate_and_the_table_reads_the_runs(tmp_path, capsys):
    calls = []
    values = {
        "parent": lambda seed: (600.0 + seed, 47.0 + seed / 100),
        # Lower peak RSS on every seed but seed 4; ts_per_s 30 % lower.
        "change": lambda seed: (0.7 * (600.0 + seed), 45.0 + (3 if seed == 4 else seed / 100)),
    }
    argv = trees(tmp_path) + ["--workload", "train-proposed", "--seeds", "1-4",
                              "--record", "demo"]
    code = bench_pairs.main(argv, runner=fake_runner(values, calls), record_dir=tmp_path)
    assert calls == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
                     ("parent", 3), ("change", 3), ("change", 4), ("parent", 4)]
    out = capsys.readouterr().out
    # ts_per_s fell by 30 %, beyond its 25 % bound.
    assert code == 1
    rows = {line.split("|")[2].strip(): line for line in out.splitlines() if "train-proposed" in line}
    assert "WORSE" in rows["`ts_per_s`"] and "0/4" in rows["`ts_per_s`"]
    assert "3/4" in rows["`peak_rss_mb`"] and "WORSE" not in rows["`peak_rss_mb`"]
    # A metric that is zero on every run is left out.
    assert "`ts_per_s.cdrl`" not in rows
    (path,) = tmp_path.glob("BENCH_*_demo.json")
    saved = json.loads(path.read_text())
    assert [(r["side"], r["seed"]) for r in saved["runs"]] == calls
    assert saved["runs"][0]["record"]["workload"] == "train-proposed"
    peak = next(r for r in saved["summary"] if r["metric"] == "peak_rss_mb")
    assert peak["parent"] == pytest.approx([47.025, 47.0175, 47.0325])
    assert peak["won"] == 3 and peak["flags"] == []


def test_a_wide_parent_spread_is_unresolved_and_a_failed_run_fails(tmp_path, capsys):
    values = {
        "parent": lambda seed: (600.0 * (1 + seed % 2), 47.0),
        "change": lambda seed: (600.0 * (1 + seed % 2), 47.0),
    }
    argv = trees(tmp_path) + ["--workload", "eval-checkpoint", "--seeds", "1-4"]
    assert bench_pairs.main(argv, runner=fake_runner(values, []), record_dir=tmp_path) == 0
    row = next(line for line in capsys.readouterr().out.splitlines() if "`ts_per_s`" in line)
    assert "UNRESOLVED" in row and "WORSE" not in row
    assert not list(tmp_path.glob("BENCH_*.json"))

    def failing(tree, workload, seed, seconds):
        return {**bench_pairs.parse_run(canned(workload, seed, 600.0, 47.0, failed=2)), "exit": 1}

    assert bench_pairs.main(argv, runner=failing, record_dir=tmp_path) == 1
    assert "operations failed" in capsys.readouterr().out


# A perfbench/run.py that spends 0.1 s of CPU, touches 8 MB and prints
# canned output for its workload and seed.
FAKE_RUN = """
import sys, time
workload, seed = sys.argv[sys.argv.index("--workload") + 1], int(sys.argv[sys.argv.index("--seed") + 1])
while time.process_time() < 0.1:
    pass
bytearray(8 << 20)
print({text!r}.replace("WORKLOAD", workload).replace("SEED", str(seed)))
"""


def test_each_run_reports_its_cpu_seconds_and_minor_faults(tmp_path, capsys):
    argv = trees(tmp_path) + ["--workload", "train-proposed", "--seeds", "1-2", "--record", "cpu"]
    text = canned("WORKLOAD", 0, 600.0, 47.0).replace('"seed": 0', '"seed": SEED')
    for side in bench_pairs.SIDES:
        (tmp_path / side / "perfbench" / "run.py").write_text(FAKE_RUN.format(text=text))
    assert bench_pairs.main(argv, record_dir=tmp_path) == 0
    (path,) = tmp_path.glob("BENCH_*_cpu.json")
    saved = json.loads(path.read_text())
    assert [run["record"]["seed"] for run in saved["runs"]] == [1, 1, 2, 2]
    for run in saved["runs"]:
        assert run["metrics"]["ts_per_s"] == 600.0
        cpu = run["metrics"]["cpu_user_s"] + run["metrics"]["cpu_sys_s"]
        assert 0.1 <= cpu < 5.0 and run["metrics"]["cpu_sys_s"] >= 0.0
        assert run["metrics"]["minor_faults"] > 0
    rows = {r["metric"]: r for r in saved["summary"]}
    for name in ("cpu_user_s", "minor_faults"):
        assert rows[name]["bound"] is None and rows[name]["won"] is not None
    assert "| `cpu_user_s` |" in capsys.readouterr().out
