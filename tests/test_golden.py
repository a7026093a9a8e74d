"""Byte identity of every output: one matrix of CLI runs against recorded digests.

The matrix trains all four algorithms on seeds 1-2 (with a per-TS log and an
integer penalty), evaluates the seed-1 checkpoint greedily over 1, 33 and 70
episodes at its own σ and at σ 0, and runs an RSU sweep and a proposed-only σ
sweep, all through `cli.main` with relative paths in an empty directory,
each grid on two worker processes. Every file it writes is hashed (sha256),
and on one CPU, where each grid runs in process, the matrix must write the
same files. Nothing writes a baseline's nets, so every net of each
algorithm, trained in-process on the same config at seed 1, is fingerprinted
too.

On the platform `golden/digests.json` records (numpy, BLAS, OpenBLAS kernel,
machine), the digests and fingerprints must equal the recorded ones. Other
platforms may round differently, so there the matrix runs a second time in a
child process with another PYTHONHASHSEED, and the two runs must be equal.
The test prints which comparison it ran.

A change that alters outputs on purpose rewrites the digests with
`python tests/golden/update.py`, which lists the changed entries by kind.

`python tests/test_golden.py RESULT` runs the matrix in the working
directory and writes its digests and fingerprints to RESULT as JSON.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedassoc
from fedassoc.agents import EVAL_BLOCK, FederatedTrainer
from fedassoc.cli import main as cli_main
from fedassoc.env import EdgeAssocEnv
from fedassoc.harness import (
    ALGORITHMS, TRAINERS, config_from_dict, derive_seeds, openblas_function,
)
from fedassoc.nn import net_fingerprint
from processes import force_cpus

DIGESTS = Path(__file__).parent / "golden" / "digests.json"
# The directory of the training runs and the prefix of the net fingerprints;
# the recorded digests name their entries after it.
RUNS = "vector"
# The config of every training run, as a config file's keys.
TRAINING = {
    "horizon": 30, "episodes": 3, "eval_window": 3, "fedavg_period": 1, "target_sync": 20,
    "per_ts_log": True, "penalty": -1, "algos": list(ALGORITHMS), "seeds": [1, 2],
}
# A lone episode, one block and a part, and more than two blocks.
EVAL_EPISODES = (1, 33, 70)


def _cli(*argv: str) -> None:
    if cli_main(list(argv)) != 0:
        raise RuntimeError(f"fedassoc {' '.join(argv)} failed")


def run_matrix() -> None:
    """Write the matrix's files under the working directory."""
    config = Path("configs") / f"{RUNS}.json"
    config.parent.mkdir()
    config.write_text(json.dumps(TRAINING))
    _cli("--config", str(config), "--out", RUNS)
    for episodes in EVAL_EPISODES:
        for sigma, suffix in ((None, ""), ("0", "-sigma0")):
            _cli("--config", f"{RUNS}/config.json", "--eval", f"{RUNS}/checkpoints/proposed_seed1",
                 "--episodes", str(episodes), *(("--sigma", sigma) if sigma else ()),
                 "--out", f"{RUNS}/eval-{episodes}{suffix}")
    _cli("--config", str(config), "--sweep", "rsus", "--values", "8,12", "--out", "sweeps")
    _cli("--config", str(config), "--algo", "proposed", "--sweep", "sigma",
         "--values", "0,1.5", "--out", "sweeps")


def file_digests(root: Path) -> dict[str, str]:
    """The sha256 of every file under `root`, by relative path."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def trainer_nets(trainer) -> dict:
    """Every net of a trainer, by name."""
    if isinstance(trainer, FederatedTrainer):
        return vars(trainer.pair)
    heads = trainer.heads if hasattr(trainer, "heads") else [trainer.head]
    return {
        f"head{i}.{part}": getattr(head, part)
        for i, head in enumerate(heads)
        for part in ("net", "target")
    }


def net_fingerprints() -> dict[str, str]:
    """The fingerprint of every net of each algorithm, trained as
    `harness.run_single` trains seed 1."""
    env_seed, algo_seed = derive_seeds(1)
    cfg = config_from_dict(TRAINING)
    prints = {}
    for algo in ALGORITHMS:
        trainer = TRAINERS[algo](EdgeAssocEnv(cfg.env, env_seed), cfg.trainer, algo_seed)
        trainer.run()
        for name, net in trainer_nets(trainer).items():
            prints[f"{RUNS}/{algo}/{name}"] = net_fingerprint(net)
    return prints


def collect() -> dict[str, dict[str, str]]:
    """Run the matrix in the working directory, which must be empty, and
    return its file digests and net fingerprints."""
    run_matrix()
    return {"files": file_digests(Path.cwd()), "nets": net_fingerprints()}


def _openblas_core():
    """The OpenBLAS kernel numpy's bundled library runs (e.g. "SkylakeX"), or
    None when there is none to ask."""
    corename = openblas_function(
        "scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename"
    )
    if corename is None:
        return None
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode()


def platform_key() -> dict:
    """What the bits depend on beyond the code: numpy, its BLAS and the CPU."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26 prints its config only
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_core": _openblas_core(),
        "machine": platform.machine(),
    }


def differences(expected: dict, actual: dict) -> list[tuple[str, str, str]]:
    """(section, entry, how) for each entry of `expected` or `actual` that
    is changed, missing or new in `actual`."""
    found = []
    for section in ("files", "nets"):
        want, got = expected.get(section, {}), actual[section]
        for entry in sorted(want.keys() | got.keys()):
            if entry not in got:
                found.append((section, entry, "missing"))
            elif entry not in want:
                found.append((section, entry, "new"))
            elif want[entry] != got[entry]:
                found.append((section, entry, "changed"))
    return found


def _child_run(directory: Path) -> dict:
    """The matrix run by a fresh interpreter with another hash seed."""
    run_dir = directory / "run"
    run_dir.mkdir()
    result = directory / "result.json"
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(Path(fedassoc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
    subprocess.run([sys.executable, str(Path(__file__).resolve()), str(result)], cwd=run_dir,
                   env=env, check=True, capture_output=True, timeout=600)
    return json.loads(result.read_text())


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """The matrix's directory and what `collect` returned for it, with every
    grid on two workers."""
    root = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        force_cpus(mp, 2)
        return root, collect()


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """What the run must equal, and a line that says what that is."""
    recorded = json.loads(DIGESTS.read_text())
    here = platform_key()
    if recorded["platform"] == here:
        return recorded, f"the digests recorded in tests/golden/{DIGESTS.name} ({here})"
    return _child_run(tmp_path_factory.mktemp("golden-child")), (
        f"a second run in a child process, since this platform ({here}) is not the "
        f"recorded one ({recorded['platform']})"
    )


@pytest.mark.parametrize("section", ["files", "nets"])
def test_outputs_are_byte_identical(golden, reference, section, capsys):
    _, actual = golden
    expected, how = reference
    what = {"files": "file digests", "nets": "net fingerprints"}[section]
    with capsys.disabled():
        print(f"\ngolden: {len(actual[section])} {what} compared with {how}")
    found = [f"{entry}: {status}" for part, entry, status in differences(expected, actual)
             if part == section]
    assert not found, f"{len(found)} {what} differ:\n" + "\n".join(found[:30])


def test_one_cpu_writes_the_bytes_of_two_workers(golden, tmp_path, monkeypatch):
    _, actual = golden
    monkeypatch.chdir(tmp_path)
    force_cpus(monkeypatch, 1)
    run_matrix()
    assert file_digests(tmp_path) == actual["files"]


def test_lone_evaluation_is_the_first_record_of_blocks(golden):
    root, _ = golden
    assert max(EVAL_EPISODES) > 2 * EVAL_BLOCK
    for suffix in ("", "-sigma0"):
        one = (root / RUNS / f"eval-1{suffix}" / "eval_metrics.csv").read_text().splitlines()
        assert len(one) == 2
        for episodes in EVAL_EPISODES[1:]:
            path = root / RUNS / f"eval-{episodes}{suffix}" / "eval_metrics.csv"
            lines = path.read_text().splitlines()
            assert len(lines) == episodes + 1
            assert lines[:2] == one


if __name__ == "__main__":
    Path(sys.argv[1]).write_text(json.dumps(collect()))
