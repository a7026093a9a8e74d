#!/usr/bin/env python3
"""Upgrade a format-1 checkpoint to format 2, the one `Trainer.load` reads:

    python3 tools/upgrade_checkpoint.py DIR [--out DIR]

Format 1's `replay.npz` rows are added oldest first to a `ReplayBuffer`, each
in its slot; `Trainer.load` checks the result and `Trainer.save` writes it to
--out (default DIR). A malformed checkpoint fails in one line, exit code 2."""

import argparse
import json
import shutil
import sys
import tempfile
import zipfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from fedassoc import agents, checks, env, replay  # noqa: E402


def upgraded_replay(arrays) -> replay.ReplayBuffer:
    """The buffer of format-1 `arrays`: a column per `Batch` field, and `meta`."""
    meta = arrays["meta"]
    size, cursor, capacity = meta.tolist() if meta.dtype.kind in "iu" else [0] * 3
    if not (0 <= cursor < capacity and size in (cursor, capacity)):
        raise ValueError(f"meta {meta.tolist()} is not a replay's (size, cursor, capacity)")
    columns = {name: arrays[name] for name in replay.FIELDS}
    for name, column in columns.items():
        if not np.can_cast(column.dtype, np.int64 if "act" in name else np.float64, "same_kind"):
            raise ValueError(f"array {name!r} has dtype {column.dtype}, not a replay column's")
    buffer = replay.ReplayBuffer(capacity, columns["obs_lead"].shape[1])
    buffer.cursor = (cursor - size) % capacity  # the oldest row's slot
    for i in (buffer.cursor + np.arange(size)) % capacity:
        buffer.add(**{name: column[i] for name, column in columns.items()})
    return buffer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", type=Path)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        staged, state_path = Path(tmp) / "checkpoint", args.dir / "state.json"
        try:
            try:
                state = json.loads(state_path.read_text())
                if state.get("format", 1) != 1:
                    raise ValueError("not a format-1 checkpoint")
                world = checks.config_from_json(env.EnvConfig, state["env_state"]["cfg"])
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{state_path}: {exc}") from exc
            try:
                with open(args.dir / "replay.npz", "rb") as fh, np.load(fh) as arrays:
                    buffer = upgraded_replay(arrays)
            except (KeyError, IndexError, TypeError, ValueError, zipfile.BadZipFile) as exc:
                raise ValueError(f"{args.dir / 'replay.npz'}: {exc}") from exc
            shutil.copytree(args.dir, staged)
            buffer.save(staged / "replay.npz")
            (staged / "state.json").write_text(json.dumps({**state, "format": 2}))
            agents.Trainer.load(staged, env.EdgeAssocEnv(world, 0)).save(args.out or args.dir)
        except (ValueError, OSError, MemoryError) as exc:
            print(f"error: {str(exc).replace(str(staged), str(args.dir))}", file=sys.stderr)
            return 2
    print(f"wrote {args.out or args.dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
