"""Rewrite digests.json from a fresh run of the golden matrix on this platform.

Run it from a checkout, after a change that alters outputs on purpose:

    PYTHONPATH=src python tests/golden/update.py

It prints the entries that changed, grouped by kind (a file's name with its
numbers as N, or a net's algorithm and name), for the change's notes.
"""

from __future__ import annotations

import json
import os
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import DIGESTS, collect, differences, platform_key  # noqa: E402


def kind(section: str, entry: str) -> str:
    name = entry.rsplit("/", 1)[-1] if section == "files" else entry.split("/", 1)[1]
    return f"{section}: {re.sub(r'[0-9]+', 'N', name)}"


def main() -> int:
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            new = {"platform": platform_key(), **collect()}
        finally:
            os.chdir(cwd)
    if old.get("platform") not in (None, new["platform"]):
        print(f"platform: {old['platform']} -> {new['platform']}")
    counts = Counter((kind(section, entry), status) for section, entry, status in differences(old, new))
    for (what, status), count in sorted(counts.items()):
        print(f"{what}: {count} {status}")
    if not counts:
        print("no entry changed")
    DIGESTS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}: {len(new['files'])} files, {len(new['nets'])} nets")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
