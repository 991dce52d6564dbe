#!/usr/bin/env python3
"""Tier-1 check of scripts/bench_compare.py and the committed BENCH_*.json.

Usage:
    run_bench_compare.py BENCH_ENGINE BENCH_BYZ_SCALING OUT_DIR
                         [bench_compare.py options...]

Three parts, all of which must hold:

  * fixture pairs in this directory pin the gate itself: identical rows
    exit 0, a moved `messages` or `*.bits` layer exits 1, a wall drift
    only warns (exit 0), a row over --rss-ceiling exits 1, and disjoint
    keys exit 1 naming both files;
  * a self-compare of each committed BENCH_*.json compares every row;
  * a fresh `bench_engine --smoke --json` and `bench_byz_scaling --smoke
    --json --audit` (written to OUT_DIR) compare clean against the
    committed files with at least one overlapping row. Extra arguments
    are passed to these two compares (sanitizer builds pass an absolute
    --rss-ceiling: their RSS is not comparable with a Release baseline).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
COMPARE = ROOT / "scripts" / "bench_compare.py"
SUMMARY = re.compile(r"(\d+) of (\d+) rows compared")

# (fresh fixture, extra args, expected exit code, text the output must hold)
CASES = [
    ("baseline.json", [], 0, "2 of 2 rows compared, 0 failures, 0 warnings"),
    ("moved_messages.json", [], 1, "messages 2359296 -> 2359297"),
    ("moved_layer_bits.json", [], 1, "byzantine.committee-election.bits"),
    ("slow_wall.json", [], 0, "0 failures, 3 warnings"),
    ("baseline.json", ["--rss-ceiling", "8000000"], 1,
     "exceeds the absolute ceiling"),
    ("disjoint_keys.json", [], 1,
     f"disjoint_keys.json has a key in {HERE / 'baseline.json'}"),
]


def compare(fresh: Path, baseline: Path, extra: list[str]):
    p = subprocess.run(
        [sys.executable, str(COMPARE), str(fresh), str(baseline), *extra],
        capture_output=True, text=True)
    return p.returncode, p.stdout + p.stderr


def main() -> int:
    if len(sys.argv) < 4:
        print(__doc__, file=sys.stderr)
        return 2
    engine, byz, out_dir = sys.argv[1:4]
    extra = sys.argv[4:]
    failures = []

    for fresh, args, want, text in CASES:
        code, out = compare(HERE / fresh, HERE / "baseline.json", args)
        if code != want or text not in out:
            failures.append(f"fixture {fresh} {args}: exit {code} (want "
                            f"{want}), expected {text!r} in:\n{out}")

    for name in ("engine", "byz_scaling", "million"):
        committed = ROOT / f"BENCH_{name}.json"
        rows = len(json.loads(committed.read_text())["rows"])
        code, out = compare(committed, committed, [])
        m = SUMMARY.search(out)
        if code != 0 or not m or int(m.group(1)) != rows:
            failures.append(f"self-compare of {committed.name} must compare "
                            f"all {rows} rows, exit 0:\n{out}")

    runs = [([engine, "--smoke", "--json"], "engine"),
            ([byz, "--smoke", "--json", "--audit"], "byz_scaling")]
    for cmd, name in runs:
        fresh = Path(out_dir) / f"BENCH_{name}.smoke.json"
        p = subprocess.run([*cmd, "--out", str(fresh)], capture_output=True,
                           text=True)
        if p.returncode != 0:
            failures.append(f"{' '.join(cmd)} exited {p.returncode}:\n"
                            f"{p.stdout}{p.stderr}")
            continue
        code, out = compare(fresh, ROOT / f"BENCH_{name}.json", extra)
        m = SUMMARY.search(out)
        if code != 0 or not m or int(m.group(1)) < 1:
            failures.append(f"fresh {name} smoke vs committed file must "
                            f"exit 0 with an overlapping row:\n{out}")
        else:
            print(out.strip().splitlines()[-1])

    for f in failures:
        print(f"FAIL {f}")
    print(f"bench_compare checks: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
