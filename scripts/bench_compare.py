#!/usr/bin/env python3
"""Compare a fresh bench JSON against the committed baseline.

Usage:
    scripts/bench_compare.py FRESH.json BASELINE.json [--rss-ceiling BYTES]

Every JSON bench (bench_engine, bench_byz_scaling, bench_million) writes
the same row (bench/bench_util.h `Row`), so there is one compare:

* Rows match on (workload, n, f, threads). Rows present on one side only
  are skipped (smoke sweeps are subsets of the committed full sweeps),
  but a compare with NO overlapping row fails: a key drift must not turn
  the gate into a silent pass.
* `rounds`, `messages` and `bits` are the first seed's exact counts, and
  so are the `*.msgs` / `*.bits` layers: they must be EQUAL.
* `wall_s` and the `*_s` layers are hardware-dependent and only warn past
  a 30% drift. A `sim.parallel.barrier_wait_share` layer above 0.85 (the
  shards mostly wait at the join) warns too.
* `peak_rss_bytes` is a HARD gate: a fresh row above twice its baseline
  fails. With --rss-ceiling BYTES the absolute cap replaces that relative
  gate and applies to EVERY fresh row, overlapping or not — CI's ASan
  million smoke uses it, since sanitizer RSS is not comparable with the
  Release baseline; a reintroduced O(n) per-round allocation at n = 2^16
  still blows straight past it.

Exit codes: 0 = clean or warnings only, 1 = a deterministic quantity
moved, an RSS gate tripped or no row overlapped, 2 = usage / unreadable
input. See docs/PERFORMANCE.md ("Benchmark regression gate").
"""

import argparse
import json
import sys

KEY = ("workload", "n", "f", "threads")
EXACT = ("rounds", "messages", "bits")
WALL_DRIFT = 0.30
RSS_GROWTH = 2.0
BARRIER_WAIT_CAP = 0.85

failures = []
warnings = []


def fail(msg):
    failures.append(msg)
    print(f"FAIL  {msg}")


def warn(msg):
    warnings.append(msg)
    print(f"warn  {msg}")


def check_equal(cell, field, fresh, base):
    if fresh != base:
        fail(f"{cell}: {field} {base} -> {fresh} "
             "(deterministic quantity moved)")


def check_wall(cell, field, fresh, base):
    if not fresh or not base:
        return
    drift = abs(fresh - base) / base
    if drift > WALL_DRIFT:
        warn(f"{cell}: {field} {base:.3g} -> {fresh:.3g} "
             f"({100 * drift:.1f}% drift, threshold {100 * WALL_DRIFT:.0f}%)")


def compare(fresh_rows, base_rows, rss_ceiling):
    """Checks every fresh row; returns how many had a baseline row."""
    baseline = {tuple(r[k] for k in KEY): r for r in base_rows}
    compared = 0
    for row in fresh_rows:
        key = tuple(row[k] for k in KEY)
        cell = " ".join(f"{k}={v}" for k, v in zip(KEY, key))
        rss = row["peak_rss_bytes"]
        if rss_ceiling and rss > rss_ceiling:
            fail(f"{cell}: peak_rss_bytes {rss} exceeds the absolute "
                 f"ceiling {rss_ceiling} (memory regression in the "
                 "engine or observability caps)")
        share = row["layers"].get("sim.parallel.barrier_wait_share")
        if share is not None and share > BARRIER_WAIT_CAP:
            warn(f"{cell}: barrier_wait_share {share:.3f} exceeds "
                 f"{BARRIER_WAIT_CAP} (shards are mostly waiting at the "
                 "join — load-balance regression?)")
        ref = baseline.get(key)
        if ref is None:
            continue
        compared += 1
        for field in EXACT:
            check_equal(cell, field, row[field], ref[field])
        check_wall(cell, "wall_s", row["wall_s"], ref["wall_s"])
        if not rss_ceiling and rss > ref["peak_rss_bytes"] * RSS_GROWTH:
            fail(f"{cell}: peak_rss_bytes {ref['peak_rss_bytes']} -> {rss} "
                 f"(over {RSS_GROWTH:g}x the baseline)")
        for name, value in row["layers"].items():
            if name not in ref["layers"]:
                continue
            if name.endswith((".msgs", ".bits")):
                check_equal(cell, name, value, ref["layers"][name])
            elif name.endswith("_s"):
                check_wall(cell, name, value, ref["layers"][name])
    return compared


def load_rows(path):
    with open(path) as f:
        doc = json.load(f)
    rows = doc["rows"]
    keys = {tuple(r[k] for k in KEY) for r in rows}
    if len(keys) != len(rows):
        raise ValueError(f"{path}: two rows share a key {KEY}")
    return doc["bench"], rows


def main():
    parser = argparse.ArgumentParser(
        description="diff a fresh bench JSON against the committed baseline")
    parser.add_argument("fresh")
    parser.add_argument("baseline")
    parser.add_argument("--rss-ceiling", type=int, default=0,
                        help="absolute peak_rss_bytes cap hard-applied to "
                             "every fresh row, in place of the relative "
                             "gate (0 = off)")
    args = parser.parse_args()

    try:
        kind, fresh = load_rows(args.fresh)
        base_kind, base = load_rows(args.baseline)
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"bench_compare: {e!r}", file=sys.stderr)
        return 2
    if kind != base_kind:
        print(f"bench_compare: mismatched benches {kind!r} vs {base_kind!r}",
              file=sys.stderr)
        return 2

    try:
        compared = compare(fresh, base, args.rss_ceiling)
    except (KeyError, TypeError) as e:
        print(f"bench_compare: malformed row: {e!r}", file=sys.stderr)
        return 2
    if compared == 0:
        fail(f"no row of {args.fresh} has a key in {args.baseline} "
             "(key drift?)")
    print(f"bench_compare [{kind}]: {compared} of {len(fresh)} rows "
          f"compared, {len(failures)} failures, {len(warnings)} warnings")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
