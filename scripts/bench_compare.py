#!/usr/bin/env python3
"""Compare a fresh bench JSON against the committed baseline.

Usage:
    scripts/bench_compare.py FRESH.json BASELINE.json [--ratio-threshold R]
                             [--rss-tolerance R] [--rss-ceiling BYTES]
                             [--barrier-wait-cap S] [--strict]

Knows the three benches CI pins (the "bench" key selects the rules):

* engine (BENCH_engine.json) — cells match on (workload, n, threads),
  where `threads` is the shard-parallel engine width (absent = 1, the
  serial engine). `rounds` is deterministic and must be EQUAL; `events`
  must be equal when the seed batches match (`seeds`); `events_per_sec`
  is hardware-dependent and only warns when it moved by more than
  --ratio-threshold (default 0.30 — CI machines are noisy; tighten
  locally). Shard-parallel rows (threads > 1) also carry
  `barrier_wait_share` — the fraction of parallel shard-time spent
  blocked at the join barrier, from the obs::ShardProfile riding on the
  scaling cells; a fresh share above --barrier-wait-cap (default 0.85)
  warns, as does drift past the ratio threshold, so a load-balance
  regression is visible without being a merge blocker.
* byz_scaling (BENCH_byz_scaling.json) — rows match on (n, f, threads,
  mt), `threads`/`mt` defaulting to 1/false for the serial sweep rows
  (the `mt` tag keeps the thread-scaling re-run of a cell apart from the
  telemetry-attached sweep cell with the same n and f). The seed is a
  function of n alone, so `msgs`, `bits`, `rounds` and the per-phase
  message/bit ledgers are deterministic and must be EQUAL; `wall_ms` /
  `wall_us` only warn past the ratio threshold.
* million (BENCH_million.json) — cells match on (workload, n). The runs
  are seeded and failure-free, so `rounds`, `messages`, `bits` and
  `closed_form` must be EQUAL. `peak_rss_bytes` is the quantity this
  bench exists to bound and is a HARD gate, not a warning: a fresh cell
  whose RSS exceeds baseline * (1 + --rss-tolerance) fails (default
  tolerance 1.0, i.e. 2x — RSS is stable across same-config runs but a
  sanitizer or allocator change legitimately inflates it; CI's ASan job
  therefore gates on --rss-ceiling instead). --rss-ceiling BYTES is an
  absolute cap applied to EVERY fresh cell, baseline overlap or not —
  this is the memory-regression tripwire for the engine: a
  reintroduced O(n) per-round allocation at n = 2^16 under ASan blows
  straight past it. `wall_ms` only warns.

Cells present on one side only are skipped (smoke sweeps are subsets of
the committed full sweeps). A baseline recorded by an older bench binary
may lack fields newer rows carry (e.g. `barrier_wait_share` on
pre-shard-profile cells) or may have an empty row list entirely; both
produce a "skip" line naming the cell and the missing field — this is a
soft gate, so a schema gap must never die with a KeyError traceback.
Exit codes: 0 = clean or warnings only, 1 = a deterministic quantity
moved (or any drift with --strict), 2 = usage / unreadable input.

CI runs this as a SOFT gate (continue-on-error) so a hardware blip never
blocks a merge; promote it to a hard gate by deleting that line — see
docs/PERFORMANCE.md ("Benchmark regression gate").
"""

import argparse
import json
import sys

failures = []
warnings = []


def fail(msg):
    failures.append(msg)
    print(f"FAIL  {msg}")


def warn(msg):
    warnings.append(msg)
    print(f"warn  {msg}")


def skip(msg):
    """A cell the soft gate cannot compare (older schema / empty sweep).

    Not a warning: a baseline written by an older bench binary is an
    expected state during a schema transition, not a regression signal.
    """
    print(f"skip  {msg}")


def keyed_rows(doc, side, required):
    """Index `doc["rows"]` for matching, tolerating older schemas.

    Rows missing one of the `required` key fields are skipped with a
    message instead of raising KeyError; a missing or empty row list
    yields an empty index the same way.
    """
    rows = doc.get("rows")
    if not rows:
        skip(f"{side}: no rows (empty trajectory) — nothing to compare")
        return []
    out = []
    for r in rows:
        missing = [f for f in required if f not in r]
        if missing:
            skip(f"{side} row {r.get('workload', '?')!r}: missing "
                 f"{', '.join(missing)} (older bench schema) — cell skipped")
            continue
        out.append(r)
    return out


def check_equal(cell, field, fresh, base):
    if fresh.get(field) != base.get(field):
        fail(f"{cell}: {field} {base.get(field)} -> {fresh.get(field)} "
             "(deterministic quantity moved)")


def check_ratio(cell, field, fresh, base, threshold):
    a, b = fresh.get(field), base.get(field)
    if not a or not b:
        return
    drift = abs(a - b) / b
    if drift > threshold:
        warn(f"{cell}: {field} {b:.3g} -> {a:.3g} "
             f"({100 * drift:.1f}% drift, threshold {100 * threshold:.0f}%)")


def compare_engine(fresh, base, threshold, barrier_wait_cap):
    def key_of(r):
        return (r["workload"], r["n"], r.get("threads", 1))

    required = ("workload", "n")
    baseline = {key_of(r): r for r in keyed_rows(base, "baseline", required)}
    compared = 0
    for row in keyed_rows(fresh, "fresh", required):
        key = key_of(row)
        if key not in baseline:
            continue
        compared += 1
        cell = f"engine {key[0]} n={key[1]} threads={key[2]}"
        ref = baseline[key]
        check_equal(cell, "rounds", row, ref)
        if row.get("seeds") == ref.get("seeds"):
            check_equal(cell, "events", row, ref)
        check_ratio(cell, "events_per_sec", row, ref, threshold)
        if key[2] > 1:
            share = row.get("barrier_wait_share")
            if share is not None and share > barrier_wait_cap:
                warn(f"{cell}: barrier_wait_share {share:.3f} exceeds the "
                     f"cap {barrier_wait_cap:.2f} (shards are mostly "
                     "waiting at the join — load-balance regression?)")
            check_ratio(cell, "barrier_wait_share", row, ref, threshold)
    return compared


def compare_byz_scaling(fresh, base, threshold):
    def key_of(r):
        return (r["n"], r["f"], r.get("threads", 1), r.get("mt", False))

    required = ("n", "f")
    baseline = {key_of(r): r for r in keyed_rows(base, "baseline", required)}
    compared = 0
    for row in keyed_rows(fresh, "fresh", required):
        key = key_of(row)
        if key not in baseline:
            continue
        compared += 1
        cell = f"byz_scaling n={key[0]} f={key[1]} threads={key[2]}"
        ref = baseline[key]
        for field in ("msgs", "bits", "rounds"):
            check_equal(cell, field, row, ref)
        check_ratio(cell, "wall_ms", row, ref, threshold)
        ref_phases = {p["phase"]: p
                      for p in ref.get("phases", []) if "phase" in p}
        for phase in row.get("phases", []):
            if "phase" not in phase:
                skip(f"{cell}: unlabelled phase row (older bench schema) "
                     "— phase skipped")
                continue
            if phase["phase"] not in ref_phases:
                continue
            pcell = f"{cell} phase={phase['phase']}"
            pref = ref_phases[phase["phase"]]
            check_equal(pcell, "messages", phase, pref)
            check_equal(pcell, "bits", phase, pref)
            check_ratio(pcell, "wall_us", phase, pref, threshold)
    return compared


def compare_million(fresh, base, threshold, rss_tolerance, rss_ceiling):
    def key_of(r):
        return (r["workload"], r["n"])

    required = ("workload", "n")
    baseline = {key_of(r): r for r in keyed_rows(base, "baseline", required)}
    compared = 0
    for row in keyed_rows(fresh, "fresh", required):
        key = key_of(row)
        cell = f"million {key[0]} n={key[1]}"
        rss = row.get("peak_rss_bytes")
        if rss_ceiling and rss and rss > rss_ceiling:
            fail(f"{cell}: peak_rss_bytes {rss} exceeds the absolute "
                 f"ceiling {rss_ceiling} (memory regression in the "
                 "engine or observability caps)")
        if key not in baseline:
            continue
        compared += 1
        ref = baseline[key]
        for field in ("rounds", "messages", "bits", "closed_form"):
            check_equal(cell, field, row, ref)
        base_rss = ref.get("peak_rss_bytes")
        if rss and base_rss and rss > base_rss * (1.0 + rss_tolerance):
            fail(f"{cell}: peak_rss_bytes {base_rss} -> {rss} "
                 f"(over the {100 * rss_tolerance:.0f}% tolerance; this "
                 "gate is hard — see docs/PERFORMANCE.md \"Million-node "
                 "mode\")")
        check_ratio(cell, "wall_ms", row, ref, threshold)
    return compared


def main():
    parser = argparse.ArgumentParser(
        description="diff a fresh bench JSON against the committed baseline")
    parser.add_argument("fresh")
    parser.add_argument("baseline")
    parser.add_argument("--ratio-threshold", type=float, default=0.30,
                        help="relative drift that turns a wall-clock "
                             "quantity into a warning (default 0.30)")
    parser.add_argument("--rss-tolerance", type=float, default=1.0,
                        help="relative peak_rss_bytes growth over baseline "
                             "that HARD-fails a million cell (default 1.0 "
                             "= 2x)")
    parser.add_argument("--barrier-wait-cap", type=float, default=0.85,
                        help="engine rows with threads > 1 warn when "
                             "barrier_wait_share exceeds this (default "
                             "0.85)")
    parser.add_argument("--rss-ceiling", type=int, default=0,
                        help="absolute peak_rss_bytes cap hard-applied to "
                             "every fresh million cell (0 = off)")
    parser.add_argument("--strict", action="store_true",
                        help="treat warnings as failures")
    args = parser.parse_args()

    try:
        with open(args.fresh) as f:
            fresh = json.load(f)
        with open(args.baseline) as f:
            base = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2

    if fresh.get("bench") != base.get("bench"):
        print(f"bench_compare: mismatched bench kinds "
              f"{fresh.get('bench')!r} vs {base.get('bench')!r}",
              file=sys.stderr)
        return 2

    kind = fresh.get("bench")
    if kind == "engine":
        compared = compare_engine(fresh, base, args.ratio_threshold,
                                  args.barrier_wait_cap)
    elif kind == "byz_scaling":
        compared = compare_byz_scaling(fresh, base, args.ratio_threshold)
    elif kind == "million":
        compared = compare_million(fresh, base, args.ratio_threshold,
                                   args.rss_tolerance, args.rss_ceiling)
    else:
        print(f"bench_compare: unknown bench kind {kind!r}", file=sys.stderr)
        return 2

    print(f"bench_compare [{kind}]: {compared} overlapping cells, "
          f"{len(failures)} failures, {len(warnings)} warnings")
    if failures or (args.strict and warnings):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
