#!/usr/bin/env python3
"""Compares two sets of renaming_bench results under BENCHMARK.json bounds.

A result file is the saved stdout of one renaming_bench invocation: its
header line ("renaming_bench workload=... seed=... trace=...") names the
workload and mode, its last line is the JSON result.

    renaming_bench_compare.py BASE NEW [--spec BENCHMARK.json]
    renaming_bench_compare.py --names PATH... [--spec BENCHMARK.json]

BASE, NEW and PATH are result files or directories of them. The comparison
reads the --trace 0 results and reports, per (workload, end-to-end metric),
each side's median and quartiles and a verdict:

  worse       the new median is worse than the base median by more than
              the metric's bound
  unresolved  either side's quartile spread, as a share of its median, is
              wider than the bound, and not every new run beats every base
              run
  improved    the new median is better by more than the base spread, and
              the new run wins at least 9 in 10 seed-matched pairs (or
              every new run beats every base run when seeds do not match)
  unchanged   otherwise

It exits 1 on any worse verdict, on a higher fail rate (failed / attempted)
in NEW, or when a result's metric names differ from BENCHMARK.json. --names
only checks the names (and units) of every result, in both modes.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def load_spec(path):
    with open(path) as f:
        return json.load(f)


def result_files(paths):
    for path in paths:
        if os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                full = os.path.join(path, name)
                if os.path.isfile(full):
                    yield full
        else:
            yield path


def read_result(path):
    """Returns (header fields, result object) of one saved invocation."""
    with open(path) as f:
        lines = [line.strip() for line in f if line.strip()]
    header = {}
    for line in lines:
        if line.startswith("renaming_bench "):
            for token in line.split()[1:]:
                key, _, value = token.partition("=")
                header[key] = value
            break
    if "workload" not in header or "trace" not in header:
        raise ValueError("%s: no renaming_bench header line" % path)
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise ValueError("%s: result keys %s, expected %s"
                         % (path, sorted(result), sorted(RESULT_KEYS)))
    return header, result


def name_errors(spec, path, header, result):
    """Mismatches between one result and BENCHMARK.json."""
    errors = []
    workloads = {w["name"] for w in spec["workloads"]}
    if header["workload"] not in workloads:
        errors.append("%s: workload %s not in BENCHMARK.json"
                      % (path, header["workload"]))
    declared = spec["per_layer" if header["trace"] == "1" else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    for name in sorted(set(units) - set(got)):
        errors.append("%s: missing metric %s" % (path, name))
    for name in sorted(set(got) - set(units)):
        errors.append("%s: metric %s not in BENCHMARK.json" % (path, name))
    for name in sorted(set(got) & set(units)):
        if got[name].get("unit") != units[name]:
            errors.append("%s: %s has unit %s, BENCHMARK.json says %s"
                          % (path, name, got[name].get("unit"), units[name]))
    return errors


def load_set(spec, paths, errors):
    """{workload: [(seed, result)]} of the --trace 0 results under paths."""
    runs = {}
    for path in result_files(paths):
        header, result = read_result(path)
        errors.extend(name_errors(spec, path, header, result))
        if header["trace"] == "0":
            runs.setdefault(header["workload"], []).append(
                (header.get("seed", ""), result))
    return runs


def by_seed(runs, key):
    """{seed: value} of one metric; a repeated seed gets its own key."""
    values = {}
    for seed, result in runs:
        tag = seed
        while tag in values:
            tag += "+"
        values[tag] = result["metrics"][key]["value"]
    return values


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def verdict(metric, base, new):
    """base, new: {seed: value}. Returns (verdict, worse share)."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    bound = metric["bound"]
    b, n = list(base.values()), list(new.values())
    b_med, n_med = statistics.median(b), statistics.median(n)
    worse_share = sign * (n_med - b_med) / b_med if b_med else 0.0
    all_better = max(sign * v for v in n) < min(sign * v for v in b)
    if worse_share > bound:
        return "worse", worse_share
    if max(spread(b), spread(n)) > bound and not all_better:
        return "unresolved", worse_share
    common = sorted(set(base) & set(new))
    if len(common) >= 2:
        wins = sum(sign * new[s] < sign * base[s] for s in common)
        wins_enough = wins * 10 >= 9 * len(common)
    else:
        wins_enough = all_better
    if -worse_share > spread(b) and wins_enough:
        return "improved", worse_share
    return "unchanged", worse_share


def fail_rate(runs):
    attempted = sum(r["attempted"] for _, r in runs)
    failed = sum(r["failed"] for _, r in runs)
    return failed / attempted if attempted else 1.0


def compare(spec, base_paths, new_paths):
    errors = []
    base = load_set(spec, base_paths, errors)
    new = load_set(spec, new_paths, errors)
    bad = bool(errors)
    for e in errors:
        print("name check: " + e)
    print("%-14s %-14s %-40s %-40s %8s  %s" % (
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
        "worse", "verdict"))
    for w in spec["workloads"]:
        name = w["name"]
        if name not in base or name not in new:
            print("%-14s missing in %s" % (name, "base" if name not in base
                                            else "new"))
            bad = True
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            b, n = by_seed(base[name], key), by_seed(new[name], key)
            v, share = verdict(metric, b, n)
            bq, nq = quartiles(list(b.values())), quartiles(list(n.values()))
            print("%-14s %-14s %-40s %-40s %+7.2f%%  %s" % (
                name, key,
                "%.6g [%.6g, %.6g]" % (bq[1], bq[0], bq[2]),
                "%.6g [%.6g, %.6g]" % (nq[1], nq[0], nq[2]),
                100.0 * share, v))
            bad = bad or v == "worse"
        b_rate, n_rate = fail_rate(base[name]), fail_rate(new[name])
        print("%-14s %-14s %-40.6g %-40.6g %8s  %s" % (
            name, "fail_rate", b_rate, n_rate, "",
            "worse" if n_rate > b_rate else "unchanged"))
        bad = bad or n_rate > b_rate
    return 1 if bad else 0


def check_names(spec, paths):
    errors, seen = [], 0
    for path in result_files(paths):
        header, result = read_result(path)
        errors.extend(name_errors(spec, path, header, result))
        seen += 1
    for e in errors:
        print("name check: " + e)
    if seen == 0:
        print("name check: no result files")
        return 1
    print("name check: %d result(s), %s" % (
        seen, "all names match BENCHMARK.json" if not errors else "FAILED"))
    return 1 if errors else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--spec", default=DEFAULT_SPEC)
    parser.add_argument("--names", action="store_true",
                        help="only check metric names of every PATH")
    parser.add_argument("paths", nargs="+")
    args = parser.parse_args()
    spec = load_spec(args.spec)
    try:
        if args.names:
            return check_names(spec, args.paths)
        if len(args.paths) != 2:
            parser.error("compare takes exactly BASE and NEW")
        return compare(spec, [args.paths[0]], [args.paths[1]])
    except (OSError, ValueError, KeyError) as err:
        print("renaming_bench_compare: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
