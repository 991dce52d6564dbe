#!/usr/bin/env python3
"""Prints a metrics or Perfetto export without its wall-clock fields.

    scripts/strip_wall_clock.py FILE > FILE.det.json

renaming_cli's --metrics-out (renaming-metrics-v1) and --perfetto-out
exports are deterministic apart from the wall clock. This drops the
`wall_us` fields and the `round_wall_ns` histogram from a metrics file,
and the `round_wall_ns` counter track and the shard-profile process
(pid 3) from a Perfetto trace, then prints the rest as canonical JSON, so
two runs of one seed (at different --threads, say) can be compared with
cmp. Exits 2 on an unreadable file or an unknown format.
"""

import json
import sys

# The Perfetto process holding the per-shard busy/wait tracks
# (docs/OBSERVABILITY.md): every value on it is a wall-clock reading.
SHARD_PROFILE_PID = 3


def drop_wall_us(node):
    """Removes every `wall_us` key, recursively."""
    if isinstance(node, dict):
        node.pop("wall_us", None)
        for value in node.values():
            drop_wall_us(value)
    elif isinstance(node, list):
        for value in node:
            drop_wall_us(value)


def strip(doc):
    """Returns `doc` without wall-clock fields; None for an unknown format."""
    if isinstance(doc, dict) and doc.get("schema") == "renaming-metrics-v1":
        drop_wall_us(doc)
        doc.get("histograms", {}).pop("round_wall_ns", None)
        return doc
    if isinstance(doc, dict) and "traceEvents" in doc:
        doc["traceEvents"] = [
            e for e in doc["traceEvents"]
            if e.get("name") != "round_wall_ns"
            and e.get("pid") != SHARD_PROFILE_PID
        ]
        return doc
    return None


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        print("strip_wall_clock: %s: %s" % (argv[1], err), file=sys.stderr)
        return 2
    stripped = strip(doc)
    if stripped is None:
        print("strip_wall_clock: %s: neither a metrics nor a Perfetto export"
              % argv[1], file=sys.stderr)
        return 2
    json.dump(stripped, sys.stdout, sort_keys=True, separators=(",", ":"))
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
