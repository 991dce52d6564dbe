#!/usr/bin/env python3
"""Fixture harness for scripts/protocol_lint.py (tier-1 via ctest).

Each rule directory holds two miniature source trees:

    <rule>/violation/src/...   one planted violation of exactly that rule
    <rule>/clean/src/...       the closest legal counterpart

The harness runs the lint engine on each tree with only the rule under
test selected (plus a carrier rule for stale-allow, which judges markers
against another rule's findings) and asserts:

  * violation trees exit 1 AND the report names the expected rule;
  * clean trees exit 0 with no output besides the OK line.

This pins the engine's true-positive AND false-positive behaviour per
rule, so a lexer or pass regression cannot land silently. The retired
rules (R5, R7, R9, R11, R16) are compile-time facts; their fixtures are
the compile_fact.* ctests under tests/compile_facts/.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
LINT = HERE.parent.parent / "scripts" / "protocol_lint.py"

# rule -> --rules selection used for both of its trees. stale-allow needs a
# suppressible carrier rule so its clean tree can consume a marker.
CASES = {
    "nondeterminism": "nondeterminism",
    "msgkind": "msgkind",
    "bits-width": "bits-width",
    "unordered-iteration": "unordered-iteration",
    "threading": "threading",
    "raw-output": "raw-output",
    "stale-allow": "nondeterminism,stale-allow",
    "full-width-alloc": "full-width-alloc",
    "wall-clock": "wall-clock",
    "binary-io": "binary-io",
}


def run_lint(root: Path, rules: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LINT), "--root", str(root), "--rules", rules],
        capture_output=True,
        text=True,
    )


def main() -> int:
    failures = []
    for rule, rules in sorted(CASES.items()):
        for flavor, want_exit in (("violation", 1), ("clean", 0)):
            root = HERE / rule / flavor
            if not (root / "src").is_dir():
                failures.append(f"{rule}/{flavor}: fixture tree missing")
                continue
            proc = run_lint(root, rules)
            label = f"{rule}/{flavor}"
            if proc.returncode != want_exit:
                failures.append(
                    f"{label}: exit {proc.returncode}, want {want_exit}\n"
                    f"--- stdout ---\n{proc.stdout}"
                    f"--- stderr ---\n{proc.stderr}"
                )
                continue
            if flavor == "violation" and f"[{rule}]" not in proc.stdout:
                failures.append(
                    f"{label}: exit 1 but no [{rule}] finding reported\n"
                    f"--- stdout ---\n{proc.stdout}"
                )
                continue
            if flavor == "clean" and f"[{rule}]" in proc.stdout:
                failures.append(
                    f"{label}: clean tree produced a [{rule}] finding\n"
                    f"--- stdout ---\n{proc.stdout}"
                )
                continue
            print(f"ok  {label}")
    if failures:
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)
        print(f"lint fixtures: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print(f"lint fixtures: all {2 * len(CASES)} cases pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
