#!/usr/bin/env bash
# Lint entrypoint — the same commands CI runs, runnable locally.
#
#   scripts/lint.sh            # everything available on this machine
#   scripts/lint.sh protocol   # scripts/protocol_lint.py only
#   scripts/lint.sh tidy       # clang-tidy over src/ (needs clang-tidy)
#   scripts/lint.sh format     # clang-format check (needs clang-format)
#
# The protocol lint needs only python3. Steps whose tool is not installed
# (clang-tidy, clang-format) are skipped with a warning so the script stays
# green on minimal toolchains; CI installs them and runs the identical
# entrypoints, so nothing skipped here goes unchecked upstream.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
MODE="${1:-all}"

run_protocol() {
  # Extra args pass through (CI adds --report for the artifact upload).
  echo "== protocol lint =="
  python3 "${ROOT}/scripts/protocol_lint.py" --root "${ROOT}" "$@"
}

run_tidy() {
  echo "== clang-tidy =="
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "lint.sh: warning: clang-tidy not installed; skipping (CI runs it)" >&2
    return 0
  fi
  local build="${ROOT}/build-tidy"
  cmake -S "${ROOT}" -B "${build}" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  # Lint the library sources; headers are pulled in via --header-filter
  # from .clang-tidy's HeaderFilterRegex.
  find "${ROOT}/src" -name '*.cc' -print0 |
    xargs -0 clang-tidy -p "${build}" --quiet
}

run_format() {
  echo "== clang-format =="
  "${ROOT}/scripts/check_format.sh"
}

case "${MODE}" in
  all)
    run_protocol
    run_tidy
    run_format
    ;;
  protocol) run_protocol "${@:2}" ;;
  tidy) run_tidy ;;
  format) run_format ;;
  *)
    echo "usage: scripts/lint.sh [all|protocol|tidy|format]" >&2
    exit 2
    ;;
esac

echo "lint.sh: done (${MODE})"
