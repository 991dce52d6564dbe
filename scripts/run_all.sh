#!/usr/bin/env bash
# Build (Release), test, and regenerate every experiment (DESIGN.md
# section 3), including the committed BENCH_engine.json,
# BENCH_byz_scaling.json and BENCH_million.json.
set -euo pipefail
cd "$(dirname "$0")/.."
cmake -B build -G Ninja -DCMAKE_BUILD_TYPE=Release
cmake --build build
ctest --test-dir build --output-on-failure

echo "===== renaming_doctor smoke ====="
# Same seed twice -> the doctor must call the journals identical (exit 0);
# a different seed -> it must localize the divergence (exit 1). See
# docs/OBSERVABILITY.md "Flight recorder".
jdir=$(mktemp -d)
trap 'rm -rf "$jdir"' EXIT
./build/examples/renaming_cli crash --n 96 --budget 16 --adversary chaos \
  --journal-out "$jdir/a.bin" > /dev/null
./build/examples/renaming_cli crash --n 96 --budget 16 --adversary chaos \
  --journal-out "$jdir/b.bin" > /dev/null
./build/examples/renaming_cli crash --n 96 --budget 16 --adversary chaos \
  --seed 2 --journal-out "$jdir/c.bin" > /dev/null
./build/tools/renaming_doctor diff "$jdir/a.bin" "$jdir/b.bin"
if ./build/tools/renaming_doctor diff "$jdir/a.bin" "$jdir/c.bin"; then
  echo "doctor failed to flag a known divergence" >&2
  exit 1
fi
./build/tools/renaming_doctor explain "$jdir/a.bin"

timings=()
for b in build/bench/bench_*; do
  name=$(basename "$b")
  args=()
  case "$name" in
    bench_engine | bench_byz_scaling | bench_million)
      args=(--json --out "BENCH_${name#bench_}.json") ;;
  esac
  echo "===== $name ====="
  start=$(date +%s.%N)
  "$b" "${args[@]}"
  end=$(date +%s.%N)
  timings+=("$(awk -v n="$name" -v s="$start" -v e="$end" \
    'BEGIN { printf "%-24s %8.1fs", n, e - s }')")
done
echo "===== wall-clock summary ====="
for t in "${timings[@]}"; do echo "$t"; done
