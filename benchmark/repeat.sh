#!/usr/bin/env bash
# Repeatability: benchmark/repeat.sh N runs N full sets (every workload,
# untraced and traced, all with --seed 1) and prints, per workload x metric,
# min / median / max and (max - min) / median beside the metric's bound;
# writes out/spread.json. Fails when a bounded metric's range exceeds its
# bound or a count metric of a one-client workload differs between sets.
set -euo pipefail
cd "$(dirname "$0")/.."

sets="${1:?usage: benchmark/repeat.sh N}"
seconds="$(grep -o '"run_seconds": [0-9]*' BENCHMARK.json | grep -o '[0-9]*$')"
out=benchmark/out
mkdir -p "$out"
runs="$out/runs.txt"
: > "$runs"

cargo build --release --quiet --manifest-path benchmark/Cargo.toml
for set in $(seq 1 "$sets"); do
  for workload in adhoc_single adhoc_join dashboard_synopsis exact_fallback dashboard_append; do
    for trace in 0 1; do
      echo "set $set: $workload --trace $trace" >&2
      cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds "$seconds" --trace "$trace" \
        2>/dev/null | grep "^$workload " | sed "s/^/$set /" >> "$runs"
    done
  done
done

cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- --spread "$runs"
