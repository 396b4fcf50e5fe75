#!/usr/bin/env bash
# Regenerates experiments_output.txt: every exp_* binary, in README
# order, at --release, under a header naming the commit, core count and
# compiler the numbers were taken with. Estimates are seeded and
# reproduce bit-for-bit; wall-clock columns are this host's.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p aqp-bench --bins
{
  echo "# commit $(git describe --always --dirty)  nproc $(nproc)  $(rustc --version)"
  for exp in e01_speedup e02_coverage e03_groups e04_joins e05_distinct \
    e06_sketch_space e07_ola e08_offline_drift e09_selectivity e10_range \
    e11_planner e12_apriori e13_skew_designs a1_ablation t1_matrix router; do
    printf '\n################ exp_%s ################\n\n' "$exp"
    cargo run --release -q -p aqp-bench --bin "exp_$exp"
  done
} >experiments_output.txt
echo "experiments.sh: wrote experiments_output.txt"
