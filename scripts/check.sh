#!/usr/bin/env bash
# Full local gate: format, lints, static-analysis hygiene, and the whole
# test suite. Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check

# Clippy tier: warnings are denied wholesale, plus a curated set the
# default `warn` level leaves off — the suspicious group and the
# leftover-debris lints, and a small pedantic subset that catches real
# bugs (lossless casts and redundant clones) without fighting idiom.
cargo clippy --workspace --all-targets -- \
  -D warnings \
  -D clippy::suspicious \
  -D clippy::dbg_macro \
  -D clippy::todo \
  -D clippy::unimplemented \
  -D clippy::unnecessary_cast \
  -D clippy::redundant_clone

# Conformance gate: the typed source linter (C001-C007 — metric names
# from aqp_obs::names, unwrap budget, deny(unsafe_code) presence, SAFETY
# pairing, span pairing, codec tag registry, declared lock orders) plus
# the exhaustive mini-loom race check of the admission scheduler and
# plan-cache epoch models. One line per gate; non-zero exit on any
# Error-severity C-code or model violation.
cargo run -q --release -p aqp-conformance -- --workspace --race

# Rustdoc gate: the API docs must build clean (broken intra-doc links
# and malformed doc comments are warnings, and warnings are denied).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# Operator docs: every relative markdown link must resolve. (The content
# pins — every metric documented, every crate named — live in
# tests/docs.rs and run with the suite below.)
scripts/check_doc_links.sh

# Observability crate first: its suite includes the guarded inert-span
# overhead smoke test, the cheapest signal when instrumentation regresses.
cargo test -q -p aqp-obs

# A trace is a value its caller owns: the tracer keeps no process state
# beyond the id / thread-ordinal counters and the epoch (CURRENT and
# THREAD_ORD are thread-locals).
if grep -nE '\bstatic [A-Z_]+:' crates/obs/src/trace.rs |
  grep -vE 'static (NEXT_ID|NEXT_THREAD|EPOCH|CURRENT|THREAD_ORD):'; then
  echo "crates/obs/src/trace.rs declares process-global tracer state" >&2
  exit 1
fi

# Metrics are a value the session owns, as traces are: no process-wide
# registry (SCOPE, the calling thread's registry in scope, is a
# thread-local), and no test serialising behind a lock because a counter
# is shared by the whole process.
if grep -rnE 'metrics::global|static [A-Z_]+: (std::sync::)?Mutex<\(\)>' crates tests examples ||
  grep -nE '\bstatic [A-Z_]+:' crates/obs/src/metrics.rs | grep -vE 'static SCOPE:'; then
  echo "a process-wide metrics registry or a test-serialising mutex is back" >&2
  exit 1
fi

# The span-isolation tests race traced against untraced threads, so one
# green run proves little: run the binary 25 times (~0.1 s each).
for _ in $(seq 25); do cargo test -q --test observability; done

# --no-fail-fast: one red binary must not hide every binary after it.
cargo test -q --no-fail-fast

# Bench gates: the five bounds the repo benchmark cannot see — kernel
# path >= 2x scalar, inert spans < 3% of a query, synopsis maintenance
# >= 5x cheaper than a rebuild on a 1% append, conformance scan <= 2 s,
# 1%-rate audit overhead <= 5% — measured in one run, written to
# BENCH_gates.json, non-zero exit when any gate misses its bound.
cargo run -q --release -p aqp-bench --bin bench_gates

# One ledger: that report is the only BENCH_*.json, and nothing in
# crates/bench formats JSON by hand beside aqp_bench::report.
if [ "$(echo BENCH_*.json)" != BENCH_gates.json ] || grep -rn 'format!("{{' crates/bench; then
  echo "expected exactly BENCH_gates.json at the root and no hand-formatted JSON in crates/bench" >&2
  exit 1
fi

# One expression evaluator: aqp_expr::eval is block-at-a-time only. No
# row-level twin, and no per-row column-name resolver to feed one.
if grep -rnE 'eval_row|dyn Fn\(&str\) -> Option<Value>' crates tests examples; then
  echo "a row-at-a-time expression evaluator or column resolver is back" >&2
  exit 1
fi

# One join: the engine's gather join over key indexes. No row-at-a-time
# join assembly, no serial twin, and no per-query dimension map beside
# the index a Table caches.
if grep -rnE 'gather_concat_row|hash_join_serial|HashMap<KeyAtom, \(u32, u32\)>' crates; then
  echo "a second join implementation or a per-query dimension index is back" >&2
  exit 1
fi

# One aggregate step: every Aggregate the engine runs is one operator over
# the compiled select → gather → fold step, predicate selection is one
# type, and the sampled paths reach joins only through that step.
if grep -rnE 'fn (hash_aggregate|exec_fused_agg|exec_join_agg)\b' crates/engine/src ||
  grep -nF 'eval_predicate_mask' crates/engine/src/exec.rs crates/core/src/ola.rs ||
  grep -rnF 'GatherJoin::over_table' crates/core/src; then
  echo "a second aggregate operator, predicate loop or sampled-path join chain is back" >&2
  exit 1
fi

# One cluster estimator: every block-sampled family ends in
# aqp_sampling::design::PairStats::clusters over UnitSums. No private
# block-spread algebra beside it, and no uncalled estimator zoo in
# aqp-stats.
if grep -rnE 'cluster_total|cluster_mean|bootstrap_ci|struct PairTotals|struct BlockSpread|fn estimate_from_totals' crates; then
  echo "a second cluster estimator or an uncalled aqp-stats estimator is back" >&2
  exit 1
fi

# One string encoding: a STR column is u32 codes into a shared dictionary.
# No per-row string vector beside it.
if grep -nF 'Vec<Arc<str>>' crates/storage/src/column.rs; then
  echo "a per-row string encoding is back in Column" >&2
  exit 1
fi

# Only state a routed query reads: aqp-core keeps no sketch synopsis no
# family answers from (the sketch crate serves the experiments), and the
# plan cache memoizes routing, never a seed's work. The capability
# matrix's `implemented_in` strings name where each sketch lives, so the
# crate is matched as a Rust path or a manifest dependency.
if grep -rnF 'aqp_sketch' crates/core || grep -nF 'aqp-sketch' crates/core/Cargo.toml ||
  grep -rnE 'sample_with_plan|pilot_plans|struct PilotPlan|build_distinct|build_quantiles|UseOfflineSynopsisForAggregate' crates; then
  echo "an unrouted sketch synopsis or the per-seed pilot-plan replay is back" >&2
  exit 1
fi

# Repository benchmark smoke: benchmark/ is a workspace of its own, so
# nothing above compiles it. All five workloads in both modes at 20 k
# rows — proves it still builds against the crates' public API and still
# grades every answer correct. --locked: the committed
# benchmark/Cargo.lock is never rewritten.
cargo run --release --quiet --locked --manifest-path benchmark/Cargo.toml -- --smoke
