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

# Conformance gate: the typed source linter (C001-C008, C006 retired —
# metric names from aqp_obs::names, unwrap budget, deny(unsafe_code)
# presence, SAFETY pairing, span pairing, declared lock orders, no
# library pub fn/const that no other file names). One line per gate;
# non-zero exit on any Error-severity C-code. The race check (mini-loom
# over the admission scheduler's and plan cache's real transitions) is
# the aqp-core unit-test module `service::race`, run by the suite below.
cargo run -q --release -p aqp-conformance -- --workspace

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

# The pool's tests race the calling thread against its workers, so one
# green run proves little: run them 300 times from the built binary
# (a few seconds; cargo's own start-up would dominate a cargo loop).
pool_tests=$(cargo test -p aqp-engine --lib --no-run 2>&1 |
  sed -n 's/.*Executable unittests src\/lib.rs (\(.*\))$/\1/p')
for _ in $(seq 300); do
  "$pool_tests" -q pool:: >/dev/null || { "$pool_tests" pool::; exit 1; }
done

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

# One zone map per block: the map is cached on the Block, so every table
# over the block (a sample, a weighted copy, a replaced version) reads it;
# no per-table cache beside it.
if grep -nE 'OnceLock<ZoneMap>|fn zone\(' crates/storage/src/table.rs; then
  echo "a per-table zone-map cache is back" >&2
  exit 1
fi

# One estimator for every sampled family: the rewrite answers through the
# block fold online sampling uses (SampledTotals::draw), so rewrite.rs's
# library code runs no plan of its own and copies no weighted sample; and
# no family answers a bare point estimate, so neither the point-estimate
# class, the strict-contract switch that refused it, nor the flat-rewrite
# entry points come back.
if sed '/^#\[cfg(test)\]/q' crates/core/src/rewrite.rs |
  grep -nE 'execute_with|Query::scan|to_weighted_table' ||
  grep -rnE 'PointEstimate|strict_contracts|answer_via_rewrite' crates tests examples; then
  echo "the rewrite runs a plan of its own, or point estimates are back" >&2
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

# One block loop: online aggregation is the online sampler's loop
# (StarEvaluator per block, SampledTotals over the prefix) with a CI stop
# rule, so ola.rs compiles no fold and reads no aggregate state of its
# own; the ripple join lives in exp_e07_ola, not aqp-core; and the
# Bernoulli-style sample designs push their units into UnitSums instead of
# hand-rolling the sums.
if grep -nE 'BlockFold::new|AggState::' crates/core/src/ola.rs ||
  grep -rn 'struct RippleJoin' crates/core ||
  grep -nF 'let (mut sf, mut sf2' crates/sampling/src/design.rs; then
  echo "a private OLA fold, the ripple join in aqp-core or hand-rolled HT sums are back" >&2
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

# Partial means merge: no binary wire format beside it. No codec or
# codec accessor on any partial, no tag registry or wire helpers, no
# shard-then-serialize demo, and no `bytes` shim for them to lean on.
if grep -rnE 'fn to_bytes|fn from_bytes|CodecError|CODEC_VERSION|pub mod wire|pub mod tag|_sharded\(|_for_codec|from_codec_parts' crates ||
  grep -nE '^[[:space:]]*bytes[[:space:]]*[.=]' crates/*/Cargo.toml ||
  [ -e crates/shim-bytes ] || [ -e crates/core/src/shard.rs ]; then
  echo "a partial wire format, the bytes shim or shard.rs is back" >&2
  exit 1
fi

# One in-flight count and a derived plan identity. A query's thread share
# is handed out by the scheduler's grant, under the lock whose
# transitions service::race explores, so no second in-flight counter
# (PoolShare, PoolSlot) comes back beside it. The plan cache keys on the
# plan types' derived Hash, not on a hand-written walker that restates
# every plan, expression and value variant (struct Fnv). And a metric
# series is one set of atomics: every built-in metric is written on the
# thread that opened its scope, so per-thread shards (SHARDS, PadCell)
# paid for traffic the registry never sees.
if grep -rnE '\b(PoolShare|PoolSlot)\b|struct Fnv\b' crates ||
  grep -nE '\b(SHARDS|PadCell)\b' crates/obs/src/metrics.rs; then
  echo "a second in-flight counter, the hand-written plan hash or sharded metrics are back" >&2
  exit 1
fi

# One thread count per query, decided once: the service's grant or the
# session's online.threads is a plain usize handed to every family, the
# exact fallback and the audit. The machine's parallelism is read in one
# place (pool::default_threads, once per process), and no thread count is
# an Option that a family resolves by itself.
if grep -rn 'available_parallelism' crates | grep -v '^crates/engine/src/pool.rs:' ||
  grep -rnF 'threads: Option<usize>' crates/core/src ||
  grep -rnE 'with_threads\((Some\(|None)' crates tests examples; then
  echo "a second thread decision is back (available_parallelism outside pool.rs, an Option thread count, or with_threads(Some/None))" >&2
  exit 1
fi

# No Criterion layer: its four benches had no runner (no gate, test or
# workload ran them), so neither they, their manifest entries nor the shim
# that compiled them come back.
if [ -e crates/shim-criterion ] || [ -e crates/bench/benches ] ||
  grep -nE '^[[:space:]]*criterion[[:space:]]*[.=]|\.criterion\]|^\[\[bench\]\]' \
    Cargo.toml crates/*/Cargo.toml benchmark/Cargo.toml; then
  echo "the Criterion layer (shim-criterion, crates/bench/benches, a criterion key or a [[bench]] entry) is back" >&2
  exit 1
fi

# Repository benchmark smoke: benchmark/ is a workspace of its own, so
# nothing above compiles it. All five workloads in both modes at 20 k
# rows — proves it still builds against the crates' public API and still
# grades every answer correct. --locked: the committed
# benchmark/Cargo.lock is never rewritten.
cargo run --release --quiet --locked --manifest-path benchmark/Cargo.toml -- --smoke
