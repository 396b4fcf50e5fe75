//! Shard-then-merge execution: the `Partial` contract's first payoff.
//!
//! Partition a table N ways ([`aqp_storage::Table::shard`] — zero-copy,
//! block-aligned), answer each shard independently on the morsel pool,
//! ship every shard's partial state as bytes ([`Partial::to_bytes`] — the
//! same wire a distributed deployment would use), and fold the decoded
//! partials back together in shard order:
//!
//! * **Exact aggregates** ([`exact_aggregate_sharded`]) fold per-shard
//!   [`AggState`]s. Merging in shard order makes the result deterministic
//!   at any shard/thread count, and bit-for-bit identical to unsharded
//!   execution for every order-independent aggregate — counts, extrema,
//!   and sums of integer-valued data (exact in f64); continuous float
//!   sums differ from the serial grouping only at machine precision. The
//!   shard-merge proptests pin both properties down.
//! * **Approximate answers** ([`bernoulli_sample_sharded`],
//!   [`srs_sample_sharded`]) merge per-shard [`Sample`]s. Equal-rate
//!   Bernoulli shards pool into one Bernoulli sample of the whole table;
//!   per-shard SRS becomes a `__shard`-stratified sample whose per-stratum
//!   Horvitz–Thompson weights and finite-population corrections keep the
//!   merged variance honest, so CI widths track the unsharded estimator.
//!
//! N = 1 degenerates to the serial path exactly.

use aqp_engine::agg::{AggExpr, AggState};
use aqp_engine::pool::parallel_map;
use aqp_engine::BlockFold;
use aqp_mergeable::Partial;
use aqp_sampling::{bernoulli_rows, reservoir_rows, Sample};
use aqp_storage::{Table, Value};

use crate::error::AqpError;

/// Spreads shard seeds so adjacent shards never reuse a random stream.
const SHARD_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

fn decode_err(e: aqp_mergeable::CodecError) -> AqpError {
    AqpError::Unsupported {
        detail: format!("shard partial failed to decode: {e}"),
    }
}

fn merge_err(e: aqp_mergeable::MergeError) -> AqpError {
    AqpError::Unsupported {
        detail: format!("shard partials failed to merge: {e}"),
    }
}

/// Folds one shard into per-aggregate partial states: every block, in
/// order, through the engine's block fold (ungrouped, no predicate).
fn fold_shard(shard: &Table, aggs: &[AggExpr]) -> Result<Vec<AggState>, AqpError> {
    let fold = BlockFold::new(&[], &[], aggs, shard.schema(), true);
    let mut acc = fold.new_acc(None);
    for (_, block) in shard.iter_blocks() {
        fold.fold(block, &mut acc, false)?;
    }
    Ok(match acc.into_groups().pop() {
        Some((_, states)) => states,
        None => aggs.iter().map(|a| AggState::new(a.func)).collect(),
    })
}

/// Exact ungrouped aggregation over `table`, executed shard-at-a-time on
/// the morsel pool with partials serialized between worker and
/// coordinator. Bit-for-bit identical to the `shards = 1` serial fold:
/// merging in shard order reproduces the serial float summation order.
pub fn exact_aggregate_sharded(
    table: &Table,
    aggs: &[AggExpr],
    shards: usize,
    threads: usize,
) -> Result<Vec<Value>, AqpError> {
    let aggs_owned = aggs.to_vec();
    let parts = parallel_map(table.shard(shards.max(1)), threads, move |_, shard| {
        fold_shard(&shard, &aggs_owned)
            .map(|states| states.iter().map(Partial::to_bytes).collect::<Vec<_>>())
    });
    let mut acc: Option<Vec<AggState>> = None;
    for part in parts {
        let states = part?
            .iter()
            .map(|b| AggState::from_bytes(b).map_err(decode_err))
            .collect::<Result<Vec<_>, _>>()?;
        match &mut acc {
            None => acc = Some(states),
            Some(a) => {
                for (left, right) in a.iter_mut().zip(&states) {
                    left.try_merge(right).map_err(merge_err)?;
                }
            }
        }
    }
    Ok(acc
        .map(|states| states.iter().map(AggState::finish).collect())
        .unwrap_or_default())
}

/// Merges serialized per-shard samples in shard order.
fn merge_sample_parts(parts: Vec<bytes::Bytes>) -> Result<Sample, AqpError> {
    let mut acc: Option<Sample> = None;
    for bytes in parts {
        let sample = Sample::from_bytes(&bytes).map_err(decode_err)?;
        match &mut acc {
            None => acc = Some(sample),
            Some(a) => a.merge(&sample).map_err(merge_err)?,
        }
    }
    acc.ok_or_else(|| AqpError::Unsupported {
        detail: "no shards to merge".to_string(),
    })
}

/// Draws an equal-rate Bernoulli row sample on every shard in parallel and
/// pools them into one Bernoulli sample of the whole table. Estimates and
/// variances from the merged sample follow the ordinary single-table
/// Bernoulli estimator — sharding changes the execution, not the design.
pub fn bernoulli_sample_sharded(
    table: &Table,
    rate: f64,
    seed: u64,
    shards: usize,
    threads: usize,
) -> Result<Sample, AqpError> {
    let parts = parallel_map(table.shard(shards.max(1)), threads, move |j, shard| {
        let s = bernoulli_rows(
            &shard,
            rate,
            seed.wrapping_add((j as u64).wrapping_mul(SHARD_SEED_STRIDE)),
        );
        Partial::to_bytes(&s)
    });
    merge_sample_parts(parts)
}

/// Draws a fixed-size SRS of `per_shard` rows on every shard in parallel;
/// the merged result is a `__shard`-stratified sample whose per-stratum
/// weights and finite-population corrections give design-correct variance
/// for the union — the weight reconciliation half of the tentpole.
pub fn srs_sample_sharded(
    table: &Table,
    per_shard: usize,
    seed: u64,
    shards: usize,
    threads: usize,
) -> Result<Sample, AqpError> {
    let parts = parallel_map(table.shard(shards.max(1)), threads, move |j, shard| {
        let s = reservoir_rows(
            &shard,
            per_shard,
            seed.wrapping_add((j as u64).wrapping_mul(SHARD_SEED_STRIDE)),
        );
        Partial::to_bytes(&s)
    });
    merge_sample_parts(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_expr::col;
    use aqp_workload::uniform_table;

    fn bits(v: &Value) -> String {
        match v {
            Value::Float64(x) => format!("f{}", x.to_bits()),
            other => format!("{other:?}"),
        }
    }

    #[test]
    fn sharded_exact_is_bit_identical_to_serial() {
        let t = uniform_table("t", 20_000, 256, 11);
        // Counts, extrema, and integer-valued sums are order-independent in
        // f64, so shard-then-merge reproduces the serial bits exactly.
        let aggs = vec![
            AggExpr::count_star("c"),
            AggExpr::sum(col("id"), "s"),
            AggExpr::avg(col("id"), "a"),
            AggExpr::min(col("v"), "lo"),
            AggExpr::max(col("v"), "hi"),
        ];
        let serial = exact_aggregate_sharded(&t, &aggs, 1, 1).unwrap();
        for shards in [2usize, 4, 8] {
            for threads in [1usize, 4] {
                let sharded = exact_aggregate_sharded(&t, &aggs, shards, threads).unwrap();
                for (a, b) in serial.iter().zip(&sharded) {
                    assert_eq!(bits(a), bits(b), "shards={shards} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn sharded_float_sum_matches_at_machine_precision() {
        // Continuous floats: shard boundaries change the summation
        // grouping, so equality is to machine precision, not bits.
        let t = uniform_table("t", 20_000, 256, 11);
        let aggs = vec![AggExpr::sum(col("v"), "s")];
        let serial = exact_aggregate_sharded(&t, &aggs, 1, 1).unwrap()[0]
            .as_f64()
            .unwrap();
        for shards in [2usize, 4, 8] {
            let sharded = exact_aggregate_sharded(&t, &aggs, shards, 4).unwrap()[0]
                .as_f64()
                .unwrap();
            assert!(
                ((sharded - serial) / serial).abs() < 1e-12,
                "shards={shards}: {sharded} vs {serial}"
            );
        }
    }

    #[test]
    fn sharded_bernoulli_estimates_the_population() {
        let t = uniform_table("t", 50_000, 512, 3);
        let exact = exact_aggregate_sharded(&t, &[AggExpr::sum(col("v"), "s")], 1, 1).unwrap();
        let truth = exact[0].as_f64().unwrap();
        for shards in [1usize, 4] {
            let s = bernoulli_sample_sharded(&t, 0.1, 9, shards, 4).unwrap();
            let est = s.estimate_sum("v").unwrap();
            let ci = est.ci(0.99);
            assert!(
                ci.lo <= truth && truth <= ci.hi,
                "shards={shards}: {truth} outside [{}, {}]",
                ci.lo,
                ci.hi
            );
        }
    }

    #[test]
    fn sharded_srs_variance_tracks_unsharded() {
        let t = uniform_table("t", 40_000, 512, 5);
        let unsharded = srs_sample_sharded(&t, 4_000, 21, 1, 1).unwrap();
        let base = unsharded.estimate_sum("v").unwrap();
        for shards in [2usize, 4, 8] {
            let merged = srs_sample_sharded(&t, 4_000 / shards, 21, shards, 4).unwrap();
            assert_eq!(merged.num_rows(), 4_000 / shards * shards);
            let est = merged.estimate_sum("v").unwrap();
            // Same total budget over a uniform table: the stratified-merged
            // CI must be in the same regime as the single SRS CI.
            let width_ratio = (est.variance / base.variance).sqrt();
            assert!(
                (0.5..2.0).contains(&width_ratio),
                "shards={shards}: CI width ratio {width_ratio}"
            );
        }
    }
}
