//! Stratified sampling with proportional, Neyman, equal, and congressional
//! allocation.
//!
//! Stratified samples are the heart of the *offline* AQP systems NSB
//! surveys (AQUA's congressional samples, STRAT, BlinkDB): by giving every
//! group a guaranteed allocation they fix uniform sampling's missing-group
//! problem — at the price of committing, ahead of time, to one
//! stratification column set. E3 and E8 measure both sides of that trade.

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use aqp_stats::Moments;
use aqp_storage::{StorageError, Table, TableBuilder, Value};

use crate::design::{RowWeights, Sample, SampleDesign, StratumMeta};

/// How the row budget is split across strata.
#[derive(Debug, Clone, PartialEq)]
pub enum Allocation {
    /// `n_h ∝ N_h` — mirrors the population; small groups stay small.
    Proportional {
        /// Total row budget.
        budget: usize,
    },
    /// `n_h ∝ N_h·σ_h` of a measure column — minimizes variance of the
    /// stratified mean of that measure.
    Neyman {
        /// Total row budget.
        budget: usize,
        /// Numeric column whose per-stratum spread drives the allocation.
        measure: String,
    },
    /// Same count for every stratum — maximizes small-group coverage.
    Equal {
        /// Rows per stratum.
        per_stratum: usize,
    },
    /// Congressional (AQUA): per-stratum max of the proportional "house"
    /// and the equal "senate", rescaled to the budget. Balances per-group
    /// and overall accuracy.
    Congressional {
        /// Total row budget.
        budget: usize,
    },
}

/// Draws a stratified sample over the distinct values of `column`.
///
/// Builds per-stratum simple random samples (without replacement) with the
/// requested allocation. The returned sample's table is ordered stratum by
/// stratum, with [`StratumMeta`] recording each stratum's row range,
/// population size, and key; weights are `N_h / n_h` per row.
pub fn stratified_sample(
    table: &Table,
    column: &str,
    allocation: &Allocation,
    seed: u64,
) -> Result<Sample, StorageError> {
    stratified_sample_with_threads(table, column, allocation, seed, 1)
}

/// [`stratified_sample`] with a morsel-parallel pass 1: workers group one
/// block each, and per-block partials merge in block order, so the sampled
/// row coordinates — and hence the drawn sample — are identical at every
/// thread count. (Under Neyman allocation the per-stratum moments are
/// combined pairwise rather than by a single streaming fold, which can
/// differ from `threads == 1` in final ulps of the allocation stddevs;
/// allocations round to whole rows, so in practice the sample is the same.)
pub fn stratified_sample_with_threads(
    table: &Table,
    column: &str,
    allocation: &Allocation,
    seed: u64,
    threads: usize,
) -> Result<Sample, StorageError> {
    let col_idx = table.schema().index_of(column)?;
    let measure_idx = match allocation {
        Allocation::Neyman { measure, .. } => Some(table.schema().index_of(measure)?),
        _ => None,
    };

    // Pass 1: group row coordinates by stratum key (full scan — the cost
    // that makes this an *offline* technique).
    struct StratumAcc {
        key: Value,
        coords: Vec<(usize, usize)>,
        measure: Moments,
    }
    let mut strata: HashMap<u64, StratumAcc> = HashMap::new();
    if threads <= 1 {
        for (bi, block) in table.iter_blocks() {
            let keys = block.column(col_idx);
            for ri in 0..block.len() {
                let key = keys.get(ri);
                let h = aqp_expr::stable_hash64(&key);
                let acc = strata.entry(h).or_insert_with(|| StratumAcc {
                    key,
                    coords: Vec::new(),
                    measure: Moments::new(),
                });
                acc.coords.push((bi, ri));
                if let Some(mi) = measure_idx {
                    if let Some(v) = block.column(mi).f64_at(ri) {
                        acc.measure.push(v);
                    }
                }
            }
        }
    } else {
        let blocks: Vec<(usize, std::sync::Arc<aqp_storage::Block>)> = table
            .iter_blocks()
            .map(|(bi, b)| (bi, std::sync::Arc::clone(b)))
            .collect();
        let partials = aqp_engine::pool::parallel_map(blocks, threads, |_, (bi, block)| {
            let mut local: HashMap<u64, StratumAcc> = HashMap::new();
            let keys = block.column(col_idx);
            for ri in 0..block.len() {
                let key = keys.get(ri);
                let h = aqp_expr::stable_hash64(&key);
                let acc = local.entry(h).or_insert_with(|| StratumAcc {
                    key,
                    coords: Vec::new(),
                    measure: Moments::new(),
                });
                acc.coords.push((bi, ri));
                if let Some(mi) = measure_idx {
                    if let Some(v) = block.column(mi).f64_at(ri) {
                        acc.measure.push(v);
                    }
                }
            }
            local
        });
        // Merge in block order: per-stratum coords concatenate to exactly
        // the serial scan order, because each partial holds one block.
        for part in partials {
            for (h, acc) in part {
                match strata.entry(h) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        let dst = e.get_mut();
                        dst.coords.extend(acc.coords);
                        dst.measure = dst.measure.merge(&acc.measure);
                    }
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(acc);
                    }
                }
            }
        }
    }
    // Deterministic stratum order.
    let mut strata: Vec<StratumAcc> = strata.into_values().collect();
    strata.sort_by_key(|s| aqp_expr::stable_hash64(&s.key));

    // Allocation.
    let sizes: Vec<u64> = strata.iter().map(|s| s.coords.len() as u64).collect();
    let allocations: Vec<u64> = match allocation {
        Allocation::Proportional { budget } => proportional(&sizes, *budget as u64),
        Allocation::Neyman { budget, .. } => {
            let stds: Vec<f64> = strata
                .iter()
                .map(|s| {
                    let v = s.measure.variance();
                    if v.is_nan() {
                        0.0
                    } else {
                        v.sqrt()
                    }
                })
                .collect();
            neyman(&sizes, &stds, *budget as u64)
        }
        Allocation::Equal { per_stratum } => sizes
            .iter()
            .map(|&n| (*per_stratum as u64).min(n))
            .collect(),
        Allocation::Congressional { budget } => congressional(&sizes, *budget as u64),
    };

    // Pass 2: per-stratum SRS, emitted stratum by stratum.
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut builder = TableBuilder::with_block_capacity(
        format!("{}__strat_{column}", table.name()),
        table.schema().as_ref().clone(),
        table.block_capacity(),
    );
    let mut metas = Vec::with_capacity(strata.len());
    let mut weights = Vec::new();
    let mut cursor = 0usize;
    for (acc, &n_h) in strata.iter_mut().zip(&allocations) {
        let pop = acc.coords.len();
        let take = (n_h as usize).min(pop);
        acc.coords.shuffle(&mut rng);
        let row_start = cursor;
        for &(bi, ri) in acc.coords.iter().take(take) {
            builder.gather_row(table.block(bi), ri);
            cursor += 1;
        }
        let w = if take == 0 {
            1.0
        } else {
            pop as f64 / take as f64
        };
        weights.resize(weights.len() + take, w);
        metas.push(StratumMeta {
            key: acc.key.clone(),
            population_size: pop as u64,
            row_start,
            row_end: cursor,
        });
    }
    Ok(Sample {
        table: builder.finish(),
        design: SampleDesign::Stratified {
            column: column.to_string(),
            strata: metas,
        },
        weights: RowWeights::PerRow(weights),
    })
}

/// Proportional allocation with at-least-one-per-nonempty-stratum rounding.
fn proportional(sizes: &[u64], budget: u64) -> Vec<u64> {
    let total: u64 = sizes.iter().sum();
    if total == 0 {
        return vec![0; sizes.len()];
    }
    sizes
        .iter()
        .map(|&n| {
            if n == 0 {
                0
            } else {
                (((n as f64 / total as f64) * budget as f64).round() as u64).clamp(1, n)
            }
        })
        .collect()
}

/// Neyman allocation: `n_h ∝ N_h·σ_h`, which minimizes the variance of the
/// stratified mean for a budget of `n` rows. Falls back to proportional when
/// every σ is zero; each stratum gets at least 1 row when non-empty, capped
/// at its size.
fn neyman(sizes: &[u64], std_devs: &[f64], budget: u64) -> Vec<u64> {
    let weights: Vec<f64> = sizes
        .iter()
        .zip(std_devs)
        .map(|(&n, &s)| n as f64 * s.max(0.0))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut alloc: Vec<u64> = if total <= 0.0 {
        let pop: u64 = sizes.iter().sum();
        sizes
            .iter()
            .map(|&n| ((n as f64 / pop as f64) * budget as f64).round() as u64)
            .collect()
    } else {
        weights
            .iter()
            .map(|w| ((w / total) * budget as f64).round() as u64)
            .collect()
    };
    for (a, &n) in alloc.iter_mut().zip(sizes) {
        *a = (*a).clamp(u64::from(n > 0), n);
    }
    alloc
}

/// Congressional allocation: per-stratum max of proportional and equal,
/// rescaled to the budget.
fn congressional(sizes: &[u64], budget: u64) -> Vec<u64> {
    let k = sizes.iter().filter(|&&n| n > 0).count();
    if k == 0 {
        return vec![0; sizes.len()];
    }
    let total: u64 = sizes.iter().sum();
    let house: Vec<f64> = sizes
        .iter()
        .map(|&n| budget as f64 * n as f64 / total as f64)
        .collect();
    let senate = budget as f64 / k as f64;
    let raw: Vec<f64> = sizes
        .iter()
        .zip(&house)
        .map(|(&n, &h)| if n == 0 { 0.0 } else { h.max(senate) })
        .collect();
    let raw_total: f64 = raw.iter().sum();
    let scale = budget as f64 / raw_total;
    raw.iter()
        .zip(sizes)
        .map(|(&r, &n)| {
            if n == 0 {
                0
            } else {
                ((r * scale).round() as u64).clamp(1, n)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_storage::{DataType, Field, Schema};

    /// 3 strata with sizes 1000 / 100 / 10 and distinct value levels.
    fn skewed_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str),
            Field::new("v", DataType::Float64),
        ]);
        let mut b = TableBuilder::with_block_capacity("t", schema, 64);
        for i in 0..1000 {
            b.push_row(&[Value::str("big"), Value::Float64(10.0 + (i % 7) as f64)])
                .unwrap();
        }
        for i in 0..100 {
            b.push_row(&[Value::str("mid"), Value::Float64(100.0 + (i % 5) as f64)])
                .unwrap();
        }
        for i in 0..10 {
            b.push_row(&[Value::str("tiny"), Value::Float64(1000.0 + i as f64)])
                .unwrap();
        }
        b.finish()
    }

    fn stratum_count(s: &Sample, key: &str) -> usize {
        match &s.design {
            SampleDesign::Stratified { strata, .. } => strata
                .iter()
                .find(|m| m.key == Value::str(key))
                .map(|m| m.row_end - m.row_start)
                .unwrap_or(0),
            _ => panic!("not stratified"),
        }
    }

    #[test]
    fn proportional_mirrors_population() {
        let t = skewed_table();
        let s = stratified_sample(&t, "g", &Allocation::Proportional { budget: 111 }, 1).unwrap();
        let big = stratum_count(&s, "big");
        let tiny = stratum_count(&s, "tiny");
        assert!(big >= 90, "big stratum got {big}");
        assert!(tiny >= 1, "tiny stratum must keep at least one row");
        assert!(big > tiny * 10);
    }

    #[test]
    fn equal_allocation_covers_small_groups() {
        let t = skewed_table();
        let s = stratified_sample(&t, "g", &Allocation::Equal { per_stratum: 8 }, 1).unwrap();
        assert_eq!(stratum_count(&s, "big"), 8);
        assert_eq!(stratum_count(&s, "mid"), 8);
        assert_eq!(stratum_count(&s, "tiny"), 8);
    }

    #[test]
    fn congressional_between_proportional_and_equal() {
        let t = skewed_table();
        let s = stratified_sample(&t, "g", &Allocation::Congressional { budget: 90 }, 1).unwrap();
        let big = stratum_count(&s, "big");
        let tiny = stratum_count(&s, "tiny");
        // Senate floor lifts the tiny stratum well above proportional (~1),
        // while the house keeps big above equal (30).
        assert!(tiny >= 5, "tiny got {tiny}");
        assert!(big > tiny, "big {big} vs tiny {tiny}");
    }

    #[test]
    fn neyman_prefers_high_variance_strata() {
        // Two equal-size strata; one has far higher spread.
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str),
            Field::new("v", DataType::Float64),
        ]);
        let mut b = TableBuilder::with_block_capacity("t", schema, 64);
        for i in 0..500 {
            b.push_row(&[Value::str("flat"), Value::Float64(5.0 + (i % 2) as f64)])
                .unwrap();
            b.push_row(&[
                Value::str("wild"),
                Value::Float64(((i * 7919) % 1000) as f64),
            ])
            .unwrap();
        }
        let t = b.finish();
        let s = stratified_sample(
            &t,
            "g",
            &Allocation::Neyman {
                budget: 100,
                measure: "v".into(),
            },
            1,
        )
        .unwrap();
        assert!(stratum_count(&s, "wild") > 2 * stratum_count(&s, "flat"));
    }

    #[test]
    fn stratified_estimate_matches_truth_closely() {
        let t = skewed_table();
        let truth: f64 = t.column_f64("v").unwrap().iter().sum();
        let s = stratified_sample(&t, "g", &Allocation::Congressional { budget: 200 }, 5).unwrap();
        let e = s.estimate_sum("v").unwrap();
        assert!(
            e.relative_error(truth) < 0.05,
            "rel err {}",
            e.relative_error(truth)
        );
    }

    #[test]
    fn weights_are_inverse_sampling_fractions() {
        let t = skewed_table();
        let s = stratified_sample(&t, "g", &Allocation::Equal { per_stratum: 10 }, 2).unwrap();
        // Count-weighted total should reconstruct the population count.
        let cnt = s.estimate_count();
        assert!((cnt.value - 1110.0).abs() < 1e-9);
        // tiny stratum: 10 of 10 → weight 1.
        if let SampleDesign::Stratified { strata, .. } = &s.design {
            let tiny = strata.iter().find(|m| m.key == Value::str("tiny")).unwrap();
            assert_eq!(s.weights.weight(tiny.row_start), 1.0);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let t = skewed_table();
        let a = stratified_sample(&t, "g", &Allocation::Proportional { budget: 50 }, 9).unwrap();
        let b = stratified_sample(&t, "g", &Allocation::Proportional { budget: 50 }, 9).unwrap();
        assert_eq!(
            a.table.column_f64("v").unwrap(),
            b.table.column_f64("v").unwrap()
        );
    }

    #[test]
    fn parallel_pass1_matches_serial() {
        let t = skewed_table();
        for alloc in [
            Allocation::Proportional { budget: 120 },
            Allocation::Congressional { budget: 90 },
            Allocation::Equal { per_stratum: 7 },
            Allocation::Neyman {
                budget: 100,
                measure: "v".into(),
            },
        ] {
            let serial = stratified_sample(&t, "g", &alloc, 11).unwrap();
            for threads in [2, 4, 8] {
                let par = stratified_sample_with_threads(&t, "g", &alloc, 11, threads).unwrap();
                assert_eq!(
                    serial.table.column_f64("v").unwrap(),
                    par.table.column_f64("v").unwrap(),
                    "threads={threads} alloc={alloc:?}"
                );
                assert_eq!(serial.design, par.design, "threads={threads}");
            }
        }
    }

    #[test]
    fn missing_column_errors() {
        let t = skewed_table();
        assert!(
            stratified_sample(&t, "nope", &Allocation::Proportional { budget: 10 }, 0).is_err()
        );
        assert!(stratified_sample(
            &t,
            "g",
            &Allocation::Neyman {
                budget: 10,
                measure: "nope".into()
            },
            0
        )
        .is_err());
    }

    #[test]
    fn allocation_helpers() {
        assert_eq!(proportional(&[80, 20], 10), vec![8, 2]);
        assert_eq!(proportional(&[0, 0], 10), vec![0, 0]);
        let c = congressional(&[990, 10], 100);
        assert!(c[1] >= 10); // senate floor, capped at size
        assert_eq!(congressional(&[0, 0], 10), vec![0, 0]);
    }

    #[test]
    fn neyman_allocation_prefers_variable_strata() {
        let alloc = neyman(&[1000, 1000], &[1.0, 9.0], 100);
        assert_eq!(alloc.iter().sum::<u64>(), 100);
        assert!(alloc[1] > alloc[0] * 5);
    }

    #[test]
    fn neyman_allocation_caps_at_stratum_size() {
        let alloc = neyman(&[5, 1000], &[100.0, 1.0], 100);
        assert!(alloc[0] <= 5);
    }

    #[test]
    fn neyman_degenerate_falls_back_to_proportional() {
        let alloc = neyman(&[300, 700], &[0.0, 0.0], 100);
        assert_eq!(alloc, vec![30, 70]);
    }
}
