//! Merging samples: the sampling layer's half of two-step aggregation.
//!
//! Two samples drawn independently from *disjoint* partitions of a
//! population combine into one valid sample of the union — if the designs
//! are reconciled correctly. That reconciliation is per-stratum weight
//! bookkeeping, and it is what makes folding in a partial drawn from a
//! disjoint partition (an append-only delta, a shard) statistically sound
//! rather than merely convenient:
//!
//! * **Stratified + stratified** (same column): strata are independent SRS
//!   units, so the merged sample simply carries both strata lists (row
//!   ranges offset into the concatenated table). Duplicate keys are fine —
//!   estimation iterates strata independently, and each side's stratum
//!   keeps its own population and weights. Exact.
//! * **Fixed-size SRS + fixed-size SRS**: each side is converted to a
//!   single stratum of a stratified design (SRS within stratum *is* the
//!   SRS design, finite-population correction included), then merged as
//!   above. Exact, and the reason the merged CI matches the sharded math.
//!   A `__shard`-stratified sample (the product of such a merge) keeps
//!   absorbing further SRS shards as new strata, so a left-to-right fold
//!   over N shards works for any N.
//! * **Bernoulli / universe / bi-level at bit-identical rates**: HT
//!   estimators are sums over independent inclusion draws, so tables
//!   concatenate and population counts add. A rate mismatch is a typed
//!   [`MergeError::Incompatible`] — unequal-probability pooling would need
//!   per-row probabilities we no longer have.
//! * **Distinct and block-SRS designs**: no statistically sound merge
//!   exists without re-scanning (the frequency cap and the fixed block
//!   count are global properties), so merging returns
//!   [`MergeError::Unsupported`].

use aqp_mergeable::{MergeError, Partial};

use crate::design::{RowWeights, Sample, SampleDesign, StratumMeta};

fn concat_weights(a: &RowWeights, a_rows: usize, b: &RowWeights, b_rows: usize) -> RowWeights {
    if let (RowWeights::Uniform(x), RowWeights::Uniform(y)) = (a, b) {
        if x.to_bits() == y.to_bits() {
            return RowWeights::Uniform(*x);
        }
    }
    let mut v = Vec::with_capacity(a_rows + b_rows);
    for i in 0..a_rows {
        v.push(a.weight(i));
    }
    for i in 0..b_rows {
        v.push(b.weight(i));
    }
    RowWeights::PerRow(v)
}

/// A fixed-size SRS of `n` rows from a population of `N` is exactly one
/// stratum of a stratified design (SRS within stratum, fpc included).
/// `key` distinguishes the shard the stratum came from.
fn srs_as_stratum(population_rows: u64, rows: usize, key: i64) -> Vec<StratumMeta> {
    vec![StratumMeta {
        key: aqp_storage::Value::Int64(key),
        population_size: population_rows,
        row_start: 0,
        row_end: rows,
    }]
}

fn rate_mismatch(expected: f64, found: f64) -> MergeError {
    MergeError::Incompatible {
        kind: "sample",
        expected: format!("rate {expected}"),
        found: format!("rate {found}"),
    }
}

impl Sample {
    /// Folds `other` — an independent sample of a *disjoint* partition of
    /// the population — into `self`, reconciling designs and per-stratum
    /// weights. See the module docs for which design pairs merge and why.
    /// On error, `self` is unchanged.
    pub fn merge(&mut self, other: &Sample) -> Result<(), MergeError> {
        let a_rows = self.table.row_count();
        let b_rows = other.table.row_count();
        let merged_design = match (&self.design, &other.design) {
            (
                SampleDesign::Stratified { column, strata },
                SampleDesign::Stratified {
                    column: other_column,
                    strata: other_strata,
                },
            ) => {
                if column != other_column {
                    return Err(MergeError::Incompatible {
                        kind: "sample",
                        expected: format!("stratified on {column}"),
                        found: format!("stratified on {other_column}"),
                    });
                }
                let mut merged = strata.clone();
                merged.extend(other_strata.iter().map(|s| StratumMeta {
                    key: s.key.clone(),
                    population_size: s.population_size,
                    row_start: s.row_start + a_rows,
                    row_end: s.row_end + a_rows,
                }));
                SampleDesign::Stratified {
                    column: column.clone(),
                    strata: merged,
                }
            }
            (
                SampleDesign::FixedSizeRows { population_rows },
                SampleDesign::FixedSizeRows {
                    population_rows: other_population,
                },
            ) => {
                let mut strata = srs_as_stratum(*population_rows, a_rows, 0);
                strata.extend(
                    srs_as_stratum(*other_population, b_rows, 1)
                        .into_iter()
                        .map(|mut s| {
                            s.row_start += a_rows;
                            s.row_end += a_rows;
                            s
                        }),
                );
                SampleDesign::Stratified {
                    column: "__shard".into(),
                    strata,
                }
            }
            (
                SampleDesign::BernoulliRows {
                    rate,
                    population_rows,
                },
                SampleDesign::BernoulliRows {
                    rate: other_rate,
                    population_rows: other_population,
                },
            ) => {
                if rate.to_bits() != other_rate.to_bits() {
                    return Err(rate_mismatch(*rate, *other_rate));
                }
                SampleDesign::BernoulliRows {
                    rate: *rate,
                    population_rows: population_rows + other_population,
                }
            }
            (
                SampleDesign::BernoulliBlocks {
                    rate,
                    population_blocks,
                    population_rows,
                },
                SampleDesign::BernoulliBlocks {
                    rate: other_rate,
                    population_blocks: other_blocks,
                    population_rows: other_rows,
                },
            ) => {
                if rate.to_bits() != other_rate.to_bits() {
                    return Err(rate_mismatch(*rate, *other_rate));
                }
                SampleDesign::BernoulliBlocks {
                    rate: *rate,
                    population_blocks: population_blocks + other_blocks,
                    population_rows: population_rows + other_rows,
                }
            }
            (
                SampleDesign::Universe {
                    column,
                    rate,
                    population_rows,
                },
                SampleDesign::Universe {
                    column: other_column,
                    rate: other_rate,
                    population_rows: other_population,
                },
            ) => {
                if column != other_column {
                    return Err(MergeError::Incompatible {
                        kind: "sample",
                        expected: format!("universe on {column}"),
                        found: format!("universe on {other_column}"),
                    });
                }
                if rate.to_bits() != other_rate.to_bits() {
                    return Err(rate_mismatch(*rate, *other_rate));
                }
                SampleDesign::Universe {
                    column: column.clone(),
                    rate: *rate,
                    population_rows: population_rows + other_population,
                }
            }
            (
                SampleDesign::BiLevel {
                    block_rate,
                    row_rate,
                    population_blocks,
                    population_rows,
                },
                SampleDesign::BiLevel {
                    block_rate: other_block_rate,
                    row_rate: other_row_rate,
                    population_blocks: other_blocks,
                    population_rows: other_rows,
                },
            ) => {
                if block_rate.to_bits() != other_block_rate.to_bits()
                    || row_rate.to_bits() != other_row_rate.to_bits()
                {
                    return Err(MergeError::Incompatible {
                        kind: "sample",
                        expected: format!("bilevel rates ({block_rate}, {row_rate})"),
                        found: format!("bilevel rates ({other_block_rate}, {other_row_rate})"),
                    });
                }
                SampleDesign::BiLevel {
                    block_rate: *block_rate,
                    row_rate: *row_rate,
                    population_blocks: population_blocks + other_blocks,
                    population_rows: population_rows + other_rows,
                }
            }
            // A left-to-right fold over N > 2 SRS shards: the first merge
            // produced a `__shard`-stratified sample, and every further SRS
            // shard joins it as one more stratum. Duplicate stratum keys are
            // harmless — estimation iterates strata by position.
            (
                SampleDesign::Stratified { column, strata },
                SampleDesign::FixedSizeRows {
                    population_rows: other_population,
                },
            ) if column == "__shard" => {
                let mut merged = strata.clone();
                merged.push(StratumMeta {
                    key: aqp_storage::Value::Int64(merged.len() as i64),
                    population_size: *other_population,
                    row_start: a_rows,
                    row_end: a_rows + b_rows,
                });
                SampleDesign::Stratified {
                    column: column.clone(),
                    strata: merged,
                }
            }
            (
                SampleDesign::FixedSizeRows { population_rows },
                SampleDesign::Stratified {
                    column,
                    strata: other_strata,
                },
            ) if column == "__shard" => {
                let mut merged = srs_as_stratum(*population_rows, a_rows, -1);
                merged.extend(other_strata.iter().map(|s| StratumMeta {
                    key: s.key.clone(),
                    population_size: s.population_size,
                    row_start: s.row_start + a_rows,
                    row_end: s.row_end + a_rows,
                }));
                SampleDesign::Stratified {
                    column: column.clone(),
                    strata: merged,
                }
            }
            (a, b) if std::mem::discriminant(a) != std::mem::discriminant(b) => {
                return Err(MergeError::Unsupported {
                    kind: "sample",
                    reason: format!("cannot combine {} with {}", a.name(), b.name()),
                });
            }
            (a, _) => {
                return Err(MergeError::Unsupported {
                    kind: "sample",
                    reason: format!(
                        "{} samples have no partition-merge (design is a global property)",
                        a.name()
                    ),
                });
            }
        };
        let weights = concat_weights(&self.weights, a_rows, &other.weights, b_rows);
        // Table merge last: design reconciliation above cannot fail anymore,
        // so a schema mismatch here still leaves self unchanged.
        let mut table = self.table.clone();
        Partial::merge(&mut table, &other.table)?;
        self.table = table;
        self.design = merged_design;
        self.weights = weights;
        Ok(())
    }
}

/// Samples merge by partition pooling (see [`Sample::merge`] for the
/// statistical contract).
impl Partial for Sample {
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        Sample::merge(self, other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_storage::{DataType, Field, Schema, TableBuilder, Value};

    fn small_table(values: &[f64], cap: usize) -> aqp_storage::Table {
        let schema = Schema::new(vec![Field::new("v", DataType::Float64)]);
        let mut b = TableBuilder::with_block_capacity("t", schema, cap);
        for &v in values {
            b.push_row(&[Value::Float64(v)]).unwrap();
        }
        b.finish()
    }

    fn srs(values: &[f64], population: u64) -> Sample {
        let w = population as f64 / values.len() as f64;
        Sample {
            table: small_table(values, 8),
            design: SampleDesign::FixedSizeRows {
                population_rows: population,
            },
            weights: RowWeights::Uniform(w),
        }
    }

    #[test]
    fn srs_merge_becomes_stratified_with_exact_totals() {
        // Shard A: 4 of 8 rows; shard B: 3 of 6 rows.
        let mut a = srs(&[1.0, 2.0, 3.0, 4.0], 8);
        let b = srs(&[10.0, 20.0, 30.0], 6);
        let est_a = a.estimate_sum("v").unwrap();
        let est_b = b.estimate_sum("v").unwrap();
        a.merge(&b).unwrap();
        assert!(matches!(a.design, SampleDesign::Stratified { .. }));
        let merged = a.estimate_sum("v").unwrap();
        // Strata are independent: totals and variances add exactly.
        assert!((merged.value - (est_a.value + est_b.value)).abs() < 1e-9);
        assert!((merged.variance - (est_a.variance + est_b.variance)).abs() < 1e-6);
        // Weight reconciliation: each row keeps its own shard's HT weight.
        assert_eq!(a.weights.weight(0), 2.0);
        assert_eq!(a.weights.weight(4), 2.0);
        assert_eq!(a.num_rows(), 7);
    }

    #[test]
    fn srs_fold_over_four_shards_accumulates_strata() {
        let shards = [
            srs(&[1.0, 2.0], 4),
            srs(&[3.0, 4.0], 4),
            srs(&[5.0, 6.0], 4),
            srs(&[7.0, 8.0], 4),
        ];
        let per_shard: f64 = shards
            .iter()
            .map(|s| s.estimate_sum("v").unwrap().value)
            .sum();
        let mut acc = shards[0].clone();
        for s in &shards[1..] {
            acc.merge(s).unwrap();
        }
        match &acc.design {
            SampleDesign::Stratified { column, strata } => {
                assert_eq!(column, "__shard");
                assert_eq!(strata.len(), 4);
            }
            other => panic!("unexpected design {other:?}"),
        }
        assert!((acc.estimate_sum("v").unwrap().value - per_shard).abs() < 1e-9);
    }

    #[test]
    fn stratified_merge_offsets_row_ranges() {
        let mk = |vals: &[f64], key: &str, pop: u64| Sample {
            table: small_table(vals, 8),
            design: SampleDesign::Stratified {
                column: "g".into(),
                strata: vec![StratumMeta {
                    key: Value::str(key),
                    population_size: pop,
                    row_start: 0,
                    row_end: vals.len(),
                }],
            },
            weights: RowWeights::PerRow(vec![pop as f64 / vals.len() as f64; vals.len()]),
        };
        let mut a = mk(&[10.0, 12.0], "a", 4);
        let b = mk(&[100.0, 110.0], "b", 6);
        a.merge(&b).unwrap();
        match &a.design {
            SampleDesign::Stratified { strata, .. } => {
                assert_eq!(strata.len(), 2);
                assert_eq!((strata[1].row_start, strata[1].row_end), (2, 4));
            }
            other => panic!("unexpected design {other:?}"),
        }
        // 4·11 + 6·105 = 674.
        let sum = a.estimate_sum("v").unwrap();
        assert!((sum.value - 674.0).abs() < 1e-9, "{}", sum.value);
    }

    #[test]
    fn stratified_merge_rejects_different_columns() {
        let mk = |col: &str| Sample {
            table: small_table(&[1.0], 8),
            design: SampleDesign::Stratified {
                column: col.into(),
                strata: vec![],
            },
            weights: RowWeights::Uniform(1.0),
        };
        let mut a = mk("g");
        let err = a.merge(&mk("h")).unwrap_err();
        assert!(matches!(
            err,
            MergeError::Incompatible { kind: "sample", .. }
        ));
    }

    #[test]
    fn bernoulli_merge_requires_equal_rates() {
        let mk = |rate: f64, vals: &[f64], pop: u64| Sample {
            table: small_table(vals, 4),
            design: SampleDesign::BernoulliRows {
                rate,
                population_rows: pop,
            },
            weights: RowWeights::Uniform(1.0 / rate),
        };
        let mut a = mk(0.5, &[1.0, 2.0], 4);
        let b = mk(0.5, &[3.0], 2);
        a.merge(&b).unwrap();
        match a.design {
            SampleDesign::BernoulliRows {
                rate,
                population_rows,
            } => {
                assert_eq!(rate, 0.5);
                assert_eq!(population_rows, 6);
            }
            ref other => panic!("unexpected design {other:?}"),
        }
        assert!((a.estimate_sum("v").unwrap().value - 12.0).abs() < 1e-12);

        let snapshot_rows = a.num_rows();
        let err = a.merge(&mk(0.25, &[9.0], 4)).unwrap_err();
        assert!(matches!(
            err,
            MergeError::Incompatible { kind: "sample", .. }
        ));
        assert_eq!(a.num_rows(), snapshot_rows, "failed merge must not mutate");
    }

    /// A three-row sample of `small_table` under `design`.
    fn with_design(design: SampleDesign, weights: RowWeights) -> Sample {
        Sample {
            table: small_table(&[1.0, 2.0, 3.0], 2),
            design,
            weights,
        }
    }

    #[test]
    fn every_design_merges_with_itself_or_refuses_typed() {
        let stratum = StratumMeta {
            key: Value::str("a"),
            population_size: 12,
            row_start: 0,
            row_end: 3,
        };
        // (design, the design two copies of it merge to; None = refused)
        let cases = vec![
            (
                SampleDesign::BernoulliRows {
                    rate: 0.25,
                    population_rows: 12,
                },
                Some(SampleDesign::BernoulliRows {
                    rate: 0.25,
                    population_rows: 24,
                }),
            ),
            (
                SampleDesign::BernoulliBlocks {
                    rate: 0.5,
                    population_blocks: 4,
                    population_rows: 12,
                },
                Some(SampleDesign::BernoulliBlocks {
                    rate: 0.5,
                    population_blocks: 8,
                    population_rows: 24,
                }),
            ),
            (
                SampleDesign::FixedSizeRows {
                    population_rows: 12,
                },
                Some(SampleDesign::Stratified {
                    column: "__shard".into(),
                    strata: vec![
                        StratumMeta {
                            key: Value::Int64(0),
                            ..stratum.clone()
                        },
                        StratumMeta {
                            key: Value::Int64(1),
                            row_start: 3,
                            row_end: 6,
                            ..stratum.clone()
                        },
                    ],
                }),
            ),
            (
                SampleDesign::FixedSizeBlocks {
                    population_blocks: 4,
                    population_rows: 12,
                },
                None,
            ),
            (
                SampleDesign::Stratified {
                    column: "g".into(),
                    strata: vec![stratum.clone()],
                },
                Some(SampleDesign::Stratified {
                    column: "g".into(),
                    strata: vec![
                        stratum.clone(),
                        StratumMeta {
                            row_start: 3,
                            row_end: 6,
                            ..stratum.clone()
                        },
                    ],
                }),
            ),
            (
                SampleDesign::Universe {
                    column: "v".into(),
                    rate: 0.3,
                    population_rows: 12,
                },
                Some(SampleDesign::Universe {
                    column: "v".into(),
                    rate: 0.3,
                    population_rows: 24,
                }),
            ),
            (
                SampleDesign::BiLevel {
                    block_rate: 0.5,
                    row_rate: 0.5,
                    population_blocks: 4,
                    population_rows: 12,
                },
                Some(SampleDesign::BiLevel {
                    block_rate: 0.5,
                    row_rate: 0.5,
                    population_blocks: 8,
                    population_rows: 24,
                }),
            ),
            (
                SampleDesign::Distinct {
                    columns: vec!["v".into()],
                    cap: 2,
                    rate: 0.25,
                    population_rows: 12,
                },
                None,
            ),
        ];
        for (design, expected) in cases {
            for weights in [
                RowWeights::Uniform(4.0),
                RowWeights::PerRow(vec![1.0, 2.0, 4.0]),
            ] {
                let part = with_design(design.clone(), weights);
                let mut merged = part.clone();
                match (merged.merge(&part), &expected) {
                    (Ok(()), Some(want)) => {
                        assert_eq!(&merged.design, want);
                        assert_eq!(merged.num_rows(), 6);
                        for i in 0..3 {
                            assert_eq!(merged.weights.weight(i), part.weights.weight(i));
                            assert_eq!(merged.weights.weight(3 + i), part.weights.weight(i));
                        }
                        // The weighted total of the pooled rows is the sum
                        // of the parts' totals.
                        let whole = merged.estimate_sum("v").unwrap().value;
                        let each = part.estimate_sum("v").unwrap().value;
                        assert!((whole - 2.0 * each).abs() < 1e-9, "{}", design.name());
                    }
                    (Err(MergeError::Unsupported { kind: "sample", .. }), None) => {
                        assert_eq!(merged.design, part.design);
                        assert_eq!(merged.num_rows(), 3);
                    }
                    (got, _) => panic!("{}: unexpected merge outcome {got:?}", design.name()),
                }
            }
        }
    }

    #[test]
    fn failed_merge_leaves_the_sample_unchanged() {
        let bern = |rate: f64| {
            with_design(
                SampleDesign::BernoulliRows {
                    rate,
                    population_rows: 12,
                },
                RowWeights::PerRow(vec![1.0, 2.0, 4.0]),
            )
        };
        let universe = |column: &str| {
            with_design(
                SampleDesign::Universe {
                    column: column.into(),
                    rate: 0.5,
                    population_rows: 12,
                },
                RowWeights::Uniform(2.0),
            )
        };
        let bilevel = |row_rate: f64| {
            with_design(
                SampleDesign::BiLevel {
                    block_rate: 0.5,
                    row_rate,
                    population_blocks: 4,
                    population_rows: 12,
                },
                RowWeights::Uniform(4.0),
            )
        };
        // Same design, but the other sample's rows have another schema:
        // the table merge is the step that refuses.
        let mut other_schema = bern(0.25);
        other_schema.table = {
            let schema = Schema::new(vec![Field::new("w", DataType::Int64)]);
            let mut b = TableBuilder::new("o", schema);
            b.push_row(&[Value::Int64(1)]).unwrap();
            b.finish()
        };
        let pairs = [
            (bern(0.25), bern(0.5)),
            (universe("v"), universe("w")),
            (bilevel(0.5), bilevel(0.25)),
            (bern(0.25), universe("v")),
            (bern(0.25), other_schema),
        ];
        for (receiver, offered) in pairs {
            let mut s = receiver.clone();
            assert!(s.merge(&offered).is_err(), "{}", receiver.design.name());
            assert_eq!(s.design, receiver.design);
            assert_eq!(s.weights, receiver.weights);
            assert_eq!(s.num_rows(), receiver.num_rows());
            assert!((0..3).all(|i| s.table.row(i) == receiver.table.row(i)));
        }
    }

    #[test]
    fn srs_joins_a_shard_stratified_sample_from_the_left() {
        // A lone SRS shard merged with an already-merged pair takes the
        // first stratum and shifts the pair's row ranges behind it.
        let lone = srs(&[5.0, 6.0], 4);
        let mut pair = srs(&[1.0, 2.0], 4);
        pair.merge(&srs(&[3.0, 4.0, 7.0], 9)).unwrap();
        let parts = lone.estimate_sum("v").unwrap().value + pair.estimate_sum("v").unwrap().value;
        let mut acc = lone;
        acc.merge(&pair).unwrap();
        match &acc.design {
            SampleDesign::Stratified { column, strata } => {
                assert_eq!(column, "__shard");
                let ranges: Vec<(usize, usize, u64)> = strata
                    .iter()
                    .map(|s| (s.row_start, s.row_end, s.population_size))
                    .collect();
                assert_eq!(ranges, vec![(0, 2, 4), (2, 4, 4), (4, 7, 9)]);
                assert_eq!(strata[0].key, Value::Int64(-1));
            }
            other => panic!("unexpected design {other:?}"),
        }
        assert_eq!(acc.num_rows(), 7);
        assert!((acc.estimate_sum("v").unwrap().value - parts).abs() < 1e-9);
    }

    #[test]
    fn unsupported_pairs_error_without_panicking() {
        let bern = Sample {
            table: small_table(&[1.0], 4),
            design: SampleDesign::BernoulliRows {
                rate: 0.5,
                population_rows: 2,
            },
            weights: RowWeights::Uniform(2.0),
        };
        let distinct = Sample {
            table: small_table(&[1.0], 4),
            design: SampleDesign::Distinct {
                columns: vec!["v".into()],
                cap: 1,
                rate: 0.5,
                population_rows: 2,
            },
            weights: RowWeights::PerRow(vec![1.0]),
        };
        // Mixed kinds.
        let mut a = bern;
        assert!(matches!(
            a.merge(&distinct).unwrap_err(),
            MergeError::Unsupported { kind: "sample", .. }
        ));
        // Same kind, but the design is a global property.
        let mut d = distinct.clone();
        assert!(matches!(
            d.merge(&distinct).unwrap_err(),
            MergeError::Unsupported { kind: "sample", .. }
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use aqp_storage::{DataType, Field, Schema, TableBuilder, Value};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Equal-rate Bernoulli samples of two disjoint tables pool into
        /// one Bernoulli sample of the union: rows and population add,
        /// the rate stays, and the HT total and its variance add.
        #[test]
        fn bernoulli_merge_pools_rows_and_keeps_the_rate(
            left in prop::collection::vec(-1e6f64..1e6, 1..200),
            right in prop::collection::vec(-1e6f64..1e6, 1..200),
            seed in any::<u64>(),
        ) {
            let table = |vals: &[f64]| {
                let schema = Schema::new(vec![Field::new("v", DataType::Float64)]);
                let mut b = TableBuilder::with_block_capacity("p", schema, 16);
                for &v in vals {
                    b.push_row(&[Value::Float64(v)]).unwrap();
                }
                b.finish()
            };
            let a = crate::bernoulli_rows(&table(&left), 0.4, seed);
            let b = crate::bernoulli_rows(&table(&right), 0.4, seed ^ 1);
            let (ea, eb) = (a.estimate_sum("v").unwrap(), b.estimate_sum("v").unwrap());
            let mut merged = a.clone();
            merged.merge(&b).unwrap();
            prop_assert_eq!(merged.num_rows(), a.num_rows() + b.num_rows());
            prop_assert_eq!(
                &merged.design,
                &SampleDesign::BernoulliRows {
                    rate: 0.4,
                    population_rows: (left.len() + right.len()) as u64,
                }
            );
            let em = merged.estimate_sum("v").unwrap();
            let tol = |x: f64| 1e-9 * (1.0 + x.abs());
            prop_assert!((em.value - (ea.value + eb.value)).abs() < tol(em.value));
            prop_assert!((em.variance - (ea.variance + eb.variance)).abs() < tol(em.variance));
        }

        /// Merging two disjoint-partition SRS shards yields the same point
        /// estimate as HT weighting demands, with additive variance.
        #[test]
        fn srs_shard_merge_is_exact(
            left in prop::collection::vec(-1e4f64..1e4, 2..50),
            right in prop::collection::vec(-1e4f64..1e4, 2..50),
        ) {
            let mk = |vals: &[f64]| {
                let schema = Schema::new(vec![Field::new("v", DataType::Float64)]);
                let mut b = TableBuilder::with_block_capacity("p", schema, 8);
                for &v in vals {
                    b.push_row(&[Value::Float64(v)]).unwrap();
                }
                Sample {
                    table: b.finish(),
                    design: SampleDesign::FixedSizeRows {
                        population_rows: 2 * vals.len() as u64,
                    },
                    weights: RowWeights::Uniform(2.0),
                }
            };
            let a = mk(&left);
            let b = mk(&right);
            let (ea, eb) = (a.estimate_sum("v").unwrap(), b.estimate_sum("v").unwrap());
            let mut merged = a;
            merged.merge(&b).unwrap();
            let em = merged.estimate_sum("v").unwrap();
            prop_assert!((em.value - (ea.value + eb.value)).abs() < 1e-6 * (1.0 + em.value.abs()));
            prop_assert!(
                (em.variance - (ea.variance + eb.variance)).abs()
                    < 1e-6 * (1.0 + em.variance.abs())
            );
        }
    }
}
