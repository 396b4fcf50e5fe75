//! Merging samples: the sampling layer's half of two-step aggregation.
//!
//! Two samples drawn independently from *disjoint* partitions of a
//! population combine into one valid sample of the union — if the designs
//! are reconciled correctly. That reconciliation is per-stratum weight
//! bookkeeping, and it is what makes folding in a stratified sample of an
//! append-only delta (aqp-core's `OfflineStore::maintain_stratified`)
//! statistically sound rather than merely convenient:
//!
//! * **Stratified + stratified** (same column): strata are independent SRS
//!   units, so the merged sample simply carries both strata lists (row
//!   ranges offset into the concatenated table). Duplicate keys are fine —
//!   estimation iterates strata independently, and each side's stratum
//!   keeps its own population and weights. Exact.
//! * **Every other pair** returns [`MergeError::Unsupported`]: nothing
//!   merges them. (Equal-rate Bernoulli, universe and bi-level samples
//!   would pool soundly, but no caller pools them; distinct and
//!   fixed-size designs have no sound merge without re-scanning, since
//!   the frequency cap and the sample size are global properties.)

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

impl Sample {
    /// Folds `other` — an independent stratified sample of a *disjoint*
    /// partition of the population, on the same column — into `self`,
    /// reconciling per-stratum weights. Any other pair is refused (see the
    /// module docs). On error, `self` is unchanged.
    pub fn merge(&mut self, other: &Sample) -> Result<(), MergeError> {
        let a_rows = self.table.row_count();
        let b_rows = other.table.row_count();
        let (
            SampleDesign::Stratified { column, strata },
            SampleDesign::Stratified {
                column: other_column,
                strata: other_strata,
            },
        ) = (&self.design, &other.design)
        else {
            return Err(MergeError::Unsupported {
                kind: "sample",
                reason: format!(
                    "only stratified samples merge, not {} with {}",
                    self.design.name(),
                    other.design.name()
                ),
            });
        };
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
        let merged_design = SampleDesign::Stratified {
            column: column.clone(),
            strata: merged,
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

/// Stratified samples merge by concatenating their strata (see
/// [`Sample::merge`] for the statistical contract).
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

    /// A stratified synopsis absorbs one delta sample per maintenance
    /// pass: a left-to-right fold keeps every part's strata, in order.
    #[test]
    fn stratified_fold_over_four_parts_accumulates_strata() {
        let part = |vals: &[f64], pop: u64| Sample {
            table: small_table(vals, 8),
            design: SampleDesign::Stratified {
                column: "g".into(),
                strata: vec![StratumMeta {
                    key: Value::str("a"),
                    population_size: pop,
                    row_start: 0,
                    row_end: vals.len(),
                }],
            },
            weights: RowWeights::Uniform(pop as f64 / vals.len() as f64),
        };
        let parts = [
            part(&[1.0, 2.0], 4),
            part(&[3.0, 4.0, 5.0], 6),
            part(&[6.0], 4),
            part(&[7.0, 8.0], 2),
        ];
        let per_part: f64 = (parts.iter())
            .map(|s| s.estimate_sum("v").unwrap().value)
            .sum();
        let mut acc = parts[0].clone();
        for p in &parts[1..] {
            acc.merge(p).unwrap();
        }
        let SampleDesign::Stratified { strata, .. } = &acc.design else {
            panic!("unexpected design {:?}", acc.design);
        };
        let ranges: Vec<(usize, usize, u64)> = (strata.iter())
            .map(|s| (s.row_start, s.row_end, s.population_size))
            .collect();
        assert_eq!(ranges, [(0, 2, 4), (2, 5, 6), (5, 6, 4), (6, 8, 2)]);
        // Unequal per-part weights are kept row by row.
        let weights: Vec<f64> = (0..8).map(|i| acc.weights.weight(i)).collect();
        assert_eq!(weights, [2.0, 2.0, 2.0, 2.0, 2.0, 4.0, 1.0, 1.0]);
        assert!((acc.estimate_sum("v").unwrap().value - per_part).abs() < 1e-9);
    }

    /// Two parts that share one weight keep it as one uniform weight,
    /// which a rewrite's AVG needs; parts that differ go per row.
    #[test]
    fn a_merge_keeps_a_shared_uniform_weight() {
        let part = |w: f64| Sample {
            table: small_table(&[1.0, 2.0], 8),
            design: SampleDesign::Stratified {
                column: "g".into(),
                strata: vec![StratumMeta {
                    key: Value::str("a"),
                    population_size: (2.0 * w) as u64,
                    row_start: 0,
                    row_end: 2,
                }],
            },
            weights: RowWeights::Uniform(w),
        };
        let mut same = part(2.0);
        same.merge(&part(2.0)).unwrap();
        assert_eq!(same.weights, RowWeights::Uniform(2.0));
        let mut mixed = part(2.0);
        mixed.merge(&part(3.0)).unwrap();
        assert_eq!(mixed.weights, RowWeights::PerRow(vec![2.0, 2.0, 3.0, 3.0]));
    }

    /// Bernoulli samples do not merge, at equal rates or not: only
    /// stratified samples merge.
    #[test]
    fn bernoulli_samples_refuse_to_merge_at_any_rate() {
        let mk = |rate: f64, vals: &[f64], pop: u64| Sample {
            table: small_table(vals, 4),
            design: SampleDesign::BernoulliRows {
                rate,
                population_rows: pop,
            },
            weights: RowWeights::Uniform(1.0 / rate),
        };
        let mut a = mk(0.5, &[1.0, 2.0], 4);
        for other in [mk(0.5, &[3.0], 2), mk(0.25, &[9.0], 4)] {
            assert!(matches!(
                a.merge(&other).unwrap_err(),
                MergeError::Unsupported { kind: "sample", .. }
            ));
            assert_eq!(a.num_rows(), 2, "a refused merge must not mutate");
        }
    }

    /// A fixed-size SRS and a stratified sample do not merge in either
    /// order, whatever the stratified sample's column is named.
    #[test]
    fn srs_and_stratified_samples_refuse_to_merge() {
        let srs = with_design(
            SampleDesign::FixedSizeRows { population_rows: 6 },
            RowWeights::Uniform(2.0),
        );
        for column in ["g", "__shard"] {
            let stratified = with_design(
                SampleDesign::Stratified {
                    column: column.into(),
                    strata: vec![StratumMeta {
                        key: Value::Int64(0),
                        population_size: 6,
                        row_start: 0,
                        row_end: 3,
                    }],
                },
                RowWeights::Uniform(2.0),
            );
            for (mut receiver, offered) in [
                (srs.clone(), stratified.clone()),
                (stratified.clone(), srs.clone()),
            ] {
                assert!(matches!(
                    receiver.merge(&offered).unwrap_err(),
                    MergeError::Unsupported { kind: "sample", .. }
                ));
                assert_eq!(receiver.num_rows(), 3);
            }
        }
    }

    /// A three-row sample of `small_table` under `design`.
    fn with_design(design: SampleDesign, weights: RowWeights) -> Sample {
        Sample {
            table: small_table(&[1.0, 2.0, 3.0], 2),
            design,
            weights,
        }
    }

    /// Only a stratified sample merges with a copy of itself; every other
    /// design refuses with a typed error and stays as it was.
    #[test]
    fn only_stratified_merges_with_itself_and_the_rest_refuse_typed() {
        let stratum = StratumMeta {
            key: Value::str("a"),
            population_size: 12,
            row_start: 0,
            row_end: 3,
        };
        let refused = [
            SampleDesign::BernoulliRows {
                rate: 0.25,
                population_rows: 12,
            },
            SampleDesign::BernoulliBlocks {
                rate: 0.5,
                population_blocks: 4,
                population_rows: 12,
            },
            SampleDesign::FixedSizeRows {
                population_rows: 12,
            },
            SampleDesign::FixedSizeBlocks {
                population_blocks: 4,
                population_rows: 12,
            },
            SampleDesign::Universe {
                column: "v".into(),
                rate: 0.3,
                population_rows: 12,
            },
            SampleDesign::BiLevel {
                block_rate: 0.5,
                row_rate: 0.5,
                population_blocks: 4,
                population_rows: 12,
            },
            SampleDesign::Distinct {
                columns: vec!["v".into()],
                cap: 2,
                rate: 0.25,
                population_rows: 12,
            },
        ];
        let stratified = SampleDesign::Stratified {
            column: "g".into(),
            strata: vec![stratum.clone()],
        };
        for weights in [
            RowWeights::Uniform(4.0),
            RowWeights::PerRow(vec![1.0, 2.0, 4.0]),
        ] {
            for design in &refused {
                let part = with_design(design.clone(), weights.clone());
                let mut merged = part.clone();
                let err = merged.merge(&part).unwrap_err();
                assert!(
                    matches!(err, MergeError::Unsupported { kind: "sample", .. }),
                    "{}: {err:?}",
                    design.name()
                );
                assert_eq!(merged.design, part.design);
                assert_eq!(merged.num_rows(), 3);
            }
            let part = with_design(stratified.clone(), weights);
            let mut merged = part.clone();
            merged.merge(&part).unwrap();
            let second = StratumMeta {
                row_start: 3,
                row_end: 6,
                ..stratum.clone()
            };
            let want = SampleDesign::Stratified {
                column: "g".into(),
                strata: vec![stratum.clone(), second],
            };
            assert_eq!(merged.design, want);
            assert_eq!(merged.num_rows(), 6);
            for i in 0..3 {
                assert_eq!(merged.weights.weight(i), part.weights.weight(i));
                assert_eq!(merged.weights.weight(3 + i), part.weights.weight(i));
            }
            // The weighted total of the merged rows is the sum of the
            // parts' totals.
            let whole = merged.estimate_sum("v").unwrap().value;
            let each = part.estimate_sum("v").unwrap().value;
            assert!((whole - 2.0 * each).abs() < 1e-9);
        }
    }

    #[test]
    fn failed_merge_leaves_the_sample_unchanged() {
        let stratified = |column: &str| {
            with_design(
                SampleDesign::Stratified {
                    column: column.into(),
                    strata: vec![StratumMeta {
                        key: Value::str("a"),
                        population_size: 12,
                        row_start: 0,
                        row_end: 3,
                    }],
                },
                RowWeights::PerRow(vec![1.0, 2.0, 4.0]),
            )
        };
        let bern = with_design(
            SampleDesign::BernoulliRows {
                rate: 0.25,
                population_rows: 12,
            },
            RowWeights::Uniform(4.0),
        );
        // Same design, but the other sample's rows have another schema:
        // the table merge is the step that refuses.
        let mut other_schema = stratified("g");
        other_schema.table = {
            let schema = Schema::new(vec![Field::new("w", DataType::Int64)]);
            let mut b = TableBuilder::new("o", schema);
            b.push_row(&[Value::Int64(1)]).unwrap();
            b.finish()
        };
        let pairs = [
            (stratified("g"), stratified("h")),
            (stratified("g"), bern.clone()),
            (bern, stratified("g")),
            (stratified("g"), other_schema),
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
    use aqp_storage::{DataType, Field, Schema, TableBuilder, Value};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Stratified samples of two disjoint tables merge into one
        /// sample of the union: rows add, and so do the HT total and its
        /// variance, since the strata are independent.
        #[test]
        fn stratified_merge_is_exact(
            left in prop::collection::vec((0i64..4, -1e4f64..1e4), 2..80),
            right in prop::collection::vec((0i64..4, -1e4f64..1e4), 2..80),
            seed in any::<u64>(),
        ) {
            let sample = |rows: &[(i64, f64)], seed: u64| {
                let schema = Schema::new(vec![
                    Field::new("g", DataType::Int64),
                    Field::new("v", DataType::Float64),
                ]);
                let mut b = TableBuilder::with_block_capacity("p", schema, 8);
                for &(g, v) in rows {
                    b.push_row(&[Value::Int64(g), Value::Float64(v)]).unwrap();
                }
                let budget = crate::Allocation::Congressional { budget: rows.len() / 2 };
                crate::stratified_sample(&b.finish(), "g", &budget, seed).unwrap()
            };
            let (a, b) = (sample(&left, seed), sample(&right, seed ^ 1));
            let (ea, eb) = (a.estimate_sum("v").unwrap(), b.estimate_sum("v").unwrap());
            let mut merged = a.clone();
            merged.merge(&b).unwrap();
            prop_assert_eq!(merged.num_rows(), a.num_rows() + b.num_rows());
            let em = merged.estimate_sum("v").unwrap();
            let tol = |x: f64| 1e-9 * (1.0 + x.abs());
            prop_assert!((em.value - (ea.value + eb.value)).abs() < tol(em.value));
            // A stratum of one sampled row has an unbounded variance, and
            // so has any merge that carries it.
            let var = ea.variance + eb.variance;
            prop_assert!(em.variance == var || (em.variance - var).abs() < tol(var));
        }
    }
}
