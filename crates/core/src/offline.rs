//! Pre-computed (offline) AQP: a synopsis store with staleness tracking.
//!
//! NSB's *pre-computed* camp buys its speed by committing ahead of time: a
//! stratified sample keyed on an anticipated column set. At query time
//! nothing but the synopsis is touched — the fastest possible path — but
//! two failure modes come with it, both made measurable here:
//!
//! * **workload drift** — a query grouping by a column the sample was not
//!   stratified on gets no per-group guarantee (small groups may be absent
//!   entirely);
//! * **data staleness** — the base table moves on while the synopsis
//!   stands still; [`OfflineStore::staleness`] quantifies the divergence
//!   and E8 measures the bias it causes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;

use aqp_analyze::{LintContext, LintPolicy, SynopsisMeta};
use aqp_engine::agg::{GroupKey, KeyAtom};
use aqp_expr::eval::{eval, eval_predicate_mask};
use aqp_expr::lit;
use aqp_obs::metrics::MetricsRegistry;
use aqp_sampling::design::PairStats;
use aqp_sampling::{stratified_sample_with_threads, Allocation, Sample, SampleDesign};
use aqp_stats::{Estimate, Moments};
use aqp_storage::{Catalog, Column, Value};

use crate::aggquery::{AggQuery, AggSpec, LinearAgg};
use crate::answer::{assemble_answer, ApproximateAnswer, ExecutionPath, ExecutionReport};
use crate::error::AqpError;
use crate::spec::ErrorSpec;
use crate::technique::{decline_if_blocked, Attempt, DeclineReason, Technique, TechniqueKind};

/// A stored stratified-sample synopsis.
pub struct StratifiedSynopsis {
    /// The sample (rows + design + weights).
    pub sample: Sample,
    /// The column it was stratified on.
    pub column: String,
    /// Base-table row count at build time.
    pub built_on_rows: u64,
}

/// The offline synopsis store.
pub struct OfflineStore {
    stratified: RwLock<HashMap<String, StratifiedSynopsis>>,
    /// Ground-truth audits failed per table since the last maintenance —
    /// the drift signal staleness alone cannot see (appends that *shift
    /// the distribution* without moving the row count much).
    failed_audits: RwLock<HashMap<String, u64>>,
    /// Worker threads for synopsis builds and maintenance. Congressional
    /// stratification never consults moments, so the drawn sample is
    /// identical at any thread count.
    threads: usize,
    /// Where builds, maintenance and the drift gauges are recorded: the
    /// owning session's registry, or one of the store's own.
    metrics: Arc<MetricsRegistry>,
    /// Bumped whenever a stratified synopsis is built or maintained — the
    /// only store changes the analyzer's verdicts read (see
    /// [`OfflineStore::synopsis_meta`]).
    generation: AtomicU64,
}

impl Default for OfflineStore {
    fn default() -> Self {
        Self::new()
    }
}

impl OfflineStore {
    /// Creates an empty store using all available cores for builds.
    pub fn new() -> Self {
        Self::with_threads(aqp_engine::pool::default_threads())
    }

    /// Creates an empty store whose builds use `threads` workers
    /// (`1` = serial).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            stratified: RwLock::new(HashMap::new()),
            failed_audits: RwLock::new(HashMap::new()),
            threads: threads.max(1),
            metrics: Arc::default(),
            generation: AtomicU64::new(0),
        }
    }

    /// How many times a stratified synopsis was built or maintained: a
    /// verdict linted against this store stays valid while this holds.
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The store, recording into `metrics` from now on.
    pub(crate) fn reporting_to(self, metrics: Arc<MetricsRegistry>) -> Self {
        Self { metrics, ..self }
    }

    /// Records one offline build's cost: a span (when tracing) plus the
    /// always-on `aqp_synopsis_build_us` histogram — synopsis construction
    /// is the offline family's up-front investment, so its cost must be
    /// visible next to the query-time speedup it buys.
    fn record_build_cost(&self, span: &mut aqp_obs::Span, target: String, start: Instant) {
        if span.is_recording() {
            span.set_detail(target);
        }
        self.metrics
            .histogram(
                aqp_obs::names::SYNOPSIS_BUILD_US,
                aqp_obs::metrics::LATENCY_US_BOUNDS,
            )
            .observe(start.elapsed().as_secs_f64() * 1e6);
    }

    /// Builds (or rebuilds) a stratified sample for `table`, stratified on
    /// `column` with congressional allocation of `budget` rows. This is
    /// the expensive offline step: it scans the whole table.
    pub fn build_stratified(
        &self,
        catalog: &Catalog,
        table: &str,
        column: &str,
        budget: usize,
        seed: u64,
    ) -> Result<(), AqpError> {
        let mut span = aqp_obs::span("synopsis:build-stratified");
        let build_start = Instant::now();
        let t = catalog.get(table)?;
        let sample = stratified_sample_with_threads(
            &t,
            column,
            &Allocation::Congressional { budget },
            seed,
            self.threads,
        )?;
        if span.is_recording() {
            span.set_rows(sample.num_rows() as u64);
        }
        self.record_build_cost(&mut span, format!("{table}.{column}"), build_start);
        self.stratified.write().insert(
            table.to_string(),
            StratifiedSynopsis {
                sample,
                column: column.to_string(),
                built_on_rows: t.row_count() as u64,
            },
        );
        self.generation.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Incrementally maintains the stratified synopsis after an
    /// append-only delta: samples only the rows past `built_on_rows`
    /// ([`aqp_storage::Table::tail`]), then folds the delta sample into
    /// the stored one via the `Partial` merge — strata are independent,
    /// so the fold is statistically exact and touches none of the old
    /// data. Resets staleness to zero and bumps
    /// `aqp_synopsis_maintained_total`. Returns the number of delta rows
    /// ingested (0 = nothing to do).
    ///
    /// This is the cheap answer to the E8 drift scenario: a 1% append
    /// costs ~1% of a rebuild instead of a full rescan. Rows *replaced*
    /// (not appended) still require [`OfflineStore::build_stratified`]: a
    /// table with fewer rows than the synopsis was built on is
    /// [`AqpError::Unsupported`], and the stored synopsis stays as it was.
    pub fn maintain_stratified(
        &self,
        catalog: &Catalog,
        table: &str,
        seed: u64,
    ) -> Result<u64, AqpError> {
        let mut span = aqp_obs::span("synopsis:maintain-stratified");
        let t = catalog.get(table)?;
        let mut store = self.stratified.write();
        let syn = store.get_mut(table).ok_or_else(|| AqpError::Unsupported {
            detail: format!("no stratified synopsis for {table}"),
        })?;
        if (t.row_count() as u64) < syn.built_on_rows {
            return Err(AqpError::Unsupported {
                detail: format!(
                    "{table} has {} rows, fewer than the {} its synopsis was built on: \
                     rows replaced, not appended: rebuild with `build_stratified`",
                    t.row_count(),
                    syn.built_on_rows
                ),
            });
        }
        let delta = t.tail(syn.built_on_rows as usize);
        let delta_rows = delta.row_count() as u64;
        if delta_rows == 0 {
            return Ok(0);
        }
        // Keep the stored sampling fraction on the delta so the merged
        // sample stays balanced with the original.
        let fraction = syn.sample.num_rows() as f64 / (syn.built_on_rows as f64).max(1.0);
        let budget = ((delta_rows as f64 * fraction).ceil() as usize).max(1);
        let delta_sample = stratified_sample_with_threads(
            &delta,
            &syn.column,
            &Allocation::Congressional { budget },
            seed,
            self.threads,
        )?;
        syn.sample
            .merge(&delta_sample)
            .map_err(|e| AqpError::Unsupported {
                detail: format!("delta sample failed to merge: {e}"),
            })?;
        syn.built_on_rows = t.row_count() as u64;
        drop(store);
        self.generation.fetch_add(1, Ordering::AcqRel);
        self.reset_drift(table);
        if span.is_recording() {
            span.set_rows(delta_rows);
        }
        self.metrics
            .counter(aqp_obs::names::SYNOPSIS_MAINTAINED_TOTAL)
            .inc(1);
        Ok(delta_rows)
    }

    /// Folds an append-only delta into the synopsis stored for `table`
    /// ([`OfflineStore::maintain_stratified`]), returning the number of
    /// synopses maintained (0 or 1). The session-level entry point for
    /// keeping a table's synopses fresh after ingest.
    pub fn maintain_all(
        &self,
        catalog: &Catalog,
        table: &str,
        seed: u64,
    ) -> Result<usize, AqpError> {
        let mut maintained = 0;
        if self.stratified.read().contains_key(table) {
            self.maintain_stratified(catalog, table, seed)?;
            maintained += 1;
        }
        // Even with no delta to fold, maintenance repaired what the audits
        // graded — clear the drift signal.
        self.reset_drift(table);
        Ok(maintained)
    }

    /// Relative divergence between the base table's current row count and
    /// the row count the stratified synopsis was built on. Zero = fresh.
    ///
    /// Every call refreshes the per-table drift gauges
    /// (`aqp_synopsis_staleness`, `aqp_synopsis_rows_at_build`,
    /// `aqp_synopsis_rows_appended`) — the session consults staleness on
    /// every routed query, so the gauges track ingest for free.
    pub fn staleness(&self, catalog: &Catalog, table: &str) -> Result<f64, AqpError> {
        let current = catalog.get(table)?.row_count() as f64;
        let store = self.stratified.read();
        let syn = store.get(table).ok_or_else(|| AqpError::Unsupported {
            detail: format!("no stratified synopsis for {table}"),
        })?;
        let built = syn.built_on_rows as f64;
        let staleness = (current - built).abs() / built.max(1.0);
        use aqp_obs::names;
        let m = &self.metrics;
        m.gauge_labeled(names::SYNOPSIS_STALENESS, names::TABLE_LABEL, table)
            .set(staleness);
        m.gauge_labeled(names::SYNOPSIS_ROWS_AT_BUILD, names::TABLE_LABEL, table)
            .set(built);
        m.gauge_labeled(names::SYNOPSIS_ROWS_APPENDED, names::TABLE_LABEL, table)
            .set(current - built);
        Ok(staleness)
    }

    /// Records that a ground-truth audit of an offline answer over `table`
    /// failed — distributional drift the row-count staleness gauge cannot
    /// see. Resets on maintenance.
    pub fn note_failed_audit(&self, table: &str) {
        let mut map = self.failed_audits.write();
        let count = map.entry(table.to_string()).or_insert(0);
        *count += 1;
        self.metrics
            .gauge_labeled(
                aqp_obs::names::SYNOPSIS_FAILED_AUDITS,
                aqp_obs::names::TABLE_LABEL,
                table,
            )
            .set(*count as f64);
    }

    /// Audits failed against `table`'s synopses since the last maintain.
    pub fn failed_audits(&self, table: &str) -> u64 {
        self.failed_audits.read().get(table).copied().unwrap_or(0)
    }

    /// Maintenance repaired the synopsis: clear the failed-audit drift
    /// signal for `table` and zero its gauge.
    fn reset_drift(&self, table: &str) {
        self.failed_audits.write().remove(table);
        self.metrics
            .gauge_labeled(
                aqp_obs::names::SYNOPSIS_FAILED_AUDITS,
                aqp_obs::names::TABLE_LABEL,
                table,
            )
            .set(0.0);
    }

    /// Answers a single-table star query from the stratified synopsis,
    /// touching **no base data**. Returns `Unsupported` when the query
    /// joins (offline samples of one table cannot serve ad-hoc joins — one
    /// of NSB's generality limits) or no synopsis exists.
    ///
    /// The answer is *statistically valid for the stratification column*;
    /// for drifted group-bys the estimates are still HT-consistent but
    /// groups too small to appear in the sample are silently missing — the
    /// failure mode E8 measures.
    pub fn answer(
        &self,
        query: &AggQuery,
        spec: &ErrorSpec,
    ) -> Result<ApproximateAnswer, AqpError> {
        let start = Instant::now();
        let mut obs_span = aqp_obs::span("offline:answer");
        if !query.joins.is_empty() {
            return Err(AqpError::Unsupported {
                detail: "offline synopsis cannot serve join queries".to_string(),
            });
        }
        let store = self.stratified.read();
        let syn = store
            .get(&query.fact_table)
            .ok_or_else(|| AqpError::Unsupported {
                detail: format!("no stratified synopsis for {}", query.fact_table),
            })?;
        let raw = scan(&syn.sample, query)?;
        let num_estimates = (raw.len() * query.aggregates.len()).max(1);
        let conf = spec.split_across(num_estimates).confidence;
        let rows_scanned = syn.sample.num_rows() as u64;
        if obs_span.is_recording() {
            obs_span.set_rows(rows_scanned);
        }
        obs_span.finish();
        Ok(assemble_answer(
            query.group_by.iter().map(|(_, n)| n.clone()).collect(),
            query.aggregates.iter().map(|a| a.alias.clone()).collect(),
            raw,
            conf,
            ExecutionReport {
                path: ExecutionPath::OfflineSynopsis {
                    kind: format!("stratified[{}]", syn.column),
                },
                population_rows: syn.built_on_rows,
                rows_touched: rows_scanned,
                rows_scanned,
                wall: start.elapsed(),
                routing: None,
                trace: None,
                lints: None,
                audit: None,
                accuracy: None,
                admission: None,
            },
        ))
    }

    /// The stratification column and stored sample size for `table`'s
    /// stratified synopsis, if one exists. Metadata-only.
    pub fn stratified_meta(&self, table: &str) -> Option<(String, u64)> {
        self.stratified
            .read()
            .get(table)
            .map(|s| (s.column.clone(), s.sample.num_rows() as u64))
    }

    /// What the static analyzer needs to know about `table`'s stratified
    /// synopsis, if one exists: its column and its current staleness
    /// (`None` when the base table is gone). Metadata-only.
    fn synopsis_meta(&self, catalog: &Catalog, table: &str) -> Option<SynopsisMeta> {
        let (stratified_on, _) = self.stratified_meta(table)?;
        Some(SynopsisMeta {
            table: table.to_string(),
            stratified_on,
            staleness: self.staleness(catalog, table).ok(),
        })
    }

    /// What the static analyzer needs to know about every stratified
    /// synopsis (its column and current staleness), in table-name order —
    /// the session's synopsis inventory for the lint context.
    pub fn synopsis_metas(&self, catalog: &Catalog) -> Vec<SynopsisMeta> {
        let mut tables: Vec<String> = self.stratified.read().keys().cloned().collect();
        tables.sort();
        tables
            .iter()
            .filter_map(|t| self.synopsis_meta(catalog, t))
            .collect()
    }
}

/// A group's key as the key columns typed it and, per stratum it has a
/// qualifying row in (ascending), one Welford accumulator per aggregate.
struct GroupCells {
    key: Vec<Value>,
    cells: Vec<(usize, Vec<Moments>)>,
}

/// Estimates every group × aggregate of `query` from a stratified sample
/// in one pass: per block the predicate, key and measure expressions are
/// evaluated once, by the engine's block evaluator, then each qualifying
/// row updates its (stratum, group) cell. Turning cells into estimates is
/// [`PairStats::stratified_domain`], the algebra the two-pass
/// [`Sample::estimate_sum_with`] and `estimate_avg_with` end in.
#[allow(clippy::type_complexity)] // the shape `assemble_answer` takes
pub fn scan(
    sample: &Sample,
    query: &AggQuery,
) -> Result<Vec<(Vec<Value>, Vec<Estimate>)>, AqpError> {
    let SampleDesign::Stratified { strata, .. } = &sample.design else {
        return Err(AqpError::Unsupported {
            detail: format!("synopsis scan over a {} sample", sample.design.name()),
        });
    };
    let mut index: HashMap<GroupKey, usize> = HashMap::new();
    let mut groups: Vec<GroupCells> = Vec::new();
    let mut key: GroupKey = Vec::with_capacity(query.group_by.len());
    // Each row's stratum, in row order: strata tile the sample's rows (the
    // sampler emits stratum by stratum, `Sample::merge` appends). A stratum
    // is its row range, not its key — maintenance repeats keys.
    let mut stratum_of_row = strata
        .iter()
        .enumerate()
        .flat_map(|(h, s)| std::iter::repeat_n(h, s.row_end - s.row_start));
    for (_, block) in sample.table.iter_blocks() {
        let mask = match &query.predicate {
            Some(p) => Some(eval_predicate_mask(p, block)?),
            None => None,
        };
        let key_cols: Vec<Column> = query
            .group_by
            .iter()
            .map(|(e, _)| eval(e, block))
            .collect::<Result<_, _>>()?;
        let measures: Vec<Column> = query
            .aggregates
            .iter()
            .map(|a| match a.kind {
                // COUNT(*) is SUM(1); its `expr` is not read.
                LinearAgg::CountStar => eval(&lit(1i64), block),
                LinearAgg::Sum | LinearAgg::Avg => eval(&a.expr, block),
            })
            .collect::<Result<_, _>>()?;
        for i in 0..block.len() {
            let h = stratum_of_row.next().expect("strata cover every row");
            if mask.as_ref().is_some_and(|m| !m[i]) {
                continue;
            }
            key.clear();
            key.extend(key_cols.iter().map(|c| KeyAtom::from_value(&c.get(i))));
            let gi = index.get(&key).copied().unwrap_or_else(|| {
                index.insert(key.clone(), groups.len());
                groups.push(GroupCells {
                    key: key_cols.iter().map(|c| c.get(i)).collect(),
                    cells: Vec::new(),
                });
                groups.len() - 1
            });
            let cells = &mut groups[gi].cells;
            if cells.last().map(|c| c.0) != Some(h) {
                cells.push((h, vec![Moments::new(); measures.len()]));
            }
            let (_, cell) = cells.last_mut().expect("pushed above");
            for (hits, measure) in cell.iter_mut().zip(&measures) {
                // A NULL measure is a zero, like a row outside the group.
                if let Some(x) = measure.f64_at(i) {
                    hits.push(x);
                }
            }
        }
    }
    Ok(groups
        .into_iter()
        .map(|g| {
            let estimate = |(a, agg): (usize, &AggSpec)| {
                let hits = g.cells.iter().map(|(h, cell)| (*h, cell[a]));
                let stats = PairStats::stratified_domain(strata, hits);
                match agg.kind {
                    LinearAgg::CountStar | LinearAgg::Sum => stats.total(),
                    LinearAgg::Avg => stats.ratio(),
                }
            };
            let estimates = query.aggregates.iter().enumerate().map(estimate);
            (g.key, estimates.collect())
        })
        .collect())
}

/// The offline family as the router sees it: [`OfflineStore::answer`]
/// behind the analyzer's offline verdict (synopsis existence,
/// stratification match, freshness).
pub struct OfflineTechnique<'a> {
    store: &'a OfflineStore,
    catalog: &'a Catalog,
    /// The verdict blocks a synopsis whose [`OfflineStore::staleness`]
    /// exceeds this.
    max_staleness: f64,
}

impl<'a> OfflineTechnique<'a> {
    /// Wraps a store for routing with the given freshness threshold.
    pub fn new(store: &'a OfflineStore, catalog: &'a Catalog, max_staleness: f64) -> Self {
        Self {
            store,
            catalog,
            max_staleness,
        }
    }
}

impl Technique for OfflineTechnique<'_> {
    fn kind(&self) -> TechniqueKind {
        TechniqueKind::OfflineSynopsis
    }

    fn answer(&self, query: &AggQuery, spec: &ErrorSpec, _seed: u64) -> Result<Attempt, AqpError> {
        let mut ctx = LintContext::new(self.catalog).with_policy(LintPolicy {
            max_staleness: self.max_staleness,
            ..LintPolicy::default()
        });
        if let Some(meta) = self.store.synopsis_meta(self.catalog, &query.fact_table) {
            ctx = ctx.with_synopsis(meta);
        }
        if let Some(declined) = decline_if_blocked(self.kind(), query, &ctx) {
            return Ok(declined);
        }
        let ans = self.store.answer(query, spec)?;
        if ans.groups.is_empty() {
            // The sample has no row matching the predicate: a point the
            // synopsis cannot speak to. Decline rather than assert "zero".
            return Ok(Attempt::Declined {
                rows_scanned: ans.report.rows_scanned,
                reason: DeclineReason::InsufficientSupport {
                    rows: 0,
                    min_rows: 1,
                },
            });
        }
        Ok(Attempt::Answered(ans))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggquery::{AggSpec, JoinSpec};
    use aqp_engine::{execute, AggExpr, Query};
    use aqp_expr::{col, lit};
    use aqp_workload::skewed_table;

    fn catalog() -> Catalog {
        let c = Catalog::new();
        c.register(skewed_table("t", 50_000, 50, 1.1, 256, 3))
            .unwrap();
        c
    }

    fn sum_by_g() -> AggQuery {
        AggQuery {
            fact_table: "t".into(),
            joins: vec![],
            predicate: None,
            group_by: vec![(col("g"), "g".into())],
            aggregates: vec![AggSpec {
                kind: LinearAgg::Sum,
                expr: col("v"),
                alias: "s".into(),
            }],
        }
    }

    #[test]
    fn stratified_answer_covers_all_groups() {
        let c = catalog();
        let store = OfflineStore::new();
        store.build_stratified(&c, "t", "g", 5_000, 1).unwrap();
        let ans = store
            .answer(&sum_by_g(), &ErrorSpec::new(0.1, 0.9))
            .unwrap();
        // Exact group count.
        let exact = execute(
            &Query::scan("t")
                .aggregate(
                    vec![(col("g"), "g".to_string())],
                    vec![AggExpr::sum(col("v"), "s")],
                )
                .build(),
            &c,
        )
        .unwrap();
        assert_eq!(
            ans.groups.len(),
            exact.num_rows(),
            "congressional stratification must cover every group"
        );
        // Big groups should be accurate.
        let truth0 = exact.rows()[0][1].as_f64().unwrap();
        let g0 = ans.group(&[Value::Int64(0)]).unwrap();
        assert!(g0.estimates[0].relative_error(truth0) < 0.15);
        // And it must touch only the synopsis.
        assert!(ans.report.rows_touched <= 5_500);
    }

    #[test]
    fn predicate_supported_on_synopsis() {
        let c = catalog();
        let store = OfflineStore::new();
        store.build_stratified(&c, "t", "g", 8_000, 2).unwrap();
        let mut q = sum_by_g();
        q.group_by = vec![];
        q.predicate = Some(col("sel").lt(lit(0.5)));
        let ans = store.answer(&q, &ErrorSpec::default()).unwrap();
        let exact = execute(
            &Query::scan("t")
                .filter(col("sel").lt(lit(0.5)))
                .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
                .build(),
            &c,
        )
        .unwrap();
        let truth = exact.rows()[0][0].as_f64().unwrap();
        let est = ans.scalar_estimate("s").unwrap();
        assert!(
            est.relative_error(truth) < 0.15,
            "rel err {}",
            est.relative_error(truth)
        );
    }

    #[test]
    fn joins_unsupported() {
        let c = catalog();
        let store = OfflineStore::new();
        store.build_stratified(&c, "t", "g", 1000, 1).unwrap();
        let mut q = sum_by_g();
        q.joins.push(JoinSpec {
            dim_table: "d".into(),
            fact_key: "g".into(),
            dim_key: "k".into(),
        });
        assert!(matches!(
            store.answer(&q, &ErrorSpec::default()),
            Err(AqpError::Unsupported { .. })
        ));
    }

    #[test]
    fn missing_synopsis_is_unsupported() {
        let store = OfflineStore::new();
        assert!(matches!(
            store.answer(&sum_by_g(), &ErrorSpec::default()),
            Err(AqpError::Unsupported { .. })
        ));
    }

    #[test]
    fn staleness_tracks_data_updates() {
        let c = catalog();
        let store = OfflineStore::new();
        store.build_stratified(&c, "t", "g", 1000, 1).unwrap();
        assert_eq!(store.staleness(&c, "t").unwrap(), 0.0);
        // Append 25% more data by replacing the table.
        c.replace(skewed_table("t", 62_500, 50, 1.1, 256, 9));
        let s = store.staleness(&c, "t").unwrap();
        assert!((s - 0.25).abs() < 1e-9, "staleness {s}");
    }

    #[test]
    fn parallel_builds_match_serial() {
        let c = catalog();
        let serial = OfflineStore::with_threads(1);
        serial.build_stratified(&c, "t", "g", 4_000, 7).unwrap();
        let serial_ans = serial
            .answer(&sum_by_g(), &ErrorSpec::new(0.1, 0.9))
            .unwrap();
        for threads in [2, 4, 8] {
            let par = OfflineStore::with_threads(threads);
            par.build_stratified(&c, "t", "g", 4_000, 7).unwrap();
            // Congressional stratification never consults moments, so the
            // drawn sample — and every estimate from it — is identical.
            let par_ans = par.answer(&sum_by_g(), &ErrorSpec::new(0.1, 0.9)).unwrap();
            assert_eq!(serial_ans.groups.len(), par_ans.groups.len());
            for (a, b) in serial_ans.groups.iter().zip(&par_ans.groups) {
                assert_eq!(a.key, b.key, "threads={threads}");
                for (ea, eb) in a.estimates.iter().zip(&b.estimates) {
                    assert_eq!(ea.value, eb.value, "threads={threads}");
                    assert_eq!(ea.variance, eb.variance, "threads={threads}");
                }
            }
        }
    }

    /// Appends `extra` rows to `t` in the catalog (prefix-stable: the
    /// original rows keep their block layout, so `tail` sees only the
    /// delta).
    fn append_rows(c: &Catalog, extra: usize, seed: u64) {
        use aqp_mergeable::Partial;
        let base = c.get("t").unwrap();
        let delta = skewed_table("t", extra, 50, 1.1, 256, seed);
        let mut extended = (*base).clone();
        Partial::merge(&mut extended, &delta).unwrap();
        c.replace(extended);
    }

    #[test]
    fn maintain_stratified_resets_staleness_without_rebuild() {
        let c = catalog();
        let store = OfflineStore::new();
        store.build_stratified(&c, "t", "g", 5_000, 1).unwrap();
        append_rows(&c, 12_500, 77); // 25% append → staleness 0.25
        assert!(store.staleness(&c, "t").unwrap() > 0.2);
        let delta_rows = store.maintain_stratified(&c, "t", 2).unwrap();
        assert_eq!(delta_rows, 12_500, "only the delta is scanned");
        assert_eq!(store.staleness(&c, "t").unwrap(), 0.0);
        // The maintained synopsis answers the drifted table accurately.
        let ans = store
            .answer(&sum_by_g(), &ErrorSpec::new(0.1, 0.9))
            .unwrap();
        let exact = execute(
            &Query::scan("t")
                .aggregate(
                    vec![(col("g"), "g".to_string())],
                    vec![AggExpr::sum(col("v"), "s")],
                )
                .build(),
            &c,
        )
        .unwrap();
        assert_eq!(ans.groups.len(), exact.num_rows());
        let truth0 = exact.rows()[0][1].as_f64().unwrap();
        let g0 = ans.group(&[Value::Int64(0)]).unwrap();
        assert!(
            g0.estimates[0].relative_error(truth0) < 0.15,
            "rel err {}",
            g0.estimates[0].relative_error(truth0)
        );
        // Idempotent on a fresh synopsis.
        assert_eq!(store.maintain_stratified(&c, "t", 3).unwrap(), 0);
    }

    #[test]
    fn maintain_all_covers_every_synopsis_kind() {
        let c = catalog();
        let store = OfflineStore::new();
        store.build_stratified(&c, "t", "g", 2_000, 1).unwrap();
        append_rows(&c, 2_500, 5);
        store.note_failed_audit("t");
        assert_eq!(store.maintain_all(&c, "t", 7).unwrap(), 1);
        assert_eq!(store.staleness(&c, "t").unwrap(), 0.0);
        assert_eq!(store.failed_audits("t"), 0, "maintenance clears drift");
        // Nothing left to fold: the synopsis still counts as maintained.
        assert_eq!(store.maintain_all(&c, "t", 8).unwrap(), 1);
        assert_eq!(store.maintain_all(&c, "other", 7).unwrap(), 0);
    }
}
