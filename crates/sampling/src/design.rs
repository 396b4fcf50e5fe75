//! Samples, sampling designs, and design-correct estimation.
//!
//! A [`Sample`] bundles the sampled rows (as a [`Table`]) with the
//! [`SampleDesign`] that produced them. Estimation dispatches on the design:
//! the *same* observed rows yield different variances — and sometimes
//! different point estimates — under different designs, which is exactly the
//! statistical content of NSB's sampler taxonomy.
//!
//! All SUM/COUNT estimators are Horvitz–Thompson; AVG is the ratio
//! estimator with design-correct numerator/denominator covariance.

use std::sync::Arc;

use aqp_stats::{Estimate, Moments};
use aqp_storage::{Block, Column, DataType, Field, Schema, StorageError, Table, Value};

/// Per-row Horvitz–Thompson weights.
#[derive(Debug, Clone, PartialEq)]
pub enum RowWeights {
    /// Every sampled row carries the same weight (1 / inclusion probability).
    Uniform(f64),
    /// Row-specific weights, aligned with the sample table's global row ids.
    PerRow(Vec<f64>),
}

impl RowWeights {
    /// Weight of global sample row `i`.
    pub fn weight(&self, i: usize) -> f64 {
        match self {
            RowWeights::Uniform(w) => *w,
            RowWeights::PerRow(v) => v[i],
        }
    }
}

/// Metadata for one stratum of a stratified sample.
#[derive(Debug, Clone, PartialEq)]
pub struct StratumMeta {
    /// The stratum's key value.
    pub key: Value,
    /// Stratum size in the *population*.
    pub population_size: u64,
    /// First global row id of this stratum within the sample table.
    pub row_start: usize,
    /// One past the last global row id of this stratum.
    pub row_end: usize,
}

/// The sampling design that produced a sample.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleDesign {
    /// Row-level Bernoulli(q) sampling.
    BernoulliRows {
        /// Inclusion probability per row.
        rate: f64,
        /// Population row count.
        population_rows: u64,
    },
    /// Block-level Bernoulli(q) sampling (cluster design).
    BernoulliBlocks {
        /// Inclusion probability per block.
        rate: f64,
        /// Population block count.
        population_blocks: u64,
        /// Population row count.
        population_rows: u64,
    },
    /// Fixed-size simple random sample of rows (without replacement).
    FixedSizeRows {
        /// Population row count.
        population_rows: u64,
    },
    /// Fixed-size simple random sample of blocks.
    FixedSizeBlocks {
        /// Population block count.
        population_blocks: u64,
        /// Population row count.
        population_rows: u64,
    },
    /// Stratified sample over a grouping column.
    Stratified {
        /// The stratification column.
        column: String,
        /// Per-stratum metadata, in sample-table order.
        strata: Vec<StratumMeta>,
    },
    /// Universe (hash) sample on a key column: a key is in or out for *all*
    /// its rows, in every table sampled with the same salt.
    Universe {
        /// The key column.
        column: String,
        /// Fraction of the key universe included.
        rate: f64,
        /// Population row count.
        population_rows: u64,
    },
    /// Bi-level sampling: Bernoulli over blocks at `block_rate`, then
    /// Bernoulli over rows within surviving blocks at `row_rate`.
    BiLevel {
        /// First-stage (block) inclusion probability.
        block_rate: f64,
        /// Second-stage (within-block row) inclusion probability.
        row_rate: f64,
        /// Population block count.
        population_blocks: u64,
        /// Population row count.
        population_rows: u64,
    },
    /// Distinct sampler: the first `cap` rows of every key are kept with
    /// weight 1, the tail is Bernoulli(rate)-sampled.
    Distinct {
        /// Key columns.
        columns: Vec<String>,
        /// Rows per key kept deterministically.
        cap: usize,
        /// Sampling rate beyond the cap.
        rate: f64,
        /// Population row count.
        population_rows: u64,
    },
}

impl SampleDesign {
    /// Short human-readable name (used in experiment output).
    pub fn name(&self) -> &'static str {
        match self {
            SampleDesign::BernoulliRows { .. } => "bernoulli-rows",
            SampleDesign::BernoulliBlocks { .. } => "bernoulli-blocks",
            SampleDesign::FixedSizeRows { .. } => "srs-rows",
            SampleDesign::FixedSizeBlocks { .. } => "srs-blocks",
            SampleDesign::Stratified { .. } => "stratified",
            SampleDesign::Universe { .. } => "universe",
            SampleDesign::BiLevel { .. } => "bilevel",
            SampleDesign::Distinct { .. } => "distinct",
        }
    }

    /// Whether producing this design required touching every population
    /// block (NSB's system-efficiency axis): block designs skip blocks,
    /// everything else must at least read each row once.
    pub fn scans_everything(&self) -> bool {
        !matches!(
            self,
            SampleDesign::BernoulliBlocks { .. }
                | SampleDesign::FixedSizeBlocks { .. }
                | SampleDesign::BiLevel { .. }
        )
    }
}

/// A sampled table plus the design metadata needed for estimation.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The sampled rows.
    pub table: Table,
    /// The design that produced them.
    pub design: SampleDesign,
    /// Horvitz–Thompson row weights.
    pub weights: RowWeights,
}

/// Sufficient statistics for a pair of HT totals (numerator f, denominator
/// g) under one design: estimates, variances, covariance, and the number of
/// independent sampling units. Independent parts (strata) add.
#[derive(Debug, Clone, Copy, Default)]
pub struct PairStats {
    est_f: f64,
    var_f: f64,
    est_g: f64,
    var_g: f64,
    cov: f64,
    units: u64,
}

impl PairStats {
    /// One SRS-without-replacement stratum from the centered moments of
    /// its `n` sampled units: totals `N·x̄` with fpc'd variances and
    /// covariance.
    fn srs(
        n: u64,
        mean_x: f64,
        mean_y: f64,
        sxx: f64,
        syy: f64,
        sxy: f64,
        population: u64,
    ) -> Self {
        let big_n = population as f64;
        if n == 0 {
            return PairStats {
                var_f: f64::MAX,
                var_g: f64::MAX,
                ..PairStats::default()
            };
        }
        let nf = n as f64;
        let fpc = (1.0 - nf / big_n).max(0.0);
        let scale = big_n * big_n * fpc / nf;
        let (var_f, var_g, cov) = if fpc == 0.0 {
            // Census: no sampling variance regardless of sample size.
            (0.0, 0.0, 0.0)
        } else if n >= 2 {
            let d = nf - 1.0;
            (scale * (sxx / d), scale * (syy / d), scale * (sxy / d))
        } else {
            // A single unit cannot estimate dispersion.
            (f64::MAX, f64::MAX, 0.0)
        };
        PairStats {
            est_f: big_n * mean_x,
            var_f,
            est_g: big_n * mean_y,
            var_g,
            cov,
            units: n,
        }
    }

    /// A domain (a group under a predicate) of a stratified design, from
    /// one pass over the domain's rows: `hits` lists, ascending, the strata
    /// the domain occurs in with the moments of `x` over its rows there.
    /// The pair is `(x, 1)` on those rows and `(0, 0)` on every other
    /// sampled unit — zeros that still count, in strata the domain never
    /// shows up in too. They enter by the parallel-Welford combine, which
    /// gives the centered moments [`Sample::estimate_sum_with`] takes two
    /// passes over every unit for; then, as there, SRS inside each stratum
    /// and strata add.
    pub fn stratified_domain(
        strata: &[StratumMeta],
        hits: impl Iterator<Item = (usize, Moments)>,
    ) -> Self {
        let mut hits = hits.peekable();
        let mut total = PairStats::default();
        for (h, s) in strata.iter().enumerate() {
            let n = (s.row_end - s.row_start) as u64;
            if n == 0 {
                continue;
            }
            let hits = hits
                .next_if(|c| c.0 == h)
                .map_or_else(Moments::new, |c| c.1);
            let (k, nf) = (hits.count() as f64, n as f64);
            let mean_in = if k == 0.0 { 0.0 } else { hits.mean() };
            // k·(n−k)/n: the between-part of merging k hits with n−k zeros.
            let between = k * (nf - k) / nf;
            total += Self::srs(
                n,
                hits.sum() / nf,
                k / nf,
                hits.sum_sq_dev() + mean_in * mean_in * between,
                between,
                mean_in * between,
                s.population_size,
            );
        }
        total
    }

    /// A domain of a cluster design: `sampled` units drawn by SRS from
    /// `population` units, with the domain's per-unit totals summed in
    /// `sums`. Units the domain is absent from count as `(0, 0)`. This is
    /// the one block-sample estimator: the online sampler and online
    /// aggregation both end here.
    pub fn clusters(sums: &UnitSums, sampled: u64, population: u64) -> Self {
        let (mean_f, mean_g) = sums.means(sampled);
        let (sff, sgg, sfg) = sums.centered(sampled);
        Self::srs(sampled, mean_f, mean_g, sff, sgg, sfg, population)
    }

    /// Poisson sampling of units, each kept independently with
    /// probability `q`, from the totals of the `units` kept:
    /// Horvitz–Thompson totals `Σf/q` with `Var = (1−q)/q²·Σf²` and
    /// `Cov = (1−q)/q²·Σfg`.
    fn poisson(sums: &UnitSums, q: f64, units: u64) -> Self {
        let c = (1.0 - q) / (q * q);
        PairStats {
            est_f: sums.sf / q,
            var_f: c * sums.sf2,
            est_g: sums.sg / q,
            var_g: c * sums.sg2,
            cov: c * sums.sfg,
            units,
        }
    }

    /// The `SUM(f)` (or COUNT) estimate.
    pub fn total(&self) -> Estimate {
        Estimate::new(self.est_f, self.var_f.max(0.0), self.units)
    }

    /// The `SUM(f) / SUM(g)` ratio (AVG) estimate, with the design's
    /// numerator/denominator covariance. From a single sampled unit the
    /// ratio's spread is as unobservable as its parts'.
    pub fn ratio(&self) -> Estimate {
        let denominator = Estimate::new(self.est_g, self.var_g.max(0.0), self.units);
        let ratio = self.total().ratio(&denominator, self.cov);
        if self.units == 1 && self.var_f == f64::MAX {
            return Estimate::new(ratio.value, f64::MAX, 1);
        }
        ratio
    }
}

/// Per-unit totals `(f, g)` of one domain, summed over the sampling units
/// it appears in: `Σf`, `Σf²`, `Σg`, `Σg²` and `Σfg` — what
/// [`PairStats::clusters`] and the Bernoulli-style designs estimate from,
/// and what a planner reads the spread of unit totals from.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitSums {
    sf: f64,
    sf2: f64,
    sg: f64,
    sg2: f64,
    sfg: f64,
}

impl UnitSums {
    /// Adds one unit's totals.
    pub fn push(&mut self, f: f64, g: f64) {
        self.sf += f;
        self.sf2 += f * f;
        self.sg += g;
        self.sg2 += g * g;
        self.sfg += f * g;
    }

    /// `Σf` over the units pushed: a COUNT's raw row count, exactly.
    pub fn sum_f(&self) -> f64 {
        self.sf
    }

    /// The per-unit means of `f` and `g` over `units` sampled units.
    pub fn means(&self, units: u64) -> (f64, f64) {
        let m = units as f64;
        (self.sf / m, self.sg / m)
    }

    /// The centered sums of squares and cross-products of `f` and `g`
    /// over `units` sampled units: `(S_ff, S_gg, S_fg)`.
    pub fn centered(&self, units: u64) -> (f64, f64, f64) {
        let m = units as f64;
        (
            self.sf2 - self.sf * self.sf / m,
            self.sg2 - self.sg * self.sg / m,
            self.sfg - self.sf * self.sg / m,
        )
    }
}

impl std::ops::AddAssign for PairStats {
    fn add_assign(&mut self, part: PairStats) {
        self.est_f += part.est_f;
        self.var_f += part.var_f;
        self.est_g += part.est_g;
        self.var_g += part.var_g;
        self.cov += part.cov;
        self.units += part.units;
    }
}

impl Sample {
    /// Number of sampled rows.
    pub fn num_rows(&self) -> usize {
        self.table.row_count()
    }

    /// Estimates `SUM(f)` over the population, where `f` maps a sampled row
    /// to its contribution (0.0 for rows outside the aggregation domain).
    pub fn estimate_sum_with(&self, f: &mut dyn FnMut(&Block, usize) -> f64) -> Estimate {
        self.pair_stats(&mut |b, i| (f(b, i), 0.0)).total()
    }

    /// Estimates the population row count of the domain selected by the
    /// indicator `ind` (1.0 in-domain, 0.0 out).
    pub fn estimate_count_with(&self, ind: &mut dyn FnMut(&Block, usize) -> f64) -> Estimate {
        self.estimate_sum_with(ind)
    }

    /// Estimates `AVG(f)` over the domain selected by `ind` via the ratio
    /// estimator `SUM(f·ind) / SUM(ind)` with design-correct covariance.
    pub fn estimate_avg_with(
        &self,
        f: &mut dyn FnMut(&Block, usize) -> f64,
        ind: &mut dyn FnMut(&Block, usize) -> f64,
    ) -> Estimate {
        self.pair_stats(&mut |b, i| {
            let w = ind(b, i);
            (f(b, i) * w, w)
        })
        .ratio()
    }

    /// Convenience: estimated population SUM of a column (NULL counts as 0).
    pub fn estimate_sum(&self, column: &str) -> Result<Estimate, StorageError> {
        let idx = self.table.schema().index_of(column)?;
        Ok(self.estimate_sum_with(&mut |b, i| b.column(idx).f64_at(i).unwrap_or(0.0)))
    }

    /// Convenience: estimated population row count.
    pub fn estimate_count(&self) -> Estimate {
        self.estimate_count_with(&mut |_, _| 1.0)
    }

    /// Convenience: estimated population AVG of a column (NULLs excluded).
    pub fn estimate_avg(&self, column: &str) -> Result<Estimate, StorageError> {
        let idx = self.table.schema().index_of(column)?;
        Ok(self.estimate_avg_with(
            &mut |b, i| b.column(idx).f64_at(i).unwrap_or(0.0),
            &mut |b, i| {
                if b.column(idx).is_null(i) {
                    0.0
                } else {
                    1.0
                }
            },
        ))
    }

    /// Materializes the sample as a table with an extra FLOAT64 weight
    /// column, so the exact engine can compute weighted (HT) aggregates —
    /// the middleware query-rewriting path.
    pub fn to_weighted_table(
        &self,
        name: impl Into<String>,
        weight_column: &str,
    ) -> Result<Table, StorageError> {
        let mut fields = self.table.schema().fields().to_vec();
        fields.push(Field::new(weight_column, DataType::Float64));
        let schema = Arc::new(Schema::new(fields));
        let mut global = 0usize;
        // Block by block, so the sample's block boundaries — the engine's
        // summation tree — carry over, and each weighted block reuses the
        // zone map its source block caches.
        let blocks = self
            .table
            .blocks()
            .iter()
            .map(|block| {
                let weights = (global..global + block.len())
                    .map(|i| self.weights.weight(i))
                    .collect();
                global += block.len();
                Arc::new(block.with_column(Arc::clone(&schema), Column::from_f64(weights)))
            })
            .collect();
        Ok(Table::from_blocks(
            name,
            schema,
            blocks,
            self.table.block_capacity(),
        ))
    }

    /// Computes per-design sufficient statistics for the HT totals of two
    /// row functions.
    fn pair_stats(&self, fg: &mut dyn FnMut(&Block, usize) -> (f64, f64)) -> PairStats {
        match &self.design {
            SampleDesign::BernoulliRows { rate, .. } => self.bernoulli_row_stats(*rate, fg),
            SampleDesign::Universe { column, rate, .. } => self.universe_stats(column, *rate, fg),
            SampleDesign::BernoulliBlocks { rate, .. } => self.bernoulli_block_stats(*rate, fg),
            SampleDesign::FixedSizeRows { population_rows } => {
                self.srs_row_stats(*population_rows, fg)
            }
            SampleDesign::FixedSizeBlocks {
                population_blocks, ..
            } => self.srs_block_stats(*population_blocks, fg),
            SampleDesign::Stratified { strata, .. } => self.stratified_stats(strata, fg),
            SampleDesign::BiLevel {
                block_rate,
                row_rate,
                ..
            } => self.bilevel_stats(*block_rate, *row_rate, fg),
            SampleDesign::Distinct { .. } => self.weighted_poisson_stats(fg),
        }
    }

    /// Each sampled block's `(Σf, Σg)`, in block order.
    fn block_totals<'a>(
        &'a self,
        fg: &'a mut dyn FnMut(&Block, usize) -> (f64, f64),
    ) -> impl Iterator<Item = (f64, f64)> + 'a {
        self.table.iter_blocks().map(move |(_, block)| {
            let (mut tf, mut tg) = (0.0, 0.0);
            for i in 0..block.len() {
                let (x, y) = fg(block, i);
                tf += x;
                tg += y;
            }
            (tf, tg)
        })
    }

    /// Bernoulli(q) over rows: Poisson HT with the rows as the units.
    fn bernoulli_row_stats(
        &self,
        q: f64,
        fg: &mut dyn FnMut(&Block, usize) -> (f64, f64),
    ) -> PairStats {
        let mut sums = UnitSums::default();
        for (_, block) in self.table.iter_blocks() {
            for i in 0..block.len() {
                let (x, y) = fg(block, i);
                sums.push(x, y);
            }
        }
        PairStats::poisson(&sums, q, self.num_rows() as u64)
    }

    /// Bernoulli(q) over blocks: the same HT algebra with block totals as
    /// the units — the within-block correlation NSB warns about lives
    /// entirely in these totals.
    fn bernoulli_block_stats(
        &self,
        q: f64,
        fg: &mut dyn FnMut(&Block, usize) -> (f64, f64),
    ) -> PairStats {
        let mut sums = UnitSums::default();
        for (tf, tg) in self.block_totals(fg) {
            sums.push(tf, tg);
        }
        PairStats::poisson(&sums, q, self.table.block_count() as u64)
    }

    /// SRS without replacement over rows: `T̂ = N·x̄` with fpc, ratio
    /// covariance from the sample covariance of (f, g).
    fn srs_row_stats(
        &self,
        population: u64,
        fg: &mut dyn FnMut(&Block, usize) -> (f64, f64),
    ) -> PairStats {
        let mut xs = Vec::with_capacity(self.num_rows());
        let mut ys = Vec::with_capacity(self.num_rows());
        for (_, block) in self.table.iter_blocks() {
            for i in 0..block.len() {
                let (x, y) = fg(block, i);
                xs.push(x);
                ys.push(y);
            }
        }
        srs_pair(&xs, &ys, population)
    }

    /// SRS over blocks (cluster sampling): block totals are the units.
    fn srs_block_stats(
        &self,
        population_blocks: u64,
        fg: &mut dyn FnMut(&Block, usize) -> (f64, f64),
    ) -> PairStats {
        let (xs, ys): (Vec<f64>, Vec<f64>) = self.block_totals(fg).unzip();
        srs_pair(&xs, &ys, population_blocks)
    }

    /// Stratified design: independent SRS inside each stratum; totals,
    /// variances, and covariances add across strata.
    fn stratified_stats(
        &self,
        strata: &[StratumMeta],
        fg: &mut dyn FnMut(&Block, usize) -> (f64, f64),
    ) -> PairStats {
        let mut total = PairStats::default();
        for s in strata {
            let count = s.row_end - s.row_start;
            if count == 0 {
                continue;
            }
            let mut xs = Vec::with_capacity(count);
            let mut ys = Vec::with_capacity(count);
            for global in s.row_start..s.row_end {
                let (bi, ri) = self.table.locate_row(global);
                let block = self.table.block(bi);
                let (x, y) = fg(block, ri);
                xs.push(x);
                ys.push(y);
            }
            total += srs_pair(&xs, &ys, s.population_size);
        }
        total
    }

    /// Universe sampling: the sampled *keys* are the independent units; all
    /// rows of a key enter together, so totals are per-key. Keys enter the
    /// sums in ascending hash order, so an estimate reproduces bit for bit.
    fn universe_stats(
        &self,
        column: &str,
        q: f64,
        fg: &mut dyn FnMut(&Block, usize) -> (f64, f64),
    ) -> PairStats {
        use std::collections::BTreeMap;
        let idx = self
            .table
            .schema()
            .index_of(column)
            .expect("universe key column exists in the sample by construction");
        let mut per_key: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
        for (_, block) in self.table.iter_blocks() {
            let col = block.column(idx);
            for i in 0..block.len() {
                let h = aqp_expr::stable_hash64(&col.get(i));
                let e = per_key.entry(h).or_insert((0.0, 0.0));
                let (x, y) = fg(block, i);
                e.0 += x;
                e.1 += y;
            }
        }
        let mut sums = UnitSums::default();
        for &(tf, tg) in per_key.values() {
            sums.push(tf, tg);
        }
        PairStats::poisson(&sums, q, per_key.len() as u64)
    }

    /// Two-stage Bernoulli (bi-level): HT with
    /// `Var ≈ (1−q_b)/q_b²·Σ_j T̂_j² + (1−q_r)/(q_b·q_r)²·Σ_i x_i²`,
    /// where `T̂_j = t_j/q_r` are within-block-expanded block totals. The
    /// first term slightly over-counts (it includes within-block noise),
    /// making the interval conservative.
    fn bilevel_stats(
        &self,
        qb: f64,
        qr: f64,
        fg: &mut dyn FnMut(&Block, usize) -> (f64, f64),
    ) -> PairStats {
        let (mut sf, mut sg) = (0.0, 0.0);
        let (mut bf2, mut bg2, mut bfg) = (0.0, 0.0, 0.0); // Σ block-total products
        let (mut rf2, mut rg2, mut rfg) = (0.0, 0.0, 0.0); // Σ per-row products
        let mut m = 0u64;
        for (_, block) in self.table.iter_blocks() {
            let (mut tf, mut tg) = (0.0, 0.0);
            for i in 0..block.len() {
                let (x, y) = fg(block, i);
                tf += x;
                tg += y;
                rf2 += x * x;
                rg2 += y * y;
                rfg += x * y;
            }
            let (ef, eg) = (tf / qr, tg / qr);
            bf2 += ef * ef;
            bg2 += eg * eg;
            bfg += ef * eg;
            sf += tf;
            sg += tg;
            m += 1;
        }
        let q = qb * qr;
        let c_block = (1.0 - qb) / (qb * qb);
        let c_row = (1.0 - qr) / (q * q);
        PairStats {
            est_f: sf / q,
            var_f: c_block * bf2 + c_row * rf2,
            est_g: sg / q,
            var_g: c_block * bg2 + c_row * rg2,
            cov: c_block * bfg + c_row * rfg,
            units: m,
        }
    }

    /// Poisson sampling with per-row inclusion probabilities (the distinct
    /// sampler): `T̂ = Σwx`, `Var = Σw(w−1)x²` (zero for cap rows, w = 1).
    fn weighted_poisson_stats(&self, fg: &mut dyn FnMut(&Block, usize) -> (f64, f64)) -> PairStats {
        let (mut sf, mut vf, mut sg, mut vg, mut cv) = (0.0, 0.0, 0.0, 0.0, 0.0);
        let mut n = 0u64;
        let mut global = 0usize;
        for (_, block) in self.table.iter_blocks() {
            for i in 0..block.len() {
                let w = self.weights.weight(global);
                let (x, y) = fg(block, i);
                sf += w * x;
                sg += w * y;
                let excess = w * (w - 1.0);
                vf += excess * x * x;
                vg += excess * y * y;
                cv += excess * x * y;
                n += 1;
                global += 1;
            }
        }
        PairStats {
            est_f: sf,
            var_f: vf,
            est_g: sg,
            var_g: vg,
            cov: cv,
            units: n,
        }
    }
}

/// SRS-without-replacement sufficient statistics for a pair of row
/// functions, by the two-pass (mean, then centered sums) computation.
fn srs_pair(xs: &[f64], ys: &[f64], population: u64) -> PairStats {
    let nf = xs.len() as f64;
    let mean_x: f64 = xs.iter().sum::<f64>() / nf;
    let mean_y: f64 = ys.iter().sum::<f64>() / nf;
    let (mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0);
    for (x, y) in xs.iter().zip(ys) {
        let (dx, dy) = (x - mean_x, y - mean_y);
        sxx += dx * dx;
        syy += dy * dy;
        sxy += dx * dy;
    }
    PairStats::srs(xs.len() as u64, mean_x, mean_y, sxx, syy, sxy, population)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_storage::{Field, Schema, TableBuilder};

    fn small_table(values: &[f64], cap: usize) -> Table {
        let schema = Schema::new(vec![Field::new("v", DataType::Float64)]);
        let mut b = TableBuilder::with_block_capacity("t", schema, cap);
        for &v in values {
            b.push_row(&[Value::Float64(v)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn bernoulli_rows_ht_estimates() {
        // A "sample" of 3 rows drawn at rate 0.5 from a 6-row population.
        let s = Sample {
            table: small_table(&[1.0, 2.0, 3.0], 2),
            design: SampleDesign::BernoulliRows {
                rate: 0.5,
                population_rows: 6,
            },
            weights: RowWeights::Uniform(2.0),
        };
        let sum = s.estimate_sum("v").unwrap();
        assert!((sum.value - 12.0).abs() < 1e-12);
        // Var = (0.5/0.25)·(1+4+9) = 28.
        assert!((sum.variance - 28.0).abs() < 1e-12);
        let cnt = s.estimate_count();
        assert!((cnt.value - 6.0).abs() < 1e-12);
        let avg = s.estimate_avg("v").unwrap();
        assert!((avg.value - 2.0).abs() < 1e-12);
        assert!(avg.variance.is_finite());
    }

    #[test]
    fn bernoulli_blocks_uses_block_totals() {
        // Two blocks of two rows each, rate 0.5.
        let s = Sample {
            table: small_table(&[1.0, 2.0, 3.0, 4.0], 2),
            design: SampleDesign::BernoulliBlocks {
                rate: 0.5,
                population_blocks: 4,
                population_rows: 8,
            },
            weights: RowWeights::Uniform(2.0),
        };
        let sum = s.estimate_sum("v").unwrap();
        assert!((sum.value - 20.0).abs() < 1e-12);
        // Block totals 3 and 7: Var = 2·(9+49) = 116.
        assert!((sum.variance - 116.0).abs() < 1e-12);
        assert_eq!(sum.n, 2); // units are blocks
    }

    #[test]
    fn block_design_counts_blocks_not_rows() {
        let s_rows = Sample {
            table: small_table(&[1.0, 2.0, 3.0, 4.0], 2),
            design: SampleDesign::BernoulliRows {
                rate: 0.5,
                population_rows: 8,
            },
            weights: RowWeights::Uniform(2.0),
        };
        let s_blocks = Sample {
            table: small_table(&[1.0, 2.0, 3.0, 4.0], 2),
            design: SampleDesign::BernoulliBlocks {
                rate: 0.5,
                population_blocks: 4,
                population_rows: 8,
            },
            weights: RowWeights::Uniform(2.0),
        };
        assert_eq!(s_rows.estimate_count().n, 4);
        assert_eq!(s_blocks.estimate_count().n, 2);
        // Same point estimate either way (HT is design-unbiased).
        assert_eq!(
            s_rows.estimate_count().value,
            s_blocks.estimate_count().value
        );
    }

    #[test]
    fn srs_rows_with_fpc() {
        let s = Sample {
            table: small_table(&[1.0, 2.0, 3.0, 4.0, 5.0], 8),
            design: SampleDesign::FixedSizeRows {
                population_rows: 10,
            },
            weights: RowWeights::Uniform(2.0),
        };
        let sum = s.estimate_sum("v").unwrap();
        assert!((sum.value - 30.0).abs() < 1e-12);
        // s² = 2.5; Var = 100·0.5·2.5/5 = 25.
        assert!((sum.variance - 25.0).abs() < 1e-12);
        // Census: zero variance.
        let census = Sample {
            table: small_table(&[1.0, 2.0], 8),
            design: SampleDesign::FixedSizeRows { population_rows: 2 },
            weights: RowWeights::Uniform(1.0),
        };
        assert_eq!(census.estimate_sum("v").unwrap().variance, 0.0);
    }

    #[test]
    fn srs_blocks_cluster_estimate() {
        // Blocks of 2: totals 3, 7; M = 4 blocks in population.
        let s = Sample {
            table: small_table(&[1.0, 2.0, 3.0, 4.0], 2),
            design: SampleDesign::FixedSizeBlocks {
                population_blocks: 4,
                population_rows: 8,
            },
            weights: RowWeights::Uniform(2.0),
        };
        let sum = s.estimate_sum("v").unwrap();
        // T̂ = 4·mean(3,7) = 20.
        assert!((sum.value - 20.0).abs() < 1e-12);
        // s² of totals = 8; Var = 16·0.5·8/2 = 32.
        assert!((sum.variance - 32.0).abs() < 1e-12);
    }

    #[test]
    fn stratified_sums_across_strata() {
        // Stratum A: rows [0,2) pop 4; stratum B: rows [2,3) pop 2.
        let s = Sample {
            table: small_table(&[10.0, 12.0, 100.0], 8),
            design: SampleDesign::Stratified {
                column: "g".into(),
                strata: vec![
                    StratumMeta {
                        key: Value::str("a"),
                        population_size: 4,
                        row_start: 0,
                        row_end: 2,
                    },
                    StratumMeta {
                        key: Value::str("b"),
                        population_size: 2,
                        row_start: 2,
                        row_end: 3,
                    },
                ],
            },
            weights: RowWeights::PerRow(vec![2.0, 2.0, 2.0]),
        };
        let sum = s.estimate_sum("v").unwrap();
        // 4·11 + 2·100 = 244.
        assert!((sum.value - 244.0).abs() < 1e-12);
        // Stratum B has one unit: dispersion unobservable → huge variance.
        assert_eq!(sum.variance, f64::MAX);
    }

    #[test]
    fn universe_groups_by_key() {
        // Keys: two rows of key 1, one row of key 2; rate 0.5.
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Float64),
        ]);
        let mut b = TableBuilder::with_block_capacity("t", schema, 8);
        b.push_row(&[Value::Int64(1), Value::Float64(5.0)]).unwrap();
        b.push_row(&[Value::Int64(1), Value::Float64(7.0)]).unwrap();
        b.push_row(&[Value::Int64(2), Value::Float64(3.0)]).unwrap();
        let s = Sample {
            table: b.finish(),
            design: SampleDesign::Universe {
                column: "k".into(),
                rate: 0.5,
                population_rows: 6,
            },
            weights: RowWeights::Uniform(2.0),
        };
        let sum = s.estimate_sum("v").unwrap();
        assert!((sum.value - 30.0).abs() < 1e-12);
        // Key totals 12 and 3: Var = 2·(144+9) = 306 — the per-key
        // clustering is what inflates join-friendly designs.
        assert!((sum.variance - 306.0).abs() < 1e-12);
        assert_eq!(sum.n, 2); // two key-units
    }

    /// Per-key totals enter the sums in a fixed order, so estimating twice
    /// from one universe sample of 1 000 keys agrees to the last bit.
    #[test]
    fn universe_estimates_reproduce_bit_for_bit() {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Float64),
        ]);
        let mut b = TableBuilder::with_block_capacity("t", schema, 64);
        for i in 0..5_000i64 {
            let v = (i as f64 * 0.37).sin() * 1e3 + (i as f64).sqrt();
            b.push_row(&[Value::Int64(i % 1_000), Value::Float64(v)])
                .unwrap();
        }
        let s = Sample {
            table: b.finish(),
            design: SampleDesign::Universe {
                column: "k".into(),
                rate: 0.3,
                population_rows: 16_000,
            },
            weights: RowWeights::Uniform(1.0 / 0.3),
        };
        let bits = |e: Estimate| (e.value.to_bits(), e.variance.to_bits(), e.n);
        let estimate = || {
            (
                bits(s.estimate_sum("v").unwrap()),
                bits(s.estimate_avg("v").unwrap()),
            )
        };
        let first = estimate();
        assert_eq!(first.0 .2, 1_000, "one unit per key");
        for _ in 0..3 {
            assert_eq!(estimate(), first);
        }
    }

    #[test]
    fn distinct_poisson_weights() {
        // Three rows: weights 1 (capped), 1 (capped), 4 (tail at rate 1/4).
        let s = Sample {
            table: small_table(&[10.0, 20.0, 8.0], 8),
            design: SampleDesign::Distinct {
                columns: vec!["v".into()],
                cap: 2,
                rate: 0.25,
                population_rows: 100,
            },
            weights: RowWeights::PerRow(vec![1.0, 1.0, 4.0]),
        };
        let sum = s.estimate_sum("v").unwrap();
        assert!((sum.value - (10.0 + 20.0 + 32.0)).abs() < 1e-12);
        // Only the tail row contributes variance: 4·3·64 = 768.
        assert!((sum.variance - 768.0).abs() < 1e-12);
    }

    #[test]
    fn empty_sample_has_unusable_variance() {
        let s = Sample {
            table: small_table(&[], 4),
            design: SampleDesign::FixedSizeRows {
                population_rows: 100,
            },
            weights: RowWeights::Uniform(1.0),
        };
        let e = s.estimate_sum("v").unwrap();
        assert_eq!(e.value, 0.0);
        assert_eq!(e.variance, f64::MAX);
    }

    #[test]
    fn weighted_table_materialization() {
        let s = Sample {
            table: small_table(&[1.0, 2.0], 4),
            design: SampleDesign::BernoulliRows {
                rate: 0.25,
                population_rows: 8,
            },
            weights: RowWeights::Uniform(4.0),
        };
        let wt = s.to_weighted_table("t_w", "__weight").unwrap();
        assert_eq!(wt.schema().names(), vec!["v", "__weight"]);
        assert_eq!(wt.row(0)[1], Value::Float64(4.0));
        assert_eq!(wt.row_count(), 2);
    }

    #[test]
    fn design_metadata() {
        let d = SampleDesign::BernoulliBlocks {
            rate: 0.1,
            population_blocks: 10,
            population_rows: 100,
        };
        assert_eq!(d.name(), "bernoulli-blocks");
        assert!(!d.scans_everything());
        let d = SampleDesign::BernoulliRows {
            rate: 0.1,
            population_rows: 100,
        };
        assert!(d.scans_everything());
    }

    #[test]
    fn row_weights_accessors() {
        assert_eq!(RowWeights::Uniform(3.0).weight(17), 3.0);
        assert_eq!(RowWeights::PerRow(vec![1.0, 2.0]).weight(1), 2.0);
    }

    fn sample(values: &[f64], cap: usize, design: SampleDesign, weights: RowWeights) -> Sample {
        Sample {
            table: small_table(values, cap),
            design,
            weights,
        }
    }

    fn two_strata(a: (u64, usize), b: (u64, usize)) -> SampleDesign {
        SampleDesign::Stratified {
            column: "g".into(),
            strata: vec![
                StratumMeta {
                    key: Value::str("a"),
                    population_size: a.0,
                    row_start: 0,
                    row_end: a.1,
                },
                StratumMeta {
                    key: Value::str("b"),
                    population_size: b.0,
                    row_start: a.1,
                    row_end: a.1 + b.1,
                },
            ],
        }
    }

    #[test]
    fn srs_rows_avg_with_fpc() {
        let s = sample(
            &[1.0, 2.0, 3.0, 4.0, 5.0],
            8,
            SampleDesign::FixedSizeRows {
                population_rows: 10,
            },
            RowWeights::Uniform(2.0),
        );
        let avg = s.estimate_avg("v").unwrap();
        assert!((avg.value - 3.0).abs() < 1e-12);
        // The count is known exactly, so Var = Var(SUM)/N² = 25/100.
        assert!((avg.variance - 0.25).abs() < 1e-12);
    }

    #[test]
    fn srs_census_avg_has_zero_variance() {
        let s = sample(
            &[1.0, 2.0, 3.0],
            8,
            SampleDesign::FixedSizeRows { population_rows: 3 },
            RowWeights::Uniform(1.0),
        );
        let avg = s.estimate_avg("v").unwrap();
        assert!((avg.value - 2.0).abs() < 1e-12);
        assert_eq!(avg.variance, 0.0);
    }

    #[test]
    fn bernoulli_full_rate_is_exact() {
        let s = sample(
            &[5.0, 10.0, 35.0],
            2,
            SampleDesign::BernoulliRows {
                rate: 1.0,
                population_rows: 3,
            },
            RowWeights::Uniform(1.0),
        );
        let sum = s.estimate_sum("v").unwrap();
        assert_eq!((sum.value, sum.variance), (50.0, 0.0));
        let count = s.estimate_count();
        assert_eq!((count.value, count.variance), (3.0, 0.0));
    }

    #[test]
    fn bernoulli_count_scaling() {
        let s = sample(
            &[1.0; 100],
            16,
            SampleDesign::BernoulliRows {
                rate: 0.01,
                population_rows: 10_000,
            },
            RowWeights::Uniform(100.0),
        );
        let count = s.estimate_count();
        assert!((count.value - 10_000.0).abs() < 1e-9);
        // (0.99/1e-4)·100 = 990000.
        assert!((count.variance - 990_000.0).abs() < 1e-6);
    }

    #[test]
    fn bernoulli_avg_is_sample_mean() {
        let values = [2.0, 4.0, 4.0, 5.0, 5.0, 5.0, 6.0, 6.0, 6.0, 7.0];
        let s = sample(
            &values,
            4,
            SampleDesign::BernoulliRows {
                rate: 0.1,
                population_rows: 100,
            },
            RowWeights::Uniform(10.0),
        );
        // The ratio estimator's point value is Σx / n whatever the rate.
        let avg = s.estimate_avg("v").unwrap();
        assert!((avg.value - 5.0).abs() < 1e-12);
        // Numerator and denominator move together, so the AVG is far
        // tighter than the SUM in relative terms.
        let sum = s.estimate_sum("v").unwrap();
        assert!(avg.relative_std_err() < sum.relative_std_err());
    }

    #[test]
    fn bernoulli_avg_empty_sample_is_unusable() {
        let s = sample(
            &[],
            4,
            SampleDesign::BernoulliRows {
                rate: 0.1,
                population_rows: 100,
            },
            RowWeights::Uniform(10.0),
        );
        assert_eq!(s.estimate_avg("v").unwrap().variance, f64::MAX);
    }

    #[test]
    fn bernoulli_blocks_full_rate_is_exact() {
        let s = sample(
            &[1.0, 2.0, 3.0, 4.0],
            2,
            SampleDesign::BernoulliBlocks {
                rate: 1.0,
                population_blocks: 2,
                population_rows: 4,
            },
            RowWeights::Uniform(1.0),
        );
        let sum = s.estimate_sum("v").unwrap();
        assert_eq!((sum.value, sum.variance, sum.n), (10.0, 0.0, 2));
    }

    #[test]
    fn bilevel_full_rates_are_exact() {
        let s = sample(
            &[1.0, 2.0, 3.0, 4.0, 5.0],
            2,
            SampleDesign::BiLevel {
                block_rate: 1.0,
                row_rate: 1.0,
                population_blocks: 3,
                population_rows: 5,
            },
            RowWeights::Uniform(1.0),
        );
        let sum = s.estimate_sum("v").unwrap();
        assert_eq!((sum.value, sum.variance, sum.n), (15.0, 0.0, 3));
        let avg = s.estimate_avg("v").unwrap();
        assert!((avg.value - 3.0).abs() < 1e-12);
        assert_eq!(avg.variance, 0.0);
    }

    #[test]
    fn distinct_capped_rows_are_exact() {
        // Every row is within its key's cap: weight 1, no sampling noise.
        let s = sample(
            &[10.0, 20.0, 8.0],
            8,
            SampleDesign::Distinct {
                columns: vec!["v".into()],
                cap: 2,
                rate: 0.25,
                population_rows: 3,
            },
            RowWeights::PerRow(vec![1.0, 1.0, 1.0]),
        );
        let sum = s.estimate_sum("v").unwrap();
        assert_eq!((sum.value, sum.variance), (38.0, 0.0));
    }

    #[test]
    fn stratified_avg_exact_weighting() {
        // Strata of population 80 and 20 with sample means 10 and 100.
        let s = sample(
            &[9.0, 10.0, 11.0, 99.0, 100.0, 101.0],
            4,
            two_strata((80, 3), (20, 3)),
            RowWeights::PerRow([[80.0 / 3.0; 3], [20.0 / 3.0; 3]].concat()),
        );
        let avg = s.estimate_avg("v").unwrap();
        assert!((avg.value - (0.8 * 10.0 + 0.2 * 100.0)).abs() < 1e-12);
        assert!(avg.variance > 0.0);
        assert_eq!(avg.n, 6);
    }

    #[test]
    fn stratified_beats_srs_on_segregated_data() {
        // When the strata separate the variance, the stratified variance is
        // far below the one SRS would claim for the same rows.
        let values: Vec<f64> = (0..50)
            .map(|i| 10.0 + (i % 3) as f64)
            .chain((0..50).map(|i| 1000.0 + (i % 3) as f64))
            .collect();
        let strat = sample(
            &values,
            16,
            two_strata((5000, 50), (5000, 50)),
            RowWeights::Uniform(100.0),
        );
        let srs = sample(
            &values,
            16,
            SampleDesign::FixedSizeRows {
                population_rows: 10_000,
            },
            RowWeights::Uniform(100.0),
        );
        let strat = strat.estimate_avg("v").unwrap();
        let srs = srs.estimate_avg("v").unwrap();
        assert!((strat.value - srs.value).abs() < 1e-9);
        assert!(strat.variance < srs.variance / 100.0);
    }

    #[test]
    fn stratified_skips_empty_stratum() {
        let strata = two_strata((50, 2), (50, 0));
        let s = sample(&[1.0, 2.0], 4, strata.clone(), RowWeights::Uniform(25.0));
        // Only the observed stratum contributes: 50·1.5.
        let sum = s.estimate_sum("v").unwrap();
        assert!((sum.value - 75.0).abs() < 1e-12);
        assert!((s.estimate_avg("v").unwrap().value - 1.5).abs() < 1e-12);
        // The one-pass domain entry skips it the same way.
        let SampleDesign::Stratified { strata, .. } = strata else {
            unreachable!()
        };
        let hits = std::iter::once((0, Moments::from_slice(&[1.0, 2.0])));
        let domain = PairStats::stratified_domain(&strata, hits).total();
        assert!((domain.value - sum.value).abs() < 1e-12);
        assert!((domain.variance - sum.variance).abs() < 1e-9 * sum.variance);
    }

    fn unit_sums(units: &[(f64, f64)]) -> UnitSums {
        let mut sums = UnitSums::default();
        for &(f, g) in units {
            sums.push(f, g);
        }
        sums
    }

    #[test]
    fn unit_sums_means_and_centered() {
        let sums = unit_sums(&[(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)]);
        assert_eq!(sums.means(3), (2.0, 1.0));
        assert_eq!(sums.centered(3), (2.0, 0.0, 0.0));
        // Units absent from the domain still count in the means.
        assert_eq!(sums.means(6), (1.0, 0.5));
    }

    #[test]
    fn clusters_total_scaling() {
        let sums = unit_sums(&[(10.0, 1.0), (12.0, 1.0), (8.0, 1.0), (10.0, 1.0)]);
        let total = PairStats::clusters(&sums, 4, 100).total();
        assert!((total.value - 1000.0).abs() < 1e-9);
        // s² of the totals = 8/3; Var = 100²·0.96·(8/3)/4 = 6400.
        assert!((total.variance - 6400.0).abs() < 1e-6);
        assert_eq!(total.n, 4);
    }

    #[test]
    fn clusters_ratio_estimator() {
        let sums = unit_sums(&[(20.0, 10.0), (30.0, 15.0), (25.0, 12.0)]);
        let avg = PairStats::clusters(&sums, 3, 50).ratio();
        assert!((avg.value - 75.0 / 37.0).abs() < 1e-12);
        assert!(avg.variance > 0.0);
        assert_eq!(avg.n, 3);
    }

    #[test]
    fn clusters_homogeneous_blocks_low_variance() {
        // Every block has mean 2.0: the ratio's residuals vanish, though
        // the block totals themselves vary.
        let sums = unit_sums(&[(20.0, 10.0), (30.0, 15.0), (24.0, 12.0)]);
        let stats = PairStats::clusters(&sums, 3, 50);
        assert!((stats.ratio().value - 2.0).abs() < 1e-12);
        assert!(stats.ratio().variance < 1e-12);
        assert!(stats.total().variance > 1.0);
    }

    #[test]
    fn clusters_census_has_zero_variance() {
        let sums = unit_sums(&[(3.0, 2.0), (7.0, 2.0), (1.0, 1.0)]);
        let stats = PairStats::clusters(&sums, 3, 3);
        assert_eq!((stats.total().value, stats.total().variance), (11.0, 0.0));
        assert!((stats.ratio().value - 11.0 / 5.0).abs() < 1e-12);
        assert_eq!(stats.ratio().variance, 0.0);
    }

    #[test]
    fn clusters_single_unit_is_unobservable() {
        let stats = PairStats::clusters(&unit_sums(&[(6.0, 3.0)]), 1, 10);
        let total = stats.total();
        assert_eq!((total.value, total.variance, total.n), (60.0, f64::MAX, 1));
        // AVG from one block is that block's mean, not a population total.
        let avg = stats.ratio();
        assert_eq!((avg.value, avg.variance, avg.n), (2.0, f64::MAX, 1));
    }

    #[test]
    fn clusters_without_units_is_unusable() {
        let stats = PairStats::clusters(&UnitSums::default(), 0, 10);
        assert_eq!(stats.total().value, 0.0);
        assert_eq!(stats.total().variance, f64::MAX);
        assert_eq!(stats.ratio().variance, f64::MAX);
    }

    #[test]
    fn clusters_absent_units_count_as_zero() {
        // Pushing (0, 0) for the sampled units a domain is absent from
        // changes nothing: `sampled` already counts them.
        let present = unit_sums(&[(5.0, 1.0), (7.0, 2.0)]);
        let padded = unit_sums(&[(5.0, 1.0), (0.0, 0.0), (7.0, 2.0), (0.0, 0.0)]);
        let (a, b) = (
            PairStats::clusters(&present, 4, 20),
            PairStats::clusters(&padded, 4, 20),
        );
        assert_eq!(a.total(), b.total());
        assert_eq!(a.ratio(), b.ratio());
        // Against the same two units alone, the zeros widen the spread.
        let alone = PairStats::clusters(&present, 2, 20).total();
        assert!(a.total().variance > alone.variance);
    }
}

#[cfg(test)]
mod design_property_tests {
    use super::*;
    use crate::bernoulli::{bernoulli_blocks, bernoulli_rows};
    use crate::universe::universe_sample;
    use aqp_storage::{Field, Schema, TableBuilder};
    use proptest::prelude::*;

    fn keyed_table(values: &[(i64, f64)], cap: usize) -> Table {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Float64),
        ]);
        let mut b = TableBuilder::with_block_capacity("p", schema, cap);
        for &(k, v) in values {
            b.push_row(&[Value::Int64(k), Value::Float64(v)]).unwrap();
        }
        b.finish()
    }

    /// `got` equals the two-pass reference `want`: the same unit count,
    /// value within 1e-12 relative, variance within 1e-9 relative (or
    /// 1e-12·value² where a ratio's terms cancel), an unobservable
    /// variance reproduced as such.
    fn matches_reference(got: Estimate, want: Estimate) -> Result<(), TestCaseError> {
        prop_assert_eq!(got.n, want.n);
        prop_assert!(
            (got.value - want.value).abs() <= 1e-12 * want.value.abs(),
            "value {} vs {}",
            got.value,
            want.value
        );
        if want.variance >= f64::MAX {
            prop_assert_eq!(got.variance, want.variance);
        } else {
            prop_assert!(
                (got.variance - want.variance).abs()
                    <= (1e-9 * want.variance).max(1e-12 * want.value * want.value),
                "variance {} vs {}",
                got.variance,
                want.variance
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The one cluster entry — a domain's block totals pushed into
        /// `UnitSums` for the blocks it appears in, then
        /// `PairStats::clusters` — equals the two-pass SRS-of-blocks
        /// reference over every sampled block, for SUM and AVG.
        #[test]
        fn clusters_match_two_pass_reference(
            values in prop::collection::vec((0i64..4, -1e4f64..1e4), 1..300),
            cap in 1usize..32,
            unsampled in 0u64..40,
        ) {
            let t = keyed_table(&values, cap);
            let sampled = t.block_count() as u64;
            let population = sampled + unsampled;
            // The domain: rows with key 0.
            let mut sums = UnitSums::default();
            for (_, block) in t.iter_blocks() {
                let (mut tf, mut tg) = (0.0, 0.0);
                for i in 0..block.len() {
                    if block.column(0).f64_at(i) == Some(0.0) {
                        tf += block.column(1).f64_at(i).unwrap();
                        tg += 1.0;
                    }
                }
                if tg > 0.0 {
                    sums.push(tf, tg);
                }
            }
            let got = PairStats::clusters(&sums, sampled, population);
            let sample = Sample {
                table: t,
                design: SampleDesign::FixedSizeBlocks {
                    population_blocks: population,
                    population_rows: 0,
                },
                weights: RowWeights::Uniform(1.0),
            };
            let ind = |b: &Block, i: usize| f64::from(u8::from(b.column(0).f64_at(i) == Some(0.0)));
            let sum = sample.estimate_sum_with(&mut |b, i| ind(b, i) * b.column(1).f64_at(i).unwrap());
            matches_reference(got.total(), sum)?;
            let avg = sample.estimate_avg_with(&mut |b, i| b.column(1).f64_at(i).unwrap(), &mut |b, i| ind(b, i));
            matches_reference(got.ratio(), avg)?;
        }

        /// HT count weights reconstruct the sample's own weighted size:
        /// Σ 1/π over sampled rows == estimate_count().value for every
        /// uniform design.
        #[test]
        fn weights_consistent_with_count_estimate(
            values in prop::collection::vec((-100i64..100, -1e4f64..1e4), 1..300),
            cap in 1usize..32,
            seed in any::<u64>(),
        ) {
            let t = keyed_table(&values, cap);
            for sample in [
                bernoulli_rows(&t, 0.3, seed),
                bernoulli_blocks(&t, 0.3, seed),
                universe_sample(&t, "k", 0.3, seed).unwrap(),
            ] {
                let weight_mass: f64 =
                    (0..sample.num_rows()).map(|i| sample.weights.weight(i)).sum();
                let est = sample.estimate_count().value;
                prop_assert!(
                    (weight_mass - est).abs() < 1e-6 * (1.0 + est.abs()),
                    "{}: weight mass {weight_mass} vs estimate {est}",
                    sample.design.name()
                );
            }
        }

        /// Universe samples of the same table with the same salt are
        /// identical; with the complementary threshold they partition.
        #[test]
        fn universe_determinism(
            values in prop::collection::vec((0i64..500, 0.0f64..10.0), 1..200),
            salt in any::<u64>(),
        ) {
            let t = keyed_table(&values, 16);
            let a = universe_sample(&t, "k", 0.4, salt).unwrap();
            let b = universe_sample(&t, "k", 0.4, salt).unwrap();
            prop_assert_eq!(a.num_rows(), b.num_rows());
            prop_assert_eq!(
                a.table.column_f64("v").unwrap(),
                b.table.column_f64("v").unwrap()
            );
            // A larger rate is a superset (nested samples).
            let wider = universe_sample(&t, "k", 0.8, salt).unwrap();
            prop_assert!(wider.num_rows() >= a.num_rows());
        }

        /// Weighted-table materialization preserves row count and schema.
        #[test]
        fn weighted_table_shape(
            values in prop::collection::vec((0i64..50, -1e3f64..1e3), 1..100),
            seed in any::<u64>(),
        ) {
            let t = keyed_table(&values, 8);
            let s = bernoulli_rows(&t, 0.5, seed);
            let wt = s.to_weighted_table("w", "__w").unwrap();
            prop_assert_eq!(wt.row_count(), s.num_rows());
            prop_assert_eq!(wt.schema().len(), t.schema().len() + 1);
        }
    }
}
