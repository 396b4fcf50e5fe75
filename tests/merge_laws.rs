//! Merge-law proptests for every `Partial` implementation in the
//! workspace: **associativity**, **commutativity**, **identity**, and
//! **merge-equals-union** (a fold of chunk partials answers like a single
//! pass over the concatenated data).
//!
//! Laws are checked through each type's *observable* — its estimates —
//! rather than its bytes: float accumulators are associative only in
//! value space, and hash-set partials have no canonical byte order. Types
//! whose arithmetic is integral (counters, register maxima, bit unions,
//! k-smallest sets) are held to exact equality; float observables get a
//! relative tolerance at machine precision; GK quantile summaries get the
//! rank-error tolerance their merge guarantees.
//!
//! Union partials are built on the morsel pool at threads {1, 2, 4, 8} —
//! the schedule must never leak into the merged answer.
//!
//! Statistical checks ride along for `Sample`: stratified samples drawn
//! from disjoint tables and merged answer like one sample of their union
//! (the `Table` merge), with a CI that covers the truth and keeps its
//! width; samples of every other design refuse to merge.
//! And two-step aggregation is checked end to end: `AggState` partials
//! folded per disjoint part and merged in part order give the engine's
//! answer over the union, bit for bit where the arithmetic is exact.

use aqp_engine::agg::{AggFunc, AggState};
use aqp_engine::pool::parallel_map;
use aqp_engine::{execute, AggExpr, Query};
use aqp_expr::col;
use aqp_mergeable::MergeError;
use aqp_mergeable::Partial;
use aqp_sampling::{
    bernoulli_blocks, bernoulli_rows, bilevel_sample, reservoir_rows, stratified_sample,
    universe_sample, Allocation, Sample,
};
use aqp_sketch::{
    AmsSketch, BloomFilter, CountMinSketch, CountSketch, EquiDepthHistogram, EquiWidthHistogram,
    GkQuantiles, HyperLogLog, KmvSketch, WaveletSynopsis,
};
use aqp_stats::Moments;
use aqp_storage::{Catalog, DataType, Field, Schema, Table, TableBuilder, Value};
use aqp_workload::{skewed_table, uniform_table};
use proptest::prelude::*;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Relative closeness of two observable vectors.
fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

/// Asserts the four laws on `parts` (≥ 3), comparing via `observe`:
/// * identity — merging `empty` in either direction changes nothing;
/// * commutativity — `a ⊕ b` and `b ⊕ a` observe identically;
/// * associativity — `(a ⊕ b) ⊕ c` and `a ⊕ (b ⊕ c)` observe identically;
/// * merge-equals-union — the in-order fold observes like `serial`,
///   checked with partials rebuilt on the pool at every thread count by
///   the caller.
fn assert_laws<T: Partial + Clone>(
    parts: &[T],
    empty: Option<&T>,
    serial: &T,
    observe: impl Fn(&T) -> Vec<f64>,
    tol: f64,
    label: &str,
) {
    assert!(parts.len() >= 3, "{label}: need 3 parts for associativity");
    if let Some(empty) = empty {
        let mut left = parts[0].clone();
        left.merge(empty).unwrap();
        assert!(
            close(&observe(&left), &observe(&parts[0]), tol),
            "{label}: right identity broken"
        );
        let mut right = empty.clone();
        right.merge(&parts[0]).unwrap();
        assert!(
            close(&observe(&right), &observe(&parts[0]), tol),
            "{label}: left identity broken"
        );
    }
    let mut ab = parts[0].clone();
    ab.merge(&parts[1]).unwrap();
    let mut ba = parts[1].clone();
    ba.merge(&parts[0]).unwrap();
    assert!(
        close(&observe(&ab), &observe(&ba), tol),
        "{label}: commutativity broken"
    );
    let mut ab_c = ab.clone();
    ab_c.merge(&parts[2]).unwrap();
    let mut bc = parts[1].clone();
    bc.merge(&parts[2]).unwrap();
    let mut a_bc = parts[0].clone();
    a_bc.merge(&bc).unwrap();
    assert!(
        close(&observe(&ab_c), &observe(&a_bc), tol),
        "{label}: associativity broken"
    );
    let mut fold = parts[0].clone();
    for p in &parts[1..] {
        fold.merge(p).unwrap();
    }
    assert!(
        close(&observe(&fold), &observe(serial), tol),
        "{label}: merge-equals-union broken\n fold: {:?}\n serial: {:?}",
        observe(&fold),
        observe(serial),
    );
}

/// Builds one partial per chunk on the pool and folds them in chunk
/// order — the union side of merge-equals-union, at every thread count.
fn pooled_union<T, I>(chunks: Vec<Vec<I>>, build: impl Fn(&[I]) -> T + Send + Sync) -> Vec<T>
where
    T: Partial + Clone + Send,
    I: Clone + Send + Sync,
{
    let mut out = Vec::new();
    for threads in THREADS {
        let parts = parallel_map(chunks.clone(), threads, |_, chunk| build(&chunk));
        let mut fold = parts[0].clone();
        for p in &parts[1..] {
            fold.merge(p).unwrap();
        }
        out.push(fold);
    }
    out
}

fn item_chunks() -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(any::<u64>(), 1..120), 3..6)
}

fn float_chunks() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-1e5f64..1e5, 1..120), 3..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn hll_laws(chunks in item_chunks()) {
        let build = |items: &[u64]| {
            let mut s = HyperLogLog::new(10);
            for &h in items { s.insert_hashed(h); }
            s
        };
        let all: Vec<u64> = chunks.iter().flatten().copied().collect();
        let serial = build(&all);
        let parts: Vec<_> = chunks.iter().map(|c| build(c)).collect();
        let observe = |s: &HyperLogLog| vec![s.estimate()];
        assert_laws(&parts, Some(&HyperLogLog::new(10)), &serial, observe, 0.0, "hll");
        for fold in pooled_union(chunks, build) {
            prop_assert_eq!(fold.estimate(), serial.estimate());
        }
    }

    #[test]
    fn count_min_laws(chunks in item_chunks()) {
        let build = |items: &[u64]| {
            let mut s = CountMinSketch::new(64, 4, 7);
            for &h in items { s.insert_hashed(h, 1); }
            s
        };
        let all: Vec<u64> = chunks.iter().flatten().copied().collect();
        let probes: Vec<u64> = all.iter().take(5).copied().collect();
        let serial = build(&all);
        let parts: Vec<_> = chunks.iter().map(|c| build(c)).collect();
        let observe = |s: &CountMinSketch| {
            let mut o: Vec<f64> = probes.iter().map(|&h| s.estimate_hashed(h) as f64).collect();
            o.push(s.total() as f64);
            o
        };
        assert_laws(&parts, Some(&CountMinSketch::new(64, 4, 7)), &serial, observe, 0.0, "count-min");
        for fold in pooled_union(chunks, build) {
            prop_assert_eq!(fold.total(), serial.total());
        }
    }

    #[test]
    fn count_sketch_laws(chunks in item_chunks()) {
        let build = |items: &[u64]| {
            let mut s = CountSketch::new(64, 4, 7);
            for &h in items { s.insert_hashed(h, (h % 5) as i64 - 2); }
            s
        };
        let all: Vec<u64> = chunks.iter().flatten().copied().collect();
        let probes: Vec<u64> = all.iter().take(5).copied().collect();
        let serial = build(&all);
        let parts: Vec<_> = chunks.iter().map(|c| build(c)).collect();
        let observe = |s: &CountSketch| {
            probes.iter().map(|&h| s.estimate_hashed(h) as f64).collect()
        };
        assert_laws(&parts, Some(&CountSketch::new(64, 4, 7)), &serial, observe, 0.0, "count-sketch");
        for fold in pooled_union(chunks, build) {
            for &h in &probes {
                prop_assert_eq!(fold.estimate_hashed(h), serial.estimate_hashed(h));
            }
        }
    }

    #[test]
    fn ams_laws(chunks in item_chunks()) {
        let build = |items: &[u64]| {
            let mut s = AmsSketch::new(32, 5, 7);
            for &h in items { s.insert_hashed(h, 1); }
            s
        };
        let all: Vec<u64> = chunks.iter().flatten().copied().collect();
        let serial = build(&all);
        let parts: Vec<_> = chunks.iter().map(|c| build(c)).collect();
        let observe = |s: &AmsSketch| vec![s.estimate_f2()];
        assert_laws(&parts, Some(&AmsSketch::new(32, 5, 7)), &serial, observe, 0.0, "ams");
        for fold in pooled_union(chunks, build) {
            prop_assert_eq!(fold.estimate_f2(), serial.estimate_f2());
        }
    }

    #[test]
    fn kmv_laws(chunks in item_chunks()) {
        let build = |items: &[u64]| {
            let mut s = KmvSketch::new(32);
            for &h in items { s.insert_hashed(h); }
            s
        };
        let all: Vec<u64> = chunks.iter().flatten().copied().collect();
        let serial = build(&all);
        let parts: Vec<_> = chunks.iter().map(|c| build(c)).collect();
        let observe = |s: &KmvSketch| vec![s.estimate(), s.num_retained() as f64];
        assert_laws(&parts, Some(&KmvSketch::new(32)), &serial, observe, 0.0, "kmv");
        for fold in pooled_union(chunks, build) {
            prop_assert_eq!(fold.estimate(), serial.estimate());
        }
    }

    #[test]
    fn bloom_laws(chunks in item_chunks()) {
        let build = |items: &[u64]| {
            let mut s = BloomFilter::new(2048, 3, 7);
            for &h in items { s.insert(&h.to_le_bytes()); }
            s
        };
        let all: Vec<u64> = chunks.iter().flatten().copied().collect();
        let probes: Vec<u64> = all.iter().take(8).copied().collect();
        let serial = build(&all);
        let parts: Vec<_> = chunks.iter().map(|c| build(c)).collect();
        let observe = |s: &BloomFilter| {
            let mut o: Vec<f64> = probes
                .iter()
                .map(|h| f64::from(u8::from(s.contains(&h.to_le_bytes()))))
                .collect();
            o.push(s.inserted() as f64);
            o
        };
        assert_laws(&parts, Some(&BloomFilter::new(2048, 3, 7)), &serial, observe, 0.0, "bloom");
        for fold in pooled_union(chunks, build) {
            for &h in &probes {
                prop_assert!(fold.contains(&h.to_le_bytes()));
            }
            prop_assert_eq!(fold.inserted(), serial.inserted());
        }
    }

    #[test]
    fn gk_laws(chunks in float_chunks()) {
        const EPS: f64 = 0.05;
        let build = |xs: &[f64]| {
            let mut s = GkQuantiles::new(EPS);
            for &x in xs { s.insert(x); }
            s
        };
        let all: Vec<f64> = chunks.iter().flatten().copied().collect();
        let lo = all.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = all.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // GK guarantees rank accuracy; on values this maps through the
        // data's spread. Merged summaries carry ~2× the one-pass rank
        // error, so allow 4·eps of the value range as slack.
        let tol_value = 4.0 * EPS * (hi - lo).max(1e-9);
        let serial = build(&all);
        let parts: Vec<_> = chunks.iter().map(|c| build(c)).collect();
        let observe = |s: &GkQuantiles| {
            [0.1, 0.5, 0.9]
                .iter()
                .map(|&phi| s.query(phi).unwrap_or(0.0) / tol_value)
                .collect::<Vec<_>>()
        };
        assert_laws(&parts, Some(&GkQuantiles::new(EPS)), &serial, observe, 1.0, "gk");
        for fold in pooled_union(chunks, build) {
            prop_assert_eq!(fold.count(), serial.count());
            for phi in [0.1, 0.5, 0.9] {
                let d = (fold.query(phi).unwrap() - serial.query(phi).unwrap()).abs();
                prop_assert!(d <= tol_value, "phi={phi}: off by {d} > {tol_value}");
            }
        }
    }

    #[test]
    fn equi_width_laws(chunks in float_chunks()) {
        let build = |xs: &[f64]| EquiWidthHistogram::build_in_range(xs, 16, -1e5, 1e5);
        let all: Vec<f64> = chunks.iter().flatten().copied().collect();
        let serial = build(&all);
        let parts: Vec<_> = chunks.iter().map(|c| build(c)).collect();
        let observe = |s: &EquiWidthHistogram| {
            vec![
                s.range_count(-1e5, 1e5),
                s.range_sum(-1e5, 0.0),
                s.range_sum(0.0, 1e5),
            ]
        };
        // Shared boundaries: counts add exactly, sums at float precision.
        // No identity check: histograms cannot be built from nothing.
        assert_laws(&parts, None, &serial, observe, 1e-9, "equi-width");
        for fold in pooled_union(chunks, build) {
            prop_assert_eq!(fold.range_count(-1e5, 1e5), serial.range_count(-1e5, 1e5));
        }
    }

    #[test]
    fn equi_depth_laws(xs in prop::collection::vec(-1e5f64..1e5, 8..200)) {
        // Equi-depth boundaries are a global property of the data, so the
        // lawful merges are between summaries sharing them: partials here
        // are copies of one build, and merging scales every count.
        let h = EquiDepthHistogram::build(&xs, 8);
        let parts = vec![h.clone(), h.clone(), h.clone()];
        let observe = |s: &EquiDepthHistogram| {
            vec![s.range_count(-1e5, 1e5), s.quantile(0.5)]
        };
        let mut tripled = h.clone();
        tripled.merge(&h).unwrap();
        tripled.merge(&h).unwrap();
        assert_laws(&parts, None, &tripled, observe, 1e-9, "equi-depth");
        prop_assert!(
            (tripled.range_count(-1e5, 1e5) - 3.0 * h.range_count(-1e5, 1e5)).abs() < 1e-6
        );
        // Quantiles are count-ratio driven: scaling counts preserves them.
        prop_assert!((tripled.quantile(0.5) - h.quantile(0.5)).abs() < 1e-9);
    }

    #[test]
    fn wavelet_laws(signals in prop::collection::vec(
        prop::collection::vec(-1e4f64..1e4, 48..49),
        3..6,
    )) {
        // Wavelet merge adds *signals* (Haar transform linearity), so the
        // union of chunk synopses is the synopsis of the summed signal.
        let build = |xs: &[f64]| WaveletSynopsis::build(xs, 64);
        let summed: Vec<f64> = (0..48)
            .map(|i| signals.iter().map(|s| s[i]).sum())
            .collect();
        let serial = build(&summed);
        let parts: Vec<_> = signals.iter().map(|s| build(s)).collect();
        let observe = |s: &WaveletSynopsis| s.reconstruct();
        let zero = build(&vec![0.0; 48]);
        assert_laws(&parts, Some(&zero), &serial, observe, 1e-9, "wavelet");
        for fold in pooled_union(signals, build) {
            prop_assert!(close(&fold.reconstruct(), &serial.reconstruct(), 1e-9));
        }
    }

    #[test]
    fn moments_laws(chunks in float_chunks()) {
        let build = Moments::from_slice;
        let all: Vec<f64> = chunks.iter().flatten().copied().collect();
        let serial = build(&all);
        let parts: Vec<_> = chunks.iter().map(|c| build(c)).collect();
        let observe = |m: &Moments| {
            vec![m.count() as f64, m.mean(), m.variance(), m.min(), m.max(), m.sum()]
        };
        assert_laws(&parts, Some(&Moments::new()), &serial, observe, 1e-9, "moments");
        for fold in pooled_union(chunks, |c: &[f64]| build(c)) {
            prop_assert_eq!(fold.count(), serial.count());
            prop_assert!((fold.mean() - serial.mean()).abs() <= 1e-9 * (1.0 + serial.mean().abs()));
        }
    }

    #[test]
    fn table_laws(chunks in prop::collection::vec(
        prop::collection::vec(-1e6f64..1e6, 1..40),
        3..6,
    )) {
        let schema = Schema::new(vec![Field::new("v", DataType::Float64)]);
        let build = |xs: &[f64]| {
            let mut b = TableBuilder::with_block_capacity("t", schema.clone(), 8);
            for &x in xs { b.push_row(&[Value::Float64(x)]).unwrap(); }
            b.finish()
        };
        let all: Vec<f64> = chunks.iter().flatten().copied().collect();
        let serial = build(&all);
        let parts: Vec<_> = chunks.iter().map(|c| build(c)).collect();
        // Tables merge by concatenation: the lawful observable is the row
        // *multiset* (sorted values), under which swapping sides commutes.
        let observe = |t: &Table| {
            let mut vs = t.column_f64("v").unwrap();
            vs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            vs.insert(0, t.row_count() as f64);
            vs
        };
        assert_laws(&parts, Some(&build(&[])), &serial, observe, 0.0, "table");
        // Order-sensitive union: the in-order fold IS the serial table.
        let mut fold = parts[0].clone();
        for p in &parts[1..] {
            Partial::merge(&mut fold, p).unwrap();
        }
        prop_assert_eq!(fold.column_f64("v").unwrap(), serial.column_f64("v").unwrap());
    }

    #[test]
    fn sample_laws(chunks in prop::collection::vec(
        prop::collection::vec(-1e4f64..1e4, 8..40),
        3..6,
    )) {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Int64),
            Field::new("v", DataType::Float64),
        ]);
        // Two strata of at least four rows, three quarters sampled: every
        // stratum keeps two rows, so every variance is finite.
        let build = |xs: &[f64]| -> Sample {
            let mut b = TableBuilder::with_block_capacity("t", schema.clone(), 8);
            for (i, &x) in xs.iter().enumerate() {
                b.push_row(&[Value::Int64(i as i64 % 2), Value::Float64(x)]).unwrap();
            }
            let budget = Allocation::Congressional { budget: xs.len() * 3 / 4 };
            stratified_sample(&b.finish(), "g", &budget, 11).unwrap()
        };
        let parts: Vec<_> = chunks.iter().map(|c| build(c)).collect();
        // Disjoint shards: totals and variances add, in any grouping.
        let expected_value: f64 = parts.iter().map(|s| s.estimate_sum("v").unwrap().value).sum();
        let expected_var: f64 = parts.iter().map(|s| s.estimate_sum("v").unwrap().variance).sum();
        let mut fold = parts[0].clone();
        for p in &parts[1..] {
            fold.merge(p).unwrap();
        }
        let observe = |s: &Sample| {
            let e = s.estimate_sum("v").unwrap();
            vec![e.value, e.variance]
        };
        assert_laws(&parts, None, &fold, observe, 1e-9, "sample");
        let est = fold.estimate_sum("v").unwrap();
        prop_assert!((est.value - expected_value).abs() <= 1e-9 * (1.0 + expected_value.abs()));
        prop_assert!((est.variance - expected_var).abs() <= 1e-9 * (1.0 + expected_var.abs()));
    }

    #[test]
    fn agg_state_laws(chunks in float_chunks()) {
        for func in [
            AggFunc::CountStar,
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::CountDistinct,
            AggFunc::VarSamp,
        ] {
            let build = move |xs: &[f64]| {
                let mut s = AggState::new(func);
                for &x in xs { s.update_f64(x); }
                s
            };
            let all: Vec<f64> = chunks.iter().flatten().copied().collect();
            let serial = build(&all);
            let parts: Vec<_> = chunks.iter().map(|c| build(c)).collect();
            let observe = |s: &AggState| {
                vec![match s.finish() {
                    Value::Float64(x) => x,
                    Value::Int64(n) => n as f64,
                    _ => f64::NAN,
                }]
            };
            // MIN/MAX keep the earlier side on ties, so strict
            // commutativity needs distinct extrema; the observable (the
            // extremum's value) is still symmetric.
            assert_laws(
                &parts,
                Some(&AggState::new(func)),
                &serial,
                observe,
                1e-9,
                &format!("agg-state {func}"),
            );
            for fold in pooled_union(chunks.clone(), build) {
                let (a, b) = (observe(&fold), observe(&serial));
                assert!(close(&a, &b, 1e-9), "{func}: union {a:?} vs serial {b:?}");
            }
        }
    }
}

/// Part counts the sample-merge checks split one union into.
const PART_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Spreads per-part seeds so adjacent parts never reuse a random stream.
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Eight disjoint uniform tables of `rows / 8` rows each.
fn disjoint_pieces(rows: usize, seed: u64) -> Vec<Table> {
    pieces_with_capacity(rows, 512, seed)
}

/// Eight disjoint uniform tables of `rows / 8` rows each, in blocks of
/// `cap` rows.
fn pieces_with_capacity(rows: usize, cap: usize, seed: u64) -> Vec<Table> {
    (0..8u64)
        .map(|j| {
            uniform_table(
                "t",
                rows / 8,
                cap,
                seed.wrapping_add(j.wrapping_mul(SEED_STRIDE)),
            )
        })
        .collect()
}

/// The pieces grouped into `n` parts, each the `Table` merge of
/// consecutive pieces, so every `n` splits the same union.
fn parts_of(pieces: &[Table], n: usize) -> Vec<Table> {
    (0..n)
        .map(|j| {
            let group = &pieces[j * pieces.len() / n..(j + 1) * pieces.len() / n];
            let mut part = group[0].clone();
            for p in &group[1..] {
                Partial::merge(&mut part, p).unwrap();
            }
            part
        })
        .collect()
}

/// Draws one sample per part and folds them in part order.
fn merged_sample(parts: &[Table], draw: impl Fn(&Table, u64) -> Sample) -> Sample {
    let mut acc = draw(&parts[0], 0);
    for (j, part) in parts.iter().enumerate().skip(1) {
        acc.merge(&draw(part, (j as u64).wrapping_mul(SEED_STRIDE)))
            .unwrap();
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Stratified samples of disjoint parts merge into one sample of the
    /// union: its 99 % CI covers the truth, and its width stays within 2×
    /// of one stratified sample of the union at the same total budget.
    #[test]
    fn merged_stratified_samples_cover_the_union(seed in any::<u64>()) {
        let pieces: Vec<Table> = (0..8u64)
            .map(|j| skewed_table("t", 3_000, 8, 0.8, 512, seed.wrapping_add(j.wrapping_mul(SEED_STRIDE))))
            .collect();
        let union = parts_of(&pieces, 1).remove(0);
        let truth = union.column_f64("v").unwrap().iter().sum::<f64>();
        let budget = 2_400usize;
        let draw = |t: &Table, budget: usize, seed: u64| {
            stratified_sample(t, "g", &Allocation::Congressional { budget }, seed).unwrap()
        };
        let base = draw(&union, budget, seed ^ 0x5A5A).estimate_sum("v").unwrap();
        for n in PART_COUNTS {
            let merged = merged_sample(&parts_of(&pieces, n), |t, offset| {
                draw(t, budget / n, (seed ^ 0x5A5A).wrapping_add(offset))
            });
            let est = merged.estimate_sum("v").unwrap();
            let ci = est.ci(0.99);
            prop_assert!(
                ci.lo <= truth && truth <= ci.hi,
                "parts={}: truth {} outside [{}, {}]", n, truth, ci.lo, ci.hi
            );
            let width_ratio = (est.variance / base.variance).sqrt();
            prop_assert!(
                (0.5..2.0).contains(&width_ratio),
                "parts={}: CI width ratio {}", n, width_ratio
            );
        }
    }
}

/// Samples of every other design, drawn from two disjoint parts, refuse
/// to merge: nothing pools them, so nothing claims they pool soundly.
#[test]
fn samples_of_other_designs_refuse_to_merge() {
    let parts = parts_of(&disjoint_pieces(8_000, 3), 2);
    type Draw = fn(&Table, u64) -> Sample;
    let draws: [(&str, Draw); 5] = [
        ("bernoulli rows", |t, seed| bernoulli_rows(t, 0.1, seed)),
        ("bernoulli blocks", |t, seed| bernoulli_blocks(t, 0.5, seed)),
        ("fixed-size rows", |t, seed| reservoir_rows(t, 100, seed)),
        ("universe", |t, seed| {
            universe_sample(t, "id", 0.1, seed).unwrap()
        }),
        ("bi-level", |t, seed| bilevel_sample(t, 0.5, 0.5, seed)),
    ];
    for (name, draw) in draws {
        let mut left = draw(&parts[0], 1);
        let rows = left.num_rows();
        let err = left.merge(&draw(&parts[1], 1)).unwrap_err();
        assert!(
            matches!(err, MergeError::Unsupported { .. }),
            "{name}: {err:?}"
        );
        assert_eq!(left.num_rows(), rows, "{name}");
    }
}

/// Folds column `c` of every row of `t` into one fresh state per
/// `(function, column)` pair.
fn fold_part(t: &Table, funcs: &[(AggFunc, usize)]) -> Vec<AggState> {
    let mut states: Vec<AggState> = funcs.iter().map(|&(f, _)| AggState::new(f)).collect();
    for i in 0..t.row_count() {
        let row = t.row(i);
        for (state, &(_, c)) in states.iter_mut().zip(funcs) {
            state.update(&row[c]);
        }
    }
    states
}

/// Two-step aggregation: one partial per part, merged in part order.
fn two_step(parts: &[Table], funcs: &[(AggFunc, usize)]) -> Vec<Value> {
    let mut acc = fold_part(&parts[0], funcs);
    for part in &parts[1..] {
        for (a, b) in acc.iter_mut().zip(fold_part(part, funcs)) {
            Partial::merge(a, &b).unwrap();
        }
    }
    acc.iter().map(AggState::finish).collect()
}

/// The engine's single-row answer for `aggs` over `table`.
fn engine_answer(table: &Table, aggs: Vec<AggExpr>) -> Vec<Value> {
    let catalog = Catalog::new();
    catalog.register(table.clone()).unwrap();
    let plan = Query::scan(table.name()).aggregate(vec![], aggs).build();
    execute(&plan, &catalog).unwrap().row(0)
}

fn bits(v: &Value) -> String {
    match v {
        Value::Float64(x) => format!("f{}", x.to_bits()),
        other => format!("{other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Order-independent aggregates (counts, extrema, integer-valued sums
    /// and averages) folded per part and merged are the engine's answer
    /// over the union to the bit, at every part count.
    #[test]
    fn per_part_agg_states_merge_to_the_engine_answer(
        rows in 500usize..6_000,
        cap_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let cap = [64usize, 256, 1024][cap_idx];
        let pieces = pieces_with_capacity(rows, cap, seed);
        let union = parts_of(&pieces, 1).remove(0);
        let engine = engine_answer(&union, vec![
            AggExpr::count_star("c"),
            AggExpr::sum(col("id"), "s"),
            AggExpr::avg(col("id"), "a"),
            AggExpr::min(col("v"), "lo"),
            AggExpr::max(col("v"), "hi"),
        ]);
        let funcs = [
            (AggFunc::CountStar, 0),
            (AggFunc::Sum, 0),
            (AggFunc::Avg, 0),
            (AggFunc::Min, 1),
            (AggFunc::Max, 1),
        ];
        for n in PART_COUNTS {
            let merged = two_step(&parts_of(&pieces, n), &funcs);
            prop_assert_eq!(merged.len(), engine.len());
            for (a, b) in merged.iter().zip(&engine) {
                prop_assert_eq!(bits(a), bits(b), "parts={}", n);
            }
        }
    }
}

/// Float sums, averages and variances folded per part agree with the
/// engine at machine precision; exact distinct sets merge exactly.
#[test]
fn per_part_float_aggregates_match_the_engine_at_machine_precision() {
    let pieces = pieces_with_capacity(20_000, 256, 17);
    let union = parts_of(&pieces, 1).remove(0);
    let engine = engine_answer(
        &union,
        vec![
            AggExpr::sum(col("v"), "s"),
            AggExpr::avg(col("sel"), "a"),
            AggExpr::new(AggFunc::VarSamp, col("v"), "var"),
            AggExpr::count_distinct(col("id"), "d"),
        ],
    );
    // Each piece numbers its rows from 0: the union has rows/8 ids.
    assert_eq!(engine[3], Value::Int64(2_500));
    let funcs = [
        (AggFunc::Sum, 1),
        (AggFunc::Avg, 2),
        (AggFunc::VarSamp, 1),
        (AggFunc::CountDistinct, 0),
    ];
    for n in PART_COUNTS {
        let merged = two_step(&parts_of(&pieces, n), &funcs);
        for (k, (a, b)) in merged.iter().zip(&engine).enumerate() {
            match (a, b) {
                (Value::Float64(x), Value::Float64(y)) => assert!(
                    (x - y).abs() <= 1e-12 * x.abs().max(y.abs()),
                    "parts={n} aggregate {k}: {x} vs {y}"
                ),
                _ => assert_eq!(a, b, "parts={n} aggregate {k}"),
            }
        }
    }
}

/// Two-step aggregation and append-only growth compose: over a table
/// grown by a `Table` merge, folding the base and the delta separately,
/// or every block separately, gives the engine's answer to the bit.
#[test]
fn two_step_aggregation_agrees_on_the_grown_table() {
    let catalog = Catalog::new();
    let base = skewed_table("t", 40_000, 50, 1.1, 256, 23);
    let delta = skewed_table("t", 4_000, 50, 1.1, 256, 31);
    catalog.register(base.clone()).unwrap();
    let mut grown = base.clone();
    Partial::merge(&mut grown, &delta).unwrap();
    catalog.replace(grown);
    let grown = catalog.get("t").unwrap();
    assert_eq!(grown.row_count(), 44_000);
    let plan = Query::scan("t")
        .aggregate(
            vec![],
            vec![
                AggExpr::count_star("c"),
                AggExpr::min(col("v"), "lo"),
                AggExpr::max(col("v"), "hi"),
                AggExpr::count_distinct(col("g"), "groups"),
            ],
        )
        .build();
    let engine = execute(&plan, &catalog).unwrap().row(0);
    assert_eq!(engine[0], Value::Int64(44_000));
    let funcs = [
        (AggFunc::CountStar, 0),
        (AggFunc::Min, 1),
        (AggFunc::Max, 1),
        (AggFunc::CountDistinct, 0),
    ];
    let blocks: Vec<Table> = grown
        .blocks()
        .iter()
        .map(|b| Table::from_blocks("t", grown.schema().clone(), vec![b.clone()], 256))
        .collect();
    for parts in [vec![base, delta], blocks] {
        let merged = two_step(&parts, &funcs);
        for (a, b) in merged.iter().zip(&engine) {
            assert_eq!(bits(a), bits(b), "{} parts", parts.len());
        }
    }
}
