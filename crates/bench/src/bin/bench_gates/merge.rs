//! The maintain-vs-rebuild gate — the E8 payoff: folding a 1%
//! append-only delta into a stored stratified synopsis must be at least
//! 5× cheaper than rebuilding it, or incremental maintenance is not worth
//! routing to. The `Partial` contract's own costs ride along as detail:
//! decode-and-fold ns per serialized partial and the wire bytes a shard
//! ships to the merge coordinator, one representative per summary kind.

use std::time::{Duration, Instant};

use aqp_bench::report::{Bound, Gate, Json};
use aqp_bench::timed_median;
use aqp_core::OfflineStore;
use aqp_engine::agg::{AggFunc, AggState};
use aqp_mergeable::Partial;
use aqp_sampling::reservoir_rows;
use aqp_sketch::{CountMinSketch, GkQuantiles, HyperLogLog};
use aqp_stats::Moments;
use aqp_storage::Catalog;
use aqp_workload::{skewed_table, uniform_table};

const PARTIALS: usize = 64;
const ITEMS_PER_PARTIAL: usize = 4_096;
const BASE_ROWS: usize = 200_000;
const APPEND_FRACTION: f64 = 0.01;
const MIN_SPEEDUP: f64 = 5.0;

pub fn gate() -> Gate {
    let (maintain, rebuild) = maintain_vs_rebuild();
    let ms = |d: Duration| Json::rounded(d.as_secs_f64() * 1e3, 3);
    Gate {
        name: "maintain_vs_rebuild_speedup",
        claim: "maintaining a stratified synopsis after a 1% append beats rebuilding it",
        measured: rebuild.as_secs_f64() / maintain.as_secs_f64(),
        bound: Bound::AtLeast(MIN_SPEEDUP),
        detail: Json::obj([
            ("base_rows", BASE_ROWS.into()),
            ("append_fraction", APPEND_FRACTION.into()),
            ("maintain_ms", ms(maintain)),
            ("rebuild_ms", ms(rebuild)),
            ("partials", Json::Arr(partial_families())),
        ]),
    }
}

/// One partial family per summary kind, each fed `ITEMS_PER_PARTIAL`
/// values so the fold cost is about realistic state, not empty shells.
fn partial_families() -> Vec<Json> {
    let hash = |j: usize, i: usize| {
        ((j * ITEMS_PER_PARTIAL + i) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    };
    let items = |j: usize| (0..ITEMS_PER_PARTIAL).map(move |i| hash(j, i));
    // Per-shard SRS partials: the shard-then-merge execution wire.
    let shards = uniform_table("s", PARTIALS * 1_024, 256, 3).shard(PARTIALS);
    vec![
        fold_cost("hll", |j| {
            let mut s = HyperLogLog::new(12);
            items(j).for_each(|h| s.insert_hashed(h));
            s
        }),
        fold_cost("count_min", |j| {
            let mut s = CountMinSketch::new(1_024, 4, 7);
            items(j).for_each(|h| s.insert_hashed(h % 10_000, 1));
            s
        }),
        fold_cost("gk", |j| {
            let mut s = GkQuantiles::new(0.01);
            items(j).for_each(|h| s.insert((h % 100_000) as f64));
            s
        }),
        fold_cost("moments", |j| {
            let mut m = Moments::new();
            items(j).for_each(|h| m.push((h % 1_000) as f64));
            m
        }),
        fold_cost("agg_sum", |j| {
            let mut s = AggState::new(AggFunc::Sum);
            items(j).for_each(|h| s.update_f64((h % 1_000) as f64));
            s
        }),
        fold_cost("srs_sample", |j| {
            reservoir_rows(&shards[j], 128, 11 + j as u64)
        }),
    ]
}

/// Serializes `PARTIALS` partials of one family, then times what a merge
/// coordinator does with them: decode each and fold it into the first.
fn fold_cost<T: Partial>(name: &str, make: impl Fn(usize) -> T) -> Json {
    let blobs: Vec<_> = (0..PARTIALS).map(|j| make(j).to_bytes()).collect();
    let (_, d) = timed_median(9, || {
        let mut acc = T::from_bytes(&blobs[0]).expect("own encoding");
        for b in &blobs[1..] {
            let p = T::from_bytes(b).expect("own encoding");
            acc.merge(&p).expect("compatible partials");
        }
        acc
    });
    Json::obj([
        ("type", name.into()),
        (
            "merge_ns",
            Json::rounded(d.as_nanos() as f64 / PARTIALS as f64, 1),
        ),
        ("bytes", blobs[0].len().into()),
    ])
}

/// Times incremental maintenance of a stratified synopsis after a 1%
/// append against rebuilding it over the grown table. Each maintenance
/// reading starts from a freshly staled store (setup untimed).
fn maintain_vs_rebuild() -> (Duration, Duration) {
    const REPS: usize = 5;
    let base = skewed_table("t", BASE_ROWS, 50, 1.1, 512, 17);
    let delta = skewed_table(
        "t",
        (BASE_ROWS as f64 * APPEND_FRACTION) as usize,
        50,
        1.1,
        512,
        99,
    );
    let mut grown = base.clone();
    Partial::merge(&mut grown, &delta).expect("same schema");

    let mut maintain_times = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let catalog = Catalog::new();
        catalog.register(base.clone()).expect("fresh catalog");
        let store = OfflineStore::with_threads(1);
        store
            .build_stratified(&catalog, "t", "g", 10_000, 5)
            .expect("offline build");
        catalog.replace(grown.clone());
        let start = Instant::now();
        let rows = store
            .maintain_stratified(&catalog, "t", 7 + rep as u64)
            .expect("maintenance");
        maintain_times.push(start.elapsed());
        assert_eq!(rows as usize, delta.row_count(), "delta fully ingested");
    }
    maintain_times.sort();

    let catalog = Catalog::new();
    catalog.register(grown).expect("fresh catalog");
    let store = OfflineStore::with_threads(1);
    let (_, rebuild) = timed_median(REPS, || {
        store
            .build_stratified(&catalog, "t", "g", 10_000, 5)
            .expect("rebuild")
    });

    (maintain_times[REPS / 2], rebuild)
}
