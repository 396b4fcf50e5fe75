//! The maintain-vs-rebuild gate — the E8 payoff: folding a 1%
//! append-only delta into a stored stratified synopsis must be at least
//! 5× cheaper than rebuilding it, or incremental maintenance is not worth
//! routing to.

use std::time::{Duration, Instant};

use aqp_bench::report::{Bound, Gate, Json};
use aqp_bench::timed_median;
use aqp_core::OfflineStore;
use aqp_mergeable::Partial;
use aqp_storage::Catalog;
use aqp_workload::skewed_table;

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
        ]),
    }
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
