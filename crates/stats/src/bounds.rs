//! The group-coverage planner AQP derives from a Chernoff-style bound.
//!
//! *No Silver Bullet* frames a-priori error guarantees as one of the hardest
//! asks in AQP. Before any data is seen, the only guarantees available are
//! distribution-free; the one a routed query uses is how large a Bernoulli
//! rate must be for every group of a given size to appear in the sample.

/// Chernoff-style group-coverage planner: the minimum Bernoulli sampling rate
/// `q` such that a group of at least `group_size` rows appears in the sample
/// with probability at least `1 − delta`.
///
/// For Bernoulli(q) row sampling the miss probability of one group is
/// `(1 − q)^group_size ≤ exp(−q·group_size)`; union-bounding over
/// `num_groups` groups gives `q ≥ ln(num_groups/δ) / group_size`.
///
/// The bound holds for any sampling unit: its one caller, the online
/// planner's final-rate floor, counts `group_size` in blocks, because a
/// Bernoulli block sample misses a group only by missing every block that
/// holds it.
pub fn group_coverage_rate(group_size: u64, num_groups: u64, delta: f64) -> f64 {
    assert!(group_size > 0, "group_size must be positive");
    assert!(num_groups > 0, "num_groups must be positive");
    assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
    ((num_groups as f64 / delta).ln() / group_size as f64).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_coverage_rate_bounds_miss_prob() {
        let q = group_coverage_rate(1000, 50, 0.01);
        // Union bound: 50 * miss <= 0.01, where a group of 1000 rows is
        // missed by Bernoulli(q) with probability (1 − q)^1000.
        assert!(50.0 * (1.0 - q).powf(1000.0) <= 0.0101);
    }

    #[test]
    fn group_coverage_rate_caps_at_one() {
        assert_eq!(group_coverage_rate(1, 1_000_000, 0.001), 1.0);
    }

    #[test]
    fn group_coverage_rate_is_monotone() {
        let q = group_coverage_rate(1000, 50, 0.01);
        // Larger groups are easier to hit; more groups or a smaller δ ask
        // for a higher rate.
        assert!(group_coverage_rate(2000, 50, 0.01) < q);
        assert!(group_coverage_rate(1000, 500, 0.01) > q);
        assert!(group_coverage_rate(1000, 50, 0.001) > q);
    }
}
