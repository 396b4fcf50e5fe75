//! Order statistics and relative-error grading.

use std::collections::BTreeMap;

/// A timing percentile is only reported when at least this many samples
/// lie beyond it (choosing-metrics: "the highest percentile that has at
/// least ten samples beyond it").
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Sorts a sample ascending (NaNs are a harness bug: they panic).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
    values
}

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `p` of the sample at or below it. 0.0 for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n >= 1` samples. The
/// epsilon keeps `0.95 * 320` from rounding up to rank 305.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many samples lie beyond the nearest-rank `p` percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Median of an unsorted sample (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

/// Exact answers of one plan on one table version: group key → aggregate
/// values in query order. The key is the `Debug` text of the key values.
pub type Truth = BTreeMap<String, Vec<f64>>;

/// An exact-guarantee answer may differ from truth by at most this much
/// (relative) before it counts as an oracle mismatch.
pub const EXACT_TOLERANCE: f64 = 1e-9;

/// One answered (group, aggregate) cell as the grader sees it.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// The point estimate.
    pub value: f64,
    /// The confidence interval, when the estimate carries one.
    pub interval: Option<(f64, f64)>,
}

/// One graded (query, group, aggregate) estimate with non-zero truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Graded {
    /// |estimate − truth| / |truth|; 1.0 when the truth group is missing.
    pub rel_err: f64,
    /// Whether the interval covered truth (`None` for point estimates and
    /// missing groups).
    pub covered: Option<bool>,
}

/// |estimate − truth| / |truth|.
pub fn rel_err(estimate: f64, truth: f64) -> f64 {
    (estimate - truth).abs() / truth.abs()
}

/// Grades an answer (group key → cells) against truth. Cells whose truth
/// is zero are skipped (relative error is undefined there); a truth group
/// absent from the answer grades 1.0 per aggregate; groups only the answer
/// has are ignored.
pub fn grade(answer: &BTreeMap<String, Vec<Cell>>, truth: &Truth) -> Vec<Graded> {
    let mut out = Vec::new();
    for (key, truths) in truth {
        let cells = answer.get(key);
        for (j, &t) in truths.iter().enumerate() {
            if t == 0.0 {
                continue;
            }
            out.push(match cells.and_then(|c| c.get(j)) {
                Some(cell) => Graded {
                    rel_err: rel_err(cell.value, t),
                    covered: cell.interval.map(|(lo, hi)| lo <= t && t <= hi),
                },
                None => Graded {
                    rel_err: 1.0,
                    covered: None,
                },
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 10.0);
        assert_eq!(percentile(&v, 0.95), 19.0);
        assert_eq!(percentile(&v, 1.0), 20.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn samples_beyond_rule() {
        // 320 samples leave 16 beyond p95; 200 leave exactly the minimum.
        assert_eq!(samples_beyond(320, 0.95), 16);
        assert_eq!(samples_beyond(200, 0.95), MIN_SAMPLES_BEYOND);
        assert!(samples_beyond(199, 0.95) < MIN_SAMPLES_BEYOND);
        assert_eq!(samples_beyond(0, 0.95), 0);
        assert_eq!(samples_beyond(20, 0.5), 10);
    }

    fn cells(values: &[f64]) -> Vec<Cell> {
        values
            .iter()
            .map(|&value| Cell {
                value,
                interval: Some((value - 1.0, value + 1.0)),
            })
            .collect()
    }

    #[test]
    fn grading_handles_missing_groups_and_zero_truth() {
        let truth: Truth = [
            ("a".to_string(), vec![100.0, 0.0]),
            ("b".to_string(), vec![-50.0, 4.0]),
            ("c".to_string(), vec![10.0, 10.0]),
        ]
        .into_iter()
        .collect();
        let answer: BTreeMap<String, Vec<Cell>> = [
            ("a".to_string(), cells(&[110.0, 7.0])),
            ("b".to_string(), cells(&[-50.5, 8.0])),
            ("spurious".to_string(), cells(&[1.0, 1.0])),
        ]
        .into_iter()
        .collect();
        let graded = grade(&answer, &truth);
        // a: one cell (zero truth skipped); b: two; c missing: two at 1.0.
        assert_eq!(graded.len(), 5);
        assert!((graded[0].rel_err - 0.10).abs() < 1e-12);
        assert_eq!(graded[0].covered, Some(false));
        assert!((graded[1].rel_err - 0.01).abs() < 1e-12);
        assert_eq!(graded[1].covered, Some(true));
        assert!((graded[2].rel_err - 1.0).abs() < 1e-12);
        assert_eq!(
            &graded[3..],
            &[Graded {
                rel_err: 1.0,
                covered: None
            }; 2]
        );
    }
}
