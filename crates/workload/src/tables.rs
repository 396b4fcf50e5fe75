//! Single-table generators with controlled skew, group cardinality, and
//! selectivity handles.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use aqp_storage::{DataType, Field, Schema, Table, TableBuilder, Value};

use crate::zipf::Zipf;

/// A uniform numeric table: `id` (INT64, 0..rows) and `v` (FLOAT64 in
/// `[0, 1000)`), plus `sel` (FLOAT64 uniform in `[0,1)`) for building
/// predicates with exact target selectivity (`sel < s` selects fraction s).
pub fn uniform_table(name: &str, rows: usize, block_capacity: usize, seed: u64) -> Table {
    let mut rng = SmallRng::seed_from_u64(seed);
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("v", DataType::Float64),
        Field::new("sel", DataType::Float64),
    ]);
    let mut b = TableBuilder::with_block_capacity(name, schema, block_capacity);
    for i in 0..rows {
        b.push_row(&[
            Value::Int64(i as i64),
            Value::Float64(rng.gen::<f64>() * 1000.0),
            Value::Float64(rng.gen::<f64>()),
        ])
        .expect("generated row matches schema");
    }
    b.finish()
}

/// A skewed table: `g` (INT64 group drawn Zipf(s) from `groups` values),
/// `v` (FLOAT64, exponential-ish via −ln(u)·scale where scale depends on
/// the group, so groups differ in level), and `sel` for selectivity
/// predicates.
pub fn skewed_table(
    name: &str,
    rows: usize,
    groups: usize,
    zipf_s: f64,
    block_capacity: usize,
    seed: u64,
) -> Table {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xA5A5);
    let mut zipf = Zipf::new(groups, zipf_s, seed);
    let schema = Schema::new(vec![
        Field::new("g", DataType::Int64),
        Field::new("v", DataType::Float64),
        Field::new("sel", DataType::Float64),
    ]);
    let mut b = TableBuilder::with_block_capacity(name, schema, block_capacity);
    for _ in 0..rows {
        let g = zipf.sample();
        let u: f64 = rng.gen::<f64>().max(1e-12);
        let v = -u.ln() * (10.0 + g as f64); // group-dependent scale
        b.push_row(&[
            Value::Int64(g as i64),
            Value::Float64(v),
            Value::Float64(rng.gen::<f64>()),
        ])
        .expect("generated row matches schema");
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn uniform_table_shape() {
        let t = uniform_table("u", 1000, 128, 1);
        assert_eq!(t.row_count(), 1000);
        assert_eq!(t.schema().names(), vec!["id", "v", "sel"]);
        let sel = t.column_f64("sel").unwrap();
        let frac = sel.iter().filter(|&&x| x < 0.3).count() as f64 / 1000.0;
        assert!(
            (frac - 0.3).abs() < 0.07,
            "selectivity handle broken: {frac}"
        );
    }

    #[test]
    fn uniform_table_deterministic() {
        let a = uniform_table("u", 100, 32, 5);
        let b = uniform_table("u", 100, 32, 5);
        assert_eq!(a.column_f64("v").unwrap(), b.column_f64("v").unwrap());
    }

    #[test]
    fn skewed_table_group_mass() {
        let t = skewed_table("s", 20_000, 100, 1.2, 256, 2);
        let mut counts: HashMap<i64, usize> = HashMap::new();
        for g in t.column_f64("g").unwrap() {
            *counts.entry(g as i64).or_default() += 1;
        }
        // Group 0 must dominate the rarest groups by a large factor.
        let g0 = counts.get(&0).copied().unwrap_or(0);
        let tail: usize = (80..100)
            .map(|g| counts.get(&g).copied().unwrap_or(0))
            .sum();
        assert!(g0 > tail, "g0 = {g0}, tail(80..100) total = {tail}");
    }

    #[test]
    fn skewed_table_deterministic() {
        let a = skewed_table("s", 500, 20, 1.1, 64, 9);
        let b = skewed_table("s", 500, 20, 1.1, 64, 9);
        for c in ["g", "v", "sel"] {
            assert_eq!(a.column_f64(c).unwrap(), b.column_f64(c).unwrap());
        }
        let other = skewed_table("s", 500, 20, 1.1, 64, 10);
        assert_ne!(a.column_f64("v").unwrap(), other.column_f64("v").unwrap());
    }
}
