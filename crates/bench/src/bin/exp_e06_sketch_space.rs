//! E6 — *Sketches trade space for accuracy along analytic curves, and
//! answer only their own aggregate* (NSB §2.1).
//!
//! Part A: Count-Min and Count-Sketch point-frequency error vs width on a
//! Zipf stream, against the analytic εN = (e/w)·N bound.
//! Part B: Greenwald–Khanna quantile rank error vs ε (and the summary's
//! size), against quantiles read from a same-size uniform sample.

use aqp_bench::TablePrinter;
use aqp_sketch::{CountMinSketch, CountSketch, GkQuantiles};
use aqp_workload::Zipf;

fn main() {
    const ROWS: usize = 1_000_000;
    println!("E6a: frequency-sketch error vs width (Zipf(1.1) stream, {ROWS} rows)\n");
    let mut zipf = Zipf::new(50_000, 1.1, 3);
    let stream: Vec<u64> = (0..ROWS).map(|_| zipf.sample() as u64).collect();
    let mut truth = std::collections::HashMap::new();
    for &item in &stream {
        *truth.entry(item).or_insert(0u64) += 1;
    }

    let p = TablePrinter::new(
        &[
            "width",
            "bytes",
            "CM mean err",
            "CM analytic εN",
            "CS mean |err|",
        ],
        &[7, 10, 12, 15, 14],
    );
    for &width in &[64usize, 256, 1024, 4096, 16384] {
        let mut cm = CountMinSketch::new(width, 4, 1);
        let mut cs = CountSketch::new(width, 5, 1);
        for &item in &stream {
            cm.insert(&item.to_le_bytes(), 1);
            cs.insert(&item.to_le_bytes(), 1);
        }
        // Mean error over the 1000 most frequent keys, ties broken by key
        // so the probe set does not depend on `HashMap` order.
        let mut top: Vec<(&u64, &u64)> = truth.iter().collect();
        top.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        let (mut cm_err, mut cs_err) = (0.0f64, 0.0f64);
        let probe = top.iter().take(1000).collect::<Vec<_>>();
        for &&(k, &t) in &probe {
            cm_err += (cm.estimate(&k.to_le_bytes()) - t) as f64;
            cs_err += (cs.estimate(&k.to_le_bytes()) - t as i64).abs() as f64;
        }
        p.row(&[
            width.to_string(),
            cm.size_bytes().to_string(),
            format!("{:.1}", cm_err / probe.len() as f64),
            format!("{:.1}", cm.error_bound()),
            format!("{:.1}", cs_err / probe.len() as f64),
        ]);
    }

    println!("\nE6b: GK quantile rank error vs ε (same stream, value = key)\n");
    let mut sorted: Vec<f64> = stream.iter().map(|&x| x as f64).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    // With heavy duplicates a value occupies a rank *interval*; the fair
    // rank error of answering `v` for quantile φ is the distance from φ to
    // that interval (zero if φ falls inside it).
    let rank_err = |v: f64, phi: f64| -> f64 {
        let lo = sorted.partition_point(|&x| x < v) as f64 / sorted.len() as f64;
        let hi = sorted.partition_point(|&x| x <= v) as f64 / sorted.len() as f64;
        if phi < lo {
            lo - phi
        } else if phi > hi {
            phi - hi
        } else {
            0.0
        }
    };

    let p = TablePrinter::new(
        &["eps", "tuples kept", "max rank err", "sample same size err"],
        &[7, 12, 13, 22],
    );
    for &eps in &[0.05, 0.01, 0.005, 0.001] {
        let mut gk = GkQuantiles::new(eps);
        for &x in &stream {
            gk.insert(x as f64);
        }
        let mut max_err = 0.0f64;
        for &phi in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let q = gk.query(phi).unwrap();
            max_err = max_err.max(rank_err(q, phi));
        }
        // Uniform sample of the same memory footprint (#tuples values).
        let k = gk.num_tuples();
        let step = (stream.len() / k.max(1)).max(1);
        let mut sampled: Vec<f64> = stream.iter().step_by(step).map(|&x| x as f64).collect();
        sampled.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut sample_err = 0.0f64;
        for &phi in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let idx = ((phi * (sampled.len() - 1) as f64) as usize).min(sampled.len() - 1);
            sample_err = sample_err.max(rank_err(sampled[idx], phi));
        }
        p.row(&[
            format!("{eps}"),
            k.to_string(),
            format!("{:.4}", max_err),
            format!("{:.4}", sample_err),
        ]);
    }
    println!(
        "\nClaim check: Count-Min error tracks its analytic e/w·N curve; GK's \
         max rank error stays\nbelow ε at sublinear space, competitive with a \
         same-size sample but with a guarantee.\nNone of these structures can \
         evaluate a WHERE clause — that is the generality price."
    );
}
