//! T1 — the NSB-style capability matrix, generated from the live
//! implementation (`aqp_bench::taxonomy`), plus the mechanical check that
//! no implemented technique wins on every axis.

fn main() {
    println!("T1: technique-vs-property matrix (generated from code)\n");
    print!("{}", aqp_bench::taxonomy::render_markdown());
    let bullets = aqp_bench::taxonomy::silver_bullets();
    println!();
    if bullets.is_empty() {
        println!(
            "silver bullets found: none — every technique concedes at least \
             one of NSB's axes. The title holds."
        );
    } else {
        println!("⚠ unexpectedly found silver bullets: {bullets:?}");
    }
}
