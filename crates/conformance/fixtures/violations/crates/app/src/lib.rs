#![deny(unsafe_code)]
//! Golden fixture: seeds exactly one C001, one C005 and one C008
//! violation. This file is scanned by `tests/fixtures.rs`, never compiled.

mod hot;

pub fn emit() {
    let m = aqp_obs::metrics::MetricsRegistry::new();
    // C001: the series name is a string literal, not a names constant.
    m.counter("fixture_typo_total").inc(1);
    m.counter(aqp_obs::names::GOOD_TOTAL).inc(1);
}

pub fn traced() {
    // C005: the span value is discarded as a statement — it closes
    // immediately and records a zero-duration interval.
    aqp_obs::span("fixture:op");
}

// C008: no other file names it (`tests/callers.rs` calls every other
// public fixture function).
pub fn orphan() {}

#[cfg(test)]
mod tests {
    #[test]
    fn literals_in_tests_are_allowed() {
        aqp_obs::metrics::MetricsRegistry::new().counter("test_only_total").inc(1);
    }
}
