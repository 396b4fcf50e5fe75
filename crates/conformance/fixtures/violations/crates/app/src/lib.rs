#![deny(unsafe_code)]
//! Golden fixture: seeds exactly one C001 and one C005 violation. This
//! file is scanned by `tests/fixtures.rs`, never compiled.

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

#[cfg(test)]
mod tests {
    #[test]
    fn literals_in_tests_are_allowed() {
        aqp_obs::metrics::MetricsRegistry::new().counter("test_only_total").inc(1);
    }
}
