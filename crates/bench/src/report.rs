//! The typed bench-gate report behind `BENCH_gates.json`: a [`Report`] is
//! a host block plus a list of [`Gate`]s, each a measurement with the
//! bound it must meet, and [`Report::to_json`] is the one place in this
//! crate that turns numbers into JSON text.

use std::fmt::{self, Write};
use std::process::Command;

/// A JSON value. Object keys keep insertion order; a non-finite number
/// serializes as `null` (JSON has no NaN or infinity).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// Any number; integral values print without a fraction.
    Num(f64),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Self {
        Json::Obj(fields.into_iter().collect())
    }

    /// `x` rounded to `places` decimals, so reports carry the precision a
    /// measurement has rather than seventeen digits of timer noise.
    pub fn rounded(x: f64, places: i32) -> Self {
        let scale = 10f64.powi(places);
        Json::Num((x * scale).round() / scale)
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    /// Pretty-prints at `indent` spaces; containers holding only scalars
    /// stay on one line.
    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => write!(out, "{x}").expect("writing to a String"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                let inline = items.iter().all(Json::is_scalar);
                write_seq(out, indent, inline, ('[', ']'), items, |out, item, at| {
                    item.write(out, at)
                });
            }
            Json::Obj(fields) => {
                let inline = fields.iter().all(|(_, v)| v.is_scalar());
                write_seq(
                    out,
                    indent,
                    inline,
                    ('{', '}'),
                    fields,
                    |out, (k, v), at| {
                        write_str(out, k);
                        out.push_str(": ");
                        v.write(out, at);
                    },
                );
            }
        }
    }
}

fn write_seq<T>(
    out: &mut String,
    indent: usize,
    inline: bool,
    (open, close): (char, char),
    items: &[T],
    mut write_item: impl FnMut(&mut String, &T, usize),
) {
    out.push(open);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(if inline { ", " } else { "," });
        }
        if !inline {
            write!(out, "\n{:1$}", "", indent + 2).expect("writing to a String");
        }
        write_item(out, item, indent + 2);
    }
    if !inline && !items.is_empty() {
        write!(out, "\n{:1$}", "", indent).expect("writing to a String");
    }
    out.push(close);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => {
                write!(out, "\\u{:04x}", u32::from(c)).expect("writing to a String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Num(x)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Self {
        Json::Num(x as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

/// The bound a gate's measurement must meet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// `measured >= bound`.
    AtLeast(f64),
    /// `measured <= bound`.
    AtMost(f64),
    /// `measured < bound`.
    Below(f64),
}

impl Bound {
    fn parts(self) -> (&'static str, f64) {
        match self {
            Bound::AtLeast(b) => (">=", b),
            Bound::AtMost(b) => ("<=", b),
            Bound::Below(b) => ("<", b),
        }
    }
}

/// One enforced measurement.
#[derive(Debug, Clone)]
pub struct Gate {
    /// The gate's name: what docs cite and failures print.
    pub name: &'static str,
    /// What the gate claims, in words.
    pub claim: &'static str,
    /// The gated number.
    pub measured: f64,
    /// The bound `measured` must meet.
    pub bound: Bound,
    /// Supporting measurements (a [`Json::Obj`]); informational.
    pub detail: Json,
}

impl Gate {
    /// Whether `measured` meets `bound`. NaN and ±inf never pass: a
    /// measurement that could not be taken is a failed gate.
    pub fn pass(&self) -> bool {
        self.measured.is_finite()
            && match self.bound {
                Bound::AtLeast(b) => self.measured >= b,
                Bound::AtMost(b) => self.measured <= b,
                Bound::Below(b) => self.measured < b,
            }
    }

    fn to_json(&self) -> Json {
        let (op, bound) = self.bound.parts();
        Json::obj([
            ("name", self.name.into()),
            ("claim", self.claim.into()),
            ("measured", Json::rounded(self.measured, 4)),
            ("op", op.into()),
            ("bound", bound.into()),
            ("pass", Json::Bool(self.pass())),
            ("detail", self.detail.clone()),
        ])
    }
}

/// One line per gate: name, measured, bound, verdict.
impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (op, bound) = self.bound.parts();
        let verdict = if self.pass() { "ok" } else { "FAILED" };
        let (name, measured) = (self.name, self.measured);
        write!(f, "{name:<28} {measured:>10.3}  {op} {bound:<6} {verdict}")
    }
}

/// Where a report was measured — the facts the repo benchmark prints in
/// its stderr header, plus the commit.
#[derive(Debug, Clone)]
pub struct Host {
    /// The machine's parallelism ([`aqp_engine::pool::default_threads`]).
    pub nproc: usize,
    /// `rustc --version`.
    pub rustc: String,
    /// `git describe --always --dirty`.
    pub commit: String,
}

impl Host {
    /// Reads the host facts; a tool that cannot be run reads `unknown`.
    pub fn detect() -> Self {
        let run = |program: &str, args: &[&str]| {
            Command::new(program)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map_or("unknown".to_string(), |s| s.trim().to_string())
        };
        Self {
            nproc: aqp_engine::pool::default_threads(),
            rustc: run("rustc", &["--version"]),
            commit: run("git", &["describe", "--always", "--dirty"]),
        }
    }
}

/// Every bench gate of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Where it ran.
    pub host: Host,
    /// The gates, in run order.
    pub gates: Vec<Gate>,
}

impl Report {
    /// Names of the gates whose measurement misses its bound.
    pub fn failing(&self) -> Vec<&'static str> {
        let failing = self.gates.iter().filter(|g| !g.pass());
        failing.map(|g| g.name).collect()
    }

    /// Whether every gate passes.
    pub fn pass(&self) -> bool {
        self.failing().is_empty()
    }

    /// The report as pretty-printed JSON text, newline-terminated.
    pub fn to_json(&self) -> String {
        let host = Json::obj([
            ("nproc", self.host.nproc.into()),
            ("rustc", self.host.rustc.as_str().into()),
            ("commit", self.host.commit.as_str().into()),
        ]);
        let gates = self.gates.iter().map(Gate::to_json).collect();
        let root = Json::obj([
            ("host", host),
            ("pass", Json::Bool(self.pass())),
            ("gates", Json::Arr(gates)),
        ]);
        let mut out = String::new();
        root.write(&mut out, 0);
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(name: &'static str, measured: f64, bound: Bound) -> Gate {
        Gate {
            name,
            claim: "test gate",
            measured,
            bound,
            detail: Json::obj([]),
        }
    }

    fn report(gates: Vec<Gate>) -> Report {
        Report {
            host: Host {
                nproc: 2,
                rustc: "rustc 1.0 \"quoted\\path\"\u{1}".to_string(),
                commit: "abc1234".to_string(),
            },
            gates,
        }
    }

    #[test]
    fn nested_report_is_valid_json() {
        let mut g = gate("speedup", 3.21049, Bound::AtLeast(2.0));
        g.detail = Json::obj([
            ("rows", 500_000usize.into()),
            ("empty", Json::Arr(vec![])),
            (
                "plans",
                Json::Arr(vec![
                    Json::obj([("plan", "filter_sum".into()), ("ms", 8.5.into())]),
                    Json::obj([("nested", Json::obj([("deep", Json::Bool(false))]))]),
                ]),
            ),
        ]);
        let text = report(vec![g, gate("scan_ms", 16.0, Bound::AtMost(2000.0))]).to_json();
        json::validate(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert!(text.contains("\"measured\": 3.2105"), "{text}");
        assert!(
            text.contains("\"op\": \">=\",\n      \"bound\": 2,"),
            "{text}"
        );
        assert!(text.contains("\"rows\": 500000"), "{text}");
        assert!(text.contains("\"pass\": true"), "{text}");
    }

    #[test]
    fn strings_are_escaped() {
        let text = report(vec![]).to_json();
        json::validate(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert!(
            text.contains(r#""rustc 1.0 \"quoted\\path\"\u0001""#),
            "{text}"
        );
        // The validator is what would catch an unescaped writer.
        assert!(json::validate("{\"k\": \"a\"b\"}").is_err());
        assert!(json::validate("{\"k\": \"a\u{1}b\"}").is_err());
        assert!(json::validate("{\"k\": \"a\\qb\"}").is_err());
    }

    #[test]
    fn a_failing_gate_fails_the_report_by_name() {
        let ok = gate("fast_enough", 10.0, Bound::AtLeast(5.0));
        assert!(report(vec![ok.clone()]).pass());
        let r = report(vec![ok, gate("too_slow", 4.9, Bound::AtLeast(5.0))]);
        assert!(!r.pass());
        assert_eq!(r.failing(), ["too_slow"]);
        assert!(r.to_json().contains("\"pass\": false"));
        // Each bound is inclusive or strict as named.
        assert!(gate("g", 5.0, Bound::AtMost(5.0)).pass());
        assert!(!gate("g", 3.0, Bound::Below(3.0)).pass());
    }

    #[test]
    fn non_finite_measurements_serialize_as_null_and_fail() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut g = gate("unmeasured", x, Bound::AtMost(5.0));
            g.detail = Json::obj([("also", x.into())]);
            let r = report(vec![g]);
            assert_eq!(r.failing(), ["unmeasured"], "{x} must fail its gate");
            let text = r.to_json();
            json::validate(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert!(text.contains("\"measured\": null"), "{text}");
            assert!(text.contains("\"also\": null"), "{text}");
        }
    }

    /// A recursive-descent JSON validator: the grammar of json.org minus
    /// `\u` surrogate pairing, rejecting trailing garbage. Validation
    /// only — nothing is materialized. (This workspace deliberately
    /// carries no JSON dependency.)
    mod json {
        pub fn validate(text: &str) -> Result<(), String> {
            let b = text.as_bytes();
            let mut i = 0usize;
            value(b, &mut i)?;
            skip_ws(b, &mut i);
            if i != b.len() {
                return Err(format!("trailing garbage at byte {i}"));
            }
            Ok(())
        }

        fn skip_ws(b: &[u8], i: &mut usize) {
            while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
                *i += 1;
            }
        }

        fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
            skip_ws(b, i);
            match b.get(*i) {
                Some(b'{') => container(b, i, b'}', true),
                Some(b'[') => container(b, i, b']', false),
                Some(b'"') => string(b, i),
                Some(b't') => literal(b, i, "true"),
                Some(b'f') => literal(b, i, "false"),
                Some(b'n') => literal(b, i, "null"),
                Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
                other => Err(format!("unexpected {other:?} at byte {i}")),
            }
        }

        fn container(b: &[u8], i: &mut usize, close: u8, keyed: bool) -> Result<(), String> {
            *i += 1; // opening bracket
            skip_ws(b, i);
            if b.get(*i) == Some(&close) {
                *i += 1;
                return Ok(());
            }
            loop {
                if keyed {
                    skip_ws(b, i);
                    string(b, i)?;
                    skip_ws(b, i);
                    if b.get(*i) != Some(&b':') {
                        return Err(format!("expected ':' at byte {i}"));
                    }
                    *i += 1;
                }
                value(b, i)?;
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(c) if *c == close => {
                        *i += 1;
                        return Ok(());
                    }
                    other => {
                        return Err(format!("expected ',' or closer, got {other:?} at byte {i}"))
                    }
                }
            }
        }

        fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
            if b.get(*i) != Some(&b'"') {
                return Err(format!("expected string at byte {i}"));
            }
            *i += 1;
            while let Some(&c) = b.get(*i) {
                match c {
                    b'"' => {
                        *i += 1;
                        return Ok(());
                    }
                    b'\\' if b.get(*i + 1).is_some_and(|e| b"\"\\/bfnrtu".contains(e)) => *i += 2,
                    b'\\' => return Err(format!("bad escape at byte {i}")),
                    c if c < 0x20 => return Err(format!("raw control character at byte {i}")),
                    _ => *i += 1,
                }
            }
            Err("unterminated string".to_string())
        }

        fn literal(b: &[u8], i: &mut usize, word: &str) -> Result<(), String> {
            if b[*i..].starts_with(word.as_bytes()) {
                *i += word.len();
                Ok(())
            } else {
                Err(format!("bad literal at byte {i}"))
            }
        }

        fn number(b: &[u8], i: &mut usize) -> Result<(), String> {
            let start = *i;
            while *i < b.len() && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                *i += 1;
            }
            std::str::from_utf8(&b[start..*i])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(|_| ())
                .ok_or_else(|| format!("bad number at byte {start}"))
        }
    }
}
