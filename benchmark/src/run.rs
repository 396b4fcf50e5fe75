//! Drives one workload through the front door: set-up, the untraced pass
//! (end-to-end metrics), and the traced replay (per-layer metrics).
//!
//! Entry points into the program, and nothing else: `AqpService::{over,
//! submit, route, invalidate_cache, stats, session}`, `AqpSession::{
//! with_config, answer, lint_plan, probe, maintain_synopses, offline,
//! config}`, `OfflineStore::{build_stratified, staleness,
//! stratified_meta}`, `Technique::answer` on the four family types,
//! `AggQuery::from_plan`, `aqp_engine::execute_with`, `Catalog::{get,
//! replace}` and the `aqp_workload` generators.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use aqp_analyze::TechniqueKind;
use aqp_core::{
    AggQuery, ApproximateAnswer, AqpService, AqpSession, Attempt, OfflineTechnique, OlaTechnique,
    OnlineAqp, OnlineConfig, RewriteTechnique, ServiceConfig, ServiceReply, SessionConfig,
    Technique,
};
use aqp_engine::{execute_with, ExecOptions};

use crate::rng::{derive, Stream};
use crate::spans::{fold, Recorder, Span};
use crate::stats::{
    grade, median, percentile, samples_beyond, sorted, Cell, Graded, EXACT_TOLERANCE,
    MIN_SAMPLES_BEYOND,
};
use crate::workloads::{key_text, Data, Scale, Spec};

/// Every `EXACT_EVERY`-th query of the untraced pass is paired with an
/// exact run of the same plan. There is no cap on the pairs: the share of
/// queries that follow a cache-evicting exact run is the same at any speed.
const EXACT_EVERY: usize = 8;
/// Repetitions behind `service.route_*_us` and `engine.*_t1`.
const PROBE_REPS: usize = 3;

/// The facts of the host that every number depends on.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// `available_parallelism`.
    pub nproc: usize,
    /// `min(nproc, 4)`: the thread budget and the client count of the
    /// concurrent workload.
    pub t: usize,
}

impl Host {
    /// Reads the host.
    pub fn detect() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        Host {
            nproc,
            t: nproc.min(4),
        }
    }
}

/// A metric value by name, in print order.
pub type Metrics = Vec<(String, f64)>;

/// What one invocation measured.
pub struct Report {
    /// Queries attempted in the untraced pass.
    pub attempted: usize,
    /// Errors, rejections, panics, and exact answers that missed truth.
    pub failed: usize,
    /// Reasons the run is invalid regardless of `failed` (for example a
    /// non-exact winner in `exact_fallback`); empty when valid.
    pub invalid: Vec<String>,
    /// End-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub metrics: Metrics,
    /// `--trace 1`: the recorded spans.
    pub spans: Vec<Span>,
}

/// When the untraced pass stops: after `min_queries`, once `seconds` passed.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Never stop before this many queries.
    pub min_queries: usize,
    /// Keep going until this much time has passed (0 = fixed count).
    pub seconds: f64,
    /// Whether validity rules that need full-size runs apply.
    pub strict: bool,
}

fn session_config(host: Host) -> SessionConfig {
    let mut config = SessionConfig::default();
    config.online.threads = host.t;
    config
}

/// Opens a service over `data` at table version 0, building its synopsis.
/// Returns the service and the synopsis build wall.
fn open_service(data: &Data, host: Host, seed: u64) -> (AqpService<'_>, f64) {
    if let Some(base) = data.versions.first() {
        data.catalog.replace(base.clone());
    }
    let session = AqpSession::with_config(&data.catalog, session_config(host));
    let build_s = data.synopsis.map_or(0.0, |s| {
        let start = Instant::now();
        let seed = derive(seed, Stream::Data, 1 << 32);
        session
            .offline()
            .build_stratified(&data.catalog, s.table, s.column, s.budget, seed)
            .expect("synopsis builds on a generated table");
        start.elapsed().as_secs_f64()
    });
    let config = ServiceConfig {
        thread_budget: host.t,
        max_inflight: host.t,
        ..ServiceConfig::default()
    };
    (AqpService::over(session, config), build_s)
}

fn warm_up(service: &AqpService<'_>, data: &Data, scale: &Scale, seed: u64) {
    for i in 0..scale.warmup {
        let (case, info) = data.query(i);
        let seed = derive(seed, Stream::Warmup, i as u64);
        black_box(service.submit(&info.plan, &case.contract, seed).ok());
    }
}

/// How one submitted query ended.
enum Outcome {
    Answered(Box<ApproximateAnswer>),
    Failed(String),
}

/// One query of the untraced pass.
struct Reply {
    index: usize,
    latency: Duration,
    /// Wall of the paired exact run, when this query had one.
    exact: Option<Duration>,
    /// Table versions the answer may legitimately reflect.
    versions: (usize, usize),
    outcome: Outcome,
}

/// Installs table versions beside the running clients.
struct Appender<'d> {
    data: &'d Data,
    every: usize,
    seed: u64,
    completed: AtomicUsize,
    /// Highest version whose install has begun / has finished.
    installing: AtomicUsize,
    installed: AtomicUsize,
    log: Mutex<AppendLog>,
}

#[derive(Default)]
struct AppendLog {
    replace_us: Vec<f64>,
    maintain_ms: Vec<f64>,
    staleness_max: f64,
}

/// The two timed steps of one install, as `(span name, start, end)`.
type InstallSteps = [(&'static str, Instant, Instant); 2];

impl<'d> Appender<'d> {
    fn new(data: &'d Data, scale: &Scale, seed: u64) -> Self {
        Appender {
            data,
            every: scale.append_every,
            seed,
            completed: AtomicUsize::new(0),
            installing: AtomicUsize::new(0),
            installed: AtomicUsize::new(0),
            log: Mutex::new(AppendLog::default()),
        }
    }

    /// Installs the version after the last installed one, if one is left:
    /// `Catalog::replace`, then `maintain_synopses` (which bumps the routing
    /// epoch). Installs are serialised by the log's lock and the version is
    /// chosen under it, so the table never goes backwards.
    fn install_next(&self, service: &AqpService<'_>) -> Option<InstallSteps> {
        let mut log = self.log.lock().expect("no install panics");
        let version = self.installed.load(Ordering::SeqCst) + 1;
        if version >= self.data.versions.len() {
            return None;
        }
        self.installing.store(version, Ordering::SeqCst);
        let table = self.data.versions[version].clone();
        let name = table.name().to_string();
        let catalog = &self.data.catalog;
        let session = service.session();

        let replace_start = Instant::now();
        catalog.replace(table);
        let replace_end = Instant::now();
        let staleness = session.offline().staleness(catalog, &name).unwrap_or(0.0);
        log.staleness_max = log.staleness_max.max(staleness);
        let maintain_start = Instant::now();
        session
            .maintain_synopses(&name, derive(self.seed, Stream::Maintain, version as u64))
            .expect("maintenance of an appended table");
        let maintain_end = Instant::now();

        log.replace_us
            .push((replace_end - replace_start).as_secs_f64() * 1e6);
        log.maintain_ms.push(ms(maintain_end - maintain_start));
        self.installed.store(version, Ordering::SeqCst);
        Some([
            ("storage.replace", replace_start, replace_end),
            ("offline.maintain", maintain_start, maintain_end),
        ])
    }

    /// Counts a completed query; the client that completes an `every`-th
    /// installs the next version.
    fn completed_one(&self, service: &AqpService<'_>) -> Option<InstallSteps> {
        let done = self.completed.fetch_add(1, Ordering::SeqCst) + 1;
        done.is_multiple_of(self.every)
            .then(|| self.install_next(service))
            .flatten()
    }
}

/// The untraced pass: closed loop, `clients` threads, no spans.
struct Pass {
    replies: Vec<Reply>,
    clients: usize,
    /// Wall of the pass without the exact baselines' share of it.
    timed_s: f64,
    log: AppendLog,
    cache: (u64, u64, u64),
}

/// Whether query `index` is followed by an exact run: every
/// `EXACT_EVERY`-th, shifted by one per turn of the cycle so that every
/// case gets its share of pairs whatever the cycle length.
fn is_paired(index: usize, cycle: usize) -> bool {
    (index + index / cycle).is_multiple_of(EXACT_EVERY)
}

fn submit(service: &AqpService<'_>, data: &Data, index: usize, seed: u64) -> (Duration, Outcome) {
    let (case, info) = data.query(index);
    let start = Instant::now();
    let reply = catch_unwind(AssertUnwindSafe(|| {
        service.submit(&info.plan, &case.contract, seed)
    }));
    let latency = start.elapsed();
    let outcome = match reply {
        Ok(Ok(ServiceReply::Answered(answer))) => Outcome::Answered(answer),
        Ok(Ok(ServiceReply::Rejected(r))) => Outcome::Failed(format!("rejected: {r}")),
        Ok(Err(e)) => Outcome::Failed(format!("error: {e}")),
        Err(_) => Outcome::Failed("panicked".to_string()),
    };
    (latency, outcome)
}

fn untraced_pass(
    service: &AqpService<'_>,
    data: &Data,
    spec: &Spec,
    scale: &Scale,
    host: Host,
    seed: u64,
    limits: Limits,
) -> Pass {
    let clients = if spec.concurrent { host.t } else { 1 };
    let exact_threads = (host.t / clients).max(1);
    let appender = Appender::new(data, scale, seed);
    // An appending pass ends when its versions run out, so that a faster
    // program keeps the same ratio of writes to reads instead of gaining a
    // tail of queries with no append beside them.
    let max_queries = match data.versions.len() {
        0 => usize::MAX,
        versions => scale.append_every * versions,
    };
    let next = AtomicUsize::new(0);
    // Wall the clients spent on exact baselines; it counts neither towards
    // `--seconds` nor into `qps`.
    let exact_ns = AtomicU64::new(0);
    let exact_s = || exact_ns.load(Ordering::SeqCst) as f64 / 1e9 / clients as f64;
    let before = service.stats();
    let start = Instant::now();
    let client = || {
        let mut replies = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::SeqCst);
            let timed_s = start.elapsed().as_secs_f64() - exact_s();
            if index >= max_queries || (index >= limits.min_queries && timed_s >= limits.seconds) {
                return replies;
            }
            let lo = appender.installed.load(Ordering::SeqCst);
            let seed = derive(seed, Stream::Timed, index as u64);
            let (latency, outcome) = submit(service, data, index, seed);
            let hi = appender.installing.load(Ordering::SeqCst);
            let exact = is_paired(index, data.cases.len()).then(|| {
                let plan = &data.query(index).1.plan;
                let start = Instant::now();
                black_box(
                    execute_with(
                        plan,
                        &data.catalog,
                        ExecOptions::with_threads(exact_threads),
                    )
                    .expect("the exact baseline runs"),
                );
                let wall = start.elapsed();
                exact_ns.fetch_add(wall.as_nanos() as u64, Ordering::SeqCst);
                wall
            });
            replies.push(Reply {
                index,
                latency,
                exact,
                versions: (lo, hi),
                outcome,
            });
            if !data.versions.is_empty() {
                appender.completed_one(service);
            }
        }
    };
    let mut replies: Vec<Reply> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients).map(|_| s.spawn(client)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let timed_s = start.elapsed().as_secs_f64() - exact_s();
    replies.sort_by_key(|r| r.index);
    let after = service.stats();
    Pass {
        replies,
        clients,
        timed_s,
        log: appender.log.into_inner().expect("no install panics"),
        cache: (
            after.cache_hits - before.cache_hits,
            after.cache_misses - before.cache_misses,
            after.cache_stale - before.cache_stale,
        ),
    }
}

/// One answered query after grading.
struct GradedQuery {
    index: usize,
    winner: TechniqueKind,
    max_rel_err: f64,
    rows_scanned: u64,
    queue_wait_us: f64,
    cells: Vec<Graded>,
}

/// The untraced pass after grading.
struct GradedPass {
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    queries: Vec<GradedQuery>,
}

fn winner_of(answer: &ApproximateAnswer) -> TechniqueKind {
    answer
        .report
        .routing
        .as_ref()
        .map_or(TechniqueKind::Exact, |r| r.winner)
}

fn cells_of(answer: &ApproximateAnswer) -> BTreeMap<String, Vec<Cell>> {
    answer
        .groups
        .iter()
        .map(|g| {
            let cells = g
                .estimates
                .iter()
                .zip(&g.intervals)
                .map(|(e, ci)| Cell {
                    value: e.value,
                    interval: (ci.hi > ci.lo).then_some((ci.lo, ci.hi)),
                })
                .collect();
            (key_text(&g.key), cells)
        })
        .collect()
}

fn worst(cells: &[Graded]) -> f64 {
    cells.iter().map(|c| c.rel_err).fold(0.0, f64::max)
}

/// Grades every reply against truth. An answer that overlapped an append
/// is graded against each version it may reflect and keeps the best.
fn grade_pass(pass: &Pass, data: &Data) -> GradedPass {
    let mut out = GradedPass {
        attempted: pass.replies.len(),
        failed: 0,
        failures: Vec::new(),
        queries: Vec::new(),
    };
    for reply in &pass.replies {
        let (case, _) = data.query(reply.index);
        let answer = match &reply.outcome {
            Outcome::Answered(answer) => answer,
            Outcome::Failed(why) => {
                out.failed += 1;
                out.failures.push(format!("query {}: {why}", reply.index));
                continue;
            }
        };
        let answered = cells_of(answer);
        let (lo, hi) = reply.versions;
        let last = data.truths.len() - 1;
        let cells = (lo.min(last)..=hi.min(last))
            .map(|v| grade(&answered, &data.truths[v][case.plan]))
            .min_by(|a, b| worst(a).total_cmp(&worst(b)))
            .expect("at least one version");
        let winner = winner_of(answer);
        if winner == TechniqueKind::Exact && worst(&cells) > EXACT_TOLERANCE {
            out.failed += 1;
            out.failures.push(format!(
                "query {}: exact answer off truth by {:e}",
                reply.index,
                worst(&cells)
            ));
        }
        out.queries.push(GradedQuery {
            index: reply.index,
            winner,
            max_rel_err: case.contract.max_rel_err,
            rows_scanned: answer.report.rows_scanned,
            queue_wait_us: answer
                .report
                .admission
                .as_ref()
                .map_or(0.0, |a| a.queue_wait.as_secs_f64() * 1e6),
            cells,
        });
    }
    out
}

/// `(rel_err_p95, contract_miss_rate)` over the first `prefix` queries —
/// a fixed set, so at one client both repeat exactly under one seed.
fn accuracy(graded: &GradedPass, prefix: usize) -> (f64, f64) {
    let mut errs = Vec::new();
    let mut missed = 0usize;
    for q in graded.queries.iter().filter(|q| q.index < prefix) {
        for c in &q.cells {
            errs.push(c.rel_err);
            missed += usize::from(c.rel_err > q.max_rel_err);
        }
    }
    let total = errs.len().max(1);
    (
        percentile(&sorted(errs), 0.95),
        missed as f64 / total as f64,
    )
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Validity rules shared by both modes.
fn validity(spec: &Spec, graded: &GradedPass, pass: &Pass, limits: Limits) -> Vec<String> {
    let mut invalid = Vec::new();
    if spec.name == "exact_fallback" {
        let approximate = graded
            .queries
            .iter()
            .filter(|q| q.winner != TechniqueKind::Exact)
            .count();
        if approximate > 0 {
            invalid.push(format!("{approximate} non-exact winners in exact_fallback"));
        }
    }
    if limits.strict && samples_beyond(pass.replies.len(), 0.95) < MIN_SAMPLES_BEYOND {
        invalid.push(format!(
            "{} queries leave fewer than {MIN_SAMPLES_BEYOND} samples beyond p95",
            pass.replies.len()
        ));
    }
    invalid
}

fn push(metrics: &mut Metrics, name: &str, value: f64) {
    // An empty f64 sum is -0.0; adding 0.0 prints it as 0.
    metrics.push((name.to_string(), value + 0.0));
}

/// `--trace 0`: set up (tables, truths, service with its synopsis,
/// warm-up), run the untraced pass, grade it and report the end-to-end
/// metrics.
pub fn end_to_end(spec: &Spec, scale: &Scale, host: Host, seed: u64, limits: Limits) -> Report {
    let start = Instant::now();
    let data = Data::build(spec, scale, seed, host.t);
    let (service, _) = open_service(&data, host, seed);
    warm_up(&service, &data, scale, seed);
    let setup_s = start.elapsed().as_secs_f64();
    let pass = untraced_pass(&service, &data, spec, scale, host, seed, limits);
    let graded = grade_pass(&pass, &data);
    for why in graded.failures.iter().take(5) {
        eprintln!("{}: FAILED {why}", spec.name);
    }

    let latencies = sorted(pass.replies.iter().map(|r| ms(r.latency)).collect());
    let exact: Vec<f64> = pass
        .replies
        .iter()
        .filter_map(|r| r.exact.map(ms))
        .collect();
    let (rel_err_p95, miss_rate) = accuracy(&graded, limits.min_queries);

    let mut metrics = Metrics::new();
    push(&mut metrics, "answer_ms_p50", percentile(&latencies, 0.5));
    push(&mut metrics, "answer_ms_p95", percentile(&latencies, 0.95));
    push(
        &mut metrics,
        "qps",
        pass.replies.len() as f64 / pass.timed_s,
    );
    push(&mut metrics, "exact_ms_p50", median(&exact));
    push(&mut metrics, "accuracy_p05", 1.0 - rel_err_p95.min(1.0));
    push(&mut metrics, "setup_s", setup_s);
    push(&mut metrics, "peak_rss_mb", peak_rss_mb());
    eprintln!(
        "{}: {} queries ({} beyond p95), {} exact pairs, {} clients, rel_err_p95 {rel_err_p95:.5}, \
         contract_miss_rate {miss_rate:.5}, speedup_vs_exact {:.3}",
        spec.name,
        pass.replies.len(),
        samples_beyond(pass.replies.len(), 0.95),
        exact.len(),
        pass.clients,
        speedup(&pass),
    );
    Report {
        attempted: graded.attempted,
        failed: graded.failed,
        invalid: validity(spec, &graded, &pass, limits),
        metrics,
        spans: Vec::new(),
    }
}

/// Median over the pairs of exact wall ÷ answer wall.
fn speedup(pass: &Pass) -> f64 {
    let ratios: Vec<f64> = pass
        .replies
        .iter()
        .filter_map(|r| Some(r.exact?.as_secs_f64() / r.latency.as_secs_f64()))
        .collect();
    median(&ratios)
}

/// The span around a family forced through `Technique::answer` (the engine
/// itself when exact won). The part before the dot is the layer, which is
/// also the family's metric prefix.
fn answer_span(kind: TechniqueKind) -> &'static str {
    match kind {
        TechniqueKind::OfflineSynopsis => "offline.answer",
        TechniqueKind::OnlineSampling => "online.answer",
        TechniqueKind::OnlineAggregation => "ola.answer",
        TechniqueKind::MiddlewareRewrite => "rewrite.answer",
        TechniqueKind::Exact => "engine.execute",
    }
}

/// What the traced replay keeps per query besides its spans.
struct TracedQuery {
    winner: TechniqueKind,
    grouped: bool,
    submit: usize,
    answer: usize,
    lint: usize,
    probe: usize,
    /// The forced winner (or `engine.execute` when exact won).
    forced: usize,
    /// Rows the forced winner scanned (synopsis rows for offline).
    forced_rows: u64,
    /// The engine span (`engine.execute` or `engine.baseline`) and its rows.
    engine: usize,
    engine_rows: u64,
}

/// Replays the first `spec.trace_queries` queries with spans around every
/// call into a layer, one query at a time.
fn traced_replay(
    service: &AqpService<'_>,
    data: &Data,
    spec: &Spec,
    scale: &Scale,
    host: Host,
    seed: u64,
    rec: &mut Recorder,
) -> Vec<TracedQuery> {
    let session = service.session();
    let catalog = &data.catalog;
    let config = *session.config();
    let appender = Appender::new(data, scale, seed);
    let mut out = Vec::new();
    for i in 0..spec.trace_queries {
        let (case, info) = data.query(i);
        let plan = &info.plan;
        let spec_ = case.contract.spec();
        let qseed = derive(seed, Stream::Traced, i as u64);
        let root = rec.open("query", None, i);
        let (submit, reply) = rec.record("service.submit", Some(root), i, || {
            service.submit(plan, &case.contract, qseed)
        });
        let winner = match reply {
            Ok(ServiceReply::Answered(answer)) => winner_of(&answer),
            other => panic!("traced query {i} was not answered: {other:?}"),
        };
        let (answer, _) = rec.record("session.answer", Some(submit), i, || {
            black_box(session.answer(plan, &spec_, qseed).ok())
        });
        let (lint, _) = rec.record("analyze.lint_plan", Some(answer), i, || {
            black_box(session.lint_plan(plan))
        });
        let (probe, _) = rec.record("session.probe", Some(answer), i, || {
            black_box(session.probe(plan, &spec_))
        });
        let exact_opts = ExecOptions::with_threads(host.t);
        let run_engine = |rec: &mut Recorder, name, parent| {
            let (id, result) = rec.record(name, Some(parent), i, || {
                execute_with(plan, catalog, exact_opts).expect("the exact engine runs")
            });
            (id, result.stats().rows_scanned)
        };
        let (forced, forced_rows, engine, engine_rows) = if winner == TechniqueKind::Exact {
            let (id, rows) = run_engine(rec, "engine.execute", answer);
            (id, rows, id, rows)
        } else {
            let query = AggQuery::from_plan(plan).expect("an approximate winner has a star shape");
            let online = OnlineConfig {
                threads: host.t,
                ..config.online
            };
            let technique: Box<dyn Technique + '_> = match winner {
                TechniqueKind::OfflineSynopsis => Box::new(OfflineTechnique::new(
                    session.offline(),
                    catalog,
                    config.max_staleness,
                )),
                TechniqueKind::OnlineSampling => Box::new(OnlineAqp::new(catalog, online)),
                TechniqueKind::OnlineAggregation => Box::new(OlaTechnique::new(catalog)),
                _ => Box::new(RewriteTechnique::new(
                    catalog,
                    config.rewrite_rate,
                    config.rewrite_min_group_support,
                )),
            };
            let (id, attempt) = rec.record(answer_span(winner), Some(answer), i, || {
                technique.answer(&query, &spec_, qseed)
            });
            let rows = match (winner, attempt) {
                (TechniqueKind::OfflineSynopsis, _) => session
                    .offline()
                    .stratified_meta(info.fact_table)
                    .map_or(0, |(_, rows)| rows),
                (_, Ok(Attempt::Answered(a))) => a.report.rows_scanned,
                (_, Ok(Attempt::Declined { rows_scanned, .. })) => rows_scanned,
                (_, Err(e)) => panic!("forced {winner} failed on traced query {i}: {e}"),
            };
            let (engine, engine_rows) = run_engine(rec, "engine.baseline", root);
            (id, rows, engine, engine_rows)
        };
        rec.close(root);
        out.push(TracedQuery {
            winner,
            grouped: info.grouped,
            submit,
            answer,
            lint,
            probe,
            forced,
            forced_rows,
            engine,
            engine_rows,
        });
        if !data.versions.is_empty() {
            for (name, start, end) in appender.completed_one(service).into_iter().flatten() {
                rec.add(name, None, i, start, end);
            }
        }
    }
    out
}

/// Cold and warm routing, and the engine at 1 and `T` threads, per
/// distinct case: `(cold_us, warm_us, t1_ns_per_row, efficiency)`.
fn layer_probes(service: &AqpService<'_>, data: &Data, host: Host) -> (f64, f64, f64, f64) {
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for case in &data.cases {
        let plan = &data.plans[case.plan].plan;
        let spec_ = case.contract.spec();
        for _ in 0..PROBE_REPS {
            service.invalidate_cache();
            let start = Instant::now();
            black_box(service.route(plan, &spec_));
            cold.push(start.elapsed().as_secs_f64() * 1e6);
            let start = Instant::now();
            black_box(service.route(plan, &spec_));
            warm.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    let (mut t1_s, mut tt_s, mut rows) = (0.0, 0.0, 0u64);
    for info in &data.plans {
        let timed = |threads: usize| {
            let mut scanned = 0;
            let runs: Vec<f64> = (0..PROBE_REPS)
                .map(|_| {
                    let start = Instant::now();
                    let opts = ExecOptions::with_threads(threads);
                    let result = execute_with(&info.plan, &data.catalog, opts)
                        .expect("the exact engine runs");
                    scanned = result.stats().rows_scanned;
                    start.elapsed().as_secs_f64()
                })
                .collect();
            (median(&runs), scanned)
        };
        let (one, scanned) = timed(1);
        t1_s += one;
        tt_s += timed(host.t).0;
        rows += scanned;
    }
    (
        median(&cold),
        median(&warm),
        t1_s * 1e9 / rows.max(1) as f64,
        t1_s / (host.t as f64 * tt_s),
    )
}

/// `--trace 1`: one set-up, a fixed-count untraced reference pass, then the
/// traced replay on a fresh service, folded into the per-layer metrics.
pub fn per_layer(spec: &Spec, scale: &Scale, host: Host, seed: u64, strict: bool) -> Report {
    let data = Data::build(spec, scale, seed, host.t);
    let limits = Limits {
        min_queries: spec.ref_queries,
        seconds: 0.0,
        strict: false,
    };
    let (pass, graded, build_s) = {
        let (service, build_s) = open_service(&data, host, seed);
        warm_up(&service, &data, scale, seed);
        let pass = untraced_pass(&service, &data, spec, scale, host, seed, limits);
        let graded = grade_pass(&pass, &data);
        (pass, graded, build_s)
    };

    let (service, _) = open_service(&data, host, seed);
    warm_up(&service, &data, scale, seed);
    let mut rec = Recorder::new();
    let traced = traced_replay(&service, &data, spec, scale, host, seed, &mut rec);
    let (cold_us, warm_us, t1_ns_per_row, efficiency) = layer_probes(&service, &data, host);
    let spans = rec.spans();
    let folded = fold(spans);
    let busy = |id: usize| spans[id].busy_ns() as f64;
    let p50 = |name: &str| folded.get(name).map_or(0.0, |f| f.busy_p50_ns);

    let mut m = Metrics::new();
    let (rel_err_p95, miss_rate) = accuracy(&graded, spec.ref_queries);
    push(&mut m, "speedup_vs_exact", speedup(&pass));
    push(&mut m, "rel_err_p95", rel_err_p95);
    push(&mut m, "contract_miss_rate", miss_rate);

    let overhead: Vec<f64> = traced
        .iter()
        .map(|q| busy(q.submit) - busy(q.answer))
        .collect();
    push(
        &mut m,
        "service.submit_overhead_us",
        median(&overhead) / 1e3,
    );
    push(&mut m, "service.route_cold_us", cold_us);
    push(&mut m, "service.route_warm_us", warm_us);
    let (hits, misses, stale) = pass.cache;
    let lookups = (hits + misses + stale).max(1);
    push(
        &mut m,
        "service.cache_hit_share",
        hits as f64 / lookups as f64,
    );
    push(&mut m, "service.cache_stale", stale as f64);
    push(
        &mut m,
        "service.epoch_bumps",
        pass.log.maintain_ms.len() as f64,
    );
    let waits: Vec<f64> = graded.queries.iter().map(|q| q.queue_wait_us).collect();
    push(&mut m, "service.queue_wait_us_p50", median(&waits));
    push(&mut m, "analyze.lint_us", p50("analyze.lint_plan") / 1e3);
    push(&mut m, "session.probe_us", p50("session.probe") / 1e3);
    let routing: Vec<f64> = traced
        .iter()
        .map(|q| busy(q.answer) - busy(q.lint) - busy(q.probe) - busy(q.forced))
        .collect();
    push(
        &mut m,
        "session.routing_overhead_ms",
        median(&routing) / 1e6,
    );

    let answered = graded.queries.len().max(1) as f64;
    for kind in TechniqueKind::all() {
        let wins = graded.queries.iter().filter(|q| q.winner == kind).count();
        push(
            &mut m,
            &format!("session.winner_share.{}", kind.name()),
            wins as f64 / answered,
        );
    }

    let fact_rows = |q: &GradedQuery| {
        let table = data.query(q.index).1.fact_table;
        data.catalog.get(table).map_or(1, |t| t.row_count().max(1)) as f64
    };
    let submit_total = folded
        .get("service.submit")
        .map_or(1.0, |f| f.busy_total_ns.max(1) as f64);
    eprintln!(
        "{}: {:<20} {:>6} {:>12} {:>12} {:>8}",
        spec.name, "span", "count", "busy_p50_us", "self_p50_us", "share"
    );
    for (name, f) in &folded {
        eprintln!(
            "{}: {name:<20} {:>6} {:>12.1} {:>12.1} {:>8.3}",
            spec.name,
            f.count,
            f.busy_p50_ns / 1e3,
            f.self_p50_ns / 1e3,
            f.busy_total_ns as f64 / submit_total,
        );
    }
    for kind in TechniqueKind::all() {
        let span = answer_span(kind);
        let layer = span.split_once('.').map_or(span, |(layer, _)| layer);
        let mine: Vec<&TracedQuery> = traced.iter().filter(|q| q.winner == kind).collect();
        let wall_total = folded.get(span).map_or(0.0, |f| f.busy_total_ns as f64);
        let rows_total: u64 = mine.iter().map(|q| q.forced_rows).sum();
        let ns_per_row = wall_total / rows_total.max(1) as f64;
        push(
            &mut m,
            &format!("{layer}.submit_share"),
            wall_total / submit_total,
        );
        if kind != TechniqueKind::Exact {
            push(&mut m, &format!("{layer}.answer_ms_p50"), p50(span) / 1e6);
        }
        // The rewrite answers with point estimates and exact with certainties:
        // neither has intervals to cover truth.
        if !matches!(
            kind,
            TechniqueKind::MiddlewareRewrite | TechniqueKind::Exact
        ) {
            let cells: Vec<&Graded> = graded
                .queries
                .iter()
                .filter(|q| q.winner == kind)
                .flat_map(|q| &q.cells)
                .filter(|c| c.covered.is_some())
                .collect();
            let covered = cells.iter().filter(|c| c.covered == Some(true)).count();
            let coverage = covered as f64 / cells.len().max(1) as f64;
            push(&mut m, &format!("{layer}.ci_coverage"), coverage);
            push(&mut m, &format!("{layer}.ci_cells"), cells.len() as f64);
        }
        match kind {
            TechniqueKind::OnlineSampling => {
                let ungrouped: Vec<f64> = mine
                    .iter()
                    .filter(|q| !q.grouped)
                    .map(|q| busy(q.forced))
                    .collect();
                push(&mut m, "online.ungrouped_ms_p50", median(&ungrouped) / 1e6);
                push(&mut m, "online.ns_per_row", ns_per_row);
                let shares: Vec<f64> = graded
                    .queries
                    .iter()
                    .filter(|q| q.winner == kind)
                    .map(|q| q.rows_scanned as f64 / fact_rows(q))
                    .collect();
                push(&mut m, "online.rows_share", median(&shares));
            }
            TechniqueKind::OfflineSynopsis => {
                push(&mut m, "offline.ns_per_synopsis_row", ns_per_row);
                push(&mut m, "offline.build_s", build_s);
                let maintain = median(&pass.log.maintain_ms);
                push(&mut m, "offline.maintain_ms_p50", maintain);
                push(&mut m, "offline.staleness_max", pass.log.staleness_max);
            }
            TechniqueKind::MiddlewareRewrite => push(&mut m, "rewrite.ns_per_row", ns_per_row),
            TechniqueKind::OnlineAggregation => {}
            TechniqueKind::Exact => {
                let engine: Vec<f64> = traced.iter().map(|q| busy(q.engine)).collect();
                let engine_rows: u64 = traced.iter().map(|q| q.engine_rows).sum();
                let per_row = engine.iter().sum::<f64>() / engine_rows.max(1) as f64;
                push(&mut m, "engine.exact_ms_p50", median(&engine) / 1e6);
                push(&mut m, "engine.ns_per_row", per_row);
                push(&mut m, "engine.ns_per_row_t1", t1_ns_per_row);
                push(&mut m, "engine.parallel_efficiency", efficiency);
            }
        }
    }

    push(
        &mut m,
        "storage.build_ns_per_row",
        data.cost.tables_s * 1e9 / data.cost.rows.max(1) as f64,
    );
    push(
        &mut m,
        "storage.bytes_per_row",
        data.cost.bytes as f64 / data.cost.rows.max(1) as f64,
    );
    push(
        &mut m,
        "storage.replace_us_p50",
        median(&pass.log.replace_us),
    );
    let reference = median(
        &pass
            .replies
            .iter()
            .map(|r| ms(r.latency))
            .collect::<Vec<_>>(),
    );
    push(
        &mut m,
        "harness.trace_overhead_share",
        p50("service.submit") / 1e6 / reference - 1.0,
    );
    push(&mut m, "harness.traced_queries", traced.len() as f64);
    push(&mut m, "harness.ref_queries", pass.replies.len() as f64);

    let mut invalid = validity(spec, &graded, &pass, limits);
    if strict && spec.name == "dashboard_append" && (pass.log.maintain_ms.len() < 9 || stale == 0) {
        invalid.push(format!(
            "dashboard_append saw {} epoch bumps and {stale} stale cache lookups",
            pass.log.maintain_ms.len()
        ));
    }
    for why in graded.failures.iter().take(5) {
        eprintln!("{}: FAILED {why}", spec.name);
    }
    Report {
        attempted: graded.attempted,
        failed: graded.failed,
        invalid,
        metrics: m,
        spans: spans.to_vec(),
    }
}
