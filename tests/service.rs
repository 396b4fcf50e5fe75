//! The concurrent service contract: `AqpService` adds admission control,
//! scheduling, and a plan cache *around* the session without perturbing a
//! single answer.
//!
//! * a multi-threaded proptest pins the headline guarantee — N client
//!   threads hammering one shared service receive answers bit-for-bit
//!   identical to a serial `AqpSession` replay of the same
//!   `(plan, spec, seed)` jobs;
//! * goldens cover each admission verdict (accepted, degraded, strict
//!   rejection, deadline rejection, queue-full backpressure) and each
//!   plan-cache transition (miss → hit → stale after maintenance, a
//!   synopsis build or a table swap); a warm hit runs exactly what the
//!   cold run ran, and a malformed contract is a typed error;
//! * each service counts into its own session's registry: two services
//!   in one process keep disjoint counters;
//! * tracing is per caller: clients that scope a trace around their own
//!   `submit` get exactly their own query's span tree, and neither their
//!   neighbours nor concurrent maintenance are traced or recorded.

use std::time::Duration;

use proptest::prelude::*;

use aqp_core::{
    AdmissionDecision, AqpError, AqpService, AqpSession, CacheEvent, Contract, ErrorSpec,
    GuaranteeClass, Rejection, ServiceConfig, ServiceReply, TechniqueKind,
};
use aqp_engine::{AggExpr, LogicalPlan, Query};
use aqp_expr::{col, lit};
use aqp_storage::Catalog;
use aqp_workload::{skewed_table, uniform_table};

fn grouped_sum(table: &str, threshold: f64) -> LogicalPlan {
    Query::scan(table)
        .filter(col("sel").lt(lit(threshold)))
        .aggregate(
            vec![(col("g"), "g".to_string())],
            vec![AggExpr::sum(col("v"), "s")],
        )
        .build()
}

fn ungrouped_sum(table: &str) -> LogicalPlan {
    Query::scan(table)
        .aggregate(vec![], vec![AggExpr::sum(col("v"), "s")])
        .build()
}

/// Bitwise comparison of the parts of an answer that define its meaning:
/// group keys, estimates (value, variance, sample size), and the routed
/// winner. Wall clocks and queue waits legitimately differ.
fn assert_same_answer(a: &aqp_core::ApproximateAnswer, b: &aqp_core::ApproximateAnswer, ctx: &str) {
    let wa = a.report.routing.as_ref().map(|r| r.winner);
    let wb = b.report.routing.as_ref().map(|r| r.winner);
    assert_eq!(wa, wb, "winner diverged: {ctx}");
    assert_eq!(
        a.groups.len(),
        b.groups.len(),
        "group count diverged: {ctx}"
    );
    for (ga, gb) in a.groups.iter().zip(&b.groups) {
        assert_eq!(ga.key, gb.key, "group key diverged: {ctx}");
        assert_eq!(
            ga.estimates.len(),
            gb.estimates.len(),
            "estimate count diverged: {ctx}"
        );
        for (ea, eb) in ga.estimates.iter().zip(&gb.estimates) {
            assert_eq!(ea.value, eb.value, "estimate value diverged: {ctx}");
            assert_eq!(ea.variance, eb.variance, "variance diverged: {ctx}");
            assert_eq!(ea.n, eb.n, "sample size diverged: {ctx}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// N client threads through one shared `AqpService` get exactly the
    /// answers a serial `AqpSession` replay produces — across cache
    /// misses, hits (the jobs list repeats, so the warm fast path is
    /// exercised), fair thread splits, and queueing.
    #[test]
    fn concurrent_service_equals_serial_session(
        seeds in prop::collection::vec(any::<u64>(), 4..7),
        threshold in 0.3f64..0.9,
        with_synopsis in any::<bool>(),
    ) {
        let c = Catalog::new();
        c.register(skewed_table("t", 20_000, 10, 1.0, 128, 11)).unwrap();
        let spec = ErrorSpec::new(0.15, 0.9);
        let plans = [grouped_sum("t", threshold), ungrouped_sum("t")];
        // Repeat every job so the second occurrence routes on warm cache
        // state (memoized analysis and decision).
        let jobs: Vec<(usize, u64)> = seeds
            .iter()
            .flat_map(|&s| (0..plans.len()).map(move |p| (p, s)))
            .cycle()
            .take(seeds.len() * plans.len() * 2)
            .collect();

        // Serial reference: one session, one thread, same job stream.
        let reference = AqpSession::new(&c);
        if with_synopsis {
            reference.offline().build_stratified(&c, "t", "g", 3_000, 5).unwrap();
        }
        let expected: Vec<_> = jobs
            .iter()
            .map(|&(p, s)| reference.answer(&plans[p], &spec, s).unwrap())
            .collect();

        for clients in [2usize, 4, 8] {
            let session = AqpSession::new(&c);
            if with_synopsis {
                session.offline().build_stratified(&c, "t", "g", 3_000, 5).unwrap();
            }
            let service = AqpService::over(session, ServiceConfig::default());
            let mut got: Vec<Option<aqp_core::ApproximateAnswer>> = Vec::new();
            got.resize_with(jobs.len(), || None);
            let next = std::sync::atomic::AtomicUsize::new(0);
            let slots = std::sync::Mutex::new(&mut got);
            std::thread::scope(|scope| {
                for _ in 0..clients {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= jobs.len() {
                            break;
                        }
                        let (p, s) = jobs[i];
                        let ans = service.answer(&plans[p], &spec, s).unwrap();
                        slots.lock().unwrap()[i] = Some(ans);
                    });
                }
            });
            for (i, (ans, want)) in got.iter().zip(&expected).enumerate() {
                let ans = ans.as_ref().expect("every job answered");
                assert_same_answer(
                    ans,
                    want,
                    &format!("clients={clients} job={i} plan={} seed={}", jobs[i].0, jobs[i].1),
                );
            }
            let stats = service.stats();
            prop_assert_eq!(stats.rejected, 0, "no contract can fail here");
            prop_assert_eq!(stats.accepted, jobs.len() as u64);
            // Every repeated job after its cold first run is a warm hit.
            prop_assert!(stats.cache_hits >= (jobs.len() / 2) as u64);
        }
    }
}

/// A client traces its own `submit` by wrapping it in `aqp_obs::capture`,
/// and nobody else pays: of three clients on one service, the two that
/// wrap get one `query` root per reply whose every record carries that
/// reply's own trace id, the one that does not gets `trace: None`, and a
/// fourth thread's concurrent `maintain_synopses` appears in no client's
/// tree or captured records. All answers still equal the serial replay.
#[test]
fn traced_clients_do_not_trace_their_neighbours() {
    use std::sync::Barrier;

    let c = Catalog::new();
    c.register(skewed_table("t", 20_000, 10, 1.0, 128, 11))
        .unwrap();
    let spec = ErrorSpec::new(0.15, 0.9);
    let contract = Contract::new(spec.relative_error, spec.confidence);
    let plans = [grouped_sum("t", 0.6), ungrouped_sum("t")];
    let jobs: Vec<(usize, u64)> = (0..12u64)
        .map(|i| ((i % 2) as usize, 100 + i / 4))
        .collect();
    let session_with_synopsis = || {
        let session = AqpSession::new(&c);
        session
            .offline()
            .build_stratified(&c, "t", "g", 3_000, 5)
            .unwrap();
        session
    };
    let reference = session_with_synopsis();
    let expected: Vec<_> = jobs
        .iter()
        .map(|&(p, s)| reference.answer(&plans[p], &spec, s).unwrap())
        .collect();

    let service = AqpService::over(session_with_synopsis(), ServiceConfig::default());
    // Every round starts and ends on a barrier the traced clients wait at
    // from *inside* their capture: all four threads' work happens while
    // both traces are in scope, by construction rather than by luck.
    let round = Barrier::new(4);
    let replies = std::thread::scope(|scope| {
        // No rows are appended, so maintenance changes no answer — but it
        // opens its `synopsis:maintain-*` span and bumps the routing epoch
        // every round, on a thread nobody is tracing.
        let maintainer = scope.spawn(|| {
            let maintain = |i: usize| {
                round.wait();
                let maintained = service.session().maintain_synopses("t", i as u64);
                round.wait();
                maintained
            };
            (0..jobs.len()).map(maintain).collect::<Vec<_>>()
        });
        let clients = [true, true, false].map(|traced| {
            let (service, plans, contract, jobs, round) =
                (&service, &plans, &contract, &jobs, &round);
            scope.spawn(move || {
                let run = |&(p, s): &(usize, u64)| {
                    let submit = || {
                        round.wait();
                        let reply = service.submit(&plans[p], contract, s);
                        round.wait();
                        reply
                    };
                    if traced {
                        aqp_obs::capture(submit)
                    } else {
                        (submit(), Vec::new(), 0)
                    }
                };
                (traced, jobs.iter().map(run).collect::<Vec<_>>())
            })
        });
        for maintained in maintainer.join().unwrap() {
            assert_eq!(maintained.unwrap(), 1, "one stratified synopsis on t");
        }
        clients.map(|h| h.join().unwrap())
    });

    let mut trace_ids = std::collections::HashSet::new();
    for (client, (traced, answers)) in replies.iter().enumerate() {
        for (i, ((reply, outside_query, open), want)) in answers.iter().zip(&expected).enumerate() {
            let ctx = format!("client={client} traced={traced} job={i}");
            let Ok(ServiceReply::Answered(ans)) = reply else {
                panic!("no contract can fail here, got {reply:?}: {ctx}");
            };
            assert_eq!(*open, 0, "spans left open around submit: {ctx}");
            assert_same_answer(ans, want, &ctx);
            if !traced {
                assert!(ans.report.trace.is_none(), "untraced reply traced: {ctx}");
                continue;
            }
            let tree = ans.report.trace.as_ref().expect("traced reply");
            assert_eq!(
                (tree.record.name, tree.record.parent),
                ("query", 0),
                "{ctx}"
            );
            assert!(
                trace_ids.insert(tree.record.trace),
                "trace id shared: {ctx}"
            );
            let (mut records, mut stack) = (Vec::new(), vec![&**tree]);
            while let Some(node) = stack.pop() {
                records.push(&node.record);
                stack.extend(&node.children);
            }
            assert!(records.len() > 1, "query tree has no children: {ctx}");
            for r in &records {
                assert_eq!(
                    r.trace, tree.record.trace,
                    "span {} off-trace: {ctx}",
                    r.name
                );
            }
            for r in records.into_iter().chain(outside_query) {
                assert!(
                    !r.name.starts_with("synopsis:"),
                    "maintenance span {} in a client's trace: {ctx}",
                    r.name
                );
            }
        }
    }
    assert_eq!(trace_ids.len(), 2 * jobs.len());
}

/// A grouped query on a table too small for sampling, with no synopsis:
/// only the point-estimate rewrite remains. Strict admission rejects it
/// with the honest ceiling; nothing executes.
#[test]
fn strict_contract_rejects_point_estimate_only() {
    let c = Catalog::new();
    // 2 blocks < the online sampler's 4-block minimum.
    c.register(skewed_table("t", 400, 4, 1.0, 256, 3)).unwrap();
    let service = AqpService::with_config(
        &c,
        Default::default(),
        ServiceConfig {
            strict_contracts: true,
            ..ServiceConfig::default()
        },
    );
    let reply = service
        .submit(&grouped_sum("t", 0.9), &Contract::new(0.1, 0.9), 7)
        .unwrap();
    match reply.rejection() {
        Some(Rejection::ContractUnattainable { best }) => {
            assert_eq!(*best, GuaranteeClass::PointEstimate);
        }
        other => panic!("expected ContractUnattainable, got {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.accepted + stats.degraded, 0);
}

/// The same query under the default (lenient) policy runs, with the
/// downgrade recorded in the answer's admission report and rendered by
/// `explain_analyze()`.
#[test]
fn lenient_contract_degrades_and_answers() {
    let c = Catalog::new();
    c.register(skewed_table("t", 400, 4, 1.0, 256, 3)).unwrap();
    let service = AqpService::new(&c);
    let reply = service
        .submit(&grouped_sum("t", 0.9), &Contract::new(0.1, 0.9), 7)
        .unwrap();
    let ans = reply.answered().expect("lenient admission answers");
    let admission = ans
        .report
        .admission
        .as_ref()
        .expect("service answers carry admission");
    match &admission.decision {
        AdmissionDecision::Degraded { granted, .. } => {
            assert_eq!(*granted, GuaranteeClass::PointEstimate);
        }
        other => panic!("expected Degraded, got {other:?}"),
    }
    assert_eq!(admission.cache, CacheEvent::Miss);
    let rendered = ans.report.explain_analyze();
    assert!(rendered.contains("admission: degraded"), "{rendered}");
    assert!(rendered.contains("cache=miss"), "{rendered}");
    assert_eq!(service.stats().degraded, 1);
}

/// Cache lifecycle: miss on first sight, hit on the second, stale after
/// synopsis maintenance bumps the routing epoch, stale again after the
/// fact table itself is swapped for a bigger one.
#[test]
fn plan_cache_hits_then_invalidates() {
    let c = Catalog::new();
    c.register(skewed_table("t", 30_000, 10, 1.0, 128, 11))
        .unwrap();
    let service = AqpService::new(&c);
    let plan = grouped_sum("t", 0.8);
    let spec = ErrorSpec::new(0.15, 0.9);
    let cache_of = |ans: &aqp_core::ApproximateAnswer| {
        ans.report
            .admission
            .as_ref()
            .expect("admission attached")
            .cache
    };

    let first = service.answer(&plan, &spec, 1).unwrap();
    assert_eq!(cache_of(&first), CacheEvent::Miss);
    let second = service.answer(&plan, &spec, 2).unwrap();
    assert_eq!(cache_of(&second), CacheEvent::Hit);

    // Maintenance bumps the routing epoch even when no synopsis needed
    // rebuilding: cached verdicts may rest on anything it touched.
    service.session().maintain_synopses("t", 99).unwrap();
    let third = service.answer(&plan, &spec, 3).unwrap();
    assert_eq!(cache_of(&third), CacheEvent::Stale);
    let fourth = service.answer(&plan, &spec, 4).unwrap();
    assert_eq!(cache_of(&fourth), CacheEvent::Hit);

    // A row-count change invalidates without any epoch bump.
    c.replace(skewed_table("t", 45_000, 10, 1.0, 128, 12));
    let fifth = service.answer(&plan, &spec, 5).unwrap();
    assert_eq!(cache_of(&fifth), CacheEvent::Stale);

    let stats = service.stats();
    assert_eq!(stats.cache_hits, 2);
    assert_eq!(stats.cache_stale, 2);
    assert_eq!(stats.cache_misses, 1);
}

/// A synopsis built through `session().offline()` under a cached plan
/// moves the routing epoch: the next lookup is stale, so the plan is
/// linted afresh and the new synopsis answers. A hit routes on its memo
/// alone, so no store change a verdict reads may leave it valid.
#[test]
fn a_synopsis_built_under_a_cached_plan_stales_it() {
    let c = Catalog::new();
    c.register(skewed_table("t", 30_000, 10, 1.0, 128, 11))
        .unwrap();
    let service = AqpService::new(&c);
    let plan = grouped_sum("t", 0.8);
    let spec = ErrorSpec::new(0.15, 0.9);
    let routed = |seed| {
        let ans = service.answer(&plan, &spec, seed).unwrap();
        let cache = ans.report.admission.as_ref().expect("admission").cache;
        (cache, ans.report.routing.as_ref().expect("routed").winner)
    };
    let (cache, winner) = routed(1);
    assert_eq!(cache, CacheEvent::Miss);
    assert_ne!(winner, TechniqueKind::OfflineSynopsis, "no synopsis yet");
    assert_eq!(routed(2), (CacheEvent::Hit, winner));
    service
        .session()
        .offline()
        .build_stratified(&c, "t", "g", 3_000, 5)
        .unwrap();
    assert_eq!(
        routed(3),
        (CacheEvent::Stale, TechniqueKind::OfflineSynopsis)
    );
    assert_eq!(routed(4), (CacheEvent::Hit, TechniqueKind::OfflineSynopsis));
}

/// Two services in one process keep disjoint counters: each session owns
/// its registry, the service's series live in it, and the engine work a
/// query runs records into the registry of the session that ran it.
#[test]
fn two_services_keep_disjoint_counters() {
    use aqp_obs::names;
    let c = Catalog::new();
    c.register(skewed_table("t", 30_000, 10, 1.0, 128, 11))
        .unwrap();
    let [a, b, idle] = [(); 3].map(|()| AqpService::new(&c));
    let spec = ErrorSpec::new(0.15, 0.9);
    let routed = |s: &AqpService| -> u64 {
        TechniqueKind::all()
            .into_iter()
            .map(|k| {
                s.metrics()
                    .counter_labeled(names::ROUTED_TOTAL, names::ROUTED_WINNER_LABEL, k.name())
                    .get()
            })
            .sum()
    };
    let dispatched = |s: &AqpService| -> u64 {
        [
            names::KERNEL_DISPATCH_KERNEL,
            names::KERNEL_DISPATCH_FALLBACK,
        ]
        .map(|path| {
            s.metrics()
                .counter_labeled(
                    names::KERNEL_DISPATCH_TOTAL,
                    names::KERNEL_DISPATCH_LABEL,
                    path,
                )
                .get()
        })
        .iter()
        .sum()
    };
    b.answer(&ungrouped_sum("t"), &spec, 9).unwrap();
    let b_dispatched = dispatched(&b);
    assert!(b_dispatched > 0, "b's query folded blocks");
    for seed in 0..3 {
        a.answer(&grouped_sum("t", 0.8), &spec, seed).unwrap();
    }
    assert_eq!((routed(&a), routed(&b), routed(&idle)), (3, 1, 0));
    let (sa, sb, si) = (a.stats(), b.stats(), idle.stats());
    assert_eq!((sa.cache_misses, sa.cache_hits, sa.accepted), (1, 2, 3));
    assert_eq!((sb.cache_misses, sb.cache_hits, sb.accepted), (1, 0, 1));
    assert_eq!((si.cache_misses, si.accepted), (0, 0));
    assert!(dispatched(&a) >= 3, "a's queries folded blocks");
    assert_eq!(dispatched(&b), b_dispatched, "a's work reached b");
    assert_eq!(dispatched(&idle), 0);
    assert!(!std::sync::Arc::ptr_eq(a.metrics(), b.metrics()));
}

/// The plan cache memoizes routing, never work: a warm hit on the same
/// `(plan, spec, seed)` re-runs the online sampler's pilot and final phase
/// and charges the same rows as the cold run, bit for bit.
#[test]
fn warm_hit_runs_what_the_cold_run_ran() {
    let c = Catalog::new();
    c.register(skewed_table("t", 30_000, 10, 1.0, 128, 11))
        .unwrap();
    let service = AqpService::new(&c);
    let plan = grouped_sum("t", 0.8);
    // Loose spec so pilot-planned sampling wins the route.
    let contract = Contract::new(0.4, 0.9);
    let submit = || {
        service
            .submit(&plan, &contract, 42)
            .unwrap()
            .answered()
            .unwrap()
    };
    let cold = submit();
    let winner = cold.report.routing.as_ref().unwrap().winner;
    assert_eq!(
        winner,
        TechniqueKind::OnlineSampling,
        "setup: sampler must win"
    );
    let warm = submit();
    assert_eq!(
        warm.report.admission.as_ref().unwrap().cache,
        CacheEvent::Hit
    );
    assert_same_answer(&warm, &cold, "warm hit");
    assert_eq!(warm.report.rows_scanned, cold.report.rows_scanned);
    assert_eq!(warm.report.path, cold.report.path);
}

/// A contract whose error or confidence lies outside (0, 1) is a typed
/// error from `submit`, not a panic, and nothing is admitted or cached.
#[test]
fn malformed_contract_is_a_typed_error() {
    let c = Catalog::new();
    c.register(skewed_table("t", 30_000, 10, 1.0, 128, 11))
        .unwrap();
    let service = AqpService::new(&c);
    let plan = grouped_sum("t", 0.8);
    for bad in [f64::NAN, 0.0, 1.0, 1.5] {
        for contract in [Contract::new(bad, 0.9), Contract::new(0.1, bad)] {
            match service.submit(&plan, &contract, 1) {
                Err(AqpError::InvalidContract { detail }) => {
                    assert!(detail.contains("must be in (0,1)"), "{detail}");
                }
                other => panic!("{contract:?}: expected InvalidContract, got {other:?}"),
            }
        }
    }
    let stats = service.stats();
    assert_eq!(
        (stats.accepted, stats.rejected, stats.cache_entries),
        (0, 0, 0)
    );
    // The service still answers a well-formed contract afterwards.
    let reply = service.submit(&plan, &Contract::new(0.1, 0.9), 1).unwrap();
    assert!(reply.answered().is_some());
}

/// With one execution slot and a zero-length queue, a query arriving while
/// another runs is rejected immediately — bounded degradation, not an
/// unbounded queue.
#[test]
fn bounded_queue_rejects_under_load() {
    let c = Catalog::new();
    // ~1M groups make the exact aggregate slow enough to hold the slot.
    c.register(uniform_table("big", 1_000_000, 4096, 7))
        .unwrap();
    let heavy = Query::scan("big")
        .aggregate(
            vec![(col("id"), "id".to_string())],
            vec![AggExpr::sum(col("v"), "s")],
        )
        .build();
    let service = AqpService::with_config(
        &c,
        Default::default(),
        ServiceConfig {
            max_inflight: 1,
            queue_capacity: 0,
            ..ServiceConfig::default()
        },
    );
    let spec = ErrorSpec::new(0.05, 0.95);
    std::thread::scope(|scope| {
        let svc = &service;
        let plan = &heavy;
        scope.spawn(move || {
            let reply = svc.submit(plan, &Contract::new(0.05, 0.95), 1).unwrap();
            assert!(reply.rejection().is_none(), "slot holder must complete");
        });
        // Wait until the heavy query owns the slot, then collide with it.
        let mut spins = 0;
        while svc.stats().inflight == 0 {
            std::thread::sleep(Duration::from_micros(200));
            spins += 1;
            assert!(spins < 25_000, "heavy query never started");
        }
        match svc.submit(
            plan,
            &Contract::new(spec.relative_error, spec.confidence),
            2,
        ) {
            Ok(reply) => match reply.rejection() {
                Some(Rejection::QueueFull { capacity: 0, .. }) => {}
                other => panic!("expected QueueFull, got {other:?}"),
            },
            Err(e) => panic!("submit errored: {e}"),
        }
    });
    let stats = service.stats();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.accepted, 1);
}

/// Once a completed run has seeded the cache's wall-clock EWMA, a deadline
/// below that estimate is rejected before any work happens.
#[test]
fn deadline_below_estimate_rejected_upfront() {
    let c = Catalog::new();
    c.register(skewed_table("t", 30_000, 10, 1.0, 128, 11))
        .unwrap();
    let service = AqpService::new(&c);
    let plan = grouped_sum("t", 0.8);
    let spec = ErrorSpec::new(0.15, 0.9);
    // Warm the estimate.
    service.answer(&plan, &spec, 1).unwrap();
    let contract = Contract::new(0.15, 0.9).with_deadline(Duration::from_nanos(1));
    let reply = service.submit(&plan, &contract, 2).unwrap();
    match reply.rejection() {
        Some(Rejection::DeadlineUnmeetable { deadline, estimate }) => {
            assert_eq!(*deadline, Duration::from_nanos(1));
            assert!(*estimate > *deadline);
        }
        other => panic!("expected DeadlineUnmeetable, got {other:?}"),
    }
    // A generous deadline sails through.
    let relaxed = Contract::new(0.15, 0.9).with_deadline(Duration::from_secs(60));
    let reply = service.submit(&plan, &relaxed, 3).unwrap();
    assert!(reply.rejection().is_none());
}

/// The per-query thread grant reaches the middleware rewrite. A star join
/// under a contract the online sampler's rate cap cannot meet falls to
/// `rewrite`; with a one-thread budget every span of the reply — the
/// rewritten plan's morsels included — runs on the calling thread, with a
/// wide budget the same morsels run on pool workers, and both replies
/// carry the same bits.
#[test]
fn rewrite_honours_the_thread_grant() {
    use aqp_core::SessionConfig;
    use aqp_obs::SpanNode;
    use aqp_workload::{build_star_schema, StarScale};

    let c = Catalog::new();
    let scale = StarScale {
        orders: 4_000,
        ..StarScale::tiny()
    };
    build_star_schema(&c, &scale, 23).unwrap();
    let plan = Query::scan("lineitem")
        .join(Query::scan("orders"), col("l_orderkey"), col("o_key"))
        .filter(col("l_sel").lt(lit(0.8)))
        .aggregate(
            vec![(col("o_priority"), "priority".to_string())],
            vec![AggExpr::sum(col("l_price"), "s")],
        )
        .build();
    // The whole fact table as the rewrite's "sample": enough blocks that
    // an unconstrained engine splits the plan into several morsels.
    let session = SessionConfig {
        rewrite_rate: 1.0,
        ..SessionConfig::default()
    };
    let contract = Contract::new(0.0002, 0.99);
    let traced = |thread_budget: usize| {
        let config = ServiceConfig {
            thread_budget,
            ..ServiceConfig::default()
        };
        let service = AqpService::with_config(&c, session, config);
        let (reply, _, open) = aqp_obs::capture(|| service.submit(&plan, &contract, 5).unwrap());
        assert_eq!(open, 0);
        let answer = reply.answered().expect("admitted");
        let routing = answer.report.routing.as_ref().expect("routed");
        assert_eq!(routing.winner, TechniqueKind::MiddlewareRewrite);
        answer
    };
    fn threads_of(node: &SpanNode, under_rewrite: bool, out: &mut Vec<(&'static str, u64)>) {
        let under_rewrite = under_rewrite || node.record.name == "rewrite:exec";
        if under_rewrite {
            out.push((node.record.name, node.record.thread));
        }
        for child in &node.children {
            threads_of(child, under_rewrite, out);
        }
    }
    let morsels = |answer: &aqp_core::ApproximateAnswer| {
        let tree = answer.report.trace.as_ref().expect("traced reply");
        let mut spans = Vec::new();
        threads_of(tree, false, &mut spans);
        let root = tree.record.thread;
        let partials: Vec<bool> = (spans.iter())
            .filter(|(name, _)| *name == "agg:partial")
            .map(|(_, thread)| *thread == root)
            .collect();
        assert!(
            partials.len() > 1,
            "the plan splits into morsels: {spans:?}"
        );
        (spans.iter().all(|(_, t)| *t == root), partials)
    };
    let one = traced(1);
    let (all_on_caller, _) = morsels(&one);
    assert!(all_on_caller, "a one-thread grant must not reach the pool");
    let wide = traced(8);
    let (_, partials_on_caller) = morsels(&wide);
    assert!(
        partials_on_caller.iter().all(|on_caller| !on_caller),
        "a wide grant runs the morsels on pool workers"
    );
    assert_same_answer(&one, &wide, "thread grant 1 vs 8");
}
