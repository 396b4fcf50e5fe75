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
//!   neighbours nor concurrent maintenance are traced or recorded;
//! * a decisive online decline is remembered per cached shape once two
//!   samples confirm it: later submits skip the pilot and answer as a
//!   declining pilot would have led them to; an in-doubt decline pilots
//!   every time; a shape whose pilots disagree across seeds keeps the
//!   session's online winner share; and any change to a table the plan
//!   reads (even at the same row count), an epoch bump or
//!   `invalidate_cache()` forgets it.

use std::time::Duration;

use proptest::prelude::*;

use aqp_core::{
    AqpError, AqpService, AqpSession, CacheEvent, CandidateOutcome, Contract, DeclineReason,
    ErrorSpec, GuaranteeClass, Rejection, ServiceConfig, ServiceReply, ServiceStats, TechniqueKind,
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
    /// exercised), fair thread splits, and queueing. The star join at
    /// ε 0.002 is a shape whose decline the service remembers: which of
    /// its jobs pilot depends on which results land first, and none of
    /// that may show in an answer.
    #[test]
    fn concurrent_service_equals_serial_session(
        seeds in prop::collection::vec(any::<u64>(), 4..7),
        threshold in 0.3f64..0.9,
        with_synopsis in any::<bool>(),
    ) {
        let c = Catalog::new();
        c.register(skewed_table("t", 20_000, 10, 1.0, 128, 11)).unwrap();
        add_star(&c, 23);
        let loose = ErrorSpec::new(0.15, 0.9);
        let plans = [
            (grouped_sum("t", threshold), loose),
            (ungrouped_sum("t"), loose),
            (star_plan(), ErrorSpec::new(0.002, 0.95)),
        ];
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
            .map(|&(p, s)| reference.answer(&plans[p].0, &plans[p].1, s).unwrap())
            .collect();
        let (star, star_spec) = &plans[2];
        let later = 0x5eed;
        let star_reference = reference.answer(star, star_spec, later).unwrap();

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
                        let ans = service.answer(&plans[p].0, &plans[p].1, s).unwrap();
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
            // However the results landed, the star's decline is remembered
            // by now, and a later remembered answer is the serial one.
            let ans = service.answer(star, star_spec, later).unwrap();
            prop_assert!(
                matches!(online_outcome(&ans), CandidateOutcome::Remembered(_)),
                "{:?}",
                online_outcome(&ans)
            );
            assert_same_answer(&ans, &star_reference, &format!("clients={clients} later seed"));
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

/// A grouped query on a table too small for sampling, with no synopsis,
/// leaves only the rewrite (which carries an interval) and exact: the
/// contract is accepted as asked — nothing is downgraded — and the
/// admission row says so in `explain_analyze()`.
#[test]
fn a_rewrite_only_shape_is_accepted_as_asked() {
    let c = Catalog::new();
    c.register(skewed_table("t", 400, 4, 1.0, 256, 3)).unwrap();
    let service = AqpService::new(&c);
    let reply = service
        .submit(&grouped_sum("t", 0.9), &Contract::new(0.1, 0.9), 7)
        .unwrap();
    let ans = reply.answered().expect("admitted");
    let admission = ans
        .report
        .admission
        .as_ref()
        .expect("service answers carry admission");
    assert_eq!(admission.cache, CacheEvent::Miss);
    let lints = ans.report.lints.as_ref().expect("lint table attached");
    assert_eq!(lints.best_approximate(), GuaranteeClass::APosteriori);
    let rendered = ans.report.explain_analyze();
    assert!(rendered.contains("admission: accepted"), "{rendered}");
    assert!(rendered.contains("cache=miss"), "{rendered}");
    let stats = service.stats();
    assert_eq!((stats.accepted, stats.rejected), (1, 0));
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

/// A plan outside the normalized star shape (here a MIN) is answered
/// exactly and routed from a fresh lint on every submit: it never gets a
/// cache entry, and none of its results is folded into one.
#[test]
fn an_out_of_shape_plan_is_answered_but_never_cached() {
    let c = Catalog::new();
    c.register(skewed_table("t", 20_000, 10, 1.0, 128, 5))
        .unwrap();
    let service = AqpService::new(&c);
    let plan = Query::scan("t")
        .aggregate(vec![], vec![AggExpr::min(col("v"), "lo")])
        .build();
    let spec = ErrorSpec::new(0.05, 0.95);
    for seed in 0..2 {
        let ans = service.answer(&plan, &spec, seed).unwrap();
        let admission = ans.report.admission.as_ref().expect("admission attached");
        assert_eq!(admission.cache, CacheEvent::Uncacheable);
        assert_eq!(admission.estimated_wall, None);
        assert_eq!(
            ans.report.routing.as_ref().unwrap().winner,
            TechniqueKind::Exact
        );
    }
    assert_eq!(service.route(&plan, &spec).winner, TechniqueKind::Exact);
    // Only the two submits count: `route` records no lookup.
    let stats = service.stats();
    assert_eq!((stats.cache_entries, stats.cache_hits), (0, 0));
    assert_eq!(stats.cache_misses, 2);
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

/// The plan cache memoizes routing, not the work of a family that
/// answers: a warm hit on the same `(plan, spec, seed)` re-runs the online
/// sampler's pilot and final phase and charges the same rows as the cold
/// run, bit for bit. (Only a decisive decline is remembered; see
/// `a_decisive_decline_is_remembered`.)
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

/// Submits `contract` while a slow exact aggregate holds the only
/// execution slot of a service whose queue holds `queue_capacity`; returns
/// the reply's rejection and the service's counters after both finish.
fn collide_with_held_slot(queue_capacity: usize, contract: Contract) -> (Rejection, ServiceStats) {
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
            queue_capacity,
            ..ServiceConfig::default()
        },
    );
    let rejection = std::thread::scope(|scope| {
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
        let reply = svc.submit(plan, &contract, 2).unwrap();
        reply
            .rejection()
            .cloned()
            .expect("the colliding query is rejected")
    });
    (rejection, service.stats())
}

/// With one execution slot and a zero-length queue, a query arriving while
/// another runs is rejected immediately — bounded degradation, not an
/// unbounded queue.
#[test]
fn bounded_queue_rejects_under_load() {
    let (rejection, stats) = collide_with_held_slot(0, Contract::new(0.05, 0.95));
    assert!(
        matches!(rejection, Rejection::QueueFull { capacity: 0, .. }),
        "expected QueueFull, got {rejection:?}"
    );
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.accepted, 1);
}

/// A query still queued at its deadline is withdrawn and rejected; the
/// rejection names the contract's deadline and the time spent queued.
#[test]
fn queued_past_its_deadline_rejected_with_the_contracts_deadline() {
    let deadline = Duration::from_millis(1);
    let contract = Contract::new(0.05, 0.95).with_deadline(deadline);
    let (rejection, stats) = collide_with_held_slot(1, contract);
    match rejection {
        Rejection::DeadlineUnmeetable {
            deadline: named, ..
        } => assert_eq!(named, deadline),
        other => panic!("expected DeadlineUnmeetable, got {other:?}"),
    }
    assert_eq!((stats.rejected, stats.queue_depth), (1, 0));
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
/// `rewrite`, whose block fold runs last; with a one-thread budget every
/// span of the reply runs on the calling thread and the pool is never
/// entered, with a wide budget the fold's morsels run on the pool, and
/// both replies carry the same bits.
#[test]
fn rewrite_honours_the_thread_grant() {
    use aqp_core::SessionConfig;
    use aqp_obs::SpanNode;

    let (c, plan) = star();
    // The whole fact table as the rewrite's "sample": enough blocks that
    // the fold splits into several morsels.
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
        let workers = (service.metrics())
            .gauge(aqp_obs::names::POOL_WORKERS)
            .get();
        (answer, workers)
    };
    fn threads_of(node: &SpanNode, out: &mut Vec<(&'static str, u64)>) {
        out.push((node.record.name, node.record.thread));
        for child in &node.children {
            threads_of(child, out);
        }
    }
    let on_caller = |answer: &aqp_core::ApproximateAnswer| {
        let tree = answer.report.trace.as_ref().expect("traced reply");
        let mut spans = Vec::new();
        threads_of(tree, &mut spans);
        assert!(
            spans.iter().any(|(name, _)| *name == "rewrite:fold"),
            "the rewrite folded its sample: {spans:?}"
        );
        spans.iter().all(|(_, t)| *t == tree.record.thread)
    };
    let (one, workers) = traced(1);
    assert!(
        on_caller(&one),
        "a one-thread grant must not reach the pool"
    );
    assert_eq!(workers, 0.0, "a one-thread grant never enters the pool");
    let (wide, workers) = traced(8);
    assert!(
        workers > 1.0,
        "a wide grant runs the rewrite's morsels on the pool"
    );
    assert_same_answer(&one, &wide, "thread grant 1 vs 8");
}

/// The spans of a traced answer that ran off the thread its `query` root
/// opened on.
fn spans_off_the_caller(answer: &aqp_core::ApproximateAnswer) -> Vec<&'static str> {
    fn walk(node: &aqp_obs::SpanNode, caller: u64, out: &mut Vec<&'static str>) {
        if node.record.thread != caller {
            out.push(node.record.name);
        }
        for child in &node.children {
            walk(child, caller, out);
        }
    }
    let tree = answer.report.trace.as_ref().expect("traced answer");
    let mut off = Vec::new();
    walk(tree, tree.record.thread, &mut off);
    off
}

/// The audit's exact re-execution runs on the query's grant too: with a
/// one-thread budget and every answer audited, the rewrite's answer and
/// its audit leave the engine pool untouched.
#[test]
fn the_audit_honours_the_thread_grant() {
    use aqp_core::{AuditConfig, SessionConfig};

    let (c, plan) = star();
    let session = SessionConfig {
        rewrite_rate: 1.0,
        audit: AuditConfig {
            rate: 1.0,
            ..AuditConfig::default()
        },
        ..SessionConfig::default()
    };
    let config = ServiceConfig {
        thread_budget: 1,
        ..ServiceConfig::default()
    };
    let service = AqpService::with_config(&c, session, config);
    let contract = Contract::new(0.0002, 0.99);
    let (reply, _, open) = aqp_obs::capture(|| service.submit(&plan, &contract, 5).unwrap());
    assert_eq!(open, 0);
    let answer = reply.answered().expect("admitted");
    let routing = answer.report.routing.as_ref().expect("routed");
    assert_eq!(routing.winner, TechniqueKind::MiddlewareRewrite);
    assert!(answer.report.audit.is_some(), "rate 1.0 audits the answer");
    let workers = (service.metrics())
        .gauge(aqp_obs::names::POOL_WORKERS)
        .get();
    assert_eq!(
        workers, 0.0,
        "a one-thread grant's audit never enters the pool"
    );
}

/// A direct `session.answer` has no grant: the session's `online.threads`
/// is the count every family, the exact fallback, the audit and the
/// synopsis build run on. At 1, every span of every route is on the
/// calling thread and the pool is never entered.
#[test]
fn a_one_thread_session_runs_every_route_on_the_caller() {
    use aqp_core::{AuditConfig, SessionConfig};

    let c = Catalog::new();
    c.register(skewed_table("t", 50_000, 20, 1.0, 256, 3))
        .unwrap();
    c.register(skewed_table("u", 75_000, 20, 1.0, 256, 9))
        .unwrap();
    c.register(skewed_table("rare", 100_000, 10, 1.0, 256, 5))
        .unwrap();
    c.register(uniform_table("tiny", 400, 256, 1)).unwrap();
    add_star(&c, 23);
    let mut config = SessionConfig {
        rewrite_rate: 1.0,
        audit: AuditConfig {
            rate: 1.0,
            ..AuditConfig::default()
        },
        ..SessionConfig::default()
    };
    config.online.threads = 1;
    let session = AqpSession::with_config(&c, config);
    session
        .offline()
        .build_stratified(&c, "t", "g", 5_000, 1)
        .unwrap();
    let rare = Query::scan("rare")
        .filter(col("sel").lt(lit(0.0005)))
        .aggregate(
            vec![(col("g"), "g".to_string())],
            vec![AggExpr::sum(col("v"), "s")],
        )
        .build();
    let routes = [
        (
            grouped_sum("t", 1.0),
            ErrorSpec::new(0.1, 0.9),
            TechniqueKind::OfflineSynopsis,
        ),
        (
            grouped_sum("u", 1.0),
            ErrorSpec::new(0.5, 0.9),
            TechniqueKind::OnlineSampling,
        ),
        (
            ungrouped_sum("tiny"),
            ErrorSpec::new(0.1, 0.9),
            TechniqueKind::OnlineAggregation,
        ),
        (
            star_plan(),
            ErrorSpec::new(0.0002, 0.99),
            TechniqueKind::MiddlewareRewrite,
        ),
        (rare, ErrorSpec::new(0.01, 0.95), TechniqueKind::Exact),
    ];
    for (plan, spec, want) in &routes {
        let (answer, _, open) = aqp_obs::capture(|| session.answer(plan, spec, 7).unwrap());
        assert_eq!(open, 0);
        let routing = answer.report.routing.as_ref().expect("routed");
        assert_eq!(routing.winner, *want);
        assert_eq!(
            spans_off_the_caller(&answer),
            Vec::<&str>::new(),
            "{want} at online.threads = 1"
        );
        if *want != TechniqueKind::Exact {
            assert!(answer.report.audit.is_some(), "{want} was audited");
        }
    }
    let workers = (session.metrics())
        .gauge(aqp_obs::names::POOL_WORKERS)
        .get();
    assert_eq!(workers, 0.0, "a one-thread session never enters the pool");
}

// ---- Remembered declines ---------------------------------------------------

/// A small star (~10 k `lineitem` rows in 77 blocks of 128) and a grouped
/// join over it.
fn star() -> (Catalog, LogicalPlan) {
    let c = Catalog::new();
    add_star(&c, 23);
    (c, star_plan())
}

/// Registers the small star's tables, generated from `seed`.
fn add_star(c: &Catalog, seed: u64) {
    use aqp_workload::{build_star_schema, StarScale};
    let scale = StarScale {
        orders: 4_000,
        ..StarScale::tiny()
    };
    build_star_schema(c, &scale, seed).unwrap();
}

fn star_plan() -> LogicalPlan {
    Query::scan("lineitem")
        .join(Query::scan("orders"), col("l_orderkey"), col("o_key"))
        .filter(col("l_sel").lt(lit(0.8)))
        .aggregate(
            vec![(col("o_priority"), "priority".to_string())],
            vec![AggExpr::sum(col("l_price"), "s")],
        )
        .build()
}

/// One traced submit: the answer and its span tree flattened to
/// `(name, rows)`.
fn traced_submit(
    service: &AqpService,
    plan: &LogicalPlan,
    contract: &Contract,
    seed: u64,
) -> (aqp_core::ApproximateAnswer, Vec<(&'static str, u64)>) {
    fn flatten(node: &aqp_obs::SpanNode, out: &mut Vec<(&'static str, u64)>) {
        out.push((node.record.name, node.record.rows));
        for child in &node.children {
            flatten(child, out);
        }
    }
    let (reply, _, open) = aqp_obs::capture(|| service.submit(plan, contract, seed).unwrap());
    assert_eq!(open, 0);
    let ans = reply.answered().expect("admitted");
    let mut spans = Vec::new();
    flatten(ans.report.trace.as_ref().expect("traced"), &mut spans);
    (ans, spans)
}

fn cache_event(ans: &aqp_core::ApproximateAnswer) -> CacheEvent {
    ans.report.admission.as_ref().expect("admission").cache
}

fn online_outcome(ans: &aqp_core::ApproximateAnswer) -> CandidateOutcome {
    let routing = ans.report.routing.as_ref().expect("routed");
    routing
        .outcome(TechniqueKind::OnlineSampling)
        .expect("online considered")
        .clone()
}

fn pilots(spans: &[(&'static str, u64)]) -> usize {
    spans.iter().filter(|(n, _)| *n == "online:pilot").count()
}

/// Groups, estimates and intervals agree bit for bit.
fn assert_same_intervals(a: &aqp_core::ApproximateAnswer, b: &aqp_core::ApproximateAnswer) {
    assert_same_answer(a, b, "remembered vs fresh");
    for (ga, gb) in a.groups.iter().zip(&b.groups) {
        for (ia, ib) in ga.intervals.iter().zip(&gb.intervals) {
            assert_eq!(
                (ia.lo.to_bits(), ia.hi.to_bits()),
                (ib.lo.to_bits(), ib.hi.to_bits())
            );
        }
    }
}

fn is_remembered(ans: &aqp_core::ApproximateAnswer) -> bool {
    matches!(online_outcome(ans), CandidateOutcome::Remembered(_))
}

/// A star join at ε 0.002 needs a rate near 1 even at the optimistic
/// reading of its pilot. Seed 7 pilots and declines decisively; seed 7
/// again is the same sample, so it pilots again; seed 8 is a second
/// sample that declines decisively too, and from then on the shape is
/// remembered. A remembered submit opens no `online:pilot` span, answers
/// exactly what a fresh service answers at the same seed, and scans
/// fewer rows by exactly what the declined attempt consumed — at the
/// learning seeds and at every other seed. The decline still counts on
/// `aqp_decline_total{reason="rate-above-cap"}`.
#[test]
fn a_decisive_decline_is_remembered() {
    use aqp_obs::names;
    let (c, plan) = star();
    let contract = Contract::new(0.002, 0.95);
    let service = AqpService::new(&c);

    let (first, spans) = traced_submit(&service, &plan, &contract, 7);
    assert_eq!(cache_event(&first), CacheEvent::Miss);
    let CandidateOutcome::DeclinedAtRuntime(reason) = online_outcome(&first) else {
        panic!("online must be attempted: {:?}", online_outcome(&first));
    };
    let DeclineReason::RateAboveCap {
        optimistic, cap, ..
    } = reason
    else {
        panic!("{reason:?}");
    };
    assert!(optimistic > cap, "setup: the decline must be decisive");
    assert!(pilots(&spans) > 0);
    let declined_rows = spans
        .iter()
        .find(|(n, _)| *n == "attempt:online-sampling")
        .expect("online attempt span")
        .1;
    assert!(declined_rows > 0);

    let (again, spans) = traced_submit(&service, &plan, &contract, 7);
    assert_eq!(cache_event(&again), CacheEvent::Hit);
    assert_eq!(
        online_outcome(&again),
        CandidateOutcome::DeclinedAtRuntime(reason),
        "one sample read twice is not a second pilot"
    );
    assert!(pilots(&spans) > 0);
    let (other, spans) = traced_submit(&service, &plan, &contract, 8);
    assert!(matches!(
        online_outcome(&other),
        CandidateOutcome::DeclinedAtRuntime(_)
    ));
    assert!(pilots(&spans) > 0);

    let (second, spans) = traced_submit(&service, &plan, &contract, 7);
    assert_eq!(cache_event(&second), CacheEvent::Hit);
    assert!(is_remembered(&second), "{:?}", online_outcome(&second));
    assert_eq!(pilots(&spans), 0, "{spans:?}");
    assert!(!spans.iter().any(|(n, _)| *n == "attempt:online-sampling"));
    assert_eq!(
        second.report.rows_scanned,
        first.report.rows_scanned - declined_rows
    );
    let fresh = AqpService::new(&c)
        .submit(&plan, &contract, 7)
        .unwrap()
        .answered()
        .unwrap();
    assert_same_intervals(&second, &fresh);
    assert_same_intervals(&second, &first);

    let routing = second.report.routing.as_ref().unwrap();
    let summary = routing.summary();
    assert!(
        summary.contains("online-sampling: remembered (required rate ")
            && summary.contains("; optimistic "),
        "{summary}"
    );
    let explain = second.report.explain_analyze();
    assert!(explain.contains("remembered (required rate "), "{explain}");
    let declines = service
        .metrics()
        .counter_labeled(
            names::DECLINE_TOTAL,
            names::DECLINE_REASON_LABEL,
            "rate-above-cap",
        )
        .get();
    assert_eq!(declines, 4, "one tick per decline, remembered or not");

    // Seeds the decline was not learned from: each is remembered and is
    // the answer a session that pilots at that seed gives.
    let session = AqpSession::new(&c);
    for seed in 0..20 {
        let ans = traced_submit(&service, &plan, &contract, seed).0;
        assert!(is_remembered(&ans), "seed {seed}");
        let piloted = session.answer(&plan, &contract.spec(), seed).unwrap();
        assert!(matches!(
            online_outcome(&piloted),
            CandidateOutcome::DeclinedAtRuntime(_)
        ));
        assert_same_intervals(&ans, &piloted);
    }
}

/// A contract between the two ends of the planner's band — over the cap
/// inflated, under it optimistic — is a decline in doubt: every submit
/// pilots again, hit or not.
#[test]
fn a_decline_in_doubt_pilots_every_time() {
    let (c, plan) = star();
    let contract = Contract::new(0.15, 0.95);
    let service = AqpService::new(&c);
    for seed in 0..4 {
        let (ans, spans) = traced_submit(&service, &plan, &contract, seed);
        let expected = if seed == 0 {
            CacheEvent::Miss
        } else {
            CacheEvent::Hit
        };
        assert_eq!(cache_event(&ans), expected);
        match online_outcome(&ans) {
            CandidateOutcome::DeclinedAtRuntime(DeclineReason::RateAboveCap {
                required,
                optimistic,
                cap,
            }) => assert!(optimistic <= cap && cap < required, "seed {seed}"),
            other => panic!("seed {seed}: {other:?}"),
        }
        assert!(pilots(&spans) > 0, "seed {seed}");
    }
}

/// Online's winner share through the service is the session's, seed for
/// seed, on shapes whose pilots disagree across seeds: a table of 256-row
/// blocks whose smallest groups hold a few rows per block, where a
/// 30-block pilot reads the spread high often enough that some seeds
/// decline decisively while others answer. The service must not let one
/// such decline stand for every later seed.
#[test]
fn online_winner_share_through_the_service_is_the_sessions() {
    let c = Catalog::new();
    c.register(skewed_table("t", 100_000, 10, 1.0, 256, 11))
        .unwrap();
    let session = AqpSession::new(&c);
    let service = AqpService::new(&c);
    for (threshold, eps) in [(0.3, 0.3), (0.6, 0.2), (0.9, 0.15)] {
        let plan = grouped_sum("t", threshold);
        let contract = Contract::new(eps, 0.95);
        let (mut by_session, mut by_service) = (0, 0);
        for seed in 0..120 {
            let piloted = session.answer(&plan, &contract.spec(), seed).unwrap();
            let served = service
                .submit(&plan, &contract, seed)
                .unwrap()
                .answered()
                .unwrap();
            let online = |a: &aqp_core::ApproximateAnswer| {
                a.report.routing.as_ref().unwrap().winner == TechniqueKind::OnlineSampling
            };
            by_session += usize::from(online(&piloted));
            by_service += usize::from(online(&served));
            assert_same_answer(
                &served,
                &piloted,
                &format!("θ {threshold} ε {eps} seed {seed}"),
            );
        }
        assert!(
            by_session > 0,
            "setup: θ {threshold} ε {eps} answers online sometimes"
        );
        assert_eq!(by_service, by_session, "θ {threshold} ε {eps}");
    }
}

/// What forgets a remembered decline: an epoch bump (`maintain_synopses`),
/// `invalidate_cache()`, and a `Catalog::replace` of any table the plan
/// reads — a dimension with the same row count and other values, or the
/// fact table with the same rows. Each makes the next submits pilot again
/// until two of them confirm the decline.
#[test]
fn a_remembered_decline_is_forgotten_when_its_inputs_change() {
    let (c, plan) = star();
    let contract = Contract::new(0.002, 0.95);
    let service = AqpService::new(&c);
    let submit = |seed| traced_submit(&service, &plan, &contract, seed).0;
    let relearn = |event: CacheEvent| {
        let ans = submit(1);
        assert_eq!(cache_event(&ans), event);
        for (seed, ans) in [(1, ans), (2, submit(2))] {
            assert!(
                matches!(online_outcome(&ans), CandidateOutcome::DeclinedAtRuntime(_)),
                "seed {seed}: online piloted: {:?}",
                online_outcome(&ans)
            );
        }
        let ans = submit(3);
        assert_eq!(cache_event(&ans), CacheEvent::Hit);
        assert!(is_remembered(&ans), "{:?}", online_outcome(&ans));
    };

    relearn(CacheEvent::Miss);
    service.session().maintain_synopses("lineitem", 0).unwrap();
    relearn(CacheEvent::Stale);

    service.invalidate_cache();
    relearn(CacheEvent::Miss);

    // `orders` again, same row count, other values.
    let other = Catalog::new();
    add_star(&other, 24);
    let orders = other.get("orders").unwrap();
    assert_eq!(orders.row_count(), c.get("orders").unwrap().row_count());
    c.replace((*orders).clone());
    relearn(CacheEvent::Stale);

    // The fact table again, row for row.
    c.replace((*c.get("lineitem").unwrap()).clone());
    relearn(CacheEvent::Stale);
}
