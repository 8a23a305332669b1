//! Seeded chaos suite for the fault-tolerant serving layer (compiled only
//! with `--features chaos`).
//!
//! Each schedule arms a deterministic [`FaultPlan`] — always at least one
//! injected **panic** and one injected **delay**, plus optional worker
//! kills, admission overloads, and a **mid-apply `mutate` probe** (a
//! `LiveRelation::arm_mutation_probe` closure consulting the same plan,
//! firing between the live relation's plan splice and its log-PRFe
//! key-cache patch) — and then drives a mixed workload of plain
//! submissions, deadline submissions, and live-relation inserts
//! from several client threads, with shutdown racing half the schedules.
//! The panic sites include `cache` (before the result cache is purged and
//! consulted), so the schedules also pin the cache path's requeue and
//! staleness behavior. The pinned invariants:
//!
//! * **exactly-once resolution**: every accepted query handle resolves to
//!   `Ok`, `Internal`, or `TimedOut` — never lost, never `Shutdown`
//!   (accepted work survives contained panics and killed workers);
//! * **static answers stay correct under faults**: every `Ok` answer from
//!   the immutable relation matches a direct offline evaluation to 1e-9 —
//!   whether it was evaluated or served from the result cache;
//! * **live state is never torn**: after the dust settles, the live
//!   relation's backend holds the base tuples, every `Ok`-acknowledged
//!   insert, and at most the `Internal`-acknowledged ones (a mid-apply
//!   panic may land after the backend splice; repair then makes the
//!   derived state consistent with it) — and a post-fault query agrees
//!   with an offline rebuild from the final pairs to 1e-9;
//! * **supervision restores the pool**: killed workers are respawned and a
//!   stuck worker is compensated, in bounded time.

#![cfg(feature = "chaos")]

use std::collections::HashSet;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use prf::prelude::*;
use prf::serve::{FaultKind, FaultPlan};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn small_db(n: usize) -> IndependentDb {
    IndependentDb::from_pairs(
        (0..n).map(|i| (100.0 - i as f64, 0.2 + 0.6 * ((i % 5) as f64 / 5.0))),
    )
    .expect("valid pairs")
}

/// Per-element comparison of two value vectors at the paper-wide 1e-9
/// equivalence tolerance.
fn assert_values_close(got: &[Complex], want: &[Complex], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (*g - *w).abs() <= 1e-9,
            "{what}: value {i} diverged: {g:?} vs {w:?}"
        );
    }
}

/// Builds one seeded fault plan with at least one panic and one delay.
/// Returns the plan (a clone stays with the caller for `fired()`).
fn seeded_plan(rng: &mut StdRng) -> FaultPlan {
    let panic_sites = ["flush-take", "apply", "cache", "eval", "deliver"];
    let delay_sites = ["admit", "cache", "eval", "deliver"];
    let mut plan = FaultPlan::new();
    for _ in 0..rng.gen_range(1..4u32) {
        let site = panic_sites[rng.gen_range(0..panic_sites.len())];
        plan = plan.after(site, FaultKind::Panic, rng.gen_range(0..4));
    }
    for _ in 0..rng.gen_range(1..3u32) {
        let site = delay_sites[rng.gen_range(0..delay_sites.len())];
        let delay = Duration::from_micros(rng.gen_range(50..500));
        plan = plan.after(site, FaultKind::Delay(delay), rng.gen_range(0..4));
    }
    if rng.gen_bool(0.3) {
        plan = plan.once("worker", FaultKind::KillWorker);
    }
    if rng.gen_bool(0.3) {
        plan = plan.after("admit", FaultKind::Overloaded, rng.gen_range(0..4));
    }
    if rng.gen_bool(0.35) {
        // Fired by the live relation's mutation probe (armed below in
        // `run_chaos_schedule`): a panic *between* the backend/plan splice
        // and the log-PRFe key-cache patch.
        plan = plan.after("mutate", FaultKind::Panic, rng.gen_range(0..3));
    }
    plan
}

/// One seeded chaos schedule. Returns how many injected faults fired, so
/// the caller can confirm the schedules actually exercise the harness.
fn run_chaos_schedule(seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = ServeConfig::new()
        .max_delay(Duration::from_micros(rng.gen_range(0..400)))
        .max_batch(rng.gen_range(1..7))
        .workers(rng.gen_range(1..4))
        .stuck_after(Duration::from_millis(250));
    let server = RankServer::new(config);
    let plan = seeded_plan(&mut rng);
    server.inject_faults(plan.clone());

    let static_n = 7usize;
    let live_base = 6usize;
    let live = Arc::new(LiveRelation::new(small_db(live_base)));
    // Route the same seeded plan into the live relation's mid-apply hook:
    // a `mutate` injection panics between the plan splice and the key-cache
    // patch, exercising the server's catch + repair of a half-applied
    // mutation.
    {
        let plan = plan.clone();
        live.arm_mutation_probe(move || match plan.consult("mutate") {
            Some(FaultKind::Panic) => panic!("injected fault at `mutate`"),
            Some(FaultKind::Delay(d)) => thread::sleep(d),
            _ => {}
        });
    }
    let stat_rel = server.register("static", small_db(static_n));
    let live_rel = server.register_live("live", Arc::clone(&live));

    // Pre-draw client schedules: (op, arg, pause). Ops: 0 = plain static
    // query, 1 = tracked static query (random deadline), 2 = live
    // query, 3 = live insert (distinct score derived from the op index).
    let clients = rng.gen_range(1..4usize);
    let schedules: Vec<Vec<(u8, usize, bool)>> = (0..clients)
        .map(|_| {
            (0..rng.gen_range(3..10usize))
                .map(|_| {
                    (
                        rng.gen_range(0..4u8),
                        rng.gen_range(1..=live_base),
                        rng.gen_bool(0.3),
                    )
                })
                .collect()
        })
        .collect();
    let deadline_choices = [None, Some(Duration::ZERO), Some(Duration::from_millis(50))];
    let tracked: Vec<Option<Duration>> = (0..64)
        .map(|_| deadline_choices[rng.gen_range(0..3usize)])
        .collect();
    let shutdown_mid = rng.gen_bool(0.5);

    enum Tag {
        Static(usize),
        Live,
    }
    let (answers, acked_inserts) = thread::scope(|s| {
        let mut workers = Vec::new();
        for (c, schedule) in schedules.iter().enumerate() {
            let server = &server;
            let tracked = &tracked;
            workers.push(s.spawn(move || {
                let mut answers = Vec::new();
                let mut insert_acks = Vec::new();
                for (i, &(op, h, pause)) in schedule.iter().enumerate() {
                    if pause {
                        thread::yield_now();
                    }
                    match op {
                        0 => match server.submit(stat_rel, RankQuery::pt(h)) {
                            Ok(handle) => answers.push((Tag::Static(h), handle)),
                            Err(e) => assert!(
                                matches!(e, QueryError::Shutdown | QueryError::Overloaded),
                                "unclean rejection: {e}"
                            ),
                        },
                        1 => {
                            let deadline = tracked[(c * 16 + i) % tracked.len()];
                            let mut opts = SubmitOptions::new();
                            if let Some(d) = deadline {
                                opts = opts.deadline(d);
                            }
                            match server.submit_with(stat_rel, RankQuery::pt(h), opts) {
                                Ok(handle) => answers.push((Tag::Static(h), handle)),
                                Err(e) => assert!(
                                    matches!(e, QueryError::Shutdown | QueryError::Overloaded),
                                    "unclean rejection: {e}"
                                ),
                            }
                        }
                        2 => match server.submit(live_rel, RankQuery::pt(h)) {
                            Ok(handle) => answers.push((Tag::Live, handle)),
                            Err(e) => assert!(
                                matches!(e, QueryError::Shutdown | QueryError::Overloaded),
                                "unclean rejection: {e}"
                            ),
                        },
                        _ => {
                            // Distinct scores above the base range: insert
                            // order cannot affect the final state.
                            let score = 200.0 + (c * 100 + i) as f64;
                            let mutation = Mutation::Insert { score, prob: 0.5 };
                            match server.apply(live_rel, mutation) {
                                Ok(handle) => insert_acks.push((score, handle)),
                                Err(e) => assert!(
                                    matches!(e, QueryError::Shutdown | QueryError::Overloaded),
                                    "unclean rejection: {e}"
                                ),
                            }
                        }
                    }
                }
                (answers, insert_acks)
            }));
        }
        if shutdown_mid {
            let server = &server;
            s.spawn(move || {
                thread::yield_now();
                server.shutdown();
            });
        }
        let mut answers = Vec::new();
        let mut acks = Vec::new();
        for w in workers {
            let (a, m) = w.join().expect("client thread");
            answers.extend(a);
            acks.extend(m);
        }
        (answers, acks)
    });
    server.shutdown();

    // Exactly-once resolution: every accepted query handle resolves, and
    // only to the sanctioned outcomes. `Ok` static answers are compared to
    // a direct offline evaluation.
    let static_db = small_db(static_n);
    for (tag, handle) in answers {
        match (tag, handle.recv()) {
            (Tag::Static(h), Ok(result)) => {
                let want = RankQuery::pt(h).run(&static_db).expect("offline PT");
                assert_values_close(
                    result
                        .values
                        .as_complex()
                        .expect("PT answers in complex mode"),
                    want.values
                        .as_complex()
                        .expect("PT answers in complex mode"),
                    "static answer under faults",
                );
            }
            (Tag::Live, Ok(_)) => {} // verified collectively below
            (_, Err(QueryError::Internal { .. })) => {}
            (_, Err(QueryError::TimedOut)) => {}
            (_, Err(e)) => panic!("accepted handle resolved uncleanly: {e}"),
        }
    }

    // Every accepted insert acknowledges exactly once: applied (`Ok`) or
    // interrupted by an injected panic (`Internal`). An `Internal` ack from
    // the `mutate` probe fires *after* the backend splice, so such an
    // insert may legitimately be present (repair makes the derived state
    // consistent with it) — the backend must hold the base tuples, every
    // `Ok` insert, and nothing beyond base ∪ Ok ∪ Internal.
    let mut applied: Vec<f64> = Vec::new();
    let mut maybe_applied: Vec<f64> = Vec::new();
    for (score, ack) in acked_inserts {
        match ack.recv() {
            Ok(_) => applied.push(score),
            Err(QueryError::Internal { .. }) => maybe_applied.push(score),
            Err(e) => panic!("accepted insert resolved uncleanly: {e}"),
        }
    }
    let snapshot = live.snapshot_backend();
    let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<HashSet<u64>>();
    let got = to_bits(&snapshot.tuple_scores());
    let base = to_bits(&small_db(live_base).tuple_scores());
    for b in &base {
        assert!(got.contains(b), "live backend lost a base tuple");
    }
    for s in &applied {
        assert!(
            got.contains(&s.to_bits()),
            "acknowledged insert {s} missing from live backend"
        );
    }
    let mut allowed = base;
    allowed.extend(applied.iter().map(|s| s.to_bits()));
    allowed.extend(maybe_applied.iter().map(|s| s.to_bits()));
    for b in &got {
        assert!(
            allowed.contains(b),
            "live backend holds a tuple no acknowledgement explains (score bits {b:#x})"
        );
    }

    // Post-fault differential: the live relation (with its incrementally
    // patched, possibly repaired prepared state) agrees with an offline
    // rebuild from scratch.
    let rebuilt = IndependentDb::from_pairs(
        snapshot
            .tuple_scores()
            .into_iter()
            .zip(snapshot.tuple_marginals()),
    )
    .expect("valid snapshot pairs");
    let got = RankQuery::pt(3).run(&*live).expect("post-fault query");
    let want = RankQuery::pt(3).run(&rebuilt).expect("offline rebuild");
    assert_values_close(
        got.values.as_complex().expect("PT answers in complex mode"),
        want.values
            .as_complex()
            .expect("PT answers in complex mode"),
        "post-fault live state vs offline rebuild",
    );

    plan.fired()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// 32 seeded chaos schedules, each with at least one injected panic
    /// and one injected delay: exactly-once resolution, static answers
    /// correct at 1e-9, live state equal to an offline rebuild at 1e-9.
    #[test]
    fn seeded_chaos_schedules_keep_every_guarantee(seed in 0u64..100_000) {
        run_chaos_schedule(seed);
    }
}

/// The chaos harness is not a no-op: across a handful of schedules, the
/// armed faults actually fire.
#[test]
fn chaos_schedules_fire_their_faults() {
    let fired: u64 = (0..4).map(|s| run_chaos_schedule(1_000_000 + s)).sum();
    assert!(fired > 0, "no injected fault ever fired across 4 schedules");
}

/// Killing every worker in a 2-worker pool mid-flush: the supervisor
/// respawns both, the re-queued flushes retry, and every handle resolves.
#[test]
fn killed_workers_are_respawned_and_service_continues() {
    let server = RankServer::new(
        ServeConfig::new()
            .max_delay(Duration::from_micros(200))
            .workers(2)
            .stuck_after(Duration::from_millis(100)),
    );
    server.inject_faults(FaultPlan::new().times("worker", FaultKind::KillWorker, 2));
    let rel = server.register("db", small_db(6));
    let ids: HashSet<u64> = (1..=6)
        .map(|h| {
            let handle = server.submit(rel, RankQuery::pt(h)).expect("accepted");
            let id = handle.id().as_u64();
            // Survives one interruption; a second kill would resolve it
            // `Internal`, which the plan (2 kills, 2 workers) cannot cause
            // twice for the same flush after both respawns.
            match handle.recv() {
                Ok(_) | Err(QueryError::Internal { .. }) => {}
                Err(e) => panic!("lost under worker kills: {e}"),
            }
            id
        })
        .collect();
    assert_eq!(ids.len(), 6, "exactly-once: ids never repeat");
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.metrics().workers_respawned < 2 {
        assert!(Instant::now() < deadline, "kills were never compensated");
        thread::sleep(Duration::from_millis(2));
    }
    server.shutdown();
}

/// A worker stuck inside a 3-second injected delay is compensated within
/// the 100 ms stuck window: other relations keep flushing long before the
/// stuck walk finishes, and the supervisor counts the respawn.
#[test]
fn stuck_worker_is_compensated_while_it_sleeps() {
    let server = RankServer::new(
        ServeConfig::new()
            .max_delay(Duration::from_micros(200))
            .workers(1)
            .stuck_after(Duration::from_millis(100)),
    );
    server.inject_faults(FaultPlan::new().once("eval", FaultKind::Delay(Duration::from_secs(3))));
    let rel_a = server.register("a", small_db(6));
    let rel_b = server.register("b", small_db(5));

    let started = Instant::now();
    let slow = server.submit(rel_a, RankQuery::pt(1)).expect("accepted");
    // Give the only worker time to enter the injected delay, then demand
    // service from the compensating worker well before the delay ends.
    thread::sleep(Duration::from_millis(20));
    let mut fast = server.submit(rel_b, RankQuery::pt(1)).expect("accepted");
    let answer = fast
        .recv_timeout(Duration::from_secs(2))
        .expect("a compensating worker must serve relation b before the 3 s delay ends");
    assert!(answer.is_ok(), "{answer:?}");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "service waited out the stuck worker instead of being compensated"
    );
    assert!(server.metrics().workers_respawned >= 1);
    // The stuck walk still completes and delivers.
    assert!(slow.recv().is_ok());
    server.shutdown();
}

/// A panic injected *between* a live relation's plan splice and its
/// log-PRFe key-cache patch (the `mutate` probe): the server acknowledges
/// the mutation `Internal`, repairs the derived state, and the very next
/// log-domain PRFe answer — the semantics whose incremental key cache the
/// panic stranded — matches an offline rebuild of the final backend to
/// 1e-9. The result cache must not serve the pre-mutation answer either:
/// repair bumps the generation, so the stale entry can never pass the
/// generation-exact lookup.
#[test]
fn mid_splice_panic_repairs_and_next_answer_matches_rebuild() {
    let server = RankServer::new(ServeConfig::new().max_delay(Duration::from_micros(200)));
    let live = Arc::new(LiveRelation::new(small_db(8)));
    let plan = FaultPlan::new().once("mutate", FaultKind::Panic);
    {
        let plan = plan.clone();
        live.arm_mutation_probe(move || {
            if let Some(FaultKind::Panic) = plan.consult("mutate") {
                panic!("injected fault at `mutate`");
            }
        });
    }
    let rel = server.register_live("live", Arc::clone(&live));
    let query = || RankQuery::prfe(0.9).algorithm(Algorithm::LogDomain);

    // Warm both caches: the live relation's incremental log-PRFe keys and
    // the server's result cache.
    let before = server.submit(rel, query()).unwrap().recv().unwrap();
    assert!(!before.report.serve.as_ref().unwrap().served_from_cache);

    // The mutation applies to the backend, then the probe panics before
    // the key-cache patch: the server must contain it, ack `Internal`,
    // and repair.
    let ack = server
        .apply(rel, Mutation::Reweight(TupleId(0), 0.9))
        .unwrap()
        .recv();
    assert!(
        matches!(ack, Err(QueryError::Internal { .. })),
        "mid-splice panic must resolve the mutation Internal, got {ack:?}"
    );
    assert!(plan.exhausted(), "the armed mutate fault never fired");
    assert!(server.metrics().panics_caught >= 1);

    // The next answer reflects the repaired state — never the stranded key
    // cache, never the pre-mutation result cache entry.
    let after = server.submit(rel, query()).unwrap().recv().unwrap();
    assert!(!after.report.serve.as_ref().unwrap().served_from_cache);
    let rebuilt = IndependentDb::from_pairs(
        live.snapshot_backend()
            .tuple_scores()
            .into_iter()
            .zip(live.snapshot_backend().tuple_marginals()),
    )
    .expect("valid snapshot pairs");
    let want = query().run(&rebuilt).expect("offline rebuild");
    let got_keys = after.values.as_log().expect("log-domain answers");
    let want_keys = want.values.as_log().expect("log-domain answers");
    assert_eq!(got_keys.len(), want_keys.len());
    for (i, (g, w)) in got_keys.iter().zip(want_keys).enumerate() {
        let (g, w) = (*g, *w);
        if g.is_infinite() && w.is_infinite() && g.signum() == w.signum() {
            continue;
        }
        assert!(
            (g - w).abs() <= 1e-9 * (1.0 + w.abs()),
            "post-repair log key {i} diverged: {g} vs {w}"
        );
    }
    server.shutdown();
}
