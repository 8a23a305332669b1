//! `live_churn`: two clients against a served `LiveRelation<IndependentDb>`
//! (n = 10⁵); each operation is a mutation with probability 0.2, otherwise
//! a Zipf-drawn top-100 query from the 256-shape pool.

use std::sync::Arc;
use std::time::Instant;

use prf_core::live::LiveRelation;
use prf_core::query::{ProbabilisticRelation, RankQuery};
use prf_pdb::IndependentDb;
use prf_serve::{RankServer, RelationId, ServeConfig};

use crate::inputs::{self, Shape, Zipf, POOL_SIZE, TOP_K};
use crate::oracle::{self, ORACLE_MARGIN};
use crate::report::{Report, SetupTimes};
use crate::served::{closed_loop, LoopConfig};
use crate::stats::{median_of, Samples};
use crate::{timed_ms, Args, SETUP_REPS};

const N: usize = 100_000;
const CLIENTS: usize = 2;
const MUTATION_SHARE: f64 = 0.2;
/// Mutated ids stay below this; the relation never shrinks near it (a run
/// applies far fewer than `N / 2` deletes).
const ID_BOUND: usize = N / 2;
/// Inserted scores are drawn from `[0, SCORE_MAX)`, the bulk of the IIP
/// drift-days range.
const SCORE_MAX: f64 = 500.0;
/// Pool shapes (the most frequently drawn) checked after the loop.
const FINAL_CHECKS: usize = 20;

struct Inputs {
    pairs: Vec<(f64, f64)>,
    shapes: Vec<Shape>,
    pool: Vec<RankQuery>,
    zipf: Zipf,
}

struct Instance {
    server: RankServer,
    rel: RelationId,
    live: Arc<LiveRelation<IndependentDb>>,
}

fn setup(inp: &Inputs) -> (Instance, SetupTimes) {
    let t0 = Instant::now();
    let db = IndependentDb::from_pairs(inp.pairs.iter().copied()).expect("valid pairs");
    let live = Arc::new(LiveRelation::new(db));
    let t1 = Instant::now();
    let server = RankServer::new(ServeConfig::new());
    let rel = server.register_live("iip", live.clone());
    let t2 = Instant::now();
    server
        .submit(rel, inp.pool[0].clone())
        .and_then(|h| h.recv())
        .expect("first answer of a fresh server");
    let t3 = Instant::now();
    let times = SetupTimes {
        build: (t1 - t0).as_secs_f64(),
        register: (t2 - t1).as_secs_f64(),
        total: (t3 - t0).as_secs_f64(),
    };
    (Instance { server, rel, live }, times)
}

pub fn run(args: &Args) -> Report {
    let shapes = inputs::shape_pool(args.seed);
    let inp = Inputs {
        pairs: inputs::iip_pairs(N, args.seed),
        pool: shapes.iter().map(|s| s.query().top_k(TOP_K)).collect(),
        shapes,
        zipf: Zipf::new(POOL_SIZE, 1.0),
    };
    let mut report = Report::default();
    let mut times = Vec::new();
    let mut inst = None;
    for _ in 0..SETUP_REPS {
        drop(inst.take());
        let (i, t) = setup(&inp);
        times.push(t);
        inst = Some(i);
    }
    report.setup(&times);
    let inst = inst.expect("at least one set-up");

    let next_op =
        |rng: &mut _| inputs::live_op(rng, &inp.zipf, MUTATION_SHARE, ID_BOUND, SCORE_MAX);
    let mut cfg = LoopConfig {
        clients: CLIENTS,
        seed: args.seed,
        warmup: args.warmup(),
        measure: args.measure(),
        trace: false,
        walk_layer: "independent",
        keep_answers: false,
        pool: &inp.pool,
        next_op: &next_op,
    };
    let base = closed_loop(&inst.server, inst.rel, &cfg);
    report.count(&base);
    check(&mut report, &inp, &inst);
    if !args.trace {
        report.served(&base);
        return report;
    }
    drop(inst);
    let (inst, _) = setup(&inp);
    cfg.trace = true;
    let traced = closed_loop(&inst.server, inst.rel, &cfg);
    report.count(&traced);
    check(&mut report, &inp, &inst);
    report.served(&traced);
    report.served_layers(&traced, &base);
    crate::write_trace(args, &traced.trace);
    probes(&mut report, &inst.live.snapshot_backend(), args.seed);
    report
}

/// After the loop: the most frequent shapes, served, against a fresh
/// `IndependentDb` rebuilt from the live relation's final state.
fn check(report: &mut Report, inp: &Inputs, inst: &Instance) {
    let snap = inst.live.snapshot_backend();
    let fresh = IndependentDb::from_pairs(snap.scores().into_iter().zip(snap.probabilities()))
        .expect("a live relation holds valid tuples");
    let handles: Vec<_> = (0..FINAL_CHECKS)
        .map(|i| inst.server.submit(inst.rel, inp.pool[i].clone()))
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        report.attempted += 1;
        let verdict = match h.and_then(|h| h.recv()) {
            Ok(served) => inp.shapes[i]
                .query()
                .top_k(TOP_K + ORACLE_MARGIN)
                .run(&fresh)
                .map_err(|e| format!("oracle failed: {e}"))
                .and_then(|d| oracle::check(&oracle::Answer::of(&served), &d, TOP_K)),
            Err(e) => Err(format!("final query failed: {e}")),
        };
        report.verdict(
            1,
            || format!("final shape {i} {:?}", inp.shapes[i]),
            verdict,
        );
    }
}

/// Standalone calls on a private copy of the final relation, timed after
/// the traced loop: direct `LiveRelation::apply`, a query right after a
/// mutation, and rebuilding from scratch instead.
fn probes(report: &mut Report, snapshot: &IndependentDb, seed: u64) {
    let prepare: Vec<f64> = (0..3).map(|_| timed_ms(|| snapshot.prepare()).0).collect();
    report.layer.insert("query.prepare_ms", median_of(&prepare));

    let live = LiveRelation::new(snapshot.clone());
    let requery = RankQuery::prfe(0.95)
        .algorithm(prf_core::query::Algorithm::LogDomain)
        .top_k(TOP_K);
    // Fill the log-key cache the mutations then patch.
    let _ = requery.run(&live);
    let mut rng = inputs::rng(seed, 50);
    let mut next_mutation = || inputs::mutation(&mut rng, ID_BOUND, SCORE_MAX);
    let mut apply = Samples::new();
    for _ in 0..300 {
        let m = next_mutation();
        let (ms, res) = timed_ms(|| live.apply(&m));
        apply.push(ms * 1e3);
        if let Err(e) = res {
            report.failed += 1;
            report.errors.push(format!("probe apply {m:?}: {e}"));
        }
    }
    report
        .layer
        .insert("live.apply_us_p50", apply.percentile(50.0));
    report
        .layer
        .insert("live.apply_us_p99", apply.percentile(99.0));

    let (mut requery_ms, mut patched_ms, mut rebuilt_ms) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..7 {
        let m = next_mutation();
        let (mutate, _) = timed_ms(|| live.apply(&m));
        let (query, _) = timed_ms(|| requery.run(&live));
        requery_ms.push(query);
        patched_ms.push(mutate + query);
        let pairs: Vec<(f64, f64)> = {
            let b = live.snapshot_backend();
            b.scores().into_iter().zip(b.probabilities()).collect()
        };
        let (rebuild, _) = timed_ms(|| {
            let db = IndependentDb::from_pairs(pairs.iter().copied()).expect("valid pairs");
            requery.run(&db)
        });
        rebuilt_ms.push(rebuild);
    }
    report
        .layer
        .insert("live.requery_ms", median_of(&requery_ms));
    report.layer.insert(
        "live.rebuild_ratio",
        crate::report::ratio(median_of(&rebuilt_ms), median_of(&patched_ms)),
    );
}
