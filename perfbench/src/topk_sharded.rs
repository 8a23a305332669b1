//! `topk_sharded`: one caller runs the Figure 11(i) batch — log-domain
//! PRFe(α) + PT(100) + E-Rank, top-100, `parallel(2)` — in a closed loop
//! over the IIP relation (n = 10⁶) split into 4 equal score-contiguous
//! shards on a `ShardedRelation` with 2 pool workers.

use std::sync::Arc;
use std::time::Instant;

use prf_core::query::{Algorithm, ProbabilisticRelation, QueryBatch, RankQuery};
use prf_core::{ShardHandle, ShardedRelation};
use prf_numeric::Complex;
use prf_pdb::IndependentDb;
use prf_serve::ServeMetrics;
use rand::Rng;

use crate::inputs::{self, ALPHAS, TOP_K};
use crate::oracle::{self, Answer, ORACLE_MARGIN};
use crate::procfs::{self, ProcSample};
use crate::report::{ratio, Report, SetupTimes};
use crate::served::LoopResult;
use crate::stats::{median_of, Samples};
use crate::trace::Trace;
use crate::{timed_ms, Args, SETUP_REPS};

const N: usize = 1_000_000;
const SHARDS: usize = 4;
const WORKERS: usize = 2;

fn batch(alpha: f64, threads: usize, top_k: usize) -> QueryBatch {
    QueryBatch::new()
        .add_query(RankQuery::prfe(alpha).algorithm(Algorithm::LogDomain))
        .add_query(RankQuery::pt(100))
        .add_query(RankQuery::erank())
        .top_k(top_k)
        .parallel(threads)
}

fn shards(pairs: &[(f64, f64)]) -> Vec<ShardHandle> {
    (0..SHARDS)
        .map(|i| {
            let slice = &pairs[i * N / SHARDS..(i + 1) * N / SHARDS];
            let db = IndependentDb::from_pairs(slice.iter().copied()).expect("valid pairs");
            Arc::new(db) as ShardHandle
        })
        .collect()
}

fn setup(pairs: &[(f64, f64)]) -> (ShardedRelation, SetupTimes) {
    let t0 = Instant::now();
    let shards = shards(pairs);
    let t1 = Instant::now();
    let sharded = ShardedRelation::new(shards, WORKERS).expect("score-contiguous shards");
    let t2 = Instant::now();
    batch(ALPHAS[0], WORKERS, TOP_K)
        .run(&sharded)
        .expect("first batch on a fresh relation");
    let t3 = Instant::now();
    let times = SetupTimes {
        build: (t1 - t0).as_secs_f64(),
        register: (t2 - t1).as_secs_f64(),
        total: (t3 - t0).as_secs_f64(),
    };
    (sharded, times)
}

struct TopkLoop {
    lr: LoopResult,
    /// `(α index, answers)` per measured batch.
    answers: Vec<(usize, Vec<Answer>)>,
    walk: Samples,
    finalize: Samples,
    sharing: Samples,
    entries: usize,
    single: usize,
}

pub fn run(args: &Args) -> Report {
    let mut pairs = inputs::iip_pairs(N, args.seed);
    pairs.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut report = Report::default();
    let mut times = Vec::new();
    let mut sharded = None;
    for _ in 0..SETUP_REPS {
        drop(sharded.take());
        let (s, t) = setup(&pairs);
        times.push(t);
        sharded = Some(s);
    }
    report.setup(&times);
    let sharded = sharded.expect("at least one set-up");

    let base = closed_loop(&sharded, args, false);
    report.count(&base.lr);
    if !args.trace {
        report.latency_e2e(&base.lr);
        report.proc(&base.lr);
        check(&mut report, &pairs, &[&base]);
        return report;
    }
    let mut traced = closed_loop(&sharded, args, true);
    report.count(&traced.lr);
    report.latency_e2e(&traced.lr);
    report.proc(&traced.lr);
    let l = &mut report.layer;
    l.insert("query.walk_ms_p50", traced.walk.percentile(50.0));
    l.insert("query.walk_ms_p99", traced.walk.percentile(99.0));
    l.insert("query.walk_sharing", traced.sharing.mean());
    l.insert("query.finalize_ms_p50", traced.finalize.percentile(50.0));
    l.insert(
        "query.single_route_ratio",
        ratio(traced.single as f64, traced.entries as f64),
    );
    report.trace(&traced.lr, base.lr.throughput());
    crate::write_trace(args, &traced.lr.trace);
    let unsharded = check(&mut report, &pairs, &[&base, &traced]);
    probes(&mut report, &pairs, &sharded, &unsharded);
    report
}

fn closed_loop(sharded: &ShardedRelation, args: &Args, traced: bool) -> TopkLoop {
    let mut rng = inputs::rng(args.seed, 200);
    let origin = Instant::now();
    let warm_end = origin + args.warmup();
    let stop = warm_end + args.measure();
    let secs = |t: Instant| t.duration_since(origin).as_secs_f64();
    let mut out = TopkLoop {
        lr: LoopResult {
            queries: Vec::new(),
            mutations: Samples::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            op_ends: Vec::new(),
            latencies: Vec::new(),
            answers: Vec::new(),
            trace: Trace::new(),
            wall: 0.0,
            clients: 1,
            metrics_start: ServeMetrics::default(),
            metrics_end: ServeMetrics::default(),
            proc_start: ProcSample::now(),
            proc_end: ProcSample::now(),
            voluntary_switches: 0,
            peak_rss_mb: 0.0,
        },
        answers: Vec::new(),
        walk: Samples::new(),
        finalize: Samples::new(),
        sharing: Samples::new(),
        entries: 0,
        single: 0,
    };
    let mut started = false;
    let mut last_end = warm_end;
    let mut request = 0u64;
    loop {
        let t0 = Instant::now();
        if t0 >= stop {
            break;
        }
        if t0 >= warm_end && !started {
            started = true;
            out.lr.proc_start = ProcSample::now();
        }
        let a = rng.gen_range(0..ALPHAS.len());
        let res = batch(ALPHAS[a], WORKERS, TOP_K).run(sharded);
        let t1 = Instant::now();
        if !started {
            continue;
        }
        request += 1;
        out.lr.attempted += 1;
        last_end = t1;
        let results = match res {
            Ok(r) => r,
            Err(e) => {
                out.lr.failed += 1;
                out.lr.errors.push(format!("batch α={}: {e}", ALPHAS[a]));
                continue;
            }
        };
        let end = t1.duration_since(warm_end).as_secs_f64();
        out.lr.op_ends.push(end);
        out.lr.latencies.push((end, (t1 - t0).as_secs_f64() * 1e3));
        let mut walk_seconds = 0.0f64;
        let mut finalize_max = 0.0f64;
        for r in &results {
            out.entries += 1;
            let fin = (r.report.total_seconds - r.report.kernel_seconds).max(0.0);
            out.finalize.push(fin * 1e3);
            finalize_max = finalize_max.max(fin);
            match r.report.batch {
                Some(b) => {
                    walk_seconds = b.walk_seconds;
                    out.sharing.push(b.consumers as f64);
                }
                None => out.single += 1,
            }
        }
        out.walk.push(walk_seconds * 1e3);
        if traced {
            // The walk opens the batch; the entries then finalise in
            // parallel, so the slowest one closes it.
            let (s0, s1) = (secs(t0), secs(t1));
            let t = &mut out.lr.trace;
            let root = t.push("client.op", "client", s0, s1, None, request);
            let run = t.push("query.batch_run", "query", s0, s1, Some(root), request);
            let walk_end = (s0 + walk_seconds).min(s1);
            t.push("shard.walk", "shard", s0, walk_end, Some(run), request);
            let fin_end = (walk_end + finalize_max).min(s1);
            t.push(
                "query.finalize",
                "query",
                walk_end,
                fin_end,
                Some(run),
                request,
            );
        }
        out.answers
            .push((a, results.iter().map(Answer::of).collect()));
    }
    out.lr.proc_end = ProcSample::now();
    out.lr.wall = last_end.saturating_duration_since(warm_end).as_secs_f64();
    out.lr.voluntary_switches = out
        .lr
        .proc_end
        .voluntary_switches
        .saturating_sub(out.lr.proc_start.voluntary_switches);
    out.lr.peak_rss_mb = procfs::peak_rss_mb();
    out
}

/// Every measured batch against the same batch on the unsharded relation.
/// Returns the unsharded relation for the probes.
fn check(report: &mut Report, pairs: &[(f64, f64)], loops: &[&TopkLoop]) -> IndependentDb {
    let unsharded = IndependentDb::from_pairs(pairs.iter().copied()).expect("valid pairs");
    for (a, &alpha) in ALPHAS.iter().enumerate() {
        let answers: Vec<&Vec<Answer>> = loops
            .iter()
            .flat_map(|l| l.answers.iter())
            .filter(|(i, _)| *i == a)
            .map(|(_, ans)| ans)
            .collect();
        if answers.is_empty() {
            continue;
        }
        let direct = batch(alpha, WORKERS, TOP_K + ORACLE_MARGIN).run(&unsharded);
        // One verdict per batch: the first entry that disagrees fails it.
        for ans in answers {
            let verdict = match &direct {
                Ok(d) => ans
                    .iter()
                    .zip(d)
                    .enumerate()
                    .try_for_each(|(e, (got, want))| {
                        oracle::check(got, want, TOP_K).map_err(|m| format!("entry {e}: {m}"))
                    }),
                Err(err) => Err(format!("oracle failed: {err}")),
            };
            report.verdict(1, || format!("batch α={alpha}"), verdict);
        }
    }
    unsharded
}

/// Standalone calls timed after the traced loop: preparation, the shards'
/// presence-GF prefixes, one shard alone, the unsharded relation, and the
/// sharded relation with one and two workers.
fn probes(
    report: &mut Report,
    pairs: &[(f64, f64)],
    sharded: &ShardedRelation,
    unsharded: &IndependentDb,
) {
    const REPS: usize = 3;
    let alpha = ALPHAS[0];
    let med = |f: &mut dyn FnMut() -> f64| median_of(&(0..REPS).map(|_| f()).collect::<Vec<_>>());
    let handles = shards(pairs);
    let l = &mut report.layer;
    // A relation prepares each shard once and reuses the state, so every
    // repetition prepares a fresh one.
    l.insert(
        "query.prepare_ms",
        med(&mut || {
            let fresh = ShardedRelation::new(handles.clone(), WORKERS).expect("contiguous");
            timed_ms(|| fresh.prepare()).0
        }),
    );
    l.insert(
        "shard.prefix_ms",
        med(&mut || {
            handles
                .iter()
                .map(|s| {
                    timed_ms(|| {
                        (
                            s.presence_gf_coeffs(100),
                            s.presence_gf_point(Complex::real(alpha)),
                        )
                    })
                    .0
                })
                .sum()
        }),
    );
    let run_ms = |rel: &dyn ProbabilisticRelation, threads: usize| {
        timed_ms(|| batch(alpha, threads, TOP_K).run(rel)).0
    };
    let one_shard = med(&mut || run_ms(&*handles[0], 1));
    let unsharded_ms = med(&mut || run_ms(unsharded, 1));
    let one_worker = ShardedRelation::new(handles.clone(), 1).expect("score-contiguous shards");
    let sharded_1 = med(&mut || run_ms(&one_worker, 1));
    let sharded_2 = med(&mut || run_ms(sharded, WORKERS));
    l.insert("shard.one_shard_ms", one_shard);
    l.insert("independent.walk_ms", unsharded_ms);
    l.insert("shard.overhead_ratio", ratio(sharded_1, unsharded_ms));
    l.insert("shard.speedup", ratio(unsharded_ms, sharded_2));
}
