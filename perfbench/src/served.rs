//! The closed client loop shared by the two served workloads: each client
//! thread sends its next operation only after `recv` returned the previous
//! one's answer.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use prf_core::query::{BatchCost, RankQuery, RankedResult};
use prf_serve::{RankServer, RelationId, ServeMetrics};
use rand::rngs::StdRng;

use crate::inputs::{self, Op};
use crate::oracle::Answer;
use crate::procfs::{self, ProcSample};
use crate::stats::{windowed_median, Samples};
use crate::trace::Trace;

/// What one loop needs besides the server.
pub struct LoopConfig<'a> {
    pub clients: usize,
    pub seed: u64,
    /// Operations started before this much time has passed are not
    /// recorded (the cache fills and lazy state settles meanwhile).
    pub warmup: Duration,
    pub measure: Duration,
    pub trace: bool,
    /// The layer a walk reported by the program belongs to.
    pub walk_layer: &'static str,
    /// Keep every measured answer for the oracle (static relations only).
    pub keep_answers: bool,
    /// Served queries, `top_k` already applied.
    pub pool: &'a [RankQuery],
    pub next_op: &'a (dyn Fn(&mut StdRng) -> Op + Sync),
}

/// One answered query.
#[derive(Clone, Debug)]
pub struct QuerySample {
    pub latency: f64,
    pub submit: f64,
    pub hit: bool,
    pub queue: f64,
    pub total: f64,
    pub kernel: f64,
    pub batch: Option<BatchCost>,
    pub peak_coefficients: Option<usize>,
}

#[derive(Default)]
struct ClientLog {
    queries: Vec<QuerySample>,
    mutations: Samples,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    op_ends: Vec<f64>,
    latencies: Vec<(f64, f64)>,
    answers: HashMap<usize, Vec<(Answer, u64)>>,
    trace: Trace,
    last_end: Option<Instant>,
    switches: u64,
}

/// Everything a loop measured, in its measured window.
pub struct LoopResult {
    pub queries: Vec<QuerySample>,
    /// Mutation round trips (`apply` → acknowledged), seconds.
    pub mutations: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Completion time of every successful operation, seconds after the
    /// warm-up.
    pub op_ends: Vec<f64>,
    /// `(completion time, latency in ms)` of every answered query (or
    /// batch).
    pub latencies: Vec<(f64, f64)>,
    /// `(pool index, answer, times answered)` of every distinct measured
    /// answer.
    pub answers: Vec<(usize, Answer, u64)>,
    pub trace: Trace,
    /// Seconds from the end of the warm-up to the last completed operation.
    pub wall: f64,
    pub clients: usize,
    pub metrics_start: ServeMetrics,
    pub metrics_end: ServeMetrics,
    pub proc_start: ProcSample,
    pub proc_end: ProcSample,
    pub voluntary_switches: u64,
    pub peak_rss_mb: f64,
}

/// Equal windows the measured span is split into for the medians of
/// throughput, `query_p50_ms` and `query_p90_ms`.
pub const WINDOWS: usize = 5;

impl LoopResult {
    /// Completed operations per second: the median over windows.
    pub fn throughput(&self) -> f64 {
        let events: Vec<(f64, f64)> = self.op_ends.iter().map(|&t| (t, 1.0)).collect();
        windowed_median(&events, self.wall, WINDOWS, |s, len| s.len() as f64 / len)
    }
}

pub fn closed_loop(server: &RankServer, rel: RelationId, cfg: &LoopConfig) -> LoopResult {
    let origin = Instant::now();
    let warm_end = origin + cfg.warmup;
    let stop = warm_end + cfg.measure;
    let (logs, metrics_start, proc_start) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|c| s.spawn(move || client(server, rel, cfg, c, origin, warm_end, stop)))
            .collect();
        std::thread::sleep(warm_end.saturating_duration_since(Instant::now()));
        let metrics_start = server.metrics();
        let proc_start = ProcSample::now();
        let logs: Vec<ClientLog> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (logs, metrics_start, proc_start)
    });
    let metrics_end = server.metrics();
    let proc_end = ProcSample::now();
    let last_end = logs.iter().filter_map(|l| l.last_end).max().unwrap_or(stop);
    // Live-thread counts at the start include the clients; they report
    // their own totals before exiting.
    let client_switches: u64 = logs.iter().map(|l| l.switches).sum();
    let mut out = LoopResult {
        queries: Vec::new(),
        mutations: Samples::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        op_ends: Vec::new(),
        latencies: Vec::new(),
        answers: Vec::new(),
        trace: Trace::new(),
        wall: last_end.saturating_duration_since(warm_end).as_secs_f64(),
        clients: cfg.clients,
        metrics_start,
        metrics_end,
        proc_start,
        proc_end,
        voluntary_switches: (proc_end.voluntary_switches + client_switches)
            .saturating_sub(proc_start.voluntary_switches),
        peak_rss_mb: procfs::peak_rss_mb(),
    };
    for log in logs {
        out.queries.extend(log.queries);
        out.mutations.extend(&log.mutations);
        out.attempted += log.attempted;
        out.failed += log.failed;
        out.errors.extend(log.errors);
        out.op_ends.extend(log.op_ends);
        out.latencies.extend(log.latencies);
        for (i, distinct) in log.answers {
            out.answers
                .extend(distinct.into_iter().map(|(a, n)| (i, a, n)));
        }
        out.trace.absorb(log.trace);
    }
    out
}

fn client(
    server: &RankServer,
    rel: RelationId,
    cfg: &LoopConfig,
    c: usize,
    origin: Instant,
    warm_end: Instant,
    stop: Instant,
) -> ClientLog {
    let mut rng = inputs::rng(cfg.seed, 100 + c as u64);
    let mut log = ClientLog::default();
    let secs = |t: Instant| t.duration_since(origin).as_secs_f64();
    let warm = secs(warm_end);
    let mut request = (c as u64) << 40;
    loop {
        let op = (cfg.next_op)(&mut rng);
        let t0 = Instant::now();
        if t0 >= stop {
            break;
        }
        let measured = t0 >= warm_end;
        request += 1;
        match op {
            Op::Query(i) => {
                let handle = server.submit(rel, cfg.pool[i].clone());
                let t1 = Instant::now();
                let res = handle.and_then(|h| h.recv());
                let t2 = Instant::now();
                if !measured {
                    continue;
                }
                log.attempted += 1;
                log.last_end = Some(t2);
                match res {
                    Ok(r) => {
                        let sample = sample_of(&r, t0, t1, t2);
                        let end = secs(t2) - warm;
                        log.op_ends.push(end);
                        log.latencies.push((end, sample.latency * 1e3));
                        if cfg.trace {
                            trace_query(
                                &mut log.trace,
                                cfg,
                                &sample,
                                [t0, t1, t2].map(secs),
                                request,
                            );
                        }
                        if cfg.keep_answers {
                            let answer = Answer::of(&r);
                            let seen = log.answers.entry(i).or_default();
                            match seen.iter_mut().find(|(a, _)| a.same(&answer)) {
                                Some((_, n)) => *n += 1,
                                None => seen.push((answer, 1)),
                            }
                        }
                        log.queries.push(sample);
                    }
                    Err(e) => {
                        log.failed += 1;
                        log.errors.push(format!("query {i}: {e}"));
                    }
                }
            }
            Op::Mutate(m) => {
                let handle = server.apply(rel, m.clone());
                let t1 = Instant::now();
                let res = handle.and_then(|h| h.recv());
                let t2 = Instant::now();
                if !measured {
                    continue;
                }
                log.attempted += 1;
                log.last_end = Some(t2);
                match res {
                    Ok(_) => {
                        log.op_ends.push(secs(t2) - warm);
                        log.mutations.push(t2.duration_since(t0).as_secs_f64());
                        if cfg.trace {
                            let [s0, s1, s2] = [t0, t1, t2].map(secs);
                            let root = log.trace.push("client.op", "client", s0, s2, None, request);
                            log.trace
                                .push("serve.apply", "serve", s0, s1, Some(root), request);
                            log.trace.push(
                                "serve.mutation_recv",
                                "serve",
                                s1,
                                s2,
                                Some(root),
                                request,
                            );
                        }
                    }
                    Err(e) => {
                        log.failed += 1;
                        log.errors.push(format!("mutation {m:?}: {e}"));
                    }
                }
            }
        }
    }
    log.switches = procfs::thread_switches();
    log
}

fn sample_of(r: &RankedResult, t0: Instant, t1: Instant, t2: Instant) -> QuerySample {
    let serve = r.report.serve;
    QuerySample {
        latency: t2.duration_since(t0).as_secs_f64(),
        submit: t1.duration_since(t0).as_secs_f64(),
        hit: serve.is_some_and(|s| s.served_from_cache),
        queue: serve.map_or(0.0, |s| s.queue_seconds),
        total: r.report.total_seconds,
        kernel: r.report.kernel_seconds,
        batch: r.report.batch,
        peak_coefficients: r.report.memory.map(|m| m.peak_coefficients),
    }
}

/// Spans of one answered query. A cache hit gets only the two measured
/// spans: its report's timings describe the evaluation that filled the
/// cache. An evaluated answer also gets the queue wait, walk and
/// finalisation its report attributes to it, laid out from the flush start
/// and clipped to the round trip.
fn trace_query(trace: &mut Trace, cfg: &LoopConfig, s: &QuerySample, t: [f64; 3], req: u64) {
    let [t0, t1, t2] = t;
    let root = trace.push("client.op", "client", t0, t2, None, req);
    trace.push("serve.submit", "serve", t0, t1, Some(root), req);
    let recv = trace.push("serve.recv", "serve", t1, t2, Some(root), req);
    if s.hit {
        return;
    }
    let flush_start = (t0 + s.queue).clamp(t1, t2);
    trace.push(
        "serve.queue_wait",
        "serve",
        t1,
        flush_start,
        Some(recv),
        req,
    );
    match s.batch {
        Some(b) => {
            let walk_end = (flush_start + b.walk_seconds).min(t2);
            trace.push(
                "query.walk",
                cfg.walk_layer,
                flush_start,
                walk_end,
                Some(recv),
                req,
            );
            let fin_end = (walk_end + (s.total - s.kernel).max(0.0)).min(t2);
            trace.push(
                "query.finalize",
                "query",
                walk_end,
                fin_end,
                Some(recv),
                req,
            );
        }
        None => {
            let end = (flush_start + s.total).min(t2);
            trace.push(
                "query.single",
                cfg.walk_layer,
                flush_start,
                end,
                Some(recv),
                req,
            );
        }
    }
}
