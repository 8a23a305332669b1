//! The metric catalogue and the result line.
//!
//! `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json`: an untraced run
//! prints every end-to-end metric, a traced run every per-layer metric, on
//! every workload. A per-layer metric of a layer a workload does not use
//! reads 0.

use std::collections::BTreeMap;

use crate::served::{LoopResult, WINDOWS};
use crate::stats::{median_of, windowed_median, Samples};

/// `(name, unit)` of the end-to-end metrics.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of the per-layer metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.submit_us_p50", "us"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.cache_hit_ms_p50", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_invalidations", "count"),
    ("serve.flush_size_mean", "count"),
    ("serve.deliver_ms_p50", "ms"),
    ("serve.failures", "count"),
    ("query.walk_ms_p50", "ms"),
    ("query.walk_ms_p99", "ms"),
    ("query.walk_sharing", "count"),
    ("query.finalize_ms_p50", "ms"),
    ("query.single_route_ratio", "ratio"),
    ("query.prepare_ms", "ms"),
    ("tree.walk_ms.pt", "ms"),
    ("tree.walk_ms.prfw", "ms"),
    ("tree.walk_ms.prfe", "ms"),
    ("tree.walk_ms.erank", "ms"),
    ("tree.peak_coefficients", "count"),
    ("independent.walk_ms", "ms"),
    ("shard.prefix_ms", "ms"),
    ("shard.one_shard_ms", "ms"),
    ("shard.overhead_ratio", "ratio"),
    ("shard.speedup", "ratio"),
    ("live.apply_us_p50", "us"),
    ("live.apply_us_p99", "us"),
    ("live.requery_ms", "ms"),
    ("live.rebuild_ratio", "ratio"),
    ("live.mutation_p50_ms", "ms"),
    ("live.mutation_p99_ms", "ms"),
    ("setup.build_s", "s"),
    ("setup.register_s", "s"),
    ("proc.cpu_util", "ratio"),
    ("proc.ctx_switches", "1/op"),
    ("trace.overhead_ops_s", "1/s"),
    ("trace.coverage", "ratio"),
    ("trace.self_share.serve", "ratio"),
    ("trace.self_share.query", "ratio"),
    ("trace.self_share.tree", "ratio"),
    ("trace.self_share.independent", "ratio"),
    ("trace.self_share.shard", "ratio"),
];

/// Layers whose self time the trace attributes, with their metric.
const TRACE_LAYERS: &[(&str, &str)] = &[
    ("serve", "trace.self_share.serve"),
    ("query", "trace.self_share.query"),
    ("tree", "trace.self_share.tree"),
    ("independent", "trace.self_share.independent"),
    ("shard", "trace.self_share.shard"),
];

pub type Metrics = BTreeMap<&'static str, f64>;

/// The wall-clock split of one set-up: backend built, registered or
/// prepared, first answer returned.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    pub build: f64,
    pub register: f64,
    pub total: f64,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    pub errors: Vec<String>,
    pub e2e: Metrics,
    pub layer: Metrics,
    /// Human-readable extras for the summary on standard error.
    pub notes: Vec<String>,
}

impl Report {
    pub fn setup(&mut self, times: &[SetupTimes]) {
        let pick = |f: fn(&SetupTimes) -> f64| median_of(&times.iter().map(f).collect::<Vec<_>>());
        let (build, register) = (pick(|t| t.build), pick(|t| t.register));
        self.e2e.insert("setup_s", pick(|t| t.total));
        self.layer.insert("setup.build_s", build);
        self.layer.insert("setup.register_s", register);
        self.notes.push(format!(
            "setup: {} repetitions; medians build {build:.6} s + register {register:.6} s, \
             the rest of setup_s is the first answer",
            times.len()
        ));
    }

    /// Counts a loop's operations and failures.
    pub fn count(&mut self, lr: &LoopResult) {
        self.attempted += lr.attempted;
        self.failed += lr.failed;
        self.errors.extend(lr.errors.iter().cloned());
    }

    /// Records an oracle verdict on an answer served `times` times.
    pub fn verdict(&mut self, times: u64, what: impl FnOnce() -> String, res: Result<(), String>) {
        if let Err(e) = res {
            self.failed += times;
            self.mismatches.push(format!("{}: {e}", what()));
        }
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.failed == 0
    }

    /// The end-to-end latency, throughput and memory of a loop. Latency
    /// percentiles and throughput are medians over windows of the measured
    /// span; with few samples a window's p99 is its slowest sample.
    pub fn latency_e2e(&mut self, lr: &LoopResult) {
        let windowed =
            |q: f64| windowed_median(&lr.latencies, lr.wall, WINDOWS, |s, _| s.percentile(q));
        self.e2e.insert("query_p50_ms", windowed(50.0));
        self.e2e.insert("query_p90_ms", windowed(90.0));
        self.e2e.insert("query_p99_ms", windowed(99.0));
        self.e2e.insert("throughput_ops_s", lr.throughput());
        self.e2e.insert("peak_rss_mb", lr.peak_rss_mb);
        self.notes.push(format!(
            "query latency samples: {} over {WINDOWS} windows",
            lr.latencies.len()
        ));
    }

    /// The served-loop metrics shared by both served workloads.
    pub fn served(&mut self, lr: &LoopResult) {
        self.latency_e2e(lr);
        let mut muts = Samples::new();
        muts.extend(&lr.mutations);
        let (m50, m99) = (muts.percentile(50.0) * 1e3, muts.percentile(99.0) * 1e3);
        self.layer.insert("live.mutation_p50_ms", m50);
        self.layer.insert("live.mutation_p99_ms", m99);
        if !muts.is_empty() {
            self.notes.push(format!(
                "mutation_p50_ms {m50:.4} ms, mutation_p99_ms {m99:.4} ms ({} samples)",
                muts.len()
            ));
        }
        self.proc(lr);
    }

    pub fn proc(&mut self, lr: &LoopResult) {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.layer.insert(
            "proc.cpu_util",
            crate::procfs::cpu_util(&lr.proc_start, &lr.proc_end, cpus),
        );
        self.layer.insert(
            "proc.ctx_switches",
            lr.voluntary_switches as f64 / lr.attempted.max(1) as f64,
        );
        self.notes.push(format!("nproc: {cpus}"));
    }

    /// Per-layer numbers of a traced served loop; `untraced` is the same
    /// loop without spans, for the tracing overhead.
    pub fn served_layers(&mut self, lr: &LoopResult, untraced: &LoopResult) {
        let (mut submit, mut queue, mut hit, mut deliver) = (
            Samples::new(),
            Samples::new(),
            Samples::new(),
            Samples::new(),
        );
        let (mut walk, mut finalize, mut sharing) =
            (Samples::new(), Samples::new(), Samples::new());
        let (mut evaluated, mut single) = (0usize, 0usize);
        for q in &lr.queries {
            submit.push(q.submit * 1e6);
            if q.hit {
                // A hit's report describes the evaluation that filled the
                // cache: only its round trip is this delivery's.
                hit.push(q.latency * 1e3);
                continue;
            }
            evaluated += 1;
            queue.push(q.queue * 1e3);
            deliver.push((q.latency - q.queue - q.total).max(0.0) * 1e3);
            finalize.push((q.total - q.kernel).max(0.0) * 1e3);
            match q.batch {
                Some(b) => {
                    walk.push(b.walk_seconds * 1e3);
                    sharing.push(b.consumers as f64);
                }
                None => single += 1,
            }
        }
        let (m0, m1) = (&lr.metrics_start, &lr.metrics_end);
        let hits = m1.cache_hits - m0.cache_hits;
        let misses = m1.cache_misses - m0.cache_misses;
        let l = &mut self.layer;
        l.insert("serve.submit_us_p50", submit.percentile(50.0));
        l.insert("serve.queue_wait_ms_p50", queue.percentile(50.0));
        l.insert("serve.queue_wait_ms_p99", queue.percentile(99.0));
        l.insert("serve.cache_hit_ms_p50", hit.percentile(50.0));
        l.insert(
            "serve.cache_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        );
        l.insert(
            "serve.cache_invalidations",
            (m1.cache_invalidations - m0.cache_invalidations) as f64,
        );
        l.insert(
            "serve.flush_size_mean",
            ratio(
                (m1.flushed_queries - m0.flushed_queries) as f64,
                (m1.flushes - m0.flushes) as f64,
            ),
        );
        l.insert("serve.deliver_ms_p50", deliver.percentile(50.0));
        l.insert(
            "serve.failures",
            ((m1.shed + m1.timed_out + m1.panics_caught)
                - (m0.shed + m0.timed_out + m0.panics_caught)) as f64,
        );
        l.insert("query.walk_ms_p50", walk.percentile(50.0));
        l.insert("query.walk_ms_p99", walk.percentile(99.0));
        l.insert("query.walk_sharing", sharing.mean());
        l.insert("query.finalize_ms_p50", finalize.percentile(50.0));
        l.insert(
            "query.single_route_ratio",
            ratio(single as f64, evaluated as f64),
        );
        self.trace(lr, untraced.throughput());
    }

    /// Trace-derived numbers: how much of the clients' wall time the
    /// blocking-path spans cover, each layer's share of it, and the
    /// tracing overhead.
    pub fn trace(&mut self, lr: &LoopResult, untraced_throughput: f64) {
        let root = lr.trace.root_time();
        let client_wall = lr.wall * lr.clients as f64;
        let by_layer = lr.trace.self_time_by_layer();
        let l = &mut self.layer;
        l.insert(
            "trace.overhead_ops_s",
            untraced_throughput - lr.throughput(),
        );
        l.insert("trace.coverage", ratio(root, client_wall));
        for (layer, name) in TRACE_LAYERS {
            l.insert(
                name,
                ratio(by_layer.get(layer).copied().unwrap_or(0.0), root),
            );
        }
        self.notes.push(format!(
            "trace: {} spans; blocking-path spans cover {:.1}% of {:.3} s client wall time, \
             uncovered remainder {:.3} s (operation draw and bookkeeping between calls)",
            lr.trace.spans().len(),
            100.0 * ratio(root, client_wall),
            client_wall,
            (client_wall - root).max(0.0),
        ));
    }

    /// The result line: every metric of the run's kind, by name.
    pub fn json(&self, traced: bool) -> String {
        let (table, values) = if traced {
            (PER_LAYER, &self.layer)
        } else {
            (END_TO_END, &self.e2e)
        };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = values.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Every metric measured, with units, for a reader.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let error_rate = ratio(self.failed as f64, self.attempted.max(1) as f64);
        for (table, values) in [(END_TO_END, &self.e2e), (PER_LAYER, &self.layer)] {
            for (name, unit) in table {
                if let Some(v) = values.get(name) {
                    out.push_str(&format!("{name:<32} {v:>14.6} {unit}\n"));
                }
            }
        }
        out.push_str(&format!(
            "{:<32} {error_rate:>14.6} ratio ({} failed of {} attempted)\n",
            "error_rate", self.failed, self.attempted
        ));
        for n in &self.notes {
            out.push_str(&format!("# {n}\n"));
        }
        for m in self.mismatches.iter().chain(&self.errors).take(20) {
            out.push_str(&format!("! {m}\n"));
        }
        out
    }
}

pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}
