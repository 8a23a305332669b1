//! Criterion benchmarks for the serving layer: a [`RankServer`] replaying
//! a mixed-semantics trace from 1/4/16 concurrent client threads vs the
//! same trace dispatched as individual [`RankQuery`] runs.
//!
//! The acceptance workload (EXPERIMENTS.md "Serving layer") is the
//! Syn-MED 10k tree with a 24-query trace mixing PT at several horizons,
//! a tabulated PRFω, PRFe at several α, and E-Rank — the shapes a serving
//! mix actually interleaves. Batched serving must reach **≥ 1.5×** the
//! single-dispatch throughput: with a 2 ms deadline the whole trace
//! collapses into a handful of flushes, each one shared score-order walk.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::thread;
use std::time::Duration;

use prf_core::query::{Algorithm, RankQuery};
use prf_core::weights::TabulatedWeight;
use prf_datasets::syn_med_tree;
use prf_serve::{QueryError, RankServer, ServeConfig, SubmitOptions};

/// `true` under `cargo bench` (measure mode), `false` under `cargo test`
/// (smoke mode) — the same flag the criterion shim keys on. Smoke mode
/// shrinks the workload: CI only needs every code path exercised once,
/// not the acceptance-sized measurement.
fn measure_mode() -> bool {
    std::env::args().any(|a| a == "--bench")
}

/// The mixed-semantics serving trace: `len` queries cycling through six
/// shared-walk shapes (every one exact on the tree backend).
fn trace(len: usize) -> Vec<RankQuery> {
    let omega: Vec<f64> = (0..100).map(|i| 1.0 / (1.0 + i as f64)).collect();
    (0..len)
        .map(|i| match i % 6 {
            0 => RankQuery::pt(100),
            1 => RankQuery::pt(25 + (i % 4) * 25),
            2 => RankQuery::prf(TabulatedWeight::from_real(&omega)),
            3 => RankQuery::prfe(0.95).algorithm(Algorithm::ExactGf),
            4 => RankQuery::prfe(0.80 + 0.01 * (i % 10) as f64).algorithm(Algorithm::ExactGf),
            _ => RankQuery::erank(),
        })
        .collect()
}

/// Replays the trace through a fresh server from `clients` threads,
/// blocking on every response (so a benchmark iteration measures complete
/// end-to-end service, shutdown included).
fn replay(tree: &prf_pdb::AndXorTree, queries: &[RankQuery], clients: usize) {
    // Cache off: the trace repeats query shapes, and this group measures
    // walk sharing, not result reuse (that's `serve_cache`).
    let server = RankServer::new(
        ServeConfig::new()
            .max_delay(Duration::from_millis(2))
            .max_batch(32)
            .cache_enabled(false),
    );
    let rel = server.register("syn-med", tree.clone());
    thread::scope(|s| {
        for c in 0..clients {
            let server = &server;
            s.spawn(move || {
                for (i, q) in queries.iter().enumerate() {
                    if i % clients != c {
                        continue;
                    }
                    let handle = server.submit(rel, q.clone()).expect("server is up");
                    black_box(handle.recv().expect("query succeeds"));
                }
            });
        }
    });
    server.shutdown();
}

fn bench_serve_vs_single_dispatch(c: &mut Criterion) {
    // Acceptance size (Syn-MED 10k, 24 queries) when measuring; a small
    // stand-in under `cargo test` so the smoke pass stays fast in debug.
    let (n, len) = if measure_mode() {
        (10_000, 24)
    } else {
        (500, 12)
    };
    let tree = syn_med_tree(n, 3);
    let queries = trace(len);
    let mut g = c.benchmark_group("serve_syn_med_10k");
    g.sample_size(3); // each iteration answers 24 queries over 10k tuples

    g.bench_function("single_dispatch_24", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(q.run(&tree).expect("single query on Syn-MED"));
            }
        })
    });
    for clients in [1usize, 4, 16] {
        g.bench_function(format!("served_24/{clients}_clients"), |b| {
            b.iter(|| replay(&tree, &queries, clients))
        });
    }
    g.finish();
}

/// Serving layer v2: a multi-relation trace with 16 clients, 1 worker vs
/// 4 — one worker serializes every relation's flushes behind each other;
/// the pool overlaps them, which is where the v2 throughput comes from.
fn bench_serve_worker_pool(c: &mut Criterion) {
    let (n, len) = if measure_mode() {
        (10_000, 24)
    } else {
        (500, 12)
    };
    let trees: Vec<prf_pdb::AndXorTree> = [n / 2, n / 3, n / 6]
        .iter()
        .map(|&m| syn_med_tree(m, 3))
        .collect();
    let queries = trace(3 * len);
    let mut g = c.benchmark_group("serve_multi_relation_16_clients");
    g.sample_size(3);
    for workers in [1usize, 4] {
        g.bench_function(format!("{workers}_workers"), |b| {
            b.iter(|| {
                let server = RankServer::new(
                    ServeConfig::new()
                        .max_delay(Duration::from_millis(2))
                        .max_batch(32)
                        .workers(workers)
                        .cache_enabled(false),
                );
                let rels: Vec<_> = trees
                    .iter()
                    .enumerate()
                    .map(|(i, t)| server.register(format!("syn-med-{i}"), t.clone()))
                    .collect();
                thread::scope(|s| {
                    for c in 0..16usize {
                        let server = &server;
                        let rels = &rels;
                        let queries = &queries;
                        s.spawn(move || {
                            for (i, q) in queries.iter().enumerate() {
                                if i % 16 != c {
                                    continue;
                                }
                                let handle =
                                    server.submit(rels[i % 3], q.clone()).expect("server is up");
                                black_box(handle.recv().expect("query succeeds"));
                            }
                        });
                    }
                });
                server.shutdown();
            })
        });
    }
    g.finish();
}

fn bench_serve_latency_floor(c: &mut Criterion) {
    // The other end of the spectrum: a single client, zero deadline — the
    // server degenerates to immediate dispatch, so this pins the serving
    // layer's per-query overhead (queueing, wake-up, channel hop) against
    // a direct run of the same query.
    let tree = syn_med_tree(2_000, 3);
    let q = RankQuery::prfe(0.9).algorithm(Algorithm::ExactGf);
    let mut g = c.benchmark_group("serve_overhead_syn_med_2k");
    g.sample_size(10);
    g.bench_function("direct_prfe", |b| {
        b.iter(|| black_box(q.run(&tree).expect("direct")))
    });
    g.bench_function("served_prfe_zero_deadline", |b| {
        // Cache off: every iteration repeats the same query, and the floor
        // being pinned is the *evaluated* round trip.
        let server = RankServer::new(
            ServeConfig::new()
                .max_delay(Duration::ZERO)
                .cache_enabled(false),
        );
        let rel = server.register("syn-med-2k", tree.clone());
        b.iter(|| {
            black_box(
                server
                    .submit(rel, q.clone())
                    .expect("server is up")
                    .recv()
                    .expect("query succeeds"),
            )
        });
        server.shutdown();
    });
    g.finish();
}

/// Per-query deadlines (serving v3; the group keeps its original
/// `serve_deadline_classes` ID): what per-query deadline tracking costs,
/// and what an expired deadline saves.
///
/// * `tracked_vs_plain` — the same zero-deadline PRF^e round-trip through
///   `submit_with(SubmitOptions::deadline(..))` vs plain `submit`: the
///   tracked path allocates a cancel token and checks it at dequeue, and
///   that delta is the whole timeout-enforcement overhead.
/// * `expired_shed` — a burst of 64 already-expired submissions resolves
///   entirely to `TimedOut` at dequeue, *without* touching the kernels;
///   against the same burst evaluated for real, the gap is the work an
///   enforced deadline sheds.
fn bench_serve_deadline_classes(c: &mut Criterion) {
    let n = if measure_mode() { 2_000 } else { 300 };
    let tree = syn_med_tree(n, 3);
    let q = RankQuery::prfe(0.9).algorithm(Algorithm::ExactGf);
    let mut g = c.benchmark_group("serve_deadline_classes");
    g.sample_size(10);

    g.bench_function("plain_prfe_zero_deadline", |b| {
        let server = RankServer::new(
            ServeConfig::new()
                .max_delay(Duration::ZERO)
                .cache_enabled(false),
        );
        let rel = server.register("syn-med", tree.clone());
        b.iter(|| {
            black_box(
                server
                    .submit(rel, q.clone())
                    .expect("server is up")
                    .recv()
                    .expect("query succeeds"),
            )
        });
        server.shutdown();
    });
    g.bench_function("tracked_prfe_zero_deadline", |b| {
        let server = RankServer::new(
            ServeConfig::new()
                .max_delay(Duration::ZERO)
                .cache_enabled(false),
        );
        let rel = server.register("syn-med", tree.clone());
        let opts = SubmitOptions::new().deadline(Duration::from_secs(3600));
        b.iter(|| {
            black_box(
                server
                    .submit_with(rel, q.clone(), opts)
                    .expect("server is up")
                    .recv()
                    .expect("query succeeds"),
            )
        });
        server.shutdown();
    });

    let burst = if measure_mode() { 64usize } else { 8 };
    g.bench_function(format!("expired_shed_{burst}"), |b| {
        let server = RankServer::new(
            ServeConfig::new()
                .max_delay(Duration::from_millis(1))
                .max_batch(burst),
        );
        let rel = server.register("syn-med", tree.clone());
        let opts = SubmitOptions::new().deadline(Duration::ZERO);
        b.iter(|| {
            let handles: Vec<_> = (0..burst)
                .map(|_| {
                    server
                        .submit_with(rel, q.clone(), opts)
                        .expect("server is up")
                })
                .collect();
            for h in handles {
                assert!(matches!(h.recv(), Err(QueryError::TimedOut)));
            }
        });
        server.shutdown();
    });
    g.bench_function(format!("evaluated_burst_{burst}"), |b| {
        // Cache (and with it coalescing) off: the burst is 64 *identical*
        // queries, and this side of the comparison must evaluate them all.
        let server = RankServer::new(
            ServeConfig::new()
                .max_delay(Duration::from_millis(1))
                .max_batch(burst)
                .cache_enabled(false),
        );
        let rel = server.register("syn-med", tree.clone());
        b.iter(|| {
            let handles: Vec<_> = (0..burst)
                .map(|_| server.submit(rel, q.clone()).expect("server is up"))
                .collect();
            for h in handles {
                black_box(h.recv().expect("query succeeds"));
            }
        });
        server.shutdown();
    });
    g.finish();
}

/// Result cache: a repeated identical query on an unchanged relation is
/// served straight from the per-relation cache — no walk, no batch plan.
///
/// * `repeat_evaluated_cache_off` — the baseline: the same PRF^e query
///   round-tripped with the cache disabled, re-evaluated every time.
/// * `repeat_cache_hit` — the cache warm, every iteration a hit (asserted
///   through `served_from_cache` and the `cache_hits` counter).
///
/// Beyond the criterion numbers, the group **enforces** the acceptance
/// bound outright: on the 10k-tuple relation the cached round trip must be
/// at least 10× faster than re-evaluating (in practice it is orders of
/// magnitude — microseconds of channel hop against a 10k-tuple walk).
fn bench_serve_cache(c: &mut Criterion) {
    let n = if measure_mode() { 10_000 } else { 2_000 };
    let tree = syn_med_tree(n, 3);
    let q = RankQuery::prfe(0.9).algorithm(Algorithm::ExactGf);
    let mut g = c.benchmark_group("serve_cache");
    g.sample_size(10);

    g.bench_function("repeat_evaluated_cache_off", |b| {
        let server = RankServer::new(
            ServeConfig::new()
                .max_delay(Duration::ZERO)
                .cache_enabled(false),
        );
        let rel = server.register("syn-med", tree.clone());
        b.iter(|| {
            let r = server
                .submit(rel, q.clone())
                .expect("server is up")
                .recv()
                .expect("query succeeds");
            assert!(!r.report.serve.as_ref().expect("served").served_from_cache);
            black_box(r)
        });
        server.shutdown();
    });
    g.bench_function("repeat_cache_hit", |b| {
        let server = RankServer::new(ServeConfig::new().max_delay(Duration::ZERO));
        let rel = server.register("syn-med", tree.clone());
        // Warm: the first submission evaluates and populates the cache.
        server
            .submit(rel, q.clone())
            .expect("server is up")
            .recv()
            .expect("warm-up succeeds");
        b.iter(|| {
            let r = server
                .submit(rel, q.clone())
                .expect("server is up")
                .recv()
                .expect("query succeeds");
            assert!(r.report.serve.as_ref().expect("served").served_from_cache);
            black_box(r)
        });
        assert!(server.metrics().cache_hits > 0, "hits were really counted");
        server.shutdown();
    });
    g.finish();

    // The enforced bound. Minimum evaluated time (most favorable to the
    // baseline) against the median cached time: ≥ 10× is a generous floor
    // for a walk vs a lookup, and holds in debug smoke builds too.
    let server = RankServer::new(ServeConfig::new().max_delay(Duration::ZERO));
    let rel = server.register("syn-med", tree.clone());
    let timed = |expect_hit: bool| {
        let start = std::time::Instant::now();
        let r = server
            .submit(rel, q.clone())
            .expect("server is up")
            .recv()
            .expect("query succeeds");
        assert_eq!(
            r.report.serve.as_ref().expect("served").served_from_cache,
            expect_hit
        );
        start.elapsed()
    };
    let evaluated = timed(false); // cold: populates the cache
    let mut hits: Vec<Duration> = (0..15).map(|_| timed(true)).collect();
    hits.sort();
    let hit_median = hits[hits.len() / 2];
    let metrics = server.metrics();
    assert!(metrics.cache_hits >= 15, "every repeat hit the cache");
    server.shutdown();
    assert!(
        evaluated >= 10 * hit_median,
        "cached round trip must be ≥10× faster: evaluated {evaluated:?}, hit median {hit_median:?}"
    );
}

criterion_group!(
    benches,
    bench_serve_vs_single_dispatch,
    bench_serve_worker_pool,
    bench_serve_latency_floor,
    bench_serve_deadline_classes,
    bench_serve_cache
);
criterion_main!(benches);
