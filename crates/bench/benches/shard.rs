//! Criterion benchmarks for [`ShardedRelation`]: the fig 11(i) serving
//! batch (PRFe(0.95) + PT(100) + E-Rank as one top-100 `QueryBatch`) on
//! the IIP instance, unsharded vs 4 score-contiguous shards, each
//! sharded configuration running its shard phases on `w` worker threads
//! (`ShardedRelation::new(.., w)`) plus `QueryBatch::parallel(w)` batch
//! threads (which also fan the per-entry finalization out), plus one
//! shard's standalone walk (the phase-B critical path on an idle
//! multi-core host).
//!
//! Reading the numbers: the `sharded_4x/*_workers` p50s fall with the
//! worker count up to the host's core count and flatten beyond it (on
//! one core they coincide, since wall ≈ total work there). The
//! `sharded_4x/1_workers : unsharded` ratio is the monoid's work
//! overhead (phase A's presence-GF pass — a second data pass for PT's
//! coefficient prefix).
//!
//! Measure mode runs the paper-scale n = 10⁶; smoke mode (CI test job)
//! shrinks to n = 20 000 so the debug-profile single pass stays fast.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use prf_core::query::{Algorithm, ProbabilisticRelation, QueryBatch, RankQuery};
use prf_core::{ShardHandle, ShardedRelation};
use prf_datasets::iip_db;
use prf_pdb::IndependentDb;

const SEED: u64 = 20090412;
const SHARDS: usize = 4;
const TOP_K: usize = 100;

fn measure_mode() -> bool {
    std::env::args().any(|a| a == "--bench")
}

fn sorted_pairs(n: usize) -> Vec<(f64, f64)> {
    let db = iip_db(n, SEED);
    let mut pairs: Vec<(f64, f64)> = db
        .tuple_scores()
        .into_iter()
        .zip(db.tuple_marginals())
        .collect();
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
    pairs
}

fn slice_db(pairs: &[(f64, f64)]) -> IndependentDb {
    IndependentDb::from_pairs(pairs.iter().copied()).expect("valid pairs")
}

fn equal_shards(pairs: &[(f64, f64)]) -> Vec<ShardHandle> {
    let n = pairs.len();
    (0..SHARDS)
        .map(|i| Arc::new(slice_db(&pairs[i * n / SHARDS..(i + 1) * n / SHARDS])) as ShardHandle)
        .collect()
}

fn fig11_batch() -> Vec<RankQuery> {
    vec![
        RankQuery::prfe(0.95).algorithm(Algorithm::LogDomain),
        RankQuery::pt(100),
        RankQuery::erank(),
    ]
}

fn run_batch(rel: &(impl ProbabilisticRelation + ?Sized), queries: &[RankQuery], threads: usize) {
    black_box(
        QueryBatch::new()
            .add_queries(queries.iter().cloned())
            .top_k(TOP_K)
            .parallel(threads)
            .run(rel)
            .expect("independent backends"),
    );
}

fn bench_shard_scaling(c: &mut Criterion) {
    let n = if measure_mode() { 1_000_000 } else { 20_000 };
    let pairs = sorted_pairs(n);
    let queries = fig11_batch();
    let unsharded = slice_db(&pairs);
    let one_shard = slice_db(&pairs[..n / SHARDS]);

    let mut g = c.benchmark_group(format!("shard_scaling_iip_{n}"));
    g.sample_size(3);
    g.bench_function("unsharded", |b| {
        b.iter(|| run_batch(&unsharded, &queries, 1))
    });
    for workers in [1usize, 2, 4] {
        let sharded = ShardedRelation::new(equal_shards(&pairs), workers).expect("contiguous");
        g.bench_function(format!("sharded_4x/{workers}_workers"), |b| {
            b.iter(|| run_batch(&sharded, &queries, workers))
        });
    }
    // One quarter walked alone: the per-shard phase-B term of the modeled
    // critical path on idle cores (see the module docs).
    g.bench_function("one_shard_standalone", |b| {
        b.iter(|| run_batch(&one_shard, &queries, 1))
    });
    g.finish();
}

criterion_group!(benches, bench_shard_scaling);
criterion_main!(benches);
