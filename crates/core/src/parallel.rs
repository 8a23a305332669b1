//! The thread-parallel (sharded) form of the tree shared walk.
//!
//! The score-order walk of the incremental engine looks inherently serial —
//! every step depends on the previous labelling — but the fold state at any
//! position `i` is a pure function of the *labels* (tuples before `i` carry
//! `x`, the rest `1`), so a worker can **fast-forward**: build its evaluator
//! directly in the shard-start labelling with one `O(tree)` fold, then walk
//! only its shard. All workers share one compiled
//! [`EvalPlan`](crate::incremental::EvalPlan); total work is one extra fold
//! per worker on top of the serial incremental cost.
//!
//! `fork_join` is the crate's one way to run work on threads: this walk,
//! the batch finalize fan-out and both phases of a
//! [`ShardedRelation`](crate::shard::ShardedRelation) walk go through it.

use std::sync::Mutex;
use std::time::Instant;

use prf_pdb::AndXorTree;

use crate::incremental::GfStats;
use crate::query::batch::{SharedWalkOut, SharedWalkSpec};
use crate::tree::{BatchConsumers, BatchWalkers, TreePrepared};

/// Minimum tuples **per shard** for the sharded batch walk to beat the
/// serial incremental walk.
///
/// Shard setup used to cost one full `O(tree)` fast-forward fold per
/// worker per evaluator — 1.5–2.5× *slower* than serial at `n = 10⁴`
/// on Syn-MED trees, which put the original floor at `2¹⁵`. The workers
/// now share the fold prefix (one all-ones fold, bulk-advanced one chunk
/// per shard boundary and cloned — see
/// [`crate::incremental::IncrementalGf::set_leaves_bulk`]), leaving only
/// the serial sweep, one snapshot copy per worker, and the merge:
/// measured 8–19% total-work overhead at 2–4 threads for shards of
/// 2¹¹–2¹⁴ tuples (Syn-MED, PT(50)), i.e. an expected ≥ 3.4× four-way
/// speedup once cores are available. The floor drops 8× accordingly;
/// below 2¹² the per-shard walk no longer amortizes the snapshot copy
/// and scheduling granularity. An under-sharded walk merely runs serial
/// (correct, and still the faster choice on tiny batches).
pub const PARALLEL_MIN_SHARD_TUPLES: usize = 1 << 12;

/// The worker count a shared walk **actually** runs with once sharding is
/// gated on `n/threads` versus the fast-forward cost: the requested count
/// when every shard clears [`PARALLEL_MIN_SHARD_TUPLES`], serial (1)
/// otherwise. Exposed so callers (and the regression test pinning that
/// small-`n` batches resolve to the serial route) can inspect the decision
/// without running a walk.
pub fn effective_walk_threads(n: usize, requested: Option<usize>) -> usize {
    match requested {
        Some(t) if t > 1 && n / t >= PARALLEL_MIN_SHARD_TUPLES => t,
        _ => 1,
    }
}

/// Runs `jobs` on up to `threads` scoped threads that pull from one shared
/// job list, and returns the results in submission order. Runs inline when
/// `threads <= 1` or there is at most one job. A job's panic resumes on the
/// caller with its original payload (after every thread has stopped), so a
/// caught panic reports the job's own message.
///
/// Scoped jobs may borrow from the caller's stack; nothing outlives the
/// call. This is the one sanctioned thread spawn in this crate
/// (`clippy.toml` bans `std::thread::{spawn, scope}` elsewhere).
pub(crate) fn fork_join<T, F>(threads: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let threads = threads.min(jobs.len());
    if threads <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let drain = || {
        let mut done = Vec::new();
        loop {
            // Hold the queue lock only for the dequeue, never while
            // running a job.
            let next = crate::lock_recover(&queue).next();
            match next {
                Some((i, job)) => done.push((i, job())),
                None => return done,
            }
        }
    };
    #[allow(clippy::disallowed_methods)] // the sanctioned thread scope
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        // The caller only joins. Running jobs on it too measured 7× the
        // minor page faults per `topk_sharded` batch and a ~20% slower p50
        // on a 2-CPU host, most likely the allocator returning the calling
        // thread's freed walk buffers to the OS between batches.
        let helpers: Vec<_> = (0..threads).map(|_| scope.spawn(drain)).collect();
        helpers
            .into_iter()
            .flat_map(|helper| {
                helper
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, value)| value).collect()
}

/// The sharded form of [`crate::tree::batch_walk_tree`]: every worker
/// fast-forwards the full consumer set (the shared polynomial evaluator
/// plus one scalar evaluator per PRFe/E-Rank request) into its shard-start
/// labelling over **one** prepared skeleton (score order, marginals,
/// compiled [`EvalPlan`](crate::incremental::EvalPlan)), walks only its
/// shard as one [`fork_join`] job, and the shards' answers are merged. The
/// expected-ranks absent-worlds pass runs serially afterwards (it is `O(n)`
/// scalar work). Callers gate `threads` with [`effective_walk_threads`].
///
/// # Panics
/// Panics if `threads == 0` or the tree is empty (callers gate on `n > 0`).
pub(crate) fn batch_walk_tree_parallel(
    tree: &AndXorTree,
    spec: &SharedWalkSpec,
    threads: usize,
    prep: &TreePrepared,
) -> Option<SharedWalkOut> {
    assert!(threads > 0, "need at least one thread");
    let start = Instant::now();
    let n = tree.n_tuples();
    let consumers = BatchConsumers::parse(spec, n);
    let mut answers = spec.answer_buffers(n);
    let order = &prep.order;
    let pos = &prep.pos;
    let marginals = &prep.marginals;
    let plan = &prep.plan;

    let threads = threads.min(n);
    let chunk = n.div_ceil(threads);
    // Shared fold prefix: ONE all-ones fast-forward, then each shard's
    // start state is the previous one advanced by a single chunk of `x`/`α`
    // labels (bulk bottom-up sweep) and cloned — instead of every worker
    // re-folding the full consumer set from scratch.
    let mut snapshots = Vec::with_capacity(threads);
    {
        let mut base = BatchWalkers::fast_forward(plan, &consumers, |_| false);
        let mut prev_lo = 0usize;
        for w in 0..threads {
            let lo = w * chunk;
            let hi = ((w + 1) * chunk).min(n);
            if lo >= hi {
                continue; // rounding can leave trailing shards empty
            }
            if lo > prev_lo {
                base.advance_bulk(|u| {
                    let p = pos[u.index()];
                    prev_lo <= p && p < lo
                });
                prev_lo = lo;
            }
            snapshots.push((lo, hi, base.clone()));
        }
    }
    let jobs: Vec<_> = snapshots
        .into_iter()
        .map(|(lo, hi, mut walkers)| {
            let consumers = &consumers;
            move || {
                // Shard-sized buffers (position `i − lo`), not full-length
                // per worker.
                let mut local = spec.answer_buffers(hi - lo);
                for (i, &t) in order.iter().enumerate().take(hi).skip(lo) {
                    // Cooperative cancellation: every shard polls, and any
                    // tripped poll abandons the whole walk after the join.
                    if (i - lo) & 0xFF == 0 && spec.is_cancelled() {
                        return None;
                    }
                    walkers.step((i > lo).then(|| order[i - 1]), t);
                    let tv = crate::tree::tuple_view(tree, marginals, t);
                    walkers.extract(consumers, &tv, &mut local, i - lo);
                }
                Some((lo, hi, local, walkers.stats()))
            }
        })
        .collect();
    let shards = fork_join(jobs.len(), jobs);

    let mut stats = GfStats::default();
    for shard in shards {
        let (lo, hi, local, shard_stats) = shard?; // any cancelled shard abandons the walk
        for (j, &t) in order[lo..hi].iter().enumerate() {
            for (dst, src) in answers.iter_mut().zip(&local) {
                dst.copy_at(t.index(), src, j);
            }
        }
        stats = stats.merge(shard_stats);
    }
    crate::tree::finish_erank_answers(&consumers, plan, n, &mut answers);
    Some(SharedWalkOut {
        answers,
        stats: Some(stats),
        walk_seconds: start.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::query::batch::{SharedAnswer, SharedRequest};
    use crate::query::{CorrelationClass, ProbabilisticRelation};
    use crate::tree::{batch_walk_tree, prf_rank_tree};
    use crate::weights::{StepWeight, TabulatedWeight};
    use prf_numeric::Complex;

    #[test]
    fn fork_join_keeps_submission_order() {
        // More jobs than threads, with uneven run times so completion
        // order usually differs from submission order.
        let jobs: Vec<_> = (0..7u64)
            .map(|i| {
                move || {
                    std::thread::sleep(std::time::Duration::from_millis((7 - i) % 3));
                    i * i
                }
            })
            .collect();
        assert_eq!(fork_join(3, jobs), vec![0, 1, 4, 9, 16, 25, 36]);
    }

    #[test]
    fn fork_join_runs_jobs_concurrently() {
        // Each job waits for all three: this only finishes if the three
        // jobs run on three threads at once.
        let barrier = std::sync::Barrier::new(3);
        let jobs: Vec<_> = (0..3)
            .map(|i| {
                let barrier = &barrier;
                move || {
                    barrier.wait();
                    i
                }
            })
            .collect();
        assert_eq!(fork_join(3, jobs), vec![0, 1, 2]);
    }

    #[test]
    fn fork_join_runs_inline_without_parallelism() {
        let caller = std::thread::current().id();
        for threads in [0, 1] {
            let jobs: Vec<_> = (0..4)
                .map(|i| move || (i, std::thread::current().id()))
                .collect();
            for (i, (j, id)) in fork_join(threads, jobs).into_iter().enumerate() {
                assert_eq!((i, id), (j, caller), "threads = {threads}");
            }
        }
        let single = fork_join(8, vec![|| std::thread::current().id()]);
        assert_eq!(single, vec![caller], "one job runs inline");
    }

    #[test]
    fn fork_join_edge_sizes() {
        let none: Vec<fn() -> u8> = Vec::new();
        assert!(fork_join(4, none).is_empty());
        // More threads than jobs.
        let jobs: Vec<_> = (0..2).map(|i| move || i + 10).collect();
        assert_eq!(fork_join(16, jobs), vec![10, 11]);
    }

    #[test]
    fn fork_join_resumes_the_original_panic() {
        // The two jobs meet at a barrier, so they run on two threads at
        // once; one of them panics.
        let barrier = std::sync::Barrier::new(2);
        let jobs: Vec<_> = (0..2)
            .map(|i| {
                let barrier = &barrier;
                move || {
                    barrier.wait();
                    assert!(i != 1, "job {i} failed");
                    i
                }
            })
            .collect();
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fork_join(2, jobs)))
            .expect_err("job 1 panics");
        assert_eq!(crate::query::panic_reason(payload.as_ref()), "job 1 failed");
    }

    /// PT, tabulated PRFω, PRFe in plain and scaled arithmetic, E-Rank.
    fn mixed_spec() -> SharedWalkSpec {
        SharedWalkSpec::serial(vec![
            SharedRequest::Weight(Arc::new(StepWeight { h: 5 })),
            SharedRequest::Weight(Arc::new(TabulatedWeight::from_real(&[3.0, 2.0, 1.0, 0.5]))),
            SharedRequest::PrfeComplex(Complex::new(0.8, 0.2)),
            SharedRequest::PrfeScaled(Complex::real(0.6)),
            SharedRequest::ExpectedRanks,
        ])
    }

    /// Runs `spec` through the sharded walk at every thread count and
    /// checks each answer against the serial walk at relative `tol`.
    fn assert_sharded_matches_serial(
        tree: &AndXorTree,
        spec: &SharedWalkSpec,
        threads: &[usize],
        tol: f64,
        ctx: &str,
    ) {
        let close = |a: Complex, b: Complex| (a - b).abs() <= tol * b.abs().max(1.0);
        let prep = TreePrepared::new(tree);
        let serial = batch_walk_tree(tree, spec, &prep).unwrap().answers;
        for &t in threads {
            let sharded = batch_walk_tree_parallel(tree, spec, t, &prep).unwrap();
            for (r, (g, w)) in sharded.answers.iter().zip(&serial).enumerate() {
                let ok = match (g, w) {
                    (SharedAnswer::Complex(g), SharedAnswer::Complex(w)) => {
                        g.iter().zip(w).all(|(a, b)| close(*a, *b))
                    }
                    (SharedAnswer::Scaled(g), SharedAnswer::Scaled(w)) => g
                        .iter()
                        .zip(w)
                        .all(|(a, b)| close(a.to_plain(), b.to_plain())),
                    (SharedAnswer::Ranks(g), SharedAnswer::Ranks(w)) => {
                        g.iter().zip(w).all(|(a, b)| (a - b).abs() <= tol)
                    }
                    _ => false,
                };
                assert!(ok, "{ctx} threads {t} request {r}: {g:?} vs {w:?}");
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let tree = AndXorTree::from_x_tuples(&[
            vec![(10.0, 0.4), (9.0, 0.3)],
            vec![(8.0, 0.9)],
            vec![(7.0, 0.5), (6.0, 0.2), (5.0, 0.1)],
            vec![(4.0, 1.0)],
        ])
        .unwrap();
        let w = StepWeight { h: 4 };
        let spec = SharedWalkSpec::serial(vec![SharedRequest::Weight(Arc::new(w))]);
        let walked = batch_walk_tree(&tree, &spec, &TreePrepared::new(&tree)).unwrap();
        let SharedAnswer::Complex(serial) = &walked.answers[0] else {
            panic!("weight request answers complex values")
        };
        let direct = prf_rank_tree(&tree, &w);
        for t in 0..tree.n_tuples() {
            assert!(serial[t].approx_eq(direct[t], 1e-12), "serial walk t={t}");
        }
        assert_sharded_matches_serial(&tree, &spec, &[1, 2, 4, 16], 1e-12, "x-tuple");
    }

    /// The sharded walk itself — called directly, so the `n/threads` gate
    /// cannot route these small trees serial — must match the serial walk
    /// on general (non-x-tuple) trees for every consumer kind.
    #[test]
    fn sharded_walk_matches_serial_on_general_trees() {
        let spec = mixed_spec();
        for seed in 0..4u64 {
            let tree = prf_datasets::synthetic::syn_med_tree(90 + 17 * seed as usize, seed);
            assert_eq!(
                ProbabilisticRelation::correlation_class(&tree),
                CorrelationClass::Tree
            );
            let ctx = format!("seed {seed}");
            assert_sharded_matches_serial(&tree, &spec, &[2, 3, 8], 1e-9, &ctx);
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let tree = AndXorTree::from_x_tuples(&[vec![(1.0, 0.5)]]).unwrap();
        let spec =
            SharedWalkSpec::serial(vec![SharedRequest::Weight(Arc::new(StepWeight { h: 1 }))]);
        let out = batch_walk_tree_parallel(&tree, &spec, 8, &TreePrepared::new(&tree)).unwrap();
        let SharedAnswer::Complex(par) = &out.answers[0] else {
            panic!("weight request answers complex values")
        };
        assert_eq!(par.len(), 1);
        assert!((par[0].re - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sharding_gate_boundary() {
        // Below the per-shard floor the gate degrades to serial; at or
        // above it the requested count passes through. With the shared
        // fold prefix the floor sits at 2¹² tuples per shard, so n = 10⁴
        // now shards two ways (it used to lose outright) but still not
        // four.
        assert_eq!(effective_walk_threads(10_000, Some(4)), 1);
        assert_eq!(effective_walk_threads(10_000, Some(2)), 2);
        assert_eq!(
            effective_walk_threads(2 * PARALLEL_MIN_SHARD_TUPLES, Some(2)),
            2
        );
        assert_eq!(
            effective_walk_threads(2 * PARALLEL_MIN_SHARD_TUPLES - 1, Some(2)),
            1,
            "one tuple short of two full shards"
        );
        assert_eq!(
            effective_walk_threads(4 * PARALLEL_MIN_SHARD_TUPLES, Some(4)),
            4
        );
        // Serial requests and degenerate counts are untouched.
        assert_eq!(effective_walk_threads(usize::MAX, None), 1);
        assert_eq!(effective_walk_threads(usize::MAX, Some(1)), 1);
        assert_eq!(effective_walk_threads(0, Some(8)), 1);
    }

    #[test]
    fn parallel_stats_merge_shards() {
        let tree = AndXorTree::from_x_tuples(&[
            vec![(10.0, 0.4), (9.0, 0.3)],
            vec![(8.0, 0.9)],
            vec![(7.0, 0.5), (6.0, 0.2)],
        ])
        .unwrap();
        let spec =
            SharedWalkSpec::serial(vec![SharedRequest::Weight(Arc::new(StepWeight { h: 3 }))]);
        let prep = TreePrepared::new(&tree);
        let s1 = batch_walk_tree_parallel(&tree, &spec, 1, &prep)
            .unwrap()
            .stats
            .unwrap();
        let s2 = batch_walk_tree_parallel(&tree, &spec, 2, &prep)
            .unwrap()
            .stats
            .unwrap();
        assert!(s1.plan_nodes > 0);
        // Two concurrent shards hold two evaluators.
        assert_eq!(s2.plan_nodes, 2 * s1.plan_nodes);
    }
}
