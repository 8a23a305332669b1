//! Differential suite for the serving layer: queries submitted through a
//! [`RankServer`] from **many concurrent client threads** must produce
//! **value-identical** (1e-9) results to running each [`RankQuery`]
//! directly and sequentially — across `IndependentDb` and `AndXorTree`
//! (x-tuple and general) backends and all three numeric modes
//! (plain complex, log-domain, scaled).
//!
//! The direct side never touches `prf-serve` (and the batch layer it
//! flushes through is differential-tested against the single kernels in
//! `tests/batch_equivalence.rs`), so the comparison is not circular: it
//! pins the *whole* serving path — concurrent submission, queueing,
//! deadline/size-triggered flushing, per-entry isolation, response routing.

use std::thread;
use std::time::Duration;

use prf::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TOL: f64 = 1e-9;

// ---------------------------------------------------------------------
// Seeded random instances (same shapes as tests/batch_equivalence.rs)
// ---------------------------------------------------------------------

fn random_db(seed: u64, n: usize) -> IndependentDb {
    let mut rng = StdRng::seed_from_u64(seed);
    IndependentDb::from_pairs((0..n).map(|_| {
        (
            rng.gen_range(0.0..1000.0),
            match rng.gen_range(0..10) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.gen_range(0.01..1.0),
            },
        )
    }))
    .expect("valid pairs")
}

fn random_xtuple_tree(seed: u64, groups: usize) -> AndXorTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec: Vec<Vec<(f64, f64)>> = (0..groups)
        .map(|_| {
            let alts = rng.gen_range(1..4);
            let mut budget = 1.0f64;
            (0..alts)
                .map(|_| {
                    let p = rng.gen_range(0.0..budget.min(0.7));
                    budget -= p;
                    (rng.gen_range(0.0..1000.0), p)
                })
                .collect()
        })
        .collect();
    AndXorTree::from_x_tuples(&spec).expect("valid groups")
}

fn random_general_tree(seed: u64, target_leaves: usize) -> AndXorTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = TreeBuilder::new(NodeKind::And);
    let root = b.root();
    let mut frontier = vec![(root, false, 1.0f64)];
    let mut leaves = 0usize;
    while leaves < target_leaves {
        let idx = rng.gen_range(0..frontier.len());
        let (node, is_xor, budget) = frontier[idx];
        let p = if is_xor {
            let p = rng.gen_range(0.0..budget.min(0.6));
            frontier[idx].2 -= p;
            p
        } else {
            1.0
        };
        if frontier.len() > 6 || rng.gen_bool(0.7) {
            b.add_leaf(node, p, rng.gen_range(0.0..1000.0)).unwrap();
            leaves += 1;
        } else {
            let child_xor = rng.gen_bool(0.5);
            let kind = if child_xor {
                NodeKind::Xor
            } else {
                NodeKind::And
            };
            let child = b.add_inner(node, kind, p).unwrap();
            frontier.push((child, child_xor, 1.0));
        }
    }
    b.build().unwrap()
}

/// A randomized query covering every semantics with a shared-walk form in
/// every numeric mode, plus single-routed semantics, with occasional
/// `top_k` (exercising the pushdown through the serving path).
fn random_query(rng: &mut StdRng, n: usize) -> RankQuery {
    let q = match rng.gen_range(0..10) {
        0 => RankQuery::pt(rng.gen_range(1..=n.max(2))),
        1 => RankQuery::consensus(rng.gen_range(1..=n.max(2))),
        2 => RankQuery::prf(TabulatedWeight::from_real(&[2.0, 1.0, 0.5, 0.25])),
        3 => RankQuery::prfe(rng.gen_range(0.05..1.0)),
        4 => RankQuery::prfe(rng.gen_range(0.05..1.0)).algorithm(Algorithm::ExactGf),
        5 => RankQuery::prfe(rng.gen_range(0.05..1.0)).algorithm(Algorithm::LogDomain),
        6 => RankQuery::prfe_complex(Complex::new(0.6, 0.3)).algorithm(Algorithm::Scaled),
        7 => RankQuery::erank(),
        8 => RankQuery::escore(),
        _ => RankQuery::urank(rng.gen_range(1..=3)),
    };
    if rng.gen_bool(0.3) {
        q.top_k(rng.gen_range(1..=n.max(2)))
    } else {
        q
    }
}

/// `a ≈ b` with the suite's relative tolerance (matching infinities pass —
/// log-domain `Υ = 0` keys).
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOL * b.abs().max(1.0) || (a.is_infinite() && b.is_infinite() && a == b)
}

/// Value-identical within `TOL`, identical numeric mode. `order_exact`
/// additionally requires the identical ranking order — used everywhere
/// except the sharded-parallel comparison, where sub-1e-9 float
/// differences between the fast-forward and incremental fold orders can
/// flip *exact ties* (the same slack `tests/batch_equivalence.rs` allows);
/// there the per-position ranking keys must still agree.
fn assert_equivalent(got: &RankedResult, want: &RankedResult, ctx: &str, order_exact: bool) {
    assert_eq!(
        got.report.numeric_mode, want.report.numeric_mode,
        "{ctx}: numeric mode"
    );
    if order_exact {
        assert_eq!(got.ranking.order(), want.ranking.order(), "{ctx}: order");
    }
    assert_eq!(got.ranking.len(), want.ranking.len(), "{ctx}: rank length");
    for pos in 0..got.ranking.len() {
        let (g, w) = (got.ranking.key_at(pos), want.ranking.key_at(pos));
        assert!(close(g, w), "{ctx}: key at {pos}: {g} vs {w}");
    }
    match (&got.values, &want.values) {
        (Values::Complex(g), Values::Complex(w)) => {
            for (t, (a, b)) in g.iter().zip(w).enumerate() {
                assert!(
                    close(a.re, b.re) && close(a.im, b.im),
                    "{ctx}: complex value t{t}: {a} vs {b}"
                );
            }
        }
        (Values::LogDomain(g), Values::LogDomain(w)) => {
            for (t, (&a, &b)) in g.iter().zip(w).enumerate() {
                assert!(close(a, b), "{ctx}: log key t{t}: {a} vs {b}");
            }
        }
        (Values::Scaled(g), Values::Scaled(w)) => {
            for (t, (a, b)) in g.iter().zip(w).enumerate() {
                let (ka, kb) = (a.magnitude_key(), b.magnitude_key());
                assert!(close(ka, kb), "{ctx}: scaled magnitude t{t}: {ka} vs {kb}");
            }
        }
        (g, w) => panic!("{ctx}: value shape mismatch: {g:?} vs {w:?}"),
    }
}

/// Pushes `queries` through a server from `clients` concurrent threads
/// (striped round-robin) and checks every response against the direct
/// sequential run.
fn run_concurrently_and_compare(
    rel: impl ProbabilisticRelation + Send + Sync + Clone + 'static,
    queries: &[RankQuery],
    clients: usize,
    config: ServeConfig,
    ctx: &str,
) {
    run_concurrently_and_compare_inner(rel, queries, clients, config, ctx, true);
}

fn run_concurrently_and_compare_inner(
    rel: impl ProbabilisticRelation + Send + Sync + Clone + 'static,
    queries: &[RankQuery],
    clients: usize,
    config: ServeConfig,
    ctx: &str,
    order_exact: bool,
) {
    let server = RankServer::new(config);
    let id = server.register(ctx.to_string(), rel.clone());
    let answers: Vec<(usize, Result<RankedResult, QueryError>)> = thread::scope(|s| {
        let mut workers = Vec::new();
        for c in 0..clients {
            let server = &server;
            let queries = &queries;
            workers.push(s.spawn(move || {
                let mut out = Vec::new();
                for (i, q) in queries.iter().enumerate() {
                    if i % clients != c {
                        continue;
                    }
                    let handle = server.submit(id, q.clone()).expect("server is up");
                    // Mix blocking and polling receivers.
                    if i % 3 == 0 {
                        let mut handle = handle;
                        loop {
                            if let Some(answer) = handle.try_recv() {
                                out.push((i, answer));
                                break;
                            }
                            thread::yield_now();
                        }
                    } else {
                        out.push((i, handle.recv()));
                    }
                }
                out
            }));
        }
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    });
    server.shutdown();

    assert_eq!(answers.len(), queries.len(), "{ctx}: every query answered");
    for (i, got) in answers {
        let q = &queries[i];
        let ctx = format!("{ctx}: query {i} ({})", q.semantics().name());
        match (got, q.run(&rel)) {
            (Ok(got), Ok(want)) => {
                assert_equivalent(&got, &want, &ctx, order_exact);
                let serve = got.report.serve.expect("served answers carry provenance");
                assert!(serve.queue_seconds >= 0.0, "{ctx}");
                assert!(serve.flush_size >= 1, "{ctx}");
            }
            (Err(got), Err(want)) => assert_eq!(got, want, "{ctx}"),
            (got, want) => panic!("{ctx}: served {got:?} vs direct {want:?}"),
        }
    }
}

fn mixed_trace(seed: u64, n: usize, len: usize) -> Vec<RankQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| random_query(&mut rng, n)).collect()
}

// ---------------------------------------------------------------------
// The acceptance matrix: backends × client counts
// ---------------------------------------------------------------------

#[test]
fn serve_equals_sequential_on_independent_16_threads() {
    let db = random_db(11, 60);
    let queries = mixed_trace(12, 60, 64);
    run_concurrently_and_compare(
        db,
        &queries,
        16,
        ServeConfig::new()
            .max_delay(Duration::from_micros(500))
            .max_batch(8),
        "independent/16",
    );
}

#[test]
fn serve_equals_sequential_on_xtuple_tree_16_threads() {
    let tree = random_xtuple_tree(21, 18);
    let n = prf::pdb::AndXorTree::n_tuples(&tree);
    let queries = mixed_trace(22, n, 48);
    run_concurrently_and_compare(
        tree,
        &queries,
        16,
        ServeConfig::new()
            .max_delay(Duration::from_micros(500))
            .max_batch(6),
        "xtuple/16",
    );
}

#[test]
fn serve_equals_sequential_on_general_tree_16_threads() {
    let tree = random_general_tree(31, 24);
    let n = prf::pdb::AndXorTree::n_tuples(&tree);
    let queries = mixed_trace(32, n, 48);
    run_concurrently_and_compare(
        tree,
        &queries,
        16,
        ServeConfig::new()
            .max_delay(Duration::from_micros(500))
            .max_batch(6),
        "general-tree/16",
    );
}

#[test]
fn serve_equals_sequential_two_threads_zero_deadline() {
    // Zero deadline: flushes degenerate towards singletons — the other
    // extreme of the batching spectrum must agree too.
    let db = random_db(41, 40);
    let queries = mixed_trace(42, 40, 24);
    run_concurrently_and_compare(
        db,
        &queries,
        2,
        ServeConfig::new().max_delay(Duration::ZERO),
        "independent/2/zero-deadline",
    );
}

#[test]
fn serve_equals_sequential_with_parallel_walks() {
    // A `parallel(2)` server config must stay answer-identical. At n = 30
    // the `n/threads` gate (`effective_walk_threads`) routes every walk
    // serial, so this pins the config plumbing and the gate, not the
    // sharded walk itself — that is covered by `prf_core::parallel`'s unit
    // tests (called directly) and by `parallel_shards_match_serial_on_
    // general_trees` in `tests/incremental_engine.rs` (above the gate).
    let tree = random_general_tree(51, 30);
    let n = prf::pdb::AndXorTree::n_tuples(&tree);
    let queries = mixed_trace(52, n, 24);
    run_concurrently_and_compare_inner(
        tree,
        &queries,
        4,
        ServeConfig::new()
            .max_delay(Duration::from_micros(500))
            .max_batch(8)
            .parallel(2),
        "general-tree/4/parallel",
        // Shard fold order may flip exact ties; values and per-position
        // keys must still agree.
        false,
    );
}

#[test]
fn serve_routes_answers_across_multiple_relations() {
    // Two relations on one server: responses must never cross queues.
    let db = random_db(61, 30);
    let tree = random_general_tree(62, 16);
    let tree_n = prf::pdb::AndXorTree::n_tuples(&tree);
    let server = RankServer::new(
        ServeConfig::new()
            .max_delay(Duration::from_micros(300))
            .max_batch(5),
    );
    let db_id = server.register("db", db.clone());
    let tree_id = server.register("tree", tree.clone());

    let mut rng = StdRng::seed_from_u64(63);
    let submissions: Vec<(bool, RankQuery)> = (0..40)
        .map(|_| {
            let to_db = rng.gen_bool(0.5);
            let n = if to_db { 30 } else { tree_n };
            (to_db, random_query(&mut rng, n))
        })
        .collect();

    let answers: Vec<(usize, Result<RankedResult, QueryError>)> = thread::scope(|s| {
        let mut workers = Vec::new();
        for c in 0..8usize {
            let server = &server;
            let submissions = &submissions;
            workers.push(s.spawn(move || {
                let mut out = Vec::new();
                for (i, (to_db, q)) in submissions.iter().enumerate() {
                    if i % 8 != c {
                        continue;
                    }
                    let id = if *to_db { db_id } else { tree_id };
                    out.push((i, server.submit(id, q.clone()).unwrap().recv()));
                }
                out
            }));
        }
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    });

    for (i, got) in answers {
        let (to_db, q) = &submissions[i];
        let want = if *to_db { q.run(&db) } else { q.run(&tree) };
        let ctx = format!(
            "multi-relation query {i} on {} ({})",
            if *to_db { "db" } else { "tree" },
            q.semantics().name()
        );
        match (got, want) {
            (Ok(got), Ok(want)) => assert_equivalent(&got, &want, &ctx, true),
            (Err(got), Err(want)) => assert_eq!(got, want, "{ctx}"),
            (got, want) => panic!("{ctx}: served {got:?} vs direct {want:?}"),
        }
    }
}
