//! Differential tests for the incremental generating-function engine: the
//! incremental walks must agree, value-level within 1e-9 relative, with the
//! retained full-refold oracles (`prf_rank_tree_refold`,
//! `prfe_rank_tree_recompute`) for every tree-capable semantics × numeric
//! mode, on random and/xor trees and on the directed edge-case shapes the
//! engine's plan compiler handles specially (chains, single-child inner
//! nodes, zero-probability edges, ∨ slack, extreme truncations).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use prf::core::query::{CorrelationClass, ProbabilisticRelation, RankQuery};
use prf::core::tree::oracle::{prf_rank_tree_refold, prfe_rank_tree_recompute};
use prf::core::tree::{prf_rank_tree, prfe_rank_tree, prfe_rank_tree_scaled};
use prf::core::{
    effective_walk_threads, expected_ranks_tree, ConstantWeight, ExponentialWeight, StepWeight,
    PARALLEL_MIN_SHARD_TUPLES,
};
use prf::numeric::Complex;
use prf::pdb::{AndXorTree, NodeKind, TreeBuilder, TupleId};

/// `|a − b| ≤ tol·(1 + max(|a|, |b|))` — the relative agreement the
/// acceptance criteria demand.
fn close_rel(a: Complex, b: Complex, tol: f64) -> bool {
    let scale = 1.0 + a.abs().max(b.abs());
    (a - b).abs() <= tol * scale
}

fn assert_all_close(got: &[Complex], want: &[Complex], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (t, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(close_rel(*g, *w, 1e-9), "{ctx} t{t}: {g} vs {w}");
    }
}

/// A random general and/xor tree driven by a seed (so proptest shrinks over
/// scalars, not tree structures).
fn random_tree(seed: u64, target_leaves: usize, max_depth: usize) -> AndXorTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let root_kind = if rng.gen_bool(0.5) {
        NodeKind::And
    } else {
        NodeKind::Xor
    };
    let mut b = TreeBuilder::new(root_kind);
    let mut frontier = vec![(b.root(), root_kind, 0usize, 1.0f64)];
    let mut leaves = 0usize;
    while leaves < target_leaves {
        let idx = rng.gen_range(0..frontier.len());
        let (node, kind, depth, budget) = frontier[idx];
        let is_xor = matches!(kind, NodeKind::Xor);
        let p = if is_xor {
            // Occasionally emit an exactly-zero edge probability.
            if rng.gen_bool(0.1) {
                0.0
            } else {
                let p = rng.gen_range(0.0..budget.min(0.5));
                frontier[idx].3 -= p;
                p
            }
        } else {
            1.0
        };
        if depth >= max_depth || rng.gen_bool(0.6) {
            b.add_leaf(node, p, rng.gen_range(0.0..100.0)).unwrap();
            leaves += 1;
        } else {
            let child_kind = if rng.gen_bool(0.5) {
                NodeKind::And
            } else {
                NodeKind::Xor
            };
            let child = b.add_inner(node, child_kind, p).unwrap();
            frontier.push((child, child_kind, depth + 1, 1.0));
        }
    }
    b.build().unwrap()
}

/// A caterpillar: an ∧/∨ spine of the given depth with one leaf hanging at
/// every level — leaf depths grow linearly, the worst case for per-tuple
/// path recombination.
fn chain_tree(levels: usize, seed: u64) -> AndXorTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = TreeBuilder::new(NodeKind::And);
    let mut cur = b.root();
    for i in 0..levels {
        b.add_leaf(cur, 1.0, rng.gen_range(0.0..100.0))
            .unwrap_or_else(|e| panic!("leaf {i}: {e:?}"));
        let xor = b.add_inner(cur, NodeKind::Xor, 1.0).unwrap();
        let p = rng.gen_range(0.3..0.9);
        b.add_leaf(xor, 1.0 - p, rng.gen_range(0.0..100.0)).unwrap();
        cur = b.add_inner(xor, NodeKind::And, p).unwrap();
    }
    b.add_leaf(cur, 1.0, rng.gen_range(0.0..100.0)).unwrap();
    b.build().unwrap()
}

/// Nested single-child ∧ chains (which the plan compiler collapses) around
/// ∨ nodes with slack and zero-probability edges.
fn degenerate_tree() -> AndXorTree {
    let mut b = TreeBuilder::new(NodeKind::And);
    let root = b.root();
    // ∧ → ∧ → ∧ → leaf (single-child chain).
    let a1 = b.add_inner(root, NodeKind::And, 1.0).unwrap();
    let a2 = b.add_inner(a1, NodeKind::And, 1.0).unwrap();
    b.add_leaf(a2, 1.0, 50.0).unwrap();
    // ∨ with slack 0.4, one p = 0 edge, and a nested single-child ∧.
    let x = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
    b.add_leaf(x, 0.0, 60.0).unwrap();
    b.add_leaf(x, 0.35, 40.0).unwrap();
    let xa = b.add_inner(x, NodeKind::And, 0.25).unwrap();
    b.add_leaf(xa, 1.0, 55.0).unwrap();
    // A certain tuple (p = 1 through its ∨).
    let y = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
    b.add_leaf(y, 1.0, 45.0).unwrap();
    b.build().unwrap()
}

fn check_prf_all_truncations(tree: &AndXorTree, ctx: &str) {
    let n = tree.n_tuples();
    let hs = [1usize, 2, n.div_ceil(2), n];
    for &h in &hs {
        let w = StepWeight { h };
        assert_all_close(
            &prf_rank_tree(tree, &w),
            &prf_rank_tree_refold(tree, &w),
            &format!("{ctx} PT({h})"),
        );
    }
    // Untruncated, tuple-independent weight (full-degree expansion).
    let w = ExponentialWeight::real(0.85);
    assert_all_close(
        &prf_rank_tree(tree, &w),
        &prf_rank_tree_refold(tree, &w),
        &format!("{ctx} PRFe-as-PRFω"),
    );
    let w = ConstantWeight;
    assert_all_close(
        &prf_rank_tree(tree, &w),
        &prf_rank_tree_refold(tree, &w),
        &format!("{ctx} constant ω"),
    );
}

fn check_prfe_all_modes(tree: &AndXorTree, ctx: &str) {
    for alpha in [
        Complex::real(0.0),
        Complex::real(0.5),
        Complex::real(1.0),
        Complex::new(0.6, 0.35),
    ] {
        let inc = prfe_rank_tree(tree, alpha);
        let rec = prfe_rank_tree_recompute(tree, alpha);
        assert_all_close(&inc, &rec, &format!("{ctx} PRFe({alpha})"));
        // Scaled arithmetic agrees with plain at test scale.
        let scaled = prfe_rank_tree_scaled(tree, alpha);
        for (t, (s, p)) in scaled.iter().zip(&rec).enumerate() {
            assert!(
                close_rel(s.to_plain(), *p, 1e-9),
                "{ctx} scaled PRFe({alpha}) t{t}"
            );
        }
    }
}

#[test]
fn chain_trees_match_oracles() {
    for levels in [1usize, 2, 17, 60] {
        let tree = chain_tree(levels, levels as u64);
        check_prf_all_truncations(&tree, &format!("chain({levels})"));
        check_prfe_all_modes(&tree, &format!("chain({levels})"));
    }
}

#[test]
fn degenerate_shapes_match_oracles() {
    let tree = degenerate_tree();
    check_prf_all_truncations(&tree, "degenerate");
    check_prfe_all_modes(&tree, "degenerate");
    // Expected ranks agree with world enumeration on this shape too.
    let worlds = tree.enumerate_worlds(1 << 16).unwrap();
    let scores = tree.scores();
    let er = expected_ranks_tree(&tree);
    for (t, &er_t) in er.iter().enumerate() {
        let tid = TupleId(t as u32);
        let brute: f64 = worlds
            .worlds
            .iter()
            .map(|(w, p)| match w.rank_of(tid, scores) {
                Some(r) => p * r as f64,
                None => p * w.len() as f64,
            })
            .sum();
        assert!((er_t - brute).abs() < 1e-8, "t{t}: {er_t} vs {brute}");
    }
}

#[test]
fn parallel_shards_match_serial_on_general_trees() {
    // Large enough that every requested shard clears the parallel floor,
    // so the public route really shards (the sharded walk's unit tests in
    // `prf_core::parallel` cover small trees by calling it directly).
    let n = 3 * PARALLEL_MIN_SHARD_TUPLES + 12;
    let tree = random_tree(5, n, 4);
    assert_eq!(tree.correlation_class(), CorrelationClass::Tree);
    let w = StepWeight { h: 3 };
    let serial = prf_rank_tree(&tree, &w);
    let serial_nodes = RankQuery::prf(w).run(&tree).unwrap().report.memory.unwrap();
    for threads in [2usize, 3] {
        assert_eq!(effective_walk_threads(n, Some(threads)), threads);
        let par = RankQuery::prf(w).parallel(threads).run(&tree).unwrap();
        let ctx = format!("threads {threads}");
        assert_all_close(par.values.as_complex().unwrap(), &serial, &ctx);
        // One evaluator per concurrent shard.
        let nodes = par.report.memory.unwrap().plan_nodes;
        assert_eq!(nodes, threads * serial_nodes.plan_nodes, "{ctx}");
    }
}

#[test]
fn stats_peak_covers_resident_on_every_shape() {
    for seed in 0..4u64 {
        let tree = random_tree(seed, 30, 4);
        let stats = RankQuery::prf(StepWeight { h: 5 })
            .run(&tree)
            .unwrap()
            .report
            .memory
            .unwrap();
        assert!(stats.plan_nodes >= tree.n_tuples());
        assert!(stats.peak_coefficients >= stats.resident_coefficients);
        assert!(stats.peak_bytes >= stats.peak_coefficients * 8);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The incremental symbolic engine ≡ the literal Algorithm 2 refold for
    /// random trees × truncations.
    #[test]
    fn prf_incremental_equals_refold(seed in 0u64..5000, leaves in 3usize..16, h in 1usize..18) {
        let tree = random_tree(seed, leaves, 4);
        let w = StepWeight { h };
        let inc = prf_rank_tree(&tree, &w);
        let refold = prf_rank_tree_refold(&tree, &w);
        for t in 0..tree.n_tuples() {
            prop_assert!(close_rel(inc[t], refold[t], 1e-9), "t{t}: {} vs {}", inc[t], refold[t]);
        }
    }

    /// The division-free incremental PRFe ≡ the per-tuple recompute oracle,
    /// real and complex α.
    #[test]
    fn prfe_incremental_equals_recompute(
        seed in 0u64..5000,
        leaves in 3usize..16,
        re in 0.0f64..1.0,
        im in 0.0f64..0.8,
    ) {
        let tree = random_tree(seed, leaves, 4);
        let alpha = Complex::new(re, im);
        let inc = prfe_rank_tree(&tree, alpha);
        let rec = prfe_rank_tree_recompute(&tree, alpha);
        for t in 0..tree.n_tuples() {
            prop_assert!(close_rel(inc[t], rec[t], 1e-9), "t{t}: {} vs {}", inc[t], rec[t]);
        }
    }

    /// Weight functions with arbitrary per-rank tables agree too (the
    /// general PRFω case, truncated at the table length).
    #[test]
    fn prf_tabulated_weights_agree(seed in 0u64..5000, table in proptest::collection::vec(-2.0f64..2.0, 1..10)) {
        let tree = random_tree(seed, 10, 3);
        let w = prf::core::TabulatedWeight::from_real(&table);
        let inc = prf_rank_tree(&tree, &w);
        let refold = prf_rank_tree_refold(&tree, &w);
        for t in 0..tree.n_tuples() {
            prop_assert!(close_rel(inc[t], refold[t], 1e-9));
        }
    }
}
