//! Integration tests: every algorithm that can process the same correlated
//! relation must agree — and/xor expansion variants, the incremental PRFe,
//! the x-tuple fast path, attribute-uncertainty compilation and the
//! junction-tree DP, all against brute-force world enumeration.

#![allow(clippy::needless_range_loop)] // oracle comparisons over parallel arrays

use prf::core::tree::oracle::prf_rank_tree_interp;
use prf::core::{
    prf_omega_rank_xtuple, prf_rank_tree, prfe_rank_tree, rank_distributions_tree, StepWeight,
};
use prf::graphical::{rank_distributions_network, Factor, MarkovNetwork, VarId};
use prf::numeric::Complex;
use prf::pdb::{AndXorTree, TupleId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_xtuples(seed: u64, groups: usize) -> AndXorTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let gs: Vec<Vec<(f64, f64)>> = (0..groups)
        .map(|_| {
            let size = rng.gen_range(1..=3);
            let mut budget = 1.0f64;
            (0..size)
                .map(|_| {
                    let p = rng.gen_range(0.0..budget * 0.9);
                    budget -= p;
                    (rng.gen_range(0.0..100.0), p)
                })
                .collect()
        })
        .collect();
    AndXorTree::from_x_tuples(&gs).unwrap()
}

#[test]
fn all_tree_algorithms_agree_with_enumeration() {
    for seed in 0..5u64 {
        let tree = random_xtuples(seed, 4);
        let n = tree.n_tuples();
        let worlds = tree.enumerate_worlds(1 << 16).unwrap();
        let scores = tree.scores();

        // Rank distributions from symbolic expansion.
        let dists = rank_distributions_tree(&tree);
        for t in 0..n {
            let brute = worlds.rank_distribution(TupleId(t as u32), n, scores);
            for r in 0..n {
                assert!((dists[t][r] - brute[r]).abs() < 1e-9, "seed {seed}");
            }
        }

        // PT(h) three ways: symbolic, interpolated, x-tuple fast path.
        let w = StepWeight { h: 3.min(n) };
        let sym = prf_rank_tree(&tree, &w);
        let itp = prf_rank_tree_interp(&tree, &w);
        let fast = prf_omega_rank_xtuple(&tree, &w).expect("x-tuple form");
        for t in 0..n {
            assert!(sym[t].approx_eq(itp[t], 1e-8), "seed {seed} interp");
            assert!(sym[t].approx_eq(fast[t], 1e-8), "seed {seed} fast path");
        }

        // PRFe incremental against the distribution oracle.
        let alpha = 0.75;
        let inc = prfe_rank_tree(&tree, Complex::real(alpha));
        for t in 0..n {
            let oracle: f64 = dists[t]
                .iter()
                .enumerate()
                .map(|(j0, &p)| p * alpha.powi(j0 as i32 + 1))
                .sum();
            assert!((inc[t].re - oracle).abs() < 1e-9, "seed {seed} prfe");
        }
    }
}

/// An x-tuple group is expressible as one Markov-network factor that zeroes
/// out every assignment with two or more present members. Both correlation
/// engines must produce identical rank distributions.
#[test]
fn xtuple_groups_as_markov_factors_agree() {
    for seed in 10..14u64 {
        let tree = random_xtuples(seed, 3);
        let n = tree.n_tuples();
        let groups = tree.x_tuple_groups().unwrap();
        let marginals = tree.marginals();

        let mut factors = Vec::new();
        for g in &groups {
            let vars: Vec<VarId> = g.iter().map(|t| VarId(t.0)).collect();
            let mut table = vec![0.0; 1 << vars.len()];
            let none: f64 = 1.0 - g.iter().map(|t| marginals[t.index()]).sum::<f64>();
            table[0] = none.max(0.0);
            for (bit, t) in g.iter().enumerate() {
                table[1 << bit] = marginals[t.index()];
            }
            factors.push(Factor::new(vars, table));
        }
        let net = MarkovNetwork::new(n, factors);

        let via_net = rank_distributions_network(&net, tree.scores());
        let via_tree = rank_distributions_tree(&tree);
        for t in 0..n {
            for r in 0..n {
                assert!(
                    (via_net[t][r] - via_tree[t][r]).abs() < 1e-9,
                    "seed {seed} t{t} r{r}: {} vs {}",
                    via_net[t][r],
                    via_tree[t][r]
                );
            }
        }
    }
}

#[test]
fn attribute_uncertainty_consistent_with_manual_tree() {
    use prf::core::prf_rank_uncertain;
    use prf::pdb::{AttributeUncertainDb, UncertainTuple};
    let db = AttributeUncertainDb::new(vec![
        UncertainTuple::new(vec![(30.0, 0.4), (10.0, 0.5)]).unwrap(),
        UncertainTuple::new(vec![(20.0, 0.8)]).unwrap(),
    ]);
    // Manual equivalent: x-tuples with one group per original tuple.
    let manual =
        AndXorTree::from_x_tuples(&[vec![(30.0, 0.4), (10.0, 0.5)], vec![(20.0, 0.8)]]).unwrap();
    let w = StepWeight { h: 2 };
    let via_attr = prf_rank_uncertain(&db, &w).unwrap();
    let via_tree = prf_rank_tree(&manual, &w);
    // Aggregate manual per-alternative values by owner.
    let agg0 = via_tree[0] + via_tree[1];
    let agg1 = via_tree[2];
    assert!(via_attr[0].approx_eq(agg0, 1e-10));
    assert!(via_attr[1].approx_eq(agg1, 1e-10));
}

#[test]
fn expected_ranks_tree_matches_graphical_pipeline() {
    // Same x-tuple relation through (a) dual-number tree algorithm and
    // (b) junction-tree rank distributions + expectation.
    let tree = random_xtuples(77, 3);
    let n = tree.n_tuples();
    let scores = tree.scores();
    let er_tree = prf::core::expected_ranks_tree(&tree);

    let worlds = tree.enumerate_worlds(1 << 16).unwrap();
    for t in 0..n {
        let tid = TupleId(t as u32);
        let brute: f64 = worlds
            .worlds
            .iter()
            .map(|(w, p)| match w.rank_of(tid, scores) {
                Some(r) => p * r as f64,
                None => p * w.len() as f64,
            })
            .sum();
        assert!(
            (er_tree[t] - brute).abs() < 1e-8,
            "t{t}: {} vs {brute}",
            er_tree[t]
        );
    }
}
