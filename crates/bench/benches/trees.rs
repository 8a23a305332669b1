//! Criterion benchmarks for the and/xor-tree algorithms: the headline
//! incremental-engine vs full-refold PRFω ablation (the `O(n²·h)` wall of
//! EXPERIMENTS.md Figure 10(ii)/11(iii)), the incremental (Algorithm 3) vs
//! recompute PRFe ablation, and the x-tuple PT fast path vs the generic
//! truncated expansion.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use prf_core::tree::oracle::{prf_rank_tree_refold, prfe_rank_tree_recompute};
use prf_core::tree::{prf_rank_tree, prfe_rank_tree, prfe_rank_tree_scaled};
use prf_core::weights::StepWeight;
use prf_core::xtuple::prf_omega_rank_xtuple;
use prf_datasets::{syn_med_tree, syn_xor_tree};
use prf_numeric::Complex;

fn bench_incremental_vs_refold_prf(c: &mut Criterion) {
    // The acceptance workload for the incremental symbolic engine: exact
    // PRFω(h)/PT(h) on a general (non-x-tuple) tree with n = 10⁴, h = 100.
    // The full refold folds all ~2n nodes per tuple (O(n²·h) total); the
    // engine recombines two leaf-to-root paths (O(h²·log(n/h)) per tuple).
    let tree = syn_med_tree(10_000, 3);
    let w = StepWeight { h: 100 };
    let mut g = c.benchmark_group("prf_tree_10k_h100");
    g.sample_size(3); // the refold baseline costs seconds per iteration
    g.bench_function("incremental_engine", |b| {
        b.iter(|| black_box(prf_rank_tree(&tree, &w)))
    });
    g.bench_function("full_refold_alg2", |b| {
        b.iter(|| black_box(prf_rank_tree_refold(&tree, &w)))
    });
    g.finish();

    // Scaling of the engine alone past the refold-feasible regime.
    let mut g = c.benchmark_group("prf_tree_incremental_scaling_h100");
    g.sample_size(3);
    for n in [20_000usize, 40_000] {
        let tree = syn_med_tree(n, 3);
        g.bench_with_input(BenchmarkId::from_parameter(n), &tree, |b, tree| {
            b.iter(|| black_box(prf_rank_tree(tree, &w)))
        });
    }
    g.finish();
}

fn bench_incremental_vs_recompute(c: &mut Criterion) {
    // The ablation for Algorithm 3: the incremental path updates O(depth)
    // nodes per tuple; the recompute baseline folds the whole tree.
    let tree = syn_med_tree(2_000, 3);
    let alpha = Complex::real(0.9);
    let mut g = c.benchmark_group("tree_prfe_2k");
    g.sample_size(12);
    g.bench_function("incremental_alg3", |b| {
        b.iter(|| black_box(prfe_rank_tree(&tree, alpha)))
    });
    g.bench_function("incremental_scaled", |b| {
        b.iter(|| black_box(prfe_rank_tree_scaled(&tree, alpha)))
    });
    g.bench_function("recompute_per_tuple", |b| {
        b.iter(|| black_box(prfe_rank_tree_recompute(&tree, alpha)))
    });
    g.finish();
}

fn bench_xtuple_fast_path(c: &mut Criterion) {
    // PT(h) on x-tuples: O(n·h) linear-factor path vs O(n²·h) generic
    // expansion.
    let tree = syn_xor_tree(2_000, 3);
    let w = StepWeight { h: 50 };
    let mut g = c.benchmark_group("xtuple_pt50_2k");
    g.sample_size(10);
    g.bench_function("fast_path", |b| {
        b.iter(|| black_box(prf_omega_rank_xtuple(&tree, &w).expect("x-tuple")))
    });
    g.bench_function("generic_expansion", |b| {
        b.iter(|| black_box(prf_core::tree::prf_rank_tree(&tree, &w)))
    });
    g.finish();
}

fn bench_tree_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("tree_prfe_scaling");
    g.sample_size(10);
    for n in [5_000usize, 20_000, 80_000] {
        let tree = syn_xor_tree(n, 3);
        g.bench_with_input(BenchmarkId::from_parameter(n), &tree, |b, tree| {
            b.iter(|| black_box(prfe_rank_tree_scaled(tree, Complex::real(0.9))))
        });
    }
    g.finish();
}

fn bench_pt_exact_vs_dft(c: &mut Criterion) {
    // The probe behind the `Auto` heuristic's exact→DFT switch for PT(h)
    // on general trees: with the incremental engine, exact cost grows with
    // h² while the 40-term mixture's cost is h-independent. Re-run this
    // grid when touching either path; the measured medians justify
    // `AUTO_DFT_MIN_H` in `prf_core::query`.
    use prf_core::query::{Algorithm, RankQuery};
    use prf_core::DftApproxConfig;
    let tree = syn_med_tree(10_000, 3);
    let mut g = c.benchmark_group("pt_exact_vs_dft_10k");
    g.sample_size(3);
    for h in [128usize, 256, 512] {
        g.bench_with_input(BenchmarkId::new("exact_incremental", h), &h, |b, &h| {
            b.iter(|| {
                black_box(
                    RankQuery::pt(h)
                        .algorithm(Algorithm::ExactGf)
                        .run(&tree)
                        .unwrap(),
                )
            })
        });
        g.bench_with_input(BenchmarkId::new("dft_mixture_40", h), &h, |b, &h| {
            b.iter(|| {
                black_box(
                    RankQuery::pt(h)
                        .algorithm(Algorithm::DftApprox(DftApproxConfig::refined(40)))
                        .run(&tree)
                        .unwrap(),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_incremental_vs_refold_prf,
    bench_pt_exact_vs_dft,
    bench_incremental_vs_recompute,
    bench_xtuple_fast_path,
    bench_tree_scaling
);
criterion_main!(benches);
