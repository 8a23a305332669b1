//! Full-refold and interpolation oracles for the and/xor-tree algorithms.
//!
//! Each function here recomputes the tree's generating function from
//! scratch for every tuple, so it costs `O(n²)` or more. None is on an
//! evaluation path: the differential tests check the incremental engine
//! of [`super`] against them, and the `trees` criterion bench uses the
//! refold/recompute pair as the ablation baseline.

use prf_numeric::fft::interpolate_from_roots_of_unity;
use prf_numeric::{Complex, GfValue, RankPoly, YLin};
use prf_pdb::AndXorTree;

use super::{score_order, tuple_view, upsilon_from_gf};
use crate::weights::WeightFunction;

/// The literal Algorithm 2: one full bottom-up refold of the entire tree
/// per tuple — `O(n²)`–`O(n²·h)` total. Retained as the differential-test
/// oracle for [`prf_rank_tree`](super::prf_rank_tree) and as the ablation
/// baseline the `trees` criterion bench measures the incremental engine
/// against.
pub fn prf_rank_tree_refold(tree: &AndXorTree, omega: &dyn WeightFunction) -> Vec<Complex> {
    let n = tree.n_tuples();
    let mut out = vec![Complex::ZERO; n];
    if n == 0 {
        return out;
    }
    let cap = omega.truncation().unwrap_or(n).min(n);
    if cap == 0 {
        return out;
    }
    let (order, pos) = score_order(tree);
    let marginals = tree.marginals();
    for (i, &t) in order.iter().enumerate() {
        let gf = tree.generating_function(|u| {
            if u == t {
                RankPoly::y().with_cap(cap)
            } else if pos[u.index()] < i {
                RankPoly::x().with_cap(cap)
            } else {
                RankPoly::one().with_cap(cap)
            }
        });
        let tv = tuple_view(tree, &marginals, t);
        out[t.index()] = upsilon_from_gf(&gf, &tv, omega, cap);
    }
    out
}

/// Like [`prf_rank_tree`](super::prf_rank_tree), but expands each `B(x)`
/// by evaluating the tree at the `m`-th roots of unity (`m` = next power of
/// two `> n`) and applying one inverse FFT — `O(n)` per evaluation point,
/// `O(n²)` per tuple regardless of tree shape (Appendix B.2,
/// "Algorithm 2").
pub fn prf_rank_tree_interp(tree: &AndXorTree, omega: &dyn WeightFunction) -> Vec<Complex> {
    let n = tree.n_tuples();
    let mut out = vec![Complex::ZERO; n];
    if n == 0 {
        return out;
    }
    let (order, pos) = score_order(tree);
    let marginals = tree.marginals();
    let m = (n + 1).next_power_of_two();
    // Precompute the m-th roots of unity ω^k (forward orientation e^{+2πi/m},
    // matching interpolate_from_roots_of_unity).
    let roots: Vec<Complex> = (0..m)
        .map(|k| Complex::cis(2.0 * std::f64::consts::PI * k as f64 / m as f64))
        .collect();
    let h = omega.truncation().unwrap_or(n).min(n);
    let mut bvals = vec![Complex::ZERO; m];
    for (i, &t) in order.iter().enumerate() {
        for (k, &x) in roots.iter().enumerate() {
            let v: YLin<Complex> = tree.generating_function(|u| {
                if u == t {
                    YLin::y()
                } else if pos[u.index()] < i {
                    YLin::pure(x)
                } else {
                    YLin::<Complex>::one()
                }
            });
            bvals[k] = v.b;
        }
        let coeffs = interpolate_from_roots_of_unity(&bvals);
        let tv = tuple_view(tree, &marginals, t);
        let mut ups = Complex::ZERO;
        for (j0, &c) in coeffs.iter().enumerate().take(h) {
            ups += omega.weight(&tv, j0 + 1) * c;
        }
        out[t.index()] = ups;
    }
    out
}

/// Recompute-from-scratch PRFe on a tree: one full `O(node count)` fold per
/// tuple using [`YLin`] values. `O(n²)` total — the full-refold oracle that
/// the incremental engine is differential-tested (and benchmarked) against.
pub fn prfe_rank_tree_recompute(tree: &AndXorTree, alpha: Complex) -> Vec<Complex> {
    let n = tree.n_tuples();
    let mut out = vec![Complex::ZERO; n];
    if n == 0 {
        return out;
    }
    let (order, pos) = score_order(tree);
    for (i, &t) in order.iter().enumerate() {
        let v: YLin<Complex> = tree.generating_function(|u| {
            if u == t {
                YLin::y()
            } else if pos[u.index()] < i {
                YLin::pure(alpha)
            } else {
                YLin::<Complex>::one()
            }
        });
        // Υ = B(α)·α.
        out[t.index()] = v.b * alpha;
    }
    out
}
