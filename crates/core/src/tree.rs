//! Ranking over probabilistic and/xor trees (Sections 4.2–4.3).
//!
//! For a tuple `t` at sorted position `i`, label leaves of the tree as
//! follows: leaves ranked above `t` (higher score) get the variable `x`, the
//! leaf `t` itself gets `y`, everything else gets the constant `1`. By
//! Theorem 1 the resulting generating function `Fⁱ(x, y) = A(x) + B(x)·y`
//! satisfies `Pr(r(t) = j) = [x^{j−1}] B(x)`.
//!
//! Walking the tuples in score order changes only **two** leaf labels per
//! step, so every algorithm here is an instantiation of the incremental
//! engine in [`crate::incremental`] — cached per-node fold state, two
//! leaf-to-root path recombinations per tuple — over a suitable ring:
//!
//! 1. [`prf_rank_tree`] — truncated bivariate polynomials
//!    ([`RankPoly`]): exact PRFω(h)/PT(h) on arbitrary trees in
//!    `O(depth·log fanout·h)` ring work per tuple instead of the
//!    `O(n·h)`-per-tuple full refold (Algorithm 2);
//! 2. [`prfe_rank_tree`] — scalars wrapped in [`YLin`] (ANDXOR-PRFe-RANK,
//!    Algorithm 3, made division-free): `O(Σᵢ dᵢ + n log n)` total, generic
//!    over any [`GfValue`] scalar — plain/complex, [`Scaled`], or dual
//!    numbers;
//! 3. [`expected_ranks_tree`] — the same machinery over dual numbers for
//!    expected ranks (Cormode et al.) on correlated data.
//!
//! The query engine reaches all of them through one shared walk (section 4
//! below), whose evaluator memory accounting ([`GfStats`]) surfaces in the
//! engine's `EvalReport`.
//!
//! The from-scratch versions live in [`oracle`]: the literal Algorithm 2
//! ([`oracle::prf_rank_tree_refold`]), the PRFe recompute
//! ([`oracle::prfe_rank_tree_recompute`]) and the roots-of-unity
//! interpolation of Appendix B.2 ([`oracle::prf_rank_tree_interp`]). Tests
//! and benches compare the engine against them; no evaluation path calls
//! them.

#![allow(clippy::needless_range_loop)] // index loops pair several parallel arrays

use std::sync::Arc;
use std::time::Instant;

use prf_numeric::{Complex, Dual, GfValue, RankPoly, Scaled, YLin};
use prf_pdb::tuple::sort_indices_by_score_desc;
use prf_pdb::{AndXorTree, Tuple, TupleId};

use crate::incremental::{EvalPlan, GfStats, IncrementalGf};
use crate::query::batch::{SharedAnswer, SharedRequest, SharedWalkOut, SharedWalkSpec};
use crate::query::PreparedState;
use crate::weights::WeightFunction;

pub mod oracle;

/// Tuple processing order (score descending, id ascending) and its inverse
/// permutation, shared by all tree algorithms. Public so that callers that
/// evaluate many PRFe instances over one tree (PRFe mixtures) can sort once.
pub fn score_order(tree: &AndXorTree) -> (Vec<TupleId>, Vec<usize>) {
    let order: Vec<TupleId> = sort_indices_by_score_desc(tree.scores())
        .into_iter()
        .map(|i| TupleId(i as u32))
        .collect();
    let mut pos = vec![0usize; order.len()];
    for (i, t) in order.iter().enumerate() {
        pos[t.index()] = i;
    }
    (order, pos)
}

pub(crate) fn tuple_view(tree: &AndXorTree, marginals: &[f64], t: TupleId) -> Tuple {
    Tuple {
        id: t,
        score: tree.score(t),
        prob: marginals[t.index()],
    }
}

/// Cached per-relation walk artifacts — everything a tree walk otherwise
/// rebuilds on every call: the score order and its inverse permutation, the
/// tuple marginals, and the compiled combine plan. One `TreePrepared`
/// serves any number of serial or sharded walks
/// over the same tree (per-walk evaluator *state* is built fresh each walk;
/// only this immutable skeleton is shared), which is what lets a serving
/// layer amortize the `O(n log n)` sort and `O(tree)` plan compilation
/// across flushes instead of paying them per flush.
#[derive(Clone)]
pub(crate) struct TreePrepared {
    pub(crate) order: Vec<TupleId>,
    pub(crate) pos: Vec<usize>,
    pub(crate) marginals: Vec<f64>,
    pub(crate) plan: EvalPlan,
}

impl TreePrepared {
    pub(crate) fn new(tree: &AndXorTree) -> Self {
        let (order, pos) = score_order(tree);
        TreePrepared {
            order,
            pos,
            marginals: tree.marginals(),
            plan: EvalPlan::new(tree),
        }
    }
}

/// `Υ(t) = Σ_{j ≤ cap} ω(t, j)·[x^{j−1}] B(x)` read off one generating
/// function — shared by the serial and parallel walks.
pub(crate) fn upsilon_from_gf(
    gf: &RankPoly,
    tv: &Tuple,
    omega: &dyn WeightFunction,
    cap: usize,
) -> Complex {
    let mut ups = Complex::ZERO;
    for j in 1..=cap {
        let c = gf.rank_probability(j);
        if c != 0.0 {
            ups += omega.weight(tv, j) * c;
        }
    }
    ups
}

// ---------------------------------------------------------------------
// 1. Symbolic expansion (Algorithm 2), incremental
// ---------------------------------------------------------------------

/// Υ values for every tuple of a correlated relation under an arbitrary PRF
/// weight function (ANDXOR-PRF-RANK), via the incremental symbolic engine:
/// per tuple, two leaf relabels and their `O(depth·log fanout)` path
/// recombinations replace Algorithm 2's full `O(tree size)` refold.
///
/// Respects [`WeightFunction::truncation`]: PT(h)/PRFω(h)/U-Rank only expand
/// the first `h` coefficients. Agreement with the literal Algorithm 2
/// ([`oracle::prf_rank_tree_refold`]) is enforced to 1e-9 by the
/// differential suite in `tests/incremental_engine.rs`.
pub fn prf_rank_tree(tree: &AndXorTree, omega: &dyn WeightFunction) -> Vec<Complex> {
    let n = tree.n_tuples();
    let mut out = vec![Complex::ZERO; n];
    let cap = omega.truncation().unwrap_or(n).min(n);
    if cap == 0 {
        return out;
    }
    let prep = TreePrepared::new(tree);
    let mut inc = prep.plan.evaluator(|_| RankPoly::one().with_cap(cap));
    for (i, &t) in prep.order.iter().enumerate() {
        if i > 0 {
            // Previous tuple's label moves from y to x.
            inc.set_leaf(prep.order[i - 1], RankPoly::x().with_cap(cap));
        }
        // Current tuple's label moves from 1 to y.
        inc.set_leaf(t, RankPoly::y().with_cap(cap));
        let tv = tuple_view(tree, &prep.marginals, t);
        out[t.index()] = upsilon_from_gf(inc.root(), &tv, omega, cap);
    }
    out
}

/// The full positional-probability matrix on a tree:
/// `result[t][j−1] = Pr(r(t) = j)`. `O(n³)`-ish — test oracle scale.
pub fn rank_distributions_tree(tree: &AndXorTree) -> Vec<Vec<f64>> {
    let n = tree.n_tuples();
    let (order, pos) = score_order(tree);
    let mut out = vec![Vec::new(); n];
    for (i, &t) in order.iter().enumerate() {
        let gf = tree.generating_function(|u| {
            if u == t {
                RankPoly::y()
            } else if pos[u.index()] < i {
                RankPoly::x()
            } else {
                RankPoly::one()
            }
        });
        out[t.index()] = gf.rank_distribution(n);
    }
    out
}

// ---------------------------------------------------------------------
// 2. Incremental PRFe (Algorithm 3, division-free)
// ---------------------------------------------------------------------

/// PRFe(α) over an and/xor tree — ANDXOR-PRFe-RANK (Algorithm 3) on the
/// division-free incremental engine, generic over any [`GfValue`] scalar.
///
/// Each step relabels two leaves of a [`YLin`]-valued evaluator (processed
/// tuples carry `α`, the current tuple `y`) and reads `Υ = B(α)·α` off the
/// root. Total cost `O(Σᵢ dᵢ·log fanout + n log n)` where `dᵢ` is the depth
/// of tuple `i`. Use [`Complex`] / `f64` directly at small scale,
/// [`Scaled`] scalars (see [`prfe_rank_tree_scaled`]) when products may
/// underflow, or [`Dual`] for derivatives. Unlike the paper's formulation
/// there is **no division**: ∧ nodes recombine cached sibling products, so
/// `p = 1` leaves, zero-probability edges and `α = 0` need no zero-count
/// bookkeeping.
pub fn prfe_rank_tree<T: GfValue>(tree: &AndXorTree, alpha: T) -> Vec<T> {
    let n = tree.n_tuples();
    let mut out = vec![T::zero(); n];
    if n == 0 {
        return out;
    }
    let (order, _) = score_order(tree);
    let plan = EvalPlan::new(tree);
    let mut inc = plan.evaluator(|_| YLin::<T>::one());
    let processed = YLin::pure(alpha.clone());
    for (i, &t) in order.iter().enumerate() {
        if i > 0 {
            // Previous tuple's label moves from y to α (the "x" slot).
            inc.set_leaf(order[i - 1], processed.clone());
        }
        // Current tuple's label moves from 1 to y.
        inc.set_leaf(t, YLin::y());
        // Υ(t) = B(α)·α.
        out[t.index()] = inc.root().b.mul(&alpha);
    }
    out
}

/// [`prfe_rank_tree`] in scaled-complex arithmetic — underflow-proof at any
/// scale; keys for ranking come from
/// [`Scaled::magnitude_key`](prf_numeric::Scaled::magnitude_key).
pub fn prfe_rank_tree_scaled(tree: &AndXorTree, alpha: Complex) -> Vec<Scaled<Complex>> {
    prfe_rank_tree(tree, Scaled::new(alpha))
}

// ---------------------------------------------------------------------
// 3. Expected ranks on trees (dual numbers)
// ---------------------------------------------------------------------

/// Expected ranks over an and/xor tree, in `O(Σᵢ dᵢ + n log n)`:
/// `E-Rank(t) = er₁(t) + er₂(t)` with
///
/// * `er₁(t) = Σᵢ i·Pr(r(t) = i)` — the derivative at `α = 1` of the PRFe
///   value `Υ_α(t) = Σᵢ Pr(r(t)=i)·αⁱ`, obtained by running the incremental
///   engine over dual numbers;
/// * `er₂(t) = Σ_{pw: t∉pw} Pr(pw)·|pw|` — the derivative at `x = 1` of
///   `A(x) = F(x, y=0)` under the labelling that marks *every* other leaf
///   `x`, obtained from a second incremental pass.
///
/// Tuples absent from a world are charged that world's size, following
/// Cormode et al. Lower is better; callers typically rank by `−E-Rank`.
pub fn expected_ranks_tree(tree: &AndXorTree) -> Vec<f64> {
    let n = tree.n_tuples();
    if n == 0 {
        return Vec::new();
    }
    let alpha = Dual::variable(1.0);

    // er₁ via the incremental engine over duals.
    let er1: Vec<Dual> = prfe_rank_tree(tree, alpha);

    // er₂: all leaves labelled x = 1+ε, the target labelled y; read dA/dε
    // (shared with the batched walk).
    let plan = EvalPlan::new(tree);
    let er2 = erank_absent_term(&plan, n);

    (0..n).map(|t| er1[t].d + er2[t]).collect()
}

// ---------------------------------------------------------------------
// 4. Batched multi-query walk (one score order, one plan, one pass)
// ---------------------------------------------------------------------

/// The parsed consumer set of a batched walk: which
/// [`SharedRequest`]s read the shared truncated-polynomial evaluator
/// (weight-based semantics — truncation views of one polynomial capped at
/// the *largest* requested horizon) and which ride along as scalar
/// evaluation points (PRFe per α, expected ranks via dual numbers).
pub(crate) struct BatchConsumers {
    /// `(request index, ω, extraction cap)` — all served by ONE polynomial
    /// evaluator.
    weights: Vec<(usize, Arc<dyn WeightFunction + Send + Sync>, usize)>,
    /// `(request index, kind)` — one scalar evaluator each.
    scalars: Vec<(usize, ScalarKind)>,
    /// The shared polynomial cap (max over `weights`; 0 = no polynomial).
    cap: usize,
}

#[derive(Clone, Copy)]
enum ScalarKind {
    /// PRFe(α), plain complex.
    Complex(Complex),
    /// PRFe(α), scaled; `true` converts to log-domain keys
    /// (`ln |Υ|`) at extraction.
    Scaled(Complex, bool),
    /// Expected ranks: the in-world term er₁ via `α = 1 + ε`.
    Erank,
}

impl BatchConsumers {
    pub(crate) fn parse(spec: &SharedWalkSpec, n: usize) -> Self {
        let mut weights = Vec::new();
        let mut scalars = Vec::new();
        let mut cap = 0usize;
        for (i, req) in spec.requests.iter().enumerate() {
            match req {
                SharedRequest::Weight(w) => {
                    let c = req.weight_cap(n).expect("weight request has a cap");
                    cap = cap.max(c);
                    weights.push((i, w.clone(), c));
                }
                SharedRequest::PrfeComplex(a) => scalars.push((i, ScalarKind::Complex(*a))),
                SharedRequest::PrfeLog(a) => {
                    scalars.push((i, ScalarKind::Scaled(Complex::real(*a), true)))
                }
                SharedRequest::PrfeScaled(a) => scalars.push((i, ScalarKind::Scaled(*a, false))),
                SharedRequest::ExpectedRanks => scalars.push((i, ScalarKind::Erank)),
            }
        }
        BatchConsumers {
            weights,
            scalars,
            cap,
        }
    }

    /// `true` when an expected-ranks consumer is present (it needs the
    /// extra absent-worlds pass after the main walk).
    fn wants_erank(&self) -> bool {
        self.scalars
            .iter()
            .any(|(_, k)| matches!(k, ScalarKind::Erank))
    }
}

/// The mutable per-shard state of a batched walk: one polynomial evaluator
/// (if any weight consumer exists) plus one scalar evaluator per
/// PRFe/E-Rank consumer — all over ONE shared [`EvalPlan`].
/// Cloning snapshots every evaluator's fold state over the shared plan —
/// the parallel batch walk advances ONE walker set chunk by chunk and
/// clones a per-shard snapshot at each boundary.
#[derive(Clone)]
pub(crate) struct BatchWalkers<'p> {
    poly: Option<IncrementalGf<'p, RankPoly>>,
    scalars: Vec<ScalarWalker<'p>>,
    cap: usize,
}

#[derive(Clone)]
enum ScalarWalker<'p> {
    Complex(IncrementalGf<'p, YLin<Complex>>, Complex),
    Scaled(
        IncrementalGf<'p, YLin<Scaled<Complex>>>,
        Scaled<Complex>,
        bool,
    ),
    Dual(IncrementalGf<'p, YLin<Dual>>, Dual),
}

impl<'p> BatchWalkers<'p> {
    /// Builds every evaluator directly in the labelling where tuples with
    /// `processed(t) == true` already carry their post-walk label (`x` /
    /// `α`) — the fast-forward construction the sharded parallel walk
    /// starts each shard from.
    pub(crate) fn fast_forward(
        plan: &'p EvalPlan,
        consumers: &BatchConsumers,
        mut processed: impl FnMut(TupleId) -> bool,
    ) -> Self {
        let cap = consumers.cap;
        let poly = (cap > 0).then(|| {
            plan.evaluator(|t| {
                if processed(t) {
                    RankPoly::x().with_cap(cap)
                } else {
                    RankPoly::one().with_cap(cap)
                }
            })
        });
        let scalars = consumers
            .scalars
            .iter()
            .map(|&(_, kind)| match kind {
                ScalarKind::Complex(a) => ScalarWalker::Complex(
                    plan.evaluator(|t| {
                        if processed(t) {
                            YLin::pure(a)
                        } else {
                            YLin::one()
                        }
                    }),
                    a,
                ),
                ScalarKind::Scaled(a, log) => {
                    let a = Scaled::new(a);
                    ScalarWalker::Scaled(
                        plan.evaluator(|t| {
                            if processed(t) {
                                YLin::pure(a)
                            } else {
                                YLin::one()
                            }
                        }),
                        a,
                        log,
                    )
                }
                ScalarKind::Erank => {
                    let a = Dual::variable(1.0);
                    ScalarWalker::Dual(
                        plan.evaluator(|t| {
                            if processed(t) {
                                YLin::pure(a)
                            } else {
                                YLin::one()
                            }
                        }),
                        a,
                    )
                }
            })
            .collect();
        BatchWalkers { poly, scalars, cap }
    }

    /// Advances every evaluator so the leaves selected by `advance` carry
    /// their post-walk label (`x` / `α`), in one bulk bottom-up sweep per
    /// evaluator ([`IncrementalGf::set_leaves_bulk`]) — how the parallel
    /// batch walk extends the shared fold prefix from one shard boundary
    /// to the next before cloning a snapshot.
    pub(crate) fn advance_bulk(&mut self, mut advance: impl FnMut(TupleId) -> bool) {
        let cap = self.cap;
        if let Some(inc) = &mut self.poly {
            inc.set_leaves_bulk(|t| advance(t).then(|| RankPoly::x().with_cap(cap)));
        }
        for s in &mut self.scalars {
            match s {
                ScalarWalker::Complex(inc, a) => {
                    let a = *a;
                    inc.set_leaves_bulk(|t| advance(t).then(|| YLin::pure(a)));
                }
                ScalarWalker::Scaled(inc, a, _) => {
                    let a = *a;
                    inc.set_leaves_bulk(|t| advance(t).then(|| YLin::pure(a)));
                }
                ScalarWalker::Dual(inc, a) => {
                    let a = *a;
                    inc.set_leaves_bulk(|t| advance(t).then(|| YLin::pure(a)));
                }
            }
        }
    }

    /// One walk step: the previous tuple's label moves `y → x`/`α`, the
    /// current tuple's `1 → y`, in every evaluator.
    pub(crate) fn step(&mut self, prev: Option<TupleId>, cur: TupleId) {
        if let Some(p) = prev {
            if let Some(inc) = &mut self.poly {
                inc.set_leaf(p, RankPoly::x().with_cap(self.cap));
            }
            for s in &mut self.scalars {
                match s {
                    ScalarWalker::Complex(inc, a) => inc.set_leaf(p, YLin::pure(*a)),
                    ScalarWalker::Scaled(inc, a, _) => inc.set_leaf(p, YLin::pure(*a)),
                    ScalarWalker::Dual(inc, a) => inc.set_leaf(p, YLin::pure(*a)),
                }
            }
        }
        if let Some(inc) = &mut self.poly {
            inc.set_leaf(cur, RankPoly::y().with_cap(self.cap));
        }
        for s in &mut self.scalars {
            match s {
                ScalarWalker::Complex(inc, _) => inc.set_leaf(cur, YLin::y()),
                ScalarWalker::Scaled(inc, _, _) => inc.set_leaf(cur, YLin::y()),
                ScalarWalker::Dual(inc, _) => inc.set_leaf(cur, YLin::y()),
            }
        }
    }

    /// Reads every consumer's Υ for the current tuple into position `at`
    /// of the answer buffers — `tv.id.index()` for full-length buffers
    /// (the serial walk), a shard-relative position for the parallel
    /// walk's shard-sized buffers.
    pub(crate) fn extract(
        &self,
        consumers: &BatchConsumers,
        tv: &Tuple,
        answers: &mut [SharedAnswer],
        at: usize,
    ) {
        let t = at;
        if let Some(inc) = &self.poly {
            for (req, w, cap) in &consumers.weights {
                if let SharedAnswer::Complex(buf) = &mut answers[*req] {
                    buf[t] = upsilon_from_gf(inc.root(), tv, w.as_ref(), *cap);
                }
            }
        }
        for ((req, _), walker) in consumers.scalars.iter().zip(&self.scalars) {
            match walker {
                ScalarWalker::Complex(inc, a) => {
                    if let SharedAnswer::Complex(buf) = &mut answers[*req] {
                        buf[t] = inc.root().b.mul(a);
                    }
                }
                ScalarWalker::Scaled(inc, a, log) => {
                    let v = inc.root().b.mul(a);
                    match (&mut answers[*req], log) {
                        (SharedAnswer::Log(buf), true) => {
                            buf[t] = v.magnitude_key() * std::f64::consts::LN_2;
                        }
                        (SharedAnswer::Scaled(buf), false) => buf[t] = v,
                        _ => unreachable!("buffer shape matches request shape"),
                    }
                }
                ScalarWalker::Dual(inc, a) => {
                    if let SharedAnswer::Ranks(buf) = &mut answers[*req] {
                        // er₁ for now; the absent-worlds term er₂ is added
                        // after the walk.
                        buf[t] = inc.root().b.mul(a).d;
                    }
                }
            }
        }
    }

    /// Merged memory accounting across every live evaluator.
    pub(crate) fn stats(&self) -> GfStats {
        let mut stats = self
            .poly
            .as_ref()
            .map(IncrementalGf::stats)
            .unwrap_or_default();
        for s in &self.scalars {
            stats = stats.merge(match s {
                ScalarWalker::Complex(inc, _) => inc.stats(),
                ScalarWalker::Scaled(inc, _, _) => inc.stats(),
                ScalarWalker::Dual(inc, _) => inc.stats(),
            });
        }
        stats
    }
}

/// The absent-worlds term of expected ranks,
/// `er₂(t) = Σ_{pw: t∉pw} Pr(pw)·|pw|`, via a second leaf-relabeling pass
/// over the shared plan (every other leaf carries `1 + ε`; read `dA/dε`).
pub(crate) fn erank_absent_term(plan: &EvalPlan, n: usize) -> Vec<f64> {
    let alpha = Dual::variable(1.0);
    let mut er2 = vec![0.0f64; n];
    let mut inc = plan.evaluator(|_| YLin::pure(alpha));
    for t in 0..n {
        if t > 0 {
            inc.set_leaf(TupleId((t - 1) as u32), YLin::pure(alpha));
        }
        inc.set_leaf(TupleId(t as u32), YLin::y());
        er2[t] = inc.root().a.d;
    }
    er2
}

/// Adds er₂ into every expected-ranks answer buffer (which holds er₁ after
/// the main walk).
pub(crate) fn finish_erank_answers(
    consumers: &BatchConsumers,
    plan: &EvalPlan,
    n: usize,
    answers: &mut [SharedAnswer],
) {
    if !consumers.wants_erank() {
        return;
    }
    let er2 = erank_absent_term(plan, n);
    for (req, kind) in &consumers.scalars {
        if matches!(kind, ScalarKind::Erank) {
            if let SharedAnswer::Ranks(buf) = &mut answers[*req] {
                for (b, e) in buf.iter_mut().zip(&er2) {
                    *b += e;
                }
            }
        }
    }
}

/// The [`AndXorTree`] walk entry behind
/// [`ProbabilisticRelation::run_shared_walk`](crate::query::ProbabilisticRelation::run_shared_walk).
///
/// Truncated weight requests on an x-tuple tree take the
/// `O(n·h·log n)` fast path ([`crate::xtuple::prf_omega_rank_xtuple`]),
/// which needs no plan. Every other request shares one walk over the
/// prepared skeleton (`prep`, or a fresh [`TreePrepared`] when `prep` holds
/// none for this tree), sharded over `spec.threads` workers when every
/// shard clears [`crate::parallel::PARALLEL_MIN_SHARD_TUPLES`] and serial
/// otherwise (identical answers, strictly less work).
pub(crate) fn walk_tree(
    tree: &AndXorTree,
    spec: &SharedWalkSpec,
    prep: &PreparedState,
) -> Option<SharedWalkOut> {
    let start = Instant::now();
    let n = tree.n_tuples();
    if n == 0 {
        return Some(SharedWalkOut {
            answers: spec.answer_buffers(0),
            stats: None,
            walk_seconds: start.elapsed().as_secs_f64(),
        });
    }
    let xtuple = tree.x_tuple_groups().is_some();
    let fast: Vec<Option<Vec<Complex>>> = spec
        .requests
        .iter()
        .map(|req| match req {
            SharedRequest::Weight(w) if xtuple && w.truncation().is_some() => {
                crate::xtuple::prf_omega_rank_xtuple(tree, &**w)
            }
            _ => None,
        })
        .collect();
    let rest = SharedWalkSpec {
        requests: spec
            .requests
            .iter()
            .zip(&fast)
            .filter(|(_, f)| f.is_none())
            .map(|(r, _)| r.clone())
            .collect(),
        threads: spec.threads,
        cancel: spec.cancel.clone(),
    };
    let walked = if rest.requests.is_empty() {
        None
    } else {
        let built;
        let tp = match prep.tree_prepared() {
            Some(tp) if tp.order.len() == n => tp,
            _ => {
                built = TreePrepared::new(tree);
                &built
            }
        };
        Some(
            match crate::parallel::effective_walk_threads(n, spec.threads) {
                t if t > 1 => crate::parallel::batch_walk_tree_parallel(tree, &rest, t, tp),
                _ => batch_walk_tree(tree, &rest, tp),
            }?,
        )
    };
    let (stats, rest_answers) = walked.map_or((None, Vec::new()), |w| (w.stats, w.answers));
    let mut rest_answers = rest_answers.into_iter();
    let answers = fast
        .into_iter()
        .map(|f| match f {
            Some(vals) => SharedAnswer::Complex(vals),
            None => rest_answers.next().expect("one answer per walked request"),
        })
        .collect();
    Some(SharedWalkOut {
        answers,
        stats,
        walk_seconds: start.elapsed().as_secs_f64(),
    })
}

/// Serves a whole [`SharedWalkSpec`] from **one** serial score-order walk
/// over **one** prepared skeleton (see [`TreePrepared`]): the batched form
/// of [`prf_rank_tree`] / [`prfe_rank_tree`] / [`expected_ranks_tree`],
/// answer-equivalent to each request's free kernel (within 1e-9 — see
/// `tests/batch_equivalence.rs`). A serving flush reusing `prep` pays only
/// the walk itself.
///
/// Returns `None` when the spec's cancellation token trips mid-walk (every
/// consumer gave up — see `SharedWalkSpec::cancel`).
pub(crate) fn batch_walk_tree(
    tree: &AndXorTree,
    spec: &SharedWalkSpec,
    prep: &TreePrepared,
) -> Option<SharedWalkOut> {
    let start = Instant::now();
    let n = tree.n_tuples();
    let consumers = BatchConsumers::parse(spec, n);
    let mut answers = spec.answer_buffers(n);
    let mut walkers = BatchWalkers::fast_forward(&prep.plan, &consumers, |_| false);
    for (i, &t) in prep.order.iter().enumerate() {
        // Cooperative cancellation: abandon the walk once every consumer
        // has given up (polled every 256 score steps).
        if i & 0xFF == 0 && spec.is_cancelled() {
            return None;
        }
        walkers.step((i > 0).then(|| prep.order[i - 1]), t);
        let tv = tuple_view(tree, &prep.marginals, t);
        walkers.extract(&consumers, &tv, &mut answers, t.index());
    }
    let stats = walkers.stats();
    // The E-Rank absent-worlds pass holds one transient scalar evaluator;
    // it is not part of the reported walk accounting (and the parallel
    // walk reports identically).
    finish_erank_answers(&consumers, &prep.plan, n, &mut answers);
    Some(SharedWalkOut {
        answers,
        stats: Some(stats),
        walk_seconds: start.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::oracle::*;
    use super::*;
    use crate::weights::*;
    use prf_pdb::{IndependentDb, NodeKind, TreeBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Figure 1 tree (see prf-pdb tests for the construction).
    fn figure1_tree() -> AndXorTree {
        let mut b = TreeBuilder::new(NodeKind::And);
        let root = b.root();
        let x1 = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
        b.add_leaf(x1, 0.4, 120.0).unwrap();
        let x2 = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
        b.add_leaf(x2, 0.7, 130.0).unwrap();
        b.add_leaf(x2, 0.3, 80.0).unwrap();
        let x3 = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
        b.add_leaf(x3, 0.4, 95.0).unwrap();
        b.add_leaf(x3, 0.6, 110.0).unwrap();
        let x4 = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
        b.add_leaf(x4, 1.0, 105.0).unwrap();
        b.build().unwrap()
    }

    /// A random and/xor tree with explicit kind tracking, for differential
    /// testing against brute-force world enumeration.
    fn random_tree2(seed: u64, target_leaves: usize, max_depth: usize) -> AndXorTree {
        let mut rng = StdRng::seed_from_u64(seed);
        let root_kind = if rng.gen_bool(0.5) {
            NodeKind::And
        } else {
            NodeKind::Xor
        };
        let mut b = TreeBuilder::new(root_kind);
        // Frontier of (node, kind, depth, remaining xor budget).
        let mut frontier = vec![(b.root(), root_kind, 0usize, 1.0f64)];
        let mut leaves = 0usize;
        while leaves < target_leaves {
            let idx = rng.gen_range(0..frontier.len());
            let (node, kind, depth, budget) = frontier[idx];
            let is_xor = matches!(kind, NodeKind::Xor);
            // Probability for this child's edge.
            let p = if is_xor {
                let p = rng.gen_range(0.0..budget.min(0.6));
                frontier[idx].3 -= p;
                p
            } else {
                1.0
            };
            let make_leaf = depth >= max_depth || rng.gen_bool(0.65);
            if make_leaf {
                let score = rng.gen_range(0.0..100.0);
                b.add_leaf(node, p, score).unwrap();
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

    #[test]
    fn symbolic_rank_distributions_match_enumeration() {
        for seed in 0..8u64 {
            let tree = random_tree2(seed, 7, 3);
            let worlds = tree.enumerate_worlds(1 << 18).unwrap();
            let scores = tree.scores();
            let dists = rank_distributions_tree(&tree);
            for t in 0..tree.n_tuples() {
                let brute = worlds.rank_distribution(TupleId(t as u32), tree.n_tuples(), scores);
                for j in 0..tree.n_tuples() {
                    assert!(
                        (dists[t][j] - brute[j]).abs() < 1e-9,
                        "seed {seed} tuple {t} rank {j}: {} vs {}",
                        dists[t][j],
                        brute[j]
                    );
                }
            }
        }
    }

    #[test]
    fn figure1_example_4_rank_probability() {
        let tree = figure1_tree();
        let d = rank_distributions_tree(&tree);
        // Pr(r(t₄)=3) = 0.216 — t₄ is our TupleId(3) (score 95).
        assert!((d[3][2] - 0.216).abs() < 1e-12, "got {}", d[3][2]);
    }

    #[test]
    fn incremental_prf_matches_refold_oracle() {
        for seed in 0..10u64 {
            let tree = random_tree2(seed, 12, 4);
            let weights: Vec<Box<dyn WeightFunction>> = vec![
                Box::new(StepWeight { h: 1 }),
                Box::new(StepWeight { h: 4 }),
                Box::new(ConstantWeight),
                Box::new(PositionWeight { j: 2 }),
                Box::new(ExponentialWeight::real(0.8)),
            ];
            for w in &weights {
                let inc = prf_rank_tree(&tree, w.as_ref());
                let refold = prf_rank_tree_refold(&tree, w.as_ref());
                for t in 0..tree.n_tuples() {
                    assert!(
                        inc[t].approx_eq(refold[t], 1e-9),
                        "seed {seed} {} t{t}: {} vs {}",
                        w.name(),
                        inc[t],
                        refold[t]
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_prfe_matches_recompute() {
        for seed in 0..10u64 {
            let tree = random_tree2(seed, 12, 4);
            for &alpha in &[0.3, 0.9, 1.0] {
                let a = Complex::real(alpha);
                let inc = prfe_rank_tree(&tree, a);
                let rec = prfe_rank_tree_recompute(&tree, a);
                for t in 0..tree.n_tuples() {
                    assert!(
                        inc[t].approx_eq(rec[t], 1e-9),
                        "seed {seed} α={alpha} t{t}: {} vs {}",
                        inc[t],
                        rec[t]
                    );
                }
            }
            // Complex α.
            let a = Complex::new(0.5, 0.4);
            let inc = prfe_rank_tree(&tree, a);
            let rec = prfe_rank_tree_recompute(&tree, a);
            for t in 0..tree.n_tuples() {
                assert!(inc[t].approx_eq(rec[t], 1e-9));
            }
        }
    }

    #[test]
    fn incremental_prfe_matches_symbolic_oracle() {
        let tree = figure1_tree();
        let alpha = 0.6;
        let inc = prfe_rank_tree(&tree, Complex::real(alpha));
        let dists = rank_distributions_tree(&tree);
        for t in 0..tree.n_tuples() {
            let oracle: f64 = dists[t]
                .iter()
                .enumerate()
                .map(|(j0, &p)| p * alpha.powi(j0 as i32 + 1))
                .sum();
            assert!(
                (inc[t].re - oracle).abs() < 1e-10,
                "t{t}: {} vs {oracle}",
                inc[t].re
            );
        }
    }

    #[test]
    fn incremental_handles_certain_tuples_alpha_zero() {
        // p = 1 leaves make factors exactly zero at α = 0 — the division-
        // based formulation needed zero-count bookkeeping; the sibling-
        // product engine needs nothing special.
        let tree = figure1_tree(); // t6 has p = 1
        let inc = prfe_rank_tree(&tree, Complex::real(0.0));
        let rec = prfe_rank_tree_recompute(&tree, Complex::real(0.0));
        for t in 0..tree.n_tuples() {
            assert!(inc[t].approx_eq(rec[t], 1e-12), "t{t}");
        }
        for t in 0..tree.n_tuples() {
            assert!(!inc[t].is_nan(), "t{t} must not be NaN");
        }
    }

    #[test]
    fn interp_matches_symbolic() {
        for seed in [3u64, 11, 42] {
            let tree = random_tree2(seed, 9, 3);
            let w = StepWeight { h: 4 };
            let sym = prf_rank_tree(&tree, &w);
            let itp = prf_rank_tree_interp(&tree, &w);
            for t in 0..tree.n_tuples() {
                assert!(
                    sym[t].approx_eq(itp[t], 1e-8),
                    "seed {seed} t{t}: {} vs {}",
                    sym[t],
                    itp[t]
                );
            }
        }
    }

    #[test]
    fn tree_prf_matches_independent_prf_on_independent_data() {
        let db = IndependentDb::from_pairs([
            (10.0, 0.9),
            (9.0, 0.1),
            (8.0, 0.5),
            (7.0, 1.0),
            (6.0, 0.25),
        ])
        .unwrap();
        let tree = AndXorTree::from_independent(&db);
        let weights: Vec<Box<dyn WeightFunction>> = vec![
            Box::new(StepWeight { h: 3 }),
            Box::new(ConstantWeight),
            Box::new(PositionWeight { j: 2 }),
            Box::new(ExponentialWeight::real(0.8)),
        ];
        for w in &weights {
            let via_tree = prf_rank_tree(&tree, w.as_ref());
            let via_ind = crate::independent::prf_rank(&db, w.as_ref());
            for t in 0..db.len() {
                assert!(
                    via_tree[t].approx_eq(via_ind[t], 1e-9),
                    "{} t{t}: {} vs {}",
                    w.name(),
                    via_tree[t],
                    via_ind[t]
                );
            }
        }
    }

    #[test]
    fn scaled_tree_prfe_matches_plain_at_small_scale() {
        let tree = figure1_tree();
        let alpha = Complex::real(0.85);
        let plain = prfe_rank_tree(&tree, alpha);
        let scaled = prfe_rank_tree_scaled(&tree, alpha);
        for t in 0..tree.n_tuples() {
            assert!((scaled[t].to_plain().re - plain[t].re).abs() < 1e-10);
        }
    }

    #[test]
    fn expected_ranks_match_brute_force() {
        for seed in 0..6u64 {
            let tree = random_tree2(seed, 8, 3);
            let worlds = tree.enumerate_worlds(1 << 18).unwrap();
            let scores = tree.scores();
            let got = expected_ranks_tree(&tree);
            for t in 0..tree.n_tuples() {
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
                    (got[t] - brute).abs() < 1e-8,
                    "seed {seed} t{t}: {} vs {brute}",
                    got[t]
                );
            }
        }
    }

    #[test]
    fn truncated_tree_prf_reads_only_low_ranks() {
        let tree = figure1_tree();
        let full = prf_rank_tree(&tree, &StepWeight { h: 2 });
        let dists = rank_distributions_tree(&tree);
        for t in 0..tree.n_tuples() {
            let expect: f64 = dists[t][..2].iter().sum();
            assert!((full[t].re - expect).abs() < 1e-10);
        }
    }

    #[test]
    fn stats_variants_report_memory() {
        let tree = figure1_tree();
        let walk = |req| {
            let spec = SharedWalkSpec::serial(vec![req]);
            let out = batch_walk_tree(&tree, &spec, &TreePrepared::new(&tree)).unwrap();
            (
                out.answers,
                out.stats.expect("the tree walk accounts memory"),
            )
        };
        let (vals, stats) = walk(SharedRequest::Weight(Arc::new(StepWeight { h: 3 })));
        let SharedAnswer::Complex(vals) = &vals[0] else {
            panic!("weight request answers complex values")
        };
        assert_eq!(*vals, prf_rank_tree(&tree, &StepWeight { h: 3 }));
        assert!(stats.plan_nodes > 0);
        assert!(stats.peak_coefficients >= stats.resident_coefficients);
        let (_, sstats) = walk(SharedRequest::PrfeScaled(Complex::real(0.7)));
        assert!(sstats.plan_nodes > 0);
        // Scalar engines hold no heap coefficients.
        assert_eq!(sstats.peak_coefficients, 0);
        assert!(sstats.peak_bytes > 0);
    }
}
