//! The backend abstraction of the unified query engine.
//!
//! A [`ProbabilisticRelation`] is anything the engine can rank: it exposes
//! the scored-tuple view plus one shared-walk entry that serves every
//! PRF-family request. `prf-core` implements it for [`IndependentDb`] and
//! [`AndXorTree`]; `prf-graphical` implements it for
//! junction-tree-correlated relations via its `NetworkRelation` ranking
//! adapter.

use std::sync::Arc;

use prf_numeric::{Complex, GfValue, Scaled};
use prf_pdb::{AndXorTree, IndependentDb, TupleId};

use super::batch::{SharedAnswer, SharedRequest, SharedWalkOut, SharedWalkSpec};
use super::kernels;
use super::{PreparedState, QueryError};
use crate::weights::PositionWeight;

/// How the tuples of a relation may be correlated — drives the `Auto`
/// algorithm heuristic and is echoed in the evaluation report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorrelationClass {
    /// Fully independent tuples.
    Independent,
    /// X-tuples: mutually exclusive groups, independent across groups
    /// (height-2 and/xor trees).
    XTuple,
    /// A general probabilistic and/xor tree.
    Tree,
    /// Arbitrary correlations through a graphical model.
    Graphical,
}

impl std::fmt::Display for CorrelationClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CorrelationClass::Independent => "independent",
            CorrelationClass::XTuple => "x-tuple",
            CorrelationClass::Tree => "and/xor tree",
            CorrelationClass::Graphical => "graphical",
        };
        f.write_str(s)
    }
}

/// World-count budget for the exact enumerated U-Top path on correlated
/// backends; beyond it the query reports `Unsupported`.
const UTOP_WORLD_LIMIT: usize = 1 << 20;

/// Answer values one walk of the default
/// [`ProbabilisticRelation::positional_candidates`] may buffer (64 MiB of
/// complex values): positions are requested `max(1, this / n)` at a time.
const POSITIONAL_WALK_VALUES: usize = 1 << 22;

/// A probabilistic relation the [`super::RankQuery`] engine can evaluate.
///
/// The trait has four groups of methods:
///
/// * **shape** — [`Self::n_tuples`], [`Self::tuple_scores`],
///   [`Self::tuple_marginals`], [`Self::correlation_class`] and
///   [`Self::generation`];
/// * **the walk** — [`Self::prepare`] builds reusable state once, and
///   [`Self::run_shared_walk`] is the **one** kernel entry for the whole
///   PRF family: PRFω, PT, Consensus, PRFe in every numeric mode and E-Rank
///   all reach a kernel only through it, as [`SharedRequest`]s of one
///   score-order walk (a single query is a walk with one request);
/// * **set and position semantics** — [`Self::most_probable_topk`]
///   (U-Top) and [`Self::positional_candidates`] (U-Rank), plus the
///   [`Self::prfe_log_ranked`] shortcut a live relation's key cache
///   serves;
/// * **the shard monoid** — [`Self::presence_gf_coeffs`] and
///   [`Self::presence_gf_point`], which
///   [`crate::shard::ShardedRelation`] composes.
///
/// A minimal backend (like `prf-graphical`'s adapter) implements the shape
/// methods and the walk; every other method has a working default.
///
/// [`SharedRequest`]: super::batch::SharedRequest
pub trait ProbabilisticRelation {
    /// Number of tuples.
    fn n_tuples(&self) -> usize;

    /// Tuple scores, indexed by tuple id.
    fn tuple_scores(&self) -> Vec<f64>;

    /// Tuple existence marginals `Pr(t ∈ pw)`, indexed by tuple id.
    fn tuple_marginals(&self) -> Vec<f64>;

    /// The correlation structure of this backend.
    fn correlation_class(&self) -> CorrelationClass;

    /// A monotone counter identifying the current *version* of the
    /// relation's data. Immutable backends return `0` forever (the
    /// default); mutable wrappers like [`crate::live::LiveRelation`] bump
    /// it on every applied [`crate::live::Mutation`]. A
    /// [`super::PreparedRelation`] compares this against the generation its
    /// cached state was built from and re-prepares on mismatch instead of
    /// silently serving a stale sort/plan/marginal cache.
    fn generation(&self) -> u64 {
        0
    }

    /// Builds the backend's reusable evaluation state — the score sort,
    /// compiled [`crate::incremental::EvalPlan`], and whatever else the
    /// backend's walk rebuilds per call. A [`super::PreparedRelation`]
    /// calls this **once** at registration and threads the result through
    /// every later [`Self::run_shared_walk`]. The default is the empty
    /// state: backends without cacheable preparation stay correct.
    fn prepare(&self) -> PreparedState {
        PreparedState::empty()
    }

    /// Serves every request of `spec` from **one** score-order walk — one
    /// sort, one compiled evaluation plan, one leaf-relabeling pass with a
    /// shared truncated-polynomial evaluator plus one scalar evaluator per
    /// PRFe/E-Rank request — and returns the answers in request order.
    ///
    /// `prep` is state built by [`Self::prepare`]; an empty (or foreign)
    /// state means "build what you need". Returns `None` when the spec's
    /// cancellation token trips mid-walk, or when the backend has no
    /// kernel for one of the requests (the engine then retries each
    /// request alone, so the others still succeed).
    fn run_shared_walk(&self, spec: &SharedWalkSpec, prep: &PreparedState)
        -> Option<SharedWalkOut>;

    /// Log-domain PRFe keys (`ln Υ`, `-∞` where `Υ = 0`, real
    /// `α ∈ [0, 1]`) together with the tuple order they induce (best first,
    /// ties by tuple id — the exact order
    /// [`crate::topk::Ranking::from_keys`] produces), when the backend can
    /// deliver that order cheaper than a walk plus the engine's own sort.
    /// `None` (the default) sends the query down the walk.
    ///
    /// [`crate::live::LiveRelation`] overrides this: after a reweight it
    /// re-ranks by an O(n) three-way merge (the mutation shifts every
    /// lower-scored key by one shared constant, so relative order inside
    /// the prefix and suffix survives), which is what makes
    /// requery-after-mutation asymptotically cheaper than rebuilding.
    fn prfe_log_ranked(&self, alpha: f64) -> Option<(Vec<f64>, Vec<TupleId>)> {
        let _ = alpha;
        None
    }

    /// The most probable top-k *set* (score-descending members, ln
    /// probability). `Err(Unsupported)` when the backend has no exact
    /// algorithm; `Err(NoSetAnswer)` when `k` exceeds the relation or no
    /// set has positive probability.
    fn most_probable_topk(&self, k: usize) -> Result<(Vec<TupleId>, f64), QueryError> {
        let _ = k;
        Err(QueryError::Unsupported {
            semantics: "U-Top",
            backend: self.correlation_class(),
        })
    }

    /// Bounded per-position candidate lists `Pr(r(t) = j)` for `j ≤ k` —
    /// the substrate of U-Rank. The default reads them off shared walks
    /// with one position-indicator weight request `ω(i) = δ(i = j)` per
    /// position (the paper's reduction), as many positions per walk as a
    /// 64 MiB answer budget allows — one walk for small relations, O(n)
    /// answer memory for large ones. Backends override with
    /// single-pass kernels. `None` when the backend declines a walk.
    fn positional_candidates(&self, k: usize) -> Option<kernels::PositionalCandidates> {
        let per_walk = (POSITIONAL_WALK_VALUES / self.n_tuples().max(1)).max(1);
        positional_table(self, k, per_walk)
    }

    /// Coefficients of the presence-count generating function
    /// `G(x) = Σ_a Pr(|pw ∩ R| = a)·xᵃ`, truncated to `cap` coefficients
    /// (degrees `< cap`; trailing zeros may be trimmed, missing entries are
    /// zero). This is the *monoid element* sharding composes: across
    /// independent score-contiguous shards the global GF is the product of
    /// the per-shard GFs, so [`crate::shard::ShardedRelation`] folds these
    /// to build each shard's incoming prefix state. `None` (the default)
    /// marks a backend that cannot be sharded over.
    fn presence_gf_coeffs(&self, cap: usize) -> Option<Vec<f64>> {
        let _ = cap;
        None
    }

    /// The presence-count generating function evaluated at the point `α`,
    /// in scaled arithmetic: `G(α) = Σ_a Pr(|pw ∩ R| = a)·αᵃ` — the scalar
    /// monoid element PRFe sharding composes (see
    /// [`Self::presence_gf_coeffs`]). `None` (the default) marks a backend
    /// that cannot be sharded over.
    fn presence_gf_point(&self, alpha: Complex) -> Option<Scaled<Complex>> {
        let _ = alpha;
        None
    }
}

/// The default U-Rank candidate table, read off walks of `per_walk`
/// position-indicator requests each.
fn positional_table(
    rel: &(impl ProbabilisticRelation + ?Sized),
    k: usize,
    per_walk: usize,
) -> Option<kernels::PositionalCandidates> {
    let mut table = kernels::PositionalCandidates::new(k);
    for first in (1..=k).step_by(per_walk) {
        let last = (first + per_walk - 1).min(k);
        let spec = SharedWalkSpec::serial(
            (first..=last)
                .map(|j| SharedRequest::Weight(Arc::new(PositionWeight { j })))
                .collect(),
        );
        let out = rel.run_shared_walk(&spec, &PreparedState::empty())?;
        for (j, answer) in (first..=last).zip(&out.answers) {
            let SharedAnswer::Complex(vals) = answer else {
                unreachable!("weight request, complex answer")
            };
            for (t, v) in vals.iter().enumerate() {
                table.push(j - 1, v.re, TupleId(t as u32));
            }
        }
    }
    Some(table)
}

impl ProbabilisticRelation for IndependentDb {
    fn n_tuples(&self) -> usize {
        self.len()
    }

    fn tuple_scores(&self) -> Vec<f64> {
        self.scores()
    }

    fn tuple_marginals(&self) -> Vec<f64> {
        self.probabilities()
    }

    fn correlation_class(&self) -> CorrelationClass {
        CorrelationClass::Independent
    }

    fn prepare(&self) -> PreparedState {
        PreparedState::independent(self.ids_by_score_desc())
    }

    fn run_shared_walk(
        &self,
        spec: &SharedWalkSpec,
        prep: &PreparedState,
    ) -> Option<SharedWalkOut> {
        match prep.independent_order() {
            Some(order) if order.len() == self.len() => {
                crate::independent::batch_walk_independent(self, spec, order)
            }
            _ => crate::independent::batch_walk_independent(self, spec, &self.ids_by_score_desc()),
        }
    }

    fn most_probable_topk(&self, k: usize) -> Result<(Vec<TupleId>, f64), QueryError> {
        kernels::most_probable_topk_independent(self, k).ok_or(QueryError::NoSetAnswer)
    }

    fn positional_candidates(&self, k: usize) -> Option<kernels::PositionalCandidates> {
        Some(kernels::positional_candidates_independent(self, k))
    }

    fn presence_gf_coeffs(&self, cap: usize) -> Option<Vec<f64>> {
        let mut g = prf_numeric::Poly::one();
        for p in self.probabilities() {
            g.mul_linear_in_place(1.0 - p, p, cap.max(1));
        }
        Some(g.coeffs().to_vec())
    }

    fn presence_gf_point(&self, alpha: Complex) -> Option<Scaled<Complex>> {
        let mut g = Scaled::<Complex>::one();
        for p in self.probabilities() {
            g = g.mul(&Scaled::new(Complex::real(1.0 - p) + alpha * p));
        }
        Some(g)
    }
}

impl ProbabilisticRelation for AndXorTree {
    fn n_tuples(&self) -> usize {
        AndXorTree::n_tuples(self)
    }

    fn tuple_scores(&self) -> Vec<f64> {
        AndXorTree::scores(self).to_vec()
    }

    fn tuple_marginals(&self) -> Vec<f64> {
        self.marginals()
    }

    fn correlation_class(&self) -> CorrelationClass {
        if self.x_tuple_groups().is_some() {
            CorrelationClass::XTuple
        } else {
            CorrelationClass::Tree
        }
    }

    fn prepare(&self) -> PreparedState {
        if AndXorTree::n_tuples(self) == 0 {
            return PreparedState::empty();
        }
        PreparedState::tree(crate::tree::TreePrepared::new(self))
    }

    fn run_shared_walk(
        &self,
        spec: &SharedWalkSpec,
        prep: &PreparedState,
    ) -> Option<SharedWalkOut> {
        crate::tree::walk_tree(self, spec, prep)
    }

    fn most_probable_topk(&self, k: usize) -> Result<(Vec<TupleId>, f64), QueryError> {
        if k == 0 || k > AndXorTree::n_tuples(self) {
            return Err(QueryError::NoSetAnswer);
        }
        let worlds =
            self.enumerate_worlds(UTOP_WORLD_LIMIT)
                .map_err(|_| QueryError::Unsupported {
                    semantics: "U-Top (exact enumeration exceeds the world budget)",
                    backend: self.correlation_class(),
                })?;
        kernels::most_probable_topk_enumerated(&worlds, AndXorTree::scores(self), k)
            .ok_or(QueryError::NoSetAnswer)
    }

    fn presence_gf_coeffs(&self, cap: usize) -> Option<Vec<f64>> {
        if AndXorTree::n_tuples(self) == 0 {
            return Some(vec![1.0]);
        }
        let g = self.generating_function(|_| prf_numeric::RankPoly::x().with_cap(cap.max(1)));
        Some(g.a.coeffs().to_vec())
    }

    fn presence_gf_point(&self, alpha: Complex) -> Option<Scaled<Complex>> {
        if AndXorTree::n_tuples(self) == 0 {
            return Some(Scaled::one());
        }
        Some(self.generating_function(|_| Scaled::new(alpha)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::StepWeight;

    #[test]
    fn backends_report_their_class() {
        let db = IndependentDb::from_pairs([(10.0, 0.5), (5.0, 0.4)]).unwrap();
        assert_eq!(db.correlation_class(), CorrelationClass::Independent);
        let xt = AndXorTree::from_x_tuples(&[vec![(10.0, 0.5), (5.0, 0.4)]]).unwrap();
        assert_eq!(
            ProbabilisticRelation::correlation_class(&xt),
            CorrelationClass::XTuple
        );
    }

    #[test]
    fn walk_answers_match_the_direct_kernel() {
        let db = IndependentDb::from_pairs([(10.0, 0.5), (5.0, 0.4), (1.0, 1.0)]).unwrap();
        assert_eq!(ProbabilisticRelation::n_tuples(&db), 3);
        assert_eq!(db.tuple_scores(), vec![10.0, 5.0, 1.0]);
        let direct = crate::independent::prf_rank(&db, &StepWeight { h: 2 });
        let spec =
            SharedWalkSpec::serial(vec![SharedRequest::Weight(Arc::new(StepWeight { h: 2 }))]);
        // Empty state and prepared state walk to the same answer.
        for prep in [PreparedState::empty(), db.prepare()] {
            let out = db.run_shared_walk(&spec, &prep).unwrap();
            let SharedAnswer::Complex(via_walk) = &out.answers[0] else {
                panic!("weight request answers complex values")
            };
            assert_eq!(&direct, via_walk);
        }
    }

    #[test]
    fn default_positional_candidates_match_specialised() {
        let db = IndependentDb::from_pairs([
            (10.0, 0.4),
            (9.0, 0.45),
            (8.0, 0.8),
            (7.0, 0.95),
            (6.0, 0.3),
        ])
        .unwrap();
        // Compare the one-walk default against the single-pass kernel.
        struct Generic<'a>(&'a IndependentDb);
        impl ProbabilisticRelation for Generic<'_> {
            fn n_tuples(&self) -> usize {
                self.0.len()
            }
            fn tuple_scores(&self) -> Vec<f64> {
                self.0.scores()
            }
            fn tuple_marginals(&self) -> Vec<f64> {
                self.0.probabilities()
            }
            fn correlation_class(&self) -> CorrelationClass {
                CorrelationClass::Graphical
            }
            fn run_shared_walk(
                &self,
                spec: &SharedWalkSpec,
                prep: &PreparedState,
            ) -> Option<SharedWalkOut> {
                self.0.run_shared_walk(spec, prep)
            }
        }
        for k in [1usize, 3, 5] {
            let fast = db.positional_candidates(k).unwrap().select_distinct();
            let slow = Generic(&db)
                .positional_candidates(k)
                .unwrap()
                .select_distinct();
            assert_eq!(
                fast.iter().map(|c| c.1).collect::<Vec<_>>(),
                slow.iter().map(|c| c.1).collect::<Vec<_>>(),
                "k={k}"
            );
            // Splitting the positions over several walks (as large
            // relations do) reads the same table.
            for per_walk in [1usize, 2, k] {
                let split = positional_table(&Generic(&db), k, per_walk)
                    .unwrap()
                    .select_distinct();
                assert_eq!(split.len(), fast.len(), "k={k} per_walk={per_walk}");
                for (a, b) in split.iter().zip(&fast) {
                    assert_eq!(a.1, b.1, "k={k} per_walk={per_walk}");
                    assert!((a.0 - b.0).abs() <= 1e-9, "k={k} per_walk={per_walk}");
                }
            }
        }
    }
}
