//! Prepared relations: amortizing per-walk setup across repeated queries.
//!
//! Every walk kernel in the engine starts the same way — sort the tuples by
//! score, compile the tree into an [`EvalPlan`](crate::incremental::EvalPlan),
//! gather marginals — and then throws that work away when the walk returns.
//! A one-shot query cannot avoid it, but a *server* evaluating thousands of
//! flushes against the same registered relation pays the `O(n log n)` sort
//! and `O(tree)` plan compilation over and over for identical inputs.
//!
//! [`PreparedRelation`] fixes that: it wraps any
//! [`ProbabilisticRelation`] together with the backend's reusable state
//! (built once by [`ProbabilisticRelation::prepare`]) and implements the
//! trait itself, threading the cached state into every
//! [`ProbabilisticRelation::run_shared_walk`] — the one kernel entry, so
//! single queries and batch entries alike reuse it. Callers —
//! [`RankQuery::run`](super::RankQuery::run), [`QueryBatch`](super::QueryBatch),
//! the `prf-serve` flush pool — need no new API: a `&PreparedRelation` is a
//! relation, just one whose sorts and plans are already built.
//!
//! Backends without cacheable setup (e.g. `prf-graphical`'s junction-tree
//! adapter, whose ranking cost is dominated by message passing) return the
//! empty [`PreparedState`] and behave exactly as before.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};

use prf_pdb::TupleId;

use super::batch::{SharedWalkOut, SharedWalkSpec};
use super::kernels;
use super::relation::{CorrelationClass, ProbabilisticRelation};
use super::QueryError;
use crate::tree::TreePrepared;

// ---------------------------------------------------------------------
// PreparedState: the backend-built cache
// ---------------------------------------------------------------------

/// Opaque reusable evaluation state built by
/// [`ProbabilisticRelation::prepare`] — the score sort, compiled plan, and
/// marginals a backend's walk kernels would otherwise rebuild per call.
///
/// The state is backend-private: callers hold it and hand it back through
/// [`ProbabilisticRelation::run_shared_walk`], they never inspect it.
/// Backends receiving a foreign state (another backend's, or
/// [`PreparedState::empty`]) build what their walk needs themselves.
#[derive(Clone)]
pub struct PreparedState {
    inner: Inner,
}

#[derive(Clone)]
enum Inner {
    /// No cacheable setup — the walk builds what it needs.
    Empty,
    /// And/xor tree: score order + positions + marginals + compiled plan.
    Tree(TreePrepared),
    /// Independent relation: the descending score order (the only setup
    /// its closed-form kernels repeat per call).
    Independent(Vec<TupleId>),
    /// Sharded relation: one prepared state per shard, in shard order.
    /// `Arc`-wrapped so a re-preparation reuses the unchanged shards'
    /// states by handle (the sharded relation's generation tracker keeps
    /// them) and rebuilds only the shards whose generation moved.
    Sharded(Vec<Arc<PreparedState>>),
}

impl PreparedState {
    /// The empty state: nothing cached, so a walk handed it builds what it
    /// needs. The default for backends without reusable setup.
    pub fn empty() -> Self {
        PreparedState {
            inner: Inner::Empty,
        }
    }

    /// `true` when the state caches nothing.
    pub fn is_empty(&self) -> bool {
        matches!(self.inner, Inner::Empty)
    }

    pub(crate) fn tree(tp: TreePrepared) -> Self {
        PreparedState {
            inner: Inner::Tree(tp),
        }
    }

    pub(crate) fn independent(order: Vec<TupleId>) -> Self {
        PreparedState {
            inner: Inner::Independent(order),
        }
    }

    pub(crate) fn tree_prepared(&self) -> Option<&TreePrepared> {
        match &self.inner {
            Inner::Tree(tp) => Some(tp),
            _ => None,
        }
    }

    pub(crate) fn independent_order(&self) -> Option<&[TupleId]> {
        match &self.inner {
            Inner::Independent(order) => Some(order),
            _ => None,
        }
    }

    pub(crate) fn sharded(states: Vec<Arc<PreparedState>>) -> Self {
        PreparedState {
            inner: Inner::Sharded(states),
        }
    }

    pub(crate) fn sharded_states(&self) -> Option<&[Arc<PreparedState>]> {
        match &self.inner {
            Inner::Sharded(states) => Some(states),
            _ => None,
        }
    }

    pub(crate) fn tree_prepared_mut(&mut self) -> Option<&mut TreePrepared> {
        match &mut self.inner {
            Inner::Tree(tp) => Some(tp),
            _ => None,
        }
    }

    pub(crate) fn independent_order_mut(&mut self) -> Option<&mut Vec<TupleId>> {
        match &mut self.inner {
            Inner::Independent(order) => Some(order),
            _ => None,
        }
    }
}

impl std::fmt::Debug for PreparedState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Inner::Empty => f.write_str("PreparedState::Empty"),
            Inner::Tree(tp) => write!(f, "PreparedState::Tree({} tuples)", tp.order.len()),
            Inner::Independent(order) => {
                write!(f, "PreparedState::Independent({} tuples)", order.len())
            }
            Inner::Sharded(states) => {
                write!(f, "PreparedState::Sharded({} shards)", states.len())
            }
        }
    }
}

// ---------------------------------------------------------------------
// PreparedRelation: a relation whose setup is already paid
// ---------------------------------------------------------------------

/// A [`ProbabilisticRelation`] bundled with its backend's prepared state,
/// built **once** at construction and reused by every query.
///
/// `PreparedRelation` implements `ProbabilisticRelation` itself, so it
/// drops into every existing entry point — [`RankQuery::run`],
/// [`QueryBatch::run`](super::QueryBatch::run), `prf-serve` registration —
/// and repeated queries against it skip the per-call sort/plan rebuild:
///
/// ```
/// use std::sync::Arc;
/// use prf_core::query::{PreparedRelation, RankQuery};
/// use prf_pdb::IndependentDb;
///
/// let db = IndependentDb::from_pairs([(10.0, 0.5), (5.0, 0.4)]).unwrap();
/// let prepared = PreparedRelation::new(Arc::new(db));
/// // The score sort happened once, above; these queries reuse it.
/// let a = RankQuery::pt(2).run(&prepared)?;
/// let b = RankQuery::prfe(0.9).run(&prepared)?;
/// assert_eq!(a.ranking.order().len(), 2);
/// assert_eq!(b.ranking.order().len(), 2);
/// # Ok::<(), prf_core::query::QueryError>(())
/// ```
///
/// Answers are **identical** to querying the wrapped relation directly —
/// preparation changes where the setup cost is paid, never the numbers
/// (pinned by the `prepared_equivalence` differential suite).
///
/// # Staleness
///
/// The cached state is keyed by the wrapped relation's
/// [`ProbabilisticRelation::generation`] counter. Immutable backends never
/// move it, so the state built at construction lives forever; a mutable
/// backend (one bumping its generation, e.g. via interior mutability or
/// [`crate::live::LiveRelation`]) triggers a transparent re-prepare on the
/// next query instead of being served a stale sort/plan/marginal cache.
///
/// [`RankQuery::run`]: super::RankQuery::run
pub struct PreparedRelation {
    rel: Arc<dyn ProbabilisticRelation + Send + Sync>,
    state: RwLock<PreparedState>,
    /// The `rel.generation()` the cached state was built from.
    ///
    /// Invariant: `seen_generation` is never *newer* than the state it
    /// labels. Both rebuild sites ([`PreparedRelation::new`] and the
    /// refresh in `snapshot`) read the generation **before** calling
    /// `rel.prepare()`, so a mutation racing the rebuild at worst tags a
    /// post-mutation snapshot with a pre-mutation generation — causing one
    /// harmless extra re-prepare on the next query, never staleness. (The
    /// opposite order would label a pre-mutation snapshot as current and
    /// serve a stale sort/plan forever; pinned by the
    /// `mutation_racing_a_rebuild_never_labels_state_too_new` regression
    /// test.)
    seen_generation: AtomicU64,
}

impl PreparedRelation {
    /// Prepares `rel`: builds its reusable state (sort, plan, marginals)
    /// once. `O(n log n + tree)` for the built-in backends.
    pub fn new(rel: Arc<dyn ProbabilisticRelation + Send + Sync>) -> Self {
        let generation = rel.generation();
        let state = rel.prepare();
        PreparedRelation {
            rel,
            state: RwLock::new(state),
            seen_generation: AtomicU64::new(generation),
        }
    }

    /// Convenience: prepare an owned relation (wraps it in an [`Arc`]).
    pub fn from_relation<R>(rel: R) -> Self
    where
        R: ProbabilisticRelation + Send + Sync + 'static,
    {
        Self::new(Arc::new(rel))
    }

    /// The wrapped relation.
    pub fn relation(&self) -> &Arc<dyn ProbabilisticRelation + Send + Sync> {
        &self.rel
    }

    /// The cached state ([`PreparedState::is_empty`] when the backend has
    /// no reusable setup), refreshed first if the wrapped relation's
    /// generation moved since it was built.
    pub fn state(&self) -> RwLockReadGuard<'_, PreparedState> {
        self.snapshot()
    }

    /// A read guard over state that is current for `rel.generation()`;
    /// re-prepares under the write lock when the generation moved.
    fn snapshot(&self) -> RwLockReadGuard<'_, PreparedState> {
        if self.rel.generation() != self.seen_generation.load(Ordering::Acquire) {
            let mut state = self
                .state
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            // Re-check: another thread may have refreshed while we waited.
            // The generation MUST be read before `prepare()` (see the
            // `seen_generation` invariant): a mutation landing mid-prepare
            // then re-triggers a refresh instead of being masked.
            let generation = self.rel.generation();
            if generation != self.seen_generation.load(Ordering::Acquire) {
                *state = self.rel.prepare();
                self.seen_generation.store(generation, Ordering::Release);
            }
        }
        self.state
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl std::fmt::Debug for PreparedRelation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedRelation")
            .field("n_tuples", &self.rel.n_tuples())
            .field("class", &self.rel.correlation_class())
            .field("state", &*self.snapshot())
            .finish()
    }
}

impl ProbabilisticRelation for PreparedRelation {
    fn n_tuples(&self) -> usize {
        self.rel.n_tuples()
    }

    fn tuple_scores(&self) -> Vec<f64> {
        self.rel.tuple_scores()
    }

    fn tuple_marginals(&self) -> Vec<f64> {
        self.rel.tuple_marginals()
    }

    fn correlation_class(&self) -> CorrelationClass {
        self.rel.correlation_class()
    }

    fn generation(&self) -> u64 {
        self.rel.generation()
    }

    fn prepare(&self) -> PreparedState {
        // Already prepared; re-wrapping finds nothing new to cache (the
        // walk below keeps routing through the existing state).
        PreparedState::empty()
    }

    fn run_shared_walk(
        &self,
        spec: &SharedWalkSpec,
        _prep: &PreparedState,
    ) -> Option<SharedWalkOut> {
        // Our own state always wins: a foreign state cannot describe the
        // wrapped relation better than the one built from it.
        self.rel.run_shared_walk(spec, &self.snapshot())
    }

    fn prfe_log_ranked(&self, alpha: f64) -> Option<(Vec<f64>, Vec<TupleId>)> {
        // The walk answers keys, never an order; the inner relation (a live
        // cache, say) is the only party that can beat the sort.
        self.rel.prfe_log_ranked(alpha)
    }

    fn most_probable_topk(&self, k: usize) -> Result<(Vec<TupleId>, f64), QueryError> {
        self.rel.most_probable_topk(k)
    }

    fn positional_candidates(&self, k: usize) -> Option<kernels::PositionalCandidates> {
        self.rel.positional_candidates(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock_recover;
    use crate::query::{Algorithm, QueryBatch, RankQuery, Semantics};
    use prf_numeric::Complex;
    use prf_pdb::{AndXorTree, IndependentDb};

    fn assert_complex_eq(a: &[Complex], b: &[Complex], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(x.approx_eq(*y, 1e-12), "{ctx}: tuple {i}: {x} vs {y}");
        }
    }

    /// The exact plain-complex values of `query` against `rel`.
    fn values(query: RankQuery, rel: &(impl ProbabilisticRelation + ?Sized)) -> Vec<Complex> {
        let r = query.algorithm(Algorithm::ExactGf).run(rel).unwrap();
        r.values.as_complex().unwrap().to_vec()
    }

    #[test]
    fn prepared_state_reports_backend() {
        let db = IndependentDb::from_pairs([(10.0, 0.5), (5.0, 0.4)]).unwrap();
        assert!(ProbabilisticRelation::prepare(&db)
            .independent_order()
            .is_some());
        let tree = AndXorTree::from_x_tuples(&[vec![(10.0, 0.5)], vec![(5.0, 0.4)]]).unwrap();
        assert!(ProbabilisticRelation::prepare(&tree)
            .tree_prepared()
            .is_some());
        assert!(PreparedState::empty().is_empty());
    }

    #[test]
    fn prepared_independent_matches_unprepared() {
        let db = IndependentDb::from_pairs([
            (10.0, 0.5),
            (9.0, 0.25),
            (8.0, 0.9),
            (7.0, 0.1),
            (6.0, 0.75),
        ])
        .unwrap();
        let prepared = PreparedRelation::from_relation(db.clone());
        let pt = || RankQuery::pt(3);
        assert_complex_eq(&values(pt(), &prepared), &values(pt(), &db), "prf");
        let prfe = || RankQuery::prfe(0.9);
        assert_complex_eq(&values(prfe(), &prepared), &values(prfe(), &db), "prfe");
        let log = || RankQuery::prfe(0.9).algorithm(Algorithm::LogDomain);
        assert_eq!(
            log().run(&prepared).unwrap().values.as_log(),
            log().run(&db).unwrap().values.as_log()
        );
        let erank = || RankQuery::erank();
        assert_eq!(values(erank(), &prepared), values(erank(), &db));
    }

    #[test]
    fn prepared_tree_matches_unprepared_across_reuse() {
        let tree = AndXorTree::from_x_tuples(&[
            vec![(10.0, 0.4), (9.0, 0.3)],
            vec![(8.0, 0.9)],
            vec![(7.0, 0.5), (6.0, 0.2), (5.0, 0.1)],
        ])
        .unwrap();
        let prepared = PreparedRelation::from_relation(tree.clone());
        // Reuse the same prepared state across several queries and a batch.
        for h in [1usize, 2, 5] {
            assert_complex_eq(
                &values(RankQuery::pt(h), &prepared),
                &values(RankQuery::pt(h), &tree),
                &format!("prf h={h}"),
            );
        }
        let direct = QueryBatch::new()
            .add(Semantics::Pt(2))
            .add(Semantics::ERank)
            .run(&tree)
            .unwrap();
        let via_prepared = QueryBatch::new()
            .add(Semantics::Pt(2))
            .add(Semantics::ERank)
            .run(&prepared)
            .unwrap();
        for (d, p) in direct.iter().zip(&via_prepared) {
            assert_eq!(d.ranking.order(), p.ranking.order());
        }
        // Single queries keep working after batch reuse.
        let q = RankQuery::prfe(0.7).run(&prepared).unwrap();
        let qd = RankQuery::prfe(0.7).run(&tree).unwrap();
        assert_eq!(q.ranking.order(), qd.ranking.order());
    }

    #[test]
    fn generation_bump_invalidates_cached_state() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Mutex;

        // A mutable backend whose *scores* can change: the cached
        // descending order goes genuinely stale, so serving it would
        // produce wrong PRF values — the generation bump must force a
        // re-prepare.
        struct Versioned {
            db: Mutex<IndependentDb>,
            generation: AtomicU64,
        }
        impl Versioned {
            fn swap(&self, db: IndependentDb) {
                *lock_recover(&self.db) = db;
                self.generation.fetch_add(1, Ordering::Release);
            }
        }
        impl ProbabilisticRelation for Versioned {
            fn n_tuples(&self) -> usize {
                lock_recover(&self.db).len()
            }
            fn tuple_scores(&self) -> Vec<f64> {
                lock_recover(&self.db).scores()
            }
            fn tuple_marginals(&self) -> Vec<f64> {
                lock_recover(&self.db).probabilities()
            }
            fn correlation_class(&self) -> CorrelationClass {
                CorrelationClass::Independent
            }
            fn generation(&self) -> u64 {
                self.generation.load(Ordering::Acquire)
            }
            fn prepare(&self) -> PreparedState {
                ProbabilisticRelation::prepare(&*lock_recover(&self.db))
            }
            fn run_shared_walk(
                &self,
                spec: &SharedWalkSpec,
                prep: &PreparedState,
            ) -> Option<SharedWalkOut> {
                lock_recover(&self.db).run_shared_walk(spec, prep)
            }
        }

        let v1 = IndependentDb::from_pairs([(10.0, 0.9), (5.0, 0.4), (1.0, 0.7)]).unwrap();
        // Same tuple count, permuted scores: a stale order is silently
        // wrong (no length guard can catch it).
        let v2 = IndependentDb::from_pairs([(1.0, 0.9), (5.0, 0.4), (10.0, 0.7)]).unwrap();
        let rel = Arc::new(Versioned {
            db: Mutex::new(v1),
            generation: AtomicU64::new(0),
        });
        let prepared = PreparedRelation::new(rel.clone());
        let pt1 = || RankQuery::pt(1);
        let direct = values(pt1(), &*lock_recover(&rel.db));
        assert_complex_eq(&values(pt1(), &prepared), &direct, "v1");
        rel.swap(v2);
        // The wrapper must rebuild its state and agree with a direct query.
        let direct = values(pt1(), &*lock_recover(&rel.db));
        assert_complex_eq(&values(pt1(), &prepared), &direct, "v2");
        assert_eq!(ProbabilisticRelation::generation(&prepared), 1);
    }

    /// Regression test for the generation/prepare race: when a mutation
    /// lands *during* `prepare()` — the snapshot describes the pre-swap
    /// relation while the generation counter has already moved on — the
    /// wrapper must tag the state with the generation read *before* the
    /// snapshot, so the next query re-prepares instead of serving the
    /// stale sort forever. (Recording the post-prepare generation would
    /// label the pre-swap snapshot as current: silent staleness.)
    #[test]
    fn mutation_racing_a_rebuild_never_labels_state_too_new() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Mutex;

        struct RacingPrepare {
            db: Mutex<IndependentDb>,
            generation: AtomicU64,
            /// Databases swapped in mid-`prepare()`, one per call: the
            /// returned state then describes the relation from *before*
            /// the swap while the generation already counts it.
            swap_mid_prepare: Mutex<Vec<IndependentDb>>,
        }
        impl RacingPrepare {
            fn swap(&self, db: IndependentDb) {
                *lock_recover(&self.db) = db;
                self.generation.fetch_add(1, Ordering::Release);
            }
        }
        impl ProbabilisticRelation for RacingPrepare {
            fn n_tuples(&self) -> usize {
                lock_recover(&self.db).len()
            }
            fn tuple_scores(&self) -> Vec<f64> {
                lock_recover(&self.db).scores()
            }
            fn tuple_marginals(&self) -> Vec<f64> {
                lock_recover(&self.db).probabilities()
            }
            fn correlation_class(&self) -> CorrelationClass {
                CorrelationClass::Independent
            }
            fn generation(&self) -> u64 {
                self.generation.load(Ordering::Acquire)
            }
            fn prepare(&self) -> PreparedState {
                let state = ProbabilisticRelation::prepare(&*lock_recover(&self.db));
                if let Some(next) = lock_recover(&self.swap_mid_prepare).pop() {
                    self.swap(next);
                }
                state // describes the pre-swap relation
            }
            fn run_shared_walk(
                &self,
                spec: &SharedWalkSpec,
                prep: &PreparedState,
            ) -> Option<SharedWalkOut> {
                lock_recover(&self.db).run_shared_walk(spec, prep)
            }
        }

        // v1 → v2 → v3 permute the same scores, so a stale cached order is
        // silently wrong (no length guard can catch it).
        let v1 = IndependentDb::from_pairs([(10.0, 0.9), (5.0, 0.4), (1.0, 0.7)]).unwrap();
        let v2 = IndependentDb::from_pairs([(1.0, 0.9), (10.0, 0.4), (5.0, 0.7)]).unwrap();
        let v3 = IndependentDb::from_pairs([(5.0, 0.9), (1.0, 0.4), (10.0, 0.7)]).unwrap();
        let rel = Arc::new(RacingPrepare {
            db: Mutex::new(v1),
            generation: AtomicU64::new(0),
            swap_mid_prepare: Mutex::new(vec![]),
        });
        let prepared = PreparedRelation::new(rel.clone());
        let pt1 = || RankQuery::pt(1);

        // Mutation 1 applies normally; mutation 2 is armed to land in the
        // middle of the refresh that mutation 1 triggers.
        rel.swap(v2);
        lock_recover(&rel.swap_mid_prepare).push(v3);
        let mid_race = values(pt1(), &prepared);
        assert_eq!(
            ProbabilisticRelation::generation(&prepared),
            2,
            "the armed swap fired during the refresh"
        );
        // That answer came from the v2 snapshot — current when the walk
        // was admitted (mutation 2 linearizes after it). The bug under
        // test is what happens *next*: the state must not be labeled with
        // the post-race generation.
        drop(mid_race);
        let direct = values(pt1(), &*lock_recover(&rel.db));
        assert_complex_eq(
            &values(pt1(), &prepared),
            &direct,
            "query after the race must re-prepare, not serve the stale v2 order",
        );
    }
}
