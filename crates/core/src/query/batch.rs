//! Query execution over **one shared score-order walk** — for a batch of
//! many queries and for a single query alike.
//!
//! The paper's parameterized ranking function means every semantics —
//! PRFω(h)/PT(h), PRFe(α) at any α, expected ranks — is read off the *same*
//! generating function, walked over the *same* score order. A
//! [`QueryBatch`] exploits that: it compiles N queries against one
//! [`ProbabilisticRelation`] into a [`BatchPlan`] and hands every
//! walk-routed entry to the backend's single walk entry,
//! [`ProbabilisticRelation::run_shared_walk`], as one
//! [`SharedRequest`]. PRFe variants become extra evaluation points of the
//! shared generating function; PT(h)/PRFω(h) variants become truncation
//! views of one shared truncated-polynomial evaluator; expected ranks ride
//! along as a dual-number evaluation point. [`RankQuery::run`] is the
//! one-entry case of the same machinery, so a single query and a batch
//! entry take the identical route to a kernel.
//!
//! ```
//! use prf_core::query::{QueryBatch, RankQuery, Semantics};
//! use prf_pdb::IndependentDb;
//!
//! let db = IndependentDb::from_pairs([(100.0, 0.5), (50.0, 1.0), (80.0, 0.8)])?;
//! let results = QueryBatch::new()
//!     .add(Semantics::Pt(2))
//!     .add(Semantics::ERank)
//!     .add_query(RankQuery::prfe(0.9))
//!     .run(&db)?;
//! assert_eq!(results.len(), 3);
//! // Each result is exactly what the equivalent single query returns…
//! assert_eq!(
//!     results[0].ranking.order(),
//!     RankQuery::pt(2).run(&db)?.ranking.order()
//! );
//! // …and its report records the shared-walk cost attribution.
//! assert_eq!(results[0].report.batch.unwrap().consumers, 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Four semantics have no shared-walk form and keep a per-query evaluator
//! ([`BatchRoute::Single`]): U-Top's set sweep, U-Rank's candidate table,
//! E-Score's closed form and the DFT mixture (which runs one single-request
//! scaled PRFe walk per mixture term, accumulating as it goes). Their
//! reports carry `batch: None`. When a backend declines a walk (`None`,
//! e.g. E-Rank on the graphical adapter), every entry of it is retried as
//! a one-entry walk, so the entries the backend can serve still succeed
//! and the rest fail with [`QueryError::Unsupported`] — a batch is
//! *always* answer-equivalent to the sequence of single queries, enforced
//! to 1e-9 by `tests/batch_equivalence.rs`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use prf_numeric::{Complex, GfValue, Scaled};
use prf_pdb::TupleId;

use super::relation::{CorrelationClass, ProbabilisticRelation};
use super::{
    panic_reason, timed, Algorithm, CancelToken, EvalReport, PreparedState, QueryError, RankQuery,
    RankedResult, Semantics, TopSet, Values,
};
use crate::incremental::GfStats;
use crate::mixture::approximate_weights;
use crate::topk::{Ranking, ValueOrder};
use crate::weights::{tabulate, WeightFunction};

// ---------------------------------------------------------------------
// The shared-walk backend interface
// ---------------------------------------------------------------------

/// One consumer of a shared score-order walk — the backend-facing form of a
/// walk-routed query, produced by [`QueryBatch`] compilation and consumed by
/// [`ProbabilisticRelation::run_shared_walk`].
#[derive(Clone)]
pub enum SharedRequest {
    /// Weight-based Υ extraction (PRFω/PT/Consensus): read the first
    /// `truncation` coefficients of the shared generating function.
    Weight(Arc<dyn WeightFunction + Send + Sync>),
    /// PRFe(α) in plain complex arithmetic — an extra evaluation point of
    /// the shared generating function.
    PrfeComplex(Complex),
    /// PRFe(α) log-domain keys (real `α ∈ [0, 1]`).
    PrfeLog(f64),
    /// PRFe(α) in scaled arithmetic.
    PrfeScaled(Complex),
    /// Expected ranks (lower is better), via a dual-number evaluation
    /// point at `α = 1`.
    ExpectedRanks,
}

impl SharedRequest {
    /// The shared-polynomial extraction cap of a weight request on an
    /// `n`-tuple relation (`None` for non-weight requests) — the single
    /// definition every walk parses with: `truncation().unwrap_or(n).min(n)`.
    pub(crate) fn weight_cap(&self, n: usize) -> Option<usize> {
        match self {
            SharedRequest::Weight(w) => Some(w.truncation().unwrap_or(n).min(n)),
            _ => None,
        }
    }

    /// An all-default answer buffer of this request's shape for `n` tuples:
    /// zero Υ values, `-∞` log keys, zero ranks.
    pub(crate) fn empty_answer(&self, n: usize) -> SharedAnswer {
        match self {
            SharedRequest::Weight(_) | SharedRequest::PrfeComplex(_) => {
                SharedAnswer::Complex(vec![Complex::ZERO; n])
            }
            SharedRequest::PrfeLog(_) => SharedAnswer::Log(vec![f64::NEG_INFINITY; n]),
            SharedRequest::PrfeScaled(_) => {
                SharedAnswer::Scaled(vec![Scaled::<Complex>::zero(); n])
            }
            SharedRequest::ExpectedRanks => SharedAnswer::Ranks(vec![0.0; n]),
        }
    }
}

impl std::fmt::Debug for SharedRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SharedRequest::Weight(w) => write!(f, "Weight({})", w.name()),
            SharedRequest::PrfeComplex(a) => write!(f, "PrfeComplex({a})"),
            SharedRequest::PrfeLog(a) => write!(f, "PrfeLog({a})"),
            SharedRequest::PrfeScaled(a) => write!(f, "PrfeScaled({a})"),
            SharedRequest::ExpectedRanks => f.write_str("ExpectedRanks"),
        }
    }
}

/// Everything a backend needs to serve a set of requests from one walk.
#[derive(Clone, Debug)]
pub struct SharedWalkSpec {
    /// The consumers, in batch-entry order.
    pub requests: Vec<SharedRequest>,
    /// Worker threads requested for shard-parallel walks.
    pub threads: Option<usize>,
    /// Cooperative cancellation, polled between score steps. For a batch
    /// this is the **all-of** composite of the consumers' tokens (the walk
    /// serves everyone, so it only aborts once *every* consumer has given
    /// up); a tripped token makes the kernel return `None`, and each entry
    /// then reports its own [`QueryError::TimedOut`].
    pub cancel: Option<CancelToken>,
}

impl SharedWalkSpec {
    /// A spec for `requests` with no thread request and no cancellation.
    pub(crate) fn serial(requests: Vec<SharedRequest>) -> Self {
        SharedWalkSpec {
            requests,
            threads: None,
            cancel: None,
        }
    }

    /// `true` once the walk's composite cancellation token has tripped —
    /// the kernels' periodic poll.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Pre-sized all-default answer buffers, one per request (see
    /// [`SharedRequest::empty_answer`]).
    pub(crate) fn answer_buffers(&self, n: usize) -> Vec<SharedAnswer> {
        self.requests.iter().map(|r| r.empty_answer(n)).collect()
    }
}

/// The per-request answer of a shared walk, indexed by tuple id.
#[derive(Clone, Debug)]
pub enum SharedAnswer {
    /// Plain complex Υ values ([`SharedRequest::Weight`] /
    /// [`SharedRequest::PrfeComplex`]).
    Complex(Vec<Complex>),
    /// Log-domain keys ([`SharedRequest::PrfeLog`]).
    Log(Vec<f64>),
    /// Scaled Υ values ([`SharedRequest::PrfeScaled`]).
    Scaled(Vec<Scaled<Complex>>),
    /// Expected ranks, lower is better ([`SharedRequest::ExpectedRanks`]).
    Ranks(Vec<f64>),
}

impl SharedAnswer {
    /// Copies `src[src_idx]` into `self[dst_idx]` — how sharded walks merge
    /// per-shard buffers into the global tuple-id space.
    pub(crate) fn copy_at(&mut self, dst_idx: usize, src: &SharedAnswer, src_idx: usize) {
        match (self, src) {
            (SharedAnswer::Complex(d), SharedAnswer::Complex(s)) => d[dst_idx] = s[src_idx],
            (SharedAnswer::Log(d), SharedAnswer::Log(s)) => d[dst_idx] = s[src_idx],
            (SharedAnswer::Scaled(d), SharedAnswer::Scaled(s)) => d[dst_idx] = s[src_idx],
            (SharedAnswer::Ranks(d), SharedAnswer::Ranks(s)) => d[dst_idx] = s[src_idx],
            _ => unreachable!("answer shape fixed by the request kind"),
        }
    }
}

/// What one shared walk produced.
#[derive(Clone, Debug)]
pub struct SharedWalkOut {
    /// Per-request answers, parallel to [`SharedWalkSpec::requests`].
    pub answers: Vec<SharedAnswer>,
    /// Merged memory accounting of the walk's incremental evaluators
    /// (`None` for closed-form backends).
    pub stats: Option<GfStats>,
    /// Wall-clock seconds of the whole walk (sort + plan + evaluation).
    pub walk_seconds: f64,
}

/// Runs `f`; with `catch`, a panic becomes [`QueryError::Internal`]
/// instead of unwinding.
fn guarded<T>(catch: bool, f: impl FnOnce() -> T) -> Result<T, QueryError> {
    if !catch {
        return Ok(f());
    }
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| QueryError::Internal {
        reason: panic_reason(payload.as_ref()),
    })
}

// ---------------------------------------------------------------------
// Cost attribution
// ---------------------------------------------------------------------

/// Cost attribution recorded in a walk-answered query's [`EvalReport`]:
/// how much walk time was shared, and between how many queries. The
/// entry's `kernel_seconds` is its amortized share
/// `walk_seconds / consumers`; a single query has `consumers = 1`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchCost {
    /// Total wall-clock seconds of the shared walk.
    pub walk_seconds: f64,
    /// Number of queries that shared that walk.
    pub consumers: usize,
}

impl BatchCost {
    /// This query's amortized share of the walk.
    pub fn amortized_seconds(&self) -> f64 {
        self.walk_seconds / self.consumers.max(1) as f64
    }
}

// ---------------------------------------------------------------------
// The compiled plan
// ---------------------------------------------------------------------

/// How one batch entry is executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchRoute {
    /// Served by the shared score-order walk.
    Shared,
    /// Evaluated by its own per-query evaluator (U-Top, U-Rank, E-Score,
    /// the DFT mixture).
    Single,
}

/// The compiled form of a [`QueryBatch`] against one backend: every entry's
/// resolved algorithm and execution route. Exposed so callers (and the
/// batch benchmarks) can inspect how much of a batch actually shares the
/// walk before running it.
#[derive(Clone, Debug)]
pub struct BatchPlan {
    resolved: Vec<(Algorithm, BatchRoute)>,
}

impl BatchPlan {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.resolved.len()
    }

    /// `true` when the batch has no entries (never produced by
    /// [`QueryBatch::compile`], which rejects empty batches).
    pub fn is_empty(&self) -> bool {
        self.resolved.is_empty()
    }

    /// The resolved algorithm of entry `i`.
    pub fn algorithm(&self, i: usize) -> Algorithm {
        self.resolved[i].0
    }

    /// The execution route of entry `i`.
    pub fn route(&self, i: usize) -> BatchRoute {
        self.resolved[i].1
    }

    /// How many entries share the walk.
    pub fn shared_consumers(&self) -> usize {
        self.resolved
            .iter()
            .filter(|(_, r)| *r == BatchRoute::Shared)
            .count()
    }
}

// ---------------------------------------------------------------------
// The batch builder
// ---------------------------------------------------------------------

/// A batch of ranking queries against one relation, answered from one
/// shared score-order walk wherever the semantics allow (see the module
/// docs for the sharing rules and the fallback behaviour).
///
/// Entries are full [`RankQuery`]s, so per-entry algorithm, value order and
/// `top_k` overrides compose with the batch-level defaults
/// ([`QueryBatch::top_k`] and [`QueryBatch::parallel`] apply to entries
/// that did not set their own).
#[derive(Clone, Debug, Default)]
pub struct QueryBatch {
    entries: Vec<RankQuery>,
    top_k: Option<usize>,
    threads: Option<usize>,
}

/// Per-entry outcome slots of [`QueryBatch::execute`].
type Outcomes = Vec<Option<Result<RankedResult, QueryError>>>;

impl QueryBatch {
    /// An empty batch. At least one entry must be added before
    /// [`QueryBatch::run`]; running an empty batch is an error
    /// ([`QueryError::EmptyBatch`]), not an empty answer.
    pub fn new() -> Self {
        QueryBatch::default()
    }

    /// Adds a semantics with default options ([`Algorithm::Auto`]).
    // Builder-style `add`, not arithmetic — the trait would be nonsense here.
    #[allow(clippy::should_implement_trait)]
    pub fn add(mut self, semantics: Semantics) -> Self {
        self.entries.push(RankQuery::new(semantics));
        self
    }

    /// Adds a fully configured query (per-entry algorithm, value order,
    /// `top_k`, …).
    pub fn add_query(mut self, query: RankQuery) -> Self {
        self.entries.push(query);
        self
    }

    /// Adds every query of an iterator.
    pub fn add_queries(mut self, queries: impl IntoIterator<Item = RankQuery>) -> Self {
        self.entries.extend(queries);
        self
    }

    /// Truncates every returned ranking to its best `k` entries (entries
    /// with their own `top_k` keep it).
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Requests `threads` workers for the shared walk (sharded tree walks,
    /// see [`crate::parallel`]) and, as a default, for the walks of
    /// individually evaluated entries.
    ///
    /// This batch-level setting is the **only** control over the shared
    /// walk: a per-entry `RankQuery::parallel` cannot shard a walk it
    /// shares with other entries, so it is ignored for shared-routed
    /// entries (their reports echo the walk's actual thread count) and
    /// honoured, entry-first, for individually evaluated ones.
    pub fn parallel(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries were added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, in execution order.
    pub fn queries(&self) -> &[RankQuery] {
        &self.entries
    }

    /// Compiles the batch against a backend without running it: resolves
    /// every entry's algorithm (surfacing incompatibilities exactly like
    /// the equivalent single queries would) and decides which entries share
    /// the walk.
    pub fn compile(
        &self,
        rel: &(impl ProbabilisticRelation + ?Sized),
    ) -> Result<BatchPlan, QueryError> {
        if self.entries.is_empty() {
            return Err(QueryError::EmptyBatch);
        }
        let mut resolved = Vec::with_capacity(self.entries.len());
        for entry in &self.entries {
            let algorithm = entry.resolve_algorithm(rel)?;
            resolved.push((algorithm, route(entry.semantics(), algorithm)));
        }
        Ok(BatchPlan { resolved })
    }

    /// Runs every query, sharing one score-order walk between the entries
    /// the plan routes as [`BatchRoute::Shared`]. Results are in entry
    /// order and answer-equivalent to running each entry individually.
    ///
    /// Any per-entry failure — an unresolvable algorithm or a failing
    /// entry — fails the whole batch; serving layers that must keep one
    /// bad query from poisoning a flush use [`QueryBatch::run_isolated`]
    /// instead.
    pub fn run(
        &self,
        rel: &(impl ProbabilisticRelation + ?Sized),
    ) -> Result<Vec<RankedResult>, QueryError> {
        let plan = self.compile(rel)?;
        let resolved: Vec<_> = plan.resolved.iter().map(|&r| Ok(r)).collect();
        self.execute(rel, &resolved, true).into_iter().collect()
    }

    /// Runs every query with **per-entry error isolation**: each entry
    /// resolves, routes, and (when necessary) falls back independently, so
    /// one incompatible, failing or panicking query yields an `Err` in
    /// *its* slot while every other entry still shares the walk. Results
    /// are in entry order; an empty batch returns an empty vector (a
    /// serving layer never flushes an empty queue, so there is no entry to
    /// report [`QueryError::EmptyBatch`] through).
    ///
    /// Ok entries are answer-identical to what [`QueryBatch::run`] produces
    /// for a batch containing only the valid queries.
    pub fn run_isolated(
        &self,
        rel: &(impl ProbabilisticRelation + ?Sized),
    ) -> Vec<Result<RankedResult, QueryError>> {
        let resolved: Vec<_> = self
            .entries
            .iter()
            .map(|e| {
                e.resolve_algorithm(rel)
                    .map(|a| (a, route(e.semantics(), a)))
            })
            .collect();
        self.execute(rel, &resolved, false)
    }

    /// The one-entry batch [`RankQuery::run`] executes: the query's own
    /// thread request drives the walk.
    pub(crate) fn run_one(
        query: &RankQuery,
        rel: &(impl ProbabilisticRelation + ?Sized),
        algorithm: Algorithm,
    ) -> Result<RankedResult, QueryError> {
        let batch = QueryBatch {
            entries: vec![query.clone()],
            top_k: None,
            threads: query.threads,
        };
        let resolved = [Ok((algorithm, route(&query.semantics, algorithm)))];
        batch
            .execute(rel, &resolved, true)
            .pop()
            .expect("one entry, one outcome")
    }

    /// The execution core of every entry point: entries whose resolution
    /// failed carry their error through; the rest share one walk where
    /// routed. `fail_fast` (the all-or-nothing `run` path) lets panics
    /// unwind and stops at the first errored entry, leaving the returned
    /// vector short; otherwise panics are caught per entry.
    fn execute(
        &self,
        rel: &(impl ProbabilisticRelation + ?Sized),
        resolved: &[Result<(Algorithm, BatchRoute), QueryError>],
        fail_fast: bool,
    ) -> Vec<Result<RankedResult, QueryError>> {
        let mut outcomes: Outcomes = self.entries.iter().map(|_| None).collect();
        // Resolution errors and already-expired entries (answered without
        // joining the walk or evaluating at all) are settled up front.
        let mut shared = Vec::new();
        for (i, entry) in self.entries.iter().enumerate() {
            match &resolved[i] {
                _ if entry.cancelled() => outcomes[i] = Some(Err(QueryError::TimedOut)),
                Err(e) => outcomes[i] = Some(Err(e.clone())),
                Ok((algorithm, BatchRoute::Shared)) => shared.push((i, *algorithm)),
                Ok((_, BatchRoute::Single)) => {}
            }
        }
        if !shared.is_empty() {
            self.walk_shared(rel, &shared, fail_fast, &mut outcomes);
        }

        let mut results = Vec::with_capacity(self.entries.len());
        for (i, entry) in self.entries.iter().enumerate() {
            let result = match outcomes[i].take() {
                Some(result) => result,
                // Single-route entries run their per-query evaluator — in
                // isolated mode with the panic caught, so a poisonous entry
                // fails alone instead of unwinding the flush.
                None => {
                    let Ok((algorithm, _)) = resolved[i] else {
                        unreachable!("unresolved entries are settled up front")
                    };
                    guarded(!fail_fast, || self.evaluate_single(entry, algorithm, rel))
                        .and_then(|r| r)
                }
            };
            let errored = result.is_err();
            results.push(result);
            if fail_fast && errored {
                break;
            }
        }
        results
    }

    /// Serves the `(entry index, algorithm)` pairs of the walk-routed
    /// entries from one walk, writing each entry's outcome. A declined
    /// (or, in isolated mode, panicked) multi-consumer walk is retried one
    /// entry at a time, so the failure lands on the entries that cause it.
    fn walk_shared(
        &self,
        rel: &(impl ProbabilisticRelation + ?Sized),
        shared: &[(usize, Algorithm)],
        fail_fast: bool,
        outcomes: &mut Outcomes,
    ) {
        let requests: Vec<SharedRequest> = shared
            .iter()
            .map(|&(i, a)| shared_request(self.entries[i].semantics(), a))
            .collect();
        // The walk aborts only once *every* consumer has cancelled — with
        // any token-less consumer aboard it can never be abandoned.
        let tokens: Option<Vec<CancelToken>> = shared
            .iter()
            .map(|&(i, _)| self.entries[i].cancel.clone())
            .collect();
        let spec = SharedWalkSpec {
            requests,
            threads: self.threads,
            cancel: tokens.map(CancelToken::all_of),
        };
        let n = rel.n_tuples();
        let backend = rel.correlation_class();
        let mut jobs: Vec<FinalizeJob> = Vec::with_capacity(shared.len());
        let walk = |spec: &SharedWalkSpec| {
            guarded(!fail_fast, || {
                rel.run_shared_walk(spec, &PreparedState::empty())
            })
        };
        match walk(&spec) {
            Ok(Some(out)) => {
                let cost = BatchCost {
                    walk_seconds: out.walk_seconds,
                    consumers: out.answers.len(),
                };
                for (&(i, algorithm), answer) in shared.iter().zip(out.answers) {
                    jobs.push((i, algorithm, answer, cost, out.stats));
                }
            }
            failed => {
                for (&(i, algorithm), req) in shared.iter().zip(spec.requests) {
                    let entry = &self.entries[i];
                    let alone = if entry.cancelled() {
                        Ok(None) // reported as its own `TimedOut`
                    } else if shared.len() == 1 {
                        failed.clone()
                    } else {
                        let spec = SharedWalkSpec {
                            requests: vec![req],
                            threads: self.threads,
                            cancel: entry.cancel.clone(),
                        };
                        walk(&spec)
                    };
                    match alone {
                        Ok(Some(mut out)) => {
                            let cost = BatchCost {
                                walk_seconds: out.walk_seconds,
                                consumers: 1,
                            };
                            let answer = out.answers.pop().expect("one request, one answer");
                            jobs.push((i, algorithm, answer, cost, out.stats));
                        }
                        Ok(None) => outcomes[i] = Some(Err(declined(entry, backend))),
                        Err(e) => outcomes[i] = Some(Err(e)),
                    }
                }
            }
        }

        // Per-entry finalization (value vector + ranking construction) is
        // independent O(n)–O(n·log n) work that dominates the post-walk
        // wall on multi-entry batches over large relations, so it fans out
        // over threads under the same opt-in contract as the shard-parallel
        // walk (`parallel(t)` requested and every worker's share clearing
        // the parallel floor). Results come back in entry order; a finalize
        // panic (an internal bug — finalization is infallible assembly)
        // propagates exactly like the serial path's would.
        let threads = crate::parallel::effective_walk_threads(n, self.threads);
        let jobs: Vec<_> = jobs
            .into_iter()
            .map(|job| move || (job.0, self.finalize_shared(job, n, backend)))
            .collect();
        let finalized = crate::parallel::fork_join(threads, jobs);
        for (i, result) in finalized {
            outcomes[i] = Some(Ok(result));
        }
    }

    /// Builds the [`RankedResult`] of a walk-answered entry. A requested
    /// `top_k` is **pushed down** into the ranking construction: only the
    /// best-`k` prefix is selected and sorted (the per-tuple values stay
    /// complete), which is answer-identical to materialising the full
    /// ranking and truncating — pinned by
    /// `batch_top_k_pushdown_agrees_with_full_rankings` and the
    /// differential suite.
    fn finalize_shared(
        &self,
        (i, algorithm, answer, cost, stats): FinalizeJob,
        n: usize,
        backend: CorrelationClass,
    ) -> RankedResult {
        let finalize_start = Instant::now();
        let entry = &self.entries[i];
        let top_k = entry.top_k.or(self.top_k);
        // The pushdown cap: how much of the ranking to materialise.
        let cap = top_k.unwrap_or(n).min(n);
        let order = |default| entry.value_order.unwrap_or(default);
        let (values, ranking) = match (&entry.semantics, answer) {
            // The classical real-valued semantics rank by the real part
            // (identical to |Υ| for their non-negative values, and
            // bitwise-stable for differential comparisons).
            (Semantics::Pt(_) | Semantics::Consensus(_), SharedAnswer::Complex(vals)) => {
                let ranking = Ranking::from_values_topk(&vals, order(ValueOrder::RealPart), cap);
                (Values::Complex(vals), ranking)
            }
            (Semantics::Prf(_) | Semantics::Prfe(_), SharedAnswer::Complex(vals)) => {
                let ranking = Ranking::from_values_topk(&vals, order(ValueOrder::Magnitude), cap);
                (Values::Complex(vals), ranking)
            }
            (Semantics::Prfe(_), SharedAnswer::Log(keys)) => {
                let ranking = Ranking::from_keys_topk(&keys, cap);
                (Values::LogDomain(keys), ranking)
            }
            (Semantics::Prfe(_), SharedAnswer::Scaled(vals)) => {
                let ranking = scaled_ranking(&vals, order(ValueOrder::Magnitude), cap);
                (Values::Scaled(vals), ranking)
            }
            (Semantics::ERank, SharedAnswer::Ranks(er)) => {
                // Negated so that — like every other semantics — higher
                // values rank better.
                let vals: Vec<Complex> = er.iter().map(|&e| Complex::real(-e)).collect();
                let keys: Vec<f64> = er.into_iter().map(|e| -e).collect();
                (Values::Complex(vals), Ranking::from_keys_topk(&keys, cap))
            }
            (sem, ans) => unreachable!("shared answer shape mismatch: {sem:?} got {ans:?}"),
        };

        let amortized = cost.amortized_seconds();
        let mut report = EvalReport::new(entry, algorithm, backend, &values);
        report.kernel_seconds = amortized;
        report.total_seconds = amortized + finalize_start.elapsed().as_secs_f64();
        report.truncated_to = top_k;
        // The walk's actual thread count — a per-entry `parallel` has no
        // effect on a walk shared with other entries.
        report.threads = self.threads;
        report.memory = stats;
        report.batch = Some(cost);
        RankedResult {
            values,
            ranking,
            set: None,
            report,
        }
    }

    /// The per-query evaluators of the [`BatchRoute::Single`] semantics:
    /// E-Score's closed form, U-Rank's positional candidate table, U-Top's
    /// set sweep, and the DFT mixture assembled term by term from
    /// single-request scaled PRFe walks. Batch-level `top_k` and thread
    /// defaults apply where the entry sets none.
    fn evaluate_single(
        &self,
        entry: &RankQuery,
        algorithm: Algorithm,
        rel: &(impl ProbabilisticRelation + ?Sized),
    ) -> Result<RankedResult, QueryError> {
        let start = Instant::now();
        let backend = rel.correlation_class();
        let mut kernel_seconds = 0.0;
        let mut memory = None;
        let (values, mut ranking, set) = match (&entry.semantics, algorithm) {
            (Semantics::EScore, _) => {
                // ω(t, i) = score(t) makes Υ = Pr(t)·score(t); evaluate the
                // closed form directly rather than through the generating
                // function (O(n) instead of O(n²), bit-identical keys).
                let vals: Vec<Complex> = timed(&mut kernel_seconds, || {
                    rel.tuple_marginals()
                        .iter()
                        .zip(rel.tuple_scores())
                        .map(|(&p, s)| Complex::real(p * s))
                        .collect()
                });
                let order = entry.value_order.unwrap_or(ValueOrder::RealPart);
                let ranking = Ranking::from_values(&vals, order);
                (Values::Complex(vals), ranking, None)
            }
            (Semantics::URank(k), _) => {
                let table = timed(&mut kernel_seconds, || rel.positional_candidates(*k))
                    .ok_or_else(|| declined(entry, backend))?;
                let chosen = table.select_distinct();
                let mut vals = vec![Complex::ZERO; rel.n_tuples()];
                for &(p, t) in &chosen {
                    vals[t.index()] = Complex::real(p);
                }
                let (keys, order): (Vec<f64>, Vec<TupleId>) = chosen.into_iter().unzip();
                let ranking = Ranking::from_order_and_keys(order, keys);
                (Values::Complex(vals), ranking, None)
            }
            (Semantics::UTop(k), _) => {
                let (members, log_prob) =
                    timed(&mut kernel_seconds, || rel.most_probable_topk(*k))?;
                let scores = rel.tuple_scores();
                let mut vals = vec![Complex::ZERO; rel.n_tuples()];
                for &t in &members {
                    vals[t.index()] = Complex::ONE;
                }
                let keys: Vec<f64> = members.iter().map(|t| scores[t.index()]).collect();
                let ranking = Ranking::from_order_and_keys(members.clone(), keys);
                let set = TopSet { members, log_prob };
                (Values::Complex(vals), ranking, Some(set))
            }
            (sem, Algorithm::DftApprox(cfg)) => {
                let walk_start = Instant::now();
                let omega = sem.weight().expect("validated: weight-based semantics");
                let h = omega.truncation().expect("validated: truncated weight");
                reject_tuple_dependent(&*omega, h)?;
                let tab: Vec<f64> = tabulate(&*omega, h).iter().map(|w| w.re).collect();
                let mix = approximate_weights(&|i| tab.get(i).copied().unwrap_or(0.0), h, &cfg);
                // Υ = Σ_l u_l·Υ_{PRFe(α_l)}, accumulated in term order from
                // one single-request walk per term over one prepared state,
                // so only the accumulator and one term's answer are resident
                // at a time.
                let state = rel.prepare();
                let mut vals = vec![Scaled::<Complex>::zero(); rel.n_tuples()];
                for &(u, alpha) in &mix.terms {
                    let spec = SharedWalkSpec {
                        requests: vec![SharedRequest::PrfeScaled(alpha)],
                        threads: entry.threads.or(self.threads),
                        cancel: entry.cancel.clone(),
                    };
                    let out = rel
                        .run_shared_walk(&spec, &state)
                        .ok_or_else(|| declined(entry, backend))?;
                    if let Some(stats) = out.stats {
                        // Term walks run one after another: the peak is the
                        // largest walk's, not their sum.
                        if memory.is_none_or(|m: GfStats| stats.peak_bytes > m.peak_bytes) {
                            memory = Some(stats);
                        }
                    }
                    let Some(SharedAnswer::Scaled(term)) = out.answers.into_iter().next() else {
                        unreachable!("scaled request, scaled answer")
                    };
                    let us = Scaled::new(u);
                    for (acc, v) in vals.iter_mut().zip(term) {
                        *acc = acc.add(&v.mul(&us));
                    }
                }
                kernel_seconds += walk_start.elapsed().as_secs_f64();
                let order = entry.value_order.unwrap_or(ValueOrder::RealPart);
                let ranking = scaled_ranking(&vals, order, vals.len());
                (Values::Scaled(vals), ranking, None)
            }
            (sem, alg) => unreachable!("walk-routed entry {sem:?} / {}", alg.name()),
        };
        let top_k = entry.top_k.or(self.top_k);
        if let Some(k) = top_k {
            ranking.truncate(k);
        }
        let mut report = EvalReport::new(entry, algorithm, backend, &values);
        report.kernel_seconds = kernel_seconds;
        report.total_seconds = start.elapsed().as_secs_f64();
        report.truncated_to = top_k;
        report.threads = entry.threads.or(self.threads);
        report.memory = memory;
        Ok(RankedResult {
            values,
            ranking,
            set,
            report,
        })
    }
}

/// One walk-answered entry awaiting finalization: `(entry index, resolved
/// algorithm, walk answer, walk cost, walk memory accounting)`.
type FinalizeJob = (usize, Algorithm, SharedAnswer, BatchCost, Option<GfStats>);

/// The error of an entry whose walk the backend declined: its own tripped
/// cancellation token, or a semantics the backend has no kernel for.
fn declined(entry: &RankQuery, backend: CorrelationClass) -> QueryError {
    if entry.cancelled() {
        QueryError::TimedOut
    } else {
        QueryError::Unsupported {
            semantics: entry.semantics.label(),
            backend,
        }
    }
}

/// The DFT mixture can only represent *rank-only* weights. Probes `ω` with
/// two distinct tuples and rejects tuple-dependent weight functions instead
/// of silently tabulating through one representative (which would zero out
/// e.g. a score-proportional `ω`).
fn reject_tuple_dependent(omega: &dyn WeightFunction, h: usize) -> Result<(), QueryError> {
    let probe = |id, score, prob| prf_pdb::Tuple {
        id: TupleId(id),
        score,
        prob,
    };
    let (a, b) = (probe(0, 0.0, 1.0), probe(1, 1.0, 0.5));
    if (1..=h).any(|i| omega.weight(&a, i) != omega.weight(&b, i)) {
        return Err(QueryError::InvalidParameter(format!(
            "DftApprox requires a rank-only weight function; {} depends on the tuple",
            omega.name()
        )));
    }
    Ok(())
}

/// The best-`k` ranking of scaled Υ values under `order` (identical to the
/// full ranking truncated to `k`).
fn scaled_ranking(vals: &[Scaled<Complex>], order: ValueOrder, k: usize) -> Ranking {
    match order {
        ValueOrder::Magnitude => {
            let keys: Vec<f64> = vals.iter().map(|v| v.magnitude_key()).collect();
            Ranking::from_keys_topk(&keys, k)
        }
        ValueOrder::RealPart => {
            let keys: Vec<_> = vals.iter().map(|v| v.real_part_key()).collect();
            Ranking::from_keys_by_topk(&keys, |k| k.display(), k)
        }
    }
}

/// Decides whether a (semantics, resolved algorithm) pair can be served by
/// the shared walk.
fn route(semantics: &Semantics, algorithm: Algorithm) -> BatchRoute {
    match (semantics, algorithm) {
        (Semantics::Prf(_) | Semantics::Pt(_) | Semantics::Consensus(_), Algorithm::ExactGf) => {
            BatchRoute::Shared
        }
        (Semantics::Prfe(_), Algorithm::ExactGf | Algorithm::LogDomain | Algorithm::Scaled) => {
            BatchRoute::Shared
        }
        (Semantics::ERank, Algorithm::ExactGf) => BatchRoute::Shared,
        _ => BatchRoute::Single,
    }
}

/// The backend-facing request of a shared entry.
fn shared_request(semantics: &Semantics, algorithm: Algorithm) -> SharedRequest {
    match (semantics, algorithm) {
        (Semantics::Prf(_) | Semantics::Pt(_) | Semantics::Consensus(_), _) => {
            SharedRequest::Weight(semantics.weight().expect("weight-based semantics"))
        }
        (Semantics::Prfe(alpha), Algorithm::ExactGf) => SharedRequest::PrfeComplex(*alpha),
        // Validated real ∈ [0, 1] by `resolve_algorithm`.
        (Semantics::Prfe(alpha), Algorithm::LogDomain) => SharedRequest::PrfeLog(alpha.re),
        (Semantics::Prfe(alpha), Algorithm::Scaled) => SharedRequest::PrfeScaled(*alpha),
        (Semantics::ERank, _) => SharedRequest::ExpectedRanks,
        (sem, alg) => unreachable!("unroutable shared entry: {sem:?} / {}", alg.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::TabulatedWeight;
    use prf_pdb::{AndXorTree, IndependentDb};

    fn db() -> IndependentDb {
        IndependentDb::from_pairs([
            (10.0, 0.4),
            (9.0, 0.45),
            (8.0, 0.8),
            (7.0, 0.95),
            (6.0, 0.3),
            (5.0, 1.0),
        ])
        .unwrap()
    }

    #[test]
    fn empty_batch_is_an_error() {
        assert_eq!(
            QueryBatch::new().run(&db()).unwrap_err(),
            QueryError::EmptyBatch
        );
        assert_eq!(
            QueryBatch::new().compile(&db()).unwrap_err(),
            QueryError::EmptyBatch
        );
    }

    #[test]
    fn plan_routes_shared_and_single() {
        let batch = QueryBatch::new()
            .add(Semantics::Pt(2))
            .add(Semantics::Prfe(Complex::real(0.9)))
            .add(Semantics::ERank)
            .add(Semantics::EScore)
            .add(Semantics::UTop(2))
            .add(Semantics::URank(2));
        let plan = batch.compile(&db()).unwrap();
        assert_eq!(plan.len(), 6);
        assert_eq!(plan.route(0), BatchRoute::Shared);
        assert_eq!(plan.route(1), BatchRoute::Shared);
        assert_eq!(plan.route(2), BatchRoute::Shared);
        assert_eq!(plan.route(3), BatchRoute::Single);
        assert_eq!(plan.route(4), BatchRoute::Single);
        assert_eq!(plan.route(5), BatchRoute::Single);
        assert_eq!(plan.shared_consumers(), 3);
        assert!(!plan.is_empty());
    }

    #[test]
    fn batch_matches_single_queries_on_independent() {
        let db = db();
        let batch = QueryBatch::new()
            .add(Semantics::Pt(2))
            .add(Semantics::Pt(4))
            .add_query(RankQuery::prf(TabulatedWeight::from_real(&[2.0, 1.0, 0.5])))
            .add_query(RankQuery::prfe(0.8))
            .add(Semantics::ERank)
            .add(Semantics::EScore);
        let results = batch.run(&db).unwrap();
        let singles = [
            RankQuery::pt(2),
            RankQuery::pt(4),
            RankQuery::prf(TabulatedWeight::from_real(&[2.0, 1.0, 0.5])),
            RankQuery::prfe(0.8),
            RankQuery::erank(),
            RankQuery::escore(),
        ];
        for (got, q) in results.iter().zip(&singles) {
            let want = q.run(&db).unwrap();
            assert_eq!(
                got.ranking.order(),
                want.ranking.order(),
                "{}",
                want.report.semantics
            );
            if let (Some(g), Some(w)) = (got.values.as_complex(), want.values.as_complex()) {
                assert_eq!(g, w, "{}", want.report.semantics);
            }
        }
        // Shared entries carry cost attribution; Single entries do not.
        assert!(results[0].report.batch.is_some());
        assert_eq!(results[0].report.batch.unwrap().consumers, 5);
        assert!(results[5].report.batch.is_none());
    }

    #[test]
    fn batch_matches_single_queries_on_trees() {
        use prf_pdb::{NodeKind, TreeBuilder};
        let mut b = TreeBuilder::new(NodeKind::Xor);
        let root = b.root();
        let a = b.add_inner(root, NodeKind::And, 0.6).unwrap();
        b.add_leaf(a, 1.0, 10.0).unwrap();
        b.add_leaf(a, 1.0, 9.0).unwrap();
        b.add_leaf(root, 0.4, 8.0).unwrap();
        let tree = b.build().unwrap();

        let batch = QueryBatch::new()
            .add(Semantics::Pt(2))
            .add_query(RankQuery::prfe(0.7).algorithm(Algorithm::ExactGf))
            .add_query(RankQuery::prfe(0.7).algorithm(Algorithm::Scaled))
            .add(Semantics::ERank);
        let results = batch.run(&tree).unwrap();
        let pt = RankQuery::pt(2).run(&tree).unwrap();
        assert_eq!(
            results[0].values.as_complex().unwrap(),
            pt.values.as_complex().unwrap()
        );
        let prfe = RankQuery::prfe(0.7)
            .algorithm(Algorithm::ExactGf)
            .run(&tree)
            .unwrap();
        for (g, w) in results[1]
            .values
            .as_complex()
            .unwrap()
            .iter()
            .zip(prfe.values.as_complex().unwrap())
        {
            assert!(g.approx_eq(*w, 1e-12));
        }
        let er = RankQuery::erank().run(&tree).unwrap();
        assert_eq!(results[3].ranking.order(), er.ranking.order());
        // The tree walk reports evaluator memory.
        assert!(results[0].report.memory.is_some());
    }

    #[test]
    fn batch_top_k_defaults_and_overrides() {
        let db = db();
        let results = QueryBatch::new()
            .add(Semantics::Pt(3))
            .add_query(RankQuery::prfe(0.9).top_k(1))
            .top_k(2)
            .run(&db)
            .unwrap();
        assert_eq!(results[0].ranking.len(), 2); // batch default
        assert_eq!(results[1].ranking.len(), 1); // entry override wins
        assert_eq!(results[0].report.truncated_to, Some(2));
        assert_eq!(results[1].report.truncated_to, Some(1));
    }

    #[test]
    fn run_isolated_isolates_bad_entries() {
        let db = db();
        let results = QueryBatch::new()
            .add(Semantics::Pt(2))
            // Incompatible: PT has no log-domain algorithm.
            .add_query(RankQuery::pt(2).algorithm(Algorithm::LogDomain))
            .add_query(RankQuery::prfe(0.9))
            // Fails at evaluation time: k > n has no set answer.
            .add(Semantics::UTop(99))
            .run_isolated(&db);
        assert_eq!(results.len(), 4);
        assert!(matches!(
            results[1],
            Err(QueryError::IncompatibleAlgorithm { .. })
        ));
        assert!(matches!(results[3], Err(QueryError::NoSetAnswer)));
        // The good entries still share the walk and match their single
        // queries exactly.
        let pt = RankQuery::pt(2).run(&db).unwrap();
        let prfe = RankQuery::prfe(0.9).run(&db).unwrap();
        let got_pt = results[0].as_ref().unwrap();
        let got_prfe = results[2].as_ref().unwrap();
        assert_eq!(got_pt.values.as_complex(), pt.values.as_complex());
        assert_eq!(got_prfe.ranking.order(), prfe.ranking.order());
        assert_eq!(got_pt.report.batch.unwrap().consumers, 2);
        // An empty batch has no entry to report an error through.
        assert!(QueryBatch::new().run_isolated(&db).is_empty());
    }

    #[test]
    fn parallel_finalize_matches_serial() {
        // Large enough that `parallel(2)` clears the per-worker floor, so
        // the shared entries' finalization actually fans out over scoped
        // threads — the results must be bit-identical to the serial
        // batch (same assembly code on the same walk answers).
        let n = 2 * crate::parallel::PARALLEL_MIN_SHARD_TUPLES;
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let db = IndependentDb::from_pairs((0..n).map(|i| ((n - i) as f64, 0.05 + 0.9 * next())))
            .unwrap();
        assert_eq!(
            crate::parallel::effective_walk_threads(n, Some(2)),
            2,
            "gate must open at this size or the test exercises nothing"
        );
        let entries = || {
            vec![
                RankQuery::pt(3),
                RankQuery::prfe(0.9).algorithm(Algorithm::LogDomain),
                RankQuery::erank(),
            ]
        };
        let parallel = QueryBatch::new()
            .add_queries(entries())
            .parallel(2)
            .run(&db)
            .unwrap();
        let serial = QueryBatch::new().add_queries(entries()).run(&db).unwrap();
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(
                p.ranking.order(),
                s.ranking.order(),
                "{}",
                s.report.semantics
            );
            for pos in 0..p.ranking.len() {
                assert_eq!(p.ranking.key_at(pos), s.ranking.key_at(pos));
            }
            assert_eq!(p.values.len(), s.values.len());
        }
    }

    #[test]
    fn batch_top_k_pushdown_agrees_with_full_rankings() {
        // Every entry requests top_k, so each shared ranking is built by
        // partial selection — the result must be identical to the full
        // ranking truncated afterwards, across every answer shape.
        let db = db();
        let tree = AndXorTree::from_independent(&db);
        let entries = || {
            vec![
                RankQuery::pt(3),
                RankQuery::prfe(0.8).algorithm(Algorithm::ExactGf),
                RankQuery::prfe(0.8).algorithm(Algorithm::Scaled),
                RankQuery::erank(),
            ]
        };
        for k in [1usize, 2, 4, 100] {
            let pushed = QueryBatch::new()
                .add_queries(entries())
                .top_k(k)
                .run(&db)
                .unwrap();
            let full = QueryBatch::new().add_queries(entries()).run(&db).unwrap();
            for (p, f) in pushed.iter().zip(&full) {
                let mut truncated = f.ranking.clone();
                truncated.truncate(k);
                assert_eq!(p.ranking.order(), truncated.order(), "k={k}");
                for pos in 0..p.ranking.len() {
                    assert_eq!(p.ranking.key_at(pos), truncated.key_at(pos), "k={k}");
                }
                assert_eq!(p.values.len(), db.len(), "values stay complete");
            }
            // Log-domain PRFe only routes shared on the independent
            // backend; trees cover the Complex/Scaled/Ranks shapes.
            let pushed = QueryBatch::new()
                .add_queries(entries())
                .top_k(k)
                .run(&tree)
                .unwrap();
            let full = QueryBatch::new().add_queries(entries()).run(&tree).unwrap();
            for (p, f) in pushed.iter().zip(&full) {
                let mut truncated = f.ranking.clone();
                truncated.truncate(k);
                assert_eq!(p.ranking.order(), truncated.order(), "tree k={k}");
            }
        }
        // Log-domain answer shape on the independent fast path.
        let pushed = QueryBatch::new()
            .add_query(
                RankQuery::prfe(0.7)
                    .algorithm(Algorithm::LogDomain)
                    .top_k(2),
            )
            .run(&db)
            .unwrap();
        let single = RankQuery::prfe(0.7)
            .algorithm(Algorithm::LogDomain)
            .run(&db)
            .unwrap();
        assert_eq!(pushed[0].ranking.order(), &single.ranking.order()[..2]);
    }

    #[test]
    fn incompatible_entry_fails_the_whole_batch() {
        let err = QueryBatch::new()
            .add(Semantics::Pt(2))
            .add_query(RankQuery::pt(2).algorithm(Algorithm::LogDomain))
            .run(&db())
            .unwrap_err();
        assert!(matches!(err, QueryError::IncompatibleAlgorithm { .. }));
    }

    #[test]
    fn auto_resolution_matches_single_queries() {
        let tree = AndXorTree::from_independent(&db());
        let batch = QueryBatch::new()
            .add(Semantics::Prfe(Complex::real(0.5)))
            .add(Semantics::Pt(3));
        let plan = batch.compile(&tree).unwrap();
        for (i, q) in batch.queries().iter().enumerate() {
            assert_eq!(plan.algorithm(i), q.resolve_algorithm(&tree).unwrap());
        }
    }
}
