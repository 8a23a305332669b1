//! Parameterized ranking functions for probabilistic databases —
//! the core contribution of Li, Saha & Deshpande,
//! *“A Unified Approach to Ranking in Probabilistic Databases”* (VLDB 2009).
//!
//! # The PRF framework
//!
//! Ranking uncertain data is a multi-criteria problem: score and probability
//! trade off, and no single fixed ranking function fits every dataset or
//! user. The paper's answer is a *parameterized* family,
//!
//! ```text
//! Υ_ω(t) = Σ_{i>0} ω(t, i) · Pr(r(t) = i)
//! ```
//!
//! over the positional-probability features `Pr(r(t) = i)`, with a top-k
//! query returning the `k` tuples with the largest `|Υ_ω|`. Choosing `ω`
//! recovers ranking by probability, expected score, PT(h)/Global-top-k,
//! U-Rank, expected-rank-style functions and k-selection
//! ([`weights`]); two sub-families get special treatment:
//!
//! * **PRFω(h)** — arbitrary weights on ranks `≤ h`, evaluated in `O(n·h)`
//!   for independent tuples and `O(n·h·log n)` for x-tuples ([`xtuple`]);
//! * **PRFe(α)** — `ω(i) = αⁱ`, evaluated in `O(n log n)` even on
//!   correlated data modelled by probabilistic and/xor trees ([`tree`]),
//!   because `Υ = Fⁱ(α)` needs only the generating function's *value*.
//!
//! # The unified query engine
//!
//! All of the above is reachable through **one entry point**: the
//! [`query`] module's [`query::RankQuery`] builder pairs a
//! [`query::Semantics`] (PRFω, PRFe, PT(h), U-Top, U-Rank, E-Rank,
//! E-Score, Consensus) with an [`query::Algorithm`] (exact
//! generating functions, log-domain, scaled arithmetic, or the DFT
//! mixture approximation — or `Auto`) and runs against any
//! [`query::ProbabilisticRelation`] backend. Many queries against one
//! relation batch into **one shared score-order walk** via
//! [`query::QueryBatch`]. The per-algorithm free functions below remain
//! available as the engine's kernels.
//!
//! # Module map
//!
//! * [`query`] — the unified `RankQuery` engine: one entry point for every
//!   semantics, backend, and numeric mode;
//! * [`parallel`] — the sharded (scoped-thread) form of the tree walk and
//!   the gate deciding when sharding pays;
//! * [`weights`] — the `ω` families and the [`weights::WeightFunction`]
//!   trait;
//! * [`independent`] — Algorithm 1 (IND-PRF-RANK) and the PRFe/PRFω fast
//!   paths for tuple-independent data;
//! * [`incremental`] — the incremental generating-function engine: cached
//!   fold state over a binarised combine plan, two leaf-to-root path
//!   recombinations per tuple, division-free, generic over the ring;
//! * [`live`] — live relations: insert/delete/reweight mutations patched
//!   into the cached score order, marginals, compiled plan, and log-domain
//!   keys, with generation counters for stale-cache invalidation;
//! * [`tree`] — Algorithms 2 and 3 on and/xor trees as walks of the
//!   incremental engine (full-refold oracles retained); expected ranks via
//!   dual numbers;
//! * [`xtuple`] — `O(n·h·log n)` PRFω(h) on x-tuples by a division-free
//!   divide-and-conquer over the score sweep;
//! * [`shard`] — sharded relations: score-contiguous shards walked
//!   concurrently and merged via the presence-GF monoid;
//! * [`attribute`] — ranking with uncertain scores (Section 4.4);
//! * [`mixture`] — DFT-based approximation of PRFω by PRFe mixtures
//!   (Section 5.1);
//! * [`spectrum`] — Theorem 4: the single-crossing structure of PRFe
//!   rankings as `α` sweeps 0→1;
//! * [`topk`] — turning Υ values into ranked answers.

#![deny(missing_docs)]

pub mod attribute;
pub mod incremental;
pub mod independent;
pub mod live;
pub mod mixture;
pub mod parallel;
pub mod query;
pub mod shard;
pub mod spectrum;
pub mod topk;
pub mod tree;
pub mod weights;
pub mod xtuple;

pub use attribute::{prf_rank_uncertain, prfe_rank_uncertain};

/// Locks `m`, recovering the guard when a panicking holder poisoned it —
/// the one sanctioned raw `Mutex::lock` in this crate (`clippy.toml` bans
/// the rest). Every mutex here guards state that stays consistent across
/// a panic (the [`parallel`] fork-join job list, a generation tracker
/// whose slots each change in one assignment), so one panicking holder
/// must not disable the structure for good.
pub(crate) fn lock_recover<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    #[allow(clippy::disallowed_methods)] // the sanctioned raw `lock`
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
pub use incremental::{EvalPlan, GfStats, IncrementalGf};
pub use independent::{
    prf_rank, prf_rank_full, prf_rank_truncated, prfe_rank, prfe_rank_log, prfe_rank_scaled,
    rank_distributions,
};
pub use live::{LiveApply, LiveRelation, MutableRelation, Mutation, MutationEffect};
pub use mixture::{approximate_weights, DftApproxConfig, ExpMixture};
pub use parallel::{effective_walk_threads, PARALLEL_MIN_SHARD_TUPLES};
pub use prf_pdb::TupleId;
pub use query::{
    Algorithm, BatchCost, BatchPlan, BatchRoute, CancelToken, CorrelationClass, EvalReport,
    NumericMode, PreparedRelation, PreparedState, ProbabilisticRelation, QueryBatch, QueryError,
    RankQuery, RankedResult, Semantics, TopSet, Values,
};
pub use shard::{ShardError, ShardHandle, ShardedRelation};
pub use spectrum::{crossing_point, prfe_spectrum, spectrum_endpoints, Crossing};
pub use topk::{Ranking, ValueOrder};
pub use tree::{
    expected_ranks_tree, prf_rank_tree, prf_rank_tree_interp, prf_rank_tree_refold, prfe_rank_tree,
    prfe_rank_tree_recompute, prfe_rank_tree_scaled, rank_distributions_tree,
};
pub use weights::{
    ConstantWeight, DcgWeight, ExponentialWeight, LinearWeight, PositionWeight, ScoreWeight,
    StepWeight, TabulatedWeight, TopScoreWeight, WeightFunction,
};
pub use xtuple::prf_omega_rank_xtuple;
