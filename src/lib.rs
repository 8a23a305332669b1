//! # prf — A Unified Approach to Ranking in Probabilistic Databases
//!
//! A complete Rust implementation of Li, Saha & Deshpande's VLDB 2009 paper
//! *“A Unified Approach to Ranking in Probabilistic Databases”*
//! (arXiv:0904.1366): the **parameterized ranking function** (PRF) framework
//! and its two workhorse families **PRFω(h)** and **PRFe(α)**, together with
//! every substrate the paper builds on — probabilistic and/xor trees,
//! generating-function algorithms, DFT-based PRFe-mixture approximation,
//! preference learning, prior ranking semantics, junction-tree inference,
//! top-k distance metrics and seeded dataset generators.
//!
//! ## Thirty-second tour
//!
//! The library embodies the paper's unification: **one query engine**
//! ([`core::query::RankQuery`]) evaluates every ranking semantics on every
//! backend, picking the numeric mode automatically.
//!
//! ```
//! use prf::prelude::*;
//!
//! // A probabilistic relation: (score, existence probability).
//! let db = IndependentDb::from_pairs([
//!     (100.0, 0.5), // great score, coin-flip existence
//!     (50.0, 1.0),  // mediocre but certain
//!     (80.0, 0.8),
//! ]).unwrap();
//!
//! // PT(2): rank by the probability of making the top 2.
//! let pt = RankQuery::pt(2).run(&db)?;
//! assert_eq!(pt.ranking.order()[0], TupleId(2));
//!
//! // PRFe(0.9): the smooth member of the family — same entry point,
//! // different semantics; `Auto` picks the algorithm and numeric mode.
//! let prfe = RankQuery::prfe(0.9).run(&db)?;
//! assert_eq!(prfe.ranking.order()[0], TupleId(1));
//! assert_eq!(prfe.report.algorithm, Algorithm::ExactGf); // small n → exact
//!
//! // The identical query runs unchanged on correlated data.
//! let tree = AndXorTree::from_independent(&db);
//! let correlated = RankQuery::prfe(0.9).run(&tree)?;
//! assert_eq!(prfe.ranking.order(), correlated.ranking.order());
//! # Ok::<(), prf::core::query::QueryError>(())
//! ```
//!
//! ## Migrating from the free functions
//!
//! The per-algorithm free functions remain available (they are the engine's
//! kernels), but new code should prefer the builder:
//!
//! | legacy free function | `RankQuery` equivalent |
//! |---|---|
//! | `prf_rank(&db, &ω)` / `prf_rank_tree(&tree, &ω)` | `RankQuery::prf(ω).run(&db)?` |
//! | `prf_rank_tree_parallel(&tree, &ω, t)` (removed) | `RankQuery::prf(ω).parallel(t).run(&tree)?` |
//! | `prfe_rank(&db, α)` / `prfe_rank_tree(&tree, α)` | `RankQuery::prfe_complex(α).algorithm(Algorithm::ExactGf).run(…)?` |
//! | `prfe_rank_log(&db, α)` | `RankQuery::prfe(α).algorithm(Algorithm::LogDomain).run(&db)?` |
//! | `prfe_rank_scaled(&db, α)` / `prfe_rank_tree_scaled` | `RankQuery::prfe_complex(α).algorithm(Algorithm::Scaled).run(…)?` |
//! | `pt_values` / `pt_ranking` / `pt_topk` (+ `_tree`) | `RankQuery::pt(h).run(…)?` |
//! | `urank_topk(&db, k)` / `urank_topk_tree` | `RankQuery::urank(k).run(…)?.ranking` |
//! | `utop_topk(&db, k)` | `RankQuery::utop(k).run(&db)?.set` |
//! | `expected_ranks` / `erank_ranking` (+ `_tree`) | `RankQuery::erank().run(…)?` |
//! | `expected_scores` / `escore_ranking` (+ `_tree`) | `RankQuery::escore().run(…)?` |
//! | `consensus_topk(&db, k)` | `RankQuery::consensus(k).top_k(k).run(&db)?` |
//! | `consensus_topk_weighted(&db, &w)` | `RankQuery::prf(TabulatedWeight::from_real(&w)).run(&db)?` |
//! | `approximate_weights(…)` + `ExpMixture::ranking_*` | `RankQuery::pt(h).algorithm(Algorithm::DftApprox(cfg)).run(…)?` |
//!
//! Each [`RankedResult`](core::query::RankedResult) carries the per-tuple
//! values, the [`Ranking`](core::topk::Ranking), the set answer for U-Top,
//! and an [`EvalReport`](core::query::EvalReport) stating which algorithm
//! and numeric mode actually ran, with timings.
//!
//! ## Crate map
//!
//! | module (re-export) | crate | contents |
//! |---|---|---|
//! | [`numeric`] | `prf-numeric` | complex/dual/scaled scalars, FFT, polynomials |
//! | [`pdb`] | `prf-pdb` | tuples, possible worlds, and/xor trees, attribute uncertainty |
//! | [`core`] | `prf-core` | the unified `RankQuery` engine + PRF/PRFω/PRFe algorithms; `core::live` adds mutable relations with incrementally patched plans |
//! | [`baselines`] | `prf-baselines` | U-Top, U-Rank, PT(h), E-Rank, E-Score, k-selection, consensus |
//! | [`approx`] | `prf-approx` | DFT-based PRFe mixtures, learning α / ω |
//! | [`graphical`] | `prf-graphical` | Markov networks, junction trees, §9 algorithms, `NetworkRelation` |
//! | [`metrics`] | `prf-metrics` | normalized Kendall top-k distance and friends |
//! | [`datasets`] | `prf-datasets` | simulated IIP, Syn-IND, Syn-XOR/LOW/MED/HIGH |
//! | [`serve`] | `prf-serve` | concurrent `RankServer`: deadline batching, flush worker pool, prepared relations, admission control, live mutations + standing queries |
//!
//! The experiment harness that regenerates every table and figure of the
//! paper lives in the `prf-bench` crate (`cargo run --release -p prf-bench
//! --bin experiments -- all`); EXPERIMENTS.md records paper-vs-measured
//! results.

#![deny(missing_docs)]

pub use prf_approx as approx;
pub use prf_baselines as baselines;
pub use prf_core as core;
pub use prf_datasets as datasets;
pub use prf_graphical as graphical;
pub use prf_metrics as metrics;
pub use prf_numeric as numeric;
pub use prf_pdb as pdb;
pub use prf_serve as serve;

/// The most commonly used items, for glob import:
/// `use prf::prelude::*;`.
pub mod prelude {
    pub use prf_approx::{approximate_weights, DftApproxConfig, ExpMixture};
    pub use prf_core::query::{
        Algorithm, BatchCost, BatchPlan, BatchRoute, CancelToken, CorrelationClass, EvalReport,
        FlushTrigger, NumericMode, PreparedRelation, PreparedState, ProbabilisticRelation,
        QueryBatch, QueryError, QueryKey, RankQuery, RankedResult, Semantics, ServeCost, TopSet,
        Values,
    };
    pub use prf_core::{
        effective_walk_threads, prf_rank, prf_rank_tree, prfe_rank, prfe_rank_log, prfe_rank_tree,
        Ranking, ValueOrder, WeightFunction, PARALLEL_MIN_SHARD_TUPLES,
    };
    pub use prf_core::{
        ConstantWeight, ExponentialWeight, LinearWeight, PositionWeight, ScoreWeight, StepWeight,
        TabulatedWeight,
    };
    pub use prf_core::{LiveApply, LiveRelation, MutableRelation, Mutation, MutationEffect};
    pub use prf_core::{ShardError, ShardHandle, ShardedRelation};
    pub use prf_graphical::NetworkRelation;
    pub use prf_metrics::kendall_topk;
    pub use prf_numeric::Complex;
    pub use prf_pdb::{AndXorTree, IndependentDb, NodeKind, TreeBuilder, Tuple, TupleId};
    pub use prf_serve::{
        MutationHandle, RankServer, RankingDelta, RelationId, ResponseHandle, ServeConfig,
        ServeMetrics, SubmitOptions, SubscriptionHandle,
    };
}
