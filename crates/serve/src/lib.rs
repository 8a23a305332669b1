//! Deadline-batched serving layer over the unified query engine.
//!
//! The paper's framework makes every PRF-family semantics a read-off of one
//! generating-function walk, and [`prf_core::query::QueryBatch`] exploits
//! that: N queries against one relation cost roughly one walk. What the
//! batch layer cannot do is *collect* those N queries — a serving workload
//! delivers them one at a time, from many client threads, against several
//! relations. This crate adds the missing front end:
//!
//! * a [`RankServer`] owns registered [`ProbabilisticRelation`]s and
//!   accepts [`RankQuery`] submissions concurrently from any number of
//!   client threads;
//! * pending queries are **grouped by relation** and flushed into one
//!   `QueryBatch` when either the oldest query's **deadline**
//!   ([`ServeConfig::max_delay`]) or the **maximum batch size**
//!   ([`ServeConfig::max_batch`]) is hit — or immediately at shutdown;
//! * every submission returns a [`ResponseHandle`] (blocking
//!   [`ResponseHandle::recv`] plus non-blocking [`ResponseHandle::try_recv`])
//!   carrying the [`prf_core::query::RankedResult`] or the per-query
//!   [`prf_core::query::QueryError`] — one bad query never poisons its
//!   flush (the batch runs with per-entry error isolation);
//! * each answered query's report records its serving provenance
//!   ([`prf_core::query::ServeCost`]): queue wait, admission-time queue
//!   depth, the relation's cumulative shed count, plus which
//!   [`prf_core::query::FlushTrigger`] (`Deadline | SizeLimit | Shutdown`)
//!   fired the flush that served it;
//! * flushes execute on a **worker pool** ([`ServeConfig::workers`]) with
//!   per-relation FIFO ordering — a slow relation's walk occupies one
//!   worker while every other relation keeps flushing on the rest;
//! * registration **prepares** each relation
//!   ([`prf_core::query::PreparedRelation`]): the score sort and compiled
//!   evaluation plan are built once and reused by every flush;
//! * queues can be **bounded** ([`ServeConfig::max_pending`]) — admission
//!   control: [`RankServer::submit`] blocks at the bound (backpressure)
//!   and [`RankServer::try_submit`] sheds with
//!   [`prf_core::query::QueryError::Overloaded`]; serving counters are
//!   visible through [`RankServer::metrics`];
//! * **live relations** ([`RankServer::register_live`]) accept
//!   insert/delete/reweight [`Mutation`]s through [`RankServer::apply`] —
//!   applied on the flush pipeline, serialized with query evaluation, and
//!   acknowledged through a [`MutationHandle`];
//! * **standing queries** ([`RankServer::subscribe`]) stream a
//!   [`RankingDelta`] (entered / left / moved tuples plus the new ranking)
//!   to their [`SubscriptionHandle`] after every mutated flush, starting
//!   from an initial snapshot — dropping the handle unsubscribes
//!   immediately;
//! * the serving layer is **fault tolerant**: a panic anywhere in a flush
//!   is contained to the flush (undelivered entries re-queue; the panicking
//!   entry alone resolves to [`prf_core::query::QueryError::Internal`]), a
//!   panic while applying a mutation repairs the live relation's prepared
//!   state before anything is served from it, poisoned locks are recovered
//!   and counted, and a **supervisor** thread respawns dead flush workers
//!   and compensates stuck ones ([`ServeConfig::stuck_after`]);
//! * submissions can carry **per-query deadlines**
//!   ([`RankServer::submit_with`] + [`SubmitOptions`]): an expired query is
//!   shed with [`prf_core::query::QueryError::TimedOut`] *without being
//!   evaluated*, in-flight walks abandon it at the next cooperative
//!   cancellation check, and dropping its [`ResponseHandle`] cancels the
//!   same way;
//! * each relation carries a **result cache**: queries that canonicalize
//!   to a [`prf_core::query::QueryKey`] are remembered per relation
//!   generation and served on repeat *without joining a walk*
//!   ([`prf_core::query::ServeCost::served_from_cache`] marks them);
//!   entries are consulted generation-exactly — any mutation-applying
//!   flush invalidates them, so a mutate-then-query sequence can never be
//!   served stale — and identical untracked queries inside one flush
//!   coalesce onto a single walk slot
//!   ([`ServeConfig::cache_enabled`] / [`ServeConfig::cache_entries`]);
//! * a deterministic **fault-injection harness** (`FaultPlan`, compiled
//!   under `cfg(any(test, feature = "chaos"))`) arms panics, delays,
//!   overloads, and worker kills at seven named sites of the flush path,
//!   so chaos tests can prove exactly-once handle resolution under seeded
//!   fault schedules.
//!
//! The implementation is std-only — client threads, one deadline
//! scheduler thread, one supervisor thread, and N flush workers
//! coordinating through a `Mutex`/`Condvar` pair, with per-query `mpsc`
//! channels delivering answers.
//!
//! ```
//! use prf_core::query::{RankQuery, Semantics};
//! use prf_pdb::IndependentDb;
//! use prf_serve::{RankServer, ServeConfig};
//! use std::time::Duration;
//!
//! let server = RankServer::new(ServeConfig::new().max_delay(Duration::from_millis(2)));
//! let db = IndependentDb::from_pairs([(100.0, 0.5), (50.0, 1.0), (80.0, 0.8)])?;
//! let rel = server.register("readings", db);
//!
//! // Submissions are non-blocking; many client threads may submit at once.
//! let pt = server.submit(rel, RankQuery::pt(2))?;
//! let prfe = server.submit(rel, RankQuery::prfe(0.9))?;
//!
//! // Both land in the same flush and share one score-order walk.
//! let pt = pt.recv()?;
//! let prfe = prfe.recv()?;
//! assert_eq!(pt.ranking.len(), 3);
//! let serve = pt.report.serve.expect("served answers carry provenance");
//! assert!(serve.queue_seconds >= 0.0);
//! server.shutdown(); // drains in-flight queries; Drop would do the same
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

#[cfg(any(test, feature = "chaos"))]
pub mod fault;
mod handle;
mod server;
mod supervisor;

#[cfg(any(test, feature = "chaos"))]
pub use fault::{FaultKind, FaultPlan};
pub use handle::{MutationHandle, QueryId, RankingDelta, ResponseHandle, SubscriptionHandle};
pub use server::{
    RankServer, RelationId, ServeConfig, ServeMetrics, SharedRelation, SubmitOptions,
};

// Re-exported so serving code can name its whole vocabulary from one crate.
pub use prf_core::live::{LiveApply, LiveRelation, MutableRelation, Mutation, MutationEffect};
pub use prf_core::query::{
    FlushTrigger, PreparedRelation, ProbabilisticRelation, QueryError, QueryKey, RankQuery,
    RankedResult, Semantics, ServeCost,
};
pub use prf_core::TupleId;
