//! # csj-engine — a multi-community CSJ service layer
//!
//! The paper's application scenarios (Section 1.2) all revolve around an
//! *online system* that evaluates CSJ over **many** community pairs:
//! business-partner search compares one brand against candidate brands,
//! broadcast recommendation ranks "a variety of community pairs", and
//! Section 3 prescribes the execution strategy:
//!
//! > "The usage of approximate method is to fast find a group of
//! > similar-enough community pairs for impending precise similarity
//! > computation. When such a group is found, the exact method applies
//! > ... The online system executes the respective recommendation case
//! > exclusively based on the precise results derived from the exact
//! > method."
//!
//! [`CsjEngine`] packages exactly that: a registry of communities, the
//! two-phase **screen (approximate) → refine (exact)** pipeline, a
//! per-pair cache of both phases' scores with version-based
//! invalidation (a repeated top-k over unchanged communities runs no
//! join), top-k
//! most-similar queries and in-place community updates (subscribers
//! arrive and counters grow continuously in a live system).
//!
//! For a pair that must be monitored under a *stream* of user updates,
//! [`TrackedPair`] maintains the exact similarity incrementally — one
//! `O(n·d)` candidate rescan plus a bounded matching repair per update,
//! instead of a full `O(|B|·|A|·d)` re-join.
//!
//! Every query runs through one entry point, [`CsjEngine::query`]: a
//! [`Query`] (one pair's similarity, top-k, or the broadcast sweep), the
//! [`Exactness`] that picks its primary or approximate form, and a
//! [`Budget`] (wall-clock deadline, join cap, cooperative cancellation)
//! that bounds it, since a live system needs its queries bounded. The
//! answer is a [`Partial`] that degrades gracefully on exhaustion
//! instead of erroring. Joins are panic-isolated per candidate. Tests
//! exercise that isolation through runtime hooks (the hidden `fault`
//! module and `CsjEngine::inject_faults`) that inject panics, errors,
//! and slowdowns into joins; an engine no test has touched carries no
//! plan.
//!
//! For fault *isolation* beyond the per-join boundary, every multi-pair
//! query partitions its work into mass-balanced shards, each run once
//! inside its own panic boundary; a crashed shard shrinks the result's
//! [`Coverage`] report instead of failing the query. A passed query
//! deadline stops every shard at its next work unit and trips the
//! budget's shared token, which in-flight joins poll. Fault-free
//! results are bit-identical for every shard count and thread count.

mod budget;
mod engine;
mod error;
#[doc(hidden)]
pub mod fault;
mod obs;
mod tracked;

pub use budget::{Budget, BudgetExhausted, CancelToken, ExhaustReason, Partial};
pub use csj_core::plan::{Exactness, PlanInput, QueryPlan};
pub use csj_core::{Coverage, ShardLayout};
pub use csj_obs::{CaptureCause, ForensicRecord, MetricsSnapshot, QueryTrace};
#[doc(hidden)]
pub use csj_shard::ShardFaultPlan;
pub use csj_shard::{ShardConfig, ShardOutcome, ShardReport};
pub use engine::{
    Answer, CommunityHandle, CsjEngine, EngineConfig, EngineStats, PairScore, PairsCursor,
    PairsSweep, Query,
};
pub use error::EngineError;
pub use obs::{engine_slos, ObsConfig, ShardFate, UnitFate};
pub use tracked::{Side, TrackedPair};

#[cfg(test)]
mod tests {
    // Integration-style tests live in `engine.rs` and `tests/`.
}
