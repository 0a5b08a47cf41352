//! Query budgets and graceful degradation.
//!
//! Production queries must never run away: a broadcast sweep over a big
//! catalog ([`Query::PairsAbove`](crate::Query::PairsAbove))
//! is quadratic in the number of communities, and even a single top-k
//! query fans out one join per candidate. A [`Budget`] bounds that work
//! three ways — wall-clock deadline, join-count cap, and a cooperative
//! [`CancelToken`] the caller can trip from another thread — and
//! budget-exhausted queries *degrade* instead of failing: they return a
//! [`Partial`] carrying everything scored so far plus a
//! [`BudgetExhausted`] marker saying why and how much work was left.
//!
//! Budgets are per-query: deadlines are absolute instants fixed at
//! construction, and the cancel flag never resets, so build a fresh
//! `Budget` for each query (and for each resume of a truncated sweep).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub use csj_core::CancelToken;
use csj_core::Coverage;

/// Work limits for one engine query. The default ([`Budget::unlimited`])
/// imposes none.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    max_joins: Option<u64>,
    cancel: CancelToken,
}

impl Budget {
    /// No limits: queries run to completion (cancellation still works
    /// through [`cancel_token`](Budget::cancel_token)).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Builder-style: stop admitting new pairs once `timeout` has
    /// elapsed from *now*. Durations too large to represent saturate to
    /// "no deadline".
    pub fn with_deadline(mut self, timeout: Duration) -> Self {
        self.deadline = Instant::now().checked_add(timeout);
        self
    }

    /// Builder-style: stop admitting new pairs after `max` joins.
    pub fn with_max_joins(mut self, max: u64) -> Self {
        self.max_joins = Some(max);
        self
    }

    /// A clone of the budget's cancellation token. Trip it from any
    /// thread to stop the query at the next per-row check.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Trip the budget's cancellation token.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Why the budget no longer admits work, if so. `joins_done` is the
    /// number of joins the query has executed under this budget.
    pub fn exceeded(&self, joins_done: u64) -> Option<ExhaustReason> {
        // Own limits before the token: the engine trips the shared token
        // itself when a limit fires (to stop in-flight workers), and the
        // root cause should still be reported, not the side effect.
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(ExhaustReason::Deadline);
            }
        }
        if let Some(max) = self.max_joins {
            if joins_done >= max {
                return Some(ExhaustReason::MaxJoins);
            }
        }
        if self.cancel.is_cancelled() {
            return Some(ExhaustReason::Cancelled);
        }
        None
    }
}

csj_obs::label_enum! {
    /// Why a budget stopped a query.
    pub enum ExhaustReason {
        /// The cancellation token was tripped.
        Cancelled => "cancelled",
        /// The wall-clock deadline passed.
        Deadline => "deadline",
        /// The join-count cap was reached.
        MaxJoins => "max-joins",
    }
}

impl std::fmt::Display for ExhaustReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Marker attached to a truncated query result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExhausted {
    /// Which limit stopped the query.
    pub reason: ExhaustReason,
    /// Candidate pairs actually processed (scored, found inadmissible,
    /// or failed) before the budget ran out.
    pub pairs_done: u64,
    /// Candidate pairs the query never got to.
    pub pairs_skipped: u64,
}

/// A possibly-truncated query result: everything computed before the
/// budget ran out, plus the [`BudgetExhausted`] marker when it did.
/// Budget exhaustion is *graceful degradation*, not an error — the
/// value is always well-formed, just possibly incomplete.
///
/// Every multi-pair engine query runs on the shard executor and
/// attaches a [`Coverage`] report: how many shards resolved each way
/// and how many work units were actually screened. Budget exhaustion
/// and coverage loss are independent — a query can finish inside its
/// budget yet still be incomplete because a shard failed
/// (`exhausted: None`, `coverage.is_partial()`).
#[derive(Debug, Clone, PartialEq)]
pub struct Partial<T> {
    /// The (possibly truncated) result.
    pub value: T,
    /// `Some` when the budget ran out before the query finished.
    pub exhausted: Option<BudgetExhausted>,
    /// Shard completeness of the query; `None` for a similarity, which
    /// runs no shards, and for values built outside the shard executor
    /// (e.g. [`Partial::complete`]).
    pub coverage: Option<Coverage>,
}

impl<T> Partial<T> {
    /// Wrap a result that ran to completion.
    pub fn complete(value: T) -> Self {
        Self {
            value,
            exhausted: None,
            coverage: None,
        }
    }

    /// Whether the query ran to completion — no budget truncation and
    /// no coverage loss.
    pub fn is_complete(&self) -> bool {
        self.exhausted.is_none() && !self.coverage.is_some_and(|c| c.is_partial())
    }

    /// Unwrap the value, discarding the exhaustion marker.
    pub fn into_value(self) -> T {
        self.value
    }
}

/// Internal helper: build the exhaustion marker for a finished query.
/// `None` when nothing was skipped (the query completed), or when the
/// budget still admits work: then the skips came from a lost or
/// timed-out shard and are reported through [`Coverage`] instead.
/// Deadline, join cap and cancellation are monotone, so whatever
/// limit stopped the query still holds here.
pub(crate) fn exhausted_marker(
    budget: &Budget,
    joins: &AtomicU64,
    pairs_done: u64,
    pairs_skipped: u64,
) -> Option<BudgetExhausted> {
    if pairs_skipped == 0 {
        return None;
    }
    let reason = budget.exceeded(joins.load(Ordering::Relaxed))?;
    Some(BudgetExhausted {
        reason,
        pairs_done,
        pairs_skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_admits_everything() {
        let b = Budget::unlimited();
        assert_eq!(b.exceeded(0), None);
        assert_eq!(b.exceeded(u64::MAX), None);
    }

    #[test]
    fn max_joins_cap_trips() {
        let b = Budget::unlimited().with_max_joins(3);
        assert_eq!(b.exceeded(2), None);
        assert_eq!(b.exceeded(3), Some(ExhaustReason::MaxJoins));
        assert_eq!(b.exceeded(4), Some(ExhaustReason::MaxJoins));
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        assert_eq!(b.exceeded(0), Some(ExhaustReason::Deadline));
    }

    #[test]
    fn distant_deadline_does_not_trip() {
        let b = Budget::unlimited().with_deadline(Duration::from_secs(3600));
        assert_eq!(b.exceeded(0), None);
        // A duration beyond Instant's range saturates to "no deadline"
        // rather than wrapping into the past.
        let b = Budget::unlimited().with_deadline(Duration::MAX);
        assert_eq!(b.exceeded(0), None);
    }

    #[test]
    fn cancellation_dominates() {
        let b = Budget::unlimited().with_max_joins(10);
        assert_eq!(b.exceeded(0), None);
        b.cancel();
        assert_eq!(b.exceeded(0), Some(ExhaustReason::Cancelled));
        // The token is shared with clones handed to workers.
        let b2 = Budget::unlimited();
        b2.cancel_token().cancel();
        assert_eq!(b2.exceeded(0), Some(ExhaustReason::Cancelled));
    }

    #[test]
    fn partial_helpers() {
        let p = Partial::complete(7);
        assert!(p.is_complete());
        assert_eq!(p.into_value(), 7);
        let q = Partial {
            value: vec![1, 2],
            exhausted: Some(BudgetExhausted {
                reason: ExhaustReason::MaxJoins,
                pairs_done: 2,
                pairs_skipped: 5,
            }),
            coverage: None,
        };
        assert!(!q.is_complete());
        assert_eq!(q.exhausted.unwrap().pairs_skipped, 5);
        // A sharded query inside its budget but with a lost shard is
        // partial through the coverage channel alone.
        let r = Partial {
            value: 0,
            exhausted: None,
            coverage: Some(Coverage {
                dispatched: 2,
                completed: 1,
                failed: 1,
                units_skipped: 3,
                ..Coverage::default()
            }),
        };
        assert!(!r.is_complete());
        let full = Partial {
            value: 0,
            exhausted: None,
            coverage: Some(Coverage {
                dispatched: 2,
                completed: 2,
                units_screened: 6,
                ..Coverage::default()
            }),
        };
        assert!(full.is_complete());
    }

    #[test]
    fn marker_reports_reason_and_counts() {
        let budget = Budget::unlimited().with_max_joins(1);
        let joins = AtomicU64::new(1);
        let marker = exhausted_marker(&budget, &joins, 1, 4).expect("skipped work");
        assert_eq!(marker.reason, ExhaustReason::MaxJoins);
        assert_eq!(marker.pairs_done, 1);
        assert_eq!(marker.pairs_skipped, 4);
        assert_eq!(exhausted_marker(&budget, &joins, 5, 0), None);
    }

    #[test]
    fn reason_display() {
        assert_eq!(ExhaustReason::Cancelled.to_string(), "cancelled");
        assert_eq!(ExhaustReason::Deadline.to_string(), "deadline");
        assert_eq!(ExhaustReason::MaxJoins.to_string(), "max-joins");
    }
}
