//! Cooperative cancellation for long-running joins.
//!
//! A [`CancelToken`] is a cheap, clonable flag shared between the caller
//! and a running join. The join loops poll it at per-row granularity and
//! bail out early once it trips, reporting the truncation through
//! `JoinOutcome::cancelled` rather than an error: the pairs gathered so
//! far still form a valid (partial) one-to-one matching, so callers can
//! degrade gracefully instead of discarding work. Every shard of a
//! sharded query polls the query's one token, so polling is a single
//! relaxed load.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Shared cancellation flag. Clones observe the same flag; once
/// [`cancel`](CancelToken::cancel) is called the token stays cancelled
/// forever (there is no reset — create a fresh token per query instead).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trip the flag. Safe to call from any thread, any number of times.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the flag has been tripped.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Two tokens are equal when they share the same flag — a clone equals
/// its source, while two independently created tokens never compare
/// equal even if neither is cancelled.
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.flag, &other.flag)
    }
}

impl Eq for CancelToken {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_clear_and_trips_permanently() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
        t.cancel(); // idempotent
        assert!(t.is_cancelled());
    }

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn equality_is_identity() {
        let t = CancelToken::new();
        let c = t.clone();
        assert_eq!(t, c);
        assert_ne!(t, CancelToken::new());
    }

    #[test]
    fn cancels_across_threads() {
        let t = CancelToken::new();
        let c = t.clone();
        std::thread::spawn(move || c.cancel()).join().unwrap();
        assert!(t.is_cancelled());
    }
}
