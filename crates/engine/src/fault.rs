//! Deterministic fault injection for chaos-testing the engine.
//!
//! A test hook, always compiled and inert until a test installs a plan
//! with `CsjEngine::inject_faults`: a [`FaultPlan`] tells the engine to
//! panic, error, or stall whenever a join touches a specific community
//! handle, so tests can assert that one poisoned candidate never takes
//! down the rest of a query. The hook fires inside the engine's
//! per-candidate isolation boundary — exactly where a real bug in a join
//! kernel would surface.
//!
//! ```no_run
//! # use csj_engine::{CsjEngine, EngineConfig};
//! # use csj_engine::fault::FaultPlan;
//! # let mut engine = CsjEngine::new(2, EngineConfig::new(1));
//! engine.inject_faults(FaultPlan::new().panic_on(2).slow_on(3, std::time::Duration::from_millis(50)));
//! // ... queries now hit the injected faults ...
//! engine.clear_faults();
//! ```

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::error::EngineError;

/// Which faults to inject, keyed by the raw id of the community handle
/// a join is about to touch. A handle may appear in several sets; slow
/// applies first, then error, then panic (bounded panic budgets before
/// unconditional panics).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    panic_on: HashSet<u32>,
    /// Transient panic budgets: the handle panics while its counter is
    /// positive, then behaves normally. `Arc` so clones of the plan
    /// (and the engine's installed copy) share one budget — this is
    /// what lets a test observe a fault that *heals*.
    panic_budget: HashMap<u32, Arc<AtomicU64>>,
    error_on: HashSet<u32>,
    slow_on: HashMap<u32, Duration>,
}

impl FaultPlan {
    /// An empty plan: no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Panic (as a buggy join kernel would) when a join touches `handle`.
    pub fn panic_on(mut self, handle: u32) -> Self {
        self.panic_on.insert(handle);
        self
    }

    /// Panic on the first `n` joins touching `handle`, then heal: later
    /// joins run normally. The budget is shared across clones of the
    /// plan, so installing the plan into an engine does not reset it.
    /// This models a transient fault: the handle is broken for `n`
    /// joins, then healed.
    pub fn panic_n_times(mut self, handle: u32, n: u64) -> Self {
        self.panic_budget
            .insert(handle, Arc::new(AtomicU64::new(n)));
        self
    }

    /// Return [`EngineError::Faulted`] when a join touches `handle`.
    pub fn error_on(mut self, handle: u32) -> Self {
        self.error_on.insert(handle);
        self
    }

    /// Sleep for `delay` before any join touching `handle`, simulating a
    /// pathologically slow candidate for deadline tests.
    pub fn slow_on(mut self, handle: u32, delay: Duration) -> Self {
        self.slow_on.insert(handle, delay);
        self
    }

    /// Fire the faults registered for `handle`. Called by the engine
    /// just before each join, inside its panic-isolation boundary.
    pub(crate) fn apply(&self, handle: u32) -> Result<(), EngineError> {
        if let Some(delay) = self.slow_on.get(&handle) {
            std::thread::sleep(*delay);
        }
        if self.error_on.contains(&handle) {
            return Err(EngineError::Faulted { handle });
        }
        if let Some(budget) = self.panic_budget.get(&handle) {
            // Decrement-if-positive; the CAS loop keeps concurrent
            // workers from panicking more than `n` times in total.
            let mut left = budget.load(Ordering::Relaxed);
            while left > 0 {
                match budget.compare_exchange_weak(
                    left,
                    left - 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => panic!("injected fault: transient panic on community handle {handle}"),
                    Err(now) => left = now,
                }
            }
        }
        if self.panic_on.contains(&handle) {
            panic!("injected fault: panic on community handle {handle}");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        assert_eq!(FaultPlan::new().apply(7), Ok(()));
    }

    #[test]
    fn error_fault_names_the_handle() {
        let plan = FaultPlan::new().error_on(3);
        assert_eq!(plan.apply(3), Err(EngineError::Faulted { handle: 3 }));
        assert_eq!(plan.apply(4), Ok(()));
    }

    #[test]
    fn panic_fault_panics() {
        let plan = FaultPlan::new().panic_on(5);
        let caught = std::panic::catch_unwind(|| plan.apply(5));
        assert!(caught.is_err());
    }

    #[test]
    fn panic_budget_heals_after_n_fires() {
        let plan = FaultPlan::new().panic_n_times(2, 3);
        let installed = plan.clone(); // engines get a clone; budget is shared
        for _ in 0..3 {
            assert!(std::panic::catch_unwind(|| installed.apply(2)).is_err());
        }
        assert_eq!(installed.apply(2), Ok(()), "budget spent: handle healed");
        assert_eq!(plan.apply(2), Ok(()), "clones share the budget");
    }

    #[test]
    fn slow_fault_delays() {
        let plan = FaultPlan::new().slow_on(1, Duration::from_millis(20));
        let start = std::time::Instant::now();
        assert_eq!(plan.apply(1), Ok(()));
        assert!(start.elapsed() >= Duration::from_millis(20));
    }
}
