//! Shard-boundary fault injector (cfg-gated, chaos testing only).
//!
//! Mirrors the engine's per-join `FaultPlan`, but targets the *shard*
//! boundary: a kill makes a shard vanish before its closure runs (a
//! crashed worker), a stall delays a shard before it runs (a straggler;
//! it wakes early once the query is cancelled), a panic blows up inside
//! the shard's `catch_unwind` boundary. Each dispatch runs a shard once
//! and consumes one charge, so `kill(s, 1)` loses shard `s` of the next
//! query only, while `kill(s, u32::MAX)` loses it in every query.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

/// A recipe of shard-level faults. Build with the fluent methods, then
/// hand to the engine (`CsjEngine::inject_shard_faults`) or directly to
/// `ShardExecutor::with_faults`.
#[derive(Debug, Default)]
pub struct ShardFaultPlan {
    kills: Mutex<HashMap<usize, u32>>,
    stalls: Mutex<HashMap<usize, (Duration, u32)>>,
    panics: Mutex<HashMap<usize, u32>>,
}

impl ShardFaultPlan {
    pub fn new() -> Self {
        Self::default()
    }

    /// The next `times` runs of `shard` die before the closure starts.
    pub fn kill(self, shard: usize, times: u32) -> Self {
        self.kills
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(shard, times);
        self
    }

    /// The next `times` runs of `shard` stall for `delay` before the
    /// closure starts (they still poll the query's token while stalled).
    pub fn stall(self, shard: usize, delay: Duration, times: u32) -> Self {
        self.stalls
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(shard, (delay, times));
        self
    }

    /// The next `times` runs of `shard` panic inside the shard's
    /// `catch_unwind` boundary.
    pub fn panic_on(self, shard: usize, times: u32) -> Self {
        self.panics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(shard, times);
        self
    }

    /// Consume one kill charge for `shard`, if any remains.
    pub(crate) fn take_kill(&self, shard: usize) -> bool {
        take_count(&self.kills, shard)
    }

    /// Consume one stall charge for `shard`, if any remains.
    pub(crate) fn take_stall(&self, shard: usize) -> Option<Duration> {
        let mut stalls = self.stalls.lock().unwrap_or_else(|e| e.into_inner());
        match stalls.get_mut(&shard) {
            Some((delay, times)) if *times > 0 => {
                *times -= 1;
                Some(*delay)
            }
            _ => None,
        }
    }

    /// Consume one panic charge for `shard`, if any remains.
    pub(crate) fn take_panic(&self, shard: usize) -> bool {
        take_count(&self.panics, shard)
    }
}

fn take_count(map: &Mutex<HashMap<usize, u32>>, shard: usize) -> bool {
    let mut map = map.lock().unwrap_or_else(|e| e.into_inner());
    match map.get_mut(&shard) {
        Some(times) if *times > 0 => {
            *times -= 1;
            true
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ShardExecutor, ShardOutcome};
    use csj_core::CancelToken;
    use std::sync::Arc;

    #[test]
    fn charges_are_consumed_one_run_at_a_time() {
        let plan = ShardFaultPlan::new()
            .kill(0, 2)
            .stall(1, Duration::from_millis(1), 1)
            .panic_on(2, 1);
        assert!(plan.take_kill(0));
        assert!(plan.take_kill(0));
        assert!(!plan.take_kill(0));
        assert!(!plan.take_kill(5));
        assert_eq!(plan.take_stall(1), Some(Duration::from_millis(1)));
        assert_eq!(plan.take_stall(1), None);
        assert!(plan.take_panic(2));
        assert!(!plan.take_panic(2));
    }

    #[test]
    fn one_kill_charge_loses_one_run_of_the_shard() {
        let plan = Arc::new(ShardFaultPlan::new().kill(1, 1));
        let ex = ShardExecutor::new(2).with_faults(Some(plan));
        let first = ex.run(3, &CancelToken::new(), |shard| shard * 2);
        assert_eq!(first[1].outcome, ShardOutcome::Panicked);
        assert!(first[1].value.is_none());
        assert_eq!(first[0].value, Some(0));
        assert_eq!(first[2].value, Some(4));
        let second = ex.run(3, &CancelToken::new(), |shard| shard * 2);
        assert_eq!(second[1].outcome, ShardOutcome::Completed);
        assert_eq!(second[1].value, Some(2));
    }

    #[test]
    fn persistent_kill_fails_the_shard_only() {
        let plan = Arc::new(ShardFaultPlan::new().kill(0, u32::MAX));
        let ex = ShardExecutor::new(2).with_faults(Some(plan));
        let reports = ex.run(2, &CancelToken::new(), |shard| shard);
        assert_eq!(reports[0].outcome, ShardOutcome::Panicked);
        assert!(reports[0].value.is_none());
        let msg = reports[0].panic_message.as_deref().unwrap();
        assert!(msg.contains("killed by fault injector"), "got: {msg}");
        assert_eq!(reports[1].outcome, ShardOutcome::Completed);
        assert_eq!(reports[1].value, Some(1));
    }

    #[test]
    fn injected_panic_is_contained() {
        let plan = Arc::new(ShardFaultPlan::new().panic_on(0, u32::MAX));
        let ex = ShardExecutor::new(2).with_faults(Some(plan));
        let reports = ex.run(2, &CancelToken::new(), |shard| shard);
        assert_eq!(reports[0].outcome, ShardOutcome::Panicked);
        let msg = reports[0].panic_message.as_deref().unwrap();
        assert!(msg.contains("injected shard panic"), "got: {msg}");
    }

    #[test]
    fn stalled_shard_wakes_on_query_cancel() {
        // Shard 1 cancels the query while shard 0 sits in a long stall:
        // the stall ends at the cancel instead of running out. (Should
        // shard 1 win the race to the cancel before shard 0 starts,
        // shard 0 resolves `Cancelled` without stalling.)
        let plan = Arc::new(ShardFaultPlan::new().stall(0, Duration::from_secs(30), 1));
        let ex = ShardExecutor::new(2).with_faults(Some(plan));
        let global = CancelToken::new();
        let start = std::time::Instant::now();
        let reports = ex.run(2, &global, |shard| {
            if shard == 1 {
                std::thread::sleep(Duration::from_millis(20));
                global.cancel();
            }
            shard + 100
        });
        assert!(start.elapsed() < Duration::from_secs(20), "{reports:?}");
        assert_ne!(reports[0].outcome, ShardOutcome::Panicked, "{reports:?}");
        assert_eq!(reports[1].value, Some(101));
    }
}
