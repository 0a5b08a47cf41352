//! Per-method circuit breaker (closed → open → half-open).
//!
//! Each of the eight CSJ methods gets its own breaker: a fault plan
//! that makes one exact method panic repeatedly must not take down the
//! approximate rungs the service degrades to. Failures are counted over
//! a *sliding window* of recent outcomes (not consecutive failures), so
//! a method failing 5 of its last 16 requests trips even when healthy
//! requests are interleaved.
//!
//! States:
//! * **Closed** — requests flow; outcomes feed the window.
//! * **Open** — requests are rejected (the service degrades them)
//!   until `cooldown` elapses.
//! * **Half-open** — up to `probes` concurrent probe requests are let
//!   through; `probes` successes close the breaker, any probe failure
//!   reopens it and restarts the cooldown.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

use csj_core::CsjMethod;

use crate::config::BreakerConfig;

csj_obs::label_enum! {
    /// Breaker state, per method.
    pub enum BreakerState {
        /// Healthy: requests flow.
        Closed => "closed",
        /// Tripped: requests rejected until the cooldown elapses.
        Open => "open",
        /// Cooling down: a bounded number of probes test the method.
        HalfOpen => "half_open",
    }
}

/// What the breaker says about one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Closed breaker: run normally.
    Allow,
    /// Half-open breaker: run as a probe (the outcome decides whether
    /// the breaker closes or reopens).
    Probe,
    /// Open breaker (or probe quota exhausted): do not run this method.
    Reject,
}

/// A state change, reported so the caller can count it in metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// The method whose breaker moved.
    pub method: CsjMethod,
    /// The state it moved to.
    pub to: BreakerState,
}

#[derive(Debug)]
struct Slot {
    state: BreakerState,
    /// Recent outcomes, `true` = failure, newest at the back.
    window: VecDeque<bool>,
    failures: usize,
    opened_at: Option<Instant>,
    probes_inflight: usize,
    probe_successes: usize,
}

impl Slot {
    fn new() -> Self {
        Self {
            state: BreakerState::Closed,
            window: VecDeque::new(),
            failures: 0,
            opened_at: None,
            probes_inflight: 0,
            probe_successes: 0,
        }
    }

    fn trip(&mut self) {
        self.state = BreakerState::Open;
        self.opened_at = Some(Instant::now());
        self.window.clear();
        self.failures = 0;
        self.probes_inflight = 0;
        self.probe_successes = 0;
    }
}

/// One breaker per CSJ method.
pub struct CircuitBreaker {
    config: BreakerConfig,
    slots: Vec<Mutex<Slot>>,
}

fn method_index(method: CsjMethod) -> usize {
    CsjMethod::ALL
        .iter()
        .position(|&m| m == method)
        .expect("every method is in ALL")
}

impl CircuitBreaker {
    /// A breaker bank with one slot per method.
    pub fn new(config: BreakerConfig) -> Self {
        let config = BreakerConfig {
            window: config.window.max(1),
            failure_threshold: config.failure_threshold.max(1),
            probes: config.probes.max(1),
            ..config
        };
        Self {
            config,
            slots: CsjMethod::ALL
                .iter()
                .map(|_| Mutex::new(Slot::new()))
                .collect(),
        }
    }

    fn slot(&self, method: CsjMethod) -> std::sync::MutexGuard<'_, Slot> {
        self.slots[method_index(method)]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Current state of one method's breaker (report-only: does not
    /// advance open → half-open; [`admit`](Self::admit) does that).
    pub fn state(&self, method: CsjMethod) -> BreakerState {
        self.slot(method).state
    }

    /// Gate one request. `Probe` admissions **must** be paired with a
    /// later [`record`](Self::record) call with `was_probe = true`, or
    /// the probe quota leaks.
    pub fn admit(&self, method: CsjMethod) -> (Admission, Option<Transition>) {
        let mut slot = self.slot(method);
        match slot.state {
            BreakerState::Closed => (Admission::Allow, None),
            BreakerState::Open => {
                let cooled = slot
                    .opened_at
                    .is_none_or(|at| at.elapsed() >= self.config.cooldown);
                if cooled {
                    slot.state = BreakerState::HalfOpen;
                    slot.probes_inflight = 1;
                    slot.probe_successes = 0;
                    (
                        Admission::Probe,
                        Some(Transition {
                            method,
                            to: BreakerState::HalfOpen,
                        }),
                    )
                } else {
                    (Admission::Reject, None)
                }
            }
            BreakerState::HalfOpen => {
                if slot.probes_inflight < self.config.probes {
                    slot.probes_inflight += 1;
                    (Admission::Probe, None)
                } else {
                    (Admission::Reject, None)
                }
            }
        }
    }

    /// Feed one outcome back. Returns the transition it caused, if any.
    pub fn record(&self, method: CsjMethod, was_probe: bool, failure: bool) -> Option<Transition> {
        let mut slot = self.slot(method);
        if was_probe {
            slot.probes_inflight = slot.probes_inflight.saturating_sub(1);
            if failure {
                slot.trip();
                return Some(Transition {
                    method,
                    to: BreakerState::Open,
                });
            }
            slot.probe_successes += 1;
            if slot.probe_successes >= self.config.probes {
                slot.state = BreakerState::Closed;
                slot.opened_at = None;
                slot.probes_inflight = 0;
                slot.probe_successes = 0;
                return Some(Transition {
                    method,
                    to: BreakerState::Closed,
                });
            }
            return None;
        }
        // Non-probe outcomes only matter while closed; a request that
        // was admitted before a trip must not perturb the open state.
        if slot.state != BreakerState::Closed {
            return None;
        }
        if slot.window.len() == self.config.window && slot.window.pop_front() == Some(true) {
            slot.failures = slot.failures.saturating_sub(1);
        }
        slot.window.push_back(failure);
        if failure {
            slot.failures += 1;
            if slot.failures >= self.config.failure_threshold {
                slot.trip();
                return Some(Transition {
                    method,
                    to: BreakerState::Open,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn config(cooldown: Duration) -> BreakerConfig {
        BreakerConfig {
            window: 8,
            failure_threshold: 3,
            cooldown,
            probes: 2,
        }
    }

    const M: CsjMethod = CsjMethod::ExMinMax;

    #[test]
    fn trips_after_threshold_failures_in_window() {
        let b = CircuitBreaker::new(config(Duration::from_secs(60)));
        assert_eq!(b.record(M, false, true), None);
        assert_eq!(b.record(M, false, false), None);
        assert_eq!(b.record(M, false, true), None);
        let t = b.record(M, false, true).expect("third failure trips");
        assert_eq!(t.to, BreakerState::Open);
        assert_eq!(b.state(M), BreakerState::Open);
        assert_eq!(b.admit(M).0, Admission::Reject);
        // Other methods are unaffected.
        assert_eq!(b.state(CsjMethod::ExBaseline), BreakerState::Closed);
        assert_eq!(b.admit(CsjMethod::ApMinMax).0, Admission::Allow);
    }

    #[test]
    fn window_slides_old_failures_out() {
        let b = CircuitBreaker::new(config(Duration::from_secs(60)));
        b.record(M, false, true);
        b.record(M, false, true);
        // Eight successes push both failures out of the window.
        for _ in 0..8 {
            assert_eq!(b.record(M, false, false), None);
        }
        b.record(M, false, true);
        assert_eq!(
            b.record(M, false, true),
            None,
            "only 2 failures in the window now"
        );
        assert_eq!(b.state(M), BreakerState::Closed);
    }

    #[test]
    fn cooldown_then_probes_close() {
        let b = CircuitBreaker::new(config(Duration::ZERO));
        for _ in 0..3 {
            b.record(M, false, true);
        }
        assert_eq!(b.state(M), BreakerState::Open);
        // Zero cooldown: first admit transitions to half-open as a probe.
        let (adm, tr) = b.admit(M);
        assert_eq!(adm, Admission::Probe);
        assert_eq!(tr.unwrap().to, BreakerState::HalfOpen);
        // Second concurrent probe allowed, third rejected (probes = 2).
        assert_eq!(b.admit(M).0, Admission::Probe);
        assert_eq!(b.admit(M).0, Admission::Reject);
        // Two probe successes close the breaker.
        assert_eq!(b.record(M, true, false), None);
        let t = b.record(M, true, false).unwrap();
        assert_eq!(t.to, BreakerState::Closed);
        assert_eq!(b.admit(M).0, Admission::Allow);
    }

    #[test]
    fn probe_failure_reopens() {
        let b = CircuitBreaker::new(config(Duration::ZERO));
        for _ in 0..3 {
            b.record(M, false, true);
        }
        assert_eq!(b.admit(M).0, Admission::Probe);
        let t = b.record(M, true, true).unwrap();
        assert_eq!(t.to, BreakerState::Open);
        // Freshly reopened with zero cooldown: next admit probes again.
        assert_eq!(b.admit(M).0, Admission::Probe);
    }

    #[test]
    fn straggler_outcomes_do_not_perturb_open_state() {
        let b = CircuitBreaker::new(config(Duration::from_secs(60)));
        for _ in 0..3 {
            b.record(M, false, true);
        }
        assert_eq!(b.state(M), BreakerState::Open);
        // A request admitted before the trip finishes now: ignored.
        assert_eq!(b.record(M, false, false), None);
        assert_eq!(b.state(M), BreakerState::Open);
    }
}
