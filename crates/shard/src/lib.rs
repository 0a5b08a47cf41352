//! # csj-shard — one-shot shard executor
//!
//! Runs one closure per shard on a small worker pool (the calling
//! thread included). The contract (DESIGN.md §17):
//!
//! * workers claim shards in ascending index order, and each shard's
//!   closure runs exactly once — shards are deterministic joins, so a
//!   second run would only redo the same work on the same cores;
//! * every run sits inside its own `catch_unwind` boundary — a panicking
//!   shard resolves to a typed [`ShardOutcome`], it never takes down
//!   siblings or the process;
//! * every shard runs against the query's own [`CancelToken`]: once it
//!   trips, running closures stop at their next poll (every engine
//!   closure polls it, via the budget machinery) and shards not yet
//!   started resolve `Cancelled`.
//!
//! The executor knows nothing about joins or communities: the engine
//! plans the skew-aware layout (`csj_core::plan_shards`), hands over a
//! closure indexed by shard id, and classifies the returned
//! [`ShardReport`]s into a `csj_core::Coverage` record.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use csj_core::CancelToken;

#[cfg(feature = "fault-injection")]
pub mod fault;
mod placement;
#[cfg(feature = "fault-injection")]
pub use fault::ShardFaultPlan;

/// How one shard resolved. Only `Completed` carries a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardOutcome {
    /// The closure returned a value (a partial one, if the query was
    /// cancelled while it ran).
    Completed,
    /// The closure panicked, or its worker died before running it.
    Panicked,
    /// The closure never started: the query was cancelled first.
    Cancelled,
}

impl ShardOutcome {
    /// Stable metric/span label.
    pub fn label(&self) -> &'static str {
        match self {
            ShardOutcome::Completed => "completed",
            ShardOutcome::Panicked => "panicked",
            ShardOutcome::Cancelled => "cancelled",
        }
    }
}

/// What the executor hands back for one shard.
#[derive(Debug)]
pub struct ShardReport<R> {
    /// Shard id (index into the planned layout).
    pub shard: usize,
    pub outcome: ShardOutcome,
    /// The closure's value, if it returned one.
    pub value: Option<R>,
    /// Payload of the panic (or the injector's kill note), for spans
    /// and error reporting.
    pub panic_message: Option<String>,
    /// How long the closure ran; zero if it never started.
    pub elapsed: Duration,
}

/// Knobs for the sharded execution layer. Carried on `EngineConfig`;
/// the pool size itself is the engine's `threads` knob (shards share
/// the one parallelism budget — see the oversubscription note there).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShardConfig {
    /// Ignored: every multi-pair engine query runs on the shard
    /// executor. The field remains so configurations that still set it
    /// (such as the `perfbench` package's) keep compiling; it goes once
    /// they stop.
    #[deprecated(note = "ignored: every multi-pair query runs on the shard executor")]
    pub enabled: bool,
    /// Shard count; 0 means auto (the engine uses its thread count).
    pub shards: usize,
}

/// The executor. Construct one per query; `run` blocks the calling
/// thread (which works as one of the pool's workers) until every shard
/// has resolved.
pub struct ShardExecutor {
    threads: usize,
    #[cfg(feature = "fault-injection")]
    faults: Option<std::sync::Arc<ShardFaultPlan>>,
}

impl ShardExecutor {
    /// An executor with a pool of `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        ShardExecutor {
            threads: threads.max(1),
            #[cfg(feature = "fault-injection")]
            faults: None,
        }
    }

    /// Attach a fault plan for chaos testing; kills/stalls/panics apply
    /// to the next runs of the shards they name.
    #[cfg(feature = "fault-injection")]
    pub fn with_faults(mut self, plan: Option<std::sync::Arc<ShardFaultPlan>>) -> Self {
        self.faults = plan;
        self
    }

    /// Run `f` once for each shard in `0..shard_count`. Returns one
    /// report per shard, indexed by shard id. `cancel` is the query's
    /// token (the budget's): `f` is expected to poll it, and a shard
    /// claimed after it tripped resolves `Cancelled` without running.
    ///
    /// Workers claim shards from one counter, lowest index first. The
    /// calling thread is worker 0; workers `1..` are spawned for this
    /// run and joined before it returns. Each spawned worker `k` moves
    /// itself, before its first shard, to the `k`-th CPU its affinity
    /// mask allows after the caller's, and keeps the mask it had: it is
    /// placed, not pinned (DESIGN.md §17, "Worker placement"). A
    /// one-worker run spawns nothing.
    pub fn run<R, F>(&self, shard_count: usize, cancel: &CancelToken, f: F) -> Vec<ShardReport<R>>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        // Relaxed: the counter only hands out indices; the reports come
        // back through the scope's joins.
        let next = AtomicUsize::new(0);
        let work = || {
            let mut reports = Vec::new();
            loop {
                let shard = next.fetch_add(1, Ordering::Relaxed);
                if shard >= shard_count {
                    return reports;
                }
                reports.push(self.execute(shard, cancel, &f));
            }
        };
        let workers = self.threads.min(shard_count).max(1);
        let home = (workers > 1).then(placement::current_cpu).flatten();

        let mut reports = std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..workers)
                .map(|k| {
                    let work = &work;
                    scope.spawn(move || {
                        if let Some(home) = home {
                            placement::place_after(home, k);
                        }
                        work()
                    })
                })
                .collect();
            // The calling thread is one of the workers, so a one-worker
            // run keeps every shard on the caller's thread (and its
            // allocator arena) as an unsharded loop would.
            let mut reports = work();
            for worker in spawned {
                // `execute` contains every shard's panic, so a worker
                // never unwinds.
                reports.extend(worker.join().expect("shard worker unwound"));
            }
            reports
        });
        reports.sort_unstable_by_key(|r| r.shard);
        reports
    }

    /// Resolve one claimed shard: `Cancelled` if the query was cancelled
    /// before it started; otherwise the fault injector's kill, stall or
    /// panic first (chaos builds only), then `f` inside its
    /// `catch_unwind` boundary.
    fn execute<R, F>(&self, shard: usize, cancel: &CancelToken, f: &F) -> ShardReport<R>
    where
        F: Fn(usize) -> R,
    {
        let mut report = ShardReport {
            shard,
            outcome: ShardOutcome::Cancelled,
            value: None,
            panic_message: None,
            elapsed: Duration::ZERO,
        };
        if cancel.is_cancelled() {
            return report;
        }

        #[cfg(feature = "fault-injection")]
        if let Some(plan) = &self.faults {
            if plan.take_kill(shard) {
                // The worker "dies" before the closure runs: the shard
                // is lost without a value, like on a crashed remote
                // worker.
                report.outcome = ShardOutcome::Panicked;
                report.panic_message =
                    Some(format!("shard {shard} worker killed by fault injector"));
                return report;
            }
            if let Some(stall) = plan.take_stall(shard) {
                // Chunked, so the query's cancel wakes the stalled shard
                // early.
                let stall_start = Instant::now();
                while stall_start.elapsed() < stall && !cancel.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }

        #[cfg(feature = "fault-injection")]
        let inject_panic = self
            .faults
            .as_ref()
            .is_some_and(|plan| plan.take_panic(shard));
        #[cfg(not(feature = "fault-injection"))]
        let inject_panic = false;

        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected shard panic (shard {shard})");
            }
            f(shard)
        }));
        report.elapsed = t0.elapsed();
        match out {
            Ok(value) => {
                report.outcome = ShardOutcome::Completed;
                report.value = Some(value);
            }
            Err(payload) => {
                report.outcome = ShardOutcome::Panicked;
                report.panic_message = Some(panic_message(payload));
            }
        }
        report
    }
}

/// Render a panic payload like the engine does: `&str` and `String`
/// payloads verbatim, anything else opaque.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_shards_complete() {
        let ex = ShardExecutor::new(3);
        let reports = ex.run(5, &CancelToken::new(), |shard| shard * 10);
        assert_eq!(reports.len(), 5);
        for (s, r) in reports.iter().enumerate() {
            assert_eq!(r.shard, s);
            assert_eq!(r.outcome, ShardOutcome::Completed);
            assert_eq!(r.value, Some(s * 10));
        }
    }

    #[test]
    fn empty_dispatch_is_empty() {
        let reports = ShardExecutor::new(2).run(0, &CancelToken::new(), |_shard| 0u32);
        assert!(reports.is_empty());
    }

    #[test]
    fn every_shard_runs_exactly_once() {
        // A panicked shard is not run again, and neither is a killed
        // one (chaos builds); every other shard runs once.
        for threads in [1, 2, 4] {
            for shards in [1usize, 3, 8] {
                let panicking = shards - 1;
                let runs: Vec<AtomicUsize> = (0..shards).map(|_| AtomicUsize::new(0)).collect();
                let ex = ShardExecutor::new(threads);
                #[cfg(feature = "fault-injection")]
                let killed = (shards > 1).then_some(0);
                #[cfg(feature = "fault-injection")]
                let ex = ex.with_faults(
                    killed.map(|s| std::sync::Arc::new(ShardFaultPlan::new().kill(s, 1))),
                );
                #[cfg(not(feature = "fault-injection"))]
                let killed: Option<usize> = None;
                let reports = ex.run(shards, &CancelToken::new(), |shard| {
                    runs[shard].fetch_add(1, Ordering::Relaxed);
                    if shard == panicking {
                        panic!("poisoned shard {shard}");
                    }
                    shard
                });
                assert_eq!(reports.len(), shards);
                for (s, r) in reports.iter().enumerate() {
                    let case = format!("threads={threads} shards={shards} shard={s}");
                    let lost = s == panicking || Some(s) == killed;
                    let expected_runs = usize::from(Some(s) != killed);
                    assert_eq!(r.shard, s, "{case}");
                    assert_eq!(runs[s].load(Ordering::Relaxed), expected_runs, "{case}");
                    if lost {
                        assert_eq!(r.outcome, ShardOutcome::Panicked, "{case}");
                        assert!(r.value.is_none(), "{case}");
                    } else {
                        assert_eq!(r.outcome, ShardOutcome::Completed, "{case}");
                        assert_eq!(r.value, Some(s), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn panic_resolves_panicked_with_payload() {
        let reports = ShardExecutor::new(2).run(2, &CancelToken::new(), |shard| {
            if shard == 0 {
                panic!("always poisoned (shard {shard})");
            }
            7u32
        });
        assert_eq!(reports[0].outcome, ShardOutcome::Panicked);
        assert!(reports[0].value.is_none());
        let msg = reports[0].panic_message.as_deref().unwrap();
        assert!(msg.contains("always poisoned"), "got: {msg}");
        assert_eq!(reports[1].outcome, ShardOutcome::Completed);
    }

    #[test]
    fn global_cancel_before_start_resolves_cancelled() {
        let global = CancelToken::new();
        global.cancel();
        let reports = ShardExecutor::new(2).run(4, &global, |shard| shard);
        for r in &reports {
            assert_eq!(r.outcome, ShardOutcome::Cancelled, "shard {}", r.shard);
            assert!(r.value.is_none());
        }
    }

    #[test]
    fn one_worker_runs_everything_on_the_caller() {
        // A panicked shard stays lost, and no thread is spawned.
        let caller = std::thread::current().id();
        let reports = ShardExecutor::new(1).run(3, &CancelToken::new(), |shard| {
            assert_eq!(std::thread::current().id(), caller);
            if shard == 1 {
                panic!("poisoned shard 1");
            }
            shard
        });
        assert_eq!(reports[0].outcome, ShardOutcome::Completed);
        assert_eq!(reports[1].outcome, ShardOutcome::Panicked);
        assert_eq!(reports[2].outcome, ShardOutcome::Completed);
        assert_eq!(reports[2].value, Some(2));
    }

    #[test]
    fn running_attempts_see_a_global_cancel() {
        // Shard 1 cancels the query while shard 0 runs on the other
        // worker: shard 0 sees it at its next poll and still returns.
        let global = CancelToken::new();
        let reports = ShardExecutor::new(2).run(2, &global, |shard| {
            if shard == 1 {
                global.cancel();
                return true;
            }
            let start = Instant::now();
            while !global.is_cancelled() && start.elapsed() < Duration::from_secs(10) {
                std::thread::sleep(Duration::from_millis(1));
            }
            global.is_cancelled()
        });
        assert_eq!(reports[0].value, Some(true), "{reports:?}");
        assert_eq!(reports[1].value, Some(true), "{reports:?}");
    }

    #[test]
    fn two_workers_complete_on_a_one_cpu_mask() {
        // Placement has nowhere to move a worker whose inherited mask
        // holds one CPU; the run still completes. The mask is this test
        // thread's own, so tests running beside it keep theirs.
        let Some(before) = placement::two_cpu_mask() else {
            eprintln!("skipped: fewer than two CPUs allowed");
            return;
        };
        let only = placement::current_cpu().expect("checked by two_cpu_mask");
        assert!(placement::set_affinity(&placement::CpuSet::single(only)));
        let reports = ShardExecutor::new(2).run(4, &CancelToken::new(), |shard| shard);
        assert!(placement::set_affinity(&before));
        for (s, r) in reports.iter().enumerate() {
            assert_eq!(r.outcome, ShardOutcome::Completed, "shard {s}");
            assert_eq!(r.value, Some(s));
        }
    }

    #[test]
    fn one_worker_sees_a_global_cancel_mid_attempt() {
        // Later shards never start.
        let global = CancelToken::new();
        let reports = ShardExecutor::new(1).run(2, &global, |_shard| {
            global.cancel();
            global.is_cancelled()
        });
        assert_eq!(reports[0].outcome, ShardOutcome::Completed);
        assert_eq!(reports[0].value, Some(true));
        assert_eq!(reports[1].outcome, ShardOutcome::Cancelled);
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(ShardOutcome::Completed.label(), "completed");
        assert_eq!(ShardOutcome::Panicked.label(), "panicked");
        assert_eq!(ShardOutcome::Cancelled.label(), "cancelled");
    }
}
