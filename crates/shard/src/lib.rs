//! # csj-shard — supervised shard executor
//!
//! Runs one closure per shard on a small work-stealing worker pool (the
//! calling thread included) whose workers supervise every attempt
//! between and after their own (a ticker thread joins them only to
//! enforce shard deadlines). The robustness contract (DESIGN.md §17):
//!
//! * every attempt runs inside its own `catch_unwind` boundary — a
//!   panicking shard resolves to a typed [`ShardOutcome`], it never
//!   takes down siblings or the process;
//! * every attempt gets its own [`CancelToken`] slice, a child of the
//!   query's token, so supervision can time out one shard
//!   ([`ShardConfig::shard_deadline`]) or cancel the losers of a hedge
//!   race without touching the rest;
//! * straggler shards past a latency quantile of their completed peers
//!   (or whose first attempt died) get **one** hedged re-dispatch:
//!   first result wins, the loser's token is tripped;
//! * the executor never blocks forever on a cooperative workload: shard
//!   closures are expected to poll `ctx.cancel` (every engine closure
//!   does, via the budget machinery) and return a partial value.
//!
//! The executor knows nothing about joins or communities: the engine
//! plans the skew-aware layout (`csj_core::plan_shards`), hands over a
//! closure indexed by shard id, and classifies the returned
//! [`ShardReport`]s into a `csj_core::Coverage` record.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use csj_core::CancelToken;

#[cfg(feature = "fault-injection")]
pub mod fault;
mod placement;
#[cfg(feature = "fault-injection")]
pub use fault::ShardFaultPlan;

/// How one shard resolved. `Hedged` and `TimedOut` can still carry a
/// value (the hedge winner's, or the partial result a timed-out shard
/// returned when its token was tripped); `Panicked` and `Cancelled`
/// never do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardOutcome {
    /// First attempt returned a value within its slice.
    Completed,
    /// The shard's deadline slice expired; any value it returned after
    /// its token was tripped is partial.
    TimedOut,
    /// Every attempt panicked or its worker died; no value.
    Panicked,
    /// The hedged re-dispatch won the race (first attempt was slow or
    /// dead); the value is the hedge's.
    Hedged,
    /// No attempt ever started — the query was cancelled first.
    Cancelled,
}

impl ShardOutcome {
    /// Stable metric/span label.
    pub fn label(&self) -> &'static str {
        match self {
            ShardOutcome::Completed => "completed",
            ShardOutcome::TimedOut => "timed_out",
            ShardOutcome::Panicked => "panicked",
            ShardOutcome::Hedged => "hedged",
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
    /// The winning attempt's value, if any attempt produced one.
    pub value: Option<R>,
    /// Payload of the last panicking attempt (or the injector's kill
    /// note), for spans and error reporting.
    pub panic_message: Option<String>,
    /// Attempts dispatched for this shard (1, or 2 when hedged).
    pub attempts: u32,
    /// Winning attempt's run time, or the longest failed attempt's.
    pub elapsed: Duration,
}

impl<R> ShardReport<R> {
    /// Whether this shard contributed a value to the merge.
    pub fn succeeded(&self) -> bool {
        self.value.is_some()
    }
}

/// Per-attempt context passed to the shard closure. The closure MUST
/// poll `cancel` at work-unit granularity and return early (with a
/// partial value) once tripped — that is what makes deadline slices,
/// loser cancellation, and global cancellation effective.
#[derive(Debug, Clone)]
pub struct ShardCtx {
    /// This attempt's cancellation slice, a child of the query's token:
    /// tripped on shard deadline or hedge-race loss, and cancelled
    /// whenever the query is.
    pub cancel: CancelToken,
    /// Shard id the attempt is computing.
    pub shard: usize,
    /// 0 for the primary attempt, 1 for the hedge.
    pub attempt: u32,
}

/// Knobs for the sharded execution layer. Carried on `EngineConfig`;
/// the pool size itself is the engine's `threads` knob (shards share
/// the one parallelism budget — see the oversubscription note there).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardConfig {
    /// Ignored: every multi-pair engine query runs on the shard
    /// executor. The field remains so configurations that still set it
    /// (such as the `perfbench` package's) keep compiling; it goes once
    /// they stop.
    #[deprecated(note = "ignored: every multi-pair query runs on the shard executor")]
    pub enabled: bool,
    /// Shard count; 0 means auto (the engine uses its thread count).
    pub shards: usize,
    /// Per-shard deadline slice. A shard past it has its attempt tokens
    /// tripped and resolves `TimedOut` (its partial value still merges).
    pub shard_deadline: Option<Duration>,
    /// Never hedge a shard before it has run this long, regardless of
    /// how fast its peers were.
    pub hedge_floor: Duration,
    /// Completed attempts required before the quantile is trusted.
    pub hedge_min_samples: usize,
    /// A shard is a straggler once it has run `factor ×` the 95th
    /// percentile of its completed peers' latencies.
    pub hedge_factor: f64,
}

impl Default for ShardConfig {
    #[allow(deprecated)]
    fn default() -> Self {
        ShardConfig {
            enabled: false,
            shards: 0,
            shard_deadline: None,
            hedge_floor: Duration::from_millis(10),
            hedge_min_samples: 3,
            hedge_factor: 3.0,
        }
    }
}

/// How one dispatched attempt ended.
#[derive(Debug)]
enum AttemptEnd {
    /// Returned a value (possibly partial, if its token was tripped).
    Ok(Duration),
    /// Panicked inside the `catch_unwind` boundary.
    Panicked(String, Duration),
    /// Worker died before running the closure (fault injector's kill).
    #[cfg_attr(not(feature = "fault-injection"), allow(dead_code))]
    Killed(String),
    /// Popped but never run: shard already resolved, or global cancel.
    Skipped,
}

#[derive(Debug)]
struct Attempt {
    token: CancelToken,
    started: Option<Instant>,
    done: Option<AttemptEnd>,
}

impl Attempt {
    /// A queued attempt whose token is a child of the query's `global`
    /// one: it sees a global cancel at once, and tripping it (deadline
    /// slice, lost hedge race) stops this attempt alone.
    fn new(global: &CancelToken) -> Self {
        Attempt {
            token: global.child(),
            started: None,
            done: None,
        }
    }
}

struct ShardState<R> {
    attempts: Vec<Attempt>,
    /// Winning `(attempt, value)` — first result wins.
    value: Option<(u32, R)>,
    winner_elapsed: Option<Duration>,
    timed_out: bool,
    hedged: bool,
    first_start: Option<Instant>,
    resolved: Option<ShardOutcome>,
}

/// Everything the pool's threads share, under one lock.
struct Inner<R> {
    /// Pending `(shard, attempt)` tasks.
    queue: VecDeque<(usize, u32)>,
    states: Vec<ShardState<R>>,
    /// Every shard has resolved; threads leave.
    finished: bool,
}

struct Pool<R> {
    inner: Mutex<Inner<R>>,
    /// Signalled when an attempt ends, a hedge is queued or the run
    /// finishes; idle workers and the deadline ticker park on it.
    changed: Condvar,
}

impl<R> Pool<R> {
    fn lock(&self) -> MutexGuard<'_, Inner<R>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// How often the deadline ticker checks the shards' deadline slices.
const DEADLINE_TICK: Duration = Duration::from_millis(1);

/// Latency quantile of completed attempts that defines a straggler.
const HEDGE_QUANTILE: f64 = 0.95;

/// The supervised executor. Construct one per query from the engine's
/// config; `run` blocks the calling thread (which works as one of the
/// pool's workers) until every shard has resolved.
pub struct ShardExecutor {
    cfg: ShardConfig,
    threads: usize,
    #[cfg(feature = "fault-injection")]
    faults: Option<std::sync::Arc<ShardFaultPlan>>,
}

impl ShardExecutor {
    pub fn new(cfg: ShardConfig, threads: usize) -> Self {
        ShardExecutor {
            cfg,
            threads: threads.max(1),
            #[cfg(feature = "fault-injection")]
            faults: None,
        }
    }

    /// Attach a fault plan for chaos testing; kills/stalls/panics apply
    /// to the next matching attempts.
    #[cfg(feature = "fault-injection")]
    pub fn with_faults(mut self, plan: Option<std::sync::Arc<ShardFaultPlan>>) -> Self {
        self.faults = plan;
        self
    }

    /// Run `f` once per shard in `0..shard_count` under supervision.
    /// Returns one report per shard, indexed by shard id. `global` is
    /// the query-wide cancellation token (the budget's): once tripped,
    /// running attempts see it through their own tokens and unstarted
    /// shards resolve `Cancelled`.
    ///
    /// The workers supervise themselves: each runs a supervision pass
    /// after every attempt it ends and while it is idle (which is when a
    /// straggler's hedge can run). Only a shard deadline needs watching
    /// while every worker is busy, so only then does a ticker thread run
    /// beside them.
    ///
    /// The calling thread is worker 0; workers `1..` are spawned for
    /// this run and joined before it returns. Each spawned worker `k`
    /// moves itself, before its first task, to the `k`-th CPU its
    /// affinity mask allows after the caller's, and keeps the mask it
    /// had: it is placed, not pinned (DESIGN.md §17, "Worker
    /// placement"). A one-worker run spawns nothing.
    pub fn run<R, F>(&self, shard_count: usize, global: &CancelToken, f: F) -> Vec<ShardReport<R>>
    where
        R: Send,
        F: Fn(&ShardCtx) -> R + Sync,
    {
        if shard_count == 0 {
            return Vec::new();
        }
        let pool = Pool {
            inner: Mutex::new(Inner {
                queue: (0..shard_count).map(|s| (s, 0u32)).collect(),
                states: (0..shard_count)
                    .map(|_| ShardState {
                        attempts: vec![Attempt::new(global)],
                        value: None,
                        winner_elapsed: None,
                        timed_out: false,
                        hedged: false,
                        first_start: None,
                        resolved: None,
                    })
                    .collect(),
                finished: false,
            }),
            changed: Condvar::new(),
        };
        let workers = self.threads.min(shard_count).max(1);
        let home = (workers > 1).then(placement::current_cpu).flatten();

        std::thread::scope(|scope| {
            if self.cfg.shard_deadline.is_some() {
                scope.spawn(|| self.tick_deadlines(&pool, global));
            }
            for k in 1..workers {
                let (pool, f) = (&pool, &f);
                scope.spawn(move || {
                    if let Some(home) = home {
                        placement::place_after(home, k);
                    }
                    self.worker_loop(pool, global, f)
                });
            }
            // The calling thread is one of the workers, so a one-worker
            // run keeps every shard on the caller's thread (and its
            // allocator arena) as an unsharded loop would.
            self.worker_loop(&pool, global, &f);
        });

        let inner = pool.inner.into_inner().unwrap_or_else(|e| e.into_inner());
        inner
            .states
            .into_iter()
            .enumerate()
            .map(|(shard, st)| {
                let panic_message = st.attempts.iter().rev().find_map(|a| match &a.done {
                    Some(AttemptEnd::Panicked(msg, _)) => Some(msg.clone()),
                    Some(AttemptEnd::Killed(msg)) => Some(msg.clone()),
                    _ => None,
                });
                let elapsed = st.winner_elapsed.unwrap_or_else(|| {
                    st.attempts
                        .iter()
                        .filter_map(|a| match &a.done {
                            Some(AttemptEnd::Ok(d)) | Some(AttemptEnd::Panicked(_, d)) => Some(*d),
                            _ => None,
                        })
                        .max()
                        .unwrap_or(Duration::ZERO)
                });
                ShardReport {
                    shard,
                    outcome: st.resolved.unwrap_or(ShardOutcome::Cancelled),
                    value: st.value.map(|(_, r)| r),
                    panic_message,
                    attempts: st.attempts.len() as u32,
                    elapsed,
                }
            })
            .collect()
    }

    fn worker_loop<R, F>(&self, pool: &Pool<R>, global: &CancelToken, f: &F)
    where
        R: Send,
        F: Fn(&ShardCtx) -> R + Sync,
    {
        let mut inner = pool.lock();
        loop {
            if inner.finished {
                return;
            }
            let Some((shard, attempt)) = inner.queue.pop_front() else {
                // Idle: supervise, then park until something changes or
                // a running shard may have become a straggler.
                let wake = self.settle(pool, &mut inner, global);
                if inner.finished || !inner.queue.is_empty() {
                    continue;
                }
                inner = match wake {
                    Some(at) => {
                        let wait = at.saturating_duration_since(Instant::now());
                        pool.changed
                            .wait_timeout(inner, wait)
                            .unwrap_or_else(|e| e.into_inner())
                            .0
                    }
                    None => pool.changed.wait(inner).unwrap_or_else(|e| e.into_inner()),
                };
                continue;
            };

            // Claim the attempt; skip it if the race is already over or
            // the query was cancelled before this shard ever started.
            let idx = attempt as usize;
            let st = &mut inner.states[shard];
            if st.value.is_some() || st.resolved.is_some() || global.is_cancelled() {
                st.attempts[idx].done = Some(AttemptEnd::Skipped);
                self.settle(pool, &mut inner, global);
                continue;
            }
            let now = Instant::now();
            st.attempts[idx].started = Some(now);
            st.first_start.get_or_insert(now);
            let ctx = ShardCtx {
                cancel: st.attempts[idx].token.clone(),
                shard,
                attempt,
            };
            drop(inner);

            let (value, end) = self.execute(&ctx, f);

            inner = pool.lock();
            let st = &mut inner.states[shard];
            if let (Some(value), AttemptEnd::Ok(dur)) = (value, &end) {
                if st.value.is_none() {
                    st.value = Some((attempt, value));
                    st.winner_elapsed = Some(*dur);
                    // First result wins: cancel the losers.
                    for (i, a) in st.attempts.iter().enumerate() {
                        if i != idx {
                            a.token.cancel();
                        }
                    }
                }
            }
            st.attempts[idx].done = Some(end);
            self.settle(pool, &mut inner, global);
            // Parked workers recompute when a straggler could be hedged.
            pool.changed.notify_all();
        }
    }

    /// Run one claimed attempt, outside the pool lock: the fault
    /// injector's kill, stall or panic first (chaos builds only), then
    /// `f` inside its `catch_unwind` boundary.
    fn execute<R, F>(&self, ctx: &ShardCtx, f: &F) -> (Option<R>, AttemptEnd)
    where
        F: Fn(&ShardCtx) -> R + Sync,
    {
        let shard = ctx.shard;
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = &self.faults {
            if plan.take_kill(shard) {
                // The worker "dies" before the closure runs: the attempt
                // vanishes without a value, exactly like a crashed
                // remote worker.
                let msg = format!("shard {shard} worker killed by fault injector");
                return (None, AttemptEnd::Killed(msg));
            }
            if let Some(stall) = plan.take_stall(shard) {
                // Chunked so a tripped token (hedge won, deadline) wakes
                // the stalled attempt early.
                let stall_start = Instant::now();
                while stall_start.elapsed() < stall && !ctx.cancel.is_cancelled() {
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
                panic!(
                    "injected shard panic (shard {shard}, attempt {})",
                    ctx.attempt
                );
            }
            f(ctx)
        }));
        let dur = t0.elapsed();
        match out {
            Ok(value) => (Some(value), AttemptEnd::Ok(dur)),
            Err(payload) => (None, AttemptEnd::Panicked(panic_message(payload), dur)),
        }
    }

    /// Deadline ticker, on its own thread when shards have a deadline
    /// slice: settles every [`DEADLINE_TICK`], so an expired slice is
    /// tripped even while every worker is busy. Ends with the run.
    fn tick_deadlines<R: Send>(&self, pool: &Pool<R>, global: &CancelToken) {
        let mut inner = pool.lock();
        while !inner.finished {
            self.settle(pool, &mut inner, global);
            inner = pool
                .changed
                .wait_timeout(inner, DEADLINE_TICK)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// One supervision pass, acted on: queue the hedges it asks for,
    /// and once every shard has resolved mark the run finished; wake
    /// the parked threads when either happened. Returns when the next
    /// running shard could become a straggler, if any can.
    fn settle<R: Send>(
        &self,
        pool: &Pool<R>,
        inner: &mut Inner<R>,
        global: &CancelToken,
    ) -> Option<Instant> {
        let (hedges, wake) = self.pass(&mut inner.states, global);
        let finished = inner.states.iter().all(|st| st.resolved.is_some());
        if finished || !hedges.is_empty() {
            inner
                .queue
                .extend(hedges.into_iter().map(|shard| (shard, 1)));
            inner.finished = finished;
            pool.changed.notify_all();
        }
        wake
    }

    /// One supervision pass: marks deadline slices, adds hedge attempts
    /// (one per shard — immediately when the primary attempt died, or
    /// past the straggler threshold) and resolves each shard exactly
    /// once. Returns the shards whose hedge must be queued, and the
    /// earliest instant a running shard would cross the straggler
    /// threshold.
    fn pass<R: Send>(
        &self,
        states: &mut [ShardState<R>],
        global: &CancelToken,
    ) -> (Vec<usize>, Option<Instant>) {
        let mut hedges: Vec<usize> = Vec::new();
        let mut wake: Option<Instant> = None;
        let mut samples: Vec<Duration> = states
            .iter()
            .flat_map(|st| st.attempts.iter())
            .filter_map(|a| match &a.done {
                Some(AttemptEnd::Ok(d)) => Some(*d),
                _ => None,
            })
            .collect();
        let threshold = self.straggler_threshold(&mut samples);
        let now = Instant::now();

        for (shard, st) in states.iter_mut().enumerate() {
            if st.resolved.is_some() {
                continue;
            }
            if let (Some(deadline), Some(first)) = (self.cfg.shard_deadline, st.first_start) {
                if !st.timed_out && now.duration_since(first) > deadline {
                    st.timed_out = true;
                    for a in &st.attempts {
                        a.token.cancel();
                    }
                }
            }

            if let Some((winner, _)) = &st.value {
                st.resolved = Some(if *winner > 0 {
                    ShardOutcome::Hedged
                } else if st.timed_out {
                    ShardOutcome::TimedOut
                } else {
                    ShardOutcome::Completed
                });
                continue;
            }

            let pending = st.attempts.iter().any(|a| a.done.is_none());
            let may_hedge = !st.hedged && !st.timed_out && !global.is_cancelled();
            if !pending {
                // Every dispatched attempt ended without a value (panic,
                // kill, or skip).
                if may_hedge
                    && st
                        .attempts
                        .iter()
                        .any(|a| !matches!(a.done, Some(AttemptEnd::Skipped)))
                {
                    st.hedged = true;
                    st.attempts.push(Attempt::new(global));
                    hedges.push(shard);
                } else if st.attempts.iter().all(|a| a.started.is_none()) {
                    st.resolved = Some(ShardOutcome::Cancelled);
                } else if st.timed_out {
                    st.resolved = Some(ShardOutcome::TimedOut);
                } else {
                    st.resolved = Some(ShardOutcome::Panicked);
                }
            } else if may_hedge && st.attempts.len() == 1 {
                if let (Some(limit), Some(first)) = (threshold, st.first_start) {
                    if now.duration_since(first) >= limit {
                        st.hedged = true;
                        st.attempts.push(Attempt::new(global));
                        hedges.push(shard);
                    } else {
                        let at = first + limit;
                        wake = Some(wake.map_or(at, |w| w.min(at)));
                    }
                }
            }
        }
        (hedges, wake)
    }

    /// Straggler threshold from completed-attempt latencies: `factor ×`
    /// their [`HEDGE_QUANTILE`], floored at `hedge_floor`; `None` until
    /// enough samples exist.
    fn straggler_threshold(&self, samples: &mut [Duration]) -> Option<Duration> {
        if samples.len() < self.cfg.hedge_min_samples.max(1) {
            return None;
        }
        samples.sort_unstable();
        let idx = (((samples.len() - 1) as f64) * HEDGE_QUANTILE).ceil() as usize;
        let quantile = samples[idx.min(samples.len() - 1)];
        let scaled = quantile.mul_f64(self.cfg.hedge_factor.max(1.0));
        Some(scaled.max(self.cfg.hedge_floor))
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

    fn exec(cfg: ShardConfig, threads: usize) -> ShardExecutor {
        ShardExecutor::new(cfg, threads)
    }

    #[test]
    fn all_shards_complete() {
        let ex = exec(ShardConfig::default(), 3);
        let global = CancelToken::new();
        let reports = ex.run(5, &global, |ctx| ctx.shard * 10);
        assert_eq!(reports.len(), 5);
        for (s, r) in reports.iter().enumerate() {
            assert_eq!(r.shard, s);
            assert_eq!(r.outcome, ShardOutcome::Completed);
            assert_eq!(r.value, Some(s * 10));
            assert_eq!(r.attempts, 1);
        }
    }

    #[test]
    fn empty_dispatch_is_empty() {
        let ex = exec(ShardConfig::default(), 2);
        let reports = ex.run(0, &CancelToken::new(), |_ctx| 0u32);
        assert!(reports.is_empty());
    }

    #[test]
    fn panic_is_contained_and_hedge_rescues() {
        // A closure that panics only on its first attempt: the failure
        // hedge re-runs it and wins.
        let ex = exec(ShardConfig::default(), 2);
        let reports = ex.run(3, &CancelToken::new(), |ctx| {
            if ctx.shard == 1 && ctx.attempt == 0 {
                panic!("poisoned shard 1");
            }
            ctx.shard
        });
        assert_eq!(reports[1].outcome, ShardOutcome::Hedged);
        assert_eq!(reports[1].value, Some(1));
        assert_eq!(reports[1].attempts, 2);
        assert_eq!(reports[0].outcome, ShardOutcome::Completed);
        assert_eq!(reports[2].outcome, ShardOutcome::Completed);
    }

    #[test]
    fn double_panic_resolves_panicked_with_payload() {
        let ex = exec(ShardConfig::default(), 2);
        let reports = ex.run(2, &CancelToken::new(), |ctx| {
            if ctx.shard == 0 {
                panic!("always poisoned (attempt {})", ctx.attempt);
            }
            7u32
        });
        assert_eq!(reports[0].outcome, ShardOutcome::Panicked);
        assert!(reports[0].value.is_none());
        assert_eq!(reports[0].attempts, 2);
        let msg = reports[0].panic_message.as_deref().unwrap();
        assert!(msg.contains("always poisoned"), "got: {msg}");
        assert_eq!(reports[1].outcome, ShardOutcome::Completed);
    }

    #[test]
    fn global_cancel_before_start_resolves_cancelled() {
        let global = CancelToken::new();
        global.cancel();
        let ex = exec(ShardConfig::default(), 2);
        let reports = ex.run(4, &global, |ctx| ctx.shard);
        for r in &reports {
            assert_eq!(r.outcome, ShardOutcome::Cancelled, "shard {}", r.shard);
            assert!(r.value.is_none());
        }
    }

    #[test]
    fn one_worker_runs_everything_on_the_caller() {
        // A panicked shard is still re-run, and no thread is spawned.
        let caller = std::thread::current().id();
        let ex = exec(ShardConfig::default(), 1);
        let reports = ex.run(3, &CancelToken::new(), |ctx| {
            assert_eq!(std::thread::current().id(), caller);
            if ctx.shard == 1 && ctx.attempt == 0 {
                panic!("poisoned shard 1");
            }
            ctx.shard
        });
        assert_eq!(reports[0].outcome, ShardOutcome::Completed);
        assert_eq!(reports[1].outcome, ShardOutcome::Hedged);
        assert_eq!(reports[1].value, Some(1));
        assert_eq!(reports[2].outcome, ShardOutcome::Completed);
    }

    #[test]
    fn running_attempts_see_a_global_cancel() {
        // Shard 1 cancels the query while shard 0 runs on the other
        // worker: shard 0's own token trips with no one relaying it.
        let global = CancelToken::new();
        let ex = exec(ShardConfig::default(), 2);
        let reports = ex.run(2, &global, |ctx| {
            if ctx.shard == 1 {
                global.cancel();
                return true;
            }
            let start = Instant::now();
            while !ctx.cancel.is_cancelled() && start.elapsed() < Duration::from_secs(10) {
                std::thread::sleep(Duration::from_millis(1));
            }
            ctx.cancel.is_cancelled()
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
        let reports = exec(ShardConfig::default(), 2).run(4, &CancelToken::new(), |ctx| ctx.shard);
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
        let ex = exec(ShardConfig::default(), 1);
        let reports = ex.run(2, &global, |ctx| {
            global.cancel();
            ctx.cancel.is_cancelled()
        });
        assert_eq!(reports[0].outcome, ShardOutcome::Completed);
        assert_eq!(reports[0].value, Some(true));
        assert_eq!(reports[1].outcome, ShardOutcome::Cancelled);
    }

    #[test]
    fn deadline_slice_times_out_cooperative_shard() {
        let cfg = ShardConfig {
            shard_deadline: Some(Duration::from_millis(5)),
            ..ShardConfig::default()
        };
        let ex = exec(cfg, 2);
        let reports = ex.run(2, &CancelToken::new(), |ctx| {
            if ctx.shard == 0 {
                // Cooperative straggler: spins until its slice is
                // tripped, then returns a partial marker.
                while !ctx.cancel.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                return usize::MAX;
            }
            ctx.shard
        });
        assert_eq!(reports[0].outcome, ShardOutcome::TimedOut);
        assert_eq!(reports[0].value, Some(usize::MAX), "partial value kept");
        assert_eq!(reports[1].outcome, ShardOutcome::Completed);
    }

    #[test]
    fn straggler_gets_hedged() {
        let cfg = ShardConfig {
            hedge_floor: Duration::from_millis(2),
            hedge_min_samples: 2,
            hedge_factor: 1.0,
            ..ShardConfig::default()
        };
        let ex = exec(cfg, 4);
        let reports = ex.run(4, &CancelToken::new(), |ctx| {
            if ctx.shard == 0 && ctx.attempt == 0 {
                // First attempt dawdles until cancelled (hedge wins) or
                // far past any hedging threshold; the cap is generous so
                // a heavily loaded box cannot outlast it and let the
                // primary complete un-hedged.
                let start = Instant::now();
                while !ctx.cancel.is_cancelled() && start.elapsed() < Duration::from_secs(10) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                return 999;
            }
            ctx.shard
        });
        assert_eq!(reports[0].outcome, ShardOutcome::Hedged);
        assert_eq!(reports[0].value, Some(0), "hedge attempt's value wins");
        assert_eq!(reports[0].attempts, 2);
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(ShardOutcome::Completed.label(), "completed");
        assert_eq!(ShardOutcome::TimedOut.label(), "timed_out");
        assert_eq!(ShardOutcome::Panicked.label(), "panicked");
        assert_eq!(ShardOutcome::Hedged.label(), "hedged");
        assert_eq!(ShardOutcome::Cancelled.label(), "cancelled");
    }
}
