//! The overload-safe query service.
//!
//! [`CsjService`] wraps an `Arc<CsjEngine>` behind a fixed worker pool
//! fed from a bounded admission queue:
//!
//! ```text
//! submit ──► admission queue ──► workers ──► engine.query(request, Any)
//!    │            (bounded)         │
//!    └─ full? shed with             ├─ deadline pressure ───────────┐
//!       Overloaded{retry_after}     ├─ exact pass exhausted ────────┼─► engine.query(request,
//!                                   ├─ exact pass panicked/faulted ─┘     Approximate)
//!                                   └─ catch_unwind (no panic escapes)
//! ```
//!
//! A request *is* an engine [`Query`](csj_engine::Query): the worker
//! hands it to [`CsjEngine::query`] unchanged, once for the primary pass
//! and, when the request degrades, once more for its approximate form.
//!
//! Every submitted request resolves to exactly one of four fates —
//! answered, degraded-answered, shed, or failed-typed — and every
//! decision on the way (admit/shed/degrade) is counted in a
//! `csj_service_*` metric and stamped on the request's flight-recorder
//! trace. The service never retries: a degraded request runs one
//! approximate pass, and if that fails too the request fails typed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use csj_core::panic_message;
use csj_engine::{Budget, CsjEngine, EngineError, Exactness, MetricsSnapshot, QueryTrace};
use csj_obs::Span;

use crate::config::ServiceConfig;
use crate::obs::{DegradeTrigger, ServiceObs};
use crate::queue::{BoundedQueue, PushError};
use crate::request::{Fate, Request, Response, ServiceError};

/// State shared between the front-end and the workers.
struct Shared {
    config: ServiceConfig,
    queue: BoundedQueue<Job>,
    obs: ServiceObs,
    /// EWMA of per-request service time, microseconds (0 = no data yet).
    ewma_us: AtomicU64,
    inflight: AtomicU64,
}

/// One queued request.
struct Job {
    request: Request,
    submitted_at: Instant,
    deadline: Option<Instant>,
    respond: mpsc::Sender<Result<Response, ServiceError>>,
}

/// Handle to one in-flight request; redeem it with [`Ticket::wait`].
pub struct Ticket {
    /// Service-assigned request id.
    pub id: u64,
    rx: mpsc::Receiver<Result<Response, ServiceError>>,
}

impl Ticket {
    /// Block until the request resolves. A service torn down mid-flight
    /// yields [`ServiceError::Shutdown`].
    pub fn wait(self) -> Result<Response, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::Shutdown))
    }
}

/// Overload-safe query service over a shared [`CsjEngine`].
pub struct CsjService {
    engine: Arc<CsjEngine>,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
}

impl CsjService {
    /// Take ownership of an engine (inject faults *before* handing it
    /// over — mutation needs `&mut`), wrap it in an `Arc` and spin up
    /// the worker pool.
    pub fn start(engine: CsjEngine, config: ServiceConfig) -> Self {
        let config = config.sanitized();
        let engine = Arc::new(engine);
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            obs: ServiceObs::new(config.flight_capacity),
            ewma_us: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            config,
        });
        let workers = (0..shared.config.workers)
            .map(|i| {
                let engine = Arc::clone(&engine);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("csj-service-{i}"))
                    .spawn(move || worker_loop(&engine, &shared))
                    .expect("spawn service worker")
            })
            .collect();
        Self {
            engine,
            shared,
            workers,
            next_id: AtomicU64::new(1),
        }
    }

    /// The wrapped engine (shareable; queries take `&self`).
    pub fn engine(&self) -> &Arc<CsjEngine> {
        &self.engine
    }

    /// The (sanitized) configuration the service runs with.
    pub fn config(&self) -> &ServiceConfig {
        &self.shared.config
    }

    /// Submit a request. Returns a [`Ticket`] when admitted; a full
    /// queue sheds immediately with [`ServiceError::Overloaded`].
    pub fn submit(&self, request: Request) -> Result<Ticket, ServiceError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        let job = Job {
            request,
            submitted_at: now,
            deadline: self
                .shared
                .config
                .default_deadline
                .and_then(|d| now.checked_add(d)),
            respond: tx,
        };
        match self.shared.queue.try_push(job) {
            Ok(depth) => {
                self.shared.obs.on_submitted();
                self.shared.obs.on_admitted(depth);
                Ok(Ticket { id, rx })
            }
            Err(PushError::Full(job)) => {
                self.shared.obs.on_submitted();
                self.shared.obs.on_shed();
                let retry_after = self.retry_after_hint();
                self.shared.obs.record_trace(shed_trace(&job, retry_after));
                Err(ServiceError::Overloaded { retry_after })
            }
            // Closed queue: the service is down; nothing is counted so
            // the submitted == admitted + shed identity holds for the
            // service's lifetime.
            Err(PushError::Closed(_)) => Err(ServiceError::Shutdown),
        }
    }

    /// Submit and wait: the synchronous convenience wrapper.
    pub fn call(&self, request: Request) -> Result<Response, ServiceError> {
        self.submit(request)?.wait()
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Merged point-in-time snapshot: every engine `csj_*` series plus
    /// the service's `csj_service_*` series.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.engine.metrics_snapshot();
        snap.metrics.extend(self.service_metrics().metrics);
        snap
    }

    /// Just the service's own `csj_service_*` series.
    pub fn service_metrics(&self) -> MetricsSnapshot {
        self.shared
            .obs
            .on_inflight(self.shared.inflight.load(Ordering::Relaxed));
        self.shared.obs.snapshot()
    }

    /// The most recent `n` service request traces, oldest first.
    pub fn service_traces(&self, n: usize) -> Vec<QueryTrace> {
        self.shared.obs.traces(n)
    }

    /// The most recent `n` engine-level query traces, oldest first.
    pub fn engine_traces(&self, n: usize) -> Vec<QueryTrace> {
        self.engine.traces(n)
    }

    /// Estimated wait until capacity frees up: EWMA service time ×
    /// backlog / workers, clamped to `[1ms, 5s]`.
    fn retry_after_hint(&self) -> Duration {
        let ewma = self.shared.ewma_us.load(Ordering::Relaxed).max(1_000);
        let backlog =
            self.shared.queue.len() as u64 + self.shared.inflight.load(Ordering::Relaxed) + 1;
        let us = ewma
            .saturating_mul(backlog)
            .checked_div(self.shared.config.workers as u64)
            .unwrap_or(u64::MAX);
        Duration::from_micros(us.clamp(1_000, 5_000_000))
    }

    /// Drain the queue (admitted requests still get answers), stop the
    /// workers and hand the engine back.
    pub fn shutdown(mut self) -> Arc<CsjEngine> {
        self.shutdown_inner();
        Arc::clone(&self.engine)
    }

    fn shutdown_inner(&mut self) {
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for CsjService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn worker_loop(engine: &CsjEngine, shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        let wait = job.submitted_at.elapsed();
        shared.obs.on_dequeued(shared.queue.len(), wait);
        let inflight = shared.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        shared.obs.on_inflight(inflight);
        let started = Instant::now();
        // Engine joins are already panic-isolated; this boundary exists
        // so that even a bug in the service itself resolves the request
        // instead of killing the worker.
        let result = catch_unwind(AssertUnwindSafe(|| execute(engine, shared, &job)))
            .unwrap_or_else(|payload| {
                Err(ServiceError::Internal {
                    message: panic_message(payload),
                })
            });
        update_ewma(&shared.ewma_us, started.elapsed());
        let fate = Fate::of(&result);
        shared.obs.on_completed(fate, job.submitted_at.elapsed());
        shared
            .obs
            .record_trace(request_trace(&job, &result, fate, wait));
        let _ = job.respond.send(result);
        let inflight = shared.inflight.fetch_sub(1, Ordering::Relaxed) - 1;
        shared.obs.on_inflight(inflight);
    }
}

/// Share of the remaining deadline granted to the primary pass; the
/// rest is held in reserve so the approximate counterpart can still
/// answer in time.
const EXACT_FRACTION: f64 = 0.6;

/// Below this much remaining deadline an exact pass is hopeless: the
/// request degrades at once (trigger `deadline`).
const MIN_EXACT_SLACK: Duration = Duration::from_millis(5);

/// The least deadline the approximate form gets. It always starts, so a
/// degraded request is answered, at most this much plus one join late,
/// instead of left empty.
const MIN_APPROX_SLACK: Duration = Duration::from_millis(1);

/// Run one admitted request: deadline pressure, one primary pass, and
/// the approximate form when the request degrades. Called under the
/// worker's panic boundary.
fn execute(engine: &CsjEngine, shared: &Shared, job: &Job) -> Result<Response, ServiceError> {
    // Only an exact primary pass has an approximate form to degrade to.
    let exact = job.request.is_exact();

    // Deadline pressure: when an exact pass cannot possibly finish in
    // the remaining slack, degrade at once.
    if exact && job.deadline.is_some_and(|d| remaining(d) < MIN_EXACT_SLACK) {
        return degrade(engine, shared, job, DegradeTrigger::Deadline);
    }

    let primary = match engine.query(
        &job.request,
        Exactness::Any,
        &primary_budget(job.deadline, exact),
    ) {
        Ok(primary) => primary,
        // Joins are deterministic, so a panicked or faulted exact pass
        // would fail again: serve the approximate form once instead.
        Err(EngineError::JoinPanicked { .. } | EngineError::Faulted { .. }) if exact => {
            return degrade(engine, shared, job, DegradeTrigger::Failure);
        }
        Err(e) => return Err(ServiceError::Engine(e)),
    };
    let exhausted = primary.exhausted.map(|m| m.reason);
    let coverage = primary.coverage;
    let response = Response {
        value: primary.value,
        degraded: false,
        degrade_trigger: None,
        degrade_note: None,
        retries: 0,
        exhausted,
        coverage,
    };
    match (exhausted, coverage) {
        // The exact pass ran out of its deadline share: the reserve
        // goes to the approximate form.
        (Some(_), _) if exact => degrade(engine, shared, job, DegradeTrigger::Deadline),
        // Lost shards degrade through the coverage channel: the answer
        // is exact on what survived, so the response is marked degraded
        // and carries the typed report.
        (None, Some(cov)) if cov.is_partial() => {
            shared.obs.on_degraded(DegradeTrigger::Coverage);
            Ok(Response {
                degraded: true,
                degrade_trigger: Some(DegradeTrigger::Coverage.label()),
                degrade_note: Some(format!(
                    "partial shard coverage: {cov}; surviving results are exact"
                )),
                ..response
            })
        }
        _ => Ok(response),
    }
}

/// Serve a degraded request by the approximate form of its query, with
/// whatever deadline is left (at least [`MIN_APPROX_SLACK`]): a
/// similarity request runs the primary's
/// [`approximate_counterpart`](csj_core::CsjMethod::approximate_counterpart)
/// (Ap-Hybrid for Ex-SuperEGO: Ap-SuperEGO's `f32` compare loses pairs
/// at exactly eps); top-k and pairs_above answer from the engine's
/// screen scores (its `screen_method`). Approximate CSJ never
/// over-counts and greedy maximal matching reaches at least half the
/// maximum, so the exact score lies in `[score, 2·score]`.
fn degrade(
    engine: &CsjEngine,
    shared: &Shared,
    job: &Job,
    trigger: DegradeTrigger,
) -> Result<Response, ServiceError> {
    shared.obs.on_degraded(trigger);
    let budget = match job.deadline {
        None => Budget::unlimited(),
        Some(d) => Budget::unlimited().with_deadline(remaining(d).max(MIN_APPROX_SLACK)),
    };
    let partial = engine.query(&job.request, Exactness::Approximate, &budget)?;
    let served_by = job.request.approximate_method(engine.config());
    Ok(Response {
        value: partial.value,
        degraded: true,
        degrade_trigger: Some(trigger.label()),
        degrade_note: Some(format!(
            "served by {} (trigger: {}): approximate CSJ never over-counts and greedy \
             maximal matching is at least half of maximum, so the exact score is within \
             [score, 2*score]",
            served_by.name(),
            trigger.label()
        )),
        retries: 0,
        exhausted: partial.exhausted.map(|m| m.reason),
        coverage: partial.coverage,
    })
}

fn remaining(deadline: Instant) -> Duration {
    deadline.saturating_duration_since(Instant::now())
}

/// Budget for the primary pass of an `exact` request: [`EXACT_FRACTION`]
/// of the remaining deadline, the rest held in reserve for the
/// approximate form. Any other request has no approximate form to fall
/// back on, so its pass runs unbounded.
fn primary_budget(deadline: Option<Instant>, exact: bool) -> Budget {
    match deadline {
        Some(d) if exact => Budget::unlimited().with_deadline(remaining(d).mul_f64(EXACT_FRACTION)),
        _ => Budget::unlimited(),
    }
}

fn update_ewma(cell: &AtomicU64, sample: Duration) {
    let s = sample.as_micros() as u64;
    let old = cell.load(Ordering::Relaxed);
    let new = if old == 0 { s } else { (old * 4 + s) / 5 };
    cell.store(new, Ordering::Relaxed);
}

fn shed_trace(job: &Job, retry_after: Duration) -> QueryTrace {
    QueryTrace {
        id: 0,
        kind: job.request.kind(),
        outcome: "shed".to_string(),
        root: Span::new("request")
            .attr("kind", job.request.kind())
            .attr("fate", "shed")
            .attr("retry_after_us", retry_after.as_micros() as u64),
    }
}

fn request_trace(
    job: &Job,
    result: &Result<Response, ServiceError>,
    fate: Fate,
    wait: Duration,
) -> QueryTrace {
    let elapsed_us = job.submitted_at.elapsed().as_micros() as u64;
    let mut root = Span::new("request")
        .at(0, elapsed_us)
        .attr("kind", job.request.kind())
        .attr("fate", fate.label())
        .attr("queue_wait_us", wait.as_micros() as u64);
    let outcome = match result {
        Ok(r) => {
            root = root.attr("degraded", u64::from(r.degraded));
            if let Some(trigger) = r.degrade_trigger {
                root = root.attr("degrade_trigger", trigger);
            }
            if let Some(note) = &r.degrade_note {
                root = root.attr("degrade_note", note.clone());
            }
            if let Some(cov) = r.coverage {
                root = root
                    .attr("shards_dispatched", cov.dispatched)
                    .attr("shards_completed", cov.completed)
                    .attr("shards_failed", cov.failed)
                    .attr("shards_cancelled", cov.cancelled)
                    .attr("units_screened", cov.units_screened)
                    .attr("units_skipped", cov.units_skipped);
            }
            match (r.degraded, r.exhausted) {
                (true, _) => "degraded".to_string(),
                (false, Some(reason)) => format!("exhausted:{reason}"),
                (false, None) => "completed".to_string(),
            }
        }
        Err(e) => format!("failed:{e}"),
    };
    QueryTrace {
        id: 0,
        kind: job.request.kind(),
        outcome,
        root,
    }
}
