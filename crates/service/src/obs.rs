//! Service-level observability: every admission-control and
//! degradation decision lands in a `csj_service_*` metric and on the
//! request's flight-recorder trace.

use std::sync::Arc;
use std::time::Duration;

use csj_obs::{
    catalog, ByLabel, Counter, FlightRecorder, Gauge, Label, LatencyHistogram, MetricsRegistry,
    MetricsSnapshot, Objective, QueryTrace, Selector, SloSource,
};

use crate::request::Fate;

/// The service's standard SLOs, declared over its own `csj_service_*`
/// families so [`csj_obs::slo::evaluate`] over
/// [`CsjService::metrics_snapshot`](crate::CsjService::metrics_snapshot)
/// can compute burn rates without any extra instrumentation:
///
/// * `request_latency` — ≤1% of requests slower than
///   `latency_threshold_us` (p99 end-to-end latency objective);
/// * `degraded_fraction` — ≤10% of completed requests served degraded;
/// * `shed_fraction` — ≤5% of submitted requests shed at admission.
///
/// The fractions reconcile with the four-fates identities by
/// construction: `degraded_fraction` draws from the same
/// `csj_service_completed_total` family whose outcomes partition
/// admitted-and-resolved requests, and `shed_fraction` is
/// `shed / submitted` with `submitted == admitted + shed`.
pub fn service_slos(latency_threshold_us: u64) -> Vec<Objective> {
    vec![
        Objective {
            name: "request_latency".into(),
            target: 0.01,
            source: SloSource::LatencyAbove {
                histogram: Selector::all(&catalog::SERVICE_REQUEST),
                threshold_us: latency_threshold_us,
            },
        },
        Objective {
            name: "degraded_fraction".into(),
            target: 0.10,
            source: SloSource::CounterFraction {
                bad: Selector::series(&catalog::SERVICE_COMPLETED, [Fate::Degraded.label()]),
                total: Selector::all(&catalog::SERVICE_COMPLETED),
            },
        },
        Objective {
            name: "shed_fraction".into(),
            target: 0.05,
            source: SloSource::CounterFraction {
                bad: Selector::all(&catalog::SERVICE_SHED),
                total: Selector::all(&catalog::SERVICE_SUBMITTED),
            },
        },
    ]
}

csj_obs::label_enum! {
    /// Degradation triggers (metrics label values).
    pub enum DegradeTrigger {
        /// The exact primary pass panicked or hit an injected fault.
        Failure => "failure",
        /// Not enough deadline left for an exact attempt (or the exact
        /// attempt exhausted its budget slice).
        Deadline => "deadline",
        /// A sharded query lost one or more shards: the answer is exact on
        /// what survived but its candidate coverage is incomplete.
        Coverage => "coverage",
    }
}

/// The `outcome` of `csj_service_completed_total`: shed requests never
/// complete (they are counted at admission), so `Shed` has no series.
impl Label<1> for Fate {
    const ALL: &'static [Self] = &[Fate::Answered, Fate::Degraded, Fate::Failed];
    fn values(self) -> [&'static str; 1] {
        [self.label()]
    }
}

/// Registry + flight recorder for the service layer. Engine metrics
/// stay in the engine's own registry; [`ServiceObs::snapshot`] output
/// is concatenated with the engine snapshot by the service.
pub struct ServiceObs {
    registry: MetricsRegistry,
    flight: FlightRecorder,
    submitted: Arc<Counter>,
    admitted: Arc<Counter>,
    shed: Arc<Counter>,
    completed: ByLabel<Counter, Fate>,
    degraded: ByLabel<Counter, DegradeTrigger>,
    queue_depth: Arc<Gauge>,
    inflight: Arc<Gauge>,
    queue_wait: Arc<LatencyHistogram>,
    request_latency: Arc<LatencyHistogram>,
}

impl ServiceObs {
    /// Register every service metric; `flight_capacity` bounds the
    /// request-trace ring.
    pub fn new(flight_capacity: usize) -> Self {
        use csj_obs::catalog::*;
        let r = MetricsRegistry::new();
        Self {
            flight: FlightRecorder::new(flight_capacity),
            submitted: r.register(&SERVICE_SUBMITTED, []),
            admitted: r.register(&SERVICE_ADMITTED, []),
            shed: r.register(&SERVICE_SHED, []),
            completed: r.register_each(&SERVICE_COMPLETED),
            degraded: r.register_each(&SERVICE_DEGRADED),
            queue_depth: r.register(&SERVICE_QUEUE_DEPTH, []),
            inflight: r.register(&SERVICE_INFLIGHT, []),
            queue_wait: r.register(&SERVICE_QUEUE_WAIT, []),
            request_latency: r.register(&SERVICE_REQUEST, []),
            registry: r,
        }
    }

    pub(crate) fn on_submitted(&self) {
        self.submitted.inc();
    }

    pub(crate) fn on_admitted(&self, depth: usize) {
        self.admitted.inc();
        self.queue_depth.set(depth as u64);
    }

    pub(crate) fn on_shed(&self) {
        self.shed.inc();
    }

    pub(crate) fn on_dequeued(&self, depth: usize, wait: Duration) {
        self.queue_depth.set(depth as u64);
        self.queue_wait.observe(wait);
    }

    pub(crate) fn on_inflight(&self, n: u64) {
        self.inflight.set(n);
    }

    pub(crate) fn on_degraded(&self, trigger: DegradeTrigger) {
        self.degraded.get(trigger).inc();
    }

    pub(crate) fn on_completed(&self, fate: Fate, latency: Duration) {
        self.request_latency.observe(latency);
        self.completed.get(fate).inc();
    }

    pub(crate) fn record_trace(&self, trace: QueryTrace) {
        self.flight.record(trace);
    }

    /// The most recent `n` service request traces, oldest first.
    pub fn traces(&self, n: usize) -> Vec<QueryTrace> {
        self.flight.last(n)
    }

    /// Snapshot of every `csj_service_*` series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_decision_has_a_series() {
        let obs = ServiceObs::new(8);
        obs.on_submitted();
        obs.on_admitted(1);
        obs.on_shed();
        obs.on_degraded(DegradeTrigger::Failure);
        obs.on_degraded(DegradeTrigger::Deadline);
        obs.on_degraded(DegradeTrigger::Coverage);
        obs.on_dequeued(0, Duration::from_micros(50));
        obs.on_completed(Fate::Answered, Duration::from_micros(200));
        let snap = obs.snapshot();
        assert_eq!(snap.counter_value("csj_service_submitted_total", &[]), 1);
        assert_eq!(snap.counter_value("csj_service_shed_total", &[]), 1);
        assert_eq!(
            snap.counter_value("csj_service_degraded_total", &[("trigger", "failure")]),
            1
        );
        assert_eq!(
            snap.counter_value("csj_service_degraded_total", &[("trigger", "coverage")]),
            1
        );
        assert_eq!(
            snap.counter_value("csj_service_completed_total", &[("outcome", "answered")]),
            1
        );
        // The exposition must lint clean (HELP/TYPE, histogram shape).
        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE csj_service_queue_wait_seconds histogram"));
        assert!(prom.contains("csj_service_request_seconds_bucket{le=\"+Inf\"}"));
    }
}
