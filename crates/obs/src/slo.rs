//! Declarative SLOs evaluated into multi-window burn rates.
//!
//! An [`Objective`] names a *bad-event fraction* and its budget: "no
//! more than 1% of requests slower than 25 ms", "no more than 5% of
//! completed requests degraded". Sources are the existing `csj_*`
//! series — a latency histogram split at a threshold bound, or a
//! bad/total counter pair — so the engine adds no new hot-path
//! instrumentation; it is a pure consumer of [`MetricsSnapshot`]s.
//!
//! [`SloEngine::observe`] appends cumulative `(bad, total)` samples on
//! a caller-supplied microsecond clock (the flight-recorder clock in
//! the engine, a test counter in unit tests — never wall time, so the
//! math is deterministic). [`SloEngine::evaluate`] then computes, per
//! objective and per [`WindowSpec`], the windowed delta and its **burn
//! rate**: `bad_fraction / target`. A burn rate of 1.0 consumes the
//! error budget exactly as fast as allowed; above 1.0 the objective is
//! breached. Results surface three ways: `csj_slo_*` gauges (a private
//! registry whose snapshot callers concatenate into the engine
//! exposition), [`SloStatus`] values for CLI rendering, and an
//! evaluation [`Span`] so SLO state rides the trace stream.
//!
//! ## Window semantics
//!
//! Samples are cumulative. For a window of length `L` evaluated at
//! `now`, the baseline is the newest sample with `at_us <= now - L`
//! (a sample exactly on the edge belongs to the baseline, not the
//! window). When no sample is that old — engine younger than the
//! window — the oldest retained sample serves as baseline, i.e. the
//! window is clipped to the engine's lifetime. A window that saw no
//! traffic (`total` delta 0) burns nothing: fraction and rate are 0,
//! never NaN.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::catalog;
use crate::metrics::{FloatGauge, Gauge, MetricsRegistry, MetricsSnapshot, SampleValue};
use crate::span::Span;

/// Selects counter (or integer gauge) series by name plus a label
/// subset; matching series are summed. An empty label list sums every
/// series of that name (e.g. all `outcome` values of
/// `csj_service_completed_total`).
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSelector {
    /// Metric name to match.
    pub name: String,
    /// Label pairs every matched series must carry.
    pub labels: Vec<(String, String)>,
}

impl CounterSelector {
    /// Select `name` series carrying every pair in `labels`.
    pub fn new(name: impl Into<String>, labels: &[(&str, &str)]) -> Self {
        Self {
            name: name.into(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    fn matches(&self, sample_name: &str, sample_labels: &[(&'static str, String)]) -> bool {
        sample_name == self.name
            && self
                .labels
                .iter()
                .all(|(k, v)| sample_labels.iter().any(|(sk, sv)| sk == k && sv == v))
    }

    fn sum(&self, snap: &MetricsSnapshot) -> f64 {
        snap.metrics
            .iter()
            .filter(|m| self.matches(m.name, &m.labels))
            .map(|m| match &m.value {
                SampleValue::Counter(v) | SampleValue::Gauge(v) => *v as f64,
                SampleValue::GaugeF64(v) => *v,
                SampleValue::Histogram { count, .. } => *count as f64,
            })
            .sum()
    }
}

/// Where an objective's cumulative `(bad, total)` pair comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum SloSource {
    /// `bad` = observations strictly above `threshold_us` across every
    /// matching histogram series; `total` = their combined count. The
    /// threshold should sit on a bucket bound (the split is exact
    /// there; between bounds it rounds up to the next bound).
    LatencyAbove {
        /// Histogram metric name (e.g. `csj_service_request_seconds`).
        histogram: String,
        /// Label subset the series must carry (empty = all series).
        labels: Vec<(String, String)>,
        /// Bad-event threshold, microseconds.
        threshold_us: u64,
    },
    /// `bad` and `total` are counter sums (e.g. shed vs submitted).
    CounterFraction {
        /// Counter selector for bad events.
        bad: CounterSelector,
        /// Counter selector for all events.
        total: CounterSelector,
    },
}

impl SloSource {
    fn extract(&self, snap: &MetricsSnapshot) -> (f64, f64) {
        match self {
            SloSource::LatencyAbove {
                histogram,
                labels,
                threshold_us,
            } => {
                let selector = CounterSelector {
                    name: histogram.clone(),
                    labels: labels.clone(),
                };
                let mut bad = 0.0;
                let mut total = 0.0;
                for m in &snap.metrics {
                    if !selector.matches(m.name, &m.labels) {
                        continue;
                    }
                    if let SampleValue::Histogram {
                        bounds_us,
                        buckets,
                        count,
                        ..
                    } = &m.value
                    {
                        total += *count as f64;
                        let within: u64 = bounds_us
                            .iter()
                            .zip(buckets.iter())
                            .filter(|(b, _)| **b <= *threshold_us)
                            .map(|(_, c)| *c)
                            .sum();
                        bad += count.saturating_sub(within) as f64;
                    }
                }
                (bad, total)
            }
            SloSource::CounterFraction { bad, total } => (bad.sum(snap), total.sum(snap)),
        }
    }
}

/// One service-level objective: a named bad-event fraction with a
/// budget.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    /// Objective name, used as the `objective` label of every
    /// `csj_slo_*` series (e.g. `request_latency`, `shed_fraction`).
    pub name: String,
    /// Maximum tolerated bad-event fraction in (0, 1], e.g. 0.01 for a
    /// 99% objective.
    pub target: f64,
    /// Where `(bad, total)` comes from.
    pub source: SloSource,
}

/// One burn-rate evaluation window on the observation clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Window name, used as the `window` label (e.g. `5m`).
    pub name: &'static str,
    /// Window length, microseconds.
    pub len_us: u64,
}

/// The conventional fast/slow burn-rate pair: 5 minutes and 1 hour.
pub fn default_windows() -> Vec<WindowSpec> {
    vec![
        WindowSpec {
            name: "5m",
            len_us: 300_000_000,
        },
        WindowSpec {
            name: "1h",
            len_us: 3_600_000_000,
        },
    ]
}

/// One `(objective, window)` evaluation result.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// Objective name.
    pub objective: String,
    /// Window name.
    pub window: &'static str,
    /// Window length, microseconds.
    pub window_us: u64,
    /// The objective's bad-fraction budget.
    pub target: f64,
    /// Bad events in the window (cumulative delta).
    pub bad: f64,
    /// Total events in the window (cumulative delta).
    pub total: f64,
    /// `bad / total`, or 0 for a zero-traffic window.
    pub bad_fraction: f64,
    /// `bad_fraction / target`: 1.0 consumes the budget exactly as fast
    /// as allowed.
    pub burn_rate: f64,
    /// `burn_rate > 1.0`.
    pub breached: bool,
}

impl std::fmt::Display for SloStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}: burn {:.3} (bad {:.0}/{:.0} = {:.5}, target {:.5}){}",
            self.objective,
            self.window,
            self.burn_rate,
            self.bad,
            self.total,
            self.bad_fraction,
            self.target,
            if self.breached { " BREACHED" } else { "" }
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct SamplePoint {
    at_us: u64,
    bad: f64,
    total: f64,
}

struct WindowGauges {
    bad_fraction: Arc<FloatGauge>,
    burn_rate: Arc<FloatGauge>,
    breached: Arc<Gauge>,
}

struct ObjectiveState {
    objective: Objective,
    history: VecDeque<SamplePoint>,
    windows: Vec<WindowGauges>,
}

/// Evaluates a fixed set of [`Objective`]s over snapshots sampled on a
/// caller-supplied clock, exporting `csj_slo_*` gauges.
pub struct SloEngine {
    registry: MetricsRegistry,
    windows: Vec<WindowSpec>,
    max_window_us: u64,
    state: Mutex<Vec<ObjectiveState>>,
}

impl SloEngine {
    /// An engine evaluating `objectives` over `windows`. Gauges for
    /// every `(objective, window)` pair are registered up front so the
    /// exposition surface is stable from the first scrape.
    pub fn new(objectives: Vec<Objective>, windows: Vec<WindowSpec>) -> Self {
        let registry = MetricsRegistry::new();
        let max_window_us = windows.iter().map(|w| w.len_us).max().unwrap_or(0);
        let state = objectives
            .into_iter()
            .map(|objective| {
                let name = &objective.name;
                registry
                    .register(&catalog::SLO_TARGET, [name.clone()])
                    .set(objective.target);
                let window_gauges = windows
                    .iter()
                    .map(|w| {
                        let labels = || [name.clone(), w.name.to_string()];
                        WindowGauges {
                            bad_fraction: registry.register(&catalog::SLO_BAD_FRACTION, labels()),
                            burn_rate: registry.register(&catalog::SLO_BURN_RATE, labels()),
                            breached: registry.register(&catalog::SLO_BREACHED, labels()),
                        }
                    })
                    .collect();
                ObjectiveState {
                    objective,
                    history: VecDeque::new(),
                    windows: window_gauges,
                }
            })
            .collect();
        Self {
            registry,
            windows,
            max_window_us,
            state: Mutex::new(state),
        }
    }

    /// The configured windows.
    pub fn windows(&self) -> &[WindowSpec] {
        &self.windows
    }

    /// Sample `snap` at time `now_us` (cumulative counters; `now_us`
    /// must be monotone across calls — later samples with earlier
    /// timestamps are dropped).
    pub fn observe(&self, now_us: u64, snap: &MetricsSnapshot) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        for os in state.iter_mut() {
            if os.history.back().is_some_and(|last| last.at_us > now_us) {
                continue;
            }
            let (bad, total) = os.objective.source.extract(snap);
            os.history.push_back(SamplePoint {
                at_us: now_us,
                bad,
                total,
            });
            // Keep one sample at or beyond every window's edge so the
            // baseline lookup still has something to anchor on.
            let horizon = now_us.saturating_sub(self.max_window_us);
            while os.history.len() >= 2 && os.history[1].at_us <= horizon {
                os.history.pop_front();
            }
        }
    }

    /// Evaluate every `(objective, window)` pair at `now_us`, update
    /// the `csj_slo_*` gauges, and return the statuses in registration
    /// order.
    pub fn evaluate(&self, now_us: u64) -> Vec<SloStatus> {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::with_capacity(state.len() * self.windows.len());
        for os in state.iter() {
            let latest = os.history.back().copied();
            for (w, gauges) in self.windows.iter().zip(os.windows.iter()) {
                let start = now_us.saturating_sub(w.len_us);
                // Newest sample at or before the window start; a sample
                // exactly on the edge is the baseline. Fall back to the
                // oldest sample when the engine is younger than the
                // window.
                let baseline = os
                    .history
                    .iter()
                    .rev()
                    .find(|s| s.at_us <= start)
                    .or_else(|| os.history.front())
                    .copied();
                let (bad, total) = match (baseline, latest) {
                    (Some(b), Some(l)) if l.at_us > b.at_us => {
                        ((l.bad - b.bad).max(0.0), (l.total - b.total).max(0.0))
                    }
                    // One sample (or none): no delta yet. The first
                    // observation is the baseline, not traffic.
                    _ => (0.0, 0.0),
                };
                let bad_fraction = if total > 0.0 { bad / total } else { 0.0 };
                let target = os.objective.target;
                let burn_rate = if target > 0.0 {
                    bad_fraction / target
                } else if bad_fraction > 0.0 {
                    f64::INFINITY
                } else {
                    0.0
                };
                let breached = burn_rate > 1.0;
                gauges.bad_fraction.set(bad_fraction);
                gauges.burn_rate.set(burn_rate);
                gauges.breached.set(u64::from(breached));
                out.push(SloStatus {
                    objective: os.objective.name.clone(),
                    window: w.name,
                    window_us: w.len_us,
                    target,
                    bad,
                    total,
                    bad_fraction,
                    burn_rate,
                    breached,
                });
            }
        }
        out
    }

    /// Snapshot of the `csj_slo_*` gauges, for concatenation into the
    /// engine/service exposition.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// An `slo` span carrying one child per `(objective, window)` with
    /// the evaluation as attributes, so SLO state rides the trace
    /// stream next to the queries it judges.
    pub fn evaluation_span(now_us: u64, statuses: &[SloStatus]) -> Span {
        let mut root = Span::new("slo")
            .at(now_us, 0)
            .attr("objectives", statuses.len());
        for s in statuses {
            root.push_child(
                Span::new("objective")
                    .at(now_us, 0)
                    .attr("objective", s.objective.clone())
                    .attr("window", s.window)
                    .attr("target", s.target)
                    .attr("bad_fraction", s.bad_fraction)
                    .attr("burn_rate", s.burn_rate)
                    .attr("breached", u64::from(s.breached)),
            );
        }
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000;
    const BAD: catalog::Family<Gauge, 0> = catalog::Family::new("t_bad", "bad", &[]);
    const TOTAL: catalog::Family<Gauge, 0> = catalog::Family::new("t_all", "total", &[]);
    const REQ: catalog::Family<crate::LatencyHistogram, 1> =
        catalog::Family::new("t_req_seconds", "req", &["kind"]);

    fn fraction_objective(target: f64) -> Objective {
        Objective {
            name: "shed_fraction".into(),
            target,
            source: SloSource::CounterFraction {
                bad: CounterSelector::new(BAD.name(), &[]),
                total: CounterSelector::new(TOTAL.name(), &[]),
            },
        }
    }

    fn windows(len_us: u64) -> Vec<WindowSpec> {
        vec![WindowSpec { name: "w", len_us }]
    }

    /// Registry with a bad/total counter pair the tests advance.
    fn feed() -> (MetricsRegistry, Arc<Gauge>, Arc<Gauge>) {
        let reg = MetricsRegistry::new();
        // Gauges (set-able) standing in for cumulative counters.
        let bad = reg.register(&BAD, []);
        let total = reg.register(&TOTAL, []);
        (reg, bad, total)
    }

    #[test]
    fn burn_rate_is_bad_fraction_over_target() {
        let (reg, bad, total) = feed();
        let slo = SloEngine::new(vec![fraction_objective(0.01)], windows(100 * MS));
        slo.observe(0, &reg.snapshot());
        bad.set(2);
        total.set(100);
        slo.observe(50 * MS, &reg.snapshot());
        let s = &slo.evaluate(50 * MS)[0];
        assert_eq!((s.bad, s.total), (2.0, 100.0));
        assert!((s.bad_fraction - 0.02).abs() < 1e-12);
        assert!((s.burn_rate - 2.0).abs() < 1e-12);
        assert!(s.breached);
        // Gauges mirror the status.
        let snap = slo.snapshot();
        assert!(
            (snap.gauge_f64_value("csj_slo_burn_rate", &[("objective", "shed_fraction")]) - 2.0)
                .abs()
                < 1e-12
        );
        assert_eq!(
            snap.counter_value(
                "csj_slo_breached",
                &[("objective", "shed_fraction"), ("window", "w")]
            ),
            1
        );
        assert!(
            (snap.gauge_f64_value("csj_slo_target", &[("objective", "shed_fraction")]) - 0.01)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn budget_exactly_exhausted_is_not_a_breach() {
        let (reg, bad, total) = feed();
        let slo = SloEngine::new(vec![fraction_objective(0.05)], windows(100 * MS));
        slo.observe(0, &reg.snapshot());
        bad.set(5);
        total.set(100);
        slo.observe(10 * MS, &reg.snapshot());
        let s = &slo.evaluate(10 * MS)[0];
        assert!((s.burn_rate - 1.0).abs() < 1e-12, "{s:?}");
        assert!(!s.breached, "burn == 1.0 spends the budget exactly");
    }

    #[test]
    fn zero_traffic_window_burns_nothing() {
        let (reg, bad, total) = feed();
        let slo = SloEngine::new(vec![fraction_objective(0.01)], windows(10 * MS));
        bad.set(50);
        total.set(100);
        // Activity happened before the window under evaluation; inside
        // it the counters never move.
        slo.observe(0, &reg.snapshot());
        slo.observe(5 * MS, &reg.snapshot());
        slo.observe(100 * MS, &reg.snapshot());
        let s = &slo.evaluate(100 * MS)[0];
        assert_eq!((s.bad, s.total), (0.0, 0.0));
        assert_eq!(s.bad_fraction, 0.0);
        assert_eq!(s.burn_rate, 0.0, "no NaN, no phantom burn");
        assert!(!s.breached);
    }

    #[test]
    fn window_edge_sample_is_the_baseline() {
        let (reg, bad, total) = feed();
        let slo = SloEngine::new(vec![fraction_objective(0.5)], windows(10 * MS));
        slo.observe(0, &reg.snapshot());
        bad.set(1);
        total.set(10);
        // Exactly on the edge of the window evaluated at t=20ms.
        slo.observe(10 * MS, &reg.snapshot());
        bad.set(3);
        total.set(20);
        slo.observe(20 * MS, &reg.snapshot());
        let s = &slo.evaluate(20 * MS)[0];
        // Delta vs the edge sample, not vs t=0.
        assert_eq!((s.bad, s.total), (2.0, 10.0));
        assert!((s.bad_fraction - 0.2).abs() < 1e-12);
    }

    #[test]
    fn partial_window_clips_to_engine_lifetime() {
        let (reg, bad, total) = feed();
        let slo = SloEngine::new(vec![fraction_objective(0.5)], windows(3_600_000 * MS));
        slo.observe(0, &reg.snapshot());
        bad.set(4);
        total.set(8);
        slo.observe(10 * MS, &reg.snapshot());
        let s = &slo.evaluate(10 * MS)[0];
        assert_eq!((s.bad, s.total), (4.0, 8.0));
        assert!((s.burn_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_sample_yields_no_delta() {
        let (reg, bad, total) = feed();
        bad.set(7);
        total.set(9);
        let slo = SloEngine::new(vec![fraction_objective(0.1)], windows(10 * MS));
        slo.observe(5 * MS, &reg.snapshot());
        let s = &slo.evaluate(5 * MS)[0];
        assert_eq!(
            (s.bad, s.total),
            (0.0, 0.0),
            "pre-existing totals are the baseline, not traffic"
        );
    }

    #[test]
    fn history_prunes_but_keeps_a_baseline() {
        let (reg, _bad, total) = feed();
        let slo = SloEngine::new(vec![fraction_objective(0.1)], windows(10 * MS));
        for t in 0..100u64 {
            total.set(t);
            slo.observe(t * MS, &reg.snapshot());
        }
        let state = slo.state.lock().unwrap();
        let h = &state[0].history;
        assert!(h.len() <= 13, "history stays bounded, got {}", h.len());
        // One sample at or beyond the 10ms window edge survives.
        assert!(h.front().unwrap().at_us <= 89 * MS);
    }

    #[test]
    fn latency_above_splits_at_the_bound_and_sums_series() {
        let reg = MetricsRegistry::new();
        let fast = reg.register(&REQ, ["similarity".into()]);
        let slow = reg.register(&REQ, ["top_k".into()]);
        let slo = SloEngine::new(
            vec![Objective {
                name: "request_latency".into(),
                target: 0.25,
                source: SloSource::LatencyAbove {
                    histogram: REQ.name().into(),
                    labels: vec![],
                    threshold_us: 25_000,
                },
            }],
            windows(100 * MS),
        );
        slo.observe(0, &reg.snapshot());
        fast.observe_us(100); // good
        fast.observe_us(25_000); // on the bound: good (<= threshold)
        slow.observe_us(25_001); // bad
        slow.observe_us(90_000); // bad
        slo.observe(10 * MS, &reg.snapshot());
        let s = &slo.evaluate(10 * MS)[0];
        assert_eq!((s.bad, s.total), (2.0, 4.0));
        assert!((s.bad_fraction - 0.5).abs() < 1e-12);
        assert!((s.burn_rate - 2.0).abs() < 1e-12);
        assert!(s.breached);
    }

    #[test]
    fn multi_window_statuses_and_exposition() {
        let (reg, bad, total) = feed();
        let slo = SloEngine::new(
            vec![fraction_objective(0.1)],
            vec![
                WindowSpec {
                    name: "fast",
                    len_us: 10 * MS,
                },
                WindowSpec {
                    name: "slow",
                    len_us: 1000 * MS,
                },
            ],
        );
        slo.observe(0, &reg.snapshot());
        bad.set(10);
        total.set(50);
        slo.observe(95 * MS, &reg.snapshot());
        bad.set(10);
        total.set(60);
        slo.observe(105 * MS, &reg.snapshot());
        let statuses = slo.evaluate(105 * MS);
        assert_eq!(statuses.len(), 2);
        let fast = statuses.iter().find(|s| s.window == "fast").unwrap();
        let slow = statuses.iter().find(|s| s.window == "slow").unwrap();
        // The fast window only saw the last (clean) 10 requests.
        assert_eq!((fast.bad, fast.total), (0.0, 10.0));
        assert!(!fast.breached);
        // The slow window saw everything.
        assert_eq!((slow.bad, slow.total), (10.0, 60.0));
        assert!(slow.breached);
        let text = slo.snapshot().to_prometheus();
        assert!(text.contains("# TYPE csj_slo_burn_rate gauge"), "{text}");
        assert!(text.contains("# TYPE csj_slo_bad_fraction gauge"), "{text}");
        assert!(text.contains("# TYPE csj_slo_breached gauge"), "{text}");
        assert!(text.contains("# TYPE csj_slo_target gauge"), "{text}");
        assert!(
            text.contains("csj_slo_burn_rate{objective=\"shed_fraction\",window=\"fast\"} 0"),
            "{text}"
        );
    }

    #[test]
    fn each_slo_family_renders_once_and_contiguous() {
        let mut other = fraction_objective(0.2);
        other.name = "degraded_fraction".into();
        let slo = SloEngine::new(
            vec![fraction_objective(0.1), other],
            vec![
                WindowSpec {
                    name: "fast",
                    len_us: 10 * MS,
                },
                WindowSpec {
                    name: "slow",
                    len_us: 1000 * MS,
                },
            ],
        );
        let text = slo.snapshot().to_prometheus();
        let lines: Vec<&str> = text.lines().collect();
        for family in [
            "csj_slo_target",
            "csj_slo_bad_fraction",
            "csj_slo_burn_rate",
            "csj_slo_breached",
        ] {
            let ty = format!("# TYPE {family} gauge");
            assert_eq!(lines.iter().filter(|l| **l == ty).count(), 1, "{text}");
            let at: Vec<usize> = (0..lines.len())
                .filter(|&i| lines[i].starts_with(&format!("{family}{{")))
                .collect();
            let expected = if family == "csj_slo_target" { 2 } else { 4 };
            assert_eq!(at.len(), expected, "{text}");
            assert_eq!(
                at[at.len() - 1] - at[0] + 1,
                at.len(),
                "{family} not contiguous: {text}"
            );
        }
    }

    #[test]
    fn evaluation_span_carries_statuses() {
        let (reg, bad, total) = feed();
        let slo = SloEngine::new(vec![fraction_objective(0.01)], windows(10 * MS));
        slo.observe(0, &reg.snapshot());
        bad.set(1);
        total.set(2);
        slo.observe(5 * MS, &reg.snapshot());
        let statuses = slo.evaluate(5 * MS);
        let span = SloEngine::evaluation_span(5 * MS, &statuses);
        assert_eq!(span.name, "slo");
        assert_eq!(span.children.len(), 1);
        let child = &span.children[0];
        assert_eq!(
            child.get_attr("objective"),
            Some(&crate::span::AttrValue::Str("shed_fraction".into()))
        );
        assert_eq!(
            child.get_attr("breached"),
            Some(&crate::span::AttrValue::U64(1))
        );
    }

    #[test]
    fn out_of_order_observations_are_dropped() {
        let (reg, bad, total) = feed();
        let slo = SloEngine::new(vec![fraction_objective(0.1)], windows(100 * MS));
        slo.observe(50 * MS, &reg.snapshot());
        bad.set(90);
        total.set(90);
        slo.observe(10 * MS, &reg.snapshot()); // stale clock: ignored
        bad.set(1);
        total.set(10);
        slo.observe(60 * MS, &reg.snapshot());
        let s = &slo.evaluate(60 * MS)[0];
        assert_eq!((s.bad, s.total), (1.0, 10.0));
    }
}
