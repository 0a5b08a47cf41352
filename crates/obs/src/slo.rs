//! Declarative SLOs evaluated over a run's cumulative counters.
//!
//! An [`Objective`] budgets a *bad-event fraction* ("no more than 1% of
//! requests slower than 25 ms") read from existing catalog families: a
//! latency histogram split at a bucket bound, or a bad/total pair of
//! counter selections. [`evaluate`] turns one [`MetricsSnapshot`] into
//! each objective's **burn rate**, `bad_fraction / target`: 1.0 spends
//! the budget exactly as fast as allowed, above 1.0 is a breach, and no
//! traffic burns nothing. [`gauges`] renders the `csj_slo_*` gauges.
//!
//! Selections are typed by the family's instrument. A histogram where a
//! counter is expected fails to compile, and so does the reverse:
//! ```compile_fail,E0308
//! # use csj_obs::{catalog::*, Selector, SloSource};
//! let bad = Selector::all(&SERVICE_REQUEST);
//! let _ = SloSource::CounterFraction { bad, total: Selector::all(&QUERIES) };
//! ```
//! ```compile_fail,E0308
//! # use csj_obs::{catalog::*, Selector, SloSource};
//! let _ = SloSource::LatencyAbove { histogram: Selector::all(&QUERIES), threshold_us: 1 };
//! ```

use std::marker::PhantomData;

use crate::catalog::{Family, SLO_BAD_FRACTION, SLO_BREACHED, SLO_BURN_RATE, SLO_TARGET};
use crate::metrics::{
    Counter, Instrument, LatencyHistogram, MetricsRegistry, MetricsSnapshot, SampleValue,
    LATENCY_BOUNDS_US,
};

/// Series of one catalog family, summed by an objective: every series of
/// the family, or the one carrying given label values. `I` is the
/// family's instrument, so a selection stands only where it is expected.
#[derive(Debug)]
pub struct Selector<I> {
    name: &'static str,
    // Label values in catalog order; empty selects every series.
    values: Vec<&'static str>,
    _instrument: PhantomData<fn() -> I>,
}

impl<I: Instrument> Selector<I> {
    /// Every series of `family`.
    pub fn all<const N: usize>(family: &Family<I, N>) -> Self {
        Self {
            name: family.name(),
            values: Vec::new(),
            _instrument: PhantomData,
        }
    }

    /// The series of `family` carrying `values`, one per label key in
    /// catalog order (as [`MetricsSnapshot::value`] reads).
    pub fn series<const N: usize>(family: &Family<I, N>, values: [&'static str; N]) -> Self {
        Self {
            values: values.to_vec(),
            ..Self::all(family)
        }
    }

    /// Sum `f` over the selected series.
    fn sum(&self, snap: &MetricsSnapshot, f: impl Fn(&SampleValue) -> u64) -> u64 {
        snap.metrics
            .iter()
            .filter(|m| m.name == self.name)
            .filter(|m| m.labels.iter().zip(&self.values).all(|((_, v), w)| v == w))
            .map(|m| f(&m.value))
            .sum()
    }
}

/// Where an objective's cumulative `(bad, total)` pair comes from.
#[derive(Debug)]
pub enum SloSource {
    /// `bad` = observations above `threshold_us` across the selected
    /// series, `total` = their count. The split is exact on a bucket
    /// bound; between bounds the threshold rounds up to the next bound.
    LatencyAbove {
        /// Histogram series to split.
        histogram: Selector<LatencyHistogram>,
        /// Bad-event threshold, microseconds.
        threshold_us: u64,
    },
    /// `bad` and `total` are counter sums (e.g. shed vs submitted).
    CounterFraction {
        /// Counter series of bad events.
        bad: Selector<Counter>,
        /// Counter series of all events.
        total: Selector<Counter>,
    },
}

impl SloSource {
    fn read(&self, snap: &MetricsSnapshot) -> (u64, u64) {
        match self {
            SloSource::LatencyAbove {
                histogram,
                threshold_us,
            } => {
                // Latency series share `LATENCY_BOUNDS_US`; bucket `k` and
                // up hold the observations above the threshold.
                let k = LATENCY_BOUNDS_US.partition_point(|b| b <= threshold_us);
                let above = |value: &SampleValue| match value {
                    SampleValue::Histogram { buckets, .. } => buckets.iter().skip(k).sum(),
                    _ => 0,
                };
                (histogram.sum(snap, above), histogram.sum(snap, count))
            }
            SloSource::CounterFraction { bad, total } => {
                (bad.sum(snap, count), total.sum(snap, count))
            }
        }
    }
}

/// Events a counter or histogram sample counted.
fn count(value: &SampleValue) -> u64 {
    match value {
        SampleValue::Counter(n) | SampleValue::Histogram { count: n, .. } => *n,
        _ => 0,
    }
}

/// One service-level objective: a named bad-event fraction budget.
#[derive(Debug)]
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

/// One objective's evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// Objective name.
    pub objective: String,
    /// The objective's bad-fraction budget.
    pub target: f64,
    /// Bad events counted.
    pub bad: u64,
    /// All events counted.
    pub total: u64,
    /// `bad / total`, or 0 without traffic.
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
            "{}: burn {:.3} (bad {}/{} = {:.5}, target {:.5}){}",
            self.objective,
            self.burn_rate,
            self.bad,
            self.total,
            self.bad_fraction,
            self.target,
            if self.breached { " BREACHED" } else { "" }
        )
    }
}

/// Evaluate each objective over the cumulative counters in `snap`.
pub fn evaluate(objectives: &[Objective], snap: &MetricsSnapshot) -> Vec<SloStatus> {
    objectives
        .iter()
        .map(|o| {
            let (bad, total) = o.source.read(snap);
            let bad_fraction = if total > 0 {
                bad as f64 / total as f64
            } else {
                0.0
            };
            // Division by a zero budget burns infinitely on a bad event.
            let burn_rate = if bad_fraction > 0.0 {
                bad_fraction / o.target
            } else {
                0.0
            };
            SloStatus {
                objective: o.name.clone(),
                target: o.target,
                bad,
                total,
                bad_fraction,
                burn_rate,
                breached: burn_rate > 1.0,
            }
        })
        .collect()
}

/// The statuses as `csj_slo_*` gauges, one series per objective.
pub fn gauges(statuses: &[SloStatus]) -> MetricsSnapshot {
    let reg = MetricsRegistry::new();
    for s in statuses {
        let o = || [s.objective.clone()];
        reg.register(&SLO_TARGET, o()).set(s.target);
        reg.register(&SLO_BAD_FRACTION, o()).set(s.bad_fraction);
        reg.register(&SLO_BURN_RATE, o()).set(s.burn_rate);
        reg.register(&SLO_BREACHED, o()).set(u64::from(s.breached));
    }
    reg.snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BAD: Family<Counter, 0> = Family::new("t_bad_total", "bad", &[]);
    const TOTAL: Family<Counter, 1> = Family::new("t_all_total", "total", &["kind"]);
    const REQ: Family<LatencyHistogram, 1> = Family::new("t_req_seconds", "req", &["kind"]);

    fn fraction_objective(target: f64) -> Objective {
        Objective {
            name: "shed_fraction".into(),
            target,
            source: SloSource::CounterFraction {
                bad: Selector::all(&BAD),
                total: Selector::all(&TOTAL),
            },
        }
    }

    /// A snapshot with `bad` bad events out of `total`, the total split
    /// over two series of a labelled family.
    fn counts(bad: u64, total: u64) -> MetricsSnapshot {
        let reg = MetricsRegistry::new();
        reg.register(&BAD, []).add(bad);
        reg.register(&TOTAL, ["a".into()]).add(total / 2);
        reg.register(&TOTAL, ["b".into()]).add(total - total / 2);
        reg.snapshot()
    }

    #[test]
    fn burn_rate_is_bad_fraction_over_target() {
        let statuses = evaluate(&[fraction_objective(0.01)], &counts(2, 100));
        let s = &statuses[0];
        assert_eq!((s.bad, s.total), (2, 100));
        assert!((s.bad_fraction - 0.02).abs() < 1e-12);
        assert!((s.burn_rate - 2.0).abs() < 1e-12);
        assert!(s.breached);
        // Gauges mirror the status.
        let snap = gauges(&statuses);
        let objective = [("objective", "shed_fraction")];
        assert!((snap.gauge_f64_value("csj_slo_burn_rate", &objective) - 2.0).abs() < 1e-12);
        assert_eq!(snap.value(&SLO_BREACHED, ["shed_fraction"]), 1);
        assert!((snap.gauge_f64_value("csj_slo_target", &objective) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn budget_exactly_exhausted_is_not_a_breach() {
        let s = &evaluate(&[fraction_objective(0.05)], &counts(5, 100))[0];
        assert!((s.burn_rate - 1.0).abs() < 1e-12, "{s:?}");
        assert!(!s.breached, "burn == 1.0 spends the budget exactly");
    }

    #[test]
    fn zero_traffic_burns_nothing() {
        for target in [0.01, 0.0] {
            let s = &evaluate(&[fraction_objective(target)], &counts(0, 0))[0];
            assert_eq!((s.bad, s.total), (0, 0));
            assert_eq!(s.bad_fraction, 0.0);
            assert_eq!(s.burn_rate, 0.0, "no NaN, no phantom burn");
            assert!(!s.breached);
        }
        // A zero budget is breached by the first bad event.
        let s = &evaluate(&[fraction_objective(0.0)], &counts(1, 10))[0];
        assert_eq!(s.burn_rate, f64::INFINITY);
        assert!(s.breached);
    }

    #[test]
    fn latency_above_splits_at_the_bound_and_sums_series() {
        let reg = MetricsRegistry::new();
        let fast = reg.register(&REQ, ["similarity".into()]);
        let slow = reg.register(&REQ, ["top_k".into()]);
        fast.observe_us(100); // good
        fast.observe_us(25_000); // on the bound: good (<= threshold)
        slow.observe_us(25_001); // bad
        slow.observe_us(90_000); // bad
        let objective = Objective {
            name: "request_latency".into(),
            target: 0.25,
            source: SloSource::LatencyAbove {
                histogram: Selector::all(&REQ),
                threshold_us: 25_000,
            },
        };
        let s = &evaluate(&[objective], &reg.snapshot())[0];
        assert_eq!((s.bad, s.total), (2, 4));
        assert!((s.bad_fraction - 0.5).abs() < 1e-12);
        assert!((s.burn_rate - 2.0).abs() < 1e-12);
        assert!(s.breached);
    }

    #[test]
    fn each_slo_family_renders_once_and_contiguous() {
        let mut other = fraction_objective(0.2);
        other.name = "degraded_fraction".into();
        let statuses = evaluate(&[fraction_objective(0.1), other], &counts(1, 4));
        let text = gauges(&statuses).to_prometheus();
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
            assert_eq!(at.len(), 2, "one sample per objective: {text}");
            assert_eq!(at[1], at[0] + 1, "{family} not contiguous: {text}");
        }
        assert!(
            text.contains("csj_slo_burn_rate{objective=\"shed_fraction\"} 2.5"),
            "{text}"
        );
    }
}
