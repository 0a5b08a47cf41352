//! Metrics registry: named counters, gauges and histograms with
//! Prometheus text-format and JSON exposition.
//!
//! Hot-path instruments ([`Counter`], [`Gauge`], [`LatencyHistogram`])
//! are plain atomics — safe to hammer from the parallel screening
//! workers without coordination. [`LogHistogramCell`] wraps
//! `csj_core::telemetry::LogHistogram` in a mutex because it is merged
//! per join (coarse granularity), not per observation.
//!
//! Every series belongs to a family declared in [`crate::catalog`];
//! labels are fixed at registration so exposition is a pure read of the
//! registry.

use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use csj_core::telemetry::{LogHistogram, HISTOGRAM_BUCKETS};

use crate::catalog::{Family, Label};

/// Monotone counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins floating-point gauge (the f64 bits live in an
/// `AtomicU64`), for fractional series like SLO burn rates where an
/// integer gauge would round everything interesting away.
#[derive(Debug, Default)]
pub struct FloatGauge(AtomicU64);

impl FloatGauge {
    /// Set the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Fixed upper bounds (microseconds) for join/query latency
/// histograms: 50µs … 10s. Joins on paper-scale communities span five
/// orders of magnitude depending on method and eps, hence the wide,
/// roughly-logarithmic ladder.
pub const LATENCY_BOUNDS_US: [u64; 12] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 100_000, 1_000_000, 10_000_000,
];

/// Fixed-boundary latency histogram over [`LATENCY_BOUNDS_US`]
/// (cumulative-on-read, atomic per-bucket counts). Bucket `i` counts
/// observations `<= LATENCY_BOUNDS_US[i]`; the final implicit bucket is
/// `+Inf`.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BOUNDS_US.len() + 1],
    // Per-bucket exemplar slot: the trace id of the last observation
    // that landed in the bucket (0 = none). Links a hot bucket back to
    // a concrete flight-recorder / slow-query-log record.
    exemplars: [AtomicU64; LATENCY_BOUNDS_US.len() + 1],
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation in microseconds.
    pub fn observe_us(&self, us: u64) {
        self.observe_us_with_exemplar(us, 0);
    }

    /// Record one observation and stamp the bucket's exemplar slot with
    /// `trace_id` (last writer wins; 0 means "no exemplar" and is
    /// ignored), so a hot bucket can be traced back to a concrete
    /// query record.
    pub fn observe_us_with_exemplar(&self, us: u64, trace_id: u64) {
        let idx = LATENCY_BOUNDS_US.partition_point(|&b| b < us);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        if trace_id != 0 {
            self.exemplars[idx].store(trace_id, Ordering::Relaxed);
        }
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one observation from a [`std::time::Duration`].
    pub fn observe(&self, elapsed: std::time::Duration) {
        self.observe_us(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations, microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }
}

/// A mergeable cell around `csj_core`'s [`LogHistogram`], for depth
/// distributions that the kernel already aggregates per join. The sum
/// is tracked separately (the log histogram only keeps bucket counts)
/// so Prometheus `_sum` stays meaningful.
#[derive(Debug, Default)]
pub struct LogHistogramCell {
    hist: Mutex<LogHistogram>,
    sum: AtomicU64,
}

impl LogHistogramCell {
    /// Fold a per-join histogram (and the corresponding sum of its
    /// observations) into the cell. Recovers from a poisoned lock: the
    /// histogram is plain-old-data, so a panicked holder cannot leave it
    /// half-updated in a way that matters more than a lost sample.
    pub fn merge(&self, other: &LogHistogram, sum_delta: u64) {
        self.hist
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .merge(other);
        self.sum.fetch_add(sum_delta, Ordering::Relaxed);
    }

    /// Copy out the current histogram.
    pub fn load(&self) -> LogHistogram {
        *self.hist.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Sum of all merged observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
}

/// What an instrument measures. The kind fixes a family's Prometheus
/// type and the naming rules its name must obey (see
/// [`crate::catalog`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// [`Counter`].
    Counter,
    /// [`Gauge`].
    Gauge,
    /// [`FloatGauge`].
    FloatGauge,
    /// [`LatencyHistogram`] over [`LATENCY_BOUNDS_US`].
    Latency,
    /// [`LogHistogramCell`].
    LogHistogram,
}

impl Kind {
    /// The Prometheus `# TYPE`.
    pub fn prom_type(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge | Kind::FloatGauge => "gauge",
            Kind::Latency | Kind::LogHistogram => "histogram",
        }
    }

    /// The kind of instrument a captured value was read from.
    pub fn of(value: &SampleValue) -> Kind {
        match value {
            SampleValue::Counter(_) => Kind::Counter,
            SampleValue::Gauge(_) => Kind::Gauge,
            SampleValue::GaugeF64(_) => Kind::FloatGauge,
            SampleValue::Histogram { bounds_us, .. } if bounds_us[..] == LATENCY_BOUNDS_US => {
                Kind::Latency
            }
            SampleValue::Histogram { .. } => Kind::LogHistogram,
        }
    }
}

/// An instrument type a [`Family`] can be declared with.
pub trait Instrument: Default + Send + Sync + 'static {
    /// The instrument's kind.
    const KIND: Kind;
    /// Capture the current value.
    fn read(&self) -> SampleValue;
}

impl Instrument for Counter {
    const KIND: Kind = Kind::Counter;
    fn read(&self) -> SampleValue {
        SampleValue::Counter(self.get())
    }
}

impl Instrument for Gauge {
    const KIND: Kind = Kind::Gauge;
    fn read(&self) -> SampleValue {
        SampleValue::Gauge(self.get())
    }
}

impl Instrument for FloatGauge {
    const KIND: Kind = Kind::FloatGauge;
    fn read(&self) -> SampleValue {
        SampleValue::GaugeF64(self.get())
    }
}

impl Instrument for LatencyHistogram {
    const KIND: Kind = Kind::Latency;
    fn read(&self) -> SampleValue {
        let load = |slots: &[AtomicU64]| -> Vec<u64> {
            slots.iter().map(|s| s.load(Ordering::Relaxed)).collect()
        };
        let exemplars = load(&self.exemplars);
        SampleValue::Histogram {
            bounds_us: LATENCY_BOUNDS_US.to_vec(),
            buckets: load(&self.buckets),
            // Omitted until some bucket has recorded an exemplar.
            exemplars: if exemplars.iter().all(|&id| id == 0) {
                Vec::new()
            } else {
                exemplars
            },
            sum_us: self.sum_us(),
            count: self.count(),
        }
    }
}

impl Instrument for LogHistogramCell {
    const KIND: Kind = Kind::LogHistogram;
    fn read(&self) -> SampleValue {
        let hist = self.load();
        SampleValue::Histogram {
            bounds_us: log_bucket_bounds(),
            buckets: (0..HISTOGRAM_BUCKETS).map(|i| hist.bucket(i)).collect(),
            exemplars: Vec::new(),
            sum_us: self.sum(),
            count: hist.count(),
        }
    }
}

struct MetricEntry {
    name: &'static str,
    help: &'static str,
    labels: Vec<(&'static str, String)>,
    read: Box<dyn Fn() -> SampleValue + Send + Sync>,
}

/// The series of one labelled family, indexed by label value: updating
/// one is a vector index plus the instrument's own atomic.
pub struct ByLabel<I, L, const N: usize = 1> {
    // One series per `L::ALL` value, then the unexported sink.
    series: Vec<Arc<I>>,
    _label: PhantomData<fn(L)>,
}

impl<I, L: Label<N>, const N: usize> ByLabel<I, L, N> {
    /// The series for `label`.
    pub fn get(&self, label: L) -> &I {
        &self.series[label.index()]
    }
}

/// Registry of instruments, each one series of a catalog [`Family`].
/// Registration order is preserved in every snapshot.
#[derive(Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<MetricEntry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register one series of `family` with the given label values, one
    /// per key.
    pub fn register<I: Instrument, const N: usize>(
        &self,
        family: &Family<I, N>,
        values: [String; N],
    ) -> Arc<I> {
        let instrument = Arc::new(I::default());
        let reader = Arc::clone(&instrument);
        let info = family.info;
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(MetricEntry {
                name: info.name,
                help: info.help,
                labels: info.labels.iter().copied().zip(values).collect(),
                read: Box::new(move || reader.read()),
            });
        instrument
    }

    /// Register one series of `family` per value of `L`.
    pub fn register_each<I: Instrument, L: Label<N>, const N: usize>(
        &self,
        family: &Family<I, N>,
    ) -> ByLabel<I, L, N> {
        debug_assert!(L::ALL.iter().enumerate().all(|(i, l)| l.index() == i));
        let mut series: Vec<Arc<I>> = L::ALL
            .iter()
            .map(|l| self.register(family, l.values().map(String::from)))
            .collect();
        series.push(Arc::default());
        ByLabel {
            series,
            _label: PhantomData,
        }
    }

    /// A point-in-time copy of every registered time series. Like every
    /// registry operation this recovers from a poisoned lock, so one
    /// panicked worker can never cascade a stats panic into every later
    /// scrape.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        MetricsSnapshot {
            metrics: entries
                .iter()
                .map(|e| MetricSample {
                    name: e.name,
                    help: e.help,
                    labels: e.labels.clone(),
                    value: (e.read)(),
                })
                .collect(),
        }
    }
}

/// Upper bounds for the log2 histogram's Prometheus rendering: bucket
/// 0 holds zeros (`le="0"`), bucket k (1 <= k <= 14) holds values in
/// `[2^(k-1), 2^k)` i.e. `le = 2^k - 1`, and the last bucket is open
/// (`+Inf`, not listed here).
fn log_bucket_bounds() -> Vec<u64> {
    let mut bounds = vec![0u64];
    bounds.extend((1..HISTOGRAM_BUCKETS - 1).map(|k| (1u64 << k) - 1));
    bounds
}

/// One time series captured by [`MetricsRegistry::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Metric name (`csj_*`).
    pub name: &'static str,
    /// Prometheus `# HELP` text.
    pub help: &'static str,
    /// Fixed label set, e.g. `[("method", "ap-minmax")]`.
    pub labels: Vec<(&'static str, String)>,
    /// The captured value.
    pub value: SampleValue,
}

/// Captured value of one time series.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Monotone counter.
    Counter(u64),
    /// Gauge.
    Gauge(u64),
    /// Floating-point gauge (SLO burn rates, fractions).
    GaugeF64(f64),
    /// Histogram: non-cumulative `buckets` (one per bound plus a final
    /// `+Inf` bucket), plus sum/count. `bounds_us` are microseconds for
    /// latency series and raw values for depth series.
    Histogram {
        /// Upper bounds, ascending; one fewer than `buckets`.
        bounds_us: Vec<u64>,
        /// Per-bucket counts (not cumulative).
        buckets: Vec<u64>,
        /// Per-bucket exemplar trace ids (0 = none); empty when the
        /// instrument never recorded an exemplar. JSON-only — the
        /// Prometheus 0.0.4 text format has no exemplar syntax.
        exemplars: Vec<u64>,
        /// Sum of all observations.
        sum_us: u64,
        /// Total observations.
        count: u64,
    },
}

/// Point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// All time series, in registration order.
    pub metrics: Vec<MetricSample>,
}

impl MetricsSnapshot {
    /// Find the first sample named `name` whose labels include every
    /// pair in `labels`.
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricSample> {
        self.metrics.iter().find(|m| {
            m.name == name
                && labels
                    .iter()
                    .all(|(k, v)| m.labels.iter().any(|(mk, mv)| mk == k && mv == v))
        })
    }

    /// Convenience: counter value of `find(name, labels)`, or 0 when
    /// the series is absent.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.find(name, labels).map(|m| &m.value) {
            Some(SampleValue::Counter(v)) | Some(SampleValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Convenience: floating-point gauge value of `find(name, labels)`,
    /// or 0.0 when the series is absent (integer series are widened).
    pub fn gauge_f64_value(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        match self.find(name, labels).map(|m| &m.value) {
            Some(SampleValue::GaugeF64(v)) => *v,
            Some(SampleValue::Counter(v)) | Some(SampleValue::Gauge(v)) => *v as f64,
            _ => 0.0,
        }
    }

    /// Counter or integer gauge value of `family`'s series carrying
    /// `values` (one per label key), or 0 when the series is absent.
    pub fn value<I: Instrument, const N: usize>(
        &self,
        family: &Family<I, N>,
        values: [&str; N],
    ) -> u64 {
        let info = family.info;
        let labels: Vec<(&str, &str)> = info.labels.iter().copied().zip(values).collect();
        self.counter_value(info.name, &labels)
    }

    /// Render the snapshot in Prometheus text exposition format
    /// (version 0.0.4): each family once, with one `# HELP`, one
    /// `# TYPE` and its samples contiguous, in first-seen order, however
    /// merged snapshots interleave them. Histogram `le` bounds and
    /// `_sum` are emitted in seconds for `*_seconds` metrics and raw
    /// units otherwise.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut families: Vec<Vec<&MetricSample>> = Vec::new();
        let mut slot: HashMap<&str, usize> = HashMap::new();
        for m in &self.metrics {
            let i = *slot.entry(m.name).or_insert_with(|| {
                families.push(Vec::new());
                families.len() - 1
            });
            families[i].push(m);
        }
        let mut out = String::with_capacity(4096);
        for family in families {
            let head = family[0];
            let _ = writeln!(out, "# HELP {} {}", head.name, head.help);
            let _ = writeln!(
                out,
                "# TYPE {} {}",
                head.name,
                Kind::of(&head.value).prom_type()
            );
            for m in family {
                write_prom_sample(&mut out, m);
            }
        }
        out
    }

    /// Render the snapshot as one JSON object keyed by metric name;
    /// labelled series become arrays of `{labels, value}` objects.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        out.push_str("{\"metrics\":[");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\"", m.name);
            if !m.labels.is_empty() {
                out.push_str(",\"labels\":{");
                for (j, (k, v)) in m.labels.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{k}\":\"");
                    crate::span::escape_json(v, &mut out);
                    out.push('"');
                }
                out.push('}');
            }
            match &m.value {
                SampleValue::Counter(v) => {
                    let _ = write!(out, ",\"type\":\"counter\",\"value\":{v}");
                }
                SampleValue::Gauge(v) => {
                    let _ = write!(out, ",\"type\":\"gauge\",\"value\":{v}");
                }
                SampleValue::GaugeF64(v) if v.is_finite() => {
                    let _ = write!(out, ",\"type\":\"gauge\",\"value\":{v}");
                }
                // JSON has no NaN/Inf; stringify like span attrs do.
                SampleValue::GaugeF64(v) => {
                    let _ = write!(out, ",\"type\":\"gauge\",\"value\":\"{v}\"");
                }
                SampleValue::Histogram {
                    bounds_us,
                    buckets,
                    exemplars,
                    sum_us,
                    count,
                } => {
                    out.push_str(",\"type\":\"histogram\",\"bounds\":[");
                    for (j, b) in bounds_us.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{b}");
                    }
                    out.push_str("],\"buckets\":[");
                    for (j, b) in buckets.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{b}");
                    }
                    out.push(']');
                    if !exemplars.is_empty() {
                        out.push_str(",\"exemplars\":[");
                        for (j, e) in exemplars.iter().enumerate() {
                            if j > 0 {
                                out.push(',');
                            }
                            let _ = write!(out, "{e}");
                        }
                        out.push(']');
                    }
                    let _ = write!(out, ",\"sum\":{sum_us},\"count\":{count}");
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

fn write_prom_sample(out: &mut String, m: &MetricSample) {
    use std::fmt::Write as _;
    let labels = prom_labels(&m.labels, &[]);
    match &m.value {
        SampleValue::Counter(v) | SampleValue::Gauge(v) => {
            let _ = writeln!(out, "{}{labels} {v}", m.name);
        }
        // Prometheus accepts NaN/Inf sample values verbatim.
        SampleValue::GaugeF64(v) => {
            let _ = writeln!(out, "{}{labels} {v}", m.name);
        }
        SampleValue::Histogram {
            bounds_us,
            buckets,
            sum_us,
            count,
            ..
        } => {
            let unit = |us: u64| {
                if m.name.ends_with("_seconds") {
                    (us as f64 / 1e6).to_string()
                } else {
                    us.to_string()
                }
            };
            let mut cumulative = 0u64;
            for (&bound, n) in bounds_us.iter().zip(buckets) {
                cumulative += n;
                let le = prom_labels(&m.labels, &[("le", &unit(bound))]);
                let _ = writeln!(out, "{}_bucket{le} {cumulative}", m.name);
            }
            let inf = prom_labels(&m.labels, &[("le", "+Inf")]);
            let _ = writeln!(out, "{}_bucket{inf} {count}", m.name);
            let _ = writeln!(out, "{}_sum{labels} {}", m.name, unit(*sum_us));
            let _ = writeln!(out, "{}_count{labels} {count}", m.name);
        }
    }
}

fn prom_labels(fixed: &[(&'static str, String)], extra: &[(&str, &str)]) -> String {
    if fixed.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in fixed
        .iter()
        .map(|(k, v)| (*k, v.as_str()))
        .chain(extra.iter().copied())
    {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        // Prometheus label escaping: backslash, double-quote, newline.
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_TOTAL: Family<Counter, 1> =
        Family::new("csj_test_total", "test counter", &["method"]);
    const TEST_GAUGE: Family<Gauge, 0> = Family::new("csj_test_gauge", "test gauge", &[]);
    const JOINS: Family<Counter, 1> = Family::new("csj_joins_total", "joins", &["method"]);
    const JOIN_LATENCY: Family<LatencyHistogram, 1> =
        Family::new("csj_join_latency_seconds", "join latency", &["method"]);
    const LATENCY: Family<LatencyHistogram, 0> =
        Family::new("csj_join_latency_seconds", "latency", &[]);
    const DEPTH: Family<LogHistogramCell, 0> =
        Family::new("csj_candidate_stream_depth", "depth", &[]);
    const BURN: Family<FloatGauge, 2> =
        Family::new("csj_slo_burn_rate", "burn", &["objective", "window"]);

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.register(&TEST_TOTAL, ["ap-minmax".into()]);
        let g = reg.register(&TEST_GAUGE, []);
        c.inc();
        c.add(4);
        g.set(7);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter_value("csj_test_total", &[("method", "ap-minmax")]),
            5
        );
        assert_eq!(snap.counter_value("csj_test_gauge", &[]), 7);
        assert_eq!(snap.value(&TEST_TOTAL, ["ap-minmax"]), 5);
        assert_eq!(snap.value(&TEST_TOTAL, ["ex-minmax"]), 0);
        assert_eq!(snap.counter_value("csj_missing", &[]), 0);
    }

    #[test]
    fn latency_histogram_bucketing() {
        let h = LatencyHistogram::new();
        h.observe_us(1); // <= 50
        h.observe_us(50); // boundary is inclusive
        h.observe_us(51); // next bucket
        h.observe_us(20_000_000); // beyond the last bound → +Inf
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum_us(), 20_000_102);
        let SampleValue::Histogram {
            buckets: counts, ..
        } = h.read()
        else {
            unreachable!()
        };
        assert_eq!(counts[0], 2);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[LATENCY_BOUNDS_US.len()], 1);
    }

    #[test]
    fn prometheus_histogram_is_cumulative_in_seconds() {
        let reg = MetricsRegistry::new();
        let h = reg.register(&JOIN_LATENCY, ["ex-minmax".into()]);
        h.observe_us(60); // second bucket (le=100µs)
        h.observe_us(200_000); // le=1s bucket
        let text = reg.snapshot().to_prometheus();
        assert!(
            text.contains("# HELP csj_join_latency_seconds join latency"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE csj_join_latency_seconds histogram"),
            "{text}"
        );
        // Bounds render in seconds; the le=0.0001 (100µs) line is
        // cumulative so it holds 1, the le=1 line holds 2.
        assert!(
            text.contains("csj_join_latency_seconds_bucket{method=\"ex-minmax\",le=\"0.0001\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("csj_join_latency_seconds_bucket{method=\"ex-minmax\",le=\"1\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("csj_join_latency_seconds_bucket{method=\"ex-minmax\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("csj_join_latency_seconds_sum{method=\"ex-minmax\"} 0.20006"),
            "{text}"
        );
        assert!(
            text.contains("csj_join_latency_seconds_count{method=\"ex-minmax\"} 2"),
            "{text}"
        );
    }

    #[test]
    fn help_and_type_emitted_once_per_name() {
        let reg = MetricsRegistry::new();
        let a = reg.register(&JOINS, ["ap-baseline".into()]);
        reg.register(&TEST_GAUGE, []);
        let b = reg.register(&JOINS, ["ex-baseline".into()]);
        a.inc();
        b.add(2);
        // Interleaved within one registry and across merged snapshots.
        let other = MetricsRegistry::new();
        other.register(&JOINS, ["ap-minmax".into()]);
        let mut snap = reg.snapshot();
        snap.metrics.extend(other.snapshot().metrics);
        let text = snap.to_prometheus();
        assert_eq!(text.matches("# HELP csj_joins_total").count(), 1, "{text}");
        assert_eq!(text.matches("# TYPE csj_joins_total").count(), 1, "{text}");
        let lines: Vec<&str> = text.lines().collect();
        let joins: Vec<usize> = (0..lines.len())
            .filter(|&i| lines[i].starts_with("csj_joins_total{"))
            .collect();
        assert_eq!(joins, vec![2, 3, 4], "{text}");
        assert!(
            text.contains("csj_joins_total{method=\"ap-baseline\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("csj_joins_total{method=\"ex-baseline\"} 2"),
            "{text}"
        );
    }

    #[test]
    fn log_histogram_cell_merges_and_exports() {
        let reg = MetricsRegistry::new();
        let cell = reg.register(&DEPTH, []);
        let mut h = LogHistogram::default();
        h.record(0);
        h.record(1);
        h.record(3);
        cell.merge(&h, 4);
        let snap = reg.snapshot();
        let text = snap.to_prometheus();
        // Depth (no _seconds suffix) keeps raw bounds: le="0" holds the
        // zero, le="1" adds the one, le="3" adds the three.
        assert!(
            text.contains("csj_candidate_stream_depth_bucket{le=\"0\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("csj_candidate_stream_depth_bucket{le=\"1\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("csj_candidate_stream_depth_bucket{le=\"3\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("csj_candidate_stream_depth_bucket{le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("csj_candidate_stream_depth_sum 4"), "{text}");
        assert!(
            text.contains("csj_candidate_stream_depth_count 3"),
            "{text}"
        );
    }

    #[test]
    fn json_snapshot_is_structured() {
        let reg = MetricsRegistry::new();
        reg.register(&JOINS, ["ap-minmax".into()]).inc();
        reg.register(&TEST_GAUGE, []).set(3);
        reg.register(&LATENCY, []).observe_us(10);
        let json = reg.snapshot().to_json();
        assert!(json.starts_with("{\"metrics\":["), "{json}");
        assert!(json.contains("\"name\":\"csj_joins_total\""), "{json}");
        assert!(
            json.contains("\"labels\":{\"method\":\"ap-minmax\"}"),
            "{json}"
        );
        assert!(json.contains("\"type\":\"gauge\",\"value\":3"), "{json}");
        assert!(json.contains("\"type\":\"histogram\""), "{json}");
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }

    #[test]
    fn poisoned_locks_recover() {
        let reg = Arc::new(MetricsRegistry::new());
        let cell = reg.register(&DEPTH, []);
        // Poison both the registry's entry list and the histogram cell
        // by panicking while holding their locks.
        let reg2 = Arc::clone(&reg);
        let cell2 = Arc::clone(&cell);
        let _ = std::thread::spawn(move || {
            let _entries = reg2.entries.lock().unwrap();
            let _hist = cell2.hist.lock().unwrap();
            panic!("poison both locks");
        })
        .join();
        // Every later operation still works.
        let mut h = LogHistogram::default();
        h.record(2);
        cell.merge(&h, 2);
        assert_eq!(cell.load().count(), 1);
        let c = reg.register(&TEST_TOTAL, ["after-poison".into()]);
        c.inc();
        let snap = reg.snapshot();
        assert_eq!(snap.value(&TEST_TOTAL, ["after-poison"]), 1);
        assert!(snap.find("csj_candidate_stream_depth", &[]).is_some());
    }

    #[test]
    fn float_gauge_renders_as_prometheus_gauge() {
        let reg = MetricsRegistry::new();
        let g = reg.register(&BURN, ["latency".into(), "5m".into()]);
        g.set(2.25);
        let snap = reg.snapshot();
        assert_eq!(
            snap.gauge_f64_value("csj_slo_burn_rate", &[("objective", "latency")]),
            2.25
        );
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE csj_slo_burn_rate gauge"), "{text}");
        assert!(
            text.contains("csj_slo_burn_rate{objective=\"latency\",window=\"5m\"} 2.25"),
            "{text}"
        );
        let json = snap.to_json();
        assert!(json.contains("\"type\":\"gauge\",\"value\":2.25"), "{json}");
    }

    #[test]
    fn nonfinite_float_gauge_stays_valid_json() {
        let reg = MetricsRegistry::new();
        reg.register(&BURN, ["latency".into(), "5m".into()])
            .set(f64::INFINITY);
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"value\":\"inf\""), "{json}");
    }

    #[test]
    fn exemplars_surface_in_json_but_not_prometheus() {
        let reg = MetricsRegistry::new();
        let h = reg.register(&LATENCY, []);
        h.observe_us(60);
        // No exemplar stamped yet: the field is omitted entirely.
        assert!(!reg.snapshot().to_json().contains("exemplars"));
        h.observe_us_with_exemplar(200_000, 41);
        h.observe_us_with_exemplar(210_000, 42); // same bucket: last wins
        h.observe_us_with_exemplar(10, 0); // 0 = no exemplar, ignored
        let snap = reg.snapshot();
        match &snap.find("csj_join_latency_seconds", &[]).unwrap().value {
            SampleValue::Histogram {
                exemplars, buckets, ..
            } => {
                assert_eq!(exemplars.len(), buckets.len());
                // 200ms lands in the le=1s bucket (index 10).
                assert_eq!(exemplars[10], 42);
                assert_eq!(exemplars[0], 0);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        assert!(snap.to_json().contains("\"exemplars\":["));
        // The 0.0.4 text format has no exemplar syntax — must stay clean.
        assert!(!snap.to_prometheus().contains("exemplar"));
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let reg = MetricsRegistry::new();
        let c = reg.register(&TEST_TOTAL, ["rows".into()]);
        let h = reg.register(&LATENCY, []);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.observe_us(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        assert_eq!(h.count(), 8000);
    }
}
