//! The metric catalog: every `csj_*` family, declared once.
//!
//! A family is a `const` [`Family`] carrying its name, help text, label
//! keys and, as a type parameter, the instrument it is made of. The
//! constructor is a `const fn` that enforces the naming rules, so a
//! misnamed family is a compile error (E0080), not a lint failure:
//!
//! * counters, and only counters, end in `_total`;
//! * latency histograms, and only they, end in `_seconds` (the
//!   Prometheus exposition renders those bounds and sums in seconds);
//! * `csj_slo_*` families are gauges (burn rates and fractions are
//!   instantaneous evaluations, never monotonic);
//! * `csj_shard_*` families are `_total` counters, except the
//!   `csj_shard_latency_seconds` histogram.
//!
//! Registries create series from these constants
//! ([`MetricsRegistry::register`](crate::MetricsRegistry::register),
//! [`MetricsRegistry::register_each`](crate::MetricsRegistry::register_each))
//! and readers name series through them, so a typo fails to compile
//! instead of silently reading 0. [`ALL`] lists every family, for the
//! test that holds the catalog and the live registries in agreement.

use std::marker::PhantomData;

use csj_core::CsjMethod;

use crate::metrics::{
    Counter, FloatGauge, Gauge, Instrument, Kind, LatencyHistogram, LogHistogramCell,
};

/// What the catalog records about a family, independent of its
/// instrument type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FamilyInfo {
    /// Metric name (`csj_*`).
    pub name: &'static str,
    /// Prometheus `# HELP` text.
    pub help: &'static str,
    /// The instrument kind, which fixes the Prometheus type.
    pub kind: Kind,
    /// Label keys, in exposition order (empty for an unlabelled family).
    pub labels: &'static [&'static str],
}

/// One metric family: instrument type `I`, `N` label keys.
///
/// The naming rules are checked when the constant is evaluated. Each of
/// the following fails to compile:
///
/// A `_total` family that is not a counter:
/// ```compile_fail,E0080
/// use csj_obs::{catalog::Family, Gauge};
/// const QUEUED: Family<Gauge, 0> = Family::new("csj_queued_total", "Queued.", &[]);
/// ```
/// A `csj_slo_*` family that is not a gauge:
/// ```compile_fail,E0080
/// use csj_obs::{catalog::Family, Counter};
/// const SLO: Family<Counter, 0> = Family::new("csj_slo_breaches_total", "Breaches.", &[]);
/// ```
/// A `csj_shard_*` family that is neither a counter nor the shard
/// latency histogram:
/// ```compile_fail,E0080
/// use csj_obs::{catalog::Family, Gauge};
/// const LIVE: Family<Gauge, 0> = Family::new("csj_shard_live", "Live shards.", &[]);
/// ```
pub struct Family<I, const N: usize> {
    pub(crate) info: FamilyInfo,
    _instrument: PhantomData<fn() -> I>,
}

impl<I: Instrument, const N: usize> Family<I, N> {
    /// Declare a family; panics at compile time when `name` breaks a
    /// naming rule for `I`'s kind.
    pub const fn new(
        name: &'static str,
        help: &'static str,
        labels: &'static [&'static str; N],
    ) -> Self {
        let kind = I::KIND;
        let counter = matches!(kind, Kind::Counter);
        let latency = matches!(kind, Kind::Latency);
        if counter != affix(name, "_total", true) {
            panic!("counters, and only counters, end in `_total`");
        }
        if latency != affix(name, "_seconds", true) {
            panic!("latency histograms, and only they, end in `_seconds`");
        }
        if affix(name, "csj_slo_", false) && !matches!(kind, Kind::Gauge | Kind::FloatGauge) {
            panic!("`csj_slo_*` families are gauges");
        }
        let shard_latency = latency
            && name.len() == SHARD_LATENCY_NAME.len()
            && affix(name, SHARD_LATENCY_NAME, false);
        if affix(name, "csj_shard_", false) && !counter && !shard_latency {
            panic!("`csj_shard_*` families are `_total` counters or the latency histogram");
        }
        Self {
            info: FamilyInfo {
                name,
                help,
                kind,
                labels,
            },
            _instrument: PhantomData,
        }
    }

    /// The metric name.
    pub const fn name(&self) -> &'static str {
        self.info.name
    }
}

/// The one `csj_shard_*` family that is not a counter.
const SHARD_LATENCY_NAME: &str = "csj_shard_latency_seconds";

/// Whether `s` starts (or, with `end`, ends) with `affix`.
const fn affix(s: &str, affix: &str, end: bool) -> bool {
    let (s, a) = (s.as_bytes(), affix.as_bytes());
    if a.len() > s.len() {
        return false;
    }
    let at = if end { s.len() - a.len() } else { 0 };
    let mut i = 0;
    while i < a.len() {
        if s[at + i] != a[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// A closed set of label values that indexes a family with `N` label
/// keys: [`MetricsRegistry::register_each`](crate::MetricsRegistry::register_each)
/// creates one series per value in [`Label::ALL`], and
/// [`ByLabel::get`](crate::ByLabel::get) finds a value's series by
/// [`Label::index`].
pub trait Label<const N: usize>: Copy + PartialEq + 'static {
    /// Every value that has a series, in exposition order.
    const ALL: &'static [Self];
    /// The label values, one per key of the family.
    fn values(self) -> [&'static str; N];
    /// Position in [`Label::ALL`]. A value outside it returns
    /// `ALL.len()`; its updates land in a sink that is never exported.
    fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&l| l == self)
            .unwrap_or(Self::ALL.len())
    }
}

/// Declare a label enum: the enum, its `label()` and its [`Label`]
/// implementation, from one list of `Variant => "label"` pairs.
#[macro_export]
macro_rules! label_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $($(#[$vmeta:meta])* $variant:ident => $label:literal,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        $vis enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// The stable label used by metrics and traces.
            $vis fn label(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }
        }

        impl $crate::catalog::Label<1> for $name {
            const ALL: &'static [Self] = &[$($name::$variant,)+];
            fn index(self) -> usize {
                self as usize
            }
            fn values(self) -> [&'static str; 1] {
                [self.label()]
            }
        }
    };
}

/// `CsjMethod::Auto` is resolved to a concrete method before anything
/// runs, so it has no series.
impl Label<1> for CsjMethod {
    const ALL: &'static [Self] = &CsjMethod::ALL;
    fn values(self) -> [&'static str; 1] {
        [self.name()]
    }
}

/// Declare each family as a `const` (its help text is its doc) and list
/// them all in [`ALL`].
macro_rules! catalog {
    ($($name:ident: $kind:ident[$($label:literal),*] = $metric:expr, $help:literal;)+) => {
        $(
            #[doc = $help]
            pub const $name: Family<$kind, { <[&str]>::len(&[$($label),*]) }> =
                Family::new($metric, $help, &[$($label),*]);
        )+

        /// Every family in the catalog.
        pub const ALL: &[FamilyInfo] = &[$($name.info),+];
    };
}

#[rustfmt::skip]
catalog! {
    // Engine
    JOINS: Counter["method"] = "csj_joins_total",
        "Joins executed by the engine, by method.";
    JOIN_LATENCY: LatencyHistogram["method"] = "csj_join_latency_seconds",
        "Join wall-clock latency (setup + pairing + matching), by method.";
    QUERIES: Counter["kind"] = "csj_queries_total",
        "Engine queries executed, by kind.";
    BUDGET_EXHAUSTED: Counter["reason"] = "csj_budget_exhausted_total",
        "Budgeted queries that ran out of budget, by reason.";
    PLAN_SELECTED: Counter["method"] = "csj_plan_selected_total",
        "Auto plans resolved by the density rule, by chosen method.";
    PLAN_ACTUAL_US: Counter[] = "csj_plan_actual_us_total",
        "Sum of measured join latencies for resolved Auto plans, microseconds.";
    JOINS_CANCELLED: Counter[] = "csj_joins_cancelled_total",
        "Joins truncated mid-flight by cooperative cancellation.";
    JOIN_PANICS: Counter[] = "csj_join_panics_total",
        "Joins that panicked and were contained at the per-candidate boundary.";
    FAULTS: Counter[] = "csj_faults_total",
        "Injected faults fired (test hooks only; zero in production).";
    CACHE_HITS: Counter[] = "csj_cache_hits_total",
        "Exact-similarity queries served from the cache.";
    SCREEN_CACHE_HITS: Counter[] = "csj_screen_cache_hits_total",
        "Screen scores served from the cache instead of a screen join.";
    DATA_QUARANTINED: Counter[] = "csj_data_quarantined_total",
        "Malformed records skipped by quarantine-mode data loads.";
    ROWS_DRIVEN: Counter[] = "csj_rows_driven_total",
        "B rows that entered a pairing loop.";
    CANDIDATES_STREAMED: Counter[] = "csj_candidates_streamed_total",
        "Candidate pairs that survived cheap pruning and were fully judged.";
    PRUNE_EVENTS: Counter["kind"] = "csj_prune_events_total",
        "Kernel prune events, by kind.";
    MATCH_EVENTS: Counter["kind"] = "csj_match_events_total",
        "Full-comparison outcomes, by kind.";
    MATCHER_FLUSHES: Counter[] = "csj_matcher_flushes_total",
        "One-to-one matcher invocations (whole-graph and segment flushes).";
    MATCHER_EDGES: Counter[] = "csj_matcher_edges_total",
        "Edges handed to the one-to-one matcher.";
    CANCEL_POLLS: Counter[] = "csj_cancel_polls_total",
        "Cooperative cancellation polls performed by the kernel.";
    ENCODE_LANE: Counter["lane"] = "csj_encode_lane_total",
        "Joins by the compare lane the kernel selected (u8/u16/u32; f32 for SuperEGO).";
    ENCODE_TILES: Counter[] = "csj_encode_tiles_total",
        "L1-sized A tiles walked by cache-blocked kernel scans.";
    SHARD_DISPATCHED: Counter[] = "csj_shard_dispatched_total",
        "Shard tasks handed to the shard executor.";
    SHARD_OUTCOMES: Counter["fate"] = "csj_shard_outcomes_total",
        "Shard tasks resolved, by fate (dispatched == completed + failed + cancelled).";
    SHARD_UNITS: Counter["fate"] = "csj_shard_units_total",
        "Work units (candidates or pairs) of sharded queries, by fate.";
    SHARD_LATENCY: LatencyHistogram[] = SHARD_LATENCY_NAME,
        "Per-shard wall-clock run time (zero for a shard that never ran).";
    CANDIDATE_STREAM_DEPTH: LogHistogramCell[] = "csj_candidate_stream_depth",
        "Distribution of candidates streamed per driven B row (log2 buckets).";
    PRUNE_DEPTH: LogHistogramCell[] = "csj_prune_depth",
        "Distribution of prune events per driven B row (log2 buckets).";
    COMMUNITIES: Gauge[] = "csj_communities",
        "Communities currently registered.";
    CACHED_PAIRS: Gauge[] = "csj_cached_pairs",
        "Exact similarities currently cached.";

    // Service
    SERVICE_SUBMITTED: Counter[] = "csj_service_submitted_total",
        "Requests submitted to the service (admitted + shed).";
    SERVICE_ADMITTED: Counter[] = "csj_service_admitted_total",
        "Requests accepted into the admission queue.";
    SERVICE_SHED: Counter[] = "csj_service_shed_total",
        "Requests rejected at admission because the queue was full.";
    SERVICE_COMPLETED: Counter["outcome"] = "csj_service_completed_total",
        "Admitted requests resolved, by outcome.";
    SERVICE_DEGRADED: Counter["trigger"] = "csj_service_degraded_total",
        "Degradation decisions, by trigger (a degraded pass that then fails still counts).";
    SERVICE_QUEUE_DEPTH: Gauge[] = "csj_service_queue_depth",
        "Requests currently waiting in the admission queue.";
    SERVICE_INFLIGHT: Gauge[] = "csj_service_inflight",
        "Requests currently executing on workers.";
    SERVICE_QUEUE_WAIT: LatencyHistogram[] = "csj_service_queue_wait_seconds",
        "Time requests spent queued before a worker picked them up.";
    SERVICE_REQUEST: LatencyHistogram[] = "csj_service_request_seconds",
        "End-to-end request latency (queue wait + execution).";

    // Durability
    WAL_APPENDS: Counter[] = "csj_wal_appends_total",
        "WAL records appended (log-before-apply mutations and snapshot marks)";
    WAL_BYTES: Counter[] = "csj_wal_bytes_total",
        "WAL frame bytes written";
    WAL_FSYNCS: Counter[] = "csj_wal_fsyncs_total",
        "WAL fsync calls (per append under policy=always, batched under interval)";
    WAL_FSYNC_LATENCY: LatencyHistogram[] = "csj_wal_fsync_latency_seconds",
        "WAL fsync wall time";
    SNAPSHOTS_WRITTEN: Counter[] = "csj_snapshots_written_total",
        "Registry snapshots written and made durable";
    RECOVERY_REPLAYED: Counter[] = "csj_recovery_replayed_total",
        "WAL records replayed onto the restored snapshot image during recovery";
    RECOVERY_DISCARDED: Counter[] = "csj_recovery_discarded_total",
        "Bytes of torn/corrupt WAL tail discarded during recovery";

    // SLOs
    SLO_TARGET: FloatGauge["objective"] = "csj_slo_target",
        "Bad-event fraction budget of the objective.";
    SLO_BAD_FRACTION: FloatGauge["objective"] = "csj_slo_bad_fraction",
        "Bad-event fraction of the objective's traffic.";
    SLO_BURN_RATE: FloatGauge["objective"] = "csj_slo_burn_rate",
        "Error-budget burn rate (1.0 = budget consumed exactly at the allowed rate).";
    SLO_BREACHED: Gauge["objective"] = "csj_slo_breached",
        "1 when the burn rate exceeds 1.0.";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = ALL.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len());
    }
}
