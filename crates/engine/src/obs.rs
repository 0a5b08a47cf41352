//! Engine-side observability glue.
//!
//! Wires the `csj-obs` building blocks into the engine: [`EngineObs`]
//! owns the metrics registry (every `csj_*` time series, registered
//! once at engine construction) and the flight recorder;
//! [`QueryRecorder`] assembles one query's span tree
//! (`query → screen/refine/sweep → join → phase`) as the query runs.
//!
//! Everything is designed to stay on in release builds: the hot join
//! path updates atomics, span assembly appends to a mutex-guarded
//! vector once per *join* (never per candidate), and with
//! [`ObsConfig::enabled`]` = false` every hook is a branch on a bool.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use csj_core::{Coverage, CsjMethod, JoinTelemetry, PhaseTimings};
use csj_obs::{
    catalog, ByLabel, Counter, FlightRecorder, ForensicRecord, Gauge, LatencyHistogram,
    LogHistogramCell, MetricsRegistry, MetricsSnapshot, Objective, QueryTrace, Selector, SloSource,
    SlowQueryLog, Span,
};

use csj_core::plan::{QueryPlan, DENSITY_THRESHOLD};

use crate::budget::ExhaustReason;

/// Observability configuration, part of
/// [`EngineConfig`](crate::EngineConfig).
#[derive(Debug, Clone, PartialEq)]
pub struct ObsConfig {
    /// Master switch: `false` turns every hook into a no-op (no spans,
    /// no metric updates, no flight recording).
    pub enabled: bool,
    /// How many completed query traces the flight recorder retains.
    pub flight_capacity: usize,
    /// How many pathological traces the slow-query log retains
    /// (independent of the flight recorder, so a bad query survives
    /// eviction by healthy ones).
    pub slow_capacity: usize,
    /// Queries slower than this (or with a non-`completed` outcome)
    /// are captured in the slow-query log. `0` captures everything.
    pub slow_threshold_us: u64,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            flight_capacity: 64,
            slow_capacity: 32,
            slow_threshold_us: 250_000,
        }
    }
}

csj_obs::label_enum! {
    /// Engine query kinds: the `kind` label of `csj_queries_total` and
    /// [`QueryTrace::kind`].
    pub(crate) enum QueryKind {
        Similarity => "similarity",
        TopK => "top_k",
        PairsAbove => "pairs_above",
    }
}

csj_obs::label_enum! {
    /// The counter lane a join's kernel selected (`csj_encode_lane_total`).
    enum Lane {
        F32 => "f32",
        U8 => "u8",
        U16 => "u16",
        U32 => "u32",
    }
}

impl Lane {
    /// The lane behind a telemetry `lane_bits` value (`0` = SuperEGO's
    /// normalised `f32` compare).
    fn of_bits(bits: u64) -> Lane {
        match bits {
            8 => Lane::U8,
            16 => Lane::U16,
            32 => Lane::U32,
            _ => Lane::F32,
        }
    }
}

csj_obs::label_enum! {
    /// Kernel prune events (`csj_prune_events_total`).
    enum Prune {
        Min => "min",
        Max => "max",
    }
}

csj_obs::label_enum! {
    /// Full-comparison outcomes (`csj_match_events_total`).
    enum MatchEvent {
        Match => "match",
        NoMatch => "no_match",
        NoOverlap => "no_overlap",
    }
}

csj_obs::label_enum! {
    /// Shard fates, the `fate` label of `csj_shard_outcomes_total`:
    /// dispatched == completed + failed + cancelled.
    pub enum ShardFate {
        /// The shard returned a usable value.
        Completed => "completed",
        /// The shard was lost to a panic or a worker death.
        Failed => "failed",
        /// The query was cancelled before the shard started.
        Cancelled => "cancelled",
    }
}

csj_obs::label_enum! {
    /// Work units of sharded queries by fate, the `fate` label of
    /// `csj_shard_units_total`.
    pub enum UnitFate {
        /// Screened by a surviving shard.
        Screened => "screened",
        /// Lost with its shard, or skipped under budget pressure.
        Skipped => "skipped",
    }
}

/// Join spans retained per query trace; beyond this the trace records
/// only a `joins_dropped` count (a broadcast sweep over thousands of
/// pairs should not hold thousands of spans in memory).
const MAX_JOIN_SPANS: usize = 256;

/// The engine-side SLO preset, declared over the engine's own `csj_*`
/// families so [`csj_obs::slo::evaluate`] over
/// [`CsjEngine::metrics_snapshot`](crate::CsjEngine::metrics_snapshot)
/// needs no extra instrumentation:
///
/// * `join_latency` — ≤1% of joins slower than 100ms;
/// * `exhausted_fraction` — ≤5% of queries running out of budget.
pub fn engine_slos() -> Vec<Objective> {
    vec![
        Objective {
            name: "join_latency".into(),
            target: 0.01,
            source: SloSource::LatencyAbove {
                histogram: Selector::all(&catalog::JOIN_LATENCY),
                threshold_us: 100_000,
            },
        },
        Objective {
            name: "exhausted_fraction".into(),
            target: 0.05,
            source: SloSource::CounterFraction {
                bad: Selector::all(&catalog::BUDGET_EXHAUSTED),
                total: Selector::all(&catalog::QUERIES),
            },
        },
    ]
}

/// The engine's observability state: one registry of `csj_*` time
/// series plus the flight recorder. Constructed once per engine.
pub(crate) struct EngineObs {
    enabled: bool,
    registry: MetricsRegistry,
    flight: FlightRecorder,
    slow: SlowQueryLog,
    joins: ByLabel<Counter, CsjMethod>,
    latency: ByLabel<LatencyHistogram, CsjMethod>,
    queries: ByLabel<Counter, QueryKind>,
    budget_exhausted: ByLabel<Counter, ExhaustReason>,
    plan_selected: ByLabel<Counter, CsjMethod>,
    plan_actual_us: Arc<Counter>,
    joins_cancelled: Arc<Counter>,
    join_panics: Arc<Counter>,
    faults: Arc<Counter>,
    cache_hits: Arc<Counter>,
    screen_cache_hits: Arc<Counter>,
    quarantined: Arc<Counter>,
    rows_driven: Arc<Counter>,
    candidates_streamed: Arc<Counter>,
    prune: ByLabel<Counter, Prune>,
    match_events: ByLabel<Counter, MatchEvent>,
    matcher_flushes: Arc<Counter>,
    matcher_edges: Arc<Counter>,
    cancel_polls: Arc<Counter>,
    encode_lane: ByLabel<Counter, Lane>,
    encode_tiles: Arc<Counter>,
    shard_dispatched: Arc<Counter>,
    shard_outcomes: ByLabel<Counter, ShardFate>,
    shard_units: ByLabel<Counter, UnitFate>,
    shard_latency: Arc<LatencyHistogram>,
    stream_depth: Arc<LogHistogramCell>,
    prune_depth: Arc<LogHistogramCell>,
    communities: Arc<Gauge>,
    cached_pairs: Arc<Gauge>,
}

impl std::fmt::Debug for EngineObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineObs")
            .field("enabled", &self.enabled)
            .field("flight_len", &self.flight.len())
            .finish_non_exhaustive()
    }
}

impl EngineObs {
    pub(crate) fn new(config: &ObsConfig) -> Self {
        use csj_obs::catalog::*;
        let r = MetricsRegistry::new();
        Self {
            enabled: config.enabled,
            flight: FlightRecorder::new(config.flight_capacity),
            slow: SlowQueryLog::new(config.slow_capacity, config.slow_threshold_us),
            joins: r.register_each(&JOINS),
            latency: r.register_each(&JOIN_LATENCY),
            queries: r.register_each(&QUERIES),
            budget_exhausted: r.register_each(&BUDGET_EXHAUSTED),
            plan_selected: r.register_each(&PLAN_SELECTED),
            plan_actual_us: r.register(&PLAN_ACTUAL_US, []),
            joins_cancelled: r.register(&JOINS_CANCELLED, []),
            join_panics: r.register(&JOIN_PANICS, []),
            faults: r.register(&FAULTS, []),
            cache_hits: r.register(&CACHE_HITS, []),
            screen_cache_hits: r.register(&SCREEN_CACHE_HITS, []),
            quarantined: r.register(&DATA_QUARANTINED, []),
            rows_driven: r.register(&ROWS_DRIVEN, []),
            candidates_streamed: r.register(&CANDIDATES_STREAMED, []),
            prune: r.register_each(&PRUNE_EVENTS),
            match_events: r.register_each(&MATCH_EVENTS),
            matcher_flushes: r.register(&MATCHER_FLUSHES, []),
            matcher_edges: r.register(&MATCHER_EDGES, []),
            cancel_polls: r.register(&CANCEL_POLLS, []),
            encode_lane: r.register_each(&ENCODE_LANE),
            encode_tiles: r.register(&ENCODE_TILES, []),
            shard_dispatched: r.register(&SHARD_DISPATCHED, []),
            shard_outcomes: r.register_each(&SHARD_OUTCOMES),
            shard_units: r.register_each(&SHARD_UNITS),
            shard_latency: r.register(&SHARD_LATENCY, []),
            stream_depth: r.register(&CANDIDATE_STREAM_DEPTH, []),
            prune_depth: r.register(&PRUNE_DEPTH, []),
            communities: r.register(&COMMUNITIES, []),
            cached_pairs: r.register(&CACHED_PAIRS, []),
            registry: r,
        }
    }

    /// Fold one completed join into the metrics: per-method count and
    /// latency plus every kernel telemetry counter. A non-zero
    /// `trace_id` becomes the latency bucket's exemplar, linking the
    /// hot histogram cell back to a reconstructable trace.
    pub(crate) fn on_join(
        &self,
        method: CsjMethod,
        telemetry: &JoinTelemetry,
        timings: &PhaseTimings,
        cancelled: bool,
        trace_id: u64,
    ) {
        if !self.enabled {
            return;
        }
        self.joins.get(method).inc();
        let us = timings.total().as_micros().min(u128::from(u64::MAX)) as u64;
        self.latency
            .get(method)
            .observe_us_with_exemplar(us, trace_id);
        if cancelled {
            self.joins_cancelled.inc();
        }
        self.rows_driven.add(telemetry.rows_driven);
        self.candidates_streamed.add(telemetry.candidates_streamed);
        self.prune.get(Prune::Min).add(telemetry.events.min_prune);
        self.prune.get(Prune::Max).add(telemetry.events.max_prune);
        let events = &self.match_events;
        events.get(MatchEvent::Match).add(telemetry.events.matches);
        events
            .get(MatchEvent::NoMatch)
            .add(telemetry.events.no_match);
        events
            .get(MatchEvent::NoOverlap)
            .add(telemetry.events.no_overlap);
        self.matcher_flushes.add(telemetry.matcher_flushes);
        self.matcher_edges.add(telemetry.matcher_edges);
        self.cancel_polls.add(telemetry.cancel_polls);
        self.encode_lane
            .get(Lane::of_bits(telemetry.lane_bits))
            .inc();
        self.encode_tiles.add(telemetry.a_tiles);
        self.stream_depth
            .merge(&telemetry.stream_depth_hist, telemetry.candidates_streamed);
        self.prune_depth.merge(
            &telemetry.prune_depth_hist,
            telemetry.events.min_prune + telemetry.events.max_prune,
        );
    }

    /// Count one resolved `Auto` plan: the chosen method and the
    /// measured latency of the join it ran.
    pub(crate) fn on_plan(&self, plan: &QueryPlan, actual_us: u64) {
        if !self.enabled {
            return;
        }
        self.plan_selected.get(plan.chosen).inc();
        self.plan_actual_us.add(actual_us);
    }

    pub(crate) fn on_join_panicked(&self) {
        if self.enabled {
            self.join_panics.inc();
        }
    }

    pub(crate) fn on_fault(&self) {
        if self.enabled {
            self.faults.inc();
        }
    }

    pub(crate) fn on_cache_hit(&self) {
        if self.enabled {
            self.cache_hits.inc();
        }
    }

    pub(crate) fn on_screen_cache_hit(&self) {
        if self.enabled {
            self.screen_cache_hits.inc();
        }
    }

    pub(crate) fn on_quarantined(&self, n: u64) {
        if self.enabled {
            self.quarantined.add(n);
        }
    }

    pub(crate) fn on_budget_exhausted(&self, reason: ExhaustReason) {
        if self.enabled {
            self.budget_exhausted.get(reason).inc();
        }
    }

    /// Fold one sharded query's coverage into the `csj_shard_*` family;
    /// `shard_elapsed_us` carries the per-shard latencies. The counter
    /// deltas preserve the coverage identity by construction, so
    /// `csj_shard_dispatched_total` always equals the sum of the three
    /// `csj_shard_outcomes_total` fates.
    pub(crate) fn on_shards(&self, coverage: &Coverage, shard_elapsed_us: &[u64]) {
        if !self.enabled {
            return;
        }
        self.shard_dispatched.add(coverage.dispatched);
        let fates = &self.shard_outcomes;
        fates.get(ShardFate::Completed).add(coverage.completed);
        fates.get(ShardFate::Failed).add(coverage.failed);
        fates.get(ShardFate::Cancelled).add(coverage.cancelled);
        self.shard_units
            .get(UnitFate::Screened)
            .add(coverage.units_screened);
        self.shard_units
            .get(UnitFate::Skipped)
            .add(coverage.units_skipped);
        for &us in shard_elapsed_us {
            self.shard_latency.observe_us_with_exemplar(us, 0);
        }
    }

    /// Point-in-time snapshot, with the registry-size gauges refreshed
    /// from the caller's current counts.
    pub(crate) fn snapshot(&self, communities: usize, cached_pairs: usize) -> MetricsSnapshot {
        self.communities.set(communities as u64);
        self.cached_pairs.set(cached_pairs as u64);
        self.registry.snapshot()
    }

    /// Count a query of `kind` and start recording it, reserving its
    /// flight-recorder id up front so in-flight metric exemplars can
    /// reference the trace before it is filed.
    pub(crate) fn start_query(&self, kind: QueryKind) -> QueryRecorder {
        let id = if self.enabled {
            self.queries.get(kind).inc();
            self.flight.reserve_id()
        } else {
            0
        };
        QueryRecorder::start_with_id(kind.label(), self.enabled, id)
    }

    /// Store a completed query trace in the flight recorder, offering
    /// it to the slow-query log first (the log clones only pathological
    /// traces; the healthy path is a threshold check).
    pub(crate) fn record_trace(&self, mut trace: QueryTrace) {
        if !self.enabled {
            return;
        }
        if trace.id == 0 {
            trace.id = self.flight.reserve_id();
        }
        self.slow.offer(&trace);
        self.flight.record_with_id(trace.id, trace);
    }

    /// The most recent `n` traces, oldest first.
    pub(crate) fn traces(&self, n: usize) -> Vec<QueryTrace> {
        self.flight.last(n)
    }

    /// The most recent `n` forensic records, oldest first.
    pub(crate) fn slow_queries(&self, n: usize) -> Vec<ForensicRecord> {
        self.slow.last(n)
    }

    /// The slow-query log itself (capture statistics, threshold).
    pub(crate) fn slow_log(&self) -> &SlowQueryLog {
        &self.slow
    }
}

/// Assembles one query's span tree while the query runs. Join spans are
/// appended from (possibly parallel) workers under a mutex — once per
/// join, never per candidate; [`QueryRecorder::end_phase`] folds the
/// joins gathered so far into a named phase span.
pub(crate) struct QueryRecorder {
    on: bool,
    kind: &'static str,
    trace_id: u64,
    t0: Instant,
    join_spans: Mutex<Vec<Span>>,
    phases: Mutex<Vec<Span>>,
    joins_dropped: AtomicU64,
    joins_recorded: AtomicU64,
    /// Screens served from the cache: since the last phase boundary,
    /// and in the whole query.
    phase_screen_hits: AtomicU64,
    screen_hits: AtomicU64,
    /// A broadcast sweep's plan since the last phase boundary: pairs
    /// screened, pruned by their screen, and refined without a screen.
    sweep_plan: Mutex<Option<[u64; 3]>>,
    telemetry: Mutex<JoinTelemetry>,
    budget: Mutex<Option<(&'static str, u64, u64)>>,
    coverage: Mutex<Option<Coverage>>,
}

impl QueryRecorder {
    /// Start recording a query of `kind` with no reserved id. With
    /// `on = false` every method is a no-op and
    /// [`QueryRecorder::finish`] returns `None`.
    #[cfg(test)]
    pub(crate) fn start(kind: &'static str, on: bool) -> Self {
        Self::start_with_id(kind, on, 0)
    }

    /// Start recording with a pre-reserved flight-recorder id, so the
    /// trace id is known (for metric exemplars) while the query runs.
    pub(crate) fn start_with_id(kind: &'static str, on: bool, trace_id: u64) -> Self {
        Self {
            on,
            kind,
            trace_id,
            t0: Instant::now(),
            join_spans: Mutex::new(Vec::new()),
            phases: Mutex::new(Vec::new()),
            joins_dropped: AtomicU64::new(0),
            joins_recorded: AtomicU64::new(0),
            phase_screen_hits: AtomicU64::new(0),
            screen_hits: AtomicU64::new(0),
            sweep_plan: Mutex::new(None),
            telemetry: Mutex::new(JoinTelemetry::default()),
            budget: Mutex::new(None),
            coverage: Mutex::new(None),
        }
    }

    /// The reserved flight-recorder id (`0` when recording is off).
    pub(crate) fn trace_id(&self) -> u64 {
        if self.on {
            self.trace_id
        } else {
            0
        }
    }

    /// Microseconds since the query started.
    pub(crate) fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }

    /// Record one join as a span (with `setup`/`pairing`/`matching`
    /// phase children) under the current phase.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_join(
        &self,
        method: CsjMethod,
        b_size: usize,
        a_size: usize,
        telemetry: &JoinTelemetry,
        timings: &PhaseTimings,
        outcome: &str,
        start_us: u64,
    ) {
        if !self.on {
            return;
        }
        // The per-query telemetry roll-up survives the span cap: a
        // forensic record still reports the whole query's work even
        // when most join spans were dropped.
        self.joins_recorded.fetch_add(1, Ordering::Relaxed);
        self.telemetry
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .merge(telemetry);
        let mut joins = self.join_spans.lock().unwrap_or_else(|e| e.into_inner());
        if joins.len() >= MAX_JOIN_SPANS {
            self.joins_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let encoding = Lane::of_bits(telemetry.lane_bits).label();
        let mut span = Span::new("join")
            .at(start_us, timings.total().as_micros() as u64)
            .attr("method", method.name())
            .attr("b_size", b_size)
            .attr("a_size", a_size)
            .attr("encoding", encoding)
            .attr("a_tiles", telemetry.a_tiles)
            .attr("outcome", outcome);
        let mut offset = start_us;
        for (name, d) in [
            ("setup", timings.setup),
            ("pairing", timings.pairing),
            ("matching", timings.matching),
        ] {
            let us = d.as_micros() as u64;
            if us > 0 {
                span.push_child(Span::new(name).at(offset, us));
            }
            offset += us;
        }
        joins.push(span);
    }

    /// Record one resolved `Auto` plan as a span next to its join:
    /// chosen method, the measured density and the rule's threshold,
    /// and the join's actual cost.
    pub(crate) fn record_plan(&self, plan: &QueryPlan, actual_us: u64, start_us: u64) {
        if !self.on {
            return;
        }
        let mut joins = self.join_spans.lock().unwrap_or_else(|e| e.into_inner());
        if joins.len() >= MAX_JOIN_SPANS {
            self.joins_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let span = Span::new("plan")
            .at(start_us, 0)
            .attr("method", plan.chosen.name())
            .attr("exactness", plan.input.exactness.label())
            .attr("density", plan.input.density)
            .attr("threshold", DENSITY_THRESHOLD)
            .attr("actual_us", actual_us);
        joins.push(span);
    }

    /// Count one screen served from the cache (no join ran for it).
    pub(crate) fn note_screen_cache_hit(&self) {
        if self.on {
            self.phase_screen_hits.fetch_add(1, Ordering::Relaxed);
            self.screen_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Add one sweep task's plan: pairs it screened (by a join or from
    /// the cache), pairs its screen pruned, and pairs it refined without
    /// a screen.
    pub(crate) fn note_sweep_plan(&self, screened: u64, pruned: u64, direct_refines: u64) {
        if !self.on {
            return;
        }
        let mut plan = self.sweep_plan.lock().unwrap_or_else(|e| e.into_inner());
        let sums = plan.get_or_insert([0; 3]);
        for (sum, n) in sums.iter_mut().zip([screened, pruned, direct_refines]) {
            *sum += n;
        }
    }

    /// Close the phase that started at `start_us`: every join recorded
    /// since the previous phase boundary becomes a child of one
    /// `name` span, which also counts the screens served from the
    /// cache in that time (`screen_cache_hits`, when any were) and, for
    /// a sweep, what its plan did (`screened`, `pruned`,
    /// `direct_refines`).
    pub(crate) fn end_phase(&self, name: &'static str, start_us: u64) {
        if !self.on {
            return;
        }
        let children =
            std::mem::take(&mut *self.join_spans.lock().unwrap_or_else(|e| e.into_inner()));
        let mut span = Span::new(name)
            .at(start_us, self.now_us().saturating_sub(start_us))
            .attr("joins", children.len());
        let screen_hits = self.phase_screen_hits.swap(0, Ordering::Relaxed);
        if screen_hits > 0 {
            span = span.attr("screen_cache_hits", screen_hits);
        }
        let plan = self
            .sweep_plan
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some([screened, pruned, direct_refines]) = plan {
            span = span
                .attr("screened", screened)
                .attr("pruned", pruned)
                .attr("direct_refines", direct_refines);
        }
        span.children = children;
        self.phases
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(span);
    }

    /// Note the budget exhaustion state, surfaced as root-span
    /// attributes (`budget_reason`, `pairs_done`, `pairs_skipped`).
    pub(crate) fn note_budget(&self, reason: &'static str, pairs_done: u64, pairs_skipped: u64) {
        if !self.on {
            return;
        }
        *self.budget.lock().unwrap_or_else(|e| e.into_inner()) =
            Some((reason, pairs_done, pairs_skipped));
    }

    /// Record one resolved shard as a span (folded into the enclosing
    /// `shards` phase by [`QueryRecorder::end_phase`]). A panicked
    /// shard's payload rides on the span as its `panic` attribute.
    pub(crate) fn record_shard(
        &self,
        shard: usize,
        outcome: &'static str,
        panic: Option<&str>,
        members: usize,
        elapsed_us: u64,
        start_us: u64,
    ) {
        if !self.on {
            return;
        }
        let mut joins = self.join_spans.lock().unwrap_or_else(|e| e.into_inner());
        if joins.len() >= MAX_JOIN_SPANS {
            self.joins_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut span = Span::new("shard")
            .at(start_us, elapsed_us)
            .attr("shard", shard)
            .attr("outcome", outcome)
            .attr("members", members);
        if let Some(message) = panic {
            span = span.attr("panic", message);
        }
        joins.push(span);
    }

    /// Note a sharded query's coverage, surfaced as root-span
    /// attributes (`shards_dispatched`, `shards_completed`, ...).
    pub(crate) fn note_coverage(&self, coverage: Coverage) {
        if !self.on {
            return;
        }
        *self.coverage.lock().unwrap_or_else(|e| e.into_inner()) = Some(coverage);
    }

    /// Finish the query and build its trace, carrying the pre-reserved
    /// id and a telemetry roll-up on the root span. `None` when
    /// recording was off.
    pub(crate) fn finish(self, outcome: String) -> Option<QueryTrace> {
        if !self.on {
            return None;
        }
        let elapsed = self.now_us();
        let mut root = Span::new("query").at(0, elapsed);
        let joins = self.joins_recorded.load(Ordering::Relaxed);
        if joins > 0 {
            let tel = self
                .telemetry
                .into_inner()
                .unwrap_or_else(|e| e.into_inner());
            root = root
                .attr("joins", joins)
                .attr("rows_driven", tel.rows_driven)
                .attr("candidates_streamed", tel.candidates_streamed)
                .attr("matcher_edges", tel.matcher_edges)
                .attr("prune_events", tel.events.min_prune + tel.events.max_prune);
        }
        if let Some((reason, done, skipped)) =
            *self.budget.lock().unwrap_or_else(|e| e.into_inner())
        {
            root = root
                .attr("budget_reason", reason)
                .attr("pairs_done", done)
                .attr("pairs_skipped", skipped);
        }
        if let Some(c) = *self.coverage.lock().unwrap_or_else(|e| e.into_inner()) {
            root = root
                .attr("shards_dispatched", c.dispatched)
                .attr("shards_completed", c.completed)
                .attr("shards_failed", c.failed)
                .attr("shards_cancelled", c.cancelled)
                .attr("units_screened", c.units_screened)
                .attr("units_skipped", c.units_skipped);
        }
        let screen_hits = self.screen_hits.load(Ordering::Relaxed);
        if screen_hits > 0 {
            root = root.attr("screen_cache_hits", screen_hits);
        }
        let dropped = self.joins_dropped.load(Ordering::Relaxed);
        if dropped > 0 {
            root = root.attr("joins_dropped", dropped);
        }
        root.children = self.phases.into_inner().unwrap_or_else(|e| e.into_inner());
        // Joins recorded outside any phase (single-join queries) attach
        // directly to the root.
        let loose = self
            .join_spans
            .into_inner()
            .unwrap_or_else(|e| e.into_inner());
        root.children.extend(loose);
        Some(QueryTrace {
            id: self.trace_id,
            kind: self.kind,
            outcome,
            root,
        })
    }
}

/// Outcome label shared by traces and tests: `completed`, or
/// `exhausted:<reason>`.
pub(crate) fn outcome_label(exhausted: Option<ExhaustReason>) -> String {
    match exhausted {
        None => "completed".to_string(),
        Some(reason) => format!("exhausted:{reason}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_recorder_produces_nothing() {
        let rec = QueryRecorder::start("similarity", false);
        rec.record_join(
            CsjMethod::ApMinMax,
            4,
            8,
            &JoinTelemetry::default(),
            &PhaseTimings::default(),
            "ok",
            0,
        );
        rec.end_phase("screen", 0);
        assert!(rec.finish("completed".into()).is_none());
    }

    #[test]
    fn phases_capture_their_joins() {
        let rec = QueryRecorder::start("top_k", true);
        let timings = PhaseTimings {
            setup: Duration::from_micros(5),
            pairing: Duration::from_micros(11),
            matching: Duration::from_micros(7),
        };
        let tel = JoinTelemetry::default();
        rec.record_join(CsjMethod::ApMinMax, 4, 8, &tel, &timings, "ok", 1);
        rec.record_join(CsjMethod::ApMinMax, 4, 6, &tel, &timings, "ok", 20);
        rec.end_phase("screen", 0);
        rec.record_join(CsjMethod::ExMinMax, 4, 8, &tel, &timings, "ok", 40);
        rec.end_phase("refine", 40);
        let trace = rec.finish("completed".into()).expect("recording on");
        assert_eq!(trace.kind, "top_k");
        let screen = trace.root.find("screen").expect("screen phase");
        assert_eq!(screen.children.len(), 2);
        let refine = trace.root.find("refine").expect("refine phase");
        assert_eq!(refine.children.len(), 1);
        let join = refine.children[0].clone();
        assert_eq!(join.name, "join");
        assert_eq!(join.elapsed_us, 23, "setup + pairing + matching");
        assert!(join.find("setup").is_some());
        assert!(join.find("pairing").is_some());
        assert!(join.find("matching").is_some());
    }

    #[test]
    fn join_span_cap_counts_drops() {
        let rec = QueryRecorder::start("pairs_above", true);
        for i in 0..(MAX_JOIN_SPANS + 3) {
            rec.record_join(
                CsjMethod::ApMinMax,
                1,
                1,
                &JoinTelemetry::default(),
                &PhaseTimings::default(),
                "ok",
                i as u64,
            );
        }
        rec.end_phase("sweep", 0);
        let trace = rec.finish("completed".into()).unwrap();
        assert_eq!(
            trace.root.find("sweep").unwrap().children.len(),
            MAX_JOIN_SPANS
        );
        assert_eq!(
            trace.root.get_attr("joins_dropped"),
            Some(&csj_obs::AttrValue::U64(3))
        );
    }

    #[test]
    fn obs_hooks_are_inert_when_disabled() {
        let obs = EngineObs::new(&ObsConfig {
            enabled: false,
            flight_capacity: 4,
            slow_capacity: 4,
            slow_threshold_us: 0,
        });
        obs.start_query(QueryKind::Similarity);
        obs.on_join(
            CsjMethod::ApMinMax,
            &JoinTelemetry::default(),
            &PhaseTimings::default(),
            false,
            0,
        );
        obs.on_join_panicked();
        obs.on_budget_exhausted(ExhaustReason::Deadline);
        let snap = obs.snapshot(2, 1);
        assert_eq!(
            snap.counter_value("csj_queries_total", &[("kind", "similarity")]),
            0
        );
        assert_eq!(snap.counter_value("csj_join_panics_total", &[]), 0);
        // Gauges still reflect reality (they are set at snapshot time).
        assert_eq!(snap.counter_value("csj_communities", &[]), 2);
    }

    #[test]
    fn pathological_traces_land_in_the_slow_log() {
        let obs = EngineObs::new(&ObsConfig {
            enabled: true,
            flight_capacity: 4,
            slow_capacity: 4,
            slow_threshold_us: 60_000_000, // only bad outcomes capture
        });
        let rec = obs.start_query(QueryKind::Similarity);
        let id = rec.trace_id();
        assert!(id > 0, "flight id reserved up front");
        let trace = rec
            .finish("exhausted:deadline".into())
            .expect("recording on");
        assert_eq!(trace.id, id);
        obs.record_trace(trace);

        let healthy = obs.start_query(QueryKind::Similarity);
        let healthy_id = healthy.trace_id();
        obs.record_trace(healthy.finish("completed".into()).unwrap());

        let slow = obs.slow_queries(8);
        assert_eq!(slow.len(), 1, "healthy query not captured");
        assert_eq!(slow[0].trace.id, id);
        // Both traces are in the flight recorder, in id order.
        let ids: Vec<u64> = obs.traces(8).iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![id, healthy_id]);
        assert_eq!(obs.slow_log().offered(), 2);
        assert_eq!(obs.slow_log().captured(), 1);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn finish_rolls_up_telemetry_and_budget() {
        let rec = QueryRecorder::start("screen", true);
        let mut tel = JoinTelemetry::default();
        tel.rows_driven = 3;
        tel.candidates_streamed = 9;
        tel.matcher_edges = 5;
        tel.events.min_prune = 2;
        let timings = PhaseTimings::default();
        rec.record_join(CsjMethod::ApMinMax, 4, 8, &tel, &timings, "ok", 0);
        rec.record_join(CsjMethod::ApMinMax, 4, 6, &tel, &timings, "ok", 10);
        rec.note_budget("deadline", 7, 2);
        let trace = rec
            .finish("exhausted:deadline".into())
            .expect("recording on");
        use csj_obs::AttrValue;
        assert_eq!(trace.root.get_attr("joins"), Some(&AttrValue::U64(2)));
        assert_eq!(trace.root.get_attr("rows_driven"), Some(&AttrValue::U64(6)));
        assert_eq!(
            trace.root.get_attr("candidates_streamed"),
            Some(&AttrValue::U64(18))
        );
        assert_eq!(
            trace.root.get_attr("matcher_edges"),
            Some(&AttrValue::U64(10))
        );
        assert_eq!(
            trace.root.get_attr("prune_events"),
            Some(&AttrValue::U64(4))
        );
        assert_eq!(
            trace.root.get_attr("budget_reason"),
            Some(&AttrValue::Str("deadline".into()))
        );
        assert_eq!(trace.root.get_attr("pairs_done"), Some(&AttrValue::U64(7)));
        assert_eq!(
            trace.root.get_attr("pairs_skipped"),
            Some(&AttrValue::U64(2))
        );
    }

    #[test]
    fn outcome_labels() {
        assert_eq!(outcome_label(None), "completed");
        assert_eq!(
            outcome_label(Some(ExhaustReason::MaxJoins)),
            "exhausted:max-joins"
        );
        assert_eq!(
            outcome_label(Some(ExhaustReason::Deadline)),
            "exhausted:deadline"
        );
    }
}
