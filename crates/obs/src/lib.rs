//! # csj-obs — observability for the CSJ engine
//!
//! Set-similarity systems live and die by visibility into pruning
//! effectiveness and skew: where a slow `top_k_similar` spends its time,
//! which method/eps regime dominates latency, and what exactly happened
//! in the query that blew its budget or panicked. This crate packages
//! that visibility as three small, dependency-free building blocks:
//!
//! * **Spans** ([`Span`], [`QueryTrace`]) — a hierarchical record of one
//!   query (`query → screen/refine → join → phase`) with microsecond
//!   offsets and typed attributes (method, eps, |B|, |A|, budget
//!   outcome). Cheap enough to stay on in release builds; the engine
//!   skips construction entirely when observability is disabled.
//! * **Metrics** ([`MetricsRegistry`]) — counters, gauges and
//!   histograms (a fixed-boundary latency histogram plus
//!   `csj_core::telemetry::LogHistogram` for depth distributions), each
//!   a series of a family declared once in [`catalog`], exported as a
//!   [`MetricsSnapshot`] that renders both **Prometheus text
//!   exposition** and **JSON**.
//! * **Flight recorder** ([`FlightRecorder`]) — a bounded ring buffer of
//!   the last N completed [`QueryTrace`]s (including partial, exhausted
//!   and panicked queries) so a bad query can be reconstructed after the
//!   fact.
//! * **Forensics** ([`SlowQueryLog`]) — a second, smaller ring that
//!   keeps only pathological traces (over-threshold or non-`completed`
//!   outcome), so the interesting query survives eviction by thousands
//!   of healthy ones.
//! * **SLOs** ([`slo::evaluate`]) — declarative objectives over
//!   catalog families, evaluated from one snapshot into burn rates and
//!   rendered as `csj_slo_*` gauges ([`slo::gauges`]).
//! * **Export** ([`traces_to_chrome`], [`traces_to_jsonl`]) — span
//!   trees serialized to Chrome `trace_event` JSON (opens in
//!   `about://tracing`) or a greppable JSON-lines stream.
//!
//! The hot-path types are lock-free ([`Counter`], [`Gauge`],
//! [`LatencyHistogram`] are atomics); only trace assembly and
//! `LogHistogram` merging take a mutex, at per-join (not per-candidate)
//! granularity.

pub mod catalog;
mod export;
mod flight;
mod forensics;
mod metrics;
pub mod slo;
mod span;

pub use catalog::{Family, FamilyInfo, Label};
pub use export::{traces_to_chrome, traces_to_jsonl};
pub use flight::FlightRecorder;
pub use forensics::{CaptureCause, ForensicRecord, SlowQueryLog};
pub use metrics::{
    ByLabel, Counter, FloatGauge, Gauge, Instrument, Kind, LatencyHistogram, LogHistogramCell,
    MetricSample, MetricsRegistry, MetricsSnapshot, SampleValue, LATENCY_BOUNDS_US,
};
pub use slo::{Objective, Selector, SloSource, SloStatus};
pub use span::{escape_json, AttrValue, QueryTrace, Span};
