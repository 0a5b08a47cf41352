//! Scenario ii.b with live counters: a corpus of pages that share
//! subscribers is ingested durably, swept cold with `pairs_above`, hit
//! by a stream of durable counter-increment upserts, swept again, and
//! recovered by replaying the whole write-ahead log.
//!
//! Engine configuration is the shipped default (`EngineConfig::new`,
//! observability on, flat path). The fsync policy is fixed at
//! `FsyncPolicy::Interval(64)`: every append is written to the log at
//! once and fsynced in batches of 64, so at most 63 acked mutations are
//! exposed to a power loss; the stream ends with an explicit `sync`.
//! Batching keeps `upserts_per_s` a measure of the durable write path
//! rather than of the shared disk's momentary fsync latency.

use std::path::{Path, PathBuf};
use std::time::Instant;

use csj_core::run;
use csj_core::verify::ground_truth;
use csj_data::corpus::{Corpus, CorpusConfig};
use csj_durability::{DurabilityConfig, DurableEngine, FsyncPolicy};
use csj_engine::{CommunityHandle, CsjEngine, EngineConfig, MetricsSnapshot, PairScore};
use csj_obs::SampleValue;

use crate::couples::{answer_ok, Truth};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{median, percentile, process_cpu_s, ratio};
use crate::trace::{Tracer, ROOT};
use crate::{Ctx, PhaseOutput, Scenario, D};

/// Similarity cut of the sweep (the engine's default screen band).
pub const THRESHOLD: f64 = 0.15;
/// The stated durability policy of this scenario.
pub const FSYNC: FsyncPolicy = FsyncPolicy::Interval(64);
/// Swept pairs per sweep re-checked against the kernel and Hopcroft–Karp.
const CHECKED_PAIRS: usize = 6;
/// Bursts each round's upsert stream is timed in.
const UPSERT_BURSTS: usize = 4;
/// Restarts per round; `recovery_s` is the median over all of them.
const RECOVERIES: usize = 5;

fn durability_config() -> DurabilityConfig {
    DurabilityConfig {
        fsync: FSYNC,
        ..DurabilityConfig::default()
    }
}

/// The broadcast corpus for this seed.
fn corpus_config(ctx: &Ctx) -> CorpusConfig {
    CorpusConfig {
        users: ctx.sizes.broadcast_users,
        pages_per_category: ctx.sizes.pages_per_category,
        seed: ctx.seed ^ 0xB40A_DCA5,
        ..CorpusConfig::default()
    }
}

/// Generate the corpus and ingest it durably into a fresh `dir`.
fn set_up(ctx: &Ctx, dir: &Path) -> (DurableEngine, usize) {
    let _ = std::fs::remove_dir_all(dir);
    let t = ctx.tracer;
    let corpus = t.span("data.broadcast.corpus_generate", ROOT, 0, |_| {
        Corpus::generate(corpus_config(ctx))
    });
    let mut engine = t
        .span("durability.open", ROOT, 0, |_| {
            DurableEngine::open(
                dir,
                D,
                EngineConfig::new(csj_data::spec::VK_EPS),
                durability_config(),
            )
        })
        .expect("a fresh directory opens");
    let mut user_bytes = 0usize;
    for i in 0..corpus.pages().len() {
        let community = t.span("data.broadcast.community", ROOT, 0, |_| corpus.community(i));
        if community.len() < 2 {
            continue;
        }
        user_bytes += community.len() * (8 + 4 * D);
        t.span("durability.register", ROOT, 0, |_| {
            engine.register(community)
        })
        .expect("corpus page names are unique");
    }
    (engine, user_bytes)
}

/// Counter deltas of the engine across one sweep.
struct SweepDelta {
    wall_s: f64,
    cpu_s: f64,
    screen_joins: u64,
    refine_joins: u64,
    join_s: f64,
    candidates: u64,
    joins: u64,
    cache_hits: u64,
}

fn join_counts(snap: &MetricsSnapshot, method: &str) -> u64 {
    snap.counter_value("csj_joins_total", &[("method", method)])
}

fn join_seconds(snap: &MetricsSnapshot) -> f64 {
    snap.metrics
        .iter()
        .filter(|m| m.name == "csj_join_latency_seconds")
        .map(|m| match m.value {
            SampleValue::Histogram { sum_us, .. } => sum_us as f64 / 1e6,
            _ => 0.0,
        })
        .sum()
}

fn sweep(tracer: &Tracer, engine: &CsjEngine, name: &str) -> (Vec<PairScore>, SweepDelta) {
    let (s0, m0, c0) = (engine.stats(), engine.metrics_snapshot(), process_cpu_s());
    let t = Instant::now();
    let pairs = tracer
        .span(name, ROOT, 0, |_| engine.pairs_above(THRESHOLD))
        .expect("fault-free sweep");
    let wall_s = t.elapsed().as_secs_f64();
    let (s1, m1, c1) = (engine.stats(), engine.metrics_snapshot(), process_cpu_s());
    let screen = engine.config().screen_method.name();
    let refine = engine.config().refine_method.name();
    let delta = SweepDelta {
        wall_s,
        cpu_s: c1 - c0,
        screen_joins: join_counts(&m1, screen) - join_counts(&m0, screen),
        refine_joins: join_counts(&m1, refine) - join_counts(&m0, refine),
        join_s: join_seconds(&m1) - join_seconds(&m0),
        candidates: s1.telemetry.candidates_streamed - s0.telemetry.candidates_streamed,
        joins: s1.joins_executed - s0.joins_executed,
        cache_hits: s1.cache_hits - s0.cache_hits,
    };
    (pairs, delta)
}

/// Re-check a seeded sample of swept pairs: the engine's score must be
/// exactly what the kernel (`csj_core::run` with the engine's refine
/// method and options) returns for the same pair, and that must keep
/// the bounds of `couples::answer_ok` against the Hopcroft–Karp
/// maximum. Returns `(checked, wrong)`.
pub fn check_pairs(
    tracer: &Tracer,
    engine: &CsjEngine,
    pairs: &[PairScore],
    rng: &mut Rng,
    n: usize,
) -> (u64, u64) {
    let opts = &engine.config().options;
    let method = engine.config().refine_method;
    let mut wrong = 0;
    let picks: Vec<usize> = (0..n.min(pairs.len()))
        .map(|_| rng.below(pairs.len()))
        .collect();
    for &i in &picks {
        let p = pairs[i];
        let (x, y) = (
            engine.community(p.x).expect("live"),
            engine.community(p.y).expect("live"),
        );
        // The engine's orientation: smaller community as B, the lower
        // handle on a tie (sweeps report `x < y`).
        let (b, a) = if x.len() <= y.len() { (x, y) } else { (y, x) };
        let (kernel, truth) = tracer.span("check.ground_truth", ROOT, 0, |_| {
            let g = ground_truth(b, a, opts.eps);
            let truth = Truth {
                maximum: g.maximum_matching.len(),
                candidates: g.candidate_pairs.len() as u64,
            };
            (run(method, b, a, opts), truth)
        });
        let ok = kernel.is_ok_and(|k| {
            k.similarity == p.similarity
                && answer_ok(
                    method,
                    k.similarity.matched,
                    k.telemetry.matcher_edges,
                    truth,
                    true,
                )
        });
        if !ok {
            wrong += 1;
        }
    }
    (picks.len() as u64, wrong)
}

/// One counter-increment upsert: a member of a hot community likes one
/// more page of some category.
fn next_upsert(
    rng: &mut Rng,
    engine: &CsjEngine,
    hot: &[CommunityHandle],
) -> (CommunityHandle, u64, Vec<u32>) {
    let h = hot[rng.below(hot.len())];
    let c = engine.community(h).expect("live handle");
    let i = rng.below(c.len());
    let mut v = c.vector(i).to_vec();
    v[rng.below(D)] += 1;
    (h, c.user_id(i), v)
}

/// The broadcast scenario: per-round samples and the counters of the
/// first round.
pub struct Broadcast {
    rng: Rng,
    setup_s: Vec<f64>,
    sweep_s: Vec<f64>,
    resweep_s: Vec<f64>,
    /// Per upsert burst.
    upserts_per_s: Vec<f64>,
    recovery_s: Vec<f64>,
    sweep_join_s: Vec<f64>,
    sweep_overhead_s: Vec<f64>,
    cores_busy: Vec<f64>,
    report: Report,
}

impl Broadcast {
    /// Set up `setup_repeats` times for the set-up median; each round
    /// then sets up once more into a fresh directory, because a cold
    /// sweep needs a cold engine.
    pub fn set_up(ctx: &Ctx) -> Self {
        let mut setup_s = Vec::new();
        for k in 0..ctx.sizes.setup_repeats {
            let dir = ctx.work_dir.join(format!("broadcast-setup-{k}"));
            let t = Instant::now();
            let built = set_up(ctx, &dir);
            setup_s.push(t.elapsed().as_secs_f64());
            drop(built);
            let _ = std::fs::remove_dir_all(&dir);
        }
        Broadcast {
            rng: Rng::new(ctx.seed, 0xB0),
            setup_s,
            sweep_s: Vec::new(),
            resweep_s: Vec::new(),
            upserts_per_s: Vec::new(),
            recovery_s: Vec::new(),
            sweep_join_s: Vec::new(),
            sweep_overhead_s: Vec::new(),
            cores_busy: Vec::new(),
            report: Report::default(),
        }
    }

    fn check(&mut self, ctx: &Ctx, engine: &CsjEngine, pairs: &[PairScore]) {
        let (n, bad) = check_pairs(ctx.tracer, engine, pairs, &mut self.rng, CHECKED_PAIRS);
        for k in 0..n {
            self.report.op(k >= bad);
        }
        if bad > 0 {
            self.report
                .note(format!("broadcast: {bad} of {n} checked pairs wrong"));
        }
    }
}

impl Scenario for Broadcast {
    /// One round: fresh ingest, cold sweep, upserts, resweep, restart.
    fn step(&mut self, ctx: &Ctx) {
        let round = self.sweep_s.len();
        let dir: PathBuf = ctx.work_dir.join(format!("broadcast-{round}"));
        let t = Instant::now();
        let (mut engine, user_bytes) = set_up(ctx, &dir);
        self.setup_s.push(t.elapsed().as_secs_f64());

        let (pairs, cold) = sweep(ctx.tracer, engine.engine(), "engine.pairs_above.cold");
        self.check(ctx, engine.engine(), &pairs);

        // Durable counter increments over a hot set of every fourth
        // community in size order, so every seed invalidates a similar,
        // size-representative share of the cache; the seed picks each
        // upsert's community, member and counter.
        let mut handles: Vec<CommunityHandle> = engine.engine().handles().collect();
        handles.sort_by_key(|&h| {
            (
                std::cmp::Reverse(engine.engine().community(h).expect("live").len()),
                h,
            )
        });
        let hot: Vec<CommunityHandle> = handles.iter().step_by(4).copied().collect();
        let hot = &hot[..];
        let cached_before = engine.engine().stats().cached_pairs;
        // Throughput is sampled per burst: many short samples spread over
        // the run, of which `upserts_per_s` is the median.
        for burst in 0..UPSERT_BURSTS {
            let n = ctx.sizes.upserts / UPSERT_BURSTS;
            let t = Instant::now();
            for _ in 0..n {
                let (h, user, v) = next_upsert(&mut self.rng, engine.engine(), hot);
                let acked = ctx.tracer.span("durability.upsert_user", ROOT, 0, |_| {
                    engine.upsert_user(h, user, &v)
                });
                self.report.op(acked.is_ok());
            }
            if burst + 1 == UPSERT_BURSTS {
                let synced = ctx
                    .tracer
                    .span("durability.sync", ROOT, 0, |_| engine.sync());
                self.report.op(synced.is_ok());
            }
            self.upserts_per_s
                .push(n as f64 / t.elapsed().as_secs_f64());
        }
        let invalidated = cached_before - engine.engine().stats().cached_pairs;

        let (repairs, warm) = sweep(ctx.tracer, engine.engine(), "engine.pairs_above.resweep");
        self.check(ctx, engine.engine(), &repairs);

        let fingerprint = engine.fingerprint();
        let dm = engine.durability_metrics();
        let wal_bytes = dm.counter_value("csj_wal_bytes_total", &[]) as f64;
        let fsyncs = dm.counter_value("csj_wal_fsyncs_total", &[]) as f64;
        drop(engine);

        // Restart: no snapshot was taken, so each open replays the whole
        // log. Opening a cleanly closed log changes nothing on disk, so
        // the restart repeats on the same directory.
        let mut records = 0u64;
        for _ in 0..RECOVERIES {
            let t = Instant::now();
            let reopened = ctx.tracer.span("durability.recover", ROOT, 0, |_| {
                DurableEngine::open(
                    &dir,
                    D,
                    EngineConfig::new(csj_data::spec::VK_EPS),
                    durability_config(),
                )
            });
            let elapsed = t.elapsed().as_secs_f64();
            match reopened {
                Ok(e) => {
                    self.recovery_s.push(elapsed);
                    records = e.report().records_replayed;
                    self.report.op(e.fingerprint() == fingerprint);
                }
                Err(err) => {
                    self.report.op(false);
                    self.report.note(format!("recovery failed: {err}"));
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);

        self.sweep_s.push(cold.wall_s);
        self.resweep_s.push(warm.wall_s);
        self.sweep_join_s.push(cold.join_s);
        self.sweep_overhead_s.push(cold.wall_s - cold.join_s);
        self.cores_busy.push(ratio(cold.cpu_s, cold.wall_s));
        if round == 0 {
            let r = &mut self.report;
            r.layer(
                "engine.sweep.screen_joins",
                cold.screen_joins as f64,
                "count",
            );
            r.layer(
                "engine.sweep.refine_joins",
                cold.refine_joins as f64,
                "count",
            );
            r.layer(
                "engine.sweep.refine_yield",
                ratio(pairs.len() as f64, cold.refine_joins as f64),
                "ratio",
            );
            r.layer("engine.sweep.candidates", cold.candidates as f64, "count");
            r.layer(
                "engine.upsert.invalidated_pairs",
                invalidated as f64,
                "count",
            );
            r.layer("engine.resweep.joins", warm.joins as f64, "count");
            r.layer("engine.resweep.cache_hits", warm.cache_hits as f64, "count");
            r.layer(
                "engine.resweep.hit_ratio",
                ratio(
                    warm.cache_hits as f64,
                    (warm.cache_hits + warm.refine_joins) as f64,
                ),
                "ratio",
            );
            r.layer("durability.fsyncs", fsyncs, "count");
            r.layer("durability.wal_bytes", wal_bytes, "bytes");
            let logged_user_bytes = user_bytes + ctx.sizes.upserts * (8 + 4 * D);
            r.layer(
                "durability.wal_bytes_per_user_byte",
                ratio(wal_bytes, logged_user_bytes as f64),
                "ratio",
            );
            r.layer("durability.recovery.records", records as f64, "count");
            r.note(format!(
                "broadcast: {} users, {} pages/category, {} communities, {} swept pairs, \
                 {} upserts per round, fsync={FSYNC}",
                ctx.sizes.broadcast_users,
                ctx.sizes.pages_per_category,
                handles.len(),
                pairs.len(),
                ctx.sizes.upserts
            ));
        }
    }

    fn min_steps(&self, _ctx: &Ctx) -> usize {
        2
    }

    fn finish(self: Box<Self>, ctx: &Ctx) -> PhaseOutput {
        let mut report = self.report;
        let recovery_s = median(&self.recovery_s);
        report.e2e("sweep_s", median(&self.sweep_s), "s");
        report.layer("upserts_per_s", median(&self.upserts_per_s), "ops/s");
        report.e2e("resweep_s", median(&self.resweep_s), "s");
        report.e2e("recovery_s", recovery_s, "s");
        report.layer("engine.sweep.join_s", median(&self.sweep_join_s), "s");
        report.layer(
            "engine.sweep.overhead_s",
            median(&self.sweep_overhead_s),
            "s",
        );
        report.layer("engine.sweep.cores_busy", median(&self.cores_busy), "ratio");
        let ms = |name: &str, scale: f64| -> Vec<f64> {
            ctx.tracer
                .durations(name)
                .iter()
                .map(|s| s * scale)
                .collect()
        };
        report.layer(
            "durability.register_ms_p50",
            median(&ms("durability.register", 1e3)),
            "ms",
        );
        let upsert_us = ms("durability.upsert_user", 1e6);
        report.layer(
            "durability.upsert_us_p50",
            percentile(&upsert_us, 50.0),
            "us",
        );
        report.layer(
            "durability.upsert_us_p99",
            percentile(&upsert_us, 99.0),
            "us",
        );
        let records = report.find("durability.recovery.records").unwrap_or(0.0);
        report.layer(
            "durability.recovery.records_per_s",
            ratio(records, recovery_s),
            "1/s",
        );
        let fmt = |xs: &[f64]| {
            xs.iter()
                .map(|x| format!("{x:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        report.note(format!(
            "broadcast: {} rounds, {} set-ups | sweep_s [{}] resweep_s [{}]",
            self.sweep_s.len(),
            self.setup_s.len(),
            fmt(&self.sweep_s),
            fmt(&self.resweep_s),
        ));
        PhaseOutput {
            report,
            setup_s: median(&self.setup_s),
            setups: self.setup_s.len(),
            primary: median(&self.sweep_s),
        }
    }
}
