//! Scenario ii.a, partner search: a corpus registered in an engine with
//! sharding on, wrapped in the query service, answers an open loop of
//! requests sent at one fixed rate whatever the service's progress.
//!
//! The run's requests are spread over `CORPORA` seeded corpora, each
//! registered in its own engine and served by its own service; the
//! slices take turns among them. One corpus holds about 90 communities,
//! and the work of a top-k differs by a tenth or more between the
//! corpora of two seeds; spreading every run over several corpora
//! keeps that from deciding the run's latencies.
//!
//! After each open-loop chunk, when the service is idle again, the
//! scenario sends `PROBES_PER_STEP` top-k requests of the schedule one
//! at a time and times each call: the partner query's latency without
//! queueing behind other requests. On a shared two-core host the open
//! loop's latencies move with how promptly the host runs the request's
//! threads, and a run in a busy stretch read 60–90% above the others;
//! the isolated call is mostly the query's own work.
//!
//! Mix: 60% `Similarity { method: None }` (exact, served from the warm
//! cache), 25% `Similarity { method: Some(ApMinMax) }` (never cached)
//! and 15% `TopK { k: 5 }` (sharded screen-and-refine). Communities are
//! drawn Zipf(1) by popularity (subscriber count); similarity partners
//! only among pairs the CSJ size rule admits.
//!
//! Threads: one generator thread sends; one collector thread per
//! request kind redeems that kind's tickets. `Ticket` has only a
//! blocking `wait`, so each collector drains its tickets in submission
//! order: a slow request delays the collection of later ones of its own
//! kind (a head-of-line bias that can only raise measured latencies).
//! Per-kind collectors keep a top-k from delaying the collection of the
//! cache hits behind it. The collectors sleep in `wait`; the service's
//! two workers with one engine thread each are the only busy threads.

use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use csj_core::{CsjMethod, Similarity};
use csj_data::corpus::{Corpus, CorpusConfig};
use csj_engine::{CommunityHandle, CsjEngine, EngineConfig, MetricsSnapshot, PairScore};
use csj_obs::SampleValue;
use csj_service::{CsjService, Request, ResponseValue, ServiceConfig, ServiceError};

use crate::report::Report;
use crate::rng::{admissible_partners, Rng, Zipf};
use crate::stats::{median, percentile, ratio};
use crate::trace::{Tracer, ROOT};
use crate::{Ctx, PhaseOutput, Scenario, D};

/// Service workers. Each runs one request at a time.
pub const SERVICE_WORKERS: usize = 2;
/// Engine threads per query (also the shard executor's pool), so at
/// most `SERVICE_WORKERS * ENGINE_THREADS` busy threads.
pub const ENGINE_THREADS: usize = 1;
/// Shards per sharded query. More shards than executor threads: the
/// executor runs them in turn, and the layout still balances them.
pub const SHARDS: usize = 2;
/// Neighbours per top-k request.
pub const TOP_K: usize = 5;
/// Corpora, engines and services per run; slices rotate among them.
pub const CORPORA: usize = 3;
/// Top-k requests sent one at a time to the idle service after each
/// open-loop chunk.
pub const PROBES_PER_STEP: usize = 30;

/// Request kinds of the mix, with their share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    Similarity,
    SimilarityAp,
    TopK,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Similarity, Kind::SimilarityAp, Kind::TopK];

    pub fn label(self) -> &'static str {
        match self {
            Kind::Similarity => "similarity",
            Kind::SimilarityAp => "similarity_ap",
            Kind::TopK => "top_k",
        }
    }
}

/// One scheduled request: kind plus handles (`y` unused for top-k).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Planned {
    pub kind: Kind,
    pub x: CommunityHandle,
    pub y: CommunityHandle,
}

impl Planned {
    pub fn request(self) -> Request {
        match self.kind {
            Kind::Similarity => Request::Similarity {
                x: self.x,
                y: self.y,
                method: None,
            },
            Kind::SimilarityAp => Request::Similarity {
                x: self.x,
                y: self.y,
                method: Some(CsjMethod::ApMinMax),
            },
            Kind::TopK => Request::TopK {
                x: self.x,
                k: TOP_K,
            },
        }
    }
}

/// A reference answer, computed untimed on the warm-up engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Score(Similarity),
    Ranking(Vec<PairScore>),
}

pub fn engine_config() -> EngineConfig {
    let mut config = EngineConfig::new(csj_data::spec::VK_EPS);
    config.threads = ENGINE_THREADS;
    config.shard.enabled = true;
    config.shard.shards = SHARDS;
    config
}

pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: SERVICE_WORKERS,
        ..ServiceConfig::default()
    }
}

fn corpus_config(ctx: &Ctx, corpus: usize) -> CorpusConfig {
    CorpusConfig {
        users: ctx.sizes.partner_users,
        pages_per_category: ctx.sizes.pages_per_category,
        seed: (ctx.seed ^ 0x9A27_4E11).wrapping_add(corpus as u64 * 0x5851_F42D),
        ..CorpusConfig::default()
    }
}

/// The seeded request schedule over `engine`'s communities.
pub fn schedule(engine: &CsjEngine, n: usize, rng: &mut Rng) -> Vec<Planned> {
    let mut handles: Vec<CommunityHandle> = engine.handles().collect();
    // Popularity order: most subscribers first, ties by handle.
    handles.sort_by_key(|&h| {
        (
            std::cmp::Reverse(engine.community(h).expect("live").len()),
            h,
        )
    });
    let communities: Vec<_> = handles
        .iter()
        .map(|&h| engine.community(h).expect("live"))
        .collect();
    let partners = admissible_partners(&communities);
    let with_partner: Vec<usize> = (0..handles.len())
        .filter(|&i| !partners[i].is_empty())
        .collect();
    let any = Zipf::new(handles.len(), 1.0);
    let paired = Zipf::new(with_partner.len(), 1.0);
    (0..n)
        .map(|_| {
            let u = rng.unit();
            let kind = if u < 0.60 {
                Kind::Similarity
            } else if u < 0.85 {
                Kind::SimilarityAp
            } else {
                Kind::TopK
            };
            if kind == Kind::TopK {
                let x = handles[any.sample(rng)];
                return Planned { kind, x, y: x };
            }
            let i = with_partner[paired.sample(rng)];
            let j = partners[i][rng.below(partners[i].len())];
            Planned {
                kind,
                x: handles[i],
                y: handles[j],
            }
        })
        .collect()
}

/// Compute the reference answer of every distinct planned request
/// directly on the engine. The exact ones fill the engine's cache: this
/// is the warm-up.
pub fn references(
    tracer: &Tracer,
    engine: &CsjEngine,
    plan: &[Planned],
) -> HashMap<Planned, Answer> {
    let mut refs = HashMap::new();
    for &p in plan {
        if refs.contains_key(&p) {
            continue;
        }
        let answer = tracer.span("engine.warm_up", ROOT, 0, |_| match p.kind {
            Kind::Similarity => {
                Answer::Score(engine.similarity(p.x, p.y).expect("admissible pair"))
            }
            Kind::SimilarityAp => Answer::Score(
                engine
                    .similarity_with(p.x, p.y, CsjMethod::ApMinMax)
                    .expect("admissible pair"),
            ),
            Kind::TopK => Answer::Ranking(engine.top_k_similar(p.x, TOP_K).expect("live handle")),
        });
        refs.insert(p, answer);
    }
    refs
}

/// Whether a service answer matches the reference.
pub fn answer_matches(value: &ResponseValue, reference: &Answer) -> bool {
    match (value, reference) {
        (ResponseValue::Similarity(s), Answer::Score(r)) => s == r,
        (ResponseValue::Ranking(v), Answer::Ranking(r)) => v == r,
        _ => false,
    }
}

fn histogram(snap: &MetricsSnapshot, name: &str) -> (f64, f64) {
    snap.metrics
        .iter()
        .filter(|m| m.name == name)
        .map(|m| match m.value {
            SampleValue::Histogram { sum_us, count, .. } => (sum_us as f64 / 1e3, count as f64),
            _ => (0.0, 0.0),
        })
        .fold((0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1))
}

/// Counter deltas over the measuring window, summed over the corpora.
#[derive(Default)]
struct Deltas {
    queue_wait_ms: f64,
    queue_waits: f64,
    request_ms: f64,
    requests: f64,
    cache_hits: f64,
    refines: f64,
    joins: f64,
    dispatched: f64,
    hedged: f64,
    shard_ms: f64,
    shard_runs: f64,
}

impl Deltas {
    /// Add one corpus's deltas and stop its service.
    fn add(&mut self, i: Instance) {
        let service = i.service.service_metrics();
        let (wait_ms, waits) = histogram(&service, "csj_service_queue_wait_seconds");
        let (request_ms, requests) = histogram(&service, "csj_service_request_seconds");
        let (after, before) = (i.service.metrics_snapshot(), &i.engine_before);
        let stats = i.service.engine().stats();
        let refine = [("method", CsjMethod::ExMinMax.name())];
        let counter = |name: &str, labels: &[(&str, &str)]| {
            (after.counter_value(name, labels) - before.counter_value(name, labels)) as f64
        };
        let (shard_ms, shard_runs) = histogram(&after, "csj_shard_latency_seconds");
        let (shard_ms_before, shard_runs_before) = histogram(before, "csj_shard_latency_seconds");
        self.queue_wait_ms += wait_ms;
        self.queue_waits += waits;
        self.request_ms += request_ms;
        self.requests += requests;
        self.cache_hits += (stats.cache_hits - i.stats_before.cache_hits) as f64;
        self.refines += counter("csj_joins_total", &refine);
        self.joins += (stats.joins_executed - i.stats_before.joins_executed) as f64;
        self.dispatched += counter("csj_shard_dispatched_total", &[]);
        self.hedged += counter("csj_shard_hedged_total", &[]);
        self.shard_ms += shard_ms - shard_ms_before;
        self.shard_runs += shard_runs - shard_runs_before;
    }
}

/// What the collector saw of one request.
struct Outcome {
    kind: Kind,
    latency_ms: f64,
    ok: bool,
    shed: bool,
    degraded: bool,
    retries: u32,
}

struct Sent {
    planned: Planned,
    index: usize,
    span: u64,
    due: Instant,
    submitted: Result<csj_service::Ticket, ServiceError>,
}

fn set_up(
    ctx: &Ctx,
    index: usize,
    requests: usize,
) -> (CsjEngine, Vec<Planned>, HashMap<Planned, Answer>) {
    let t = ctx.tracer;
    let corpus = t.span("data.partner.corpus_generate", ROOT, 0, |_| {
        Corpus::generate(corpus_config(ctx, index))
    });
    let mut engine = CsjEngine::new(D, engine_config());
    for i in 0..corpus.pages().len() {
        let community = t.span("data.partner.community", ROOT, 0, |_| corpus.community(i));
        if community.len() < 2 {
            continue;
        }
        t.span("engine.register", ROOT, 0, |_| engine.register(community))
            .expect("corpus page names are unique");
    }
    let mut rng = Rng::new(ctx.seed, 0x9A + index as u64);
    let plan = schedule(&engine, requests, &mut rng);
    let refs = references(t, &engine, &plan);
    (engine, plan, refs)
}

/// One corpus of the scenario: a warm service, its schedule with
/// reference answers, and the counters at the start of the window.
struct Instance {
    service: CsjService,
    plan: Vec<Planned>,
    refs: HashMap<Planned, Answer>,
    next: usize,
    /// The schedule's top-k requests, probed in turn.
    probes: Vec<Planned>,
    next_probe: usize,
    engine_before: MetricsSnapshot,
    stats_before: csj_engine::EngineStats,
}

/// The partner scenario: its corpora and what the collectors saw so far.
pub struct Partner {
    instances: Vec<Instance>,
    steps: usize,
    outcomes: Vec<Outcome>,
    /// Latencies of the isolated top-k calls.
    probe_ms: Vec<f64>,
    probes_failed: usize,
    lag_ms: f64,
    depth_max: usize,
    shards: usize,
    imbalance: f64,
    setup_s: Vec<f64>,
}

impl Partner {
    /// Set up all corpora `setup_repeats` times (generation,
    /// registration, warm-up with reference answers) and start a service
    /// on each of the last set-up.
    pub fn set_up(ctx: &Ctx) -> Self {
        let requests = planned_requests(ctx).div_ceil(CORPORA);
        let mut setup_s = Vec::new();
        let mut built = Vec::new();
        for _ in 0..ctx.sizes.setup_repeats.max(1) {
            let t = Instant::now();
            built = (0..CORPORA).map(|i| set_up(ctx, i, requests)).collect();
            setup_s.push(t.elapsed().as_secs_f64());
        }
        // The layout a top-k of the first corpus's most requested
        // community runs on.
        let (engine, plan, _) = &built[0];
        let mut counts: HashMap<CommunityHandle, usize> = HashMap::new();
        for p in plan.iter().filter(|p| p.kind == Kind::TopK) {
            *counts.entry(p.x).or_default() += 1;
        }
        let mut candidates: Vec<CommunityHandle> = engine.handles().collect();
        let hottest = counts
            .into_iter()
            .max_by_key(|&(h, n)| (n, std::cmp::Reverse(h)))
            .map_or(candidates[0], |(h, _)| h);
        candidates.retain(|&h| h != hottest);
        let layout = ctx
            .tracer
            .span("engine.shard_layout", ROOT, 0, |_| {
                engine.shard_layout(&candidates)
            })
            .expect("live handles");
        let instances = built
            .into_iter()
            .map(|(engine, plan, refs)| {
                let service = CsjService::start(engine, service_config());
                let probes = plan
                    .iter()
                    .filter(|p| p.kind == Kind::TopK)
                    .copied()
                    .collect();
                Instance {
                    probes,
                    next_probe: 0,
                    engine_before: service.metrics_snapshot(),
                    stats_before: service.engine().stats(),
                    service,
                    plan,
                    refs,
                    next: 0,
                }
            })
            .collect();
        Partner {
            instances,
            steps: 0,
            outcomes: Vec::new(),
            probe_ms: Vec::new(),
            probes_failed: 0,
            lag_ms: 0.0,
            depth_max: 0,
            shards: layout.shards.len(),
            imbalance: layout.imbalance(),
            setup_s,
        }
    }
}

/// Requests a run sends when partner is its workload, over all corpora;
/// other runs send a prefix of the same schedules, and a schedule
/// repeats if a run sends more.
fn planned_requests(ctx: &Ctx) -> usize {
    let share = ctx.seconds * crate::SHARE_OWN;
    ctx.sizes
        .partner_requests
        .max((share * ctx.sizes.partner_rate).ceil() as usize)
}

impl Scenario for Partner {
    /// One chunk of the open loop against the next corpus in turn:
    /// `partner_chunk` requests sent at the fixed rate by this thread,
    /// redeemed by one collector per kind.
    fn step(&mut self, ctx: &Ctx) {
        let tracer = ctx.tracer;
        let period = Duration::from_secs_f64(1.0 / ctx.sizes.partner_rate);
        let first = self.outcomes.len();
        let instance = &mut self.instances[self.steps % CORPORA];
        self.steps += 1;
        let chunk: Vec<(usize, Planned)> = (0..ctx.sizes.partner_chunk)
            .map(|k| {
                let at = instance.next + k;
                (first + k, instance.plan[at % instance.plan.len()])
            })
            .collect();
        instance.next += chunk.len();
        let service = &instance.service;
        let refs = &instance.refs;
        let (outcomes, lag_ms, depth_max) = std::thread::scope(|scope| {
            // One collector per request kind, each redeeming its kind's
            // tickets in submission order.
            let (senders, collectors): (Vec<_>, Vec<_>) = Kind::ALL
                .iter()
                .map(|_| {
                    let (tx, rx) = mpsc::channel::<Sent>();
                    let collector = scope.spawn(move || {
                        rx.into_iter()
                            .map(|sent| collect(tracer, refs, sent))
                            .collect::<Vec<_>>()
                    });
                    (tx, collector)
                })
                .unzip();
            // Request `k` of the chunk is due at `start + k * period`,
            // whatever happened to earlier requests.
            let mut lag_ms = 0.0f64;
            let mut depth_max = 0usize;
            let start = Instant::now() + Duration::from_millis(5);
            for (k, &(index, planned)) in chunk.iter().enumerate() {
                let due = start + period * k as u32;
                wait_until(due);
                lag_ms =
                    lag_ms.max(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                depth_max = depth_max.max(service.queue_depth());
                let span = tracer.reserve();
                let submitted = tracer.span("service.submit", span, index as u64, |_| {
                    service.submit(planned.request())
                });
                let kind = Kind::ALL
                    .iter()
                    .position(|&k| k == planned.kind)
                    .expect("a kind");
                senders[kind]
                    .send(Sent {
                        planned,
                        index,
                        span,
                        due,
                        submitted,
                    })
                    .expect("collectors outlive the generator");
            }
            drop(senders);
            let outcomes: Vec<Outcome> = collectors
                .into_iter()
                .flat_map(|c| c.join().expect("collector thread panicked"))
                .collect();
            (outcomes, lag_ms, depth_max)
        });
        self.outcomes.extend(outcomes);
        self.lag_ms = self.lag_ms.max(lag_ms);
        self.depth_max = self.depth_max.max(depth_max);

        // The isolated top-k calls, on the now idle service.
        for _ in 0..PROBES_PER_STEP.min(instance.probes.len()) {
            let planned = instance.probes[instance.next_probe % instance.probes.len()];
            instance.next_probe += 1;
            let t = Instant::now();
            let response = tracer.span("service.call.top_k", ROOT, 0, |_| {
                instance.service.call(planned.request())
            });
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let ok = response
                .is_ok_and(|r| !r.degraded && answer_matches(&r.value, &instance.refs[&planned]));
            self.probe_ms.push(if ok { ms } else { f64::INFINITY });
            self.probes_failed += usize::from(!ok);
        }
    }

    fn min_steps(&self, ctx: &Ctx) -> usize {
        ctx.sizes
            .partner_requests
            .div_ceil(ctx.sizes.partner_chunk)
            .max(CORPORA)
    }

    fn finish(self: Box<Self>, ctx: &Ctx) -> PhaseOutput {
        let mut this = *self;
        let mut report = Report::default();
        let mut d = Deltas::default();
        for instance in this.instances.drain(..) {
            d.add(instance);
        }

        let mut all_ms = Vec::new();
        let mut by_kind: HashMap<Kind, Vec<f64>> = HashMap::new();
        let (mut shed, mut degraded, mut retries) = (0usize, 0usize, 0u64);
        for &ms in &this.probe_ms {
            report.op(ms.is_finite());
        }
        for o in &this.outcomes {
            report.op(o.ok);
            all_ms.push(o.latency_ms);
            by_kind.entry(o.kind).or_default().push(o.latency_ms);
            shed += usize::from(o.shed);
            degraded += usize::from(o.degraded);
            retries += u64::from(o.retries);
        }
        // A refused or failed request misses every latency limit: it
        // enters the percentiles as an unbounded latency.
        let cap = |x: f64| if x.is_finite() { x } else { 1e12 };
        // The isolated top-k call is gated: top-k is the partner query
        // itself, and alone its latency is the query's work. The open
        // loop's statistics are printed ungated (README.md).
        let top_k_ms = cap(percentile(&this.probe_ms, 50.0));
        report.e2e("top_k_ms", top_k_ms, "ms");
        report.layer("request_p50_ms", cap(percentile(&all_ms, 50.0)), "ms");
        report.layer("request_p99_ms", cap(percentile(&all_ms, 99.0)), "ms");
        report.layer("request_mean_ms", cap(crate::stats::mean(&all_ms)), "ms");

        let submitted = this.outcomes.len() as f64;
        let submit_us: Vec<f64> = ctx
            .tracer
            .durations("service.submit")
            .iter()
            .map(|s| s * 1e6)
            .collect();
        report.layer("service.submit_us_p50", median(&submit_us), "us");
        report.layer(
            "service.queue_wait_ms_mean",
            ratio(d.queue_wait_ms, d.queue_waits),
            "ms",
        );
        report.layer(
            "service.exec_ms_mean",
            ratio(d.request_ms - d.queue_wait_ms, d.requests),
            "ms",
        );
        report.layer("service.queue_depth_max", this.depth_max as f64, "count");
        report.layer(
            "service.shed_fraction",
            ratio(shed as f64, submitted),
            "ratio",
        );
        report.layer(
            "service.degraded_fraction",
            ratio(degraded as f64, submitted),
            "ratio",
        );
        report.layer("service.retries", retries as f64, "count");
        for kind in Kind::ALL {
            let xs = by_kind.get(&kind).map_or(&[][..], Vec::as_slice);
            report.layer(
                format!("service.{}.p50_ms", kind.label()),
                cap(percentile(xs, 50.0)),
                "ms",
            );
            report.layer(
                format!("service.{}.p99_ms", kind.label()),
                cap(percentile(xs, 99.0)),
                "ms",
            );
        }
        report.layer("service.generator_lag_ms_max", this.lag_ms, "ms");

        report.layer(
            "engine.partner.cache_hit_ratio",
            ratio(d.cache_hits, d.cache_hits + d.refines),
            "ratio",
        );
        report.layer("engine.partner.joins", d.joins, "count");

        report.layer("shard.dispatched", d.dispatched, "count");
        report.layer("shard.hedged", d.hedged, "count");
        report.layer("shard.hedge_ratio", ratio(d.hedged, d.dispatched), "ratio");
        report.layer("shard.imbalance", this.imbalance, "ratio");
        report.layer("shard.mean_ms", ratio(d.shard_ms, d.shard_runs), "ms");

        report.note(format!(
            "partner: {CORPORA} corpora of {} users, {} requests at {} req/s (open loop, \
             chunks of {}), service workers {SERVICE_WORKERS} x engine threads {ENGINE_THREADS}, \
             {} shards | submitted {} shed {shed} degraded {degraded} failed {} | generator lag \
             max {:.3} ms | isolated top-k calls {}, failed {}",
            ctx.sizes.partner_users,
            this.outcomes.len(),
            ctx.sizes.partner_rate,
            ctx.sizes.partner_chunk,
            this.shards,
            this.outcomes.len(),
            report.failed,
            this.lag_ms,
            this.probe_ms.len(),
            this.probes_failed,
        ));
        let deciles: Vec<String> = (1..10)
            .map(|d| format!("{:.3}", cap(percentile(&all_ms, 10.0 * d as f64))))
            .collect();
        report.note(format!(
            "partner: latency deciles ms [{}]",
            deciles.join(" ")
        ));
        PhaseOutput {
            report,
            setup_s: median(&this.setup_s),
            setups: this.setup_s.len(),
            primary: top_k_ms,
        }
    }
}

/// Sleep until shortly before `due`, then yield until it: a plain
/// sleep overshoots by tens of microseconds, which would count as
/// latency of every request.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(300);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Redeem one ticket (blocking, in submission order) and judge it.
fn collect(tracer: &Tracer, refs: &HashMap<Planned, Answer>, sent: Sent) -> Outcome {
    let p = sent.planned;
    let refused = |shed: bool| Outcome {
        kind: p.kind,
        latency_ms: f64::INFINITY,
        ok: false,
        shed,
        degraded: false,
        retries: 0,
    };
    let ticket = match sent.submitted {
        Ok(ticket) => ticket,
        Err(e) => return refused(matches!(e, ServiceError::Overloaded { .. })),
    };
    let request = sent.index as u64;
    let result = tracer.span("service.wait", sent.span, request, |_| ticket.wait());
    let done = Instant::now();
    tracer.record(
        sent.span,
        &format!("request.{}", p.kind.label()),
        ROOT,
        request,
        sent.due,
        done,
    );
    match result {
        Ok(r) => Outcome {
            kind: p.kind,
            latency_ms: done.duration_since(sent.due).as_secs_f64() * 1e3,
            ok: !r.degraded && answer_matches(&r.value, &refs[&p]),
            shed: false,
            degraded: r.degraded,
            retries: r.retries,
        },
        Err(_) => refused(false),
    }
}
