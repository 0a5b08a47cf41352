//! Seeded benchmark of the CSJ workspace.
//!
//! Three scenarios:
//!
//! * `couples` — the paper's §6 experiment: 20 couples × 2 datasets ×
//!   8 methods through `csj_core::run`;
//! * `broadcast` — a durable registry swept with `pairs_above`, updated
//!   by durable counter increments, swept again and recovered;
//! * `partner` — an open loop of partner-search requests against the
//!   query service over a sharded engine.
//!
//! Two workloads, `couples` and `partner`, each run in its own process.
//! Every run executes all three scenarios, so that every end-to-end
//! metric is reported on every workload. Their slices interleave over
//! the measuring window (`--seconds`): the workload's own scenario gets
//! 40% of it, the other two 30% each. Inputs come only from `--seed`;
//! the program receives nothing but the generated communities and
//! requests.
//!
//! Every timing is reported at one fixed host speed: each scenario also
//! times a fixed reference kernel between its slices and its timings are
//! divided by how much slower than nominal that kernel ran (`host`).
//! See `README.md` for the metric definitions and the layer map.

pub mod broadcast;
pub mod couples;
pub mod host;
pub mod partner;
pub mod report;
pub mod rng;
pub mod stats;
pub mod trace;

use std::path::PathBuf;
use std::time::Instant;

use report::{Metric, Report};
use trace::Tracer;

/// Profile dimensionality (the paper's 27 page categories).
pub const D: usize = 27;

/// The scenarios, in the order they run inside every run.
pub const SCENARIOS: [&str; 3] = ["couples", "broadcast", "partner"];

/// The workloads: the scenario a run favours. `broadcast` is a scenario
/// of every run but not a workload of its own (`README.md`).
pub const WORKLOADS: [&str; 2] = ["couples", "partner"];

/// Input sizes. `full` is what the benchmark measures; `tiny` exists
/// for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Divisor of the paper's community sizes for the couples.
    pub couples_scale: u32,
    /// Corpus population of the broadcast scenario.
    pub broadcast_users: usize,
    /// Corpus population of the partner scenario.
    pub partner_users: usize,
    /// Pages per category in both corpora.
    pub pages_per_category: usize,
    /// Durable upserts per broadcast round.
    pub upserts: usize,
    /// Open-loop request rate of the partner scenario, per second.
    pub partner_rate: f64,
    /// Fewest requests a run sends (enough for ten beyond the p99).
    pub partner_requests: usize,
    /// Requests per open-loop slice.
    pub partner_chunk: usize,
    /// Set-ups per scenario; `setup_s` takes their median.
    pub setup_repeats: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            couples_scale: 128,
            broadcast_users: 4_000,
            partner_users: 2_500,
            pages_per_category: 4,
            upserts: 20_000,
            partner_rate: 150.0,
            partner_requests: 1_000,
            partner_chunk: 300,
            setup_repeats: 5,
        }
    }

    pub fn tiny() -> Self {
        Sizes {
            couples_scale: 4096,
            broadcast_users: 300,
            partner_users: 300,
            pages_per_category: 2,
            upserts: 40,
            partner_rate: 400.0,
            partner_requests: 60,
            partner_chunk: 30,
            setup_repeats: 1,
        }
    }
}

/// Everything a scenario needs to run.
pub struct Ctx<'a> {
    pub seed: u64,
    /// Measuring window of the run, in seconds.
    pub seconds: f64,
    pub sizes: Sizes,
    pub tracer: &'a Tracer,
    /// Scratch directory for durable state; removed by the caller.
    pub work_dir: PathBuf,
}

/// What one scenario measured.
pub struct PhaseOutput {
    pub report: Report,
    /// Median set-up time of the scenario's set-ups.
    pub setup_s: f64,
    /// How many set-ups that median is over.
    pub setups: usize,
    /// The scenario's primary metric, for the tracing-overhead ratio.
    pub primary: f64,
}

/// One scenario of a run: set up once, then stepped in slices that the
/// run interleaves with the other scenarios' slices.
pub trait Scenario {
    /// One slice of measured work.
    fn step(&mut self, ctx: &Ctx);
    /// Slices needed before the scenario's metrics mean anything.
    fn min_steps(&self, ctx: &Ctx) -> usize;
    /// Turn the gathered samples into metrics.
    fn finish(self: Box<Self>, ctx: &Ctx) -> PhaseOutput;
}

/// Share of the measuring window the workload's own scenario gets.
pub const SHARE_OWN: f64 = 0.4;
/// Share each of the two other scenarios gets.
pub const SHARE_OTHER: f64 = 0.3;

fn set_up(name: &str, ctx: &Ctx) -> Box<dyn Scenario> {
    match name {
        "couples" => Box::new(couples::Couples::set_up(ctx)),
        "broadcast" => Box::new(broadcast::Broadcast::set_up(ctx)),
        _ => Box::new(partner::Partner::set_up(ctx)),
    }
}

/// The result of one run.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

/// What a run measured of one scenario, at the nominal host speed.
struct Summary {
    /// The scenario's primary metric, for the tracing-overhead ratio.
    primary: f64,
    /// Set-ups its set-up median is over.
    setups: usize,
    /// Its host slowness (`host::slowness`).
    slowness: f64,
}

/// One scenario in the interleaving loop.
struct Running {
    name: &'static str,
    scenario: Box<dyn Scenario>,
    share: f64,
    used_s: f64,
    steps: usize,
    /// Reference times taken before and after its set-up and slices.
    reference_ms: Vec<f64>,
}

/// Set up every scenario, then interleave their slices for `seconds`:
/// the next slice always goes to the scenario furthest below its share
/// of the time used so far, so every metric samples the whole window.
/// The host reference is timed before and after every set-up and slice,
/// and each scenario's timings are calibrated by its own samples.
/// Returns the merged report, a summary per scenario, the summed set-up
/// medians and every reference time.
fn run_all(ctx: &Ctx, workload: &str) -> (Report, Vec<Summary>, f64, Vec<f64>) {
    let mut reference = host::Reference::new();
    let mut running: Vec<Running> = SCENARIOS
        .iter()
        .map(|&name| {
            let before = reference.time_ms();
            let scenario = set_up(name, ctx);
            let after = reference.time_ms();
            Running {
                name,
                scenario,
                share: if name == workload {
                    SHARE_OWN
                } else {
                    SHARE_OTHER
                },
                used_s: 0.0,
                steps: 0,
                reference_ms: vec![before, after],
            }
        })
        .collect();
    let started = Instant::now();
    loop {
        // Past the window, only scenarios short of their minimum go on.
        let overtime = started.elapsed().as_secs_f64() >= ctx.seconds;
        let next = running
            .iter_mut()
            .filter(|r| !overtime || r.steps < r.scenario.min_steps(ctx))
            .min_by(|a, b| (a.used_s / a.share).total_cmp(&(b.used_s / b.share)));
        let Some(r) = next else {
            break;
        };
        r.reference_ms.push(reference.time_ms());
        let t = Instant::now();
        r.scenario.step(ctx);
        r.used_s += t.elapsed().as_secs_f64();
        r.reference_ms.push(reference.time_ms());
        r.steps += 1;
    }
    let mut report = Report::default();
    let mut summaries = Vec::new();
    let mut setup_s = 0.0;
    let mut all_reference_ms = Vec::new();
    for r in running {
        let mut out = r.scenario.finish(ctx);
        let slowness = host::slowness(&r.reference_ms);
        let raw: Vec<String> = out
            .report
            .end_to_end
            .iter()
            .map(|m| format!("{}={:.6}", m.name, m.value))
            .collect();
        report.note(format!(
            "{}: {} slices in {:.3} s, set-up median {:.4} s over {} | host slowness {slowness:.4} \
             (median of {} reference calls / {} ms) | uncalibrated {}",
            r.name,
            r.steps,
            r.used_s,
            out.setup_s,
            out.setups,
            r.reference_ms.len(),
            host::NOMINAL_MS,
            raw.join(" ")
        ));
        for m in out
            .report
            .end_to_end
            .iter_mut()
            .chain(&mut out.report.per_layer)
        {
            host::calibrate(m, slowness);
        }
        setup_s += out.setup_s / slowness;
        summaries.push(Summary {
            primary: out.primary / slowness,
            setups: out.setups,
            slowness,
        });
        all_reference_ms.extend(r.reference_ms);
        report.absorb(out.report);
    }
    (report, summaries, setup_s, all_reference_ms)
}

/// Run `workload`. With `trace` the run is made twice, untraced then
/// traced; the per-layer metrics come from the traced pass and the
/// tracing overhead compares the two. The traced pass's spans are
/// written to `span_file`.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: Sizes,
    work_dir: PathBuf,
    span_file: Option<PathBuf>,
) -> Result<RunResult, String> {
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("create {work_dir:?}: {e}"))?;
    let untraced = Tracer::new(false);
    let ctx = Ctx {
        seed,
        seconds,
        sizes,
        tracer: &untraced,
        work_dir: work_dir.clone(),
    };
    let (mut report, summaries, setup_s, _) = run_all(&ctx, workload);
    let metrics = if trace {
        let tracer = Tracer::new(true);
        let ctx = Ctx {
            tracer: &tracer,
            ..ctx
        };
        let (traced, traced_summaries, _, reference_ms) = run_all(&ctx, workload);
        let mut layer = traced.per_layer.clone();
        let self_times = tracer.self_times();
        for (i, name) in SCENARIOS.iter().enumerate() {
            let prefix = format!("data.{name}.");
            let generate: f64 = self_times
                .iter()
                .filter(|(k, _)| k.starts_with(&prefix))
                .map(|(_, v)| v)
                .sum();
            layer.push(Metric {
                name: format!("data.{name}.generate_s"),
                value: generate / traced_summaries[i].setups as f64 / traced_summaries[i].slowness,
                unit: "s",
            });
        }
        for (i, name) in SCENARIOS.iter().enumerate() {
            layer.push(Metric {
                name: format!("trace.overhead.{name}"),
                value: stats::ratio(traced_summaries[i].primary, summaries[i].primary) - 1.0,
                unit: "ratio",
            });
        }
        layer.push(Metric {
            name: "host.reference_ms".into(),
            value: stats::median(&reference_ms),
            unit: "ms",
        });
        if let Some(path) = span_file {
            tracer
                .write_jsonl(&path)
                .map_err(|e| format!("write {path:?}: {e}"))?;
            report.note(format!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ));
        }
        report.attempted += traced.attempted;
        report.failed += traced.failed;
        report.notes.extend(traced.notes);
        layer
    } else {
        let mut e2e = vec![
            Metric {
                name: "setup_s".into(),
                value: setup_s,
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb".into(),
                value: stats::peak_rss_mb(),
                unit: "MB",
            },
        ];
        e2e.extend(report.end_to_end.iter().cloned());
        e2e
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    Ok(RunResult {
        correct: report.failed == 0 && report.attempted > 0,
        attempted: report.attempted,
        failed: report.failed,
        metrics,
        notes: report.notes,
    })
}
