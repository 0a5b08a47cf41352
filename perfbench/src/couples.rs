//! The paper's §6 experiment: the 20 community couples on skewed
//! (VK-like, eps = 1) and uniform (Synthetic, eps = 15000) data, each
//! pair joined single-threaded with all eight methods through
//! `csj_core::run`. Only the kernel (with `csj-ego` and `csj-matching`
//! underneath) does work here.

use std::time::Instant;

use csj_core::verify::ground_truth;
use csj_core::{run, CsjMethod, CsjOptions, JoinOutcome};
use csj_data::pairs::{build_couple, BuildOptions, CouplePair, Dataset};
use csj_data::COUPLES;

use crate::report::Report;
use crate::stats::{geomean, median, ratio};
use crate::trace::ROOT;
use crate::{Ctx, PhaseOutput, Scenario};

const DATASETS: [Dataset; 2] = [Dataset::VkLike, Dataset::Uniform];
/// Pairs per slice: short slices interleave finely with the other
/// scenarios, so every pair is sampled across the whole window.
const PAIRS_PER_STEP: usize = 10;

/// Build the 40 (couple, dataset) pairs for this seed.
fn build_pairs(ctx: &Ctx) -> Vec<CouplePair> {
    let opts = BuildOptions {
        scale: ctx.sizes.couples_scale,
        seed: ctx.seed.wrapping_mul(0x9E37_79B9).wrapping_add(0xC5A0_2024),
    };
    DATASETS
        .iter()
        .flat_map(|&ds| COUPLES.iter().map(move |spec| (spec, ds)))
        .map(|(spec, ds)| {
            ctx.tracer.span("data.couples.build_couple", ROOT, 0, |_| {
                build_couple(spec, ds, opts)
            })
        })
        .collect()
}

fn options_for(pair: &CouplePair) -> CsjOptions {
    let mut opts = CsjOptions::new(pair.eps);
    opts.superego.max_value = Some(pair.superego_max_value);
    opts
}

/// What `csj_core::verify::ground_truth` says about one pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truth {
    /// Size of a maximum matching (Hopcroft–Karp).
    pub maximum: usize,
    /// Pairs that satisfy the per-dimension eps condition.
    pub candidates: u64,
}

/// Whether one join's answer keeps its method's contract.
///
/// Every method reports a valid one-to-one matching, so it never
/// exceeds the maximum, and a maximal one, so it reaches at least half
/// of it. An exact method must also hand every candidate pair to its
/// matcher. The exact methods match with the paper's CSF heuristic,
/// which the code documents as not always maximum (`CsjMethod::is_exact`;
/// DESIGN.md, "Matcher is pluggable"), so reaching the maximum is
/// counted (`kernel.exact_below_maximum`) rather than required.
///
/// SuperEGO compares counters normalised to `f32` by the dataset-wide
/// maximum, as the paper does; the conversion is exact only when that
/// divisor is a power of two. With any other divisor boundary pairs are
/// lost (DESIGN.md, "The SuperEGO accuracy loss"), so there Ex-SuperEGO
/// sees fewer candidates and is held to the bounds alone.
pub fn answer_ok(
    method: CsjMethod,
    matched: usize,
    matcher_edges: u64,
    truth: Truth,
    lossless_floats: bool,
) -> bool {
    let bounded = matched <= truth.maximum && 2 * matched >= truth.maximum;
    let complete = !method.is_exact()
        || (method == CsjMethod::ExSuperEgo && !lossless_floats)
        || matcher_edges == truth.candidates;
    bounded && complete
}

/// Per-method accumulation over passes.
#[derive(Default, Clone)]
struct MethodSamples {
    /// Wall milliseconds per pair, one entry per pass.
    wall_ms: Vec<Vec<f64>>,
    /// Per pass and dataset: summed setup / pairing / matching ms.
    setup_ms: [Vec<f64>; 2],
    pairing_ms: [Vec<f64>; 2],
    matching_ms: [Vec<f64>; 2],
    candidates: u64,
    matcher_edges: u64,
    matched: u64,
}

/// The couples scenario: built pairs, their reference answers and the
/// samples gathered so far.
pub struct Couples {
    pairs: Vec<CouplePair>,
    truths: Vec<Truth>,
    /// Exact joins of the first pass below the Hopcroft–Karp maximum.
    below_maximum: u64,
    samples: Vec<MethodSamples>,
    setup_s: Vec<f64>,
    /// Completed passes over all pairs, and where the current one is.
    passes: usize,
    next_pair: usize,
    /// Per method and dataset: setup / pairing / matching ms summed over
    /// the current pass.
    pass_sums: Vec<[[f64; 3]; 2]>,
    report: Report,
}

impl Couples {
    /// Build the pairs (`setup_repeats` times, for the set-up median)
    /// and compute the reference answers, untimed.
    pub fn set_up(ctx: &Ctx) -> Self {
        let mut setup_s = Vec::new();
        let mut pairs = Vec::new();
        for _ in 0..ctx.sizes.setup_repeats {
            let t = Instant::now();
            pairs = build_pairs(ctx);
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let truths = pairs
            .iter()
            .map(|p| {
                ctx.tracer.span("check.ground_truth", ROOT, 0, |_| {
                    let g = ground_truth(&p.b, &p.a, p.eps);
                    Truth {
                        maximum: g.maximum_matching.len(),
                        candidates: g.candidate_pairs.len() as u64,
                    }
                })
            })
            .collect();
        let mut samples = vec![MethodSamples::default(); CsjMethod::ALL.len()];
        for s in &mut samples {
            s.wall_ms = vec![Vec::new(); pairs.len()];
        }
        Couples {
            pairs,
            truths,
            below_maximum: 0,
            samples,
            setup_s,
            passes: 0,
            next_pair: 0,
            pass_sums: vec![[[0.0; 3]; 2]; CsjMethod::ALL.len()],
            report: Report::default(),
        }
    }
}

impl Scenario for Couples {
    /// The next `PAIRS_PER_STEP` pairs of the current pass, each joined
    /// with every method.
    fn step(&mut self, ctx: &Ctx) {
        let methods = CsjMethod::ALL;
        let pass = self.passes;
        let first = self.next_pair;
        let last = (first + PAIRS_PER_STEP).min(self.pairs.len());
        for (pi, pair) in self.pairs.iter().enumerate().take(last).skip(first) {
            let opts = options_for(pair);
            let ds = usize::from(pair.dataset == Dataset::Uniform);
            // Rotate the method order per pair and pass so no method is
            // always first to touch a pair.
            for k in 0..methods.len() {
                let mi = (k + pi + pass) % methods.len();
                let method = methods[mi];
                let t = Instant::now();
                let joined: Result<JoinOutcome, _> =
                    ctx.tracer
                        .span(&format!("core.run.{}", method.name()), ROOT, 0, |_| {
                            run(method, &pair.b, &pair.a, &opts)
                        });
                let wall = t.elapsed().as_secs_f64() * 1e3;
                let s = &mut self.samples[mi];
                match joined {
                    Ok(out) => {
                        let truth = self.truths[pi];
                        let lossless = pair.superego_max_value.is_power_of_two();
                        let edges = out.telemetry.matcher_edges;
                        let matched = out.similarity.matched;
                        let ok = answer_ok(method, matched, edges, truth, lossless);
                        self.report.op(ok);
                        if !ok && pass == 0 {
                            self.report.note(format!(
                                "wrong answer: {method} on {} cid {}: matched {matched} of \
                                 maximum {}, {edges} matcher edges of {} candidates",
                                pair.dataset, pair.spec.cid, truth.maximum, truth.candidates
                            ));
                        }
                        let full_candidates = lossless || method != CsjMethod::ExSuperEgo;
                        if method.is_exact()
                            && full_candidates
                            && pass == 0
                            && matched < truth.maximum
                        {
                            self.below_maximum += 1;
                        }
                        s.wall_ms[pi].push(wall);
                        self.pass_sums[mi][ds][0] += out.timings.setup.as_secs_f64() * 1e3;
                        self.pass_sums[mi][ds][1] += out.timings.pairing.as_secs_f64() * 1e3;
                        self.pass_sums[mi][ds][2] += out.timings.matching.as_secs_f64() * 1e3;
                        if pass == 0 {
                            s.candidates += out.telemetry.candidates_streamed;
                            s.matcher_edges += out.telemetry.matcher_edges;
                            s.matched += out.similarity.matched as u64;
                        }
                    }
                    Err(e) => {
                        self.report.op(false);
                        self.report.note(format!(
                            "join failed: {method} on cid {}: {e}",
                            pair.spec.cid
                        ));
                    }
                }
            }
        }
        self.next_pair = last;
        if last < self.pairs.len() {
            return;
        }
        for (mi, s) in self.samples.iter_mut().enumerate() {
            for ds in 0..2 {
                s.setup_ms[ds].push(self.pass_sums[mi][ds][0]);
                s.pairing_ms[ds].push(self.pass_sums[mi][ds][1]);
                s.matching_ms[ds].push(self.pass_sums[mi][ds][2]);
            }
        }
        self.pass_sums = vec![[[0.0; 3]; 2]; methods.len()];
        self.next_pair = 0;
        self.passes += 1;
    }

    /// Two full passes.
    fn min_steps(&self, _ctx: &Ctx) -> usize {
        2 * self.pairs.len().div_ceil(PAIRS_PER_STEP)
    }

    fn finish(self: Box<Self>, ctx: &Ctx) -> PhaseOutput {
        let mut report = self.report;
        let mut join_ms = Vec::new();
        for (mi, method) in CsjMethod::ALL.iter().enumerate() {
            let s = &self.samples[mi];
            let per_pair: Vec<f64> = s.wall_ms.iter().map(|w| median(w)).collect();
            let gm = geomean(&per_pair);
            join_ms.push(gm);
            report.e2e(format!("join_ms.{}", method.name()), gm, "ms");
            for (ds, dataset) in DATASETS.iter().enumerate() {
                let key = format!("kernel.{}.{}", method.name(), dataset.name());
                report.layer(format!("{key}.setup_ms"), median(&s.setup_ms[ds]), "ms");
                report.layer(format!("{key}.pairing_ms"), median(&s.pairing_ms[ds]), "ms");
                if method.is_exact() {
                    report.layer(
                        format!("{key}.matching_ms"),
                        median(&s.matching_ms[ds]),
                        "ms",
                    );
                }
            }
            let key = format!("kernel.{}", method.name());
            report.layer(format!("{key}.candidates"), s.candidates as f64, "count");
            if method.is_exact() {
                report.layer(
                    format!("{key}.matcher_edges"),
                    s.matcher_edges as f64,
                    "count",
                );
            }
            report.layer(
                format!("{key}.match_yield"),
                ratio(s.matched as f64, s.candidates as f64),
                "ratio",
            );
        }
        report.layer(
            "kernel.exact_below_maximum",
            self.below_maximum as f64,
            "count",
        );
        report.note(format!(
            "couples: {} exact joins of the first pass below the Hopcroft-Karp maximum (CSF matcher)",
            self.below_maximum
        ));
        report.note(format!(
            "couples: scale {} | {} pairs x {} methods | {} passes",
            ctx.sizes.couples_scale,
            self.pairs.len(),
            CsjMethod::ALL.len(),
            self.passes
        ));
        PhaseOutput {
            report,
            setup_s: median(&self.setup_s),
            setups: self.setup_s.len(),
            primary: geomean(&join_ms),
        }
    }
}
