//! `plan_gate` — assert the density rule picks near-optimal methods on
//! the paper's Section 6 couple shapes, on both data regimes.
//!
//! For each gate shape (three couples × VK-like and uniform data) every
//! method is measured (best of N rounds) and the rule resolves `Auto`
//! from the pair's measured density, once for an exact answer and once
//! for an approximate one. The gate passes when, on *every* shape, the
//! exact pick costs at most 1.10x the best lossless method (Ex-Baseline,
//! Ex-MinMax, Ex-Hybrid) and the approximate pick at most 1.10x the best
//! Ap-* method, plus a small absolute floor for timer noise on
//! scaled-down workloads. Ex-SuperEGO is timed and printed alongside but
//! is not in the exact pool: it can lose pairs.
//!
//! ```text
//! cargo run -p csj-bench --release --bin plan_gate -- [--scale N] [--rounds R]
//! ```
//!
//! Exits non-zero when the rule misses the envelope on any shape, so CI
//! can gate on it.

use std::time::Duration;

use csj_bench::runner::options_for;
use csj_core::plan::{choose, Exactness, PlanInput};
use csj_core::{encode_a, encode_b, run, CsjMethod};
use csj_data::pairs::{build_couple, BuildOptions, CouplePair, Dataset};
use csj_data::COUPLES;

/// Couples spanning Section 6's size spectrum (indices into COUPLES).
const GATE_COUPLES: [usize; 3] = [0, 7, 14];

fn usage() -> ! {
    eprintln!("usage: plan_gate [--scale N] [--rounds R]");
    std::process::exit(2)
}

/// Best-of-`rounds` wall-clock of one method on one pair.
fn measure(pair: &CouplePair, method: CsjMethod, rounds: u32) -> Duration {
    let opts = options_for(pair);
    (0..rounds)
        .map(|_| {
            run(method, &pair.b, &pair.a, &opts)
                .expect("gate join")
                .timings
                .total()
        })
        .min()
        .expect("at least one round")
}

/// The measured time of `method` in `times`.
fn time_of(times: &[(CsjMethod, Duration)], method: CsjMethod) -> Duration {
    times
        .iter()
        .find(|(m, _)| *m == method)
        .expect("every method is timed")
        .1
}

/// Check `exactness`'s pick against the fastest method of its pool;
/// prints one line and returns whether the pick is within the envelope.
fn check(label: &str, exactness: Exactness, density: f64, times: &[(CsjMethod, Duration)]) -> bool {
    let chosen = choose(density, exactness);
    let chosen_time = time_of(times, chosen);
    let (best, best_time) = times
        .iter()
        .filter(|(m, _)| exactness.admits(*m))
        .min_by_key(|(_, t)| *t)
        .copied()
        .expect("non-empty pool");
    // 10% relative envelope plus 2 ms absolute slack for timer jitter on
    // tiny scaled-down shapes.
    let limit = best_time.as_secs_f64() * 1.10 + 0.002;
    let ok = chosen_time.as_secs_f64() <= limit;
    println!(
        "plan_gate: {label} {:<11} -> {} {:.3} ms, best {} {:.3} ms [{}]",
        exactness.label(),
        chosen.name(),
        chosen_time.as_secs_f64() * 1e3,
        best.name(),
        best_time.as_secs_f64() * 1e3,
        if ok { "ok" } else { "FAIL" },
    );
    ok
}

fn main() {
    let mut scale = 64u32;
    let mut rounds = 3u32;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .and_then(|v| v.parse().ok())
                .filter(|&v| v > 0)
                .unwrap_or_else(|| usage())
        };
        match arg.as_str() {
            "--scale" => scale = value(),
            "--rounds" => rounds = value(),
            _ => usage(),
        }
    }
    let seed = 0xC5A0_2024u64;

    let mut failed = false;
    for dataset in [Dataset::VkLike, Dataset::Uniform] {
        for &i in &GATE_COUPLES {
            let spec = &COUPLES[i];
            let pair = build_couple(spec, dataset, BuildOptions { scale, seed });
            let opts = options_for(&pair);
            let density = PlanInput::measure(
                &encode_b(&pair.b, opts.encoding),
                &encode_a(&pair.a, opts.eps, opts.encoding),
                Exactness::Any,
            )
            .density;
            // One warm-up pass, then every method best of `rounds`.
            measure(&pair, CsjMethod::ApBaseline, 1);
            let times: Vec<(CsjMethod, Duration)> = CsjMethod::ALL
                .iter()
                .map(|&m| (m, measure(&pair, m, rounds)))
                .collect();
            let label = format!(
                "{} cid {} /{scale} |B|={} |A|={} density {density:.4}",
                dataset.name(),
                spec.cid,
                pair.b.len(),
                pair.a.len(),
            );
            for exactness in [Exactness::Exact, Exactness::Approximate] {
                failed |= !check(&label, exactness, density, &times);
            }
            println!(
                "plan_gate: {label} ex-superego (lossy, not in the exact pool) {:.3} ms",
                time_of(&times, CsjMethod::ExSuperEgo).as_secs_f64() * 1e3
            );
        }
    }

    if failed {
        eprintln!("plan_gate: FAIL — the density rule missed the 1.10x + 2 ms envelope");
        std::process::exit(1);
    }
    println!(
        "plan_gate: OK (each pick within 1.10x + 2 ms of the best lossless exact / \
         approximate method on every shape)"
    );
}
