//! The work-count gate: the deterministic work counters of every method
//! on the first Section 6 couple, pinned on both datasets.
//!
//! Rows driven, candidates streamed and matcher edges depend only on
//! the data and the algorithm, never on the machine or the scheduler,
//! so a count more than 10% over its pin is an algorithmic regression.
//! A change that lowers a count lowers its pin in the same commit.

use csj_bench::runner::options_for;
use csj_core::{run, CsjMethod};
use csj_data::pairs::{build_couple, BuildOptions, Dataset};
use csj_data::COUPLES;

/// The couple's size divisor and generator seed.
const BUILD: BuildOptions = BuildOptions {
    scale: 64,
    seed: 0xC5A0_2024,
};

/// Allowed rise of a count over its pin.
const MAX_RISE: f64 = 0.10;

/// `[rows_driven, candidates_streamed, matcher_edges]` per method.
type Pins = [(CsjMethod, [u64; 3]); 8];

/// VK-like data at eps 1. The MinMax rows are the last record of the
/// performance trajectory this test replaced (`pr10`).
const VK: Pins = [
    (CsjMethod::ApBaseline, [1705, 2_490_882, 0]),
    (CsjMethod::ApMinMax, [1705, 5698, 0]),
    (CsjMethod::ApSuperEgo, [12_020, 288_032, 0]),
    (CsjMethod::ApHybrid, [23_925, 583_290, 0]),
    (CsjMethod::ExBaseline, [1705, 3_089_460, 1067]),
    (CsjMethod::ExMinMax, [1705, 72_978, 1067]),
    (CsjMethod::ExSuperEgo, [13_771, 390_251, 781]),
    (CsjMethod::ExHybrid, [27_201, 770_305, 1067]),
];

/// Uniform data at eps 15000.
const UNIFORM: Pins = [
    (CsjMethod::ApBaseline, [1705, 2_573_173, 0]),
    (CsjMethod::ApMinMax, [1705, 747_272, 0]),
    (CsjMethod::ApSuperEgo, [11_727, 297_192, 0]),
    (CsjMethod::ApHybrid, [11_499, 294_089, 0]),
    (CsjMethod::ExBaseline, [1705, 3_089_460, 315]),
    (CsjMethod::ExMinMax, [1705, 900_518, 315]),
    (CsjMethod::ExSuperEgo, [12_689, 359_372, 315]),
    (CsjMethod::ExHybrid, [12_492, 353_907, 315]),
];

#[test]
fn work_counts_rise_at_most_ten_percent_over_their_pins() {
    const NAMES: [&str; 3] = ["rows_driven", "candidates_streamed", "matcher_edges"];
    let (mut failures, mut measured) = (Vec::new(), Vec::new());
    for (dataset, pins) in [(Dataset::VkLike, &VK), (Dataset::Uniform, &UNIFORM)] {
        let pair = build_couple(&COUPLES[0], dataset, BUILD);
        let opts = options_for(&pair);
        let pinned: Vec<CsjMethod> = pins.iter().map(|&(m, _)| m).collect();
        assert_eq!(
            pinned,
            CsjMethod::ALL,
            "{}: one pin per method",
            dataset.name()
        );
        for &(method, pin) in pins {
            let t = run(method, &pair.b, &pair.a, &opts).unwrap().telemetry;
            let got = [t.rows_driven, t.candidates_streamed, t.matcher_edges];
            measured.push(format!("{} {method}: {got:?}", dataset.name()));
            for ((name, &want), &have) in NAMES.iter().zip(&pin).zip(&got) {
                if have as f64 > want as f64 * (1.0 + MAX_RISE) {
                    failures.push(format!(
                        "{} {method} {name}: {have} over pin {want}",
                        dataset.name()
                    ));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{}\nmeasured:\n{}",
        failures.join("\n"),
        measured.join("\n")
    );
}
