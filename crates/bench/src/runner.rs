//! Joins one materialised couple with one method and captures the cell.

use csj_core::{run, CsjMethod, CsjOptions};
use csj_data::pairs::CouplePair;

use crate::report::MeasuredCell;

/// Global harness configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Divisor on the paper's community sizes.
    pub scale: u32,
    /// Base RNG seed for all generators.
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            scale: 32,
            seed: 0xC5A0_2024,
        }
    }
}

impl RunConfig {
    /// The corresponding dataset build options.
    pub fn build_options(&self) -> csj_data::pairs::BuildOptions {
        csj_data::pairs::BuildOptions {
            scale: self.scale,
            seed: self.seed,
        }
    }
}

/// The CSJ options a couple should be joined with (paper parameters plus
/// the couple's dataset-specific normalisation divisor).
pub fn options_for(pair: &CouplePair) -> CsjOptions {
    let mut opts = CsjOptions::new(pair.eps);
    opts.superego.max_value = Some(pair.superego_max_value);
    opts
}

/// Run `method` on `pair` and capture similarity, runtime and diagnostics.
pub fn measure(pair: &CouplePair, method: CsjMethod) -> MeasuredCell {
    let opts = options_for(pair);
    let outcome = run(method, &pair.b, &pair.a, &opts)
        .expect("generated couples satisfy the CSJ constraints");
    MeasuredCell {
        method: method.name().to_string(),
        similarity_pct: outcome.similarity.percent(),
        seconds: outcome.elapsed.as_secs_f64(),
        matched: outcome.similarity.matched,
        b_size: pair.b.len(),
        a_size: pair.a.len(),
        full_comparisons: outcome.events.full_comparisons(),
        events: format!("{}", outcome.events),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csj_data::pairs::{build_couple, BuildOptions, Dataset};
    use csj_data::COUPLES;

    #[test]
    fn measure_produces_consistent_cell() {
        let pair = build_couple(
            &COUPLES[0],
            Dataset::VkLike,
            BuildOptions {
                scale: 1024,
                seed: 42,
            },
        );
        let cell = measure(&pair, CsjMethod::ExMinMax);
        assert_eq!(cell.method, "ex-minmax");
        assert!(cell.similarity_pct >= 0.0 && cell.similarity_pct <= 100.0);
        assert_eq!(cell.b_size, pair.b.len());
        assert_eq!(
            cell.matched as f64 / cell.b_size as f64 * 100.0,
            cell.similarity_pct
        );
    }

    #[test]
    fn exact_dominates_approximate_on_same_pair() {
        let pair = build_couple(
            &COUPLES[10],
            Dataset::VkLike,
            BuildOptions {
                scale: 512,
                seed: 7,
            },
        );
        let ap = measure(&pair, CsjMethod::ApMinMax);
        let ex = measure(&pair, CsjMethod::ExMinMax);
        assert!(ex.similarity_pct >= ap.similarity_pct - 1e-9);
    }
}
