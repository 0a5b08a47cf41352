//! Joins one materialised couple with one method and captures the cell.

use std::sync::OnceLock;

use csj_core::{run, CsjMethod, CsjOptions};
use csj_data::pairs::CouplePair;
use csj_obs::{catalog, ByLabel, Counter, LatencyHistogram, MetricsRegistry, MetricsSnapshot};

use crate::report::MeasuredCell;

/// Harness-wide join metrics: every [`measure`] call feeds one
/// per-method counter and latency histogram, so a full table run
/// leaves behind a machine-readable latency profile
/// (`BENCH_<timestamp>.json` written by the `tables` binary).
pub struct BenchObs {
    registry: MetricsRegistry,
    joins: ByLabel<Counter, CsjMethod>,
    latency: ByLabel<LatencyHistogram, CsjMethod>,
}

impl BenchObs {
    fn new() -> Self {
        let registry = MetricsRegistry::new();
        Self {
            joins: registry.register_each(&catalog::BENCH_JOINS),
            latency: registry.register_each(&catalog::BENCH_JOIN_LATENCY),
            registry,
        }
    }

    fn on_measure(&self, method: CsjMethod, elapsed: std::time::Duration) {
        self.joins.get(method).inc();
        self.latency.get(method).observe(elapsed);
    }

    /// Snapshot of everything measured so far in this process.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

/// The process-wide bench metrics collector.
pub fn bench_obs() -> &'static BenchObs {
    static OBS: OnceLock<BenchObs> = OnceLock::new();
    OBS.get_or_init(BenchObs::new)
}

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
    bench_obs().on_measure(method, outcome.elapsed);
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
