//! The engine's planner stage: resolves [`CsjMethod::Auto`] ahead of
//! the join kernel and closes the feedback loop.
//!
//! The static half lives in `csj_core::plan` (feature vector, seeded
//! [`CostTable`], deterministic [`CostTable::plan`]). This module adds
//! what only the engine has — measured join latencies. Every join the
//! engine runs (planned or explicitly chosen) reports its actual
//! wall-clock back through [`Planner::observe`], which maintains a
//! per-method EWMA of the actual/estimated ratio. Subsequent plans use
//! the corrected estimates, so a machine where SuperEGO's setup is
//! twice the seed's assumption stops picking it without any offline
//! recalibration.
//!
//! [`PlannerMode::Frozen`] switches the feedback off: plans come from
//! the configured table alone and observations are discarded — the
//! deterministic mode the planner tests and the frozen parity suite
//! rely on.

use std::sync::Mutex;

use csj_core::plan::{CostTable, PlanInput, QueryPlan};
use csj_core::CsjMethod;

/// Whether the planner refines its cost model online.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerMode {
    /// Refine estimates from measured join latencies (default).
    Adaptive,
    /// Plan from the configured table only; ignore observations.
    /// Deterministic: the same input always yields the same plan.
    Frozen,
}

/// Planner configuration, part of [`crate::EngineConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerConfig {
    /// Online-feedback switch.
    pub mode: PlannerMode,
    /// The base cost table (seeded, or loaded from a calibrated
    /// `csj-cost-table` file).
    pub table: CostTable,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            mode: PlannerMode::Adaptive,
            table: CostTable::seeded(),
        }
    }
}

csj_obs::label_enum! {
    /// Where a plan's estimates came from, surfaced in metrics and traces.
    pub enum PlanSource {
        /// The configured cost table alone — frozen mode, or cold start
        /// (no latency observations for the chosen method yet).
        Static => "static",
        /// The table corrected by observed join latencies.
        Refined => "refined",
    }
}

/// EWMA smoothing factor for the actual/estimated latency ratio: higher
/// adapts faster but is noisier.
const EWMA_ALPHA: f64 = 0.2;

/// Per-method feedback state: EWMA of `actual_us / estimated_us`.
#[derive(Debug, Clone, Copy)]
struct Correction {
    ratio: f64,
    samples: u64,
}

impl Default for Correction {
    fn default() -> Self {
        Self {
            ratio: 1.0,
            samples: 0,
        }
    }
}

/// The engine's planner: a static cost table plus online corrections.
/// Interior-mutable (`&self` observe/plan) because joins report
/// latencies from parallel screening workers.
#[derive(Debug)]
pub(crate) struct Planner {
    config: PlannerConfig,
    corrections: Mutex<[Correction; CsjMethod::ALL.len()]>,
}

fn method_index(method: CsjMethod) -> usize {
    CsjMethod::ALL
        .iter()
        .position(|&m| m == method)
        .expect("concrete method in ALL")
}

impl Planner {
    pub(crate) fn new(config: PlannerConfig) -> Self {
        Self {
            config,
            corrections: Mutex::new([Correction::default(); CsjMethod::ALL.len()]),
        }
    }

    /// The configured table with each observed method's weight row
    /// scaled by its EWMA correction. Identity in frozen mode or before
    /// any observation (cold start): the static table decides alone.
    fn corrected_table(&self) -> CostTable {
        let mut table = self.config.table.clone();
        if self.config.mode == PlannerMode::Frozen {
            return table;
        }
        let corrections = self.corrections.lock().unwrap_or_else(|e| e.into_inner());
        for (row, c) in table.weights.iter_mut().zip(corrections.iter()) {
            if c.samples > 0 {
                for w in row.iter_mut() {
                    *w *= c.ratio;
                }
            }
        }
        table
    }

    /// Resolve `input` to a concrete plan, reporting whether refined
    /// estimates participated (the chosen method has latency history)
    /// or the static table decided (frozen mode / cold start).
    pub(crate) fn plan(&self, input: &PlanInput) -> (QueryPlan, PlanSource) {
        let plan = self.corrected_table().plan(input);
        let source = if self.config.mode == PlannerMode::Frozen {
            PlanSource::Static
        } else {
            let corrections = self.corrections.lock().unwrap_or_else(|e| e.into_inner());
            if corrections[method_index(plan.chosen)].samples > 0 {
                PlanSource::Refined
            } else {
                PlanSource::Static
            }
        };
        (plan, source)
    }

    /// The degradation ladder for `primary` on `input`, ranked by the
    /// corrected cost model (see [`CostTable::degradation_ladder`]).
    #[cfg(test)]
    pub(crate) fn ladder(&self, primary: CsjMethod, input: &PlanInput) -> Vec<CsjMethod> {
        self.ladder_with_source(primary, input).0
    }

    /// [`Planner::ladder`], plus whether latency feedback for `primary`
    /// participated in the ranking ([`PlanSource::Refined`]) or the
    /// static table decided alone (frozen mode / cold start). This is
    /// the provenance the service threads into degraded-request traces.
    pub(crate) fn ladder_with_source(
        &self,
        primary: CsjMethod,
        input: &PlanInput,
    ) -> (Vec<CsjMethod>, PlanSource) {
        let ladder = self.corrected_table().degradation_ladder(primary, input);
        let source = if self.config.mode == PlannerMode::Frozen {
            PlanSource::Static
        } else {
            let corrections = self.corrections.lock().unwrap_or_else(|e| e.into_inner());
            if corrections[method_index(primary)].samples > 0 {
                PlanSource::Refined
            } else {
                PlanSource::Static
            }
        };
        (ladder, source)
    }

    /// Fold one measured join into the feedback state. `estimated_us`
    /// must be the *base table's* estimate for the same input (the
    /// correction is a plain ratio on top of it, not on top of itself).
    /// No-op in frozen mode.
    pub(crate) fn observe(&self, method: CsjMethod, estimated_us: f64, actual_us: f64) {
        if self.config.mode == PlannerMode::Frozen {
            return;
        }
        if method == CsjMethod::Auto || !estimated_us.is_finite() || estimated_us <= 0.0 {
            return;
        }
        // Clamp the per-sample ratio: one cache-cold outlier must not
        // swing the model by orders of magnitude.
        let ratio = (actual_us.max(1.0) / estimated_us).clamp(0.01, 100.0);
        let mut corrections = self.corrections.lock().unwrap_or_else(|e| e.into_inner());
        let c = &mut corrections[method_index(method)];
        if c.samples == 0 {
            c.ratio = ratio;
        } else {
            c.ratio += EWMA_ALPHA * (ratio - c.ratio);
        }
        c.samples += 1;
    }

    /// The base table's estimate for `method` on `input` — the
    /// reference [`Planner::observe`] expects.
    pub(crate) fn base_estimate(&self, method: CsjMethod, input: &PlanInput) -> f64 {
        self.config.table.estimate(method, input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csj_core::plan::Exactness;

    fn input() -> PlanInput {
        PlanInput::new(400, 440, 27, 2, Exactness::Exact)
    }

    #[test]
    fn cold_start_plans_from_the_static_table() {
        let planner = Planner::new(PlannerConfig::default());
        let static_plan = CostTable::seeded().plan(&input());
        let (plan, source) = planner.plan(&input());
        assert_eq!(source, PlanSource::Static);
        assert_eq!(plan, static_plan);
    }

    #[test]
    fn observations_refine_subsequent_plans() {
        let planner = Planner::new(PlannerConfig::default());
        let (before, _) = planner.plan(&input());
        // Report the chosen method as 50x slower than estimated, enough
        // times for the EWMA to converge near the true ratio.
        for _ in 0..50 {
            let est = planner.base_estimate(before.chosen, &input());
            planner.observe(before.chosen, est, est * 50.0);
        }
        let (after, source) = planner.plan(&input());
        assert_ne!(after.chosen, before.chosen, "planner must steer away");
        // The demoted method's estimate grew by roughly the ratio.
        let demoted = after
            .candidates
            .iter()
            .find(|c| c.method == before.chosen)
            .expect("still a candidate");
        assert!(demoted.estimated_us > before.estimated_us * 10.0);
        // The newly chosen method has no history yet -> still static.
        assert_eq!(source, PlanSource::Static);
        for _ in 0..3 {
            let est = planner.base_estimate(after.chosen, &input());
            planner.observe(after.chosen, est, est);
        }
        let (_, source) = planner.plan(&input());
        assert_eq!(source, PlanSource::Refined);
    }

    #[test]
    fn frozen_mode_ignores_observations() {
        let planner = Planner::new(PlannerConfig {
            mode: PlannerMode::Frozen,
            ..PlannerConfig::default()
        });
        let (before, source) = planner.plan(&input());
        assert_eq!(source, PlanSource::Static);
        for _ in 0..50 {
            planner.observe(before.chosen, 10.0, 10_000.0);
        }
        let (after, source) = planner.plan(&input());
        assert_eq!(source, PlanSource::Static);
        assert_eq!(after, before, "frozen plans are bit-stable");
    }

    #[test]
    fn observe_clamps_garbage() {
        let planner = Planner::new(PlannerConfig::default());
        planner.observe(CsjMethod::ExMinMax, 0.0, 100.0); // ignored
        planner.observe(CsjMethod::ExMinMax, f64::NAN, 100.0); // ignored
        planner.observe(CsjMethod::Auto, 10.0, 100.0); // ignored
        let (plan, source) = planner.plan(&input());
        assert_eq!(source, PlanSource::Static);
        assert_eq!(plan, CostTable::seeded().plan(&input()));
    }

    #[test]
    fn ladder_uses_corrections() {
        let planner = Planner::new(PlannerConfig::default());
        let cold = planner.ladder(CsjMethod::ExMinMax, &input());
        assert_eq!(
            *cold.last().unwrap(),
            CsjMethod::ApMinMax,
            "counterpart rung is always last"
        );
        // Make the current first rung look pathologically slow; the
        // ladder must promote a different exact sibling.
        let first = cold[0];
        for _ in 0..50 {
            let est = planner.base_estimate(first, &input());
            planner.observe(first, est, est * 100.0);
        }
        let warmed = planner.ladder(CsjMethod::ExMinMax, &input());
        assert_ne!(warmed[0], first);
        assert_eq!(*warmed.last().unwrap(), CsjMethod::ApMinMax);
    }
}
