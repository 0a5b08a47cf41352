//! Method selection for [`CsjMethod::Auto`]: one rule on measured
//! candidate density.
//!
//! The paper's Section 6.2 finds that the data regime decides which
//! method wins. On skewed VK data (eps 1) most users sit in a few
//! low-counter profiles and the MinMax filters leave very few
//! candidates per row, so MinMax wins. On uniform data (eps 15,000) the
//! filter windows cover a large share of the other side, and the
//! SuperEGO family's grid recursion wins. [`density_estimate`] measures
//! that regime from the two MinMax encodings in one pass over `A`. The
//! two regimes sit orders of magnitude apart on the §6 couples (VK-like
//! 0.0001–0.0012, uniform 0.14–0.19), and [`choose`] splits them at
//! [`DENSITY_THRESHOLD`]:
//!
//! | density | exact | approximate |
//! |---|---|---|
//! | below the threshold | Ex-MinMax | Ap-MinMax |
//! | at or above it | Ex-Hybrid | Ap-SuperEGO |
//!
//! Exact picks are lossless: Ex-SuperEGO compares normalised floats and
//! can under-count, so [`Exactness::Exact`] never admits it (it stays
//! reachable by name for the §6 tables). Everything here is pure: the
//! same encodings always give the same [`QueryPlan`].

use crate::algorithms::CsjMethod;
use crate::encoding::{EncodedA, EncodedB};
use crate::prepared::PreparedCommunity;

/// Candidate density below which the MinMax methods win (see the module
/// docs). It sits inside the gap between the two measured regimes, an
/// order of magnitude from either side.
pub const DENSITY_THRESHOLD: f64 = 0.02;

/// What kind of answer the caller needs; restricts which methods a plan
/// may choose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Exactness {
    /// Only lossless exact methods qualify (refinement, cached
    /// similarities): Ex-Baseline, Ex-MinMax and Ex-Hybrid.
    Exact,
    /// Only approximate methods qualify (screening, degraded sweeps).
    Approximate,
    /// Any method qualifies; the plan takes the approximate pick.
    Any,
}

impl Exactness {
    /// Whether `method` satisfies this requirement. Ex-SuperEGO is not
    /// exact here: its float comparator can lose pairs.
    pub fn admits(self, method: CsjMethod) -> bool {
        match self {
            Exactness::Exact => method.is_exact() && method != CsjMethod::ExSuperEgo,
            Exactness::Approximate => !method.is_exact(),
            Exactness::Any => true,
        }
    }

    /// Stable label used in traces and `csj explain`.
    pub fn label(self) -> &'static str {
        match self {
            Exactness::Exact => "exact",
            Exactness::Approximate => "approximate",
            Exactness::Any => "any",
        }
    }
}

/// What the rule knows about one join instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanInput {
    /// The caller's exactness requirement.
    pub exactness: Exactness,
    /// Estimated fraction of `A` each `B` row must compare against
    /// ([`density_estimate`]).
    pub density: f64,
}

impl PlanInput {
    /// Measure the instance from the MinMax encodings of `B` and `A`.
    pub fn measure(eb: &EncodedB, ea: &EncodedA, exactness: Exactness) -> Self {
        Self {
            exactness,
            density: density_estimate(eb, ea),
        }
    }

    /// [`PlanInput::measure`] on two prepared communities (`b` smaller,
    /// `a` larger).
    pub fn from_prepared(
        b: &PreparedCommunity,
        a: &PreparedCommunity,
        exactness: Exactness,
    ) -> Self {
        Self::measure(b.encoded_b(), a.encoded_a(), exactness)
    }
}

/// Candidate density from the MinMax encodings: the mean
/// `[encoded_Min, encoded_Max]` window of `A` relative to the spread of
/// `B`'s sorted `encoded_ID`s approximates the fraction of `A` each
/// driven `B` row must consider. In `[1/|A|, 1]`; 0 when a side is
/// empty (there is nothing to compare).
pub fn density_estimate(eb: &EncodedB, ea: &EncodedA) -> f64 {
    if eb.is_empty() || ea.is_empty() {
        return 0.0;
    }
    let window_sum: u64 = ea
        .encd_mins
        .iter()
        .zip(&ea.encd_maxs)
        .map(|(&lo, &hi)| hi - lo + 1)
        .sum();
    let mean_window = window_sum as f64 / ea.len() as f64;
    let spread = (eb.encd_ids[eb.len() - 1] - eb.encd_ids[0]).max(1) as f64;
    (mean_window / spread).clamp(1.0 / ea.len() as f64, 1.0)
}

/// The rule: MinMax below [`DENSITY_THRESHOLD`], Ex-Hybrid / Ap-SuperEGO
/// at or above it. [`Exactness::Any`] takes the approximate pick.
pub fn choose(density: f64, exactness: Exactness) -> CsjMethod {
    let sparse = density < DENSITY_THRESHOLD;
    match (exactness, sparse) {
        (Exactness::Exact, true) => CsjMethod::ExMinMax,
        (Exactness::Exact, false) => CsjMethod::ExHybrid,
        (_, true) => CsjMethod::ApMinMax,
        (_, false) => CsjMethod::ApSuperEgo,
    }
}

/// The resolved plan for one join instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryPlan {
    /// The instance the plan was made for (it carries the density).
    pub input: PlanInput,
    /// The method [`choose`] picked.
    pub chosen: CsjMethod,
}

impl QueryPlan {
    /// Apply the rule to `input`.
    pub fn new(input: PlanInput) -> Self {
        Self {
            input,
            chosen: choose(input.density, input.exactness),
        }
    }
}

/// The degradation ladder for an exact `primary` method under pressure
/// (open breaker, deadline), ordered from least to most degraded:
/// *exact sibling → Ex-Hybrid → approximate → counterpart*. The exact
/// sibling is the rule's exact pick at `density`, or the other regime's
/// pick when that is `primary`; the approximate rung is the rule's
/// approximate pick. The last rung is always
/// [`CsjMethod::approximate_counterpart`], whose score is a sound lower
/// bound within a factor of two of the exact answer. Exact rungs are
/// lossless. Without a measured density (no concrete pair) the rungs
/// rank as on dense data, where Ex-Hybrid is the exact pick. An
/// approximate (or [`CsjMethod::Auto`]) primary has nothing to degrade
/// to and gets a single-rung ladder.
pub fn degradation_ladder(primary: CsjMethod, density: Option<f64>) -> Vec<CsjMethod> {
    let counterpart = primary.approximate_counterpart();
    if !primary.is_exact() {
        return vec![counterpart];
    }
    let density = density.unwrap_or(1.0);
    let exact = choose(density, Exactness::Exact);
    let sibling = if exact != primary {
        exact
    } else if density < DENSITY_THRESHOLD {
        CsjMethod::ExHybrid
    } else {
        CsjMethod::ExMinMax
    };
    let approximate = choose(density, Exactness::Approximate);
    let mut ladder = Vec::with_capacity(4);
    for rung in [sibling, CsjMethod::ExHybrid, approximate, counterpart] {
        if rung != primary && !ladder.contains(&rung) {
            ladder.push(rung);
        }
    }
    ladder
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CsjOptions, PreparedCommunity};

    /// A community whose `n` users spread their counters over
    /// `0..spread` in every dimension.
    fn community(name: &str, n: usize, spread: u32, seed: u64) -> crate::Community {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        crate::Community::from_rows(
            name,
            4,
            (0..n).map(|i| {
                (
                    i as u64,
                    (0..4).map(|_| next() % spread).collect::<Vec<u32>>(),
                )
            }),
        )
        .expect("well-formed")
    }

    fn plan_of(spread: u32, eps: u32, exactness: Exactness) -> QueryPlan {
        let opts = CsjOptions::new(eps).with_parts(2);
        let b = PreparedCommunity::new(community("b", 300, spread, 1), &opts);
        let a = PreparedCommunity::new(community("a", 400, spread, 2), &opts);
        QueryPlan::new(PlanInput::from_prepared(&b, &a, exactness))
    }

    #[test]
    fn plan_respects_exactness() {
        for density in [0.0, 0.001, DENSITY_THRESHOLD, 0.5, 1.0] {
            for exactness in [Exactness::Exact, Exactness::Approximate, Exactness::Any] {
                let chosen = choose(density, exactness);
                assert!(exactness.admits(chosen), "{density} {exactness:?}");
                assert_eq!(chosen.is_exact(), exactness == Exactness::Exact);
            }
        }
    }

    #[test]
    fn exact_admits_only_lossless_methods() {
        let exact: Vec<CsjMethod> = CsjMethod::ALL
            .into_iter()
            .filter(|&m| Exactness::Exact.admits(m))
            .collect();
        assert_eq!(
            exact,
            [
                CsjMethod::ExBaseline,
                CsjMethod::ExMinMax,
                CsjMethod::ExHybrid
            ]
        );
        assert!(!Exactness::Exact.admits(CsjMethod::ExSuperEgo));
    }

    #[test]
    fn the_rule_splits_the_regimes_at_the_threshold() {
        // Wide counters at eps 1: narrow windows, MinMax.
        let sparse = plan_of(100_000, 1, Exactness::Exact);
        assert!(sparse.input.density < DENSITY_THRESHOLD, "{sparse:?}");
        assert_eq!(sparse.chosen, CsjMethod::ExMinMax);
        // eps comparable to the counter range: wide windows, Ex-Hybrid.
        let dense = plan_of(100, 40, Exactness::Exact);
        assert!(dense.input.density >= DENSITY_THRESHOLD, "{dense:?}");
        assert_eq!(dense.chosen, CsjMethod::ExHybrid);
        assert_eq!(
            plan_of(100, 40, Exactness::Any).chosen,
            CsjMethod::ApSuperEgo
        );
        assert_eq!(
            plan_of(100_000, 1, Exactness::Approximate).chosen,
            CsjMethod::ApMinMax
        );
        assert_eq!(
            choose(DENSITY_THRESHOLD, Exactness::Exact),
            CsjMethod::ExHybrid
        );
    }

    #[test]
    fn ladder_ends_on_the_counterpart_and_never_contains_primary() {
        for density in [None, Some(0.001), Some(0.5)] {
            for primary in CsjMethod::ALL.into_iter().filter(|m| m.is_exact()) {
                let ladder = degradation_ladder(primary, density);
                assert!(!ladder.contains(&primary), "{primary}");
                assert_eq!(*ladder.last().unwrap(), primary.approximate_counterpart());
                // An exact sibling first, then strictly more degraded;
                // every exact rung is lossless.
                assert!(Exactness::Exact.admits(ladder[0]), "{primary}: {ladder:?}");
                assert!(ladder
                    .iter()
                    .all(|&m| !m.is_exact() || Exactness::Exact.admits(m)));
                let mut deduped = ladder.clone();
                deduped.dedup();
                assert_eq!(deduped, ladder, "no duplicate rungs");
            }
        }
        assert_eq!(
            degradation_ladder(CsjMethod::ExMinMax, Some(0.001)),
            vec![CsjMethod::ExHybrid, CsjMethod::ApMinMax]
        );
        assert_eq!(
            degradation_ladder(CsjMethod::ExHybrid, Some(0.5)),
            vec![
                CsjMethod::ExMinMax,
                CsjMethod::ApSuperEgo,
                CsjMethod::ApHybrid
            ]
        );
        // Approximate primaries have a single self rung.
        assert_eq!(
            degradation_ladder(CsjMethod::ApMinMax, Some(0.5)),
            vec![CsjMethod::ApMinMax]
        );
        // Auto is not exact: delegated selection stays delegated.
        assert_eq!(
            degradation_ladder(CsjMethod::Auto, None),
            vec![CsjMethod::Auto]
        );
    }
}
