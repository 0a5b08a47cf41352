//! The recursive SuperEGO join driver (Algorithm SuperEGO in the paper).
//!
//! ```text
//! if EGO-Strategy(B, A) = 1        -> prune
//! if |B| < t and |A| < t           -> leaf join (nested loop)
//! if |B| < t and |A| >= t          -> split A, recurse twice
//! if |B| >= t and |A| < t          -> split B, recurse twice
//! if |B| >= t and |A| >= t         -> split both, recurse four times
//! ```
//!
//! The driver is agnostic to what happens at a leaf: the paper's
//! Ap-SuperEGO plugs in the greedy one-to-one nested loop of Ap-Baseline,
//! Ex-SuperEGO plugs in an all-pairs enumeration feeding CSF, and the
//! hybrid MinMax–SuperEGO plugs in the encoded nested loop. Because the
//! recursion partitions the cross product `B x A`, every point pair
//! reaches exactly one leaf.

use std::ops::Range;

use crate::points::PointSet;
use crate::predicate::JoinPredicate;
use crate::scalar::Scalar;
use crate::strategy::ego_prune;

/// Tuning parameters of the recursion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperEgoParams {
    /// Leaf threshold `t`: segments smaller than this on both sides are
    /// joined with a nested loop. Must be at least 2 (a split of a
    /// single-point segment cannot make progress).
    pub t: usize,
}

impl Default for SuperEgoParams {
    fn default() -> Self {
        // Kalashnikov reports small leaf sizes work best; 32 balances
        // recursion overhead against quadratic leaf work on our scales.
        Self { t: 32 }
    }
}

impl SuperEgoParams {
    /// Validate the parameters (t >= 2).
    pub fn validated(self) -> Result<Self, String> {
        if self.t < 2 {
            Err(format!(
                "SuperEGO leaf threshold t must be >= 2, got {}",
                self.t
            ))
        } else {
            Ok(self)
        }
    }
}

/// Counters describing one SuperEGO execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EgoStats {
    /// Recursive invocations (including the root).
    pub calls: u64,
    /// Segment pairs pruned by EGO-strategy.
    pub prunes: u64,
    /// Leaf nested-loop joins executed.
    pub leaves: u64,
    /// Point pairs compared inside leaves (filled by the built-in leafs;
    /// custom leaf closures may leave it at 0).
    pub pairs_checked: u64,
}

/// Run the SuperEGO recursion over `b` and `a`, invoking `leaf` for every
/// unpruned segment pair below the size threshold.
///
/// # Panics
/// Panics if `params.t < 2` or the point sets have different `d`.
pub fn super_ego_join<S: Scalar, F>(
    b: &PointSet<S>,
    a: &PointSet<S>,
    params: SuperEgoParams,
    stats: &mut EgoStats,
    leaf: &mut F,
) where
    F: FnMut(&PointSet<S>, Range<usize>, &PointSet<S>, Range<usize>, &mut EgoStats),
{
    assert!(params.t >= 2, "SuperEGO leaf threshold t must be >= 2");
    assert_eq!(b.d(), a.d(), "point sets must share dimensionality");
    if b.is_empty() || a.is_empty() {
        return;
    }
    recurse(b, 0..b.len(), a, 0..a.len(), params.t, stats, leaf);
}

fn recurse<S: Scalar, F>(
    b: &PointSet<S>,
    br: Range<usize>,
    a: &PointSet<S>,
    ar: Range<usize>,
    t: usize,
    stats: &mut EgoStats,
    leaf: &mut F,
) where
    F: FnMut(&PointSet<S>, Range<usize>, &PointSet<S>, Range<usize>, &mut EgoStats),
{
    stats.calls += 1;
    if ego_prune(b, &br, a, &ar) {
        stats.prunes += 1;
        return;
    }
    let nb = br.len();
    let na = ar.len();
    match (nb < t, na < t) {
        (true, true) => {
            stats.leaves += 1;
            leaf(b, br, a, ar, stats);
        }
        (true, false) => {
            let (a1, a2) = split(&ar);
            recurse(b, br.clone(), a, a1, t, stats, leaf);
            recurse(b, br, a, a2, t, stats, leaf);
        }
        (false, true) => {
            let (b1, b2) = split(&br);
            recurse(b, b1, a, ar.clone(), t, stats, leaf);
            recurse(b, b2, a, ar, t, stats, leaf);
        }
        (false, false) => {
            let (b1, b2) = split(&br);
            let (a1, a2) = split(&ar);
            recurse(b, b1.clone(), a, a1.clone(), t, stats, leaf);
            recurse(b, b1, a, a2.clone(), t, stats, leaf);
            recurse(b, b2.clone(), a, a1, t, stats, leaf);
            recurse(b, b2, a, a2, t, stats, leaf);
        }
    }
}

/// Split a range at its midpoint (both halves non-empty for len >= 2).
fn split(r: &Range<usize>) -> (Range<usize>, Range<usize>) {
    let mid = r.start + r.len() / 2;
    (r.start..mid, mid..r.end)
}

/// Enumerate all joinable `(b_id, a_id)` pairs under `pred` — the leaf the
/// *exact* SuperEGO methods need. Returned ids are the callers' point ids
/// (see [`PointSet::build`]); order is recursion order (deterministic).
pub fn collect_pairs<S: Scalar>(
    b: &PointSet<S>,
    a: &PointSet<S>,
    pred: JoinPredicate<S>,
    params: SuperEgoParams,
    stats: &mut EgoStats,
) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    super_ego_join(b, a, params, stats, &mut |b, br, a, ar, stats| {
        for i in br {
            let bp = b.point(i);
            for j in ar.clone() {
                stats.pairs_checked += 1;
                if pred.matches(bp, a.point(j)) {
                    pairs.push((b.id(i), a.id(j)));
                }
            }
        }
    });
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_pairs<S: Scalar>(
        b: &PointSet<S>,
        a: &PointSet<S>,
        pred: JoinPredicate<S>,
    ) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for i in 0..b.len() {
            for j in 0..a.len() {
                if pred.matches(b.point(i), a.point(j)) {
                    out.push((b.id(i), a.id(j)));
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn make_set(d: usize, width: u32, rows: Vec<Vec<u32>>) -> PointSet<u32> {
        let data: Vec<u32> = rows.into_iter().flatten().collect();
        PointSet::build(d, width, data, None)
    }

    /// Deterministic LCG for reproducible pseudo-random test data.
    fn lcg(seed: u64) -> impl FnMut() -> u32 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        }
    }

    #[test]
    fn matches_brute_force_per_dim() {
        let mut rng = lcg(42);
        let d = 4;
        let eps = 3u32;
        let rows_b: Vec<Vec<u32>> = (0..80)
            .map(|_| (0..d).map(|_| rng() % 40).collect())
            .collect();
        let rows_a: Vec<Vec<u32>> = (0..100)
            .map(|_| (0..d).map(|_| rng() % 40).collect())
            .collect();
        let b = make_set(d, eps, rows_b);
        let a = make_set(d, eps, rows_a);
        let pred = JoinPredicate::PerDim { eps };
        let mut stats = EgoStats::default();
        let mut got = collect_pairs(&b, &a, pred, SuperEgoParams { t: 8 }, &mut stats);
        got.sort_unstable();
        assert_eq!(got, brute_pairs(&b, &a, pred));
        assert!(stats.calls > 0);
        assert!(stats.leaves > 0);
    }

    #[test]
    fn pruning_actually_happens_on_separated_data() {
        let mut rng = lcg(7);
        let d = 2;
        let eps = 1u32;
        // Two far-apart clusters.
        let rows_b: Vec<Vec<u32>> = (0..64).map(|_| vec![rng() % 10, rng() % 10]).collect();
        let rows_a: Vec<Vec<u32>> = (0..64)
            .map(|_| vec![1000 + rng() % 10, 1000 + rng() % 10])
            .collect();
        let b = make_set(d, eps, rows_b);
        let a = make_set(d, eps, rows_a);
        let mut stats = EgoStats::default();
        let pairs = collect_pairs(
            &b,
            &a,
            JoinPredicate::PerDim { eps },
            SuperEgoParams { t: 8 },
            &mut stats,
        );
        assert!(pairs.is_empty());
        assert_eq!(stats.prunes, 1, "root call should prune immediately");
        assert_eq!(stats.pairs_checked, 0);
    }

    #[test]
    fn float_domain_roundtrip() {
        let data_b: Vec<f32> = vec![0.1, 0.2, 0.11, 0.19, 0.9, 0.9];
        let data_a: Vec<f32> = vec![0.12, 0.21, 0.5, 0.5];
        let eps = 0.05f32;
        let b = PointSet::build(2, eps, data_b, None);
        let a = PointSet::build(2, eps, data_a, None);
        let mut stats = EgoStats::default();
        let mut pairs = collect_pairs(
            &b,
            &a,
            JoinPredicate::PerDim { eps },
            SuperEgoParams { t: 2 },
            &mut stats,
        );
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 0), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "t must be >= 2")]
    fn rejects_degenerate_threshold() {
        let b = make_set(1, 1, vec![vec![1]]);
        let a = make_set(1, 1, vec![vec![1]]);
        let mut stats = EgoStats::default();
        let _ = collect_pairs(
            &b,
            &a,
            JoinPredicate::PerDim { eps: 1 },
            SuperEgoParams { t: 1 },
            &mut stats,
        );
    }

    #[test]
    fn empty_inputs() {
        let b = make_set(2, 1, vec![]);
        let a = make_set(2, 1, vec![vec![1, 1]]);
        let mut stats = EgoStats::default();
        let pairs = collect_pairs(
            &b,
            &a,
            JoinPredicate::PerDim { eps: 1 },
            SuperEgoParams::default(),
            &mut stats,
        );
        assert!(pairs.is_empty());
        assert_eq!(stats.calls, 0);
    }

    #[test]
    fn l1_predicate_through_recursion() {
        // With the L1 predicate and cell width = eps_sum the grid is
        // coarse; results must still match brute force.
        let mut rng = lcg(5);
        let d = 3;
        let eps_sum = 6.0f64;
        let width = 6u32;
        let rows_b: Vec<Vec<u32>> = (0..60)
            .map(|_| (0..d).map(|_| rng() % 20).collect())
            .collect();
        let rows_a: Vec<Vec<u32>> = (0..60)
            .map(|_| (0..d).map(|_| rng() % 20).collect())
            .collect();
        let b = make_set(d, width, rows_b);
        let a = make_set(d, width, rows_a);
        let pred: JoinPredicate<u32> = JoinPredicate::L1 { eps_sum };
        let mut stats = EgoStats::default();
        let mut got = collect_pairs(&b, &a, pred, SuperEgoParams { t: 4 }, &mut stats);
        got.sort_unstable();
        assert_eq!(got, brute_pairs(&b, &a, pred));
    }
}
