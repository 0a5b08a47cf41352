//! # csj-ego — SuperEGO substrate
//!
//! A from-scratch implementation of the Epsilon Grid Order join framework
//! the paper uses as its state-of-the-art competitor:
//!
//! * Böhm et al., *Epsilon Grid Order: An Algorithm for the Similarity Join
//!   on Massive High-Dimensional Data* (SIGMOD 2001) — the EGO order and
//!   the recursive EGO-join with its pruning strategy.
//! * Kalashnikov, *Super-EGO: fast multi-dimensional similarity join*
//!   (VLDB J. 2013) — dimension reordering and the short-circuited leaf
//!   join, which together make EGO competitive ("SuperEGO").
//!
//! The framework is generic over the scalar type: the paper's SuperEGO
//! adaptation works on data normalised to `[0,1]^d` (`f32`, with the
//! documented accuracy loss of the conversion), while the hybrid
//! MinMax–SuperEGO method in `csj-core` reuses the same recursion directly
//! on the raw `u32` counters.
//!
//! Components:
//!
//! * [`PointSet`] — flat SoA storage of points + their grid cells, sorted
//!   in EGO (lexicographic cell) order.
//! * [`normalize_counters`] — the `[0,1]^d` conversion.
//! * [`dimension_order`] — Super-EGO's selectivity-based dimension
//!   reordering.
//! * [`JoinPredicate`] — per-dimension or aggregate-L1 epsilon condition
//!   with short-circuit evaluation.
//! * [`super_ego_join`] — the recursive divide-and-conquer driver
//!   (Algorithm SuperEGO in the paper), pruning with [`ego_prune`] and
//!   handing qualifying segment pairs to a caller-supplied leaf join.
//! * [`collect_pairs`] — a convenience leaf that enumerates all joinable
//!   pairs (what the *exact* CSJ methods need).

mod join;
pub mod lanes;
mod order;
mod points;
mod predicate;
mod reorder;
mod scalar;
mod strategy;

pub use join::{collect_pairs, super_ego_join, EgoStats, SuperEgoParams};
pub use lanes::{all_within, all_within_scalar};
pub use order::ego_sort_order;
pub use points::PointSet;
pub use predicate::JoinPredicate;
pub use reorder::{dimension_order, permute_dimensions};
pub use scalar::Scalar;
pub use strategy::ego_prune;

/// Normalise integer counters into `[0,1]^d` floats, as the paper does for
/// its SuperEGO methods ("all data are normalized to fit in `[0,1]^d`
/// domain since else the algorithm does not work").
///
/// `max_value` is the largest counter over the whole dataset (the paper
/// reports 152 532 for VK and 500 000 for Synthetic). Values above
/// `max_value` are clamped to 1.0. A `max_value` of zero maps everything
/// to 0.0.
///
/// The conversion to `f32` is intentionally lossy — this is precisely the
/// "normalized data conversion" accuracy loss the paper attributes to the
/// SuperEGO methods on the VK dataset. Each value is divided in `f64` and
/// rounded once to `f32`, so the per-pair outcome of a boundary comparison
/// (`|b_i - a_i|` exactly `eps`) depends on the values involved rather
/// than failing systematically. When `max_value` is a power of two and all
/// counters are below 2^24 the conversion is *exact* and SuperEGO loses
/// nothing — the regime of the paper's Synthetic dataset.
pub fn normalize_counters(data: &[u32], max_value: u32) -> Vec<f32> {
    if max_value == 0 {
        return vec![0.0; data.len()];
    }
    let m = max_value as f64;
    data.iter()
        .map(|&v| ((v as f64 / m) as f32).min(1.0))
        .collect()
}

/// The classic epsilon-join of Böhm et al. / Kalashnikov: all pairs of
/// points within Euclidean distance `eps`, computed with the full
/// Super-EGO machinery (dimension reordering, EGO sort, EGO-strategy
/// pruning, short-circuited leaf comparisons).
///
/// `b_data` / `a_data` are flat row-major coordinate arrays with stride
/// `d`. Returns `(b_index, a_index)` pairs (indices into the input row
/// order).
///
/// ```
/// let b = vec![0.0f32, 0.0, 0.9, 0.9];
/// let a = vec![0.05f32, 0.0, 0.5, 0.5];
/// let pairs = csj_ego::epsilon_join(2, &b, &a, 0.1, Default::default());
/// assert_eq!(pairs, vec![(0, 0)]);
/// ```
pub fn epsilon_join(
    d: usize,
    b_data: &[f32],
    a_data: &[f32],
    eps: f32,
    params: SuperEgoParams,
) -> Vec<(u32, u32)> {
    assert!(eps > 0.0, "epsilon must be positive");
    // Reorder dimensions by selectivity (Super-EGO), then EGO-sort with
    // cell width = eps: a gap of two cells in any dimension implies a
    // per-dimension difference > eps, hence Euclidean distance > eps.
    let order = dimension_order(d, b_data, a_data, eps, 10_000);
    let b_perm = permute_dimensions(b_data, d, &order);
    let a_perm = permute_dimensions(a_data, d, &order);
    let b = PointSet::build(d, eps, b_perm, None);
    let a = PointSet::build(d, eps, a_perm, None);
    let mut stats = EgoStats::default();
    let mut pairs = collect_pairs(
        &b,
        &a,
        JoinPredicate::L2 { eps: eps as f64 },
        params,
        &mut stats,
    );
    pairs.sort_unstable();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_join_matches_brute_force() {
        // Deterministic pseudo-random points in [0, 1]^3.
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as u32 % 1000) as f32 / 1000.0
        };
        let d = 3;
        let b: Vec<f32> = (0..d * 120).map(|_| next()).collect();
        let a: Vec<f32> = (0..d * 150).map(|_| next()).collect();
        let eps = 0.15f32;
        let got = epsilon_join(d, &b, &a, eps, SuperEgoParams { t: 8 });
        let mut expected = Vec::new();
        for i in 0..120u32 {
            for j in 0..150u32 {
                let dist: f64 = (0..d)
                    .map(|k| {
                        let diff = b[i as usize * d + k] as f64 - a[j as usize * d + k] as f64;
                        diff * diff
                    })
                    .sum();
                if dist.sqrt() <= eps as f64 {
                    expected.push((i, j));
                }
            }
        }
        expected.sort_unstable();
        assert_eq!(got, expected);
        assert!(!got.is_empty(), "test should exercise non-trivial matches");
    }

    #[test]
    fn normalize_maps_into_unit_interval() {
        let data = vec![0u32, 50, 100];
        let n = normalize_counters(&data, 100);
        assert_eq!(n, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn normalize_clamps_overflow() {
        let n = normalize_counters(&[200], 100);
        assert_eq!(n, vec![1.0]);
    }

    #[test]
    fn normalize_zero_max() {
        let n = normalize_counters(&[1, 2, 3], 0);
        assert_eq!(n, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn normalize_is_lossy_for_large_counters() {
        // (2^25)/(2^26) and (2^25 + 1)/(2^26) differ by 2^-26, below the
        // f32 spacing at 0.5 (2^-24): two distinct counters collapse to
        // the same normalised value. This is the accuracy-loss mechanism
        // the paper describes.
        let m = 1u32 << 26;
        let n = normalize_counters(&[1 << 25, (1 << 25) + 1], m);
        assert_eq!(n[0], n[1]);
    }
}
