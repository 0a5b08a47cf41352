//! Property-based tests of the EGO substrate.

use csj_ego::{
    collect_pairs, dimension_order, ego_prune, permute_dimensions, JoinPredicate, PointSet,
    SuperEgoParams,
};
use proptest::prelude::*;

/// Random integer point sets sharing d, plus eps and a leaf threshold.
fn instance() -> impl Strategy<Value = (usize, u32, Vec<Vec<u32>>, Vec<Vec<u32>>, usize)> {
    (1usize..=5, 1u32..=5, 2usize..=48).prop_flat_map(|(d, eps, t)| {
        let rows = |n| proptest::collection::vec(proptest::collection::vec(0u32..40, d), 0..n);
        (Just(d), Just(eps), rows(40), rows(40), Just(t))
    })
}

fn build(d: usize, eps: u32, rows: &[Vec<u32>]) -> PointSet<u32> {
    let data: Vec<u32> = rows.iter().flatten().copied().collect();
    PointSet::build(d, eps.max(1), data, None)
}

fn brute(_d: usize, eps: u32, rb: &[Vec<u32>], ra: &[Vec<u32>]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for (i, b) in rb.iter().enumerate() {
        for (j, a) in ra.iter().enumerate() {
            if b.iter().zip(a).all(|(&x, &y)| x.abs_diff(y) <= eps) {
                out.push((i as u32, j as u32));
            }
        }
    }
    out.sort_unstable();
    out
}

proptest! {
    /// The full recursion finds exactly the brute-force pair set.
    #[test]
    fn collect_pairs_is_exact((d, eps, rb, ra, t) in instance()) {
        let b = build(d, eps, &rb);
        let a = build(d, eps, &ra);
        let mut stats = csj_ego::EgoStats::default();
        let mut got = collect_pairs(
            &b, &a, JoinPredicate::PerDim { eps }, SuperEgoParams { t }, &mut stats);
        got.sort_unstable();
        prop_assert_eq!(got, brute(d, eps, &rb, &ra));
    }

    /// EGO-strategy soundness: whole-set segments are never pruned when a
    /// joinable pair exists.
    #[test]
    fn prune_never_drops_joinable_pairs((d, eps, rb, ra, _t) in instance()) {
        let b = build(d, eps, &rb);
        let a = build(d, eps, &ra);
        let joinable = !brute(d, eps, &rb, &ra).is_empty();
        if joinable {
            prop_assert!(!ego_prune(&b, &(0..b.len()), &a, &(0..a.len())));
        }
    }

    /// Dimension reordering never changes the result set (it only changes
    /// traversal order).
    #[test]
    fn reorder_preserves_pairs((d, eps, rb, ra, t) in instance()) {
        let flat_b: Vec<u32> = rb.iter().flatten().copied().collect();
        let flat_a: Vec<u32> = ra.iter().flatten().copied().collect();
        let order = dimension_order(d, &flat_b, &flat_a, eps.max(1), 1000);
        let pb = permute_dimensions(&flat_b, d, &order);
        let pa = permute_dimensions(&flat_a, d, &order);
        let b = PointSet::build(d, eps.max(1), pb, None);
        let a = PointSet::build(d, eps.max(1), pa, None);
        let mut stats = csj_ego::EgoStats::default();
        let mut got = collect_pairs(
            &b, &a, JoinPredicate::PerDim { eps }, SuperEgoParams { t }, &mut stats);
        got.sort_unstable();
        prop_assert_eq!(got, brute(d, eps, &rb, &ra));
    }

    /// The point set is always EGO-sorted and permutation-complete.
    #[test]
    fn point_set_is_sorted_permutation((_d, eps, rb, _ra, _t) in instance()) {
        let b = build(_d, eps, &rb);
        prop_assert!(b.is_ego_sorted());
        let mut ids: Vec<u32> = b.ids().to_vec();
        ids.sort_unstable();
        let expected: Vec<u32> = (0..rb.len() as u32).collect();
        prop_assert_eq!(ids, expected);
    }
}
