//! Property-based tests of the EGO substrate.

use std::collections::HashMap;

use csj_ego::{
    collect_pairs, dimension_order, dimension_order_cells, ego_point_sets, ego_prune, grid_cells,
    normalize_counters, JoinPredicate, PointSet, Scalar, SuperEgoParams,
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
        let (b, a) = ego_point_sets(d, eps.max(1), flat_b, flat_a, true);
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

/// The grid cell before it became a saturating cast: floor of the
/// widened quotient, clamped to `[0, u32::MAX]`.
fn floor_cell(v: f32, width: f32) -> u32 {
    let c = (v as f64 / width as f64).floor();
    if c <= 0.0 {
        0
    } else if c >= u32::MAX as f64 {
        u32::MAX
    } else {
        c as u32
    }
}

/// The dimension ranking before it counted near pairs directly: a
/// `HashMap` cell histogram per dimension and side over every
/// `n / max_sample`-th point, scored by the probability that a B and an
/// A point land within one cell of each other; stable ascending sort.
fn hashmap_dimension_order(
    d: usize,
    b_data: &[f32],
    a_data: &[f32],
    width: f32,
    max_sample: usize,
) -> Vec<usize> {
    let histogram = |data: &[f32], dim: usize| {
        let n = data.len() / d;
        let stride = (n / max_sample.max(1)).max(1);
        let mut h: HashMap<u32, u64> = HashMap::new();
        for i in (0..n).step_by(stride) {
            *h.entry(floor_cell(data[i * d + dim], width)).or_insert(0) += 1;
        }
        h
    };
    let mut scores: Vec<(f64, usize)> = (0..d)
        .map(|dim| {
            let (hb, ha) = (histogram(b_data, dim), histogram(a_data, dim));
            let nb: u64 = hb.values().sum();
            let na: u64 = ha.values().sum();
            if nb == 0 || na == 0 {
                return (1.0, dim);
            }
            let mut hits = 0.0f64;
            for (&c, &cb) in &hb {
                let near = ha.get(&c).copied().unwrap_or(0)
                    + c.checked_sub(1)
                        .and_then(|p| ha.get(&p))
                        .copied()
                        .unwrap_or(0)
                    + ha.get(&c.saturating_add(1)).copied().unwrap_or(0);
                hits += cb as f64 * near as f64;
            }
            (hits / (nb as f64 * na as f64), dim)
        })
        .collect();
    scores.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap_or(std::cmp::Ordering::Equal));
    scores.into_iter().map(|(_, dim)| dim).collect()
}

/// Normalised SuperEGO inputs: counters in `0..hi` divided by
/// `max_value` (as `csj-core` does), one of the production widths
/// (`1e-6` is the eps = 0 width), and a sample cap that is often below
/// the point count, so the sample is strided. Either side may be empty.
#[allow(clippy::type_complexity)]
fn normalised_instance() -> impl Strategy<Value = (usize, f32, Vec<f32>, Vec<f32>, usize)> {
    (
        1usize..=5,
        prop_oneof![Just(10u32), Just(300), Just(200_000)],
        prop_oneof![Just(16u32), Just(997), Just(152_532)],
        prop_oneof![Just(0u32), Just(1), Just(3), Just(1_000)],
        prop_oneof![Just(1usize), Just(3), Just(7), Just(10_000)],
    )
        .prop_flat_map(|(d, hi, max_value, eps, max_sample)| {
            let side = move || {
                proptest::collection::vec(0u32..hi, 0..40 * d).prop_map(move |mut v| {
                    v.truncate(v.len() / d * d);
                    normalize_counters(&v, max_value)
                })
            };
            let eps_norm = (eps as f64 / max_value as f64) as f32;
            let width = if eps_norm > 0.0 { eps_norm } else { 1.0e-6 };
            (Just(d), Just(width), side(), side(), Just(max_sample))
        })
}

proptest! {
    /// The near-pair count ranks dimensions exactly as the `HashMap`
    /// selectivity histograms did.
    #[test]
    fn dimension_order_matches_hashmap_oracle(
        (d, width, b, a, max_sample) in normalised_instance()
    ) {
        prop_assert_eq!(
            dimension_order(d, &b, &a, width, max_sample),
            hashmap_dimension_order(d, &b, &a, width, max_sample)
        );
    }

    /// Building from precomputed cells is building.
    #[test]
    fn from_cells_equals_build((d, width, b, _a, _max_sample) in normalised_instance()) {
        let built = PointSet::build(d, width, b.clone(), None);
        let cells = grid_cells(&b, width);
        let from = PointSet::from_cells(d, width, b, cells, None);
        prop_assert_eq!(built.ids(), from.ids());
        for i in 0..built.len() {
            prop_assert_eq!(built.point(i), from.point(i));
            prop_assert_eq!(built.cells(i), from.cells(i));
        }
    }

    /// The cast-based `f32` cell is the old floor-and-clamp: on arbitrary
    /// bit patterns (NaN, infinities, negatives, subnormals) and on
    /// normalised counters with their grid width.
    #[test]
    fn f32_cell_equals_floor_and_clamp(
        v_bits in any::<u32>(),
        w_bits in any::<u32>(),
        counter in 0u32..200_000,
        max_value in 1u32..200_000,
        eps in 1u32..1_000,
    ) {
        let (v, width) = (f32::from_bits(v_bits), f32::from_bits(w_bits));
        if width > 0.0 {
            prop_assert_eq!(v.cell(width), floor_cell(v, width));
        }
        let v = normalize_counters(&[counter], max_value)[0];
        let width = (eps as f64 / max_value as f64) as f32;
        prop_assert_eq!(v.cell(width), floor_cell(v, width));
    }
}

#[test]
fn f32_cell_edge_values_equal_floor_and_clamp() {
    let subnormal = f32::from_bits(1);
    let values = [
        0.0f32,
        1.0,
        0.5,
        subnormal,
        1.0e-6,
        f32::MAX,
        f32::MIN_POSITIVE,
    ];
    let widths = [1.0f32, 1.0e-6, 1.0 / 152_532.0, subnormal, 0.25];
    for &v in &values {
        for &w in &widths {
            assert_eq!(v.cell(w), floor_cell(v, w), "v={v:e} w={w:e}");
        }
    }
    // A quotient of 2^32 or more saturates.
    assert_eq!(1.0f32.cell(subnormal), u32::MAX);
    assert_eq!(1.0f32.cell(1.0 / 4_294_967_296.0), u32::MAX);
    assert_eq!(0.0f32.cell(subnormal), 0);
}

/// B cells one below A's lowest cell and one above its highest still
/// count as near, through the dense count array (narrow A range) and the
/// tail (wide A range). In each case dimension 0 has one near pair and
/// dimension 1 has one only through the boundary cell, so the tie keeps
/// the order `[0, 1]`; a missed boundary pair flips it.
#[test]
fn near_cells_just_outside_a_range_are_counted() {
    let a_narrow = [100.0f32, 5.0, 300.0, 9.0, 500.0, 7.0];
    let a_wide = [100.0f32, 5.0, 300.0, 1.0e6, 500.0, 7.0];
    let cases: [(&[f32], [f32; 4]); 4] = [
        (&a_narrow, [100.0, 4.0, 700.0, 20.0]),
        (&a_narrow, [100.0, 10.0, 700.0, 20.0]),
        (&a_wide, [100.0, 1.0e6 - 1.0, 700.0, 40.0]),
        (&a_wide, [100.0, 1.0e6 + 1.0, 700.0, 40.0]),
    ];
    let width = 1.0f32;
    for (a, b) in cases {
        let cells_b = grid_cells(&b, width);
        let cells_a = grid_cells(a, width);
        assert_eq!(
            dimension_order_cells(2, &cells_b, &cells_a, 10_000),
            vec![0, 1],
            "b={b:?} a={a:?}"
        );
        for max_sample in [1, 2, 10_000] {
            assert_eq!(
                dimension_order_cells(2, &cells_b, &cells_a, max_sample),
                hashmap_dimension_order(2, &b, a, width, max_sample),
                "b={b:?} a={a:?} max_sample={max_sample}"
            );
        }
    }
}

/// The corner cases of the ranking, against the `HashMap` oracle: an
/// empty side, one dimension, and more points than the sample cap.
#[test]
fn dimension_order_corner_cases_match_hashmap_oracle() {
    let mut state = 0x00DD_BA11_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let width = 1.0e-6;
    for d in [1usize, 3] {
        let big: Vec<f32> = (0..d * 2_500)
            .map(|k| ((next() % (1 + 50 * (k % d) as u32)) as f32) * 1.0e-6)
            .collect();
        let small: Vec<f32> = big[..d * 40].to_vec();
        for (b, a) in [
            (&big, &small),
            (&small, &big),
            (&big, &vec![]),
            (&vec![], &big),
        ] {
            for max_sample in [1, 100, 10_000] {
                assert_eq!(
                    dimension_order(d, b, a, width, max_sample),
                    hashmap_dimension_order(d, b, a, width, max_sample),
                    "d={d} |b|={} |a|={} max_sample={max_sample}",
                    b.len() / d,
                    a.len() / d
                );
            }
        }
    }
}
