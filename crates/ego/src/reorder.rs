//! Super-EGO dimension reordering.
//!
//! Kalashnikov observed that EGO's pruning and the short-circuited leaf
//! comparison both benefit enormously from putting the most *selective*
//! dimensions first: a dimension in which values are spread over many grid
//! cells disqualifies pairs early (in the leaf) and separates segments
//! early (in EGO-strategy). Super-EGO therefore reorders dimensions before
//! EGO-sorting.
//!
//! We estimate per-dimension selectivity from the grid cells of a sample
//! of both datasets: the number of sampled (b, a) pairs whose cells lie
//! within one of each other, `sum_b #{a : |cell_a - cell_b| <= 1}`. Fewer
//! such pairs = more selective = earlier position. The count is an exact
//! integer, taken from a dense count array over A's low cells and a
//! binary search over the few cells above that range.

use crate::points::grid_cells;
use crate::scalar::Scalar;

/// Compute the dimension permutation (most selective first) from raw
/// coordinates. A thin wrapper over [`dimension_order_cells`] for callers
/// that have not computed grid cells themselves.
///
/// `b_data` / `a_data` are flat row-major coordinate arrays with stride
/// `d`; `width` is the grid cell width (the epsilon radius);
/// `max_sample` caps how many points per dataset are counted (sampling is
/// strided, deterministic).
pub fn dimension_order<S: Scalar>(
    d: usize,
    b_data: &[S],
    a_data: &[S],
    width: S,
    max_sample: usize,
) -> Vec<usize> {
    dimension_order_cells(
        d,
        &grid_cells(b_data, width),
        &grid_cells(a_data, width),
        max_sample,
    )
}

/// Compute the dimension permutation (most selective first) from the
/// grid cells of both datasets (flat row-major, stride `d`, as
/// [`grid_cells`](crate::grid_cells) returns them).
///
/// At most `max_sample` points per dataset are counted: every
/// `n / max_sample`-th one. Returns a permutation `p` such that new
/// dimension `k` is old dimension `p[k]`. Ties (and the all-tied case of
/// an empty side) keep the original dimension index order, so the result
/// is deterministic.
pub fn dimension_order_cells(
    d: usize,
    cells_b: &[u32],
    cells_a: &[u32],
    max_sample: usize,
) -> Vec<usize> {
    assert!(d > 0, "d must be positive");
    let cols_b = sampled_columns(cells_b, d, max_sample);
    let mut cols_a = sampled_columns(cells_a, d, max_sample);
    let (mb, ma) = (cols_b.len() / d, cols_a.len() / d);
    let mut counts = Vec::new();
    let mut scores: Vec<(u64, usize)> = (0..d)
        .map(|dim| {
            let col_b = &cols_b[dim * mb..(dim + 1) * mb];
            let col_a = &mut cols_a[dim * ma..(dim + 1) * ma];
            (near_pairs(col_b, col_a, &mut counts), dim)
        })
        .collect();
    // Stable: equal counts keep their dimension index order.
    scores.sort_by_key(|&(near, _)| near);
    scores.into_iter().map(|(_, dim)| dim).collect()
}

/// Apply a dimension permutation to a flat row-major array: new dimension
/// `k` of each row is old dimension `order[k]`.
pub fn permute_dimensions<T: Copy>(data: &[T], d: usize, order: &[usize]) -> Vec<T> {
    assert_eq!(order.len(), d);
    let mut out = Vec::with_capacity(data.len());
    for row in data.chunks_exact(d) {
        for &dim in order {
            out.push(row[dim]);
        }
    }
    out
}

/// Every `n / max_sample`-th row of `cells`, transposed: column `dim` is
/// `out[dim * m..(dim + 1) * m]` for `m` sampled rows. One pass over the
/// rows, so each column is then read contiguously.
fn sampled_columns(cells: &[u32], d: usize, max_sample: usize) -> Vec<u32> {
    let n = cells.len() / d;
    let stride = (n / max_sample.max(1)).max(1);
    let m = n.div_ceil(stride);
    let mut out = vec![0u32; m * d];
    for (r, row) in cells.chunks_exact(d).step_by(stride).enumerate() {
        for (dim, &c) in row.iter().enumerate() {
            out[dim * m + r] = c;
        }
    }
    out
}

/// `sum_b #{a : |a - b| <= 1}` over two columns of cells.
///
/// A's cells in `[lo, lo + 4 * (|A| + |B|))`, from its minimum up, go
/// into a dense count array; the few above it (the skewed tail of
/// VK-like counters) are sorted and binary-searched by the B cells that
/// can reach them. The cost is linear in the sample plus the tail's sort.
/// `counts` is scratch space; `col_a` is reordered.
fn near_pairs(col_b: &[u32], col_a: &mut [u32], counts: &mut Vec<u32>) -> u64 {
    let (Some(&lo), Some(&hi)) = (col_a.iter().min(), col_a.iter().max()) else {
        return 0;
    };
    let (lo, hi) = (lo as u64, hi as u64);
    // Head cells are [lo, top); counts[c - lo + 2] holds #{a : a == c},
    // with two zero slots on each side, so a b one outside the head reads
    // zeros for its neighbours beyond it.
    let top = (hi + 1).min(lo + 4 * (col_a.len() + col_b.len()) as u64);
    counts.clear();
    counts.resize((top - lo) as usize + 4, 0);
    let mut tail_len = 0;
    for i in 0..col_a.len() {
        let a = col_a[i] as u64;
        if a < top {
            counts[(a - lo) as usize + 2] += 1;
        } else {
            col_a.swap(i, tail_len);
            tail_len += 1;
        }
    }
    let tail = &mut col_a[..tail_len];
    tail.sort_unstable();
    let mut near = 0u64;
    for &b in col_b {
        let b = b as u64;
        if b + 1 >= lo && b <= top {
            let k = (b + 2 - lo) as usize;
            near += counts[k - 1] as u64 + counts[k] as u64 + counts[k + 1] as u64;
        }
        if b + 1 >= top && !tail.is_empty() {
            let from = tail.partition_point(|&a| (a as u64) + 1 < b);
            let to = tail.partition_point(|&a| a as u64 <= b + 1);
            near += (to - from) as u64;
        }
    }
    near
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selective_dimension_comes_first() {
        // dim 0: everything in one cell (useless); dim 1: spread out.
        let mut b = Vec::new();
        let mut a = Vec::new();
        for i in 0..50u32 {
            b.extend_from_slice(&[0u32, i * 10]);
            a.extend_from_slice(&[0u32, i * 10 + 500]);
        }
        let order = dimension_order(2, &b, &a, 1, 1000);
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn permute_roundtrip() {
        let data = vec![1u32, 2, 3, 4, 5, 6];
        let order = vec![2, 0, 1];
        let p = permute_dimensions(&data, 3, &order);
        assert_eq!(p, vec![3, 1, 2, 6, 4, 5]);
        // Applying the inverse restores the original.
        let mut inverse = vec![0usize; 3];
        for (new_pos, &old_dim) in order.iter().enumerate() {
            inverse[old_dim] = new_pos;
        }
        assert_eq!(permute_dimensions(&p, 3, &inverse), data);
    }

    #[test]
    fn identity_when_dimensions_equivalent() {
        let b = vec![1u32, 1, 2, 2];
        let a = vec![1u32, 1, 2, 2];
        let order = dimension_order(2, &b, &a, 1, 10);
        assert_eq!(order, vec![0, 1]); // tie broken by index
    }

    #[test]
    fn empty_data_is_fine() {
        let order = dimension_order::<u32>(3, &[], &[], 1, 10);
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn near_pairs_agree_with_brute_force() {
        let brute = |b: &[u32], a: &[u32]| -> u64 {
            b.iter()
                .map(|&x| a.iter().filter(|&&y| x.abs_diff(y) <= 1).count() as u64)
                .sum()
        };
        let cases: [(&[u32], &[u32]); 6] = [
            // B one below / one above A's range, and far outside it.
            (&[4, 5, 9, 10, 11, 0], &[5, 6, 9, 9]),
            // Wide span: a tail above the dense head.
            (&[0, 1_000_000, 999_999, 7], &[1_000_000, 8, 0, 1_000_001]),
            (&[u32::MAX, 0, u32::MAX - 1], &[u32::MAX, 1, 0]),
            (&[3], &[]),
            (&[], &[3]),
            (&[2, 2, 2], &[1, 2, 3, 4]),
        ];
        let mut counts = Vec::new();
        for (b, a) in cases {
            let want = brute(b, a);
            let got = near_pairs(b, &mut a.to_vec(), &mut counts);
            assert_eq!(got, want, "b={b:?} a={a:?}");
        }
    }
}
