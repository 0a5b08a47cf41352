//! Flat SoA point storage sorted in Epsilon Grid Order.

use crate::order::ego_sort_order;
use crate::scalar::Scalar;

/// The grid cell of every value of `data`, in the same layout.
pub fn grid_cells<S: Scalar>(data: &[S], width: S) -> Vec<u32> {
    data.iter().map(|&v| v.cell(width)).collect()
}

/// A set of d-dimensional points with precomputed grid cells, stored flat
/// (stride `d`) and sorted in EGO (lexicographic cell) order.
///
/// `ids[i]` is the caller's identifier for sorted point `i` (for CSJ, the
/// user's index within its community), so join results can be mapped back.
#[derive(Debug, Clone)]
pub struct PointSet<S: Scalar> {
    d: usize,
    width: S,
    data: Vec<S>,
    cells: Vec<u32>,
    ids: Vec<u32>,
}

impl<S: Scalar> PointSet<S> {
    /// Build a point set from flat row-major `data` (length `n * d`),
    /// computing grid cells with cell width `width` and sorting everything
    /// into EGO order. `ids`, when given, must have length `n`; otherwise
    /// points are identified by their original position.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `d`, or `ids` has the
    /// wrong length, or `d == 0` with non-empty data.
    pub fn build(d: usize, width: S, data: Vec<S>, ids: Option<Vec<u32>>) -> Self {
        let cells = grid_cells(&data, width);
        Self::from_cells(d, width, data, cells, ids)
    }

    /// [`build`](Self::build) with the grid cells already computed:
    /// `cells[k]` must be `data[k].cell(width)` (see [`grid_cells`]), so a
    /// caller that needed the cells before building (say, to rank
    /// dimensions) computes them once.
    ///
    /// # Panics
    /// As [`build`](Self::build), and if `cells.len() != data.len()`.
    pub fn from_cells(
        d: usize,
        width: S,
        data: Vec<S>,
        cells: Vec<u32>,
        ids: Option<Vec<u32>>,
    ) -> Self {
        assert!(d > 0 || data.is_empty(), "d must be positive");
        assert!(
            d == 0 || data.len().is_multiple_of(d),
            "data length {} not a multiple of d={d}",
            data.len()
        );
        assert_eq!(cells.len(), data.len(), "one cell per coordinate");
        let n = data.len().checked_div(d).unwrap_or(0);
        let ids = ids.unwrap_or_else(|| (0..n as u32).collect());
        assert_eq!(ids.len(), n, "ids length must equal point count");

        let perm = ego_sort_order(d, &cells);
        let mut sorted_data = Vec::with_capacity(data.len());
        let mut sorted_cells = Vec::with_capacity(cells.len());
        let mut sorted_ids = Vec::with_capacity(n);
        for &p in &perm {
            let lo = p as usize * d;
            sorted_data.extend_from_slice(&data[lo..lo + d]);
            sorted_cells.extend_from_slice(&cells[lo..lo + d]);
            sorted_ids.push(ids[p as usize]);
        }

        Self {
            d,
            width,
            data: sorted_data,
            cells: sorted_cells,
            ids: sorted_ids,
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Dimensionality.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The grid cell width used.
    pub fn width(&self) -> S {
        self.width
    }

    /// Coordinates of sorted point `i`.
    #[inline]
    pub fn point(&self, i: usize) -> &[S] {
        &self.data[i * self.d..(i + 1) * self.d]
    }

    /// Grid cells of sorted point `i`.
    #[inline]
    pub fn cells(&self, i: usize) -> &[u32] {
        &self.cells[i * self.d..(i + 1) * self.d]
    }

    /// Cell of sorted point `i` in dimension `dim`.
    #[inline]
    pub fn cell(&self, i: usize, dim: usize) -> u32 {
        self.cells[i * self.d + dim]
    }

    /// Caller identifier of sorted point `i`.
    #[inline]
    pub fn id(&self, i: usize) -> u32 {
        self.ids[i]
    }

    /// All ids in sorted order.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Verify the EGO-order invariant (debug aid; `O(n * d)`).
    pub fn is_ego_sorted(&self) -> bool {
        (1..self.len()).all(|i| self.cells(i - 1) <= self.cells(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_and_remembers_ids() {
        // Two 2-d points, reversed in cell order.
        let data = vec![0.9f32, 0.9, 0.1, 0.1];
        let ps = PointSet::build(2, 0.5, data, None);
        assert_eq!(ps.len(), 2);
        assert!(ps.is_ego_sorted());
        assert_eq!(ps.id(0), 1); // the (0.1, 0.1) point sorts first
        assert_eq!(ps.point(0), &[0.1, 0.1]);
        assert_eq!(ps.cells(0), &[0, 0]);
        assert_eq!(ps.cells(1), &[1, 1]);
    }

    #[test]
    fn custom_ids_follow_points() {
        let data = vec![5u32, 1u32];
        let ps = PointSet::build(1, 2, data, Some(vec![70, 71]));
        assert_eq!(ps.id(0), 71);
        assert_eq!(ps.id(1), 70);
    }

    #[test]
    fn empty_set() {
        let ps: PointSet<f32> = PointSet::build(3, 0.5, vec![], None);
        assert!(ps.is_empty());
        assert!(ps.is_ego_sorted());
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn rejects_ragged_data() {
        let _ = PointSet::build(3, 1u32, vec![1, 2, 3, 4], None);
    }

    #[test]
    fn lexicographic_tie_break_on_later_dims() {
        // Same first cell, differing second cell.
        let data = vec![0u32, 9, 0, 1];
        let ps = PointSet::build(2, 3, data, None);
        assert_eq!(ps.id(0), 1);
        assert_eq!(ps.cell(0, 1), 0);
        assert_eq!(ps.cell(1, 1), 3);
    }
}
