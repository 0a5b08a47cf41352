//! Quantized community encodings: narrow `u8`/`u16` lanes next to
//! [`Community`]'s flat `u32` data.
//!
//! The per-dimension test `|b_i - a_i| <= eps` only needs the full `u32`
//! width when a counter (or `eps`) can actually exceed a narrower lane.
//! When every counter of **both** communities and `eps` fit in `u8` (or
//! `u16`), the identical comparison runs on 1- or 2-byte lanes — a 4×
//! (2×) reduction of the bytes each candidate pair streams through the
//! kernel, and proportionally wider SIMD compares.
//!
//! Correctness is by construction, not by approximation: a lane is only
//! eligible when the cast is lossless for every value involved, so the
//! narrow comparison returns *exactly* the same boolean as the `u32`
//! reference for every pair ([`pair_lane`] encodes the widening rule,
//! and the parity suite plus a proptest pin it down). Anything else —
//! one oversized counter, an oversized `eps` — widens back to the `u32`
//! path.

use csj_ego::lanes;

use crate::community::Community;

/// The compare-lane width chosen for one community pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LaneKind {
    /// Both sides and `eps` fit in a byte.
    U8,
    /// Both sides and `eps` fit in 16 bits.
    U16,
    /// Widening fallback: the untouched `u32` data.
    U32,
}

impl LaneKind {
    /// Lane width in bits (what telemetry reports).
    #[must_use]
    pub fn bits(self) -> u8 {
        match self {
            LaneKind::U8 => 8,
            LaneKind::U16 => 16,
            LaneKind::U32 => 32,
        }
    }
}

/// Narrow-lane copies of a community's counter matrix.
///
/// A lane vector is present exactly when every counter fits the lane
/// (`max_counter() <= LANE::MAX`), so each present lane is a lossless
/// image of the `u32` data. Build once per community — the engine
/// caches it inside `PreparedCommunity`, version-keyed like the other
/// prepared state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantizedCommunity {
    max_counter: u32,
    lanes_u8: Option<Vec<u8>>,
    lanes_u16: Option<Vec<u16>>,
}

impl QuantizedCommunity {
    /// Quantize `c`'s counters into every lane they losslessly fit.
    #[must_use]
    pub fn build(c: &Community) -> Self {
        let max_counter = c.max_counter();
        let data = c.raw_data();
        let lanes_u8 = (max_counter <= u32::from(u8::MAX))
            .then(|| data.iter().map(|&v| v as u8).collect::<Vec<u8>>());
        let lanes_u16 = (max_counter <= u32::from(u16::MAX))
            .then(|| data.iter().map(|&v| v as u16).collect::<Vec<u16>>());
        // Validated widening: a present lane must round-trip exactly.
        debug_assert!(lanes_u8
            .as_ref()
            .is_none_or(|l| l.iter().zip(data).all(|(&n, &w)| u32::from(n) == w)));
        debug_assert!(lanes_u16
            .as_ref()
            .is_none_or(|l| l.iter().zip(data).all(|(&n, &w)| u32::from(n) == w)));
        Self {
            max_counter,
            lanes_u8,
            lanes_u16,
        }
    }

    /// The community-wide maximum counter the lanes were derived from.
    #[must_use]
    pub fn max_counter(&self) -> u32 {
        self.max_counter
    }

    /// Whether every counter fits the given lane.
    #[must_use]
    pub fn fits(&self, lane: LaneKind) -> bool {
        match lane {
            LaneKind::U8 => self.lanes_u8.is_some(),
            LaneKind::U16 => self.lanes_u16.is_some(),
            LaneKind::U32 => true,
        }
    }

    fn u8_lanes(&self) -> Option<&[u8]> {
        self.lanes_u8.as_deref()
    }

    fn u16_lanes(&self) -> Option<&[u16]> {
        self.lanes_u16.as_deref()
    }
}

/// The widening rule: the narrowest lane that losslessly holds **both**
/// communities' counters *and* `eps`; anything wider falls back to
/// `u32`. (`eps` must fit too: the saturating-style narrow compare is
/// only exact when the threshold itself is representable.)
#[must_use]
pub fn pair_lane(qb: &QuantizedCommunity, qa: &QuantizedCommunity, eps: u32) -> LaneKind {
    if qb.fits(LaneKind::U8) && qa.fits(LaneKind::U8) && eps <= u32::from(u8::MAX) {
        LaneKind::U8
    } else if qb.fits(LaneKind::U16) && qa.fits(LaneKind::U16) && eps <= u32::from(u16::MAX) {
        LaneKind::U16
    } else {
        LaneKind::U32
    }
}

/// A borrowed, lane-resolved view of one community pair: the one object
/// the `drive_*` kernels consult for full d-dimensional comparisons.
/// Rows are addressed by community index on either side.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LaneView<'x> {
    U8 {
        b: &'x [u8],
        a: &'x [u8],
        d: usize,
        eps: u8,
    },
    U16 {
        b: &'x [u16],
        a: &'x [u16],
        d: usize,
        eps: u16,
    },
    /// Widening fallback — chunked kernels over the raw `u32` data.
    U32 {
        b: &'x [u32],
        a: &'x [u32],
        d: usize,
        eps: u32,
    },
}

impl<'x> LaneView<'x> {
    /// Resolve the view for a pair: the narrowest lane [`pair_lane`]
    /// allows. `quant` holds both sides' quantizations (`b`'s, then
    /// `a`'s); without them the view falls back to the `u32` lanes.
    pub(crate) fn select(
        b: &'x Community,
        a: &'x Community,
        quant: Option<(&'x QuantizedCommunity, &'x QuantizedCommunity)>,
        eps: u32,
    ) -> Self {
        let d = b.d();
        debug_assert_eq!(d, a.d());
        match quant.map(|(qb, qa)| (pair_lane(qb, qa, eps), qb, qa)) {
            Some((LaneKind::U8, qb, qa)) => LaneView::U8 {
                b: qb.u8_lanes().expect("u8 lane"),
                a: qa.u8_lanes().expect("u8 lane"),
                d,
                eps: eps as u8,
            },
            Some((LaneKind::U16, qb, qa)) => LaneView::U16 {
                b: qb.u16_lanes().expect("u16 lane"),
                a: qa.u16_lanes().expect("u16 lane"),
                d,
                eps: eps as u16,
            },
            _ => LaneView::U32 {
                b: b.raw_data(),
                a: a.raw_data(),
                d,
                eps,
            },
        }
    }

    /// Dimensionality of the viewed vectors.
    pub(crate) fn d(&self) -> usize {
        match *self {
            LaneView::U8 { d, .. } | LaneView::U16 { d, .. } | LaneView::U32 { d, .. } => d,
        }
    }

    /// Bytes per lane element.
    pub(crate) fn lane_bytes(&self) -> u32 {
        match self {
            LaneView::U8 { .. } => 1,
            LaneView::U16 { .. } => 2,
            LaneView::U32 { .. } => 4,
        }
    }

    /// Lane width in bits for telemetry.
    pub(crate) fn lane_bits(&self) -> u64 {
        match self {
            LaneView::U8 { .. } => 8,
            LaneView::U16 { .. } => 16,
            LaneView::U32 { .. } => 32,
        }
    }

    /// Full per-dimension comparison of `B` row `bi` against `A` row
    /// `aj`. Every variant computes the same boolean; they differ only
    /// in lane width.
    #[inline]
    pub(crate) fn matches(&self, bi: usize, aj: usize) -> bool {
        match *self {
            LaneView::U8 { b, a, d, eps } => {
                lanes::all_within(&b[bi * d..bi * d + d], &a[aj * d..aj * d + d], eps)
            }
            LaneView::U16 { b, a, d, eps } => {
                lanes::all_within(&b[bi * d..bi * d + d], &a[aj * d..aj * d + d], eps)
            }
            LaneView::U32 { b, a, d, eps } => {
                lanes::all_within(&b[bi * d..bi * d + d], &a[aj * d..aj * d + d], eps)
            }
        }
    }
}

/// Cache-blocking geometry for the all-pairs exact scan: how many `A`
/// rows fit one tile so a tile's counters stay resident in L1/L2 while
/// a block of `B` rows streams over it.
///
/// Returns `(tile_rows, tile_count)`.
#[must_use]
pub fn tile_geometry(na: usize, d: usize, lane_bytes: u32) -> (usize, usize) {
    /// Target bytes of `A` data per tile — half a typical 64 KiB L1d,
    /// leaving room for the `B` block and edge buffers.
    const TILE_BYTES: usize = 32 * 1024;
    if na == 0 {
        return (0, 0);
    }
    let row_bytes = d.max(1) * lane_bytes as usize;
    let tile_rows = (TILE_BYTES / row_bytes).clamp(64, na.max(64)).min(na);
    (tile_rows, na.div_ceil(tile_rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn community(max: u32) -> Community {
        let mut c = Community::new("Q", 3);
        c.push(1, &[0, max / 2, max]).unwrap();
        c
    }

    #[test]
    fn lanes_present_iff_counters_fit() {
        let q = QuantizedCommunity::build(&community(200));
        assert!(q.fits(LaneKind::U8) && q.fits(LaneKind::U16));
        let q = QuantizedCommunity::build(&community(60_000));
        assert!(!q.fits(LaneKind::U8) && q.fits(LaneKind::U16));
        let q = QuantizedCommunity::build(&community(100_000));
        assert!(!q.fits(LaneKind::U8) && !q.fits(LaneKind::U16));
        assert!(q.fits(LaneKind::U32));
    }

    #[test]
    fn pair_lane_is_the_widest_requirement() {
        let narrow = QuantizedCommunity::build(&community(100));
        let mid = QuantizedCommunity::build(&community(1000));
        let wide = QuantizedCommunity::build(&community(70_000));
        assert_eq!(pair_lane(&narrow, &narrow, 1), LaneKind::U8);
        assert_eq!(pair_lane(&narrow, &mid, 1), LaneKind::U16);
        assert_eq!(pair_lane(&narrow, &wide, 1), LaneKind::U32);
        // eps alone can force the widening.
        assert_eq!(pair_lane(&narrow, &narrow, 300), LaneKind::U16);
        assert_eq!(pair_lane(&narrow, &narrow, 100_000), LaneKind::U32);
    }

    #[test]
    fn narrow_views_agree_with_scalar() {
        let mut b = Community::new("B", 4);
        b.push(1, &[1, 200, 3, 40]).unwrap();
        b.push(2, &[9, 9, 9, 9]).unwrap();
        let mut a = Community::new("A", 4);
        a.push(7, &[2, 199, 3, 41]).unwrap();
        a.push(8, &[100, 100, 100, 100]).unwrap();
        let qb = QuantizedCommunity::build(&b);
        let qa = QuantizedCommunity::build(&a);
        for eps in [0u32, 1, 2, 150] {
            let narrow = LaneView::select(&b, &a, Some((&qb, &qa)), eps);
            let wide = LaneView::select(&b, &a, None, eps);
            assert_eq!(narrow.lane_bits(), 8);
            assert_eq!(wide.lane_bits(), 32);
            for bi in 0..2 {
                for aj in 0..2 {
                    let scalar = b
                        .vector(bi)
                        .iter()
                        .zip(a.vector(aj))
                        .all(|(&x, &y)| x.abs_diff(y) <= eps);
                    let at = format!("eps={eps} bi={bi} aj={aj}");
                    assert_eq!(narrow.matches(bi, aj), scalar, "{at}");
                    assert_eq!(wide.matches(bi, aj), scalar, "{at}");
                }
            }
        }
    }

    #[test]
    fn tile_geometry_covers_a_exactly() {
        for na in [1usize, 63, 64, 1000, 5000] {
            for d in [1usize, 27, 200] {
                for bytes in [1u32, 2, 4] {
                    let (rows, count) = tile_geometry(na, d, bytes);
                    assert!(rows >= 1 && rows <= na);
                    assert_eq!(count, na.div_ceil(rows));
                }
            }
        }
        assert_eq!(tile_geometry(0, 27, 4), (0, 0));
    }
}
