//! Scalar abstraction: the EGO machinery runs on normalised `f32` data
//! (the paper's SuperEGO adaptation) or raw `u32` counters (the hybrid
//! MinMax–SuperEGO method).

/// A coordinate type usable by the EGO grid and join predicates.
///
/// Implementations must satisfy, for the grid/pruning to be sound:
/// if `a.cell(w) >= b.cell(w) + 2` then `|a - b| > w` — i.e. values two or
/// more grid cells apart are farther than one cell width.
pub trait Scalar: Copy + PartialOrd + Send + Sync + std::fmt::Debug + 'static {
    /// Grid cell index for a value, given cell width `width > 0`.
    fn cell(self, width: Self) -> u32;

    /// Whether `|self - other| <= eps`.
    fn within(self, other: Self, eps: Self) -> bool;

    /// `|self - other|` as an `f64` accumulator (exact for `u32`).
    fn abs_diff_f64(self, other: Self) -> f64;
}

impl Scalar for f32 {
    #[inline]
    fn cell(self, width: f32) -> u32 {
        debug_assert!(width > 0.0);
        // Values live in [0, 1]; the division is widened to f64 so a tiny
        // width (e.g. 1/152532) does not lose cell resolution. The cast
        // truncates (the floor, for a non-negative quotient) and saturates:
        // negative and NaN quotients give 0, quotients of 2^32 or more
        // give `u32::MAX`. Unlike `f64::floor` it needs no libm call.
        (self as f64 / width as f64) as u32
    }

    #[inline]
    fn within(self, other: f32, eps: f32) -> bool {
        (self - other).abs() <= eps
    }

    #[inline]
    fn abs_diff_f64(self, other: f32) -> f64 {
        (self as f64 - other as f64).abs()
    }
}

impl Scalar for u8 {
    #[inline]
    fn cell(self, width: u8) -> u32 {
        debug_assert!(width > 0);
        (self / width) as u32
    }

    #[inline]
    fn within(self, other: u8, eps: u8) -> bool {
        self.abs_diff(other) <= eps
    }

    #[inline]
    fn abs_diff_f64(self, other: u8) -> f64 {
        self.abs_diff(other) as f64
    }
}

impl Scalar for u16 {
    #[inline]
    fn cell(self, width: u16) -> u32 {
        debug_assert!(width > 0);
        (self / width) as u32
    }

    #[inline]
    fn within(self, other: u16, eps: u16) -> bool {
        self.abs_diff(other) <= eps
    }

    #[inline]
    fn abs_diff_f64(self, other: u16) -> f64 {
        self.abs_diff(other) as f64
    }
}

impl Scalar for u32 {
    #[inline]
    fn cell(self, width: u32) -> u32 {
        debug_assert!(width > 0);
        self / width
    }

    #[inline]
    fn within(self, other: u32, eps: u32) -> bool {
        self.abs_diff(other) <= eps
    }

    #[inline]
    fn abs_diff_f64(self, other: u32) -> f64 {
        self.abs_diff(other) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_cells() {
        // 0.25 is exactly representable, so the boundaries are exact.
        let w = 0.25f32;
        assert_eq!(0.0f32.cell(w), 0);
        assert_eq!(0.2f32.cell(w), 0);
        assert_eq!(0.26f32.cell(w), 1);
        assert_eq!(1.0f32.cell(w), 4);
    }

    #[test]
    fn f32_tiny_width_keeps_resolution() {
        let w = 1.0f32 / 152_532.0;
        let v = 100.0f32 / 152_532.0;
        let c = v.cell(w);
        assert!((99..=101).contains(&c), "cell was {c}");
    }

    #[test]
    fn u32_cells() {
        assert_eq!(0u32.cell(3), 0);
        assert_eq!(2u32.cell(3), 0);
        assert_eq!(3u32.cell(3), 1);
        assert_eq!(u32::MAX.cell(1), u32::MAX);
    }

    #[test]
    fn within_semantics() {
        assert!(5u32.within(6, 1));
        assert!(!5u32.within(7, 1));
        assert!(0.5f32.within(0.6, 0.11));
        assert!(!0.5f32.within(0.7, 0.1));
    }

    #[test]
    fn cell_separation_implies_distance_u32() {
        // Soundness contract: cells >= 2 apart means distance > width.
        let w = 7u32;
        for a in 0..100u32 {
            for b in 0..100u32 {
                if a.cell(w) >= b.cell(w) + 2 {
                    assert!(a.abs_diff(b) > w, "a={a} b={b}");
                }
            }
        }
    }
}
