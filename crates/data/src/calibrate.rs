//! Generator calibration.
//!
//! The paper reports *measured* similarities per couple; our substituted
//! generators must land in the same bands for the reproduced tables to be
//! comparable. [`uniform_value_range`] is the closed-form inversion for
//! the uniform generator. Under independence, a `B` user matches a fixed
//! `A` user with probability `p^d` where `p = P(|X - Y| <= eps)` for
//! `X, Y ~ U[0, V]`, i.e. `p = 2r - r^2` with `r = eps / V` (for
//! `r <= 1`). With `|A| = na` candidates the per-user hit probability is
//! `1 - (1 - p^d)^na ≈ 1 - exp(-na * p^d)`; setting that equal to the
//! target similarity and solving backwards yields `V`.

/// Closed-form value range for the uniform generator.
///
/// Returns the smallest sensible `V` such that joining `B` against an
/// `A` of `na` users with threshold `eps` yields approximately
/// `target_similarity` (clamped to `[0.001, 0.95]`).
///
/// # Panics
/// Panics if `na == 0`, `d == 0` or `eps == 0`.
pub fn uniform_value_range(target_similarity: f64, na: usize, d: usize, eps: u32) -> u32 {
    assert!(na > 0 && d > 0 && eps > 0);
    let s = target_similarity.clamp(0.001, 0.95);
    // Per-user hit probability: s = 1 - exp(-na * q)  =>  q = -ln(1-s)/na
    let q = -(1.0 - s).ln() / na as f64;
    // Per-candidate full-vector probability: q = p^d  =>  p = q^(1/d)
    let p = q.powf(1.0 / d as f64).clamp(1e-9, 1.0);
    // Per-dimension: p = 2r - r^2  =>  r = 1 - sqrt(1 - p)
    let r = 1.0 - (1.0 - p).sqrt();
    let v = (eps as f64 / r).round();
    (v.max(eps as f64) as u32).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_range_monotonic_in_target() {
        // Higher target similarity -> matches must be more likely ->
        // smaller value range.
        let v15 = uniform_value_range(0.15, 5_000, 27, 15_000);
        let v30 = uniform_value_range(0.30, 5_000, 27, 15_000);
        assert!(v30 < v15, "v30={v30} v15={v15}");
    }

    #[test]
    fn value_range_monotonic_in_na() {
        // More candidates -> each can be individually rarer -> larger V.
        let small = uniform_value_range(0.2, 1_000, 27, 15_000);
        let large = uniform_value_range(0.2, 100_000, 27, 15_000);
        assert!(large > small);
    }

    #[test]
    fn value_range_is_at_least_eps() {
        let v = uniform_value_range(0.9, 10, 2, 500);
        assert!(v >= 500);
    }
}
