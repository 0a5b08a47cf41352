//! Chunked, vectorization-friendly evaluation of the per-dimension
//! epsilon condition — the one seam every scalar match path in the
//! workspace routes through.
//!
//! The short-circuited form (`iter().zip().all(...)`) compiles to a
//! branch per dimension, which defeats auto-vectorization. The kernel
//! here instead evaluates a chunk of eight dimensions branchlessly
//! (`ok &= within` per lane) and only branches once per chunk, which
//! LLVM lowers to 128-bit (SSE2/NEON) compares. It returns exactly the
//! same booleans as the short-circuit scalar form.

use crate::scalar::Scalar;

/// Dimensions [`all_within`] compares per branch-free chunk.
const LANES: usize = 8;

/// `|b_i - a_i| <= eps` for every dimension, evaluated eight
/// dimensions at a time; equivalent to the short-circuit scalar form.
#[inline]
#[must_use]
pub fn all_within<S: Scalar>(b: &[S], a: &[S], eps: S) -> bool {
    debug_assert_eq!(b.len(), a.len());
    let mut bc = b.chunks_exact(LANES);
    let mut ac = a.chunks_exact(LANES);
    for (bk, ak) in bc.by_ref().zip(ac.by_ref()) {
        let mut ok = true;
        for k in 0..LANES {
            ok &= bk[k].within(ak[k], eps);
        }
        if !ok {
            return false;
        }
    }
    all_within_scalar(bc.remainder(), ac.remainder(), eps)
}

/// The scalar short-circuit form: one branch per dimension. It runs
/// [`all_within`]'s remainder and is the tests' reference.
#[inline]
#[must_use]
fn all_within_scalar<S: Scalar>(b: &[S], a: &[S], eps: S) -> bool {
    debug_assert_eq!(b.len(), a.len());
    b.iter().zip(a.iter()).all(|(&x, &y)| x.within(y, eps))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_matches_scalar_u32() {
        // Lengths around every chunk boundary, mismatch in every position.
        for d in [0usize, 1, 7, 8, 9, 15, 16, 17, 27, 32, 33, 40] {
            let b: Vec<u32> = (0..d as u32).collect();
            for bad in 0..d {
                let mut a = b.clone();
                a[bad] = a[bad].wrapping_add(10);
                assert!(!all_within(&b, &a, 3), "d={d} bad={bad}");
                assert_eq!(
                    all_within(&b, &a, 3),
                    all_within_scalar(&b, &a, 3),
                    "d={d} bad={bad}"
                );
            }
            let a = b.clone();
            assert!(all_within(&b, &a, 0), "d={d} equal");
        }
    }

    #[test]
    fn chunked_matches_scalar_narrow_lanes() {
        let d = 27usize;
        let b: Vec<u8> = (0..d as u8).map(|v| v.wrapping_mul(7)).collect();
        let mut a = b.clone();
        a[13] = a[13].wrapping_add(50);
        assert_eq!(all_within(&b, &a, 4u8), all_within_scalar(&b, &a, 4u8));
        let b16: Vec<u16> = b.iter().map(|&v| v as u16 * 300).collect();
        let a16: Vec<u16> = a.iter().map(|&v| v as u16 * 300).collect();
        assert_eq!(
            all_within(&b16, &a16, 1000u16),
            all_within_scalar(&b16, &a16, 1000u16)
        );
    }

    #[test]
    fn boundary_is_inclusive() {
        assert!(all_within(&[5u32; 9], &[7u32; 9], 2));
        assert!(!all_within(&[5u32; 9], &[8u32; 9], 2));
    }

    #[test]
    fn float_lanes_match_scalar() {
        let b: Vec<f32> = (0..20).map(|i| i as f32 * 0.05).collect();
        let mut a = b.clone();
        a[19] += 0.5;
        assert_eq!(
            all_within(&b, &a, 0.1f32),
            all_within_scalar(&b, &a, 0.1f32)
        );
        assert!(!all_within(&b, &a, 0.1f32));
    }
}
