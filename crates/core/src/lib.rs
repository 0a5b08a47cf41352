//! # csj-core — Community Similarity based on User Profile Joins
//!
//! A faithful, production-grade implementation of the CSJ problem and the
//! six methods of *"Community Similarity based on User Profile Joins"*
//! (Theocharidis & Lauw, EDBT 2024), plus a hybrid MinMax–SuperEGO method
//! the paper sketches in its experimental discussion.
//!
//! ## The problem
//!
//! Two communities `B` and `A` hold d-dimensional user vectors whose
//! entries are aggregate preference counters. With
//! `ceil(|A|/2) <= |B| <= |A|`, CSJ finds a **one-to-one matching** between
//! the communities where a pair `(b, a)` is admissible only if
//! `|b_i - a_i| <= eps` in **every** dimension, and reports
//! `similarity = matched / |B|`.
//!
//! ## Methods
//!
//! | method | kind | strategy |
//! |---|---|---|
//! | [`CsjMethod::ApBaseline`] | approximate | nested loop, first match consumes both users |
//! | [`CsjMethod::ExBaseline`] | exact | nested loop all-pairs, then one CSF call |
//! | [`CsjMethod::ApMinMax`] | approximate | encoded sort-merge loop with MIN/MAX pruning |
//! | [`CsjMethod::ExMinMax`] | exact | encoded loop + per-segment CSF flushes |
//! | [`CsjMethod::ApSuperEgo`] | approximate | EGO recursion on normalised floats, greedy leaf |
//! | [`CsjMethod::ExSuperEgo`] | exact | EGO recursion, all-pairs leaf, one CSF call |
//! | [`CsjMethod::ApHybrid`] | approximate | EGO recursion on raw integers, encoded greedy leaf |
//! | [`CsjMethod::ExHybrid`] | exact | EGO recursion on raw integers, encoded all-pairs leaf |
//!
//! The *approximate* methods take the first admissible partner per user
//! and may under-count; the *exact* methods gather every admissible pair
//! and run a one-to-one matcher (the paper's CSF by default; see
//! [`csj_matching::MatcherKind`] for the exact-maximum alternatives).
//!
//! ## Quick start
//!
//! ```
//! use csj_core::{Community, CsjMethod, CsjOptions, run};
//!
//! let mut b = Community::new("B", 3);
//! b.push(1, &[3, 4, 2]).unwrap();
//! b.push(2, &[2, 2, 3]).unwrap();
//! let mut a = Community::new("A", 3);
//! a.push(10, &[2, 3, 5]).unwrap();
//! a.push(11, &[2, 3, 1]).unwrap();
//! a.push(12, &[3, 3, 3]).unwrap();
//!
//! let opts = CsjOptions::new(1); // eps = 1
//! let outcome = run(CsjMethod::ExMinMax, &b, &a, &opts).unwrap();
//! assert_eq!(outcome.similarity.percent(), 100.0); // the paper's Section 3 example
//! ```

pub mod algorithms;
pub mod cancel;
pub mod checksum;
pub mod community;
pub mod encoding;
pub mod error;
pub mod events;
pub mod plan;
pub mod prepared;
pub mod quant;
pub mod shard;
pub mod similarity;
pub mod telemetry;
pub mod verify;

pub use algorithms::{
    run, run_prepared, CsjMethod, CsjOptions, JoinOutcome, PhaseTimings, SuperEgoConfig,
};
pub use cancel::CancelToken;
pub use community::{Community, UserId};
pub use encoding::{encode_a, encode_b, part_bounds, EncodedA, EncodedB, EncodingParams};
pub use error::{panic_message, CsjError};
pub use events::{Event, EventCounters};
pub use plan::{Exactness, PlanInput, QueryPlan};
pub use prepared::PreparedCommunity;
pub use quant::{pair_lane, tile_geometry, LaneKind, QuantMode, QuantizedCommunity};
pub use shard::{community_mass, plan_shards, Coverage, ShardLayout};
pub use similarity::Similarity;
pub use telemetry::{JoinTelemetry, LogHistogram};

// Re-export the substrates so downstream users need only csj-core.
pub use csj_ego;
pub use csj_matching;
pub use csj_matching::MatcherKind;

/// Check the CSJ size admissibility constraint:
/// `ceil(|A|/2) <= |B| <= |A|`.
///
/// The paper: "similarity is meaningful to be computed only when the size
/// of B is at least the half of the size of A, since otherwise chances are
/// that B will be a significant subset of A".
pub fn validate_sizes(nb: usize, na: usize) -> Result<(), CsjError> {
    let lower = na.div_ceil(2);
    if nb < lower || nb > na {
        return Err(CsjError::SizeConstraint { nb, na });
    }
    Ok(())
}

/// Check that a `(b, a)` pair satisfies the strict per-dimension epsilon
/// condition — the heart of CSJ.
///
/// Routed through the one chunked lane primitive
/// ([`csj_ego::lanes::all_within`]) that every scalar match path in the
/// workspace shares; [`quant::QuantMode::Off`] selects the short-circuit
/// reference instead.
#[inline]
pub fn vectors_match(b: &[u32], a: &[u32], eps: u32) -> bool {
    debug_assert_eq!(b.len(), a.len());
    csj_ego::lanes::all_within(b, a, eps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_constraint_boundaries() {
        assert!(validate_sizes(2, 3).is_ok()); // ceil(3/2)=2
        assert!(validate_sizes(1, 3).is_err());
        assert!(validate_sizes(3, 3).is_ok());
        assert!(validate_sizes(4, 3).is_err());
        assert!(validate_sizes(0, 0).is_ok()); // vacuous
        assert!(validate_sizes(5, 10).is_ok());
        assert!(validate_sizes(4, 10).is_err());
    }

    #[test]
    fn vectors_match_is_per_dimension() {
        assert!(vectors_match(&[3, 4, 2], &[2, 3, 3], 1));
        assert!(!vectors_match(&[3, 4, 2], &[2, 3, 4], 1));
        assert!(vectors_match(&[], &[], 0));
        assert!(vectors_match(&[7], &[7], 0));
        assert!(!vectors_match(&[7], &[8], 0));
        assert!(vectors_match(&[0, u32::MAX], &[0, u32::MAX], 0));
    }
}
