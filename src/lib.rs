//! # csj — Community Similarity based on User Profile Joins
//!
//! Facade crate re-exporting the whole CSJ stack (see the workspace
//! README for the architecture):
//!
//! * `core` ([`csj_core`]) — the CSJ problem, the MinMax encoding and the
//!   eight join methods (the paper's six plus the hybrid pair).
//! * `matching` ([`csj_matching`]) — one-to-one matchers (CSF, greedy,
//!   Hopcroft–Karp).
//! * `ego` ([`csj_ego`]) — the SuperEGO substrate (EGO order, pruning
//!   strategy, dimension reordering, recursive join).
//! * `data` ([`csj_data`]) — dataset generators calibrated to the paper's
//!   published corpus shape, plus the paper's experiment constants.
//! * `engine` ([`csj_engine`]) — a multi-community service layer with the
//!   paper's screen-then-refine pipeline, caching and top-k queries.
//!
//! ## Quick start
//!
//! ```
//! use csj::prelude::*;
//!
//! // The paper's Section 3 example: d = 3 categories, eps = 1.
//! let b = Community::from_rows("B", 3, vec![
//!     (1u64, vec![3u32, 4, 2]), // b1: Music 3, Sport 4, Education 2
//!     (2, vec![2, 2, 3]),
//! ]).unwrap();
//! let a = Community::from_rows("A", 3, vec![
//!     (10u64, vec![2u32, 3, 5]),
//!     (11, vec![2, 3, 1]),
//!     (12, vec![3, 3, 3]),
//! ]).unwrap();
//!
//! let outcome = run(CsjMethod::ExMinMax, &b, &a, &CsjOptions::new(1)).unwrap();
//! assert_eq!(outcome.similarity.percent(), 100.0);
//! ```

pub use csj_core as core;
pub use csj_data as data;
pub use csj_ego as ego;
pub use csj_engine as engine;
pub use csj_matching as matching;

/// Everything most applications need, in one import.
pub mod prelude {
    pub use csj_core::algorithms::orient;
    pub use csj_core::{
        run, Community, CsjError, CsjMethod, CsjOptions, JoinOutcome, MatcherKind, Similarity,
        UserId,
    };
    pub use csj_data::pairs::{build_couple, BuildOptions, CouplePair, Dataset};
    pub use csj_data::uniform::{UniformConfig, UniformGenerator};
    pub use csj_data::vklike::{VkLikeConfig, VkLikeGenerator};
    pub use csj_data::Category;
    pub use csj_engine::{
        Answer, Budget, CommunityHandle, CsjEngine, EngineConfig, EngineError, Exactness,
        ExhaustReason, PairScore, Partial, Query,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_the_stack() {
        let b = Community::new("b", 2);
        assert_eq!(b.d(), 2);
        assert_eq!(CsjMethod::ExMinMax.name(), "ex-minmax");
        assert_eq!(MatcherKind::Csf.name(), "csf");
        assert_eq!(Category::ALL.len(), 27);
    }
}
