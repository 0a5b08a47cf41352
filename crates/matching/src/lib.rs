//! # csj-matching — one-to-one matching substrate for CSJ
//!
//! The CSJ problem ("Community Similarity based on User Profile Joins",
//! EDBT 2024) reduces, once all joinable user pairs are known, to finding a
//! **maximum one-to-one matching** in the bipartite graph whose left nodes
//! are users of community `B`, right nodes are users of community `A`, and
//! whose edges are the pairs satisfying the per-dimension epsilon condition.
//!
//! This crate implements that substrate:
//!
//! * [`MatchGraph`] — a compact CSR bipartite graph.
//! * [`csf`] — the paper's **CSF (Cover Smallest First)** heuristic, which
//!   repeatedly covers the currently smallest-degree user (Function CSF in
//!   the paper).
//! * [`hopcroft_karp`] — Hopcroft–Karp (fast exact maximum), used to audit
//!   how far CSF is from the true optimum.
//! * [`brute_force_maximum`] — exponential oracle for tiny instances, used
//!   by the test suites of this crate and of `csj-core`.
//! * [`DynamicMatching`] — a maximum matching maintained under
//!   per-vertex edge updates (the substrate of incremental CSJ).
//!
//! All algorithms return a [`Matching`]; [`Matching::validate`] checks the
//! one-to-one invariants against the originating graph.

mod brute;
mod csf;
mod dynamic;
mod graph;
mod hopcroft_karp;
mod matching;

pub use brute::brute_force_maximum;
pub use csf::csf;
pub use dynamic::DynamicMatching;
pub use graph::{GraphBuilder, MatchGraph};
pub use hopcroft_karp::hopcroft_karp;
pub use matching::{Matching, MatchingError};

/// Which one-to-one matcher an exact CSJ method should use.
///
/// The paper's exact methods use [`MatcherKind::Csf`]. `HopcroftKarp`
/// computes the true maximum matching (ablation and audits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MatcherKind {
    /// Cover Smallest First — the paper's matcher (degree-ascending greedy).
    #[default]
    Csf,
    /// Hopcroft–Karp maximum bipartite matching, `O(E sqrt(V))`.
    HopcroftKarp,
}

impl MatcherKind {
    /// All matcher kinds, for sweeps and ablations.
    pub const ALL: [MatcherKind; 2] = [MatcherKind::Csf, MatcherKind::HopcroftKarp];

    /// Stable lowercase name (used in reports and CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            MatcherKind::Csf => "csf",
            MatcherKind::HopcroftKarp => "hopcroft-karp",
        }
    }

    /// Whether this matcher is guaranteed to return a *maximum* matching.
    pub fn is_guaranteed_maximum(self) -> bool {
        self == MatcherKind::HopcroftKarp
    }
}

impl std::str::FromStr for MatcherKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "csf" => Ok(MatcherKind::Csf),
            "hopcroft-karp" | "hk" => Ok(MatcherKind::HopcroftKarp),
            other => Err(format!("unknown matcher kind: {other:?}")),
        }
    }
}

impl std::fmt::Display for MatcherKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Run the matcher selected by `kind` on `graph`.
pub fn run_matcher(graph: &MatchGraph, kind: MatcherKind) -> Matching {
    match kind {
        MatcherKind::Csf => csf(graph),
        MatcherKind::HopcroftKarp => hopcroft_karp(graph),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matcher_kind_roundtrip() {
        for kind in MatcherKind::ALL {
            let parsed: MatcherKind = kind.name().parse().unwrap();
            assert_eq!(parsed, kind);
        }
    }

    #[test]
    fn matcher_kind_rejects_unknown() {
        assert!("nope".parse::<MatcherKind>().is_err());
    }

    #[test]
    fn guaranteed_maximum_flags() {
        assert!(!MatcherKind::Csf.is_guaranteed_maximum());
        assert!(MatcherKind::HopcroftKarp.is_guaranteed_maximum());
    }
}
