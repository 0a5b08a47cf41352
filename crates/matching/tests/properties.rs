//! Property-based tests for the matching substrate.

use csj_matching::{
    brute_force_maximum, csf, hopcroft_karp, run_matcher, DynamicMatching, MatchGraph, MatcherKind,
};
use proptest::prelude::*;

/// Strategy: a small random bipartite graph.
fn small_graph() -> impl Strategy<Value = MatchGraph> {
    (1u32..=10, 1u32..=10).prop_flat_map(|(nb, na)| {
        proptest::collection::vec((0..nb, 0..na), 0..40)
            .prop_map(move |edges| MatchGraph::from_edges(nb, na, edges))
    })
}

/// Strategy: a medium random bipartite graph (too big for the brute oracle,
/// used for exact-vs-exact agreement).
fn medium_graph() -> impl Strategy<Value = MatchGraph> {
    (1u32..=60, 1u32..=60).prop_flat_map(|(nb, na)| {
        proptest::collection::vec((0..nb, 0..na), 0..400)
            .prop_map(move |edges| MatchGraph::from_edges(nb, na, edges))
    })
}

proptest! {
    /// Every matcher must return a valid one-to-one matching over real edges.
    #[test]
    fn all_matchers_return_valid_matchings(g in small_graph()) {
        for kind in MatcherKind::ALL {
            let m = run_matcher(&g, kind);
            prop_assert!(m.validate(&g).is_ok(), "{kind} produced an invalid matching");
        }
    }

    /// The exact matchers agree with the brute-force oracle.
    #[test]
    fn exact_matchers_hit_the_true_maximum(g in small_graph()) {
        let best = brute_force_maximum(&g).len();
        prop_assert_eq!(hopcroft_karp(&g).len(), best);
    }

    /// CSF never exceeds the maximum, and as a maximal matching it
    /// reaches at least half of it.
    #[test]
    fn heuristic_bounds(g in small_graph()) {
        let best = brute_force_maximum(&g).len();
        let csf_len = csf(&g).len();
        prop_assert!(csf_len <= best);
        prop_assert!(2 * csf_len >= best, "csf={csf_len} best={best}");
    }

    /// Hopcroft–Karp agrees, on graphs beyond the brute-force oracle's
    /// reach, with a `DynamicMatching` grown one left vertex at a time
    /// (augmenting-path repair, no Hopcroft–Karp inside).
    #[test]
    fn exact_matchers_agree_on_medium_graphs(g in medium_graph()) {
        let mut dm = DynamicMatching::new(g.num_left() as usize, g.num_right() as usize);
        for b in 0..g.num_left() {
            dm.set_left_edges(b, g.neighbors_of_left(b).to_vec());
        }
        prop_assert_eq!(hopcroft_karp(&g).len(), dm.matching_size());
    }

    /// CSF is maximal: after it finishes no edge has two free endpoints.
    #[test]
    fn csf_is_maximal(g in medium_graph()) {
        let m = csf(&g);
        let mut lu = vec![false; g.num_left() as usize];
        let mut ru = vec![false; g.num_right() as usize];
        for &(b, a) in m.pairs() {
            lu[b as usize] = true;
            ru[a as usize] = true;
        }
        for &(b, a) in g.edges() {
            prop_assert!(lu[b as usize] || ru[a as usize],
                "edge ({}, {}) could extend CSF's matching", b, a);
        }
    }

    /// On distinct input the no-dedup constructor builds the same CSR and
    /// edge list as `from_edges`, so every matcher returns the same
    /// matching from either graph.
    #[test]
    fn distinct_constructor_matches_from_edges(g in medium_graph()) {
        let distinct = g.edges().to_vec();
        let (nb, na) = (g.num_left(), g.num_right());
        let reference = MatchGraph::from_edges(nb, na, distinct.clone());
        let lean = MatchGraph::from_distinct_edges(nb, na, distinct);
        prop_assert_eq!(lean.edges(), reference.edges());
        for b in 0..nb {
            prop_assert_eq!(lean.neighbors_of_left(b), reference.neighbors_of_left(b));
        }
        for a in 0..na {
            prop_assert_eq!(lean.neighbors_of_right(a), reference.neighbors_of_right(a));
        }
        for kind in MatcherKind::ALL {
            prop_assert_eq!(
                run_matcher(&lean, kind).pairs(),
                run_matcher(&reference, kind).pairs(),
                "{} diverged", kind
            );
        }
    }
}

/// One edge-replacement step: (left side?, vertex, new neighbours).
type UpdateStep = (bool, u32, Vec<u32>);

/// Strategy: a sequence of per-vertex edge replacements.
fn update_sequence() -> impl Strategy<Value = (u32, u32, Vec<UpdateStep>)> {
    (2u32..=12, 2u32..=12).prop_flat_map(|(nb, na)| {
        let updates = proptest::collection::vec(
            (
                proptest::bool::ANY,
                0u32..nb.max(na),
                proptest::collection::vec(0u32..na.max(nb), 0..6),
            ),
            1..25,
        );
        (Just(nb), Just(na), updates)
    })
}

proptest! {
    /// DynamicMatching stays maximum under arbitrary update sequences.
    #[test]
    fn dynamic_matching_stays_maximum((nb, na, updates) in update_sequence()) {
        let mut dm = csj_matching::DynamicMatching::new(nb as usize, na as usize);
        for (left, vertex, neighbors) in updates {
            if left {
                let b = vertex % nb;
                let n: Vec<u32> = neighbors.iter().map(|&x| x % na).collect();
                dm.set_left_edges(b, n);
            } else {
                let a = vertex % na;
                let n: Vec<u32> = neighbors.iter().map(|&x| x % nb).collect();
                dm.set_right_edges(a, n);
            }
            dm.assert_maximum();
        }
    }
}
