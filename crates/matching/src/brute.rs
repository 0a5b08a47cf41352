//! Exponential-time exact maximum matching for tiny graphs.
//!
//! This is the testing oracle: property tests compare CSF and
//! Hopcroft–Karp against it on small random instances. It recurses over
//! left nodes, trying "skip" and every available partner, with a simple
//! remaining-nodes upper-bound prune.

use crate::{MatchGraph, Matching};

/// Practical size guard: beyond this many left nodes the search space is
/// too large for a test oracle.
const MAX_LEFT: u32 = 20;

/// Compute a true maximum matching by exhaustive search.
///
/// # Panics
/// Panics if the graph has more than 20 left nodes — this function is a
/// test oracle, not a production matcher.
pub fn brute_force_maximum(graph: &MatchGraph) -> Matching {
    assert!(
        graph.num_left() <= MAX_LEFT,
        "brute_force_maximum is a test oracle; {} left nodes is too many",
        graph.num_left()
    );
    let mut right_used = vec![false; graph.num_right() as usize];
    let mut current: Vec<(u32, u32)> = Vec::new();
    let mut best: Vec<(u32, u32)> = Vec::new();
    recurse(graph, 0, &mut right_used, &mut current, &mut best);
    Matching::from_pairs(best)
}

fn recurse(
    graph: &MatchGraph,
    b: u32,
    right_used: &mut [bool],
    current: &mut Vec<(u32, u32)>,
    best: &mut Vec<(u32, u32)>,
) {
    let nb = graph.num_left();
    if b == nb {
        if current.len() > best.len() {
            best.clear();
            best.extend_from_slice(current);
        }
        return;
    }
    // Upper bound: even matching every remaining left node cannot beat best.
    if current.len() + (nb - b) as usize <= best.len() {
        return;
    }
    // Try matching b to each free neighbour.
    for &a in graph.neighbors_of_left(b) {
        if !right_used[a as usize] {
            right_used[a as usize] = true;
            current.push((b, a));
            recurse(graph, b + 1, right_used, current, best);
            current.pop();
            right_used[a as usize] = false;
        }
    }
    // Or leave b unmatched.
    recurse(graph, b + 1, right_used, current, best);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_the_maximum_not_just_maximal() {
        // Greedy-in-order gets 1 pair here; the maximum is 2.
        let g = MatchGraph::from_edges(2, 2, vec![(0, 0), (0, 1), (1, 0)]);
        let m = brute_force_maximum(&g);
        m.validate(&g).unwrap();
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn empty() {
        let g = MatchGraph::from_edges(0, 5, vec![]);
        assert!(brute_force_maximum(&g).is_empty());
    }

    #[test]
    fn star_graph_yields_one_pair() {
        let g = MatchGraph::from_edges(4, 1, vec![(0, 0), (1, 0), (2, 0), (3, 0)]);
        assert_eq!(brute_force_maximum(&g).len(), 1);
    }

    #[test]
    #[should_panic(expected = "test oracle")]
    fn rejects_oversized_input() {
        let g = MatchGraph::from_edges(21, 1, vec![]);
        brute_force_maximum(&g);
    }
}
