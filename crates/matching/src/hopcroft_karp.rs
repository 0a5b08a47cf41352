//! Hopcroft–Karp maximum bipartite matching, `O(E * sqrt(V))`.
//!
//! This is the fast exact matcher used to *audit* the paper's CSF
//! heuristic: running both on the same candidate graph measures exactly how
//! many pairs (if any) CSF leaves on the table. It is also the matcher an
//! exactness-critical deployment of CSJ should use (`MatcherKind::HopcroftKarp`).

use std::collections::VecDeque;

use crate::{MatchGraph, Matching};

const UNMATCHED: u32 = u32::MAX;
const INF: u32 = u32::MAX;

struct Hk<'g> {
    graph: &'g MatchGraph,
    match_b: Vec<u32>, // b -> a
    match_a: Vec<u32>, // a -> b
    dist: Vec<u32>,    // BFS layer per b
    queue: VecDeque<u32>,
}

impl<'g> Hk<'g> {
    fn new(graph: &'g MatchGraph) -> Self {
        Self {
            graph,
            match_b: vec![UNMATCHED; graph.num_left() as usize],
            match_a: vec![UNMATCHED; graph.num_right() as usize],
            dist: vec![INF; graph.num_left() as usize],
            queue: VecDeque::new(),
        }
    }

    /// BFS phase: layer free `B` nodes at distance 0, alternate
    /// unmatched/matched edges, return whether a free `A` node is reachable.
    fn bfs(&mut self) -> bool {
        self.queue.clear();
        for b in 0..self.graph.num_left() {
            if self.match_b[b as usize] == UNMATCHED && self.graph.left_degree(b) > 0 {
                self.dist[b as usize] = 0;
                self.queue.push_back(b);
            } else {
                self.dist[b as usize] = INF;
            }
        }
        let mut found = false;
        while let Some(b) = self.queue.pop_front() {
            let d = self.dist[b as usize];
            for &a in self.graph.neighbors_of_left(b) {
                let owner = self.match_a[a as usize];
                if owner == UNMATCHED {
                    found = true;
                } else if self.dist[owner as usize] == INF {
                    self.dist[owner as usize] = d + 1;
                    self.queue.push_back(owner);
                }
            }
        }
        found
    }

    /// Iterative layered DFS from `start`, flipping an augmenting path if
    /// one is found within the BFS layering.
    fn dfs(&mut self, start: u32, cursors: &mut [usize]) -> bool {
        let mut stack: Vec<u32> = vec![start];
        let mut path_a: Vec<u32> = Vec::new();
        while let Some(&b) = stack.last() {
            let neighbors = self.graph.neighbors_of_left(b);
            let cur = &mut cursors[b as usize];
            let mut advanced = false;
            while *cur < neighbors.len() {
                let a = neighbors[*cur];
                *cur += 1;
                let owner = self.match_a[a as usize];
                if owner == UNMATCHED {
                    // Augment along stack/path_a.
                    path_a.push(a);
                    debug_assert_eq!(stack.len(), path_a.len());
                    for (&pb, &pa) in stack.iter().zip(path_a.iter()) {
                        self.match_b[pb as usize] = pa;
                        self.match_a[pa as usize] = pb;
                    }
                    return true;
                }
                if self.dist[owner as usize] == self.dist[b as usize] + 1 {
                    path_a.push(a);
                    stack.push(owner);
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                // Dead end: remove from the layering so other DFS trees
                // do not retry it this phase.
                self.dist[b as usize] = INF;
                stack.pop();
                path_a.pop();
            }
        }
        false
    }
}

/// Compute a maximum matching with Hopcroft–Karp.
///
/// ```
/// use csj_matching::{hopcroft_karp, MatchGraph};
///
/// let g = MatchGraph::from_edges(2, 2, vec![(0, 0), (0, 1), (1, 0)]);
/// assert_eq!(hopcroft_karp(&g).len(), 2); // greedy could stop at 1
/// ```
pub fn hopcroft_karp(graph: &MatchGraph) -> Matching {
    let mut hk = Hk::new(graph);
    let nb = graph.num_left() as usize;
    let mut cursors = vec![0usize; nb];
    while hk.bfs() {
        cursors.iter_mut().for_each(|c| *c = 0);
        for b in 0..nb as u32 {
            if hk.match_b[b as usize] == UNMATCHED
                && hk.dist[b as usize] == 0
                && graph.left_degree(b) > 0
            {
                hk.dfs(b, &mut cursors);
            }
        }
    }
    let mut out = Matching::new();
    for (b, &a) in hk.match_b.iter().enumerate() {
        if a != UNMATCHED {
            out.push(b as u32, a);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{brute_force_maximum, DynamicMatching};

    fn graph(nb: u32, na: u32, edges: &[(u32, u32)]) -> MatchGraph {
        MatchGraph::from_edges(nb, na, edges.to_vec())
    }

    #[test]
    fn empty() {
        assert!(hopcroft_karp(&graph(2, 2, &[])).is_empty());
    }

    #[test]
    fn perfect_matching_on_cycle() {
        let g = graph(3, 3, &[(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)]);
        let m = hopcroft_karp(&g);
        m.validate(&g).unwrap();
        assert_eq!(m.len(), 3);
    }

    type Case = (u32, u32, Vec<(u32, u32)>);

    fn assert_matches_brute_force(cases: Vec<Case>) {
        for (nb, na, edges) in cases {
            let g = graph(nb, na, &edges);
            let hk = hopcroft_karp(&g);
            hk.validate(&g).unwrap();
            assert_eq!(hk.len(), brute_force_maximum(&g).len(), "edges={edges:?}");
        }
    }

    #[test]
    fn empty_graph() {
        assert!(hopcroft_karp(&graph(0, 0, &[])).is_empty());
    }

    #[test]
    fn finds_augmenting_path() {
        // Greedy takes (0, 0) and strands b_1; only the augmenting path
        // b_1 -> a_0 -> b_0 -> a_1 reaches size 2.
        let g = graph(2, 2, &[(0, 0), (0, 1), (1, 0)]);
        let m = hopcroft_karp(&g);
        m.validate(&g).unwrap();
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn agrees_with_brute_force() {
        assert_matches_brute_force(vec![
            (3, 3, vec![(0, 0), (1, 0), (2, 0)]),
            (4, 2, vec![(0, 0), (1, 0), (2, 1), (3, 1)]),
            (2, 2, vec![(0, 0), (0, 1), (1, 0)]),
            (
                6,
                6,
                vec![
                    (0, 0),
                    (0, 1),
                    (1, 0),
                    (1, 2),
                    (2, 1),
                    (2, 3),
                    (3, 2),
                    (3, 4),
                    (4, 3),
                    (4, 5),
                    (5, 4),
                ],
            ),
        ]);
    }

    #[test]
    fn matches_brute_force_on_small_graphs() {
        assert_matches_brute_force(vec![
            (3, 3, vec![(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)]),
            (
                5,
                5,
                vec![
                    (0, 1),
                    (0, 2),
                    (1, 0),
                    (1, 3),
                    (2, 1),
                    (3, 4),
                    (3, 0),
                    (4, 2),
                    (4, 4),
                ],
            ),
        ]);
    }

    #[test]
    fn long_augmenting_chain() {
        // Chain graph forcing repeated re-matching: b_i -> {a_i, a_{i+1}}.
        let n = 50u32;
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push((i, i));
            edges.push((i, i + 1));
        }
        let g = graph(n, n + 1, &edges);
        let m = hopcroft_karp(&g);
        m.validate(&g).unwrap();
        assert_eq!(m.len(), n as usize);
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        // One very long augmenting path: every b_i lists a_0 first, then
        // its own a_i.
        let n = 5_000u32;
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push((i, 0));
            edges.push((i, i));
        }
        let g = graph(n, n, &edges);
        let m = hopcroft_karp(&g);
        m.validate(&g).unwrap();
        assert_eq!(m.len(), n as usize);
    }

    #[test]
    fn large_random_agrees_with_dynamic_matching() {
        // Deterministic pseudo-random graph via an LCG (no rand dependency
        // needed in non-dev builds; this is a dev test but the LCG keeps it
        // reproducible across rand versions).
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let nb = 300u32;
        let na = 350u32;
        let mut edges = Vec::new();
        for _ in 0..2000 {
            edges.push((next() % nb, next() % na));
        }
        let g = graph(nb, na, &edges);
        let hk = hopcroft_karp(&g);
        hk.validate(&g).unwrap();
        // `DynamicMatching::from_graph` starts from Hopcroft–Karp's own
        // answer, so the oracle inserts the left vertices one at a time:
        // each insertion repairs the matching by augmenting paths.
        let mut dm = DynamicMatching::new(nb as usize, na as usize);
        for b in 0..nb {
            dm.set_left_edges(b, g.neighbors_of_left(b).to_vec());
        }
        assert_eq!(hk.len(), dm.matching_size());
    }
}
