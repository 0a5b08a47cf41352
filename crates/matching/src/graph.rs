//! Compact bipartite candidate graph.
//!
//! Left nodes index users of community `B`, right nodes users of community
//! `A`. Edges are the joinable pairs discovered by a CSJ method. The graph
//! is stored in CSR form (offsets + flat adjacency) for cache-friendly
//! traversal; a [`GraphBuilder`] accumulates edges in discovery order.

/// Incrementally accumulates `(b, a)` candidate edges.
///
/// Edge order is preserved: for CSJ it mirrors the order in which the
/// join discovered the pairs.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    num_left: u32,
    num_right: u32,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// New builder for `num_left` `B`-users and `num_right` `A`-users.
    pub fn new(num_left: u32, num_right: u32) -> Self {
        Self {
            num_left,
            num_right,
            edges: Vec::new(),
        }
    }

    /// New builder with a capacity hint for the expected edge count.
    pub fn with_capacity(num_left: u32, num_right: u32, edges: usize) -> Self {
        Self {
            num_left,
            num_right,
            edges: Vec::with_capacity(edges),
        }
    }

    /// Record edge `(b, a)`.
    ///
    /// # Panics
    /// Panics if either endpoint is out of bounds — edges always come from
    /// in-bounds join loops, so an out-of-range endpoint is an internal bug.
    #[inline]
    pub fn add_edge(&mut self, b: u32, a: u32) {
        assert!(b < self.num_left, "left endpoint {b} out of bounds");
        assert!(a < self.num_right, "right endpoint {a} out of bounds");
        self.edges.push((b, a));
    }

    /// Number of edges recorded so far (duplicates included).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edges have been recorded.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Finish building. Duplicate edges are dropped (keeping the first
    /// occurrence) so that node degrees are meaningful.
    pub fn build(self) -> MatchGraph {
        MatchGraph::from_edges(self.num_left, self.num_right, self.edges)
    }
}

/// A bipartite candidate graph in CSR form, plus the reverse adjacency.
///
/// Construction cost is `O(V + E)`; adjacency lists preserve the insertion
/// order of the first occurrence of each edge.
#[derive(Debug, Clone)]
pub struct MatchGraph {
    num_left: u32,
    num_right: u32,
    /// CSR offsets for the left side, length `num_left + 1`.
    left_offsets: Vec<u32>,
    /// Flat neighbour array for the left side, length = edge count.
    left_adj: Vec<u32>,
    /// CSR offsets for the right side, length `num_right + 1`.
    right_offsets: Vec<u32>,
    /// Flat neighbour array for the right side.
    right_adj: Vec<u32>,
    /// Deduplicated edges in first-occurrence order.
    edges: Vec<(u32, u32)>,
}

impl MatchGraph {
    /// Build a graph from raw edges. Duplicates are removed, keeping first
    /// occurrences, so degrees reflect distinct candidate partners.
    pub fn from_edges(num_left: u32, num_right: u32, mut edges: Vec<(u32, u32)>) -> Self {
        dedup_preserving_order(&mut edges);
        Self::csr(num_left, num_right, edges)
    }

    /// Build a graph from edges the caller knows to be pairwise distinct,
    /// taking ownership of the `Vec` (recover it with
    /// [`MatchGraph::into_edges`]). Skips [`MatchGraph::from_edges`]'s
    /// dedup pass, its `O(E log E)` sort and its per-edge scratch; on
    /// distinct input both constructors build the same graph.
    ///
    /// # Panics
    /// Panics if an endpoint is out of bounds. A duplicate edge is a
    /// caller bug, caught by a debug assertion.
    pub fn from_distinct_edges(num_left: u32, num_right: u32, edges: Vec<(u32, u32)>) -> Self {
        debug_assert!(
            all_distinct(&edges),
            "from_distinct_edges got a duplicate edge"
        );
        Self::csr(num_left, num_right, edges)
    }

    /// Lay distinct `edges` out in CSR form, both sides.
    fn csr(num_left: u32, num_right: u32, edges: Vec<(u32, u32)>) -> Self {
        for &(b, a) in &edges {
            assert!(b < num_left, "left endpoint {b} out of bounds");
            assert!(a < num_right, "right endpoint {a} out of bounds");
        }

        let mut left_offsets = vec![0u32; num_left as usize + 1];
        let mut right_offsets = vec![0u32; num_right as usize + 1];
        for &(b, a) in &edges {
            left_offsets[b as usize + 1] += 1;
            right_offsets[a as usize + 1] += 1;
        }
        for i in 1..left_offsets.len() {
            left_offsets[i] += left_offsets[i - 1];
        }
        for i in 1..right_offsets.len() {
            right_offsets[i] += right_offsets[i - 1];
        }

        let mut left_adj = vec![0u32; edges.len()];
        let mut right_adj = vec![0u32; edges.len()];
        let mut lcur = left_offsets.clone();
        let mut rcur = right_offsets.clone();
        for &(b, a) in &edges {
            left_adj[lcur[b as usize] as usize] = a;
            lcur[b as usize] += 1;
            right_adj[rcur[a as usize] as usize] = b;
            rcur[a as usize] += 1;
        }

        Self {
            num_left,
            num_right,
            left_offsets,
            left_adj,
            right_offsets,
            right_adj,
            edges,
        }
    }

    /// Number of left (`B`) nodes.
    pub fn num_left(&self) -> u32 {
        self.num_left
    }

    /// Number of right (`A`) nodes.
    pub fn num_right(&self) -> u32 {
        self.num_right
    }

    /// Number of distinct edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Distinct edges in first-occurrence order.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Give back the edge buffer, so a caller building one graph after
    /// another can reuse its allocation.
    pub fn into_edges(self) -> Vec<(u32, u32)> {
        self.edges
    }

    /// Neighbours (right nodes) of left node `b`.
    #[inline]
    pub fn neighbors_of_left(&self, b: u32) -> &[u32] {
        let lo = self.left_offsets[b as usize] as usize;
        let hi = self.left_offsets[b as usize + 1] as usize;
        &self.left_adj[lo..hi]
    }

    /// Neighbours (left nodes) of right node `a`.
    #[inline]
    pub fn neighbors_of_right(&self, a: u32) -> &[u32] {
        let lo = self.right_offsets[a as usize] as usize;
        let hi = self.right_offsets[a as usize + 1] as usize;
        &self.right_adj[lo..hi]
    }

    /// Degree of left node `b`.
    #[inline]
    pub fn left_degree(&self, b: u32) -> u32 {
        self.left_offsets[b as usize + 1] - self.left_offsets[b as usize]
    }

    /// Degree of right node `a`.
    #[inline]
    pub fn right_degree(&self, a: u32) -> u32 {
        self.right_offsets[a as usize + 1] - self.right_offsets[a as usize]
    }

    /// Whether edge `(b, a)` is present. `O(deg(b))`.
    pub fn has_edge(&self, b: u32, a: u32) -> bool {
        self.neighbors_of_left(b).contains(&a)
    }
}

/// Whether no edge occurs twice (the [`MatchGraph::from_distinct_edges`]
/// precondition).
fn all_distinct(edges: &[(u32, u32)]) -> bool {
    let mut sorted = edges.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).all(|w| w[0] != w[1])
}

/// Remove duplicate pairs while keeping the first occurrence of each.
fn dedup_preserving_order(edges: &mut Vec<(u32, u32)>) {
    if edges.len() < 2 {
        return;
    }
    // Sort a copy of (edge, original_index), detect duplicates, and rebuild.
    // This avoids a hash set (no hashing dependency, deterministic order).
    let mut tagged: Vec<(u32, u32, u32)> = edges
        .iter()
        .enumerate()
        .map(|(i, &(b, a))| (b, a, i as u32))
        .collect();
    tagged.sort_unstable();
    let mut keep = vec![true; edges.len()];
    let mut any_dup = false;
    for w in tagged.windows(2) {
        if w[0].0 == w[1].0 && w[0].1 == w[1].1 {
            // Same edge: drop the later occurrence.
            let later = w[0].2.max(w[1].2);
            keep[later as usize] = false;
            any_dup = true;
        }
    }
    if any_dup {
        let mut i = 0;
        edges.retain(|_| {
            let k = keep[i];
            i += 1;
            k
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_csr_both_sides() {
        let mut b = GraphBuilder::new(3, 4);
        b.add_edge(0, 1);
        b.add_edge(0, 3);
        b.add_edge(2, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors_of_left(0), &[1, 3]);
        assert_eq!(g.neighbors_of_left(1), &[] as &[u32]);
        assert_eq!(g.neighbors_of_left(2), &[1]);
        assert_eq!(g.neighbors_of_right(1), &[0, 2]);
        assert_eq!(g.neighbors_of_right(0), &[] as &[u32]);
        assert_eq!(g.left_degree(0), 2);
        assert_eq!(g.right_degree(1), 2);
    }

    #[test]
    fn dedup_keeps_first_occurrence_order() {
        let g = MatchGraph::from_edges(2, 2, vec![(1, 0), (0, 1), (1, 0), (0, 1), (0, 0)]);
        assert_eq!(g.edges(), &[(1, 0), (0, 1), (0, 0)]);
    }

    #[test]
    fn distinct_edges_build_the_same_graph() {
        let edges = vec![(1, 0), (0, 1), (2, 1), (0, 0), (1, 2)];
        let deduped = MatchGraph::from_edges(3, 3, edges.clone());
        let distinct = MatchGraph::from_distinct_edges(3, 3, edges.clone());
        assert_eq!(distinct.edges(), deduped.edges());
        for v in 0..3 {
            assert_eq!(distinct.neighbors_of_left(v), deduped.neighbors_of_left(v));
            assert_eq!(
                distinct.neighbors_of_right(v),
                deduped.neighbors_of_right(v)
            );
        }
        assert_eq!(
            distinct.into_edges(),
            edges,
            "the buffer comes back as given"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate edge")]
    fn distinct_constructor_rejects_duplicates_in_debug() {
        MatchGraph::from_distinct_edges(2, 2, vec![(0, 1), (1, 0), (0, 1)]);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0, 0).build();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_left(), 0);
    }

    #[test]
    fn has_edge_lookup() {
        let g = MatchGraph::from_edges(2, 2, vec![(0, 1)]);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 0));
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_out_of_bounds_edge() {
        let mut b = GraphBuilder::new(1, 1);
        b.add_edge(1, 0);
    }

    #[test]
    fn isolated_nodes_have_empty_neighbourhoods() {
        let g = MatchGraph::from_edges(5, 5, vec![(2, 2)]);
        for i in [0u32, 1, 3, 4] {
            assert!(g.neighbors_of_left(i).is_empty());
            assert!(g.neighbors_of_right(i).is_empty());
        }
    }
}
