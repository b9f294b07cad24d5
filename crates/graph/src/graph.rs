//! Undirected weighted graphs.

use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::csr::CsrView;
use crate::edge::{Edge, Vertex};
use crate::error::GraphError;

/// An undirected graph with positive integer edge weights.
///
/// The graph stores its edges in insertion order (important for streaming
/// experiments, where the edge list *is* the stream). Adjacency queries go
/// through a flat [`CsrView`] built lazily on first use and cached until
/// the next mutation; see [`Graph::csr`]. Parallel edges are permitted by
/// the representation (some constructions repeat edges); use
/// [`Graph::is_simple`] to check for them.
///
/// # Example
///
/// ```
/// use wmatch_graph::Graph;
///
/// let mut g = Graph::new(3);
/// let e0 = g.add_edge(0, 1, 4);
/// let e1 = g.add_edge(1, 2, 2);
/// assert_eq!(g.vertex_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.edge(e0).weight, 4);
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.neighbors(1).count(), 2);
/// let _ = e1;
/// ```
#[derive(Debug, Default)]
pub struct Graph {
    n: usize,
    edges: Vec<Edge>,
    /// Flat adjacency, derived from `edges`: built on first query,
    /// dropped on mutation.
    csr: OnceLock<CsrView>,
    /// The most recently invalidated CSR view, kept so the next build can
    /// reuse its arrays instead of allocating (mutation-heavy reuse
    /// cycles, e.g. the dynamic engine's whole-graph restores, stay
    /// allocation-free at steady state). Behind a `Mutex` only because
    /// [`Graph::csr`] recycles it from `&self`; the lock is uncontended.
    csr_spare: Mutex<Option<CsrView>>,
    /// How many times the CSR view has been (re)built — real work the
    /// facade reports in its telemetry.
    csr_rebuilds: AtomicU64,
}

impl Clone for Graph {
    fn clone(&self) -> Self {
        let csr = OnceLock::new();
        if let Some(view) = self.csr.get() {
            let _ = csr.set(view.clone());
        }
        Graph {
            n: self.n,
            edges: self.edges.clone(),
            csr,
            csr_spare: Mutex::new(None),
            csr_rebuilds: AtomicU64::new(self.csr_rebuilds.load(Ordering::Relaxed)),
        }
    }
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        // the CSR cache and its rebuild counter are derived state
        self.n == other.n && self.edges == other.edges
    }
}

impl Eq for Graph {}

impl Graph {
    /// Creates an empty graph on `n` vertices (`0..n`).
    pub fn new(n: usize) -> Self {
        Graph {
            n,
            edges: Vec::new(),
            csr: OnceLock::new(),
            csr_spare: Mutex::new(None),
            csr_rebuilds: AtomicU64::new(0),
        }
    }

    /// Creates a graph on `n` vertices from an edge list.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n` or any edge is a self-loop.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = Edge>) -> Self {
        let mut g = Graph::new(n);
        for e in edges {
            g.add_edge(e.u, e.v, e.weight);
        }
        g
    }

    /// Adds an undirected edge and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or `u == v`.
    pub fn add_edge(&mut self, u: Vertex, v: Vertex, weight: u64) -> usize {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u},{v}) out of range for {} vertices",
            self.n
        );
        let e = Edge::new(u, v, weight);
        let idx = self.edges.len();
        self.edges.push(e);
        self.invalidate_csr();
        idx
    }

    /// Removes all edges, keeping the vertex count (and the edge list's
    /// allocation, so graphs can be reused as per-pass scratch buffers by
    /// the streaming and MPC local-graph builds).
    pub fn clear_edges(&mut self) {
        self.edges.clear();
        self.invalidate_csr();
    }

    /// Repurposes this graph as an empty graph on `n` vertices, keeping
    /// every backing allocation (edge list and recycled CSR arrays).
    ///
    /// This is the reuse primitive behind the dynamic engine's restore
    /// copies and rebuild snapshots: one persistent `Graph` is
    /// reset and refilled per call, so the hot path never allocates once
    /// the buffers have grown to their steady-state size.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.edges.clear();
        self.invalidate_csr();
    }

    /// Drops the cached CSR view into the spare slot for the next build
    /// to recycle.
    fn invalidate_csr(&mut self) {
        if let Some(view) = self.csr.take() {
            *self.csr_spare.get_mut().expect("csr spare lock poisoned") = Some(view);
        }
    }

    /// The flat CSR adjacency view of this graph, built on first use and
    /// cached until the next mutation.
    ///
    /// This is the hot-path entry point: inner loops should hoist
    /// `g.csr()` once and scan its contiguous slices rather than calling
    /// [`Graph::incident`]/[`Graph::neighbors`] per step.
    #[inline]
    pub fn csr(&self) -> &CsrView {
        self.csr.get_or_init(|| {
            self.csr_rebuilds.fetch_add(1, Ordering::Relaxed);
            let spare = self
                .csr_spare
                .lock()
                .expect("csr spare lock poisoned")
                .take();
            match spare {
                Some(mut view) => {
                    view.rebuild(self.n, &self.edges);
                    view
                }
                None => CsrView::build(self.n, &self.edges),
            }
        })
    }

    /// How many times this graph's CSR view has been (re)built — a real
    /// counter for the work mutation-triggered invalidation causes.
    pub fn csr_rebuild_count(&self) -> u64 {
        self.csr_rebuilds.load(Ordering::Relaxed)
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The edge with index `idx` (in insertion order).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.edge_count()`.
    #[inline]
    pub fn edge(&self, idx: usize) -> Edge {
        self.edges[idx]
    }

    /// All edges in insertion order.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterator over `(edge_index, neighbor)` pairs incident to `v`.
    pub fn incident(&self, v: Vertex) -> impl Iterator<Item = (usize, Edge)> + '_ {
        self.csr()
            .edge_ids(v)
            .iter()
            .map(move |&i| (i as usize, self.edges[i as usize]))
    }

    /// Iterator over the neighbours of `v` (with multiplicity for parallel
    /// edges).
    pub fn neighbors(&self, v: Vertex) -> impl Iterator<Item = Vertex> + '_ {
        self.csr().neighbors(v).iter().copied()
    }

    /// Degree of `v` (counting parallel edges).
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        self.csr().degree(v)
    }

    /// Total weight of all edges.
    pub fn total_weight(&self) -> i128 {
        self.edges.iter().map(|e| e.weight as i128).sum()
    }

    /// Maximum edge weight (0 for an edgeless graph).
    pub fn max_weight(&self) -> u64 {
        self.edges.iter().map(|e| e.weight).max().unwrap_or(0)
    }

    /// Whether the graph has no parallel edges.
    pub fn is_simple(&self) -> bool {
        let mut seen = HashSet::with_capacity(self.edges.len());
        self.edges.iter().all(|e| seen.insert(e.key()))
    }

    /// Whether the vertex bipartition `side` (`side[v]` is the side of `v`)
    /// makes the graph bipartite, i.e. every edge crosses sides.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if `side.len() != n`.
    pub fn respects_bipartition(&self, side: &[bool]) -> Result<bool, GraphError> {
        if side.len() != self.n {
            return Err(GraphError::VertexOutOfRange {
                vertex: side.len() as Vertex,
                n: self.n,
            });
        }
        Ok(self
            .edges
            .iter()
            .all(|e| side[e.u as usize] != side[e.v as usize]))
    }

    /// Attempts to 2-colour the graph; returns the colouring if bipartite.
    pub fn bipartition(&self) -> Option<Vec<bool>> {
        let csr = self.csr();
        let mut color = vec![None; self.n];
        let mut queue = std::collections::VecDeque::new();
        for s in 0..self.n {
            if color[s].is_some() {
                continue;
            }
            color[s] = Some(false);
            queue.push_back(s as Vertex);
            while let Some(v) = queue.pop_front() {
                let cv = color[v as usize].unwrap();
                for &w in csr.neighbors(v) {
                    match color[w as usize] {
                        None => {
                            color[w as usize] = Some(!cv);
                            queue.push_back(w);
                        }
                        Some(cw) if cw == cv => return None,
                        _ => {}
                    }
                }
            }
        }
        Some(color.into_iter().map(|c| c.unwrap()).collect())
    }

    /// A copy of this graph with all edge weights replaced by 1.
    pub fn unweighted_copy(&self) -> Graph {
        let mut g = Graph::new(self.n);
        for e in &self.edges {
            g.add_edge(e.u, e.v, 1);
        }
        g
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={})", self.n, self.edges.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 2);
        g.add_edge(2, 0, 3);
        g
    }

    #[test]
    fn counts_and_access() {
        let g = triangle();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.edge(1), Edge::new(1, 2, 2));
        assert_eq!(g.total_weight(), 6);
        assert_eq!(g.max_weight(), 3);
    }

    #[test]
    fn adjacency_is_consistent() {
        let g = triangle();
        for v in 0..3u32 {
            assert_eq!(g.degree(v), 2);
            for (i, e) in g.incident(v) {
                assert!(e.touches(v));
                assert_eq!(g.edge(i), e);
            }
        }
        let mut ns: Vec<_> = g.neighbors(0).collect();
        ns.sort_unstable();
        assert_eq!(ns, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_range_checked() {
        let mut g = Graph::new(2);
        g.add_edge(0, 5, 1);
    }

    #[test]
    fn simplicity_detects_parallel_edges() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1);
        assert!(g.is_simple());
        g.add_edge(1, 0, 2);
        assert!(!g.is_simple());
    }

    #[test]
    fn bipartition_of_even_cycle() {
        let mut g = Graph::new(4);
        for i in 0..4 {
            g.add_edge(i, (i + 1) % 4, 1);
        }
        let side = g.bipartition().expect("C4 is bipartite");
        assert!(g.respects_bipartition(&side).unwrap());
    }

    #[test]
    fn bipartition_rejects_odd_cycle() {
        assert!(triangle().bipartition().is_none());
    }

    #[test]
    fn respects_bipartition_checks_length() {
        let g = triangle();
        assert!(g.respects_bipartition(&[true, false]).is_err());
    }

    #[test]
    fn unweighted_copy_preserves_structure() {
        let g = triangle();
        let u = g.unweighted_copy();
        assert_eq!(u.edge_count(), 3);
        assert!(u.edges().iter().all(|e| e.weight == 1));
        assert_eq!(u.edge(0).key(), g.edge(0).key());
    }

    #[test]
    fn csr_cache_invalidated_on_mutation() {
        let mut g = triangle();
        assert_eq!(g.csr_rebuild_count(), 0);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.csr_rebuild_count(), 1, "queries share one build");
        g.add_edge(0, 1, 9);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.csr_rebuild_count(), 2, "mutation forces a rebuild");
        g.clear_edges();
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.vertex_count(), 3);
    }

    #[test]
    fn reset_reuses_buffers_and_recycled_csr_agrees() {
        let mut g = triangle();
        let fresh = {
            let mut f = Graph::new(3);
            f.add_edge(0, 1, 1);
            f.add_edge(1, 2, 2);
            f.add_edge(2, 0, 3);
            f
        };
        assert_eq!(g.csr(), fresh.csr(), "first build");
        // invalidate, then rebuild through the recycled spare view
        g.add_edge(0, 1, 9);
        let mut f2 = Graph::new(3);
        for e in g.edges().to_vec() {
            f2.add_edge(e.u, e.v, e.weight);
        }
        assert_eq!(g.csr(), f2.csr(), "recycled rebuild matches fresh build");
        // reset repurposes the graph for a different vertex count
        g.reset(2);
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 0);
        g.add_edge(0, 1, 7);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn from_edges_roundtrip() {
        let g = triangle();
        let h = Graph::from_edges(3, g.edges().iter().copied());
        assert_eq!(g, h);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_weight(), 0);
        assert!(g.is_simple());
        assert_eq!(g.bipartition(), Some(vec![]));
    }
}
