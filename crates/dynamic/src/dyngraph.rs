//! The mutable live-edge store behind the update-stream engine.
//!
//! [`Graph`] is append-only (its cached CSR view is
//! invalidated on every mutation), which is the right trade-off for the
//! static solvers but ruinous under an update stream. [`DynGraph`] is the
//! dynamic counterpart: a struct-of-arrays slab of live edges plus
//! per-vertex adjacency lists of edge ids, giving O(1) insertion,
//! O(degree) deletion, and O(degree) incidence scans without any derived
//! structure to rebuild. [`DynGraph::snapshot_into`] materializes the
//! live edges into a reusable [`Graph`] when a static algorithm (the
//! rebuild epoch's class sweep, an oracle solve) needs one.
//!
//! # Memory layout
//!
//! The slab stores endpoints and weights in three parallel flat arrays
//! (`u32`/`u32`/`u64` per slot — 16 bytes per live edge) rather than a
//! `Vec<Option<Edge>>` (24 bytes with the discriminant), and dead slots
//! are reclaimed two ways: a free list recycles ids one by one, and when
//! more than half the slab is dead a *compaction* re-packs the arrays
//! densely. Compaction preserves slab order and the per-vertex adjacency
//! order (the deletion LIFO key), so it is invisible to replay
//! determinism: any engine replaying the same operation history compacts
//! at the same points with the same result.

use wmatch_graph::{Edge, Graph, Vertex};

use crate::error::DynamicError;
use crate::update::UpdateOp;

/// Sentinel marking a dead slab slot (`u32::MAX` is never a valid
/// endpoint: the vertex range is checked on insertion).
const TOMBSTONE: Vertex = Vertex::MAX;

/// Dead slots required before a deletion considers compacting.
const COMPACT_MIN_DEAD: usize = 64;

/// A dynamic undirected multigraph over a fixed vertex range `0..n`.
///
/// Edges live in a struct-of-arrays slab (`u32` ids, reused after
/// deletion, compacted when mostly dead) and each vertex keeps the ids of
/// its live incident edges in insertion order. Deleting `{u, v}` removes
/// the most recently inserted live copy — a deterministic rule that keeps
/// replay reproducible under parallel edges.
///
/// # Example
///
/// ```
/// use wmatch_dynamic::DynGraph;
///
/// let mut g = DynGraph::new(3);
/// g.insert(0, 1, 5).unwrap();
/// g.insert(1, 2, 7).unwrap();
/// assert_eq!(g.live_edges(), 2);
/// assert_eq!(g.degree(1), 2);
/// let e = g.delete(1, 2).unwrap();
/// assert_eq!(e.weight, 7);
/// assert_eq!(g.live_edges(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DynGraph {
    n: usize,
    /// Slab endpoints as inserted (`eu[id] == TOMBSTONE` marks a dead
    /// slot) and weights, in parallel arrays.
    eu: Vec<Vertex>,
    ev: Vec<Vertex>,
    ew: Vec<u64>,
    free: Vec<u32>,
    adj: Vec<Vec<u32>>,
    live: usize,
    /// Old-id → new-id table of the last compaction (persistent scratch).
    remap: Vec<u32>,
}

impl DynGraph {
    /// An edgeless dynamic graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        DynGraph {
            n,
            eu: Vec::new(),
            ev: Vec::new(),
            ew: Vec::new(),
            free: Vec::new(),
            adj: vec![Vec::new(); n],
            live: 0,
            remap: Vec::new(),
        }
    }

    /// A dynamic graph seeded with every edge of `g` (in insertion order).
    ///
    /// # Errors
    ///
    /// [`DynamicError::ZeroWeight`] if `g` contains a zero-weight edge
    /// (the static [`Graph`] does not enforce positivity; the dynamic
    /// model does).
    pub fn from_graph(g: &Graph) -> Result<Self, DynamicError> {
        let mut out = DynGraph::new(g.vertex_count());
        for e in g.edges() {
            out.insert(e.u, e.v, e.weight)?;
        }
        Ok(out)
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Number of live edges.
    #[inline]
    pub fn live_edges(&self) -> usize {
        self.live
    }

    /// Number of slab slots (live + dead) — the actual array footprint,
    /// bounded by compaction to at most ~2× the live count.
    #[inline]
    pub fn slab_slots(&self) -> usize {
        self.eu.len()
    }

    /// Degree of `v` (counting parallel edges).
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        self.adj[v as usize].len()
    }

    /// The live edge in slab slot `id` (must be live).
    #[inline]
    fn edge_at(&self, id: u32) -> Edge {
        debug_assert_ne!(self.eu[id as usize], TOMBSTONE, "slot {id} is dead");
        Edge::new(
            self.eu[id as usize],
            self.ev[id as usize],
            self.ew[id as usize],
        )
    }

    /// Inserts a live edge and returns its slab id.
    ///
    /// # Errors
    ///
    /// [`DynamicError::VertexOutOfRange`], [`DynamicError::SelfLoop`] or
    /// [`DynamicError::ZeroWeight`] for malformed insertions; the graph
    /// is unchanged on error.
    pub fn insert(&mut self, u: Vertex, v: Vertex, weight: u64) -> Result<u32, DynamicError> {
        self.check_insert(u, v, weight)?;
        let id = match self.free.pop() {
            Some(id) => {
                self.eu[id as usize] = u;
                self.ev[id as usize] = v;
                self.ew[id as usize] = weight;
                id
            }
            None => {
                let id = self.eu.len() as u32;
                self.eu.push(u);
                self.ev.push(v);
                self.ew.push(weight);
                id
            }
        };
        self.adj[u as usize].push(id);
        self.adj[v as usize].push(id);
        self.live += 1;
        Ok(id)
    }

    /// Validates an insertion without mutating.
    fn check_insert(&self, u: Vertex, v: Vertex, weight: u64) -> Result<(), DynamicError> {
        for x in [u, v] {
            if (x as usize) >= self.n {
                return Err(DynamicError::VertexOutOfRange {
                    vertex: x,
                    n: self.n,
                });
            }
        }
        if u == v {
            return Err(DynamicError::SelfLoop { vertex: u });
        }
        if weight == 0 {
            return Err(DynamicError::ZeroWeight { u, v });
        }
        Ok(())
    }

    /// Validates a deletion's endpoints without scanning for the edge.
    /// A self-loop delete must be rejected here: the adjacency scan in
    /// `delete` matches *any* edge incident to `u` when `u == v`, so
    /// without this check a malformed `delete(v, v)` would silently
    /// remove an arbitrary incident edge and strand the matching on a
    /// dead copy.
    fn check_delete(&self, u: Vertex, v: Vertex) -> Result<(), DynamicError> {
        for x in [u, v] {
            if (x as usize) >= self.n {
                return Err(DynamicError::VertexOutOfRange {
                    vertex: x,
                    n: self.n,
                });
            }
        }
        if u == v {
            return Err(DynamicError::SelfLoop { vertex: u });
        }
        Ok(())
    }

    /// Deletes the most recently inserted live edge `{u, v}` and returns
    /// it.
    ///
    /// # Errors
    ///
    /// [`DynamicError::EdgeNotFound`] if no live copy exists (the graph
    /// is unchanged).
    pub fn delete(&mut self, u: Vertex, v: Vertex) -> Result<Edge, DynamicError> {
        self.check_delete(u, v)?;
        let pos = self.adj[u as usize]
            .iter()
            .rposition(|&id| self.eu[id as usize] == v || self.ev[id as usize] == v)
            .ok_or(DynamicError::EdgeNotFound { u, v })?;
        let id = self.adj[u as usize].remove(pos);
        let vpos = self.adj[v as usize]
            .iter()
            .rposition(|&other| other == id)
            .expect("live edge is in both adjacency lists");
        self.adj[v as usize].remove(vpos);
        let e = self.edge_at(id);
        self.eu[id as usize] = TOMBSTONE;
        self.free.push(id);
        self.live -= 1;
        self.maybe_compact();
        Ok(e)
    }

    /// Applies the structural change of one update: [`DynGraph::insert`]
    /// or [`DynGraph::delete`].
    ///
    /// # Errors
    ///
    /// Exactly the errors of the underlying call (the graph is unchanged).
    pub(crate) fn apply(&mut self, op: UpdateOp) -> Result<(), DynamicError> {
        match op {
            UpdateOp::Insert { u, v, weight } => self.insert(u, v, weight).map(drop),
            UpdateOp::Delete { u, v } => self.delete(u, v).map(drop),
        }
    }

    /// Whether a live copy of `{u, v}` with exactly this weight exists.
    pub fn has_live_copy(&self, u: Vertex, v: Vertex, weight: u64) -> bool {
        self.adj[u as usize].iter().any(|&id| {
            (self.eu[id as usize] == v || self.ev[id as usize] == v)
                && self.ew[id as usize] == weight
        })
    }

    /// Iterator over the live edges incident to `v`, in insertion order
    /// (with multiplicity for parallel edges).
    pub fn incident(&self, v: Vertex) -> impl Iterator<Item = Edge> + '_ {
        self.adj[v as usize].iter().map(move |&id| self.edge_at(id))
    }

    /// Iterator over all live edges in slab-id order (deterministic for a
    /// given operation history — compaction preserves the order).
    pub fn live_iter(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.eu.len() as u32)
            .filter(move |&id| self.eu[id as usize] != TOMBSTONE)
            .map(move |id| self.edge_at(id))
    }

    /// The maximum live edge weight (0 for an edgeless graph).
    pub fn max_live_weight(&self) -> u64 {
        self.live_iter().map(|e| e.weight).max().unwrap_or(0)
    }

    /// Materializes the live edges as a static [`Graph`] (slab-id order).
    pub fn snapshot(&self) -> Graph {
        let mut out = Graph::new(self.n);
        self.snapshot_into(&mut out);
        out
    }

    /// Materializes the live edges into a reusable [`Graph`] (slab-id
    /// order, as [`DynGraph::snapshot`]), keeping `out`'s allocations —
    /// the rebuild epoch's allocation-free snapshot path.
    pub fn snapshot_into(&self, out: &mut Graph) {
        out.reset(self.n);
        for e in self.live_iter() {
            out.add_edge(e.u, e.v, e.weight);
        }
    }

    /// Compacts when at least [`COMPACT_MIN_DEAD`] slots are dead and the
    /// dead outnumber the live — amortized O(1) per deletion.
    fn maybe_compact(&mut self) {
        if self.free.len() >= COMPACT_MIN_DEAD && self.free.len() * 2 > self.eu.len() {
            self.compact();
        }
    }

    /// Dense re-pack of the slab, preserving slab order; adjacency ids
    /// are remapped in place, so per-vertex insertion order (the deletion
    /// LIFO key) is untouched.
    fn compact(&mut self) {
        self.remap.clear();
        self.remap.resize(self.eu.len(), u32::MAX);
        let mut next = 0usize;
        for id in 0..self.eu.len() {
            if self.eu[id] != TOMBSTONE {
                self.remap[id] = next as u32;
                self.eu[next] = self.eu[id];
                self.ev[next] = self.ev[id];
                self.ew[next] = self.ew[id];
                next += 1;
            }
        }
        self.eu.truncate(next);
        self.ev.truncate(next);
        self.ew.truncate(next);
        self.free.clear();
        let DynGraph { adj, remap, .. } = self;
        for list in adj.iter_mut() {
            for id in list.iter_mut() {
                *id = remap[*id as usize];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_delete_roundtrip() {
        let mut g = DynGraph::new(4);
        g.insert(0, 1, 3).unwrap();
        g.insert(1, 2, 4).unwrap();
        assert_eq!(g.live_edges(), 2);
        assert_eq!(g.delete(2, 1).unwrap(), Edge::new(1, 2, 4));
        assert_eq!(g.live_edges(), 1);
        assert_eq!(g.degree(1), 1);
        assert_eq!(
            g.delete(1, 2),
            Err(DynamicError::EdgeNotFound { u: 1, v: 2 })
        );
    }

    #[test]
    fn delete_takes_most_recent_parallel_copy() {
        let mut g = DynGraph::new(2);
        g.insert(0, 1, 1).unwrap();
        g.insert(0, 1, 9).unwrap();
        assert_eq!(g.delete(0, 1).unwrap().weight, 9, "LIFO on parallel edges");
        assert!(g.has_live_copy(0, 1, 1));
        assert!(!g.has_live_copy(0, 1, 9));
    }

    #[test]
    fn slab_ids_are_reused() {
        let mut g = DynGraph::new(3);
        let a = g.insert(0, 1, 1).unwrap();
        g.delete(0, 1).unwrap();
        let b = g.insert(1, 2, 2).unwrap();
        assert_eq!(a, b, "freed slab slot is recycled");
        assert_eq!(g.live_edges(), 1);
    }

    #[test]
    fn malformed_updates_are_typed_errors() {
        let mut g = DynGraph::new(2);
        assert!(matches!(
            g.insert(0, 5, 1),
            Err(DynamicError::VertexOutOfRange { .. })
        ));
        assert_eq!(g.insert(1, 1, 1), Err(DynamicError::SelfLoop { vertex: 1 }));
        assert_eq!(
            g.insert(0, 1, 0),
            Err(DynamicError::ZeroWeight { u: 0, v: 1 })
        );
        assert_eq!(g.live_edges(), 0);
    }

    #[test]
    fn snapshot_matches_live_set() {
        let mut g = DynGraph::new(4);
        g.insert(0, 1, 2).unwrap();
        g.insert(2, 3, 5).unwrap();
        g.insert(1, 2, 7).unwrap();
        g.delete(2, 3).unwrap();
        let s = g.snapshot();
        assert_eq!(s.edge_count(), 2);
        assert_eq!(s.vertex_count(), 4);
        assert_eq!(g.max_live_weight(), 7);
        let mut weights: Vec<u64> = s.edges().iter().map(|e| e.weight).collect();
        weights.sort_unstable();
        assert_eq!(weights, vec![2, 7]);
    }

    #[test]
    fn snapshot_into_reuses_buffer() {
        let mut g = DynGraph::new(3);
        g.insert(0, 1, 2).unwrap();
        g.insert(1, 2, 3).unwrap();
        let mut buf = Graph::new(0);
        g.snapshot_into(&mut buf);
        assert_eq!(buf, g.snapshot());
        g.delete(0, 1).unwrap();
        g.snapshot_into(&mut buf);
        assert_eq!(buf, g.snapshot());
    }

    #[test]
    fn incident_respects_insertion_order() {
        let mut g = DynGraph::new(3);
        g.insert(1, 0, 4).unwrap();
        g.insert(1, 2, 6).unwrap();
        let ws: Vec<u64> = g.incident(1).map(|e| e.weight).collect();
        assert_eq!(ws, vec![4, 6]);
    }

    #[test]
    fn compaction_repacks_and_preserves_adjacency_order() {
        let mut g = DynGraph::new(8);
        // grow the slab well past the compaction minimum, then delete
        // most of it
        let mut live = Vec::new();
        for i in 0..200u32 {
            let u = i % 8;
            let v = (i + 1) % 8;
            g.insert(u, v, (i + 1) as u64).unwrap();
            live.push((u, v, (i + 1) as u64));
        }
        let before_slots = g.slab_slots();
        assert_eq!(before_slots, 200);
        // request 150 deletions by endpoint pair; each removes the newest
        // live copy of that pair (weights are unique, so the reference
        // list identifies the removed copy unambiguously)
        for _ in 0..150 {
            let (u, v, _) = live[0];
            let e = g.delete(u, v).unwrap();
            let pos = live
                .iter()
                .rposition(|&(a, b, w)| Edge::new(a, b, w).same_endpoints(&e) && w == e.weight)
                .expect("deleted copy is in the reference list");
            live.remove(pos);
        }
        assert!(
            g.slab_slots() < before_slots,
            "slab compacted: {} slots for {} live edges",
            g.slab_slots(),
            g.live_edges()
        );
        assert_eq!(g.live_edges(), 50);
        // adjacency order still matches a graph freshly replayed from the
        // (slab-ordered) snapshot — compaction preserved both orders
        let replay = DynGraph::from_graph(&g.snapshot()).unwrap();
        for v in 0..8u32 {
            let a: Vec<Edge> = g.incident(v).collect();
            let b: Vec<Edge> = replay.incident(v).collect();
            assert_eq!(a, b, "adjacency of {v}");
        }
        // LIFO deletion still behaves after compaction
        let before = g.live_edges();
        let (u, v, _) = live[live.len() - 1];
        g.delete(u, v).unwrap();
        assert_eq!(g.live_edges(), before - 1);
    }
}
