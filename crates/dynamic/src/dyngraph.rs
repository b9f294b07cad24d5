//! The mutable live-edge store behind the update-stream engine.
//!
//! [`Graph`] is append-only (its cached CSR view is
//! invalidated on every mutation), which is the right trade-off for the
//! static solvers but ruinous under an update stream. [`DynGraph`] is the
//! dynamic counterpart: a struct-of-arrays slab of live edges plus
//! per-vertex lists of edge ids, giving O(1) amortized insertion,
//! O(degree) deletion, and O(degree) incidence scans without any derived
//! structure to rebuild. The engine's searches read it in place through
//! [`DynGraph::incident`]; [`DynGraph::snapshot`] materializes the live
//! edges as a static [`Graph`] for the callers that need one (an oracle
//! solve, a reference scan).
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
//!
//! The adjacency lists share one flat *arena* of edge ids. Each vertex
//! owns a contiguous range of it, recorded as a (start, length,
//! capacity) triple — 12 bytes per vertex, against a 24-byte `Vec`
//! header plus a heap block of its own. A push into a full range moves
//! the range to the arena's end with doubled capacity (at least 4, as a
//! `Vec` of `u32` grows) and leaves a hole; once holes make up a quarter
//! of the arena, a *repack* slides every range down over them in arena
//! order, keeping every capacity. Neither move reorders a range, so each
//! vertex keeps its insertion order — the deletion LIFO key and the
//! searches' enumeration order. [`DynGraph::from_graph`] lays every range
//! out once, with the capacity its degree would have grown to, so a
//! bootstrap never moves one.
//!
//! The whole graph is therefore a handful of flat arrays, and
//! [`Clone::clone_from`] copies them into the destination's buffers: a
//! WAL snapshot or restore is a flat copy of O(n + slab) words that
//! makes no allocation once the destination is warm.

use wmatch_graph::{Edge, Graph, Vertex};

use crate::error::DynamicError;
use crate::update::UpdateOp;

/// Sentinel marking a dead slab slot (`u32::MAX` is never a valid
/// endpoint: the vertex range is checked on insertion).
const TOMBSTONE: Vertex = Vertex::MAX;

/// Dead slots required before a deletion considers compacting.
const COMPACT_MIN_DEAD: usize = 64;

/// Capacity a vertex's range gets on its first push.
const MIN_RANGE_CAP: usize = 4;

/// Arena holes required before a move considers repacking.
const REPACK_MIN_HOLES: usize = 64;

/// One vertex's slice of the adjacency arena: `ids[start..start + len]`
/// holds its edge ids in insertion order, and the range owns the `cap`
/// slots from `start`. A range with `cap == 0` has `start == 0`.
#[derive(Debug, Clone, Copy, Default)]
struct AdjRange {
    start: u32,
    len: u32,
    cap: u32,
}

/// An arena offset or capacity as an [`AdjRange`] stores it.
fn arena_u32(x: usize) -> u32 {
    u32::try_from(x).expect("the adjacency arena stays within u32 offsets")
}

/// A dynamic undirected multigraph over a fixed vertex range `0..n`.
///
/// Edges live in a struct-of-arrays slab (`u32` ids, reused after
/// deletion, compacted when mostly dead) and each vertex keeps the ids of
/// its live incident edges, in insertion order, in its own range of one
/// shared arena (see the module docs). Deleting `{u, v}` removes the most
/// recently inserted live copy — a deterministic rule that keeps replay
/// reproducible under parallel edges. [`Clone::clone_from`] reuses the
/// destination's buffers, so copying a graph into a warm one does not
/// allocate.
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
#[derive(Debug)]
pub struct DynGraph {
    n: usize,
    /// Slab endpoints as inserted (`eu[id] == TOMBSTONE` marks a dead
    /// slot) and weights, in parallel arrays.
    eu: Vec<Vertex>,
    ev: Vec<Vertex>,
    ew: Vec<u64>,
    free: Vec<u32>,
    /// Each vertex's range in `ids`.
    ranges: Vec<AdjRange>,
    /// The adjacency arena: every vertex's range, and the holes moved
    /// ranges left behind.
    ids: Vec<u32>,
    /// Arena slots in no vertex's range.
    holes: usize,
    live: usize,
    /// Persistent scratch outside the graph's state: the old-id → new-id
    /// table of a compaction, or the vertices in arena order during a
    /// repack.
    scratch: Vec<u32>,
}

impl Clone for DynGraph {
    fn clone(&self) -> Self {
        let mut out = DynGraph::new(0);
        out.clone_from(self);
        out
    }

    /// Copies `source` into `self`'s buffers — a flat copy per array,
    /// with no allocation where `self`'s capacities already suffice. The
    /// scratch is not state and is not copied.
    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.eu.clone_from(&source.eu);
        self.ev.clone_from(&source.ev);
        self.ew.clone_from(&source.ew);
        self.free.clone_from(&source.free);
        self.ranges.clone_from(&source.ranges);
        self.ids.clone_from(&source.ids);
        self.holes = source.holes;
        self.live = source.live;
    }
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
            ranges: vec![AdjRange::default(); n],
            ids: Vec::new(),
            holes: 0,
            live: 0,
            scratch: Vec::new(),
        }
    }

    /// A dynamic graph seeded with every edge of `g` (in insertion order).
    /// Degrees are counted first, so each vertex's range is laid out once
    /// and no insertion moves it.
    ///
    /// # Errors
    ///
    /// [`DynamicError::ZeroWeight`] if `g` contains a zero-weight edge
    /// (the static [`Graph`] does not enforce positivity; the dynamic
    /// model does).
    pub fn from_graph(g: &Graph) -> Result<Self, DynamicError> {
        let mut out = DynGraph::new(g.vertex_count());
        // count each degree in `cap`, then give the range the capacity
        // that many pushes would have grown it to
        for e in g.edges() {
            out.check_insert(e.u, e.v, e.weight)?;
            out.ranges[e.u as usize].cap += 1;
            out.ranges[e.v as usize].cap += 1;
        }
        let mut end = 0usize;
        for r in out.ranges.iter_mut().filter(|r| r.cap > 0) {
            let cap = (r.cap as usize).next_power_of_two().max(MIN_RANGE_CAP);
            r.start = arena_u32(end);
            r.cap = arena_u32(cap);
            end += cap;
        }
        out.ids.resize(arena_u32(end) as usize, 0);
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
        self.ranges[v as usize].len as usize
    }

    /// The ids of `v`'s live incident edges, in insertion order.
    #[inline]
    fn adj(&self, v: Vertex) -> &[u32] {
        let r = self.ranges[v as usize];
        &self.ids[r.start as usize..][..r.len as usize]
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
        self.push_id(u, id);
        self.push_id(v, id);
        self.live += 1;
        Ok(id)
    }

    /// Appends `id` to `v`'s range, moving the range first if it is full.
    fn push_id(&mut self, v: Vertex, id: u32) {
        let r = self.ranges[v as usize];
        if r.len == r.cap {
            self.move_to_end(v as usize);
        }
        let r = &mut self.ranges[v as usize];
        self.ids[r.start as usize + r.len as usize] = id;
        r.len += 1;
    }

    /// Moves `v`'s full range to the arena's end with doubled capacity,
    /// leaving a hole where it was, and repacks once holes make up a
    /// quarter of the arena.
    fn move_to_end(&mut self, v: usize) {
        let AdjRange { start, len, cap } = self.ranges[v];
        let from = start as usize;
        let to = self.ids.len();
        let grown = (2 * cap as usize).max(MIN_RANGE_CAP);
        self.ids.resize(arena_u32(to + grown) as usize, 0);
        self.ids.copy_within(from..from + len as usize, to);
        self.ranges[v] = AdjRange {
            start: arena_u32(to),
            len,
            cap: arena_u32(grown),
        };
        self.holes += cap as usize;
        if self.holes >= REPACK_MIN_HOLES && 4 * self.holes > self.ids.len() {
            self.repack();
        }
    }

    /// Slides every range down over the holes. Ranges are visited in
    /// arena order, so each moves only towards the front and one pass in
    /// place suffices; capacities are kept.
    fn repack(&mut self) {
        let DynGraph {
            ranges,
            ids,
            scratch: order,
            ..
        } = self;
        order.clear();
        order.extend((0..ranges.len() as u32).filter(|&v| ranges[v as usize].cap > 0));
        // owned ranges are disjoint, so their starts are distinct
        order.sort_unstable_by_key(|&v| ranges[v as usize].start);
        let mut to = 0usize;
        for &v in order.iter() {
            let r = &mut ranges[v as usize];
            let from = r.start as usize;
            ids.copy_within(from..from + r.len as usize, to);
            r.start = to as u32;
            to += r.cap as usize;
        }
        ids.truncate(to);
        self.holes = 0;
    }

    /// Removes and returns the id at `pos` of `v`'s range, shifting the
    /// later ids down so the range keeps its order.
    fn remove_at(&mut self, v: Vertex, pos: usize) -> u32 {
        let r = &mut self.ranges[v as usize];
        let at = r.start as usize + pos;
        let id = self.ids[at];
        self.ids
            .copy_within(at + 1..r.start as usize + r.len as usize, at);
        r.len -= 1;
        id
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
        let pos = self
            .adj(u)
            .iter()
            .rposition(|&id| self.eu[id as usize] == v || self.ev[id as usize] == v)
            .ok_or(DynamicError::EdgeNotFound { u, v })?;
        let id = self.remove_at(u, pos);
        let vpos = self
            .adj(v)
            .iter()
            .rposition(|&other| other == id)
            .expect("live edge is in both adjacency lists");
        self.remove_at(v, vpos);
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
        self.adj(u).iter().any(|&id| {
            (self.eu[id as usize] == v || self.ev[id as usize] == v)
                && self.ew[id as usize] == weight
        })
    }

    /// Iterator over the live edges incident to `v`, in insertion order
    /// (with multiplicity for parallel edges).
    pub fn incident(&self, v: Vertex) -> impl Iterator<Item = Edge> + '_ {
        self.adj(v).iter().map(move |&id| self.edge_at(id))
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
        Graph::from_edges(self.n, self.live_iter())
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
        self.scratch.clear();
        self.scratch.resize(self.eu.len(), u32::MAX);
        let mut next = 0usize;
        for id in 0..self.eu.len() {
            if self.eu[id] != TOMBSTONE {
                self.scratch[id] = next as u32;
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
        let DynGraph {
            ranges,
            ids,
            scratch: remap,
            ..
        } = self;
        for r in ranges.iter() {
            for id in &mut ids[r.start as usize..][..r.len as usize] {
                *id = remap[*id as usize];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// `copy` equals `g`: every adjacency list in order, the counts, and
    /// the state a later op depends on (arena, holes, free list).
    fn assert_same_graph(g: &DynGraph, copy: &DynGraph, step: usize) {
        assert_eq!(copy.vertex_count(), g.vertex_count());
        assert_eq!(copy.live_edges(), g.live_edges(), "step {step}");
        assert_eq!(copy.slab_slots(), g.slab_slots(), "step {step}");
        for x in 0..g.vertex_count() as Vertex {
            assert!(
                copy.incident(x).eq(g.incident(x)),
                "step {step}: incident({x}) of the copy"
            );
        }
        assert_eq!((&copy.ids, copy.holes), (&g.ids, g.holes), "step {step}");
        assert_eq!(copy.free, g.free, "step {step}");
    }

    /// A seeded model of the arena: random inserts and deletes on 16
    /// vertices, one of them a hub, with many parallel copies (of equal
    /// weight too), checked after every op against a `Vec<Vec<Edge>>`
    /// reference in insertion order. Growth phases that outgrow the last
    /// peak and shrink phases in between move ranges, repack the arena
    /// and compact the slab. A `clone_from` into a graph of another size
    /// and history, and later into the same warm copy, must follow every
    /// later op identically.
    #[test]
    fn arena_keeps_insertion_order_through_moves_repacks_and_compactions() {
        const N: Vertex = 16;
        const HUB: Vertex = 0;
        let mut rng = StdRng::seed_from_u64(0xa7e4a);
        let mut g = DynGraph::new(N as usize);
        let mut reference: Vec<Vec<Edge>> = vec![Vec::new(); N as usize];
        let mut copy = DynGraph::new(40);
        for x in 1..40 {
            copy.insert(x - 1, x, 1).unwrap();
            copy.insert(0, x, 2).unwrap();
        }
        let mut copied = false;
        let (mut moves, mut repacks, mut compactions) = (0, 0, 0);
        for step in 0..12_000 {
            let growing = (step / 1_000) % 2 == 0;
            let insert = g.live_edges() == 0 || rng.gen_bool(if growing { 0.75 } else { 0.3 });
            let (holes, slots) = (g.holes, g.slab_slots());
            if insert {
                let u = if rng.gen_bool(0.3) {
                    HUB
                } else {
                    rng.gen_range(0..N)
                };
                let v = (u + rng.gen_range(1..N)) % N;
                let w = rng.gen_range(1..4u64);
                g.insert(u, v, w).unwrap();
                if copied {
                    copy.insert(u, v, w).unwrap();
                }
                reference[u as usize].push(Edge::new(u, v, w));
                reference[v as usize].push(Edge::new(u, v, w));
            } else {
                let x = loop {
                    let x = rng.gen_range(0..N) as usize;
                    if !reference[x].is_empty() {
                        break x;
                    }
                };
                let pick = reference[x][rng.gen_range(0..reference[x].len())];
                let (u, v) = if rng.gen_bool(0.5) {
                    (pick.u, pick.v)
                } else {
                    (pick.v, pick.u)
                };
                // the newest copy of {u, v}: the last in either list
                let newest = *reference[u as usize]
                    .iter()
                    .rfind(|e| e.same_endpoints(&pick))
                    .unwrap();
                assert_eq!(g.delete(u, v).unwrap(), newest, "step {step}: LIFO copy");
                if copied {
                    assert_eq!(copy.delete(u, v).unwrap(), newest, "step {step}");
                }
                for y in [u, v] {
                    let list = &mut reference[y as usize];
                    let pos = list.iter().rposition(|e| *e == newest).unwrap();
                    list.remove(pos);
                }
            }
            moves += usize::from(g.holes > holes);
            repacks += usize::from(g.holes < holes);
            compactions += usize::from(g.slab_slots() < slots);
            for x in 0..N {
                assert_eq!(g.degree(x), reference[x as usize].len(), "step {step}");
                assert!(
                    g.incident(x).eq(reference[x as usize].iter().copied()),
                    "step {step}: incident({x})"
                );
            }
            if step % 4_000 == 1_500 {
                copy.clone_from(&g);
                copied = true;
            }
            if copied {
                assert_same_graph(&g, &copy, step);
            }
        }
        assert!(
            moves >= 10 && repacks >= 2 && compactions >= 2,
            "{moves} moves, {repacks} repacks, {compactions} compactions"
        );
    }

    #[test]
    fn from_graph_lays_out_each_range_once() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut edges = Vec::new();
        for _ in 0..300 {
            let u: Vertex = if rng.gen_bool(0.5) {
                0
            } else {
                rng.gen_range(0..12u32)
            };
            let v = (u + rng.gen_range(1..12u32)) % 12;
            edges.push(Edge::new(u, v, rng.gen_range(1..5)));
        }
        let boot = DynGraph::from_graph(&Graph::from_edges(12, edges.iter().copied())).unwrap();
        let mut grown = DynGraph::new(12);
        for e in &edges {
            grown.insert(e.u, e.v, e.weight).unwrap();
        }
        assert_eq!(boot.holes, 0, "no range moved");
        let caps = |g: &DynGraph| g.ranges.iter().map(|r| r.cap).collect::<Vec<_>>();
        assert_eq!(caps(&boot), caps(&grown), "the growth rule's headroom");
        assert_eq!(
            boot.ids.len(),
            boot.ranges.iter().map(|r| r.cap as usize).sum()
        );
        for x in 0..12 {
            assert!(boot.incident(x).eq(grown.incident(x)), "incident({x})");
        }
    }
}
