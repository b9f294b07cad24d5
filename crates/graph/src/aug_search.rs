//! Exhaustive search for short augmentations.
//!
//! Fact 1.3 of the paper: *if there is no augmenting path or cycle of
//! length at most 2ℓ−1, then `M` is a (1−1/ℓ)-approximate matching.* This
//! module provides the exhaustive searcher that certifies that fact and
//! maintains it: it enumerates every simple alternating path and cycle
//! with at most `max_len` edges and reports the one with the largest
//! (positive) gain. The cost is exponential in `max_len` and linear in
//! the vertices searched from, so the searcher offers three scopes of
//! one DFS:
//!
//! * **the full scan** ([`AugSearcher::best_augmentation`],
//!   [`AugSearcher::best_augmentation_into`]) starts a walk at every
//!   vertex;
//! * **the seeded scan** ([`AugSearcher::best_seeded_augmentation_into`])
//!   keeps only walks through a *seed* vertex, given each vertex's
//!   distance to the seeds: a start or branch that can no longer reach a
//!   seed within `max_len` edges is cut, and so is a start at distance
//!   exactly `max_len` (the *rim*) after the last seed, whose walks are
//!   reverses of walks already scanned from a seed. It never steps along
//!   an edge whose endpoints both lie at distance `max_len` or more, so
//!   callers may leave those edges out. When every positive walk passes
//!   through a seed — the dynamic engine's locality argument: the seeds
//!   are whatever an update or a repair touched — it returns exactly what
//!   the full scan returns;
//! * **[`AugSearcher::converge`]** applies best augmentations until none
//!   is left, with one full scan up front and, after each applied
//!   augmentation, a re-search of only the starts within `max_len` of it.
//!
//! All three enumerate walks in the same order — start vertex, then CSR
//! order — and keep the same tie-break: the first walk to reach the
//! strictly largest gain wins.
//!
//! The searcher runs on the flat hot path: neighbourhood scans read the
//! graph's cached [`CsrView`](crate::CsrView) slices, the visited set is
//! the [`Scratch`] arena's epoch-stamped set, reset in O(1) per
//! start vertex, and candidate gains are tracked incrementally along the
//! walk — the DFS inner loop performs no heap allocation (an
//! [`Augmentation`] is materialized only for the winning component). Reuse
//! one [`AugSearcher`] across calls to amortize even the walk buffers.

use crate::alternating::Augmentation;
use crate::edge::{Edge, Vertex};
use crate::graph::Graph;
use crate::matching::Matching;
use crate::scratch::Scratch;

/// Finds the best augmentation (alternating path or cycle, at most
/// `max_len` edges on the component) with strictly positive gain, or `None`
/// if no such augmentation exists.
///
/// Convenience wrapper constructing a fresh [`AugSearcher`]; reuse a
/// searcher when calling in a loop.
///
/// # Example
///
/// ```
/// use wmatch_graph::{Graph, Matching, Edge, aug_search::best_augmentation};
///
/// let mut g = Graph::new(4);
/// g.add_edge(0, 1, 2);
/// g.add_edge(1, 2, 3);
/// g.add_edge(2, 3, 2);
/// let m = Matching::from_edges(4, [Edge::new(1, 2, 3)]).unwrap();
/// let best = best_augmentation(&g, &m, 3).expect("path 0-1-2-3 gains 1");
/// assert_eq!(best.gain(), 1);
/// ```
pub fn best_augmentation(g: &Graph, m: &Matching, max_len: usize) -> Option<Augmentation> {
    AugSearcher::new().best_augmentation(g, m, max_len)
}

/// Which walks a search may record, and which it may cut early. The DFS
/// is monomorphized over it: the full scan's [`Everywhere`] is zero-sized
/// with a unit state, so its instance carries no extra argument and no
/// extra branch.
trait Anchor: Copy {
    /// Per-walk state, carried down the DFS frames.
    type State: Copy;
    /// The state of the one-vertex walk at `start`, or `None` when no
    /// walk of at most `max_len` edges from `start` can be recorded.
    fn start(self, start: Vertex, max_len: usize) -> Option<Self::State>;
    /// The state after the walk steps to `next` with `left` edges still
    /// allowed, or `None` when no extension from `next` can be recorded.
    fn step(self, state: Self::State, next: Vertex, left: usize) -> Option<Self::State>;
    /// Whether a walk in `state` may be recorded.
    fn records(state: Self::State) -> bool;
}

/// The full scan: every walk counts.
#[derive(Debug, Clone, Copy)]
struct Everywhere;

impl Anchor for Everywhere {
    type State = ();

    #[inline(always)]
    fn start(self, _: Vertex, _: usize) -> Option<()> {
        Some(())
    }

    #[inline(always)]
    fn step(self, _: (), _: Vertex, _: usize) -> Option<()> {
        Some(())
    }

    #[inline(always)]
    fn records(_: ()) -> bool {
        true
    }
}

/// The seeded scan: only walks through a seed count. `dist[v]` is 0 at
/// the seeds and a lower bound on the distance to the nearest seed
/// elsewhere; the state says whether the walk has met a seed yet.
#[derive(Debug, Clone, Copy)]
struct Seeds<'a> {
    dist: &'a [u32],
    /// The largest seed id (0 when there is none).
    last_seed: Vertex,
}

impl Anchor for Seeds<'_> {
    type State = bool;

    #[inline(always)]
    fn start(self, start: Vertex, max_len: usize) -> Option<bool> {
        let d = self.dist[start as usize] as usize;
        // a walk from a rim start (distance exactly `max_len`) can meet a
        // seed only as its last vertex, so the reverse walk from that
        // seed has the same edges and gain; past the last seed, it was
        // enumerated first and the strict tie-break keeps it
        (d < max_len || (d == max_len && start < self.last_seed)).then_some(d == 0)
    }

    #[inline(always)]
    fn step(self, hit: bool, next: Vertex, left: usize) -> Option<bool> {
        if hit {
            return Some(true);
        }
        let d = self.dist[next as usize] as usize;
        (d <= left).then_some(d == 0)
    }

    #[inline(always)]
    fn records(hit: bool) -> bool {
        hit
    }
}

/// Reusable exhaustive searcher for short augmentations.
///
/// Holds the epoch-stamped visited marks and walk buffers across calls;
/// after the first call on a graph of a given size, subsequent searches
/// allocate only when they find an improving component (and
/// [`AugSearcher::converge`] not even then).
///
/// # Example
///
/// ```
/// use wmatch_graph::{Graph, Matching, aug_search::AugSearcher};
///
/// let mut g = Graph::new(2);
/// g.add_edge(0, 1, 5);
/// let mut searcher = AugSearcher::new();
/// let aug = searcher.best_augmentation(&g, &Matching::new(2), 1).unwrap();
/// assert_eq!(aug.gain(), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AugSearcher {
    scratch: Scratch,
    walk: Vec<Edge>,
    best_walk: Vec<Edge>,
    best_gain: i128,
    /// [`AugSearcher::converge`]'s best gain per start vertex.
    gains: Vec<i128>,
    /// [`AugSearcher::converge`]'s BFS queue of starts to re-search.
    frontier: Vec<Vertex>,
    /// [`AugSearcher::converge`]'s split of the current winner.
    added: Vec<Edge>,
    removed: Vec<Edge>,
}

impl AugSearcher {
    /// Creates a searcher with empty buffers.
    pub fn new() -> Self {
        AugSearcher::default()
    }

    /// The largest dense scratch footprint this searcher has used —
    /// telemetry for callers that report memory high-water marks.
    pub fn scratch_high_water(&self) -> usize {
        self.scratch.high_water()
    }

    /// Finds the best augmentation with strictly positive gain, or `None`.
    ///
    /// Equivalent to the free function [`best_augmentation`], with the
    /// scratch state reused across calls.
    pub fn best_augmentation(
        &mut self,
        g: &Graph,
        m: &Matching,
        max_len: usize,
    ) -> Option<Augmentation> {
        self.search(g, m, max_len, Everywhere);
        if self.best_gain > 0 {
            let aug = Augmentation::from_component(m, &self.best_walk)
                .expect("gated walks form valid alternating components");
            debug_assert_eq!(aug.gain(), self.best_gain);
            Some(aug)
        } else {
            None
        }
    }

    /// Like [`AugSearcher::best_augmentation`], but decomposes the winning
    /// component into caller-owned `added`/`removed` buffers instead of
    /// materializing an [`Augmentation`] — the fully allocation-free
    /// variant the dynamic repair path runs on. Returns the (strictly
    /// positive) gain, or `None`; the buffers are cleared either way.
    ///
    /// The buffers hold exactly the sets
    /// [`Augmentation::added`]/[`Augmentation::removed`] would: walk edges
    /// outside the matching, and the matching neighbourhood of the
    /// component (each matched edge once).
    pub fn best_augmentation_into(
        &mut self,
        g: &Graph,
        m: &Matching,
        max_len: usize,
        added: &mut Vec<Edge>,
        removed: &mut Vec<Edge>,
    ) -> Option<i128> {
        self.search(g, m, max_len, Everywhere);
        self.split_best(m, added, removed)
    }

    /// [`AugSearcher::best_augmentation_into`] restricted to walks that
    /// pass through a *seed*: `seed_dist[v]` (one entry per vertex) is 0
    /// exactly at the seeds, and elsewhere at most `v`'s distance to the
    /// nearest seed — BFS depths from the seeds qualify, and anything
    /// farther than `max_len` may be capped at `max_len + 1`. A start or
    /// branch that cannot reach a seed within the remaining length is cut.
    ///
    /// The surviving walks are enumerated in the full scan's order with
    /// its tie-break, so the winner is the full scan's winner among walks
    /// through a seed. When every positive walk of at most `max_len`
    /// edges passes through a seed, that is exactly the full scan's
    /// result: a walk without one has gain ≤ 0, which the full scan never
    /// records either.
    ///
    /// Two facts about the *rim*, the vertices at distance exactly
    /// `max_len`, cut the work further without changing the result:
    ///
    /// * A walk from a rim start meets a seed only as its last vertex,
    ///   `max_len` edges away, and the reverse walk from that seed has the
    ///   same edges and gain. A rim start after the last seed is skipped:
    ///   the reverse was enumerated first, and under the strict tie-break
    ///   the later copy never wins. Rim starts before the last seed are
    ///   still searched, so any vertex numbering is exact; numbering the
    ///   seeds first skips every rim start.
    /// * No surviving walk steps along an edge whose endpoints both lie
    ///   at distance `max_len` or more: such a vertex is only a walk's
    ///   start or its last vertex. `g` may leave those edges out, keeping
    ///   the others in order, and the result is the same; `m` may still
    ///   hold them.
    ///
    /// # Panics
    ///
    /// Panics if `seed_dist` is shorter than the vertex count.
    ///
    /// # Example
    ///
    /// ```
    /// use wmatch_graph::{Edge, Graph, Matching, aug_search::AugSearcher};
    ///
    /// // two disjoint unmatched edges; only the one at seed 2 is searched
    /// let mut g = Graph::new(4);
    /// g.add_edge(0, 1, 9);
    /// g.add_edge(2, 3, 4);
    /// let m = Matching::new(4);
    /// let dist = [2, 2, 0, 1]; // 0 and 1 are out of reach: any cap > 1
    /// let (mut added, mut removed) = (Vec::new(), Vec::new());
    /// let mut s = AugSearcher::new();
    /// let gain = s.best_seeded_augmentation_into(&g, &m, 1, &dist, &mut added, &mut removed);
    /// assert_eq!(gain, Some(4));
    /// assert_eq!(added, [Edge::new(2, 3, 4)]);
    /// // the full scan takes the heavier edge, which no seed reaches
    /// let gain = s.best_augmentation_into(&g, &m, 1, &mut added, &mut removed);
    /// assert_eq!(gain, Some(9));
    /// ```
    pub fn best_seeded_augmentation_into(
        &mut self,
        g: &Graph,
        m: &Matching,
        max_len: usize,
        seed_dist: &[u32],
        added: &mut Vec<Edge>,
        removed: &mut Vec<Edge>,
    ) -> Option<i128> {
        let n = g.vertex_count();
        assert!(seed_dist.len() >= n, "one seed distance per vertex");
        let last_seed = seed_dist[..n].iter().rposition(|&d| d == 0).unwrap_or(0);
        let anchor = Seeds {
            dist: seed_dist,
            last_seed: last_seed as Vertex,
        };
        self.search(g, m, max_len, anchor);
        self.split_best(m, added, removed)
    }

    /// Applies best augmentations to `m` until none with positive gain
    /// and at most `max_len` edges remains; returns how many it applied.
    ///
    /// The result is the matching of the naive loop
    /// `while let Some(aug) = best_augmentation(g, m, max_len) { aug.apply(m) }`,
    /// augmentation for augmentation, without its full scan per
    /// augmentation. One full scan caches each start vertex's best gain.
    /// A start's DFS reads the matching only at its walk vertices, all
    /// within `max_len` of the start, and the graph does not change; so
    /// after an augmentation only the starts within `max_len` of its
    /// added and removed edges are searched again. The first start with
    /// the largest cached gain is the full scan's winner, and searching it
    /// once more rebuilds the winning walk.
    ///
    /// Each winner is split into searcher-owned buffers and applied as
    /// removals then inserts (added edges keep the graph's orientation),
    /// so once the searcher has run on a graph of this size, `converge`
    /// does not allocate.
    ///
    /// # Panics
    ///
    /// Panics if `m` covers fewer vertices than `g`.
    ///
    /// # Example
    ///
    /// ```
    /// use wmatch_graph::{Matching, aug_search::{best_augmentation, AugSearcher}};
    /// use wmatch_graph::generators;
    ///
    /// let g = generators::path_graph(&[4, 6, 4]);
    /// let mut m = Matching::new(4);
    /// // grab the middle edge, then swap it for the outer pair
    /// assert_eq!(AugSearcher::new().converge(&g, &mut m, 3), 2);
    /// assert_eq!(m.weight(), 8);
    /// assert!(best_augmentation(&g, &m, 3).is_none());
    /// ```
    pub fn converge(&mut self, g: &Graph, m: &mut Matching, max_len: usize) -> u64 {
        let n = g.vertex_count();
        self.prepare(n, max_len);
        self.gains.clear();
        self.gains.resize(n, 0);
        for start in 0..n as Vertex {
            self.gains[start as usize] = self.search_start(g, m, max_len, start);
        }
        let mut applied = 0;
        loop {
            // the full scan's winner: the first start to hold the
            // strictly largest gain
            let mut best = 0;
            let mut winner = None;
            for (v, &gain) in self.gains.iter().enumerate() {
                if gain > best {
                    best = gain;
                    winner = Some(v as Vertex);
                }
            }
            let Some(winner) = winner else { break };
            let gain = self.search_start(g, m, max_len, winner);
            debug_assert_eq!(gain, best, "cached gains are current");
            let mut added = std::mem::take(&mut self.added);
            let mut removed = std::mem::take(&mut self.removed);
            self.split_best(m, &mut added, &mut removed);
            for e in &removed {
                m.remove_pair(e.u, e.v)
                    .expect("the neighbourhood is matched");
            }
            for &e in &added {
                m.insert(e).expect("removals freed the endpoints");
            }
            applied += 1;
            // every start within max_len of a changed mate is stale
            self.frontier.clear();
            self.scratch.mark.clear();
            for e in added.iter().chain(&removed) {
                for x in [e.u, e.v] {
                    if self.scratch.mark.insert(x) {
                        self.frontier.push(x);
                    }
                }
            }
            self.added = added;
            self.removed = removed;
            let csr = g.csr();
            let mut level = 0..self.frontier.len();
            for _ in 0..max_len {
                let next = level.end;
                for i in level {
                    for &w in csr.neighbors(self.frontier[i]) {
                        if self.scratch.mark.insert(w) {
                            self.frontier.push(w);
                        }
                    }
                }
                level = next..self.frontier.len();
            }
            for i in 0..self.frontier.len() {
                let v = self.frontier[i];
                self.gains[v as usize] = self.search_start(g, m, max_len, v);
            }
        }
        applied
    }

    /// Sizes the scratch for an `n`-vertex search and resets the winner.
    fn prepare(&mut self, n: usize, max_len: usize) {
        self.scratch.begin(n);
        self.walk.clear();
        self.walk.reserve(max_len + 1);
        self.best_walk.clear();
        self.best_walk.reserve(max_len + 1);
        self.best_gain = 0;
    }

    /// The best gain (0 if none is positive) over the walks from `start`
    /// alone, leaving its first winning walk in `best_walk`.
    fn search_start(&mut self, g: &Graph, m: &Matching, max_len: usize, start: Vertex) -> i128 {
        self.best_gain = 0;
        self.search_from(g, m, max_len, Everywhere, start);
        self.best_gain
    }

    /// Runs the DFS from every start vertex the anchor admits, leaving the
    /// winner (if any) in `best_walk`/`best_gain`.
    fn search<A: Anchor>(&mut self, g: &Graph, m: &Matching, max_len: usize, anchor: A) {
        let n = g.vertex_count();
        self.prepare(n, max_len);
        for start in 0..n as Vertex {
            self.search_from(g, m, max_len, anchor, start);
        }
    }

    /// The DFS over simple alternating walks from `start`, recording into
    /// the running `best_walk`/`best_gain`.
    #[inline(always)]
    fn search_from<A: Anchor>(
        &mut self,
        g: &Graph,
        m: &Matching,
        max_len: usize,
        anchor: A,
        start: Vertex,
    ) {
        let Some(state) = anchor.start(start, max_len) else {
            return;
        };
        self.scratch.visited.clear();
        self.scratch.visited.insert(start);
        self.walk.clear();
        // the start vertex's matched edge is in the neighbourhood of
        // every non-empty prefix
        let removed = m.incident_weight(start) as i128;
        self.dfs(
            g,
            g.csr(),
            m,
            anchor,
            start,
            start,
            None,
            max_len,
            0,
            removed,
            state,
        );
    }

    /// Decomposes the recorded winner into `added`/`removed` (both
    /// cleared first) and returns its gain, or `None` if nothing positive
    /// was recorded.
    fn split_best(
        &mut self,
        m: &Matching,
        added: &mut Vec<Edge>,
        removed: &mut Vec<Edge>,
    ) -> Option<i128> {
        added.clear();
        removed.clear();
        if self.best_gain <= 0 {
            return None;
        }
        // hash-free decomposition: `mark` dedups component vertices; a
        // matched edge joins `removed` when its first endpoint is scanned
        let marks = &mut self.scratch.mark;
        marks.clear();
        for e in &self.best_walk {
            if !m.contains(e) {
                added.push(*e);
            }
            for x in [e.u, e.v] {
                if marks.insert(x) {
                    if let Some(me) = m.matched_edge(x) {
                        if !marks.contains(me.other(x)) {
                            removed.push(me);
                        }
                    }
                }
            }
        }
        debug_assert_eq!(
            added.iter().map(|e| e.weight as i128).sum::<i128>()
                - removed.iter().map(|e| e.weight as i128).sum::<i128>(),
            self.best_gain,
            "decomposed parts must reproduce the walk's gain"
        );
        Some(self.best_gain)
    }

    /// Extends the walk edge by edge, carrying the component gain
    /// (`added − removed`, with the matching neighbourhood deduplicated
    /// via the visited marks) in the recursion frame so every prefix is
    /// evaluated without materializing an [`Augmentation`].
    #[allow(clippy::too_many_arguments)]
    fn dfs<A: Anchor>(
        &mut self,
        g: &Graph,
        csr: &crate::csr::CsrView,
        m: &Matching,
        anchor: A,
        start: Vertex,
        cur: Vertex,
        last_in_m: Option<bool>,
        max_len: usize,
        added: i128,
        removed: i128,
        state: A::State,
    ) {
        if self.walk.len() >= max_len {
            return;
        }
        for &eid in csr.edge_ids(cur) {
            let e = g.edge(eid as usize);
            let in_m = m.contains(&e);
            if let Some(last) = last_in_m {
                if in_m == last {
                    continue; // must alternate
                }
            }
            let next = e.other(cur);
            if next == start && self.walk.len() >= 2 {
                // closing a cycle: alternation must hold around the joint too
                let first_in_m = m.contains(&self.walk[0]);
                if in_m != first_in_m
                    && (self.walk.len() + 1).is_multiple_of(2)
                    && A::records(state)
                {
                    // both endpoints are already on the walk: the closing
                    // edge changes only the added weight
                    let gain = added + if in_m { 0 } else { e.weight as i128 } - removed;
                    if gain > self.best_gain {
                        self.best_gain = gain;
                        self.best_walk.clear();
                        self.best_walk.extend_from_slice(&self.walk);
                        self.best_walk.push(e);
                    }
                }
                continue;
            }
            if self.scratch.visited.contains(next) {
                continue;
            }
            let Some(state) = anchor.step(state, next, max_len - self.walk.len() - 1) else {
                continue; // no seed within reach
            };
            let added = added + if in_m { 0 } else { e.weight as i128 };
            // `next` contributes its matched edge to the neighbourhood
            // unless the edge's other endpoint already did
            let removed = removed
                + match m.matched_edge(next) {
                    Some(me) if !self.scratch.visited.contains(me.other(next)) => me.weight as i128,
                    _ => 0,
                };
            self.walk.push(e);
            self.scratch.visited.insert(next);
            // every prefix is itself a valid alternating path component
            let gain = added - removed;
            if A::records(state) && gain > self.best_gain {
                self.best_gain = gain;
                self.best_walk.clear();
                self.best_walk.extend_from_slice(&self.walk);
            }
            self.dfs(
                g,
                csr,
                m,
                anchor,
                start,
                next,
                Some(in_m),
                max_len,
                added,
                removed,
                state,
            );
            self.scratch.visited.remove(next);
            self.walk.pop();
        }
    }
}

/// Whether any augmentation of length at most `max_len` with positive gain
/// exists.
pub fn exists_augmentation(g: &Graph, m: &Matching, max_len: usize) -> bool {
    best_augmentation(g, m, max_len).is_some()
}

/// An approximation certificate derived from Fact 1.3 of the paper:
/// searches for the largest `ℓ ≤ max_l` such that `m` admits no augmenting
/// path or cycle with at most `2ℓ−1` edges, and returns the implied
/// guarantee `w(M) ≥ (1−1/ℓ)·w(M*)` as the factor `1−1/ℓ`.
///
/// Returns `None` when even a single-edge augmentation exists (no
/// certificate better than the trivial 0 can be issued). Exponential in
/// `max_l`; intended for small instances.
///
/// # Example
///
/// ```
/// use wmatch_graph::{Graph, Matching, Edge, aug_search::approximation_certificate};
///
/// let mut g = Graph::new(4);
/// g.add_edge(0, 1, 2);
/// g.add_edge(1, 2, 3);
/// g.add_edge(2, 3, 2);
/// // the middle edge alone admits a 3-edge augmenting path: no certificate
/// let m = Matching::from_edges(4, [Edge::new(1, 2, 3)]).unwrap();
/// assert_eq!(approximation_certificate(&g, &m, 4), None);
///
/// // the optimal matching certifies (1 - 1/4) at max_l = 4
/// let opt = Matching::from_edges(4, [Edge::new(0, 1, 2), Edge::new(2, 3, 2)]).unwrap();
/// assert_eq!(approximation_certificate(&g, &opt, 4), Some(0.75));
/// ```
pub fn approximation_certificate(g: &Graph, m: &Matching, max_l: usize) -> Option<f64> {
    let mut best = None;
    for l in 2..=max_l {
        if exists_augmentation(g, m, 2 * l - 1) {
            break;
        }
        best = Some(1.0 - 1.0 / l as f64);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::max_weight_matching;
    use crate::generators::{self, WeightModel};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn finds_single_edge_augmentation() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 5);
        let m = Matching::new(2);
        let aug = best_augmentation(&g, &m, 1).unwrap();
        assert_eq!(aug.gain(), 5);
    }

    #[test]
    fn finds_length_three_path() {
        let g = generators::path_graph(&[2, 3, 2]);
        let m = Matching::from_edges(4, [g.edge(1)]).unwrap();
        let aug = best_augmentation(&g, &m, 3).unwrap();
        assert_eq!(aug.gain(), 1);
        // restricted to length 1, replacing the middle edge never profits
        assert!(best_augmentation(&g, &m, 1).is_none());
    }

    #[test]
    fn finds_augmenting_cycle() {
        let (g, m) = generators::four_cycle_3434();
        // the augmenting 4-cycle gains 2; with matching-neighbourhood
        // semantics (Definition 4.4) the same augmentation is also
        // expressible as the 3-edge alternating path that drops one matched
        // edge into the neighbourhood of both endpoints
        let aug = best_augmentation(&g, &m, 4).unwrap();
        assert_eq!(aug.gain(), 2);
        let aug3 = best_augmentation(&g, &m, 3).unwrap();
        assert_eq!(aug3.gain(), 2);
        // with at most 2 edges nothing improves the perfect matching
        assert!(best_augmentation(&g, &m, 2).is_none());
    }

    #[test]
    fn respects_single_edge_swap_gains() {
        // heavy edge replaces two incident matched edges
        let (g, m0, _) = generators::fig2_graph();
        // {e,h} of weight 2 vs w(M0(e)) + w(M0(h)) = 1 + 0
        let aug = best_augmentation(&g, &m0, 5).unwrap();
        assert!(aug.gain() > 0);
    }

    #[test]
    fn none_when_matching_is_optimal() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..25 {
            let g = generators::gnp(8, 0.5, WeightModel::Uniform { lo: 1, hi: 9 }, &mut rng);
            let opt = max_weight_matching(&g);
            assert!(
                best_augmentation(&g, &opt, 8).is_none(),
                "an optimal matching admits no augmentation"
            );
        }
    }

    #[test]
    fn fact_1_3_on_random_graphs() {
        // If no augmenting path/cycle of length <= 2l-1 exists, then
        // w(M) >= (1 - 1/l) w(M*).
        let mut rng = StdRng::seed_from_u64(37);
        for trial in 0..40 {
            let g = generators::gnp(8, 0.45, WeightModel::Uniform { lo: 1, hi: 9 }, &mut rng);
            let opt_w = max_weight_matching(&g).weight();
            if opt_w == 0 {
                continue;
            }
            // build some suboptimal matching greedily by arrival order
            let mut m = Matching::new(g.vertex_count());
            for e in g.edges() {
                let _ = m.insert(*e);
            }
            for l in 2..=4usize {
                if !exists_augmentation(&g, &m, 2 * l - 1) {
                    // w(M) * l >= (l-1) * w(M*)
                    assert!(
                        m.weight() * l as i128 >= (l as i128 - 1) * opt_w,
                        "trial {trial}, l={l}: w(M)={} < (1-1/{l})*{opt_w}",
                        m.weight()
                    );
                }
            }
        }
    }

    #[test]
    fn certificate_is_sound() {
        // whenever a certificate is issued, the true ratio respects it
        let mut rng = StdRng::seed_from_u64(53);
        for _ in 0..30 {
            let g = generators::gnp(8, 0.4, WeightModel::Uniform { lo: 1, hi: 12 }, &mut rng);
            let opt = max_weight_matching(&g).weight();
            if opt == 0 {
                continue;
            }
            let mut m = Matching::new(g.vertex_count());
            for e in g.edges() {
                let _ = m.insert(*e);
            }
            if let Some(cert) = approximation_certificate(&g, &m, 4) {
                assert!(
                    m.weight() as f64 >= cert * opt as f64 - 1e-9,
                    "certificate {cert} violated: {} vs {opt}",
                    m.weight()
                );
            }
        }
    }

    #[test]
    fn certificate_on_optimal_matching_grows_with_max_l() {
        let g = generators::path_graph(&[5, 6, 5]);
        let opt = max_weight_matching(&g);
        assert_eq!(approximation_certificate(&g, &opt, 2), Some(0.5));
        assert_eq!(approximation_certificate(&g, &opt, 5), Some(0.8));
    }

    #[test]
    fn into_variant_agrees_with_materialized_augmentation() {
        let mut rng = StdRng::seed_from_u64(47);
        let mut searcher = AugSearcher::new();
        let mut added = Vec::new();
        let mut removed = Vec::new();
        for _ in 0..30 {
            let g = generators::gnp(9, 0.4, WeightModel::Uniform { lo: 1, hi: 9 }, &mut rng);
            let mut m = Matching::new(g.vertex_count());
            for e in g.edges() {
                let _ = m.insert(*e);
            }
            for max_len in [1usize, 3, 5] {
                let gain =
                    searcher.best_augmentation_into(&g, &m, max_len, &mut added, &mut removed);
                match searcher.best_augmentation(&g, &m, max_len) {
                    Some(aug) => {
                        assert_eq!(gain, Some(aug.gain()));
                        let mut a = added.clone();
                        let mut r = removed.clone();
                        let mut ea = aug.added().to_vec();
                        let mut er = aug.removed().to_vec();
                        for v in [&mut a, &mut r, &mut ea, &mut er] {
                            v.sort_unstable_by_key(|e| (e.key(), e.weight));
                        }
                        assert_eq!(a, ea, "added sets agree");
                        assert_eq!(r, er, "removed sets agree");
                    }
                    None => assert_eq!(gain, None),
                }
            }
        }
    }

    /// A random multigraph: either orientation, with parallel copies.
    fn random_multigraph(rng: &mut StdRng, n: usize, edges: usize) -> Graph {
        let mut g = Graph::new(n);
        for _ in 0..edges {
            let u = rng.gen_range(0..n as Vertex);
            let v = (u + rng.gen_range(1..n as Vertex)) % n as Vertex;
            g.add_edge(u, v, rng.gen_range(1..=9));
            if rng.gen_bool(0.2) {
                g.add_edge(v, u, rng.gen_range(1..=9));
            }
        }
        g
    }

    /// The reference `converge` must reproduce: one full scan per
    /// applied augmentation.
    fn naive_converge(g: &Graph, m: &mut Matching, max_len: usize) -> u64 {
        let mut applied = 0;
        while let Some(aug) = best_augmentation(g, m, max_len) {
            aug.apply(m).unwrap();
            applied += 1;
        }
        applied
    }

    /// BFS depths from `seeds`, capped at `max_len + 1`.
    fn seed_distances(g: &Graph, seeds: &[Vertex], max_len: usize) -> Vec<u32> {
        let cap = max_len as u32 + 1;
        let mut dist = vec![cap; g.vertex_count()];
        let mut queue = std::collections::VecDeque::new();
        for &s in seeds {
            if dist[s as usize] != 0 {
                dist[s as usize] = 0;
                queue.push_back(s);
            }
        }
        while let Some(v) = queue.pop_front() {
            let d = dist[v as usize];
            for w in g.neighbors(v) {
                if dist[w as usize] == cap && d + 1 < cap {
                    dist[w as usize] = d + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    #[test]
    fn converge_reproduces_the_naive_loop() {
        let mut rng = StdRng::seed_from_u64(59);
        let mut searcher = AugSearcher::new();
        let mut total = 0;
        for trial in 0..60 {
            let n = rng.gen_range(4..16);
            let edges = rng.gen_range(n..3 * n);
            let g = random_multigraph(&mut rng, n, edges);
            // start from empty or from an arbitrary maximal matching
            let mut start = Matching::new(n);
            if trial % 2 == 1 {
                for e in g.edges() {
                    let _ = start.insert(*e);
                }
            }
            for max_len in [1usize, 3, 5] {
                let mut expect = start.clone();
                let k = naive_converge(&g, &mut expect, max_len);
                let mut got = start.clone();
                assert_eq!(searcher.converge(&g, &mut got, max_len), k, "trial {trial}");
                // `Matching` equality compares each vertex's edge as
                // stored, orientation included
                assert_eq!(got, expect, "trial {trial}, max_len {max_len}");
                total += k;
            }
        }
        assert!(total > 100, "the trials must apply augmentations ({total})");
    }

    /// `g` and `m` relabelled as the dynamic repair numbers a ball: the
    /// seeds first in ascending order, then BFS order from them, then
    /// every vertex the BFS missed. Edges are added from their smaller new
    /// endpoint, in new-id order. Returns the graph, the matching and the
    /// new id of each vertex.
    fn relabel_from_seeds(
        g: &Graph,
        m: &Matching,
        seeds: &[Vertex],
    ) -> (Graph, Matching, Vec<u32>) {
        let n = g.vertex_count();
        let mut order: Vec<Vertex> = seeds.to_vec();
        order.sort_unstable();
        order.dedup();
        let mut new_id = vec![u32::MAX; n];
        for (i, &v) in order.iter().enumerate() {
            new_id[v as usize] = i as u32;
        }
        let mut head = 0;
        while head < order.len() {
            let v = order[head];
            head += 1;
            for w in g.neighbors(v) {
                if new_id[w as usize] == u32::MAX {
                    new_id[w as usize] = order.len() as u32;
                    order.push(w);
                }
            }
        }
        for v in 0..n as Vertex {
            if new_id[v as usize] == u32::MAX {
                new_id[v as usize] = order.len() as u32;
                order.push(v);
            }
        }
        let mut rg = Graph::new(n);
        let mut rm = Matching::new(n);
        for (a, &v) in order.iter().enumerate() {
            let a = a as Vertex;
            for &eid in g.csr().edge_ids(v) {
                let e = g.edge(eid as usize);
                let b = new_id[e.other(v) as usize];
                if b > a {
                    rg.add_edge(a, b, e.weight);
                }
            }
            if let Some(me) = m.matched_edge(v) {
                let b = new_id[me.other(v) as usize];
                if b > a {
                    rm.insert(Edge::new(a, b, me.weight)).unwrap();
                }
            }
        }
        (rg, rm, new_id)
    }

    #[test]
    fn seeded_scan_equals_full_scan_after_local_changes() {
        let mut rng = StdRng::seed_from_u64(61);
        let mut searcher = AugSearcher::new();
        let (mut sa, mut sr, mut fa, mut fr) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut found = 0;
        // how often the two rim facts applied: rim starts after the last
        // seed in the relabelled form, and edges left out in the reduced
        let (mut rim_skips, mut dropped) = (0, 0);
        let (mut ra, mut rr, mut xa, mut xr) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for trial in 0..150 {
            let n = rng.gen_range(6..18);
            let edges = rng.gen_range(n..3 * n);
            let mut g = random_multigraph(&mut rng, n, edges);
            let max_len = [1usize, 3, 5][trial % 3];
            let mut m = Matching::new(n);
            searcher.converge(&g, &mut m, max_len);
            // perturb at random seeds: only walks through them can turn
            // positive, which is the seeded scan's precondition
            let mut seeds: Vec<Vertex> = Vec::new();
            let matched: Vec<Edge> = m.iter().collect();
            if trial % 2 == 0 && !matched.is_empty() {
                // delete a matched edge (one live copy of its pair)
                let me = matched[rng.gen_range(0..matched.len())];
                let mut dropped = false;
                let kept: Vec<Edge> = g
                    .edges()
                    .iter()
                    .copied()
                    .filter(|e| {
                        let hit = !dropped && e.key() == me.key() && e.weight == me.weight;
                        dropped |= hit;
                        !hit
                    })
                    .collect();
                g = Graph::from_edges(n, kept);
                m.remove_pair(me.u, me.v).unwrap();
                seeds.extend([me.u, me.v]);
            } else {
                // insert edges between seeds
                for _ in 0..rng.gen_range(1..4) {
                    let u = rng.gen_range(0..n as Vertex);
                    let v = (u + rng.gen_range(1..n as Vertex)) % n as Vertex;
                    g.add_edge(u, v, rng.gen_range(1..=12));
                    seeds.extend([u, v]);
                }
            }
            // fix-up: search, apply, and seed everything the winner touched
            loop {
                let dist = seed_distances(&g, &seeds, max_len);
                let seeded = searcher
                    .best_seeded_augmentation_into(&g, &m, max_len, &dist, &mut sa, &mut sr);
                let full = searcher.best_augmentation_into(&g, &m, max_len, &mut fa, &mut fr);
                assert_eq!(seeded, full, "trial {trial}: gains differ");
                assert_eq!(sa, fa, "trial {trial}: added edges differ");
                assert_eq!(sr, fr, "trial {trial}: removed edges differ");
                // (a) numbered as the repair numbers its ball: the seeds
                // come first, so every rim start is past the last seed
                let (rg, rm, new_id) = relabel_from_seeds(&g, &m, &seeds);
                let mut rdist = vec![0; n];
                for (v, &d) in dist.iter().enumerate() {
                    rdist[new_id[v] as usize] = d;
                }
                rim_skips += rdist.iter().filter(|&&d| d as usize == max_len).count();
                let got = searcher
                    .best_seeded_augmentation_into(&rg, &rm, max_len, &rdist, &mut ra, &mut rr);
                let want = searcher.best_augmentation_into(&rg, &rm, max_len, &mut xa, &mut xr);
                assert_eq!(got, want, "trial {trial}: relabelled gains differ");
                assert_eq!(ra, xa, "trial {trial}: relabelled added edges differ");
                assert_eq!(rr, xr, "trial {trial}: relabelled removed edges differ");
                assert_eq!(
                    got, full,
                    "trial {trial}: relabelling changed the best gain"
                );
                // (b) without the edges whose endpoints both lie at seed
                // distance max_len or more; the matching keeps them
                let far = |v: Vertex| dist[v as usize] as usize >= max_len;
                let near: Vec<Edge> = g
                    .edges()
                    .iter()
                    .copied()
                    .filter(|e| !(far(e.u) && far(e.v)))
                    .collect();
                dropped += g.edge_count() - near.len();
                let reduced = Graph::from_edges(n, near);
                let got = searcher
                    .best_seeded_augmentation_into(&reduced, &m, max_len, &dist, &mut ra, &mut rr);
                assert_eq!(got, full, "trial {trial}: reduced gains differ");
                assert_eq!(ra, fa, "trial {trial}: reduced added edges differ");
                assert_eq!(rr, fr, "trial {trial}: reduced removed edges differ");
                if seeded.is_none() {
                    break;
                }
                found += 1;
                for e in &sr {
                    m.remove_pair(e.u, e.v).unwrap();
                }
                for &e in &sa {
                    m.insert(e).unwrap();
                }
                seeds.extend(sa.iter().chain(&sr).flat_map(|e| [e.u, e.v]));
            }
            assert!(best_augmentation(&g, &m, max_len).is_none());
        }
        assert!(
            found > 50,
            "the perturbations must open augmentations ({found})"
        );
        assert!(rim_skips > 100, "rim starts must be skipped ({rim_skips})");
        assert!(dropped > 100, "far edges must be left out ({dropped})");
    }

    #[test]
    fn exhaustive_matches_optimal_when_unbounded() {
        // applying best augmentations repeatedly with large length bound
        // must reach the optimum on small graphs
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..15 {
            let g = generators::gnp(7, 0.5, WeightModel::Uniform { lo: 1, hi: 7 }, &mut rng);
            let opt_w = max_weight_matching(&g).weight();
            let mut m = Matching::new(g.vertex_count());
            while let Some(aug) = best_augmentation(&g, &m, 7) {
                aug.apply(&mut m).unwrap();
            }
            assert_eq!(m.weight(), opt_w);
        }
    }
}
