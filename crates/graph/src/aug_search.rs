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
//! * **the seeded search** ([`AugSearcher::best_augmentation_through`])
//!   keeps only walks through a *seed* vertex, and reads the graph in
//!   place through an adjacency closure. From each seed the DFS runs
//!   once, finding every walk that starts there and every cycle through
//!   it, and once more for each alternating prefix that leaves the seed
//!   along its matched edge, finding the walks with the seed inside. When
//!   every positive walk passes through a seed — the dynamic engine's
//!   locality argument: the seeds are whatever an update or a repair
//!   touched — it returns exactly what the full scan returns;
//! * **[`AugSearcher::converge`]** applies best augmentations until none
//!   is left, with one full scan up front and, after each applied
//!   augmentation, a re-search of only the starts with an alternating
//!   walk of at most `max_len` edges to a vertex whose mate it changed.
//!
//! All three keep the same *order-free winner*: the largest gain, and on
//! an exact tie the least *effect* — the sorted (endpoint pair, weight)
//! keys of the edges the augmentation adds, then those of the matched
//! edges it removes. A walk and its reverse, or any two walks that change
//! the matching the same way, have one effect, so the winner does not
//! depend on the order the walks are enumerated in: not on the vertex
//! numbering, the edge insertion order or the edge orientation. The
//! effect is computed only on an exact tie of the best gain, and the
//! winner's added edges are reported smaller endpoint first, so a
//! committed matching shows neither an edge's stored orientation nor
//! which of its equal parallel copies was found.
//!
//! `converge` bounds its re-searches by alternating reach, the way an
//! augmentation travels, not by plain BFS distance: the [`ParityBfs`]
//! gives each vertex the fewest edges of an alternating walk to a source
//! set, once per status (matched or not) of the walk's first edge.
//!
//! The searcher runs on the flat hot path: the full scan and `converge`
//! read the graph's cached [`CsrView`](crate::CsrView) slices, the seeded
//! search whatever store its closure reads, the visited set is
//! the [`Scratch`] arena's epoch-stamped set, reset in O(1) per
//! start vertex, and candidate gains are tracked incrementally along the
//! walk — the DFS inner loop performs no heap allocation (an
//! [`Augmentation`] is materialized only for the winning component). Reuse
//! one [`AugSearcher`] across calls to amortize even the walk buffers.

use crate::alternating::Augmentation;
use crate::edge::{Edge, Vertex};
use crate::graph::Graph;
use crate::matching::Matching;
use crate::scratch::{EpochMap, Scratch};

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

/// Parity distances to a source set: the BFS that bounds
/// [`AugSearcher::converge`]'s re-searches by alternating reach.
///
/// The *status* of an edge is *matched* when its endpoint pair is matched
/// (`m.contains(&e)`, so every parallel copy of a matched pair is
/// matched), else *unmatched*. The parity distance `alt[v][b]` is the
/// fewest edges of an alternating walk from `v` to a source whose first
/// edge has status `b` (0 unmatched, 1 matched): `[0, 0]` at the sources,
/// and `max_len + 1` where no such walk has at most `max_len` edges. It
/// is at least `v`'s BFS distance to the sources.
///
/// The BFS runs over (vertex, status) states. A state entered along an
/// edge of status `b` leaves only along edges of status `¬b`, and a
/// source leaves along both: the matched exit is one mate lookup, the
/// unmatched exits are the neighbours other than the mate. It reaches
/// every vertex with an alternating walk of at most `max_len` edges to a
/// source — the *alternating ball*.
///
/// The instance is read through two closures, so the same code runs on a
/// static [`Graph`] and on any other adjacency store. The vertex→slot map
/// is the caller's [`EpochMap`], and the rest grows only with the ball.
///
/// # Example
///
/// ```
/// use wmatch_graph::aug_search::ParityBfs;
/// use wmatch_graph::scratch::EpochMap;
/// use wmatch_graph::{generators, Matching};
///
/// // the path 0-1-2-3 with {1,2} matched, seeded at 0
/// let g = generators::path_graph(&[1, 1, 1]);
/// let m = Matching::from_edges(4, [g.edge(1)]).unwrap();
/// let (mut bfs, mut slots) = (ParityBfs::new(), EpochMap::new());
/// slots.ensure(4);
/// let csr = g.csr();
/// bfs.run([0], 3, &mut slots, |v| m.mate(v), |v| csr.neighbors(v).iter().copied());
/// let alt = |v| bfs.alt()[slots.get(v).unwrap() as usize];
/// assert_eq!(alt(0), [0, 0]);
/// assert_eq!(alt(1), [1, 4]); // 1 reaches 0 only along its unmatched edge
/// assert_eq!(alt(2), [4, 2]); // 2-1-0: matched, then unmatched
/// assert_eq!(alt(3), [3, 4]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ParityBfs {
    /// The vertices reached, by slot: in the order first reached.
    reached: Vec<Vertex>,
    /// Parity distances, by slot.
    alt: Vec<[u32; 2]>,
    /// The FIFO of states, `slot << 1 | status`.
    queue: Vec<u32>,
}

impl ParityBfs {
    /// An empty BFS.
    pub fn new() -> Self {
        ParityBfs::default()
    }

    /// Runs the BFS from `sources` (duplicates allowed) up to `max_len`
    /// edges. `mate(v)` is `v`'s mate and `neighbours(v)` the other
    /// endpoints of `v`'s edges; a neighbour equal to the mate is skipped,
    /// so parallel copies of a matched pair count as matched.
    ///
    /// `slots` must cover every vertex; it is cleared, and left mapping
    /// each reached vertex to its slot in [`ParityBfs::reached`] and
    /// [`ParityBfs::alt`]. Unreached vertices stay unbound.
    pub fn run<N: IntoIterator<Item = Vertex>>(
        &mut self,
        sources: impl IntoIterator<Item = Vertex>,
        max_len: usize,
        slots: &mut EpochMap<u32>,
        mate: impl Fn(Vertex) -> Option<Vertex>,
        neighbours: impl Fn(Vertex) -> N,
    ) {
        let cap = max_len as u32 + 1;
        self.reached.clear();
        self.alt.clear();
        self.queue.clear();
        slots.clear();
        for s in sources {
            if !slots.contains(s) {
                let slot = self.reached.len() as u32;
                slots.insert(s, slot);
                self.reached.push(s);
                self.alt.push([0, 0]);
                // a source leaves along both statuses
                self.queue.extend([slot << 1, slot << 1 | 1]);
            }
        }
        let mut head = 0;
        while head < self.queue.len() {
            let state = self.queue[head];
            head += 1;
            let (slot, entered) = ((state >> 1) as usize, (state & 1) as usize);
            let d = self.alt[slot][entered];
            if d as usize >= max_len {
                break; // FIFO order: every later state is this far too
            }
            let v = self.reached[slot];
            let mate_v = mate(v);
            if entered == 0 {
                if let Some(w) = mate_v {
                    self.reach(slots, w, 1, d + 1, cap);
                }
            } else {
                for w in neighbours(v) {
                    if Some(w) != mate_v {
                        self.reach(slots, w, 0, d + 1, cap);
                    }
                }
            }
        }
    }

    /// Enters state (`w`, `status`) at distance `d` unless already seen.
    #[inline]
    fn reach(&mut self, slots: &mut EpochMap<u32>, w: Vertex, status: usize, d: u32, cap: u32) {
        let slot = match slots.get(w) {
            Some(slot) => slot,
            None => {
                let slot = self.reached.len() as u32;
                slots.insert(w, slot);
                self.reached.push(w);
                self.alt.push([cap, cap]);
                slot
            }
        };
        let seen = &mut self.alt[slot as usize][status];
        if *seen == cap {
            *seen = d;
            self.queue.push(slot << 1 | status as u32);
        }
    }

    /// The vertices the last run reached, by slot: the alternating ball.
    pub fn reached(&self) -> &[Vertex] {
        &self.reached
    }

    /// The parity distances of the last run, by slot.
    pub fn alt(&self) -> &[[u32; 2]] {
        &self.alt
    }
}

/// An effect key: an edge's endpoint pair and weight.
type Key = ((Vertex, Vertex), u64);

/// A component's *effect*, the key of the order-free tie-break: the
/// sorted keys of the edges it adds (its unmatched edges), then those of
/// the edges it removes (the matched edges at its vertices), compared
/// field by field, each lexicographically.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Effect {
    added: Vec<Key>,
    removed: Vec<Key>,
}

impl Effect {
    /// Sets `self` to the effect of the component `walk` under `m`.
    fn of(&mut self, m: &Matching, walk: &[Edge]) {
        self.added.clear();
        self.removed.clear();
        for e in walk {
            if !m.contains(e) {
                self.added.push((e.key(), e.weight));
            }
            for x in [e.u, e.v] {
                if let Some(me) = m.matched_edge(x) {
                    self.removed.push((me.key(), me.weight));
                }
            }
        }
        self.added.sort_unstable();
        self.removed.sort_unstable();
        // a matched edge is seen once from each endpoint on the walk
        self.removed.dedup();
    }
}

/// The part of a seeded search a DFS frame belongs to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Branch {
    /// A walk from the start vertex: every frame of the full scan, and a
    /// seed's walks whose first edge is unmatched.
    #[default]
    Walk,
    /// A seed's walk whose first edge is the seed's matched edge. Each
    /// frame is also the prefix of an [`Branch::Extension`].
    Prefix,
    /// The other side of a prefix: from the seed along an unmatched edge,
    /// with the prefix's vertices visited. The walk is the prefix
    /// reversed, then this side, so the seed lies inside it; it closes no
    /// cycle, since every cycle through the seed is closed at the seed.
    Extension,
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
    /// Whether an exact tie on the best gain compares effects (a search
    /// for the winner) or keeps the first walk (a search for its gain).
    ties: bool,
    /// `best_walk`'s effect, computed on the first tie (`best_known`),
    /// and a tying candidate's.
    best_effect: Effect,
    best_known: bool,
    candidate: Effect,
    /// In an extension, the length of its prefix at the front of `walk`.
    prefix_len: usize,
    /// [`AugSearcher::converge`]'s best gain per start vertex.
    gains: Vec<i128>,
    /// [`AugSearcher::converge`]'s split of the current winner, and the
    /// starts that reach a vertex whose mate it changed.
    added: Vec<Edge>,
    removed: Vec<Edge>,
    stale: ParityBfs,
    /// Summed over every `converge` round: the starts re-searched, and
    /// the starts within BFS distance `max_len` of a changed vertex.
    #[cfg(test)]
    stale_counts: [usize; 2],
    /// Tie compares that met two different effects.
    #[cfg(test)]
    distinct_ties: usize,
    /// The branch that recorded the current winner, and whether it
    /// closed a cycle.
    #[cfg(test)]
    winner: (Branch, bool),
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
        self.search(g, m, max_len);
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
    /// The buffers hold the sets
    /// [`Augmentation::added`]/[`Augmentation::removed`] would: walk edges
    /// outside the matching, each smaller endpoint first, and the matching
    /// neighbourhood of the component (each matched edge once).
    pub fn best_augmentation_into(
        &mut self,
        g: &Graph,
        m: &Matching,
        max_len: usize,
        added: &mut Vec<Edge>,
        removed: &mut Vec<Edge>,
    ) -> Option<i128> {
        self.search(g, m, max_len);
        self.split_best(m, added, removed)
    }

    /// [`AugSearcher::best_augmentation_into`] restricted to walks through
    /// a *seed*, reading the graph in place: `incident(v)` yields the
    /// edges at `v` as stored, and `m` covers every vertex they name.
    /// Duplicate seeds only repeat work.
    ///
    /// From each seed `s` the DFS runs once, recording every walk that
    /// starts at `s` — reversed, every walk that ends there — and closing
    /// every cycle through `s`. A walk with `s` inside leaves `s` along
    /// its matched edge on one side and an unmatched edge on the other, so
    /// it is a walk from `s` whose first edge is `s`'s matched edge — a
    /// *prefix* — reversed, then a walk from `s` whose first edge is
    /// unmatched. Each prefix with edges to spare is a frame of that same
    /// DFS, and there the DFS runs once more from `s`, along unmatched
    /// edges, with the prefix's vertices visited. So the search enumerates
    /// exactly the walks of at most `max_len` edges through a seed, and
    /// keeps the order-free winner among them (see the module docs),
    /// whatever order the seeds and `incident` come in.
    ///
    /// When every positive walk of at most `max_len` edges passes through
    /// a seed, that is exactly the full scan's result: a walk without one
    /// has gain ≤ 0, which the full scan never records either.
    ///
    /// # Panics
    ///
    /// Panics if a seed or an endpoint of an edge the search reaches is
    /// not a vertex of `m`.
    ///
    /// # Example
    ///
    /// ```
    /// use wmatch_graph::{Edge, Graph, Matching, aug_search::AugSearcher};
    ///
    /// // the path 0-1-2-3 with {1,2} matched, and the edge 4-5 apart
    /// let mut g = Graph::new(6);
    /// g.add_edge(0, 1, 3);
    /// g.add_edge(1, 2, 1);
    /// g.add_edge(2, 3, 3);
    /// g.add_edge(4, 5, 9);
    /// let m = Matching::from_edges(6, [Edge::new(1, 2, 1)]).unwrap();
    /// let csr = g.csr();
    /// let incident = |v| csr.edge_ids(v).iter().map(|&id| g.edge(id as usize));
    /// let (mut added, mut removed) = (Vec::new(), Vec::new());
    /// let mut s = AugSearcher::new();
    /// // from the end 0, the walk 0-1=2-3 swaps {1,2} for its wings
    /// let gain = s.best_augmentation_through(&m, 3, &[0], incident, &mut added, &mut removed);
    /// assert_eq!(gain, Some(5));
    /// assert_eq!(added, [Edge::new(0, 1, 3), Edge::new(2, 3, 3)]);
    /// // 1 lies inside it: the prefix 1=2-3, reversed, then the edge 1-0
    /// let gain = s.best_augmentation_through(&m, 3, &[1], incident, &mut added, &mut removed);
    /// assert_eq!(gain, Some(5));
    /// // the full scan takes the heavier edge, which no seed reaches
    /// let gain = s.best_augmentation_into(&g, &m, 3, &mut added, &mut removed);
    /// assert_eq!(gain, Some(9));
    /// ```
    pub fn best_augmentation_through<I: IntoIterator<Item = Edge>>(
        &mut self,
        m: &Matching,
        max_len: usize,
        seeds: &[Vertex],
        incident: impl Fn(Vertex) -> I,
        added: &mut Vec<Edge>,
        removed: &mut Vec<Edge>,
    ) -> Option<i128> {
        self.prepare(m.vertex_count(), max_len);
        for &s in seeds {
            self.search_from::<true, _, _>(&incident, m, max_len, s);
        }
        self.split_best(m, added, removed)
    }

    /// Applies best augmentations to `m` until none with positive gain
    /// and at most `max_len` edges remains; returns how many it applied.
    ///
    /// The result is the matching of the naive loop that applies the full
    /// scan's winner until there is none (committing each added edge
    /// smaller endpoint first), augmentation for augmentation, without its
    /// full scan per augmentation. One full scan caches each start
    /// vertex's best gain. The winner's gain is the best cached one, and
    /// only the starts that cached it have a walk of that gain, so those
    /// starts alone are searched again, comparing effects across them: a
    /// path is found from both of its ends, so that is usually two
    /// searches. No effect is cached.
    ///
    /// After an augmentation, only the starts with an alternating walk of
    /// at most `max_len` edges to a *changed* vertex — an endpoint of an
    /// added or removed edge — are searched again: the [`ParityBfs`] from
    /// the changed vertices on the new matching. The graph does not
    /// change, and a start's DFS reads the matching only at the start and
    /// at the vertices it steps onto. Up to its first changed vertex, a
    /// walk reads every edge's status through an endpoint that kept its
    /// mate, so it alternates the same way before and after; a start with
    /// no such walk to a changed vertex therefore explores the same walks
    /// with the same gains, and its cached gain stays current.
    ///
    /// Each winner is split into searcher-owned buffers and applied as
    /// removals then inserts, so once the searcher has run on a graph of
    /// this size, `converge` does not allocate.
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
        let csr = g.csr();
        let adj = |v: Vertex| csr.edge_ids(v).iter().map(move |&id| g.edge(id as usize));
        self.gains.clear();
        self.gains.resize(n, 0);
        for start in 0..n as Vertex {
            self.gains[start as usize] = self.start_gain(&adj, m, max_len, start);
        }
        let mut applied = 0;
        loop {
            let best = self.gains.iter().copied().max().unwrap_or(0);
            if best <= 0 {
                break;
            }
            // the full scan's winner, from the starts tied on its gain
            self.reset_best(true);
            for start in 0..n {
                if self.gains[start] == best {
                    self.search_from::<false, _, _>(&adj, m, max_len, start as Vertex);
                }
            }
            debug_assert_eq!(self.best_gain, best, "cached gains are current");
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
            self.added = added;
            self.removed = removed;
            // the changed vertices: the endpoints of its added and
            // removed edges
            self.stale.run(
                self.added
                    .iter()
                    .chain(&self.removed)
                    .flat_map(|e| [e.u, e.v]),
                max_len,
                &mut self.scratch.count,
                |v| m.mate(v),
                |v| csr.neighbors(v).iter().copied(),
            );
            for i in 0..self.stale.reached().len() {
                let v = self.stale.reached()[i];
                self.gains[v as usize] = self.start_gain(&adj, m, max_len, v);
            }
            #[cfg(any(test, feature = "lockstep"))]
            self.check_stale_set(g, m, max_len);
        }
        applied
    }

    /// `converge`'s check after each round of re-searches, in test builds
    /// and under the `lockstep` feature: every start's cached gain equals
    /// a fresh search, and the parity stale set lies inside the
    /// BFS-radius set it replaces (in test builds both sizes are summed
    /// into `stale_counts`).
    #[cfg(any(test, feature = "lockstep"))]
    fn check_stale_set(&mut self, g: &Graph, m: &Matching, max_len: usize) {
        let mut near = vec![false; g.vertex_count()];
        let mut frontier: Vec<Vertex> = self
            .added
            .iter()
            .chain(&self.removed)
            .flat_map(|e| [e.u, e.v])
            .collect();
        for &x in &frontier {
            near[x as usize] = true;
        }
        for _ in 0..max_len {
            for v in std::mem::take(&mut frontier) {
                for w in g.neighbors(v) {
                    if !near[w as usize] {
                        near[w as usize] = true;
                        frontier.push(w);
                    }
                }
            }
        }
        let stale = self.stale.reached();
        assert!(
            stale.iter().all(|&v| near[v as usize]),
            "parity distance is at least BFS distance"
        );
        #[cfg(test)]
        {
            self.stale_counts[0] += stale.len();
            self.stale_counts[1] += near.iter().filter(|&&x| x).count();
        }
        let csr = g.csr();
        let adj = |v: Vertex| csr.edge_ids(v).iter().map(move |&id| g.edge(id as usize));
        for v in 0..g.vertex_count() as Vertex {
            let cached = self.gains[v as usize];
            assert_eq!(
                cached,
                self.start_gain(&adj, m, max_len, v),
                "cached gains are current"
            );
        }
    }

    /// Sizes the scratch for an `n`-vertex search and resets the winner.
    fn prepare(&mut self, n: usize, max_len: usize) {
        self.scratch.begin(n);
        self.walk.clear();
        self.walk.reserve(max_len + 1);
        self.best_walk.clear();
        self.best_walk.reserve(max_len + 1);
        for effect in [&mut self.best_effect, &mut self.candidate] {
            effect.added.clear();
            effect.added.reserve(max_len + 1);
            effect.removed.clear();
            effect.removed.reserve(2 * max_len + 2);
        }
        self.reset_best(true);
    }

    /// Forgets the winner; `ties` says whether the next search compares
    /// effects on a tie.
    fn reset_best(&mut self, ties: bool) {
        self.best_gain = 0;
        self.best_known = false;
        self.ties = ties;
    }

    /// The best gain (0 if none is positive) over the walks from `start`
    /// alone, with no effect compared.
    fn start_gain<F, I>(&mut self, adj: &F, m: &Matching, max_len: usize, start: Vertex) -> i128
    where
        F: Fn(Vertex) -> I,
        I: IntoIterator<Item = Edge>,
    {
        self.reset_best(false);
        self.search_from::<false, F, I>(adj, m, max_len, start);
        self.best_gain
    }

    /// The full scan: the DFS from every start vertex, leaving the winner
    /// (if any) in `best_walk`/`best_gain`.
    fn search(&mut self, g: &Graph, m: &Matching, max_len: usize) {
        let n = g.vertex_count();
        self.prepare(n, max_len);
        let csr = g.csr();
        let adj = |v: Vertex| csr.edge_ids(v).iter().map(move |&id| g.edge(id as usize));
        for start in 0..n as Vertex {
            self.search_from::<false, _, _>(&adj, m, max_len, start);
        }
    }

    /// The DFS over simple alternating walks from `start` (with the
    /// extensions of [`AugSearcher::best_augmentation_through`] when
    /// `SEEDED`), offering each to the running winner.
    #[inline(always)]
    fn search_from<const SEEDED: bool, F, I>(
        &mut self,
        adj: &F,
        m: &Matching,
        max_len: usize,
        start: Vertex,
    ) where
        F: Fn(Vertex) -> I,
        I: IntoIterator<Item = Edge>,
    {
        self.scratch.visited.clear();
        self.scratch.visited.insert(start);
        self.walk.clear();
        // the start vertex's matched edge is in the neighbourhood of
        // every non-empty prefix
        let removed = m.incident_weight(start) as i128;
        self.dfs::<SEEDED, F, I>(
            adj,
            m,
            start,
            start,
            None,
            max_len,
            0,
            removed,
            Branch::Walk,
        );
    }

    /// Decomposes the recorded winner into `added` (each edge smaller
    /// endpoint first) and `removed` (both cleared first) and returns its
    /// gain, or `None` if nothing positive was recorded.
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
                let (u, v) = e.key();
                added.push(Edge::new(u, v, e.weight));
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

    /// Whether a walk of gain `gain` is offered to the running winner:
    /// it beats the best gain, or ties it while ties count.
    #[inline(always)]
    fn offered(&self, gain: i128) -> bool {
        gain > self.best_gain || (self.ties && gain == self.best_gain && gain > 0)
    }

    /// Offers the component in `walk`, of positive gain `gain ≥
    /// best_gain`, to the running winner: a larger gain replaces it, and
    /// an exact tie only with a smaller effect, when ties count. The
    /// winner is kept as a walk: an extension's prefix reversed, then the
    /// rest.
    #[inline(never)]
    #[cfg_attr(not(test), allow(unused_variables))]
    fn offer(&mut self, m: &Matching, gain: i128, branch: Branch, cycle: bool) {
        if gain == self.best_gain {
            self.candidate.of(m, &self.walk);
            if !self.best_known {
                self.best_effect.of(m, &self.best_walk);
                self.best_known = true;
            }
            #[cfg(test)]
            if self.candidate != self.best_effect {
                self.distinct_ties += 1;
            }
            if self.candidate >= self.best_effect {
                return;
            }
            std::mem::swap(&mut self.candidate, &mut self.best_effect);
        } else {
            self.best_gain = gain;
            self.best_known = false;
        }
        let (prefix, rest) = self.walk.split_at(self.prefix_len);
        self.best_walk.clear();
        self.best_walk.extend(prefix.iter().rev());
        self.best_walk.extend_from_slice(rest);
        #[cfg(test)]
        {
            self.winner = (branch, cycle);
        }
    }

    /// Extends the walk edge by edge, carrying the component gain
    /// (`added − removed`, with the matching neighbourhood deduplicated
    /// via the visited marks) in the recursion frame so every prefix is
    /// evaluated without materializing an [`Augmentation`].
    #[allow(clippy::too_many_arguments)]
    fn dfs<const SEEDED: bool, F, I>(
        &mut self,
        adj: &F,
        m: &Matching,
        start: Vertex,
        cur: Vertex,
        last_in_m: Option<bool>,
        max_len: usize,
        added: i128,
        removed: i128,
        branch: Branch,
    ) where
        F: Fn(Vertex) -> I,
        I: IntoIterator<Item = Edge>,
    {
        if self.walk.len() >= max_len {
            return;
        }
        for e in adj(cur) {
            let in_m = m.contains(&e);
            if let Some(last) = last_in_m {
                if in_m == last {
                    continue; // must alternate
                }
            }
            let next = e.other(cur);
            if next == start && self.walk.len() >= 2 {
                // closing a cycle: alternation must hold around the joint
                // too
                if !SEEDED || branch != Branch::Extension {
                    let first_in_m = m.contains(&self.walk[0]);
                    // both endpoints are already on the walk: the closing
                    // edge changes only the added weight
                    let gain = added + if in_m { 0 } else { e.weight as i128 } - removed;
                    if in_m != first_in_m
                        && (self.walk.len() + 1).is_multiple_of(2)
                        && self.offered(gain)
                    {
                        self.walk.push(e);
                        self.offer(m, gain, branch, true);
                        self.walk.pop();
                    }
                }
                continue;
            }
            if self.scratch.visited.contains(next) {
                continue;
            }
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
            if self.offered(gain) {
                self.offer(m, gain, branch, false);
            }
            // a seed's walk that leaves along its matched edge is a prefix
            let branch = if SEEDED && self.walk.len() == 1 && in_m {
                Branch::Prefix
            } else {
                branch
            };
            self.dfs::<SEEDED, F, I>(
                adj,
                m,
                start,
                next,
                Some(in_m),
                max_len,
                added,
                removed,
                branch,
            );
            if SEEDED && branch == Branch::Prefix && self.walk.len() < max_len {
                // the walks with this prefix on the seed's matched side:
                // continue them from the seed along an unmatched edge
                self.prefix_len = self.walk.len();
                self.dfs::<SEEDED, F, I>(
                    adj,
                    m,
                    start,
                    start,
                    Some(true),
                    max_len,
                    added,
                    removed,
                    Branch::Extension,
                );
                self.prefix_len = 0;
            }
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
    /// applied augmentation, committing each added edge smaller endpoint
    /// first.
    fn naive_converge(g: &Graph, m: &mut Matching, max_len: usize) -> u64 {
        let mut applied = 0;
        while let Some(aug) = best_augmentation(g, m, max_len) {
            for e in aug.removed() {
                m.remove_pair(e.u, e.v).unwrap();
            }
            for e in aug.added() {
                let (u, v) = e.key();
                m.insert(Edge::new(u, v, e.weight)).unwrap();
            }
            applied += 1;
        }
        applied
    }

    /// `g` with its edges in a random insertion order, each flipped to
    /// the other orientation at random.
    fn shuffled(rng: &mut StdRng, g: &Graph) -> Graph {
        let mut edges = g.edges().to_vec();
        for i in (1..edges.len()).rev() {
            edges.swap(i, rng.gen_range(0..=i));
        }
        for e in &mut edges {
            if rng.gen_bool(0.5) {
                *e = Edge::new(e.v, e.u, e.weight);
            }
        }
        Graph::from_edges(g.vertex_count(), edges)
    }

    /// Edges as their sorted (endpoint pair, weight) keys.
    fn keys(edges: &[Edge]) -> Vec<Key> {
        let mut keys: Vec<Key> = edges.iter().map(|e| (e.key(), e.weight)).collect();
        keys.sort_unstable();
        keys
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

    #[test]
    fn converge_reproduces_the_naive_loop_at_churn_scale() {
        // the dynamic benchmark's churn graph, shrunk: G(n, 5/n) from an
        // arrival-order greedy matching, where the parity stale set must
        // be a strict cut of the BFS-radius one
        let mut searcher = AugSearcher::new();
        let mut total = 0;
        for seed in 0..2 {
            let mut rng = StdRng::seed_from_u64(67 + seed);
            let n = 600;
            let g = generators::gnp(
                n,
                5.0 / n as f64,
                WeightModel::Uniform { lo: 1, hi: 100 },
                &mut rng,
            );
            let mut start = Matching::new(n);
            for e in g.edges() {
                let _ = start.insert(*e);
            }
            for max_len in [3usize, 5] {
                let mut expect = start.clone();
                let k = naive_converge(&g, &mut expect, max_len);
                let mut got = start.clone();
                assert_eq!(searcher.converge(&g, &mut got, max_len), k, "seed {seed}");
                assert_eq!(got, expect, "seed {seed}, max_len {max_len}");
                total += k;
            }
        }
        assert!(total > 100, "the runs must apply augmentations ({total})");
        let [parity, bfs] = searcher.stale_counts;
        assert!(
            parity < bfs,
            "parity stale starts {parity} must undercut the BFS-radius {bfs}"
        );
    }

    #[test]
    fn full_scan_winner_is_order_free() {
        // small weights make gain ties common; the winner (gain and
        // effect) and the converged matching must not depend on the edge
        // insertion order or orientation
        let mut rng = StdRng::seed_from_u64(71);
        let mut searcher = AugSearcher::new();
        let (mut a1, mut r1, mut a2, mut r2) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut found = 0;
        for trial in 0..400 {
            let n = rng.gen_range(4..14);
            let edges = rng.gen_range(n..3 * n);
            let mut g = Graph::new(n);
            for _ in 0..edges {
                let u = rng.gen_range(0..n as Vertex);
                let v = (u + rng.gen_range(1..n as Vertex)) % n as Vertex;
                let w = rng.gen_range(1..=3);
                g.add_edge(u, v, w);
                if rng.gen_bool(0.3) {
                    g.add_edge(v, u, rng.gen_range(1..=3));
                }
            }
            let mut start = Matching::new(n);
            if trial % 2 == 1 {
                for e in g.edges() {
                    let _ = start.insert(*e);
                }
            }
            let h = shuffled(&mut rng, &g);
            for max_len in [1usize, 3, 5] {
                let got = searcher.best_augmentation_into(&g, &start, max_len, &mut a1, &mut r1);
                let want = searcher.best_augmentation_into(&h, &start, max_len, &mut a2, &mut r2);
                assert_eq!(got, want, "trial {trial}, max_len {max_len}: gains differ");
                assert_eq!(keys(&a1), keys(&a2), "trial {trial}: added edges differ");
                assert_eq!(keys(&r1), keys(&r2), "trial {trial}: removed edges differ");
                found += usize::from(got.is_some());
                let (mut mg, mut mh) = (start.clone(), start.clone());
                let k = searcher.converge(&g, &mut mg, max_len);
                assert_eq!(searcher.converge(&h, &mut mh, max_len), k);
                assert_eq!(mg, mh, "trial {trial}, max_len {max_len}: converge differs");
            }
        }
        assert!(found > 300, "the trials must find augmentations ({found})");
        let ties = searcher.distinct_ties;
        assert!(
            ties > 100,
            "the trials must tie on gain between different effects ({ties})"
        );
    }

    #[test]
    fn seeded_scan_equals_full_scan_after_local_changes() {
        let mut rng = StdRng::seed_from_u64(61);
        let mut searcher = AugSearcher::new();
        let (mut sa, mut sr, mut fa, mut fr) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut found = 0;
        // how often the winner came from a prefix's extension (a seed
        // inside the walk) and from a cycle closed at a seed
        let (mut extensions, mut cycles) = (0, 0);
        for trial in 0..6000 {
            let n = rng.gen_range(6..14);
            let edges = rng.gen_range(n..4 * n);
            let mut g = random_multigraph(&mut rng, n, edges);
            // only max_len 5 has room for a cycle
            let max_len = [1usize, 3, 5, 5, 5, 5][trial % 6];
            let mut m = Matching::new(n);
            searcher.converge(&g, &mut m, max_len);
            // perturb at random seeds: only walks through them can turn
            // positive, which is the seeded search's precondition
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
            // the seeded search reads a shuffled, flipped copy in place
            // through its CSR; fix-up: search, apply, and seed everything
            // the winner touched
            let h = shuffled(&mut rng, &g);
            let csr = h.csr();
            let incident = |v| csr.edge_ids(v).iter().map(|&id| h.edge(id as usize));
            loop {
                let seeded = searcher
                    .best_augmentation_through(&m, max_len, &seeds, incident, &mut sa, &mut sr);
                let winner = searcher.winner;
                let full = searcher.best_augmentation_into(&g, &m, max_len, &mut fa, &mut fr);
                assert_eq!(seeded, full, "trial {trial}: gains differ");
                assert_eq!(keys(&sa), keys(&fa), "trial {trial}: added edges differ");
                assert_eq!(keys(&sr), keys(&fr), "trial {trial}: removed edges differ");
                if seeded.is_none() {
                    break;
                }
                found += 1;
                extensions += usize::from(winner.0 == Branch::Extension);
                cycles += usize::from(winner.1);
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
        assert!(
            extensions > 100,
            "prefix extensions must produce winners ({extensions} of {found}, {cycles} cycles)"
        );
        assert!(
            cycles > 100,
            "cycles must produce winners ({cycles} of {found}, {extensions} extensions)"
        );
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
