//! The random-walk augmentation engine, à la Angriman et al.
//! (arXiv 2104.13098) — seed-keyed and fully deterministic.
//!
//! [`RandomWalkMatcher`] repairs with **alternating random walks** instead
//! of exhaustive ball search. After each structural change, a handful of
//! walks start at the free endpoints of the touched pair: each step picks
//! a uniformly random live edge to an unvisited vertex, tentatively
//! removes the reached vertex's matched edge, and continues from the
//! freed mate — tracking the cumulative gain of every alternating-path
//! prefix and applying the best strictly-positive one found. A walk is
//! O(`walk_len` · degree) with no ball construction at all, which is the
//! engineered bet of the random-walk heuristics: most repair opportunity
//! sits within a few hops of the update, and a cheap randomized probe
//! finds it.
//!
//! # The floor
//!
//! Walks alone certify nothing, so after the walks every update runs one
//! *single-edge* fix-up sweep (`RepairKit::fix_up` at
//! `max_len = 1`) over the touched vertices. This restores **local
//! dominance**: no live edge `e` has weight exceeding the matched weight
//! adjacent to it (Definition 4.4 neighbourhood-gain semantics). Charging
//! each optimal edge to the matched edges at its endpoints — each matched
//! edge absorbs at most two such charges — gives `w(M*) ≤ 2·w(M)`, a ½
//! floor maintained after every update, independent of where the walks
//! wandered. The walks buy quality *above* the floor; the dominance sweep
//! guarantees it.
//!
//! # Determinism
//!
//! All randomness is drawn from a [`StdRng`] keyed by `(seed, lifetime
//! update index)`, and candidate edges are enumerated in the
//! [`DynGraph`]'s insertion-order adjacency — replaying a stream is
//! bit-identical for any thread count (the engine never touches a pool).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wmatch_graph::scratch::EpochSet;
use wmatch_graph::{Edge, Graph, Matching, Vertex};

use crate::dyngraph::DynGraph;
use crate::engine::{DynamicCounters, UpdateEngine, UpdateStats};
use crate::error::DynamicError;
use crate::repair::{keep_valid, FixOutcome, RepairKit};
use crate::update::UpdateOp;

/// Configuration of the random-walk engine: walk shape and seed.
///
/// Follows the workspace's config idiom: `Default` + chainable `with_*`
/// setters, `#[non_exhaustive]` so fields can grow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct RandomWalkConfig {
    /// Maximum unmatched-edge steps per walk (the alternating path the
    /// walk builds has at most this many inserted edges).
    pub walk_len: usize,
    /// Walks attempted per update (alternating between the two touched
    /// endpoints as starting points; walks from matched vertices are
    /// skipped — only free vertices can head an augmenting path).
    pub trials: usize,
    /// Seed of the walk randomness. Walk `t` of lifetime update `i`
    /// draws from a [`StdRng`] keyed by `(seed, i)` — replay a stream
    /// with the same seed and every choice repeats.
    pub seed: u64,
}

impl Default for RandomWalkConfig {
    /// 8-step walks, 4 trials per update, seed 0.
    fn default() -> Self {
        RandomWalkConfig {
            walk_len: 8,
            trials: 4,
            seed: 0,
        }
    }
}

impl RandomWalkConfig {
    /// The default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the maximum steps per walk.
    pub fn with_walk_len(mut self, walk_len: usize) -> Self {
        self.walk_len = walk_len;
        self
    }

    /// Sets the walks attempted per update.
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The random-walk augmentation-repair engine; see the
/// [module docs](self).
///
/// # Example
///
/// ```
/// use wmatch_dynamic::{RandomWalkConfig, RandomWalkMatcher, UpdateOp};
///
/// let mut eng = RandomWalkMatcher::new(4, RandomWalkConfig::default());
/// eng.apply(UpdateOp::insert(0, 1, 5)).unwrap();
/// eng.apply(UpdateOp::insert(1, 2, 9)).unwrap();
/// assert_eq!(eng.matching().weight(), 9); // the heavier edge wins
/// ```
#[derive(Debug)]
pub struct RandomWalkMatcher {
    g: DynGraph,
    m: Matching,
    cfg: RandomWalkConfig,
    /// Shared repair kernel: journals every mutation (unified recourse)
    /// and runs the single-edge dominance sweep.
    kit: RepairKit,
    counters: DynamicCounters,
    walks_taken: u64,
    walk_hits: u64,
    // walk scratch, persistent so steady-state walks allocate nothing
    visited: EpochSet,
    candidates: Vec<Edge>,
    path_added: Vec<Edge>,
    path_removed: Vec<Edge>,
}

impl RandomWalkMatcher {
    /// An engine over an initially edgeless graph on `n` vertices.
    pub fn new(n: usize, cfg: RandomWalkConfig) -> Self {
        RandomWalkMatcher {
            g: DynGraph::new(n),
            m: Matching::new(n),
            cfg,
            kit: RepairKit::new(),
            counters: DynamicCounters::default(),
            walks_taken: 0,
            walk_hits: 0,
            visited: EpochSet::new(),
            candidates: Vec::new(),
            path_added: Vec::new(),
            path_removed: Vec::new(),
        }
    }

    /// An engine seeded with an initial graph, bootstrapped to local
    /// dominance (greedy-by-weight already satisfies it; the initial
    /// solve is not counted as recourse).
    ///
    /// # Errors
    ///
    /// [`DynamicError::ZeroWeight`] if the initial graph carries a
    /// zero-weight edge.
    pub fn from_graph(initial: &Graph, cfg: RandomWalkConfig) -> Result<Self, DynamicError> {
        let mut eng = RandomWalkMatcher::new(initial.vertex_count(), cfg);
        eng.g = DynGraph::from_graph(initial)?;
        eng.m = crate::engine::static_bounded_matching(initial, 1, &mut eng.kit.searcher);
        Ok(eng)
    }

    /// The engine's configuration.
    pub fn config(&self) -> &RandomWalkConfig {
        &self.cfg
    }

    /// The maintained matching (locally dominant — the ½ floor — after
    /// every update).
    pub fn matching(&self) -> &Matching {
        &self.m
    }

    /// The live graph.
    pub fn graph(&self) -> &DynGraph {
        &self.g
    }

    /// Lifetime counters.
    pub fn counters(&self) -> DynamicCounters {
        self.counters
    }

    /// Walks attempted across all updates.
    pub fn walks_taken(&self) -> u64 {
        self.walks_taken
    }

    /// Walks that found and applied a positive alternating prefix.
    pub fn walk_hits(&self) -> u64 {
        self.walk_hits
    }

    /// Always 0: the engine is walk-local and never touches a worker
    /// pool (kept for telemetry parity with the pooled engines).
    pub fn steals(&self) -> u64 {
        0
    }

    /// The largest dense scratch footprint the dominance sweep has used.
    pub fn scratch_high_water(&self) -> usize {
        self.kit.scratch_high_water()
    }

    /// The approximation floor local dominance certifies: ½.
    pub fn certified_floor(&self) -> f64 {
        0.5
    }

    /// Applies one update: structural change, seeded random walks from
    /// the touched endpoints, then the single-edge dominance sweep.
    ///
    /// # Errors
    ///
    /// A [`DynamicError`] for malformed operations (the engine is
    /// unchanged and nothing is counted).
    pub fn apply(&mut self, op: UpdateOp) -> Result<UpdateStats, DynamicError> {
        let mut stats = UpdateStats::default();
        self.kit.begin_update();
        self.g.apply(op)?;
        stats.gain = keep_valid(&mut self.kit, &self.g, &mut self.m, op).unwrap_or(0);
        let (u, v) = op.endpoints();
        // dominance-sweep seeds: the touched endpoints plus (below)
        // everything an applied walk changed
        self.kit.dirty.clear();
        self.kit.dirty.extend([u, v]);
        // walk randomness keyed by (seed, lifetime update index): replay
        // is bit-identical, and consecutive updates de-correlate
        let idx = self.counters.updates_applied;
        let mut rng = StdRng::seed_from_u64(
            self.cfg
                .seed
                .wrapping_add(idx.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        );
        for t in 0..self.cfg.trials {
            let start = if t % 2 == 0 { u } else { v };
            if self.m.matched_edge(start).is_some() {
                continue; // only a free vertex can head an augmenting path
            }
            self.walks_taken += 1;
            if let Some(gain) = self.walk_and_apply(start, &mut rng) {
                self.walk_hits += 1;
                stats.gain += gain;
                stats.augmentations += 1;
            }
        }
        // restore local dominance (the ½ floor) around everything touched
        let fix: FixOutcome = self.kit.fix_up(&self.g, &mut self.m, 1);
        stats.gain += fix.gain;
        stats.augmentations += fix.augmentations;
        stats.recourse = self.kit.net_recourse();
        self.counters.updates_applied += 1;
        self.counters.augmentations_applied += stats.augmentations;
        self.counters.recourse_total += stats.recourse;
        Ok(stats)
    }

    /// One alternating random walk from the free vertex `start`: builds a
    /// tentative alternating path (unmatched edge in, matched edge out),
    /// then applies the best strictly-positive prefix, journalling every
    /// mutation and extending the dirty seeds. Returns the applied gain.
    fn walk_and_apply(&mut self, start: Vertex, rng: &mut StdRng) -> Option<i128> {
        let n = self.g.vertex_count();
        self.visited.ensure(n);
        self.visited.clear();
        self.visited.insert(start);
        self.path_added.clear();
        self.path_removed.clear();
        let mut x = start;
        let mut run_gain: i128 = 0;
        let mut best: Option<(i128, usize, usize)> = None; // (gain, added, removed)
        for _ in 0..self.cfg.walk_len {
            // candidates: live edges to unvisited vertices whose mates
            // (if any) are also unvisited — keeps the tentative prefix a
            // simple alternating path with exact gains
            self.candidates.clear();
            for e in self.g.incident(x) {
                let y = e.other(x);
                if self.visited.contains(y) {
                    continue;
                }
                if let Some(me) = self.m.matched_edge(y) {
                    if self.visited.contains(me.other(y)) {
                        continue;
                    }
                }
                self.candidates.push(e);
            }
            if self.candidates.is_empty() {
                break;
            }
            let picked = self.candidates[rng.gen_range(0..self.candidates.len())];
            let y = picked.other(x);
            // always step along the *heaviest* live copy of the chosen
            // pair: a lighter matched copy under a heavier live one is a
            // dominance violation no 1-edge augmentation can express
            let w_best = self
                .g
                .incident(x)
                .filter(|c| c.other(x) == y)
                .map(|c| c.weight)
                .max()
                .unwrap_or(picked.weight);
            let e = Edge::new(x, y, w_best);
            self.visited.insert(y);
            self.path_added.push(e);
            run_gain += e.weight as i128;
            match self.m.matched_edge(y) {
                None => {
                    // y is free: the prefix ends on an augmenting path
                    if run_gain > best.map_or(0, |(g, _, _)| g) {
                        best = Some((run_gain, self.path_added.len(), self.path_removed.len()));
                    }
                    break; // an alternating walk cannot pass a free vertex
                }
                Some(me) => {
                    let z = me.other(y);
                    self.visited.insert(z);
                    self.path_removed.push(me);
                    run_gain -= me.weight as i128;
                    if run_gain > best.map_or(0, |(g, _, _)| g) {
                        best = Some((run_gain, self.path_added.len(), self.path_removed.len()));
                    }
                    x = z;
                }
            }
        }
        let (gain, added, removed) = best?;
        for i in 0..removed {
            let e = self.path_removed[i];
            let got = self.m.remove_pair(e.u, e.v).expect("edge was matched");
            debug_assert_eq!(got.key(), e.key());
            self.kit.journal.push((got, false));
            self.kit.dirty.extend([e.u, e.v]);
        }
        for i in 0..added {
            let e = self.path_added[i];
            self.m.insert(e).expect("prefix endpoints are free");
            self.kit.journal.push((e, true));
            self.kit.dirty.extend([e.u, e.v]);
        }
        Some(gain)
    }
}

impl UpdateEngine for RandomWalkMatcher {
    fn apply(&mut self, op: UpdateOp) -> Result<UpdateStats, DynamicError> {
        RandomWalkMatcher::apply(self, op)
    }

    fn matching(&self) -> &Matching {
        RandomWalkMatcher::matching(self)
    }

    fn graph(&self) -> &DynGraph {
        RandomWalkMatcher::graph(self)
    }

    fn counters(&self) -> DynamicCounters {
        RandomWalkMatcher::counters(self)
    }

    fn declared_floor(&self) -> f64 {
        self.certified_floor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmatch_graph::exact::max_weight_matching;

    /// Local dominance, checked by brute force on a snapshot: no live
    /// edge outweighs the matched weight adjacent to it.
    fn assert_dominant(eng: &RandomWalkMatcher) {
        let snap = eng.graph().snapshot();
        eng.matching()
            .validate(Some(&snap))
            .expect("valid matching");
        for e in snap.edges() {
            let adj: i128 = [e.u, e.v]
                .iter()
                .filter_map(|&v| eng.matching().matched_edge(v))
                .map(|me| me.weight as i128)
                .sum();
            assert!(
                (e.weight as i128) <= adj,
                "edge {}-{}@{} dominates the matching",
                e.u,
                e.v,
                e.weight
            );
        }
    }

    #[test]
    fn walks_pick_up_simple_augmentations() {
        let mut eng = RandomWalkMatcher::new(4, RandomWalkConfig::default());
        eng.apply(UpdateOp::insert(0, 1, 5)).unwrap();
        assert_eq!(eng.matching().weight(), 5);
        eng.apply(UpdateOp::insert(1, 2, 9)).unwrap();
        assert_eq!(eng.matching().weight(), 9, "heavier edge swapped in");
        eng.apply(UpdateOp::delete(1, 2)).unwrap();
        assert_eq!(eng.matching().weight(), 5, "repaired back after delete");
        assert_dominant(&eng);
        assert!(eng.walks_taken() > 0);
    }

    #[test]
    fn dominance_floor_holds_under_churn() {
        let mut rng = StdRng::seed_from_u64(43);
        let mut eng = RandomWalkMatcher::new(14, RandomWalkConfig::default().with_seed(9));
        let mut live: Vec<(Vertex, Vertex)> = Vec::new();
        for step in 0..260 {
            let op = if !live.is_empty() && rng.gen_range(0..3) == 0 {
                let i = rng.gen_range(0..live.len());
                let (u, v) = live.swap_remove(i);
                UpdateOp::delete(u, v)
            } else {
                let u = rng.gen_range(0..14u32);
                let mut v = rng.gen_range(0..14u32);
                if v == u {
                    v = (v + 1) % 14;
                }
                live.push((u, v));
                UpdateOp::insert(u, v, rng.gen_range(1..40u64))
            };
            eng.apply(op).unwrap();
            if step % 40 == 0 {
                assert_dominant(&eng);
                let opt = max_weight_matching(&eng.graph().snapshot()).weight();
                assert!(
                    eng.matching().weight() * 2 >= opt,
                    "step {step}: {} vs opt {opt}",
                    eng.matching().weight()
                );
            }
        }
        assert_dominant(&eng);
        assert_eq!(eng.counters().updates_applied, 260);
        assert!(eng.counters().recourse_total > 0);
    }

    #[test]
    fn replay_is_bit_identical_for_a_fixed_seed() {
        let mut rng = StdRng::seed_from_u64(47);
        let mut ops = Vec::new();
        for _ in 0..120 {
            let u = rng.gen_range(0..12u32);
            let mut v = rng.gen_range(0..12u32);
            if v == u {
                v = (v + 1) % 12;
            }
            ops.push(UpdateOp::insert(u, v, rng.gen_range(1..25u64)));
        }
        let cfg = RandomWalkConfig::default().with_seed(3);
        let mut a = RandomWalkMatcher::new(12, cfg);
        let mut b = RandomWalkMatcher::new(12, cfg);
        for &op in &ops {
            let sa = a.apply(op).unwrap();
            let sb = b.apply(op).unwrap();
            assert_eq!(sa, sb);
        }
        assert_eq!(a.matching().to_edges(), b.matching().to_edges());
        assert_eq!(a.walks_taken(), b.walks_taken());
        // a different seed is allowed to (and here does) walk differently
        let mut c = RandomWalkMatcher::new(12, cfg.with_seed(4));
        for &op in &ops {
            c.apply(op).unwrap();
        }
        assert_dominant(&c);
    }

    #[test]
    fn recourse_equals_observable_churn() {
        let mut rng = StdRng::seed_from_u64(53);
        let mut eng = RandomWalkMatcher::new(10, RandomWalkConfig::default());
        let mut live: Vec<(Vertex, Vertex)> = Vec::new();
        let mut total = 0u64;
        for _ in 0..150 {
            let op = if !live.is_empty() && rng.gen_range(0..4) == 0 {
                let i = rng.gen_range(0..live.len());
                let (u, v) = live.swap_remove(i);
                UpdateOp::delete(u, v)
            } else {
                let u = rng.gen_range(0..10u32);
                let mut v = rng.gen_range(0..10u32);
                if v == u {
                    v = (v + 1) % 10;
                }
                live.push((u, v));
                UpdateOp::insert(u, v, rng.gen_range(1..30u64))
            };
            let before = eng.matching().clone();
            let s = eng.apply(op).unwrap();
            let sa: std::collections::HashSet<((Vertex, Vertex), u64)> =
                before.iter().map(|e| (e.key(), e.weight)).collect();
            let sb: std::collections::HashSet<((Vertex, Vertex), u64)> =
                eng.matching().iter().map(|e| (e.key(), e.weight)).collect();
            assert_eq!(s.recourse, sa.symmetric_difference(&sb).count() as u64);
            assert_eq!(s.gain, eng.matching().weight() - before.weight());
            total += s.recourse;
        }
        assert_eq!(eng.counters().recourse_total, total);
    }

    #[test]
    fn malformed_ops_leave_engine_unchanged() {
        let mut eng = RandomWalkMatcher::new(2, RandomWalkConfig::default());
        eng.apply(UpdateOp::insert(0, 1, 5)).unwrap();
        assert!(eng.apply(UpdateOp::insert(0, 9, 1)).is_err());
        assert!(eng.apply(UpdateOp::insert(0, 1, 0)).is_err());
        assert_eq!(eng.counters().updates_applied, 1);
        assert_eq!(eng.matching().weight(), 5);
    }
}
