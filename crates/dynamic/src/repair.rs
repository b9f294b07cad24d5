//! The shared repair kernel of the dynamic engines.
//!
//! Every engine in the crate — [`DynamicMatcher`](crate::DynamicMatcher)
//! under each repair policy, the [`ShardedMatcher`](crate::ShardedMatcher)
//! and the [`RandomWalkMatcher`](crate::RandomWalkMatcher) — repairs its
//! matching through one [`RepairKit`] working directly on the live
//! [`DynGraph`] and [`Matching`], so every path executes literally the
//! same code.
//!
//! **Recourse accounting** lives here as well. Every matching mutation
//! the kit performs is journalled as `(edge, inserted)`.
//! [`RepairKit::net_recourse`] folds the journal into the *net* number of
//! matching edges changed — an edge swapped out and back in within one
//! update counts zero — which is the one recourse definition the whole
//! workspace reports (the same symmetric-difference measure the rebuild
//! epochs and the recompute baseline use).

use wmatch_graph::aug_search::{AugSearcher, ParityBfs};
use wmatch_graph::scratch::EpochMap;
use wmatch_graph::{Edge, Graph, Matching, Scratch, Vertex};

use crate::dyngraph::DynGraph;
use crate::update::UpdateOp;

/// Outcome of one repair convergence loop (recourse is *not* here — it
/// comes from the journal via [`RepairKit::net_recourse`], so every
/// caller reports the same net measure).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FixOutcome {
    /// Net matching-weight change.
    pub gain: i128,
    /// Augmentations applied.
    pub augmentations: u64,
}

/// All reusable state of one repair executor: the exhaustive searcher,
/// the epoch-stamped ball scratch, the relabelled sub-instance buffers,
/// and the mutation journal. Everything is persistent — at steady state a
/// repair allocates nothing.
///
/// A search first runs the [`ParityBfs`] from the dirty seeds: its
/// *alternating ball* A is every vertex with an alternating walk of at
/// most `max_len` edges to a seed, the only vertices a walk through a
/// seed can visit. Local ids go to A alone, in the order of the plain
/// ball BFS of radius `max_len` (seeds first), followed by the mates of
/// A outside it, which the search reads only for their matched edge's
/// weight. `alt[l]` — local vertex `l`'s parity distances to the seeds,
/// `max_len + 1` for those mates — is what the anchored search cuts by,
/// so it only walks where a new positive component can be and skips
/// every rim start.
#[derive(Debug)]
pub(crate) struct RepairKit {
    pub searcher: AugSearcher,
    /// `scratch.count` maps a vertex of A to its slot in `parity` until
    /// the ball BFS (`scratch.mark`) reaches it, and to its local id
    /// after.
    pub scratch: Scratch,
    parity: ParityBfs,
    /// The ball BFS queue.
    ball: Vec<Vertex>,
    local_to_global: Vec<Vertex>,
    /// Parity distances per local id.
    alt: Vec<[u32; 2]>,
    pub dirty: Vec<Vertex>,
    /// The sub-instance's edges and matched edges, in local ids, buffered
    /// until its vertex count is known.
    sub_edges: Vec<Edge>,
    sub_matched: Vec<Edge>,
    sub_g: Graph,
    sub_m: Matching,
    sub_added: Vec<Edge>,
    sub_removed: Vec<Edge>,
    added: Vec<Edge>,
    removed: Vec<Edge>,
    /// Matching mutations of the current update, in order: `(edge, true)`
    /// for inserts, `(edge, false)` for removals.
    pub journal: Vec<(Edge, bool)>,
}

impl RepairKit {
    /// A fresh kit.
    pub fn new() -> Self {
        RepairKit {
            searcher: AugSearcher::new(),
            scratch: Scratch::new(),
            parity: ParityBfs::new(),
            ball: Vec::new(),
            local_to_global: Vec::new(),
            alt: Vec::new(),
            dirty: Vec::new(),
            sub_edges: Vec::new(),
            sub_matched: Vec::new(),
            sub_g: Graph::new(0),
            sub_m: Matching::new(0),
            sub_added: Vec::new(),
            sub_removed: Vec::new(),
            added: Vec::new(),
            removed: Vec::new(),
            journal: Vec::new(),
        }
    }

    /// Starts a new update: clears the mutation journal.
    pub fn begin_update(&mut self) {
        self.journal.clear();
    }

    /// Folds (and drains) the journal into the net number of matching
    /// edges changed: entries are grouped by `(endpoints, weight)` and a
    /// group counts only if its inserts and removals do not cancel.
    pub fn net_recourse(&mut self) -> u64 {
        self.journal
            .sort_unstable_by_key(|&(e, ins)| (e.key(), e.weight, ins));
        let mut recourse = 0u64;
        let mut i = 0;
        while i < self.journal.len() {
            let (e, _) = self.journal[i];
            let mut inserts = 0i64;
            let mut removals = 0i64;
            while i < self.journal.len() {
                let (f, ins) = self.journal[i];
                if f.key() != e.key() || f.weight != e.weight {
                    break;
                }
                if ins {
                    inserts += 1;
                } else {
                    removals += 1;
                }
                i += 1;
            }
            if inserts != removals {
                recourse += 1;
            }
        }
        self.journal.clear();
        recourse
    }

    /// The largest dense scratch footprint this kit has used, its
    /// searcher's included (the bootstrap and global restores size that
    /// one to the whole graph).
    pub fn scratch_high_water(&self) -> usize {
        self.scratch
            .high_water()
            .max(self.searcher.scratch_high_water())
    }

    /// Applies best local augmentations until none with positive gain
    /// remains in the ball around the (accumulating) dirty set, restoring
    /// the bounded-augmentation invariant. Clears the dirty set on
    /// return; every matching mutation is journalled.
    pub fn fix_up(&mut self, g: &DynGraph, m: &mut Matching, max_len: usize) -> FixOutcome {
        self.fix_up_budgeted(g, m, max_len, usize::MAX).0
    }

    /// [`RepairKit::fix_up`] under a work budget: at most `budget`
    /// augmentations are applied. Returns `true` in the second slot when
    /// the budget ran out before the loop certified the invariant — in
    /// that case the dirty set is **kept** (seeds plus everything touched
    /// so far), so the caller can carry it into a later repair and finish
    /// the convergence then. On a clean finish the dirty set is cleared,
    /// exactly as `fix_up`.
    pub fn fix_up_budgeted(
        &mut self,
        g: &DynGraph,
        m: &mut Matching,
        max_len: usize,
        budget: usize,
    ) -> (FixOutcome, bool) {
        let mut out = FixOutcome::default();
        loop {
            if out.augmentations as usize >= budget {
                // out of budget with the invariant not yet certified: keep
                // the dirty seeds for the caller to finish later
                return (out, true);
            }
            let Some(gain) = self.best_local_augmentation(g, m, max_len) else {
                break;
            };
            debug_assert!(gain > 0, "only positive augmentations are applied");
            for i in 0..self.removed.len() {
                let e = self.removed[i];
                let got = m
                    .remove_pair(e.u, e.v)
                    .expect("repair removes matched edges");
                debug_assert_eq!(got.key(), e.key());
                self.journal.push((got, false));
            }
            for i in 0..self.added.len() {
                let e = self.added[i];
                m.insert(e).expect("repair inserts into freed endpoints");
                self.journal.push((e, true));
            }
            out.gain += gain;
            out.augmentations += 1;
            // later repairs may only appear next to what this one touched,
            // but earlier candidates stay live: accumulate, don't replace
            for i in 0..self.removed.len() {
                let e = self.removed[i];
                self.dirty.extend([e.u, e.v]);
            }
            for i in 0..self.added.len() {
                let e = self.added[i];
                self.dirty.extend([e.u, e.v]);
            }
        }
        self.dirty.clear();
        (out, false)
    }

    /// Restores the bounded-augmentation invariant over the whole graph
    /// and returns the augmentations applied: the result of
    /// [`RepairKit::fix_up`] with every vertex dirty, augmentation for
    /// augmentation. With every vertex dirty the sub-instance's local ids
    /// are the global ids, so it is built once, edges oriented from the
    /// smaller end as `fix_up` builds them, and
    /// [`AugSearcher::converge`] runs on it against `m` itself: it reads
    /// `m` by endpoint pair, removes by pair and inserts the
    /// sub-instance's edges, exactly as `fix_up` unmaps them. Mutations
    /// are not journalled; every caller measures an epoch by its matching
    /// diff.
    pub fn restore(&mut self, g: &DynGraph, m: &mut Matching, max_len: usize) -> u64 {
        let n = g.vertex_count();
        self.sub_g.reset(n);
        for v in 0..n as Vertex {
            for e in g.incident(v) {
                let w = e.other(v);
                if w > v {
                    self.sub_g.add_edge(v, w, e.weight);
                }
            }
        }
        self.searcher.converge(&self.sub_g, m, max_len)
    }

    /// The best positive augmentation (≤ `max_len` edges) through the
    /// dirty set: the alternating ball A around it (see [`RepairKit`]),
    /// extended by the mates of its vertices so neighbourhood gains are
    /// exact, is relabelled into a compact sub-instance, searched from the
    /// dirty seeds outward, and the winner is unmapped into `self.added` /
    /// `self.removed`. Returns the gain, or `None` when the invariant
    /// holds.
    ///
    /// Every vertex of a walk that meets a seed within `max_len` edges is
    /// in A, since its sub-walk to the seed alternates; no such walk
    /// steps along an edge that leaves A or joins two vertices at parity
    /// distance `max_len` or more, so the sub-instance holds only the
    /// other edges. It holds every A vertex's matched edge. A keeps its
    /// ball BFS order and each kept vertex its edge order, so the seeded
    /// scan enumerates the surviving walks in the order a full scan of the
    /// whole ball (plus mates, with every edge) does, and returns its
    /// result: the same gain and added edges, and the same removed edges
    /// up to the orientation of a matched edge to an appended mate, which
    /// [`Matching::remove_pair`] ignores.
    ///
    /// The search keeps only walks through a dirty vertex. That is exact
    /// because every caller keeps the dirty set covering every positive
    /// walk: the invariant held before the update, a walk's gain reads
    /// only the matching at its own vertices, and the dirty set holds the
    /// update's endpoints, everything pending, and every vertex a repair
    /// has touched. So a walk without a seed has gain ≤ 0 and the full
    /// scan would never record it either. The one exception is an eager
    /// op that runs while deferred repairs are pending: it seeds only its
    /// own endpoints, so a stale walk in its ball that avoids them is
    /// left for the flush, which the pending set still owes.
    fn best_local_augmentation(
        &mut self,
        g: &DynGraph,
        m: &Matching,
        max_len: usize,
    ) -> Option<i128> {
        let n = g.vertex_count();
        self.scratch.begin(n);
        let RepairKit {
            searcher,
            scratch,
            parity,
            ball,
            local_to_global,
            alt,
            dirty,
            sub_edges,
            sub_matched,
            sub_g,
            sub_m,
            sub_added,
            sub_removed,
            added,
            removed,
            ..
        } = self;
        // canonical seed order makes the search independent of the order
        // augmentations reported their touched vertices
        dirty.sort_unstable();
        dirty.dedup();
        let ids = &mut scratch.count;
        parity.run(
            dirty.iter().copied(),
            max_len,
            ids,
            |v| m.mate(v),
            |v| g.incident(v).map(move |e| e.other(v)),
        );
        // the plain BFS ball of radius max_len, only to number A in its
        // order: a vertex of A gets its local id when the BFS first meets
        // it, and `ids` then holds that id in place of its parity slot
        let seen = &mut scratch.mark;
        let number =
            |v: Vertex, ids: &mut EpochMap<u32>, l2g: &mut Vec<Vertex>, alt: &mut Vec<_>| {
                if let Some(slot) = ids.get(v) {
                    ids.insert(v, l2g.len() as u32);
                    l2g.push(v);
                    alt.push(parity.alt()[slot as usize]);
                }
            };
        local_to_global.clear();
        alt.clear();
        ball.clear();
        sub_edges.clear();
        for &d in dirty.iter() {
            seen.insert(d);
            ball.push(d);
            number(d, ids, local_to_global, alt);
        }
        // the sub-instance keeps an edge between two vertices of A unless
        // both lie at parity distance max_len or more. Each goes out when
        // the BFS scans its smaller-id end, whose neighbours all hold
        // their ids by then, so in the order of a pass over A. That end
        // lies inside radius max_len, which the BFS scans: from a vertex
        // at BFS depth max_len, every later id is at that depth too, so
        // both ends lie at parity distance max_len or more
        let rim = |a: [u32; 2]| a[0].min(a[1]) as usize >= max_len;
        let mut level = 0..ball.len();
        for _ in 0..max_len {
            let next = level.end;
            for i in level {
                let v = ball[i];
                let lv = ids.get(v);
                for e in g.incident(v) {
                    let w = e.other(v);
                    if seen.insert(w) {
                        ball.push(w);
                        number(w, ids, local_to_global, alt);
                    }
                    if let (Some(li), Some(lw)) = (lv, ids.get(w)) {
                        if lw > li && !(rim(alt[li as usize]) && rim(alt[lw as usize])) {
                            sub_edges.push(Edge::new(li, lw, e.weight));
                        }
                    }
                }
            }
            level = next..ball.len();
        }
        // extend by the mates of A, so neighbourhood gains are exact; a
        // matched edge goes to the sub-matching from its smaller local id
        sub_matched.clear();
        let a_len = local_to_global.len();
        for li in 0..a_len {
            let v = local_to_global[li];
            let Some(me) = m.matched_edge(v) else {
                continue;
            };
            let w = me.other(v);
            let lw = match ids.get(w) {
                // A lies inside the ball, so its vertices are numbered
                Some(lw) => {
                    debug_assert!(seen.contains(w), "the ball BFS numbered all of A");
                    lw as usize
                }
                None => {
                    local_to_global.push(w);
                    alt.push([max_len as u32 + 1; 2]);
                    local_to_global.len() - 1
                }
            };
            if lw > li {
                sub_matched.push(Edge::new(li as Vertex, lw as Vertex, me.weight));
            }
        }
        let sub_n = local_to_global.len();
        if sub_n == 0 {
            return None;
        }
        sub_g.reset(sub_n);
        for e in sub_edges.iter() {
            sub_g.add_edge(e.u, e.v, e.weight);
        }
        sub_m.reset(sub_n);
        for &e in sub_matched.iter() {
            sub_m.insert(e).expect("matched edges are vertex-disjoint");
        }
        let found = searcher.best_seeded_augmentation_into(
            sub_g,
            sub_m,
            max_len,
            alt,
            sub_added,
            sub_removed,
        );
        // unit tests check every repair against the full scan of the
        // unreduced ball
        #[cfg(test)]
        lockstep::check(
            g,
            m,
            dirty,
            max_len,
            found,
            local_to_global,
            sub_added,
            sub_removed,
        );
        let gain = found?;
        added.clear();
        removed.clear();
        for e in sub_added.iter() {
            added.push(Edge::new(
                local_to_global[e.u as usize],
                local_to_global[e.v as usize],
                e.weight,
            ));
        }
        for e in sub_removed.iter() {
            removed.push(Edge::new(
                local_to_global[e.u as usize],
                local_to_global[e.v as usize],
                e.weight,
            ));
        }
        Some(gain)
    }
}

/// The op-validity rule, run right after the structural change of `op`
/// (`g` already reflects it) by every engine and every repair policy:
/// after it, the matching is backed by live edges only — valid, if not
/// yet certified.
///
/// * **Insert:** a heavier copy of an already-matched pair is swapped in.
///   Matchings are keyed by endpoint pair, so this upgrade cannot be
///   expressed as an augmentation and no later fix-up would find it.
/// * **Delete:** if the matched copy of `{u, v}` died — no live edge with
///   the same endpoints *and weight* remains — the matching drops it.
///
/// Both mutations are journalled. Returns the weight change, or `None`
/// when the matching was left as it was.
pub(crate) fn keep_valid(
    kit: &mut RepairKit,
    g: &DynGraph,
    m: &mut Matching,
    op: UpdateOp,
) -> Option<i128> {
    let (u, v) = op.endpoints();
    let me = m.matched_edge(u).filter(|me| me.other(u) == v)?;
    match op {
        UpdateOp::Insert { weight, .. } if weight > me.weight => {
            let old = m.remove_pair(u, v).expect("the pair is matched");
            kit.journal.push((old, false));
            let new = Edge::new(u, v, weight);
            m.insert(new).expect("endpoints just freed");
            kit.journal.push((new, true));
            Some(weight as i128 - old.weight as i128)
        }
        UpdateOp::Delete { .. } if !g.has_live_copy(u, v, me.weight) => {
            let removed = m.remove_pair(u, v).expect("the pair is matched");
            kit.journal.push((removed, false));
            Some(-(removed.weight as i128))
        }
        _ => None,
    }
}

/// The eager repair of one op (`g` already reflects it): the validity
/// rule, then the bounded-augmentation fix-up seeded at the endpoints. A
/// new positive component must run through an inserted edge, so every
/// insert is searched; a delete can only open one by freeing its
/// endpoints, so a delete is searched only when its matched copy died —
/// deleting an unmatched copy only shrinks gains, and is free.
pub(crate) fn repair_op(
    kit: &mut RepairKit,
    g: &DynGraph,
    m: &mut Matching,
    op: UpdateOp,
    max_len: usize,
) -> FixOutcome {
    let changed = keep_valid(kit, g, m, op);
    let mut out = FixOutcome {
        gain: changed.unwrap_or(0),
        augmentations: 0,
    };
    if op.is_insert() || changed.is_some() {
        let (u, v) = op.endpoints();
        kit.dirty.clear();
        kit.dirty.extend([u, v]);
        let fix = kit.fix_up(g, m, max_len);
        out.gain += fix.gain;
        out.augmentations += fix.augmentations;
    }
    out
}

#[cfg(test)]
mod lockstep {
    use std::collections::hash_map::{Entry, HashMap};

    use super::*;

    /// The unit-test lockstep of every repair: the kit's seeded search of
    /// its reduced sub-instance (`found`, with `added`/`removed` in the
    /// local ids of `local_to_global`) must equal, in global edges, the
    /// full scan of the plain ball — every vertex within BFS distance
    /// `max_len` of the sorted `seeds`, in BFS order, then their mates —
    /// with every live edge among them and every vertex's matched edge.
    /// The gain and added edges must agree exactly, the removed edges as
    /// (endpoint pair, weight) sets.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn check(
        g: &DynGraph,
        m: &Matching,
        seeds: &[Vertex],
        max_len: usize,
        found: Option<i128>,
        local_to_global: &[Vertex],
        added: &[Edge],
        removed: &[Edge],
    ) {
        let mut ids: HashMap<Vertex, Vertex> = HashMap::new();
        let (mut order, mut depth) = (Vec::new(), Vec::new());
        for &s in seeds {
            ids.insert(s, order.len() as Vertex);
            order.push(s);
            depth.push(0);
        }
        let mut head = 0;
        while head < order.len() {
            let (v, d) = (order[head], depth[head]);
            head += 1;
            if d < max_len {
                for e in g.incident(v) {
                    let w = e.other(v);
                    if let Entry::Vacant(id) = ids.entry(w) {
                        id.insert(order.len() as Vertex);
                        order.push(w);
                        depth.push(d + 1);
                    }
                }
            }
        }
        for i in 0..order.len() {
            if let Some(w) = m.mate(order[i]) {
                if let Entry::Vacant(id) = ids.entry(w) {
                    id.insert(order.len() as Vertex);
                    order.push(w);
                }
            }
        }
        let mut full_g = Graph::new(order.len());
        let mut full_m = Matching::new(order.len());
        for (li, &v) in order.iter().enumerate() {
            let li = li as Vertex;
            for e in g.incident(v) {
                match ids.get(&e.other(v)) {
                    Some(&lw) if lw > li => {
                        full_g.add_edge(li, lw, e.weight);
                    }
                    _ => {}
                }
            }
            if let Some(me) = m.matched_edge(v) {
                let lw = ids[&me.other(v)];
                if lw > li {
                    full_m
                        .insert(Edge::new(li, lw, me.weight))
                        .expect("matched edges are vertex-disjoint");
                }
            }
        }
        let (mut full_added, mut full_removed) = (Vec::new(), Vec::new());
        let full = AugSearcher::new().best_augmentation_into(
            &full_g,
            &full_m,
            max_len,
            &mut full_added,
            &mut full_removed,
        );
        assert_eq!(found, full, "seeded and full scans disagree on the gain");
        let global = |ids: &[Vertex], edges: &[Edge]| -> Vec<Edge> {
            edges
                .iter()
                .map(|e| Edge::new(ids[e.u as usize], ids[e.v as usize], e.weight))
                .collect()
        };
        assert_eq!(
            global(local_to_global, added),
            global(&order, &full_added),
            "seeded and full scans add different edges"
        );
        let pairs = |edges: Vec<Edge>| {
            let mut keys: Vec<_> = edges.iter().map(|e| (e.key(), e.weight)).collect();
            keys.sort_unstable();
            keys
        };
        assert_eq!(
            pairs(global(local_to_global, removed)),
            pairs(global(&order, &full_removed)),
            "seeded and full scans remove different edges"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_recourse_cancels_swap_back() {
        let mut kit = RepairKit::new();
        kit.begin_update();
        let e = Edge::new(0, 1, 5);
        let f = Edge::new(1, 2, 7);
        // remove e, insert f, remove f, insert e: net zero
        kit.journal
            .extend([(e, false), (f, true), (f, false), (e, true)]);
        assert_eq!(kit.net_recourse(), 0);
        assert!(kit.journal.is_empty(), "net_recourse drains the journal");
        // remove e, insert a *different-weight* copy of the same pair:
        // both count (weight change is observable churn)
        kit.journal.extend([(e, false), (Edge::new(0, 1, 9), true)]);
        assert_eq!(kit.net_recourse(), 2);
    }

    #[test]
    fn budgeted_fix_up_keeps_dirty_and_resumes() {
        // path 0-1(4), 1-2(6), 2-3(4): converging from empty takes two
        // augmentations (grab {1,2}, then the 3-edge swap to the outer
        // pair). Budget 1 must stop after the first and keep the seeds.
        let mut g = DynGraph::new(4);
        g.insert(0, 1, 4).unwrap();
        g.insert(1, 2, 6).unwrap();
        g.insert(2, 3, 4).unwrap();
        let mut m = Matching::new(4);
        let mut kit = RepairKit::new();
        kit.begin_update();
        kit.dirty.extend([0u32, 1, 2, 3]);
        let (out, exhausted) = kit.fix_up_budgeted(&g, &mut m, 3, 1);
        assert!(exhausted, "one augmentation cannot certify this ball");
        assert_eq!(out.augmentations, 1);
        assert_eq!(m.weight(), 6, "the middle edge wins the first round");
        assert!(!kit.dirty.is_empty(), "exhaustion preserves the seeds");
        // resuming without a budget finishes the convergence
        let (out, exhausted) = kit.fix_up_budgeted(&g, &mut m, 3, usize::MAX);
        assert!(!exhausted);
        assert_eq!(out.augmentations, 1);
        assert_eq!(m.weight(), 8, "outer pair beats the middle edge");
        assert!(kit.dirty.is_empty(), "clean finish clears the dirty set");
        // a zero budget is exhausted before searching at all
        kit.dirty.push(0);
        let (out, exhausted) = kit.fix_up_budgeted(&g, &mut m, 3, 0);
        assert!(exhausted);
        assert_eq!(out.augmentations, 0);
        assert_eq!(kit.dirty, vec![0]);
        kit.dirty.clear();
    }
}
