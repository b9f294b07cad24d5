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

use wmatch_graph::aug_search::AugSearcher;
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
/// Local ids are handed out in BFS order, so `depth[l]` — the ball BFS
/// depth of local vertex `l`, its distance to the dirty set — is the seed
/// distance of the anchored search, and the search only walks where a
/// new positive component can be. The order also puts the seeds first
/// and the interior (depth below `max_len`) before the rim (depth
/// exactly `max_len`): the sub-instance takes its edges from the
/// interior alone, and the search skips every rim start.
#[derive(Debug)]
pub(crate) struct RepairKit {
    pub searcher: AugSearcher,
    /// `scratch.count` doubles as the global→local id map of the ball.
    pub scratch: Scratch,
    local_to_global: Vec<Vertex>,
    /// Distance to the dirty set per local id; the mates added after the
    /// BFS read `max_len + 1`.
    depth: Vec<u32>,
    pub dirty: Vec<Vertex>,
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
            local_to_global: Vec::new(),
            depth: Vec::new(),
            dirty: Vec::new(),
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

    /// The best positive augmentation (≤ `max_len` edges) in the
    /// radius-`max_len` ball around the dirty set: the ball (extended by
    /// the mates of ball vertices, so neighbourhood gains are exact) is
    /// relabelled into a compact sub-instance, searched from the dirty
    /// seeds outward, and the winner is unmapped into `self.added` /
    /// `self.removed`. Returns the gain, or `None` when the invariant
    /// holds.
    ///
    /// In a walk of at most `max_len` edges through a seed, a vertex at
    /// depth `max_len` or more can only be the far end, with the seed at
    /// the other. So the sub-instance holds only the edges of the
    /// interior vertices (depth below `max_len`): the edges it leaves out
    /// join two vertices at depth `max_len` or more, and no such walk
    /// steps along them. It still holds every ball vertex's matched edge.
    /// The seeded scan then skips every rim start, whose walks are the
    /// reverses of walks from the seeds. The result is the full scan's on
    /// the unreduced sub-instance, edge for edge.
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
            local_to_global,
            depth,
            dirty,
            sub_g,
            sub_m,
            sub_added,
            sub_removed,
            added,
            removed,
            ..
        } = self;
        let ids = &mut scratch.count; // global vertex -> local id
        local_to_global.clear();
        depth.clear();
        // canonical seed order makes the search independent of the order
        // augmentations reported their touched vertices
        dirty.sort_unstable();
        dirty.dedup();
        for &d in dirty.iter() {
            if !ids.contains(d) {
                ids.insert(d, local_to_global.len() as u32);
                local_to_global.push(d);
                depth.push(0);
            }
        }
        // BFS ball of radius max_len over the live adjacency; local ids
        // are the BFS order, so `local_to_global` is its queue
        let mut head = 0;
        while head < local_to_global.len() {
            let (v, dv) = (local_to_global[head], depth[head]);
            head += 1;
            if dv as usize >= max_len {
                continue;
            }
            for e in g.incident(v) {
                let w = e.other(v);
                if !ids.contains(w) {
                    ids.insert(w, local_to_global.len() as u32);
                    local_to_global.push(w);
                    depth.push(dv + 1);
                }
            }
        }
        // extend by mates so neighbourhood gains are exact at the border
        let ball_len = local_to_global.len();
        for i in 0..ball_len {
            let v = local_to_global[i];
            if let Some(me) = m.matched_edge(v) {
                let w = me.other(v);
                if !ids.contains(w) {
                    ids.insert(w, local_to_global.len() as u32);
                    local_to_global.push(w);
                    depth.push(max_len as u32 + 1);
                }
            }
        }
        let sub_n = local_to_global.len();
        if sub_n == 0 {
            return None;
        }
        // relabelled sub-instance: every live edge with an endpoint in the
        // interior (depth < max_len, a prefix of the BFS order), added
        // once from its smaller-local endpoint. The edges this leaves out
        // join two vertices at depth >= max_len, which no walk through a
        // seed steps along; interior neighbours are all in the ball.
        let interior = depth.partition_point(|&d| (d as usize) < max_len);
        sub_g.reset(sub_n);
        for (li, &v) in local_to_global[..interior].iter().enumerate() {
            for e in g.incident(v) {
                if let Some(lw) = ids.get(e.other(v)) {
                    if (lw as usize) > li {
                        sub_g.add_edge(li as Vertex, lw, e.weight);
                    }
                }
            }
        }
        // a mate's matched edge goes to the ball vertex that added it
        sub_m.reset(sub_n);
        for (li, &v) in local_to_global[..ball_len].iter().enumerate() {
            if let Some(me) = m.matched_edge(v) {
                let lw = ids.get(me.other(v)).expect("mates are in the sub-instance");
                if (lw as usize) > li {
                    sub_m
                        .insert(Edge::new(li as Vertex, lw, me.weight))
                        .expect("matched edges are vertex-disjoint");
                }
            }
        }
        let found = searcher.best_seeded_augmentation_into(
            sub_g,
            sub_m,
            max_len,
            depth,
            sub_added,
            sub_removed,
        );
        // lockstep in unit tests: on every repair, the seeded search of
        // the reduced sub-instance must equal the full scan of the
        // unreduced one, every live edge of the extended set with the
        // matching of every sub-instance vertex
        #[cfg(test)]
        {
            let mut full_g = Graph::new(sub_n);
            for (li, &v) in local_to_global.iter().enumerate() {
                for e in g.incident(v) {
                    if let Some(lw) = ids.get(e.other(v)) {
                        if (lw as usize) > li {
                            full_g.add_edge(li as Vertex, lw, e.weight);
                        }
                    }
                }
            }
            let mut full_m = Matching::new(sub_n);
            for (li, &v) in local_to_global.iter().enumerate() {
                if let Some(me) = m.matched_edge(v) {
                    let lw = ids.get(me.other(v)).expect("mates are in the sub-instance");
                    if (lw as usize) > li {
                        full_m
                            .insert(Edge::new(li as Vertex, lw, me.weight))
                            .expect("matched edges are vertex-disjoint");
                    }
                }
            }
            assert_eq!(*sub_m, full_m, "the reduced build drops matched edges");
            let (mut full_added, mut full_removed) = (Vec::new(), Vec::new());
            let full = searcher.best_augmentation_into(
                &full_g,
                &full_m,
                max_len,
                &mut full_added,
                &mut full_removed,
            );
            assert_eq!(found, full, "seeded and full scans disagree on the gain");
            assert_eq!(
                *sub_added, full_added,
                "seeded and full scans add different edges"
            );
            assert_eq!(
                *sub_removed, full_removed,
                "seeded and full scans remove different edges"
            );
        }
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
