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
use wmatch_graph::{Edge, Graph, Matching, Vertex};

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
/// the dirty seeds, the winner's split, the mutation journal, and the
/// static copy of the graph a whole-graph restore searches. Everything is
/// persistent — at steady state a repair allocates nothing.
///
/// A local search runs in place on the live [`DynGraph`] and
/// [`Matching`]: [`AugSearcher::best_augmentation_through`] from the
/// dirty seeds, reading each vertex's live edges through
/// [`DynGraph::incident`].
#[derive(Debug)]
pub(crate) struct RepairKit {
    pub searcher: AugSearcher,
    pub dirty: Vec<Vertex>,
    added: Vec<Edge>,
    removed: Vec<Edge>,
    /// The live graph as a static [`Graph`], refilled by each
    /// [`RepairKit::restore`].
    whole: Graph,
    /// Matching mutations of the current update, in order: `(edge, true)`
    /// for inserts, `(edge, false)` for removals.
    pub journal: Vec<(Edge, bool)>,
}

impl RepairKit {
    /// A fresh kit.
    pub fn new() -> Self {
        RepairKit {
            searcher: AugSearcher::new(),
            dirty: Vec::new(),
            added: Vec::new(),
            removed: Vec::new(),
            whole: Graph::new(0),
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

    /// The largest dense scratch footprint this kit has used: its
    /// searcher's, which every search sizes to the whole graph.
    pub fn scratch_high_water(&self) -> usize {
        self.searcher.scratch_high_water()
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
    /// and returns the augmentations applied: [`AugSearcher::converge`] on
    /// a static copy of the live graph. Its winner is order-free, so this
    /// is the result of [`RepairKit::fix_up`] with every vertex dirty,
    /// augmentation for augmentation. Mutations are not journalled; every
    /// caller measures an epoch by its matching diff.
    pub fn restore(&mut self, g: &DynGraph, m: &mut Matching, max_len: usize) -> u64 {
        g.snapshot_into(&mut self.whole);
        self.searcher.converge(&self.whole, m, max_len)
    }

    /// The best positive augmentation (≤ `max_len` edges) through the
    /// dirty set, split into `self.added` / `self.removed`; returns the
    /// gain, or `None` when the invariant holds. The search runs from
    /// each dirty seed in place on `g` and `m` (see [`RepairKit`]), and
    /// its winner is the order-free one: the largest gain, an exact tie
    /// going to the least effect, so neither the seed order nor the
    /// adjacency order of `g` can change what is committed.
    ///
    /// The search keeps only walks through a dirty vertex. That is exact
    /// because every caller keeps the dirty set covering every positive
    /// walk: the invariant held before the update, a walk's gain reads
    /// only the matching at its own vertices, and the dirty set holds the
    /// update's endpoints, everything pending, and every vertex a repair
    /// has touched. So a walk without a seed has gain ≤ 0 and the full
    /// scan would never record it either. The one exception is an eager
    /// op that runs while deferred repairs are pending: it seeds only its
    /// own endpoints, so a stale walk near them that avoids them is left
    /// for the flush, which the pending set still owes.
    fn best_local_augmentation(
        &mut self,
        g: &DynGraph,
        m: &Matching,
        max_len: usize,
    ) -> Option<i128> {
        // each seed once
        self.dirty.sort_unstable();
        self.dirty.dedup();
        let found = self.searcher.best_augmentation_through(
            m,
            max_len,
            &self.dirty,
            |v| g.incident(v),
            &mut self.added,
            &mut self.removed,
        );
        // test builds and the `lockstep` feature check every search
        // against the full scan of its plain ball
        #[cfg(any(test, feature = "lockstep"))]
        lockstep::check(
            g,
            m,
            &self.dirty,
            max_len,
            found,
            &self.added,
            &self.removed,
        );
        found
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

#[cfg(any(test, feature = "lockstep"))]
pub(crate) mod lockstep {
    use std::collections::hash_map::{Entry, HashMap};
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::*;

    /// Local searches checked in this process.
    pub(crate) static CHECKED: AtomicU64 = AtomicU64::new(0);

    /// The lockstep of every local search: the in-place search's result
    /// (`found`, `added`, `removed`) must equal the full scan of the plain
    /// ball — every vertex within BFS distance `max_len` of the `seeds`,
    /// then their mates — with every live edge among them and every
    /// vertex's matched edge. The ball is numbered in ascending global id:
    /// a monotone renumbering keeps every key comparison, so the full scan
    /// applies the same tie rule. The gain must agree exactly, the added
    /// and removed edges as (endpoint pair, weight) multisets.
    pub(super) fn check(
        g: &DynGraph,
        m: &Matching,
        seeds: &[Vertex],
        max_len: usize,
        found: Option<i128>,
        added: &[Edge],
        removed: &[Edge],
    ) {
        let mut depth: HashMap<Vertex, usize> = seeds.iter().map(|&s| (s, 0)).collect();
        let mut order = seeds.to_vec();
        let mut head = 0;
        while head < order.len() {
            let v = order[head];
            head += 1;
            let d = depth[&v];
            if d < max_len {
                for e in g.incident(v) {
                    let w = e.other(v);
                    if let Entry::Vacant(slot) = depth.entry(w) {
                        slot.insert(d + 1);
                        order.push(w);
                    }
                }
            }
        }
        let mut ball = order.clone();
        ball.extend(order.iter().filter_map(|&v| m.mate(v)));
        ball.sort_unstable();
        ball.dedup();
        let local = |v: Vertex| ball.binary_search(&v).ok().map(|l| l as Vertex);
        let mut sub_g = Graph::new(ball.len());
        let mut sub_m = Matching::new(ball.len());
        for (a, &v) in ball.iter().enumerate() {
            let a = a as Vertex;
            for e in g.incident(v) {
                match local(e.other(v)) {
                    Some(b) if b > a => {
                        sub_g.add_edge(a, b, e.weight);
                    }
                    _ => {}
                }
            }
            if let Some(me) = m.matched_edge(v) {
                let b = local(me.other(v)).expect("the ball holds every mate");
                if b > a {
                    sub_m
                        .insert(Edge::new(a, b, me.weight))
                        .expect("matched edges are vertex-disjoint");
                }
            }
        }
        let (mut full_added, mut full_removed) = (Vec::new(), Vec::new());
        let full = AugSearcher::new().best_augmentation_into(
            &sub_g,
            &sub_m,
            max_len,
            &mut full_added,
            &mut full_removed,
        );
        let keys = |edges: &[Edge], ids: Option<&[Vertex]>| {
            let mut keys: Vec<_> = edges
                .iter()
                .map(|e| {
                    let (u, v) =
                        ids.map_or((e.u, e.v), |ids| (ids[e.u as usize], ids[e.v as usize]));
                    (Edge::new(u, v, e.weight).key(), e.weight)
                })
                .collect();
            keys.sort_unstable();
            keys
        };
        assert_eq!(
            found, full,
            "in-place and full scans disagree on the gain: seeds {seeds:?}, max_len {max_len}"
        );
        assert_eq!(
            keys(added, None),
            keys(&full_added, Some(&ball)),
            "in-place and full scans add different edges: seeds {seeds:?}, max_len {max_len}"
        );
        assert_eq!(
            keys(removed, None),
            keys(&full_removed, Some(&ball)),
            "in-place and full scans remove different edges: seeds {seeds:?}, max_len {max_len}"
        );
        CHECKED.fetch_add(1, Ordering::Relaxed);
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
