//! Batched speculative execution: ball-overlap grouping, parallel group
//! repair, and in-order commit — the machinery behind
//! [`ShardedMatcher::apply_batch`](crate::ShardedMatcher::apply_batch).
//!
//! # The execution model
//!
//! A batch of updates is executed in three stages:
//!
//! 1. **Grouping** (pure). Ops are routed to their owning vertex shard
//!    (the shard of `min(u, v)`, so every op on a pair lands in one
//!    place), then a union-find over touched endpoints merges ops whose
//!    repair balls can overlap *structurally*: two ops sharing an
//!    endpoint join one **overlap group**. Groups are the unit of
//!    speculation — within a group, ops run sequentially in stream order
//!    and see each other's virtual changes, so structural verdicts
//!    (which LIFO copy a delete removes, whether a live copy remains)
//!    are exact, never speculative.
//! 2. **Speculation** (parallel). Disjoint groups repair concurrently on
//!    the [`WorkerPool`] against the frozen pre-batch graph/matching,
//!    each producing per-op [`Plan`]s (journal of matching mutations,
//!    write set, read set) in per-worker arenas that are reused across
//!    batches. When a following batch is known, one extra pool item
//!    builds *its* grouping concurrently — the double-buffered pipelined
//!    ingest stage.
//! 3. **Commit** (sequential, stream order). Each op either *replays*
//!    its plan — valid iff no earlier-committed op outside its group
//!    wrote a vertex the group's speculation read — or falls back to the
//!    sequential repair, which is literally the
//!    [`DynamicMatcher`](crate::DynamicMatcher) code path. Invalidation
//!    is resolved through a vertex → reader-groups chain index built
//!    from the speculation read sets, so a commit touches only the
//!    groups that actually read its written vertices.
//!
//! The committed state is therefore **bit-identical to the sequential
//! engine** for any thread count, shard count, and batch size: grouping
//! and scheduling choose *how* plans are produced, the read-set check
//! decides *whether* a plan is indistinguishable from running the repair
//! at commit time, and everything else takes the sequential path.
//!
//! # The one-worker inline path
//!
//! With a single pool worker there is no concurrency to win, so the
//! whole apparatus is bypassed: ops are committed straight through
//! [`EngineCore::apply_one`] with zero grouping, speculation, or
//! read-tracking overhead. This is what makes the parallel path cost
//! ~nothing at `threads = 1` instead of just breaking even.
//!
//! [`WorkerPool`]: wmatch_graph::WorkerPool

use wmatch_graph::scratch::{EpochMap, EpochSet};
use wmatch_graph::{Edge, Matching, Scratch, Vertex};

use crate::dyngraph::DynGraph;
use crate::engine::{BatchError, BatchStats, DynamicConfig, EngineCore, UpdateStats};
use crate::error::DynamicError;
use crate::repair::{repair_op, RepairGraph, RepairKit, RepairMatching};
use crate::update::UpdateOp;

/// The shard owning vertex `v` under `k` contiguous vertex ranges
/// (out-of-range vertices clamp to the last shard, where validation
/// rejects them).
#[inline]
pub(crate) fn shard_of(v: Vertex, k: usize, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let v = (v as usize).min(n - 1);
    v * k / n
}

/// An edge a group inserted during the current batch, with a liveness
/// flag so a later same-group delete can consume it.
#[derive(Debug, Clone, Copy)]
struct SpecEdge {
    u: Vertex,
    v: Vertex,
    weight: u64,
    live: bool,
}

/// A group's speculative graph view: the frozen pre-batch [`DynGraph`]
/// minus the slab slots this group virtually deleted, plus the edges it
/// virtually inserted — presented in exactly the adjacency order the
/// real graph will have once the batch commits (batch inserts are newer
/// than every pre-batch edge).
struct SpecGraph<'a> {
    base: &'a DynGraph,
    inserted: &'a [SpecEdge],
    dead: &'a EpochSet,
}

impl RepairGraph for SpecGraph<'_> {
    fn vertex_count(&self) -> usize {
        self.base.vertex_count()
    }

    fn for_each_incident(&self, v: Vertex, f: &mut dyn FnMut(Edge)) {
        for &id in self.base.adj_ids(v) {
            if !self.dead.contains(id) {
                f(self.base.edge_at(id));
            }
        }
        // `inserted` holds only the *current group's* few batch inserts
        // (not a whole shard's), so this linear scan is near-free
        for se in self.inserted {
            if se.live && (se.u == v || se.v == v) {
                f(Edge::new(se.u, se.v, se.weight));
            }
        }
    }

    fn has_live_copy(&self, u: Vertex, v: Vertex, weight: u64) -> bool {
        for &id in self.base.adj_ids(u) {
            if !self.dead.contains(id) {
                let e = self.base.edge_at(id);
                if e.touches(v) && e.weight == weight {
                    return true;
                }
            }
        }
        self.inserted.iter().any(|se| {
            se.live && se.weight == weight && ((se.u == u && se.v == v) || (se.u == v && se.v == u))
        })
    }
}

/// A group's speculative matching view: the frozen pre-batch [`Matching`]
/// under an epoch-stamped per-vertex overlay (`Some(e)` = matched to `e`,
/// `None` binding = unmatched, no binding = frozen state).
struct SpecMatching<'a> {
    base: &'a Matching,
    overlay: &'a mut EpochMap<Option<Edge>>,
}

impl RepairMatching for SpecMatching<'_> {
    fn matched_edge(&self, v: Vertex) -> Option<Edge> {
        match self.overlay.get(v) {
            Some(o) => o,
            None => self.base.matched_edge(v),
        }
    }

    fn do_insert(&mut self, e: Edge) {
        debug_assert!(self.matched_edge(e.u).is_none());
        debug_assert!(self.matched_edge(e.v).is_none());
        self.overlay.insert(e.u, Some(e));
        self.overlay.insert(e.v, Some(e));
    }

    fn do_remove(&mut self, u: Vertex, v: Vertex) -> Edge {
        let e = self.matched_edge(u).expect("repair removes matched edges");
        debug_assert_eq!(e.other(u), v);
        self.overlay.insert(u, None);
        self.overlay.insert(v, None);
        e
    }
}

/// One speculated op: either a typed rejection or the full repair
/// outcome, with ranges into the owning worker's pooled arenas.
#[derive(Debug, Clone)]
struct Plan {
    err: Option<DynamicError>,
    gain: i128,
    recourse: u64,
    augmentations: u64,
    /// `journal_arena` range: the matching mutations, in order.
    journal: (u32, u32),
    /// `writes_arena` range: vertices this op writes (op endpoints plus
    /// every journal-edge endpoint).
    writes: (u32, u32),
}

/// Where one group's speculation results live: the worker slot whose
/// arenas hold them, the first plan index, and the group's read-set range
/// in that worker's `reads_arena`.
#[derive(Debug, Clone, Copy, Default)]
struct GroupResult {
    slot: u32,
    plan_start: u32,
    reads: (u32, u32),
    /// The group's speculation worker panicked mid-repair: its arena
    /// ranges are garbage (possibly out of bounds) and must never be
    /// indexed — the commit runs every op of the group through the
    /// sequential fallback instead.
    panicked: bool,
}

/// Per-pool-worker speculation state: a read-tracking repair kit, the
/// epoch-stamped overlays (cleared in O(1) per group), and the plan /
/// journal / write / read arenas — all reused across groups *and*
/// batches, so steady-state speculation allocates nothing.
#[derive(Debug)]
struct SpecWorker {
    kit: RepairKit,
    overlay: EpochMap<Option<Edge>>,
    /// Pre-batch slab ids the current group virtually deleted.
    dead: EpochSet,
    inserted: Vec<SpecEdge>,
    plans: Vec<Plan>,
    journal_arena: Vec<(Edge, bool)>,
    writes_arena: Vec<Vertex>,
    reads_arena: Vec<Vertex>,
}

impl SpecWorker {
    fn new() -> Self {
        SpecWorker {
            kit: RepairKit::new(true),
            overlay: EpochMap::new(),
            dead: EpochSet::new(),
            inserted: Vec::new(),
            plans: Vec::new(),
            journal_arena: Vec::new(),
            writes_arena: Vec::new(),
            reads_arena: Vec::new(),
        }
    }

    fn begin_batch(&mut self) {
        self.plans.clear();
        self.journal_arena.clear();
        self.writes_arena.clear();
        self.reads_arena.clear();
    }

    /// The structural half of a speculative insert/delete, mirroring
    /// [`DynGraph::insert`]/[`DynGraph::delete`] exactly (same validation,
    /// same LIFO copy choice) against the group's virtual state. Exact
    /// because *every* op on a pair shares both endpoints and therefore
    /// lands in this group.
    fn spec_structural(&mut self, g: &DynGraph, op: UpdateOp) -> Result<(), DynamicError> {
        match op {
            UpdateOp::Insert { u, v, weight } => {
                g.check_insert(u, v, weight)?;
                self.inserted.push(SpecEdge {
                    u,
                    v,
                    weight,
                    live: true,
                });
                Ok(())
            }
            UpdateOp::Delete { u, v } => {
                // LIFO: the group's own batch inserts are newer than
                // every pre-batch edge
                if (u as usize) < g.vertex_count() && (v as usize) < g.vertex_count() {
                    if let Some(pos) = self.inserted.iter().rposition(|se| {
                        se.live && ((se.u == u && se.v == v) || (se.u == v && se.v == u))
                    }) {
                        self.inserted[pos].live = false;
                        return Ok(());
                    }
                }
                match g.peek_delete(u, v) {
                    Ok((first_id, _)) => {
                        // the newest *non-dead* pre-batch copy: walk the
                        // adjacency backwards past virtually deleted ids
                        let id = self
                            .base_lifo_copy(g, u, v)
                            .ok_or(DynamicError::EdgeNotFound { u, v })?;
                        let _ = first_id;
                        self.dead.insert(id);
                        Ok(())
                    }
                    Err(e) => {
                        // range errors propagate; EdgeNotFound must still
                        // consider dead-skipping (peek found a copy we
                        // virtually deleted → truly not found now)
                        match e {
                            DynamicError::EdgeNotFound { .. } => {
                                Err(DynamicError::EdgeNotFound { u, v })
                            }
                            other => Err(other),
                        }
                    }
                }
            }
        }
    }

    /// The newest pre-batch live copy of `{u, v}` not yet virtually
    /// deleted, as a slab id.
    fn base_lifo_copy(&self, g: &DynGraph, u: Vertex, v: Vertex) -> Option<u32> {
        g.adj_ids(u)
            .iter()
            .rev()
            .copied()
            .find(|&id| !self.dead.contains(id) && g.edge_at(id).touches(v))
    }

    /// Speculates one overlap group's ops in stream order against the
    /// frozen `(g, m)`, pushing one [`Plan`] per op — the parallel phase.
    /// With `chaos_panic` the worker panics partway through the group
    /// (the chaos harness's worker-crash fault); the caller's
    /// `catch_unwind` turns that into a panicked [`GroupResult`].
    #[allow(clippy::too_many_arguments)]
    fn speculate_group(
        &mut self,
        g: &DynGraph,
        m: &Matching,
        cfg: &DynamicConfig,
        ops: &[UpdateOp],
        group_ops: &[u32],
        slot: u32,
        chaos_panic: bool,
    ) -> GroupResult {
        let n = g.vertex_count();
        self.overlay.ensure(n.max(1));
        self.overlay.clear();
        self.dead.ensure(g.slab_slots().max(1));
        self.dead.clear();
        self.inserted.clear();
        self.kit.begin_read_window(n);
        let plan_start = self.plans.len() as u32;
        for (done, &opi) in group_ops.iter().enumerate() {
            if chaos_panic && done == group_ops.len() / 2 {
                // mid-ball-repair: earlier ops' plans are already in the
                // arenas (and stay there as garbage), later ops never run
                panic!("chaos: injected worker panic mid-ball-repair");
            }
            let op = ops[opi as usize];
            self.kit.begin_update();
            let structural = self.spec_structural(g, op);
            let plan = match structural {
                Err(e) => Plan {
                    err: Some(e),
                    gain: 0,
                    recourse: 0,
                    augmentations: 0,
                    journal: (0, 0),
                    writes: (0, 0),
                },
                Ok(()) => {
                    let SpecWorker {
                        kit,
                        overlay,
                        dead,
                        inserted,
                        ..
                    } = self;
                    let view = SpecGraph {
                        base: g,
                        inserted,
                        dead,
                    };
                    let mut sm = SpecMatching { base: m, overlay };
                    let fix = repair_op(kit, &view, &mut sm, op, cfg.max_len);
                    let j0 = self.journal_arena.len() as u32;
                    let w0 = self.writes_arena.len() as u32;
                    let (u, v) = op.endpoints();
                    self.writes_arena.extend([u, v]);
                    for &(e, ins) in &self.kit.journal {
                        self.journal_arena.push((e, ins));
                        self.writes_arena.extend([e.u, e.v]);
                    }
                    Plan {
                        err: None,
                        gain: fix.gain,
                        recourse: self.kit.net_recourse(),
                        augmentations: fix.augmentations,
                        journal: (j0, self.journal_arena.len() as u32),
                        writes: (w0, self.writes_arena.len() as u32),
                    }
                }
            };
            self.plans.push(plan);
        }
        let r0 = self.reads_arena.len() as u32;
        self.reads_arena.extend_from_slice(&self.kit.read);
        GroupResult {
            slot,
            plan_start,
            reads: (r0, self.reads_arena.len() as u32),
            panicked: false,
        }
    }
}

/// One batch's routing and ball-overlap grouping, double-buffered so the
/// grouping of batch *k+1* can be computed (as one extra pool item)
/// while batch *k* speculates. Pure with respect to the op slice, so
/// pipelined and inline grouping are bit-identical.
#[derive(Debug)]
struct GroupingSet {
    /// The ops this grouping describes — both the pipeline-verification
    /// key and the working copy the pipelined build reads.
    ops_copy: Vec<UpdateOp>,
    shard_lists: Vec<Vec<u32>>,
    /// Union-find parents over op indices.
    parent: Vec<u32>,
    /// Endpoint → first op that touched it (per shard; epoch-cleared).
    vnode: EpochMap<u32>,
    /// Union-find root → dense group id.
    gmap: Vec<u32>,
    placed: Vec<u32>,
    /// Per group: `(start, len)` into `ops_arena`.
    groups: Vec<(u32, u32)>,
    /// Op indices grouped contiguously, stream order within each group.
    ops_arena: Vec<u32>,
    /// Per op: `(group id, index within the group)`.
    route: Vec<(u32, u32)>,
}

fn uf_find(parent: &mut [u32], mut i: u32) -> u32 {
    while parent[i as usize] != i {
        let gp = parent[parent[i as usize] as usize];
        parent[i as usize] = gp;
        i = gp;
    }
    i
}

fn uf_union(parent: &mut [u32], i: u32, j: u32) {
    let ri = uf_find(parent, i);
    let rj = uf_find(parent, j);
    if ri != rj {
        parent[ri.max(rj) as usize] = ri.min(rj);
    }
}

impl GroupingSet {
    fn new() -> Self {
        GroupingSet {
            ops_copy: Vec::new(),
            shard_lists: Vec::new(),
            parent: Vec::new(),
            vnode: EpochMap::new(),
            gmap: Vec::new(),
            placed: Vec::new(),
            groups: Vec::new(),
            ops_arena: Vec::new(),
            route: Vec::new(),
        }
    }

    /// Routes `ops` to shards and unions ops sharing an endpoint within a
    /// shard into overlap groups (dense ids in stream order of each
    /// group's first op). All buffers are reused; no steady-state
    /// allocation.
    fn build(&mut self, ops: &[UpdateOp], k: usize, n: usize) {
        self.ops_copy.clear();
        self.ops_copy.extend_from_slice(ops);
        if self.shard_lists.len() < k {
            self.shard_lists.resize_with(k, Vec::new);
        }
        for l in self.shard_lists.iter_mut().take(k) {
            l.clear();
        }
        for (i, op) in ops.iter().enumerate() {
            let (u, v) = op.endpoints();
            self.shard_lists[shard_of(u.min(v), k, n)].push(i as u32);
        }
        self.parent.clear();
        self.parent.extend(0..ops.len() as u32);
        self.vnode.ensure(n.max(1));
        for s in 0..k {
            // per-shard endpoint bindings: ops in different shards stay
            // separate units even when they share a vertex (the commit
            // read-check covers those conflicts)
            self.vnode.clear();
            for li in 0..self.shard_lists[s].len() {
                let i = self.shard_lists[s][li];
                let (u, v) = ops[i as usize].endpoints();
                for x in [u, v] {
                    if (x as usize) < n {
                        match self.vnode.get(x) {
                            Some(j) => uf_union(&mut self.parent, i, j),
                            None => self.vnode.insert(x, i),
                        }
                    }
                }
            }
        }
        self.gmap.clear();
        self.gmap.resize(ops.len(), u32::MAX);
        self.groups.clear();
        self.route.clear();
        for i in 0..ops.len() as u32 {
            let r = uf_find(&mut self.parent, i) as usize;
            let gid = if self.gmap[r] == u32::MAX {
                let gid = self.groups.len() as u32;
                self.gmap[r] = gid;
                self.groups.push((0, 0));
                gid
            } else {
                self.gmap[r]
            };
            self.route.push((gid, self.groups[gid as usize].1));
            self.groups[gid as usize].1 += 1;
        }
        // counting-sort op indices into per-group contiguous ranges
        self.ops_arena.clear();
        self.ops_arena.resize(ops.len(), 0);
        self.placed.clear();
        let mut at = 0u32;
        for g in self.groups.iter_mut() {
            g.0 = at;
            self.placed.push(at);
            at += g.1;
        }
        for (i, &(gid, _)) in self.route.iter().enumerate() {
            let p = &mut self.placed[gid as usize];
            self.ops_arena[*p as usize] = i as u32;
            *p += 1;
        }
    }

    /// The op indices of group `gid`, in stream order.
    fn group_ops(&self, gid: usize) -> &[u32] {
        let (start, len) = self.groups[gid];
        &self.ops_arena[start as usize..(start + len) as usize]
    }
}

/// A raw pointer that asserts cross-thread transferability; every use
/// site guarantees disjoint access (one worker per slot, one pool item
/// for the pipelined grouping buffer).
struct SlotPtr<T>(*mut T);

impl<T> SlotPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: see the struct docs — all dereferences are disjoint by slot or
// by item.
unsafe impl<T> Send for SlotPtr<T> {}
unsafe impl<T> Sync for SlotPtr<T> {}

/// The reusable batch-execution state of the sharded engine (`k` = shard
/// count). See the [module docs](self) for the three-stage model.
#[derive(Debug)]
pub(crate) struct BatchSpec {
    /// Routing shard count (grouping granularity; semantics-free).
    pub k: usize,
    workers: Vec<SpecWorker>,
    grouping: [GroupingSet; 2],
    /// Which grouping buffer describes the batch being executed.
    cur: usize,
    /// Whether the *other* buffer holds a pipelined grouping for the
    /// next batch (verified against the actual ops before use).
    next_ready: bool,
    results: Vec<GroupResult>,
    group_ok: Vec<bool>,
    /// Vertex → head of its reader-group chain in `readers_entries`.
    readers_head: EpochMap<u32>,
    /// `(group id, next entry index or MAX)` chain links.
    readers_entries: Vec<(u32, u32)>,
    /// Ops committed by replaying their speculated plan.
    pub replayed: u64,
    /// Ops that fell back to the sequential repair at commit time.
    pub fallbacks: u64,
    /// Ops committed through the one-worker inline path (no speculation).
    pub inline_commits: u64,
    /// Ball-overlap groups formed across all speculative batches.
    pub overlap_groups: u64,
    /// Ops whose repair was speculated in the parallel ball phase.
    pub balls_parallel: u64,
    /// Groups whose speculation worker panicked and were committed
    /// entirely through the sequential fallback — the panic-isolation
    /// telemetry the chaos tests assert on.
    pub groups_fallback: u64,
}

impl BatchSpec {
    pub fn new(k: usize, workers: usize) -> Self {
        BatchSpec {
            k: k.max(1),
            workers: (0..workers.max(1)).map(|_| SpecWorker::new()).collect(),
            grouping: [GroupingSet::new(), GroupingSet::new()],
            cur: 0,
            next_ready: false,
            results: Vec::new(),
            group_ok: Vec::new(),
            readers_head: EpochMap::new(),
            readers_entries: Vec::new(),
            replayed: 0,
            fallbacks: 0,
            inline_commits: 0,
            overlap_groups: 0,
            balls_parallel: 0,
            groups_fallback: 0,
        }
    }

    /// Drops any pipelined next-batch grouping. Crash recovery replays
    /// the journal through fresh batches, so a grouping speculated for a
    /// batch that will never run must not be mistaken for them.
    pub fn reset_pipeline(&mut self) {
        self.next_ready = false;
    }

    /// The largest dense scratch footprint any speculation worker used.
    pub fn scratch_high_water(&self) -> usize {
        self.workers
            .iter()
            .map(|w| w.kit.scratch_high_water())
            .max()
            .unwrap_or(0)
    }

    /// Executes one batch against `core`: inline at one worker, otherwise
    /// group → speculate (pipelining `next_ops`'s grouping) → commit.
    ///
    /// # Errors
    ///
    /// A [`BatchError`] at the first malformed op; `applied` counts the
    /// committed updates (which remain applied).
    pub fn apply_batch(
        &mut self,
        core: &mut EngineCore,
        ops: &[UpdateOp],
        next_ops: Option<&[UpdateOp]>,
    ) -> Result<BatchStats, BatchError> {
        let mut out = BatchStats::default();
        if let Some(c) = core.chaos.as_mut() {
            c.begin_batch();
        }
        if core.pool.workers() == 1 {
            // one worker: speculation cannot overlap anything — commit
            // straight through the sequential path, zero extra work
            // (worker-panic injection targets the speculative path only;
            // there is no worker here to crash)
            self.next_ready = false;
            for (i, &op) in ops.iter().enumerate() {
                match core.apply_one(op) {
                    Ok(s) => {
                        self.inline_commits += 1;
                        out.absorb(s);
                    }
                    Err(source) => {
                        return Err(BatchError {
                            applied: i,
                            stats: out,
                            source,
                        })
                    }
                }
            }
            return Ok(out);
        }
        let n = core.g.vertex_count();
        // stage 1 — grouping: take the pipelined buffer if it matches
        // these ops, otherwise build inline
        let other = 1 - self.cur;
        if self.next_ready && self.grouping[other].ops_copy == ops {
            self.cur = other;
        } else {
            self.grouping[self.cur].build(ops, self.k, n);
        }
        self.next_ready = false;
        let groups_n = self.grouping[self.cur].groups.len();
        self.overlap_groups += groups_n as u64;
        self.balls_parallel += ops.len() as u64;
        // stage 2 — parallel speculation (+ pipelined grouping of the
        // next batch as one extra item)
        let panic_victim = core.chaos.as_mut().and_then(|c| c.panic_group(groups_n));
        {
            for w in &mut self.workers {
                w.begin_batch();
            }
            let [g0, g1] = &mut self.grouping;
            let (cur_g, next_g): (&GroupingSet, &mut GroupingSet) =
                if self.cur == 0 { (g0, g1) } else { (g1, g0) };
            let workers_ptr = SlotPtr(self.workers.as_mut_ptr());
            let next_ptr = SlotPtr(next_g as *mut GroupingSet);
            let extra = usize::from(next_ops.is_some());
            let (g, m, cfg, k) = (&core.g, &core.m, core.cfg, self.k);
            let task = move |slot: usize, item: usize, _scr: &mut Scratch| -> GroupResult {
                if item == groups_n {
                    // pipelined ingest: grouping is a pure function of
                    // the op slice, so building it here is bit-identical
                    // to building it inline next batch
                    // SAFETY: only item `groups_n` touches the next
                    // buffer — exclusive by item index
                    let ng = unsafe { &mut *next_ptr.get() };
                    ng.build(next_ops.expect("extra item implies next_ops"), k, n);
                    return GroupResult::default();
                }
                // SAFETY: a worker slot runs at most one task at a time,
                // so `workers[slot]` is exclusively this call's
                let w = unsafe { &mut *workers_ptr.get().add(slot) };
                // isolation boundary: a panicking speculation (injected
                // or genuine) degrades this one group to the sequential
                // fallback instead of unwinding through the pool. The
                // worker's partial arena garbage is harmless: the next
                // group on this slot resets all per-group state and
                // appends past whatever the panic left behind.
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    w.speculate_group(
                        g,
                        m,
                        &cfg,
                        ops,
                        cur_g.group_ops(item),
                        slot as u32,
                        panic_victim == Some(item),
                    )
                }));
                caught.unwrap_or(GroupResult {
                    slot: slot as u32,
                    plan_start: 0,
                    reads: (0, 0),
                    panicked: true,
                })
            };
            self.results = core.pool.run_map(groups_n + extra, &task);
            self.results.truncate(groups_n);
            self.next_ready = next_ops.is_some();
            self.groups_fallback += self.results.iter().filter(|r| r.panicked).count() as u64;
        }
        // stage 3 — commit in stream order
        self.group_ok.clear();
        self.group_ok.resize(groups_n, true);
        self.build_readers_index(n);
        let BatchSpec {
            workers,
            grouping,
            cur,
            results,
            group_ok,
            readers_head,
            readers_entries,
            replayed,
            fallbacks,
            ..
        } = self;
        let cur_g = &grouping[*cur];
        for (i, &op) in ops.iter().enumerate() {
            let (gid, idx) = cur_g.route[i];
            let res = results[gid as usize];
            let mut stats = UpdateStats::default();
            // a panicked group's plan ranges are garbage — the short-
            // circuit keeps them from ever being indexed
            let plan_live = group_ok[gid as usize]
                && !res.panicked
                && workers[res.slot as usize].plans[(res.plan_start + idx) as usize]
                    .err
                    .is_none();
            if plan_live {
                let w = &workers[res.slot as usize];
                let plan = &w.plans[(res.plan_start + idx) as usize];
                // replay: the read-set check below proved (for every
                // earlier commit) that no foreign write touched anything
                // this group's speculation read, so replaying is
                // indistinguishable from repairing here
                core.g.apply(op).expect("speculated op replays");
                for j in plan.journal.0..plan.journal.1 {
                    let (e, ins) = w.journal_arena[j as usize];
                    if ins {
                        core.m.insert(e).expect("replayed insert is valid");
                    } else {
                        core.m
                            .remove_pair(e.u, e.v)
                            .expect("replayed removal is valid");
                    }
                }
                stats.gain = plan.gain;
                stats.recourse = plan.recourse;
                stats.augmentations = plan.augmentations;
                *replayed += 1;
                let writes = &w.writes_arena[plan.writes.0 as usize..plan.writes.1 as usize];
                invalidate_readers(readers_head, readers_entries, group_ok, writes, gid, n);
            } else {
                // sequential fallback — the DynamicMatcher code path
                group_ok[gid as usize] = false;
                let seq = match core.repair_one(op) {
                    Ok(s) => s,
                    Err(source) => {
                        return Err(BatchError {
                            applied: i,
                            stats: out,
                            source,
                        })
                    }
                };
                stats = seq;
                *fallbacks += 1;
                invalidate_readers(
                    readers_head,
                    readers_entries,
                    group_ok,
                    &core.write_buf,
                    gid,
                    n,
                );
            }
            core.finish(&mut stats);
            if stats.rebuilt {
                // the epoch rewrote the matching globally: every
                // remaining speculation is stale
                group_ok.iter_mut().for_each(|ok| *ok = false);
            }
            out.absorb(stats);
        }
        Ok(out)
    }

    /// Builds the vertex → reader-groups chain index from the groups'
    /// speculation read sets (deduplicated per group by the kit's epoch
    /// marks, so each `(vertex, group)` pair appears once).
    fn build_readers_index(&mut self, n: usize) {
        self.readers_head.ensure(n.max(1));
        self.readers_head.clear();
        self.readers_entries.clear();
        for (gid, res) in self.results.iter().enumerate() {
            let w = &self.workers[res.slot as usize];
            for &v in &w.reads_arena[res.reads.0 as usize..res.reads.1 as usize] {
                let head = self.readers_head.get(v).unwrap_or(u32::MAX);
                self.readers_entries.push((gid as u32, head));
                self.readers_head
                    .insert(v, self.readers_entries.len() as u32 - 1);
            }
        }
    }
}

/// A committed write to any vertex another group's speculation read
/// invalidates that group for the rest of the batch. Walks only the
/// written vertices' reader chains — O(actual conflicts), not
/// O(groups × writes).
fn invalidate_readers(
    readers_head: &EpochMap<u32>,
    readers_entries: &[(u32, u32)],
    group_ok: &mut [bool],
    writes: &[Vertex],
    own: u32,
    n: usize,
) {
    for &wv in writes {
        if (wv as usize) >= n {
            continue;
        }
        let mut cursor = readers_head.get(wv);
        while let Some(idx) = cursor {
            let (gid, next) = readers_entries[idx as usize];
            if gid != own {
                group_ok[gid as usize] = false;
            }
            cursor = (next != u32::MAX).then_some(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn groups_of(ops: &[UpdateOp], k: usize, n: usize) -> GroupingSet {
        let mut gs = GroupingSet::new();
        gs.build(ops, k, n);
        gs
    }

    #[test]
    fn disjoint_ops_form_singleton_groups() {
        let ops = [
            UpdateOp::insert(0, 1, 5),
            UpdateOp::insert(2, 3, 5),
            UpdateOp::insert(4, 5, 5),
        ];
        let gs = groups_of(&ops, 1, 6);
        assert_eq!(gs.groups.len(), 3);
        for (i, &(gid, idx)) in gs.route.iter().enumerate() {
            assert_eq!(gid as usize, i, "stream-ordered dense ids");
            assert_eq!(idx, 0);
            assert_eq!(gs.group_ops(i), &[i as u32]);
        }
    }

    #[test]
    fn shared_endpoint_merges_transitively() {
        // 0-1, 1-2 share 1; 2-3 shares 2 with the second: one group.
        // 5-6 is separate.
        let ops = [
            UpdateOp::insert(0, 1, 5),
            UpdateOp::insert(5, 6, 5),
            UpdateOp::insert(1, 2, 5),
            UpdateOp::delete(2, 3),
            UpdateOp::insert(6, 5, 9),
        ];
        let gs = groups_of(&ops, 1, 8);
        assert_eq!(gs.groups.len(), 2);
        assert_eq!(gs.route[0].0, 0);
        assert_eq!(gs.route[1].0, 1, "5-6 opens group 1");
        assert_eq!(gs.route[2].0, 0);
        assert_eq!(gs.route[3].0, 0);
        assert_eq!(gs.route[4].0, 1, "same pair rejoins 5-6's group");
        assert_eq!(gs.group_ops(0), &[0, 2, 3]);
        assert_eq!(gs.group_ops(1), &[1, 4]);
        // in-group indices follow stream order
        assert_eq!(gs.route[3].1, 2);
        assert_eq!(gs.route[4].1, 1);
    }

    #[test]
    fn hub_vertex_collapses_batch_to_one_group() {
        // adversarial shape: every op touches vertex 0
        let ops: Vec<UpdateOp> = (1..40u32).map(|v| UpdateOp::insert(0, v, 3)).collect();
        let gs = groups_of(&ops, 1, 64);
        assert_eq!(gs.groups.len(), 1);
        assert_eq!(gs.group_ops(0).len(), 39);
    }

    #[test]
    fn cross_shard_sharing_stays_separate() {
        // {0,1} owned by shard 0; {1,9} owned by... min is 1 → shard 0
        // too. {8,9} is shard 1. A vertex-9 overlap between shards must
        // NOT merge: conflicts across shards go through the read check.
        let ops = [
            UpdateOp::insert(0, 1, 5),
            UpdateOp::insert(8, 9, 5),
            UpdateOp::insert(1, 9, 5),
        ];
        let gs = groups_of(&ops, 2, 16);
        assert_eq!(gs.groups.len(), 2);
        assert_eq!(gs.route[0].0, gs.route[2].0, "same shard, shared vertex 1");
        assert_ne!(gs.route[0].0, gs.route[1].0, "different shards");
    }

    #[test]
    fn grouping_is_reusable_and_pure() {
        let ops_a: Vec<UpdateOp> = (0..30u32).map(|i| UpdateOp::insert(i, i + 30, 2)).collect();
        let ops_b = [UpdateOp::insert(0, 1, 1), UpdateOp::insert(1, 2, 1)];
        let mut gs = GroupingSet::new();
        gs.build(&ops_a, 4, 64);
        let first: Vec<(u32, u32)> = gs.route.clone();
        gs.build(&ops_b, 4, 64);
        assert_eq!(gs.groups.len(), 1);
        gs.build(&ops_a, 4, 64);
        assert_eq!(gs.route, first, "rebuild after reuse is identical");
        assert_eq!(gs.ops_copy, ops_a);
    }

    #[test]
    fn out_of_range_endpoints_do_not_bind() {
        // a malformed op (endpoint ≥ n) still gets a group of its own and
        // must not panic the grouping pass
        let ops = [UpdateOp::insert(0, 99, 5), UpdateOp::insert(0, 1, 5)];
        let gs = groups_of(&ops, 2, 8);
        // vertex 0 is shared and in range: they merge through it
        assert_eq!(gs.route[0].0, gs.route[1].0);
        let lone = [UpdateOp::insert(99, 98, 5), UpdateOp::insert(0, 1, 5)];
        let gs = groups_of(&lone, 2, 8);
        assert_eq!(gs.groups.len(), 2, "fully out-of-range op stays alone");
    }
}
