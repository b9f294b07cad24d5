//! Counting-allocator proof that the dynamic engine's update path is
//! allocation-free at steady state: once a warm-up cycle has sized every
//! persistent buffer (slab, adjacency arena, repair-kit arenas, the
//! matching a global restore starts from, pending-repair set, the WAL's
//! snapshot and journal tail), re-applying the identical op cycle must
//! not touch the allocator — whether it runs the eager repair, ends in
//! the sentinel's heal without a WAL (the one global restore, which
//! applies augmentations after deferred ops), defers repairs under a
//! budget or window policy and flushes them, feeds the sharded engine's
//! batch path, or captures WAL snapshots between batches.
//!
//! This file holds a single test so no concurrent test thread can
//! perturb the counter (the same discipline as the graph crate's
//! `alloc_free.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use wmatch_dynamic::{
    DynamicConfig, DynamicMatcher, RepairPolicy, ShardedMatcher, UpdateOp, WalConfig,
};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A state-neutral op cycle on a path-structured base graph: heavy
/// inserts that force swap repairs, matched deletes that force
/// re-matching, and parallel-copy churn — every insert is matched by a
/// delete, so the graph (and the deterministic repair's matching) return
/// to the pre-cycle state.
fn churn_cycle() -> Vec<UpdateOp> {
    let mut ops = Vec::new();
    for b in (0u32..40).step_by(8) {
        // heavier copy of a matched pair → parallel-upgrade swap, then
        // LIFO delete swaps it back out
        ops.push(UpdateOp::insert(b, b + 1, 50));
        ops.push(UpdateOp::delete(b, b + 1));
        // a 3-augmentation opener and its teardown
        ops.push(UpdateOp::insert(b + 1, b + 2, 9));
        ops.push(UpdateOp::insert(b + 2, b + 3, 9));
        ops.push(UpdateOp::delete(b + 2, b + 3));
        ops.push(UpdateOp::delete(b + 1, b + 2));
    }
    ops
}

/// Appends a state-neutral sequence on the free vertices `b..b + 4`: two
/// light pairs, a heavy middle edge that swaps them out, then deleting
/// the middle edge — which needs two augmentations to re-match both
/// light pairs — and tearing everything down.
fn ops_two_augmentation_teardown(ops: &mut Vec<UpdateOp>, b: u32) {
    ops.push(UpdateOp::insert(b, b + 1, 5));
    ops.push(UpdateOp::insert(b + 2, b + 3, 5));
    ops.push(UpdateOp::insert(b + 1, b + 2, 20));
    ops.push(UpdateOp::delete(b + 1, b + 2));
    ops.push(UpdateOp::delete(b + 2, b + 3));
    ops.push(UpdateOp::delete(b, b + 1));
}

#[test]
fn steady_state_apply_heal_and_wal_capture_are_allocation_free() {
    let n = 48usize;
    // base graph: disjoint matched pairs
    let base: Vec<UpdateOp> = (0u32..40)
        .step_by(8)
        .map(|b| UpdateOp::insert(b, b + 1, 10))
        .collect();
    let cycle = churn_cycle();

    // phase 1: the per-update repair path
    let mut eng = DynamicMatcher::new(n, DynamicConfig::default());
    eng.apply_all(&base).expect("base ops are well-formed");
    let before_warm = eng.matching().to_edges();
    eng.apply_all(&cycle).expect("cycle ops are well-formed");
    assert_eq!(
        eng.matching().to_edges(),
        before_warm,
        "the cycle is state-neutral, so the warmed buffers cover a repeat"
    );
    let before = allocations();
    eng.apply_all(&cycle).expect("cycle ops are well-formed");
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "warmed-up apply must not touch the allocator ({during} allocations)"
    );

    // phase 2: the sentinel's heal without a WAL, the engine's one global
    // restore, which re-certifies the invariant in place and diffs against
    // the matching it started from. After an eager cycle it applies
    // nothing; after a deferred one it applies every repair the cycle
    // owes (its matched deletes leave the base pairs unmatched)
    for deferred in [false, true] {
        let ingest = if deferred {
            ShardedMatcher::apply_deferred
        } else {
            ShardedMatcher::apply_all
        };
        let mut eng = ShardedMatcher::new(n, DynamicConfig::default(), 4);
        eng.apply_all(&base).expect("base ops are well-formed");
        let before_warm = eng.matching().to_edges();
        ingest(&mut eng, &cycle).expect("cycle ops are well-formed");
        eng.quarantine_heal(0);
        assert_eq!(
            eng.matching().to_edges(),
            before_warm,
            "deferred = {deferred}: the cycle plus a heal is state-neutral"
        );
        let augs_before = eng.counters().augmentations_applied;
        let before = allocations();
        ingest(&mut eng, &cycle).expect("cycle ops are well-formed");
        eng.quarantine_heal(0);
        let during = allocations() - before;
        assert_eq!(eng.deferred_repairs(), 0, "the heal settles the debt");
        assert!(
            !deferred || eng.counters().augmentations_applied > augs_before,
            "the restore after a deferred cycle must apply augmentations"
        );
        assert_eq!(
            during, 0,
            "deferred = {deferred}: a warmed-up heal must not allocate ({during} allocations)"
        );
    }

    // phase 3: the deferring policies — a budget that runs out (carrying
    // repairs into later ops) and a window that defers and batch-flushes;
    // each cycle ends with a flush, so window boundaries repeat per cycle.
    // The cycle gains a teardown whose matched delete needs two
    // augmentations, so a budget of 1 really carries.
    let mut cycle = cycle;
    for b in (4u32..40).step_by(8) {
        ops_two_augmentation_teardown(&mut cycle, b);
    }
    for policy in [RepairPolicy::Budget(1), RepairPolicy::Window(7)] {
        let mut eng = DynamicMatcher::new(n, DynamicConfig::default()).with_policy(policy);
        eng.apply_all(&base).expect("base ops are well-formed");
        eng.flush();
        let before_warm = eng.matching().to_edges();
        eng.apply_all(&cycle).expect("cycle ops are well-formed");
        eng.flush();
        assert_eq!(
            eng.matching().to_edges(),
            before_warm,
            "{policy:?}: the cycle plus a flush is state-neutral"
        );
        let deferred_before = eng.exhausted_updates() + eng.flushes();
        let before = allocations();
        eng.apply_all(&cycle).expect("cycle ops are well-formed");
        eng.flush();
        let during = allocations() - before;
        assert!(
            eng.exhausted_updates() + eng.flushes() > deferred_before,
            "{policy:?}: repairs must actually be deferred inside the measured cycle"
        );
        assert_eq!(
            during, 0,
            "{policy:?}: warmed-up deferred apply and flush must not allocate \
             ({during} allocations)"
        );
    }

    // phase 4: the sharded batch path — `apply_all` chunks the cycle into
    // batches that each commit through the sequential per-op path, so the
    // batching itself must not allocate either (no WAL, no chaos)
    let cycle = churn_cycle();
    let mut eng = ShardedMatcher::new(n, DynamicConfig::default(), 4).with_batch_size(8);
    eng.apply_all(&base).expect("base ops are well-formed");
    let before_warm = eng.matching().to_edges();
    eng.apply_all(&cycle).expect("cycle ops are well-formed");
    assert_eq!(
        eng.matching().to_edges(),
        before_warm,
        "the cycle is state-neutral on the sharded engine too"
    );
    let before = allocations();
    eng.apply_all(&cycle).expect("cycle ops are well-formed");
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "warmed-up sharded batches must not allocate ({during} allocations)"
    );

    // phase 5: WAL capture — a snapshot every 8 journaled ops, checked
    // after each 8-op batch, so the cycle's batches copy the graph,
    // matching and counters into the WAL's warm snapshot. The cycle's
    // 30 ops leave 6 in the tail, so the first cycle sizes the snapshot
    // and the second the tail that carries into the next cycle's first
    // batch; the third repeats the second exactly
    let mut eng = ShardedMatcher::new(n, DynamicConfig::default(), 4).with_batch_size(8);
    eng.apply_all(&base).expect("base ops are well-formed");
    eng.enable_wal(WalConfig::new().with_snapshot_every(8));
    let before_warm = eng.matching().to_edges();
    for _ in 0..2 {
        eng.apply_all(&cycle).expect("cycle ops are well-formed");
    }
    assert_eq!(
        eng.matching().to_edges(),
        before_warm,
        "the cycle is state-neutral under the WAL too"
    );
    let snapshots_before = eng.wal_stats().expect("the WAL is enabled").snapshots;
    let before = allocations();
    eng.apply_all(&cycle).expect("cycle ops are well-formed");
    let during = allocations() - before;
    let snapshots = eng.wal_stats().expect("the WAL is enabled").snapshots - snapshots_before;
    assert!(
        snapshots >= 2,
        "the measured cycle must capture snapshots ({snapshots} captured)"
    );
    assert_eq!(
        during, 0,
        "warmed-up WAL capture must not allocate ({during} allocations over {snapshots} snapshots)"
    );
}
