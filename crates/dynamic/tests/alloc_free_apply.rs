//! Counting-allocator proof that the dynamic engine's update path is
//! allocation-free at steady state: once a warm-up cycle has sized every
//! persistent buffer (slab, adjacency, repair-kit arenas, recycled CSR
//! views, rebuild snapshot, pending-repair set), re-applying the
//! identical op cycle — running restore-only rebuild epochs (including
//! one whose global restore applies an augmentation), deferring repairs
//! under a budget or window policy and flushing them, or feeding the
//! sharded engine's batch path — must not touch the allocator.
//!
//! This file holds a single test so no concurrent test thread can
//! perturb the counter (the same discipline as the graph crate's
//! `alloc_free.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use wmatch_dynamic::{DynamicConfig, DynamicMatcher, RepairPolicy, ShardedMatcher, UpdateOp};

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
fn steady_state_apply_and_restore_epochs_are_allocation_free() {
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

    // phase 2: restore-only rebuild epochs (rebuild_rounds = 0 skips the
    // allocating class sweep; the epoch still snapshots, re-certifies the
    // invariant globally, and diffs against the pre-epoch matching)
    let cfg = DynamicConfig::default()
        .with_rebuild_threshold(10)
        .with_rebuild_rounds(0);
    let mut eng = DynamicMatcher::new(n, cfg);
    eng.apply_all(&base).expect("base ops are well-formed");
    // two warm-up cycles: the first grows the epoch buffers, the second
    // proves the op/epoch alignment repeats (cycle length 30 and base 5
    // keep epochs at fixed cycle offsets)
    eng.apply_all(&cycle).expect("cycle ops are well-formed");
    eng.apply_all(&cycle).expect("cycle ops are well-formed");
    let rebuilds_before = eng.counters().rebuilds;
    let before = allocations();
    eng.apply_all(&cycle).expect("cycle ops are well-formed");
    let during = allocations() - before;
    assert!(
        eng.counters().rebuilds > rebuilds_before,
        "epochs must actually fire inside the measured cycle"
    );
    assert_eq!(
        during, 0,
        "warmed-up restore-only epochs must not allocate ({during} allocations)"
    );

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

    // phase 4: a restore-only epoch whose global restore applies an
    // augmentation. Under a budget of 1 the teardown's matched delete
    // re-matches one light pair and leaves the other pending; with two
    // lead-in ops and 6-op cycles, the epoch comes due on exactly that
    // delete in every cycle, and its restore matches the second pair.
    let cfg = DynamicConfig::default()
        .with_rebuild_threshold(6)
        .with_rebuild_rounds(0);
    let mut eng = DynamicMatcher::new(n, cfg).with_policy(RepairPolicy::Budget(1));
    eng.apply_all(&[UpdateOp::insert(10, 11, 7), UpdateOp::delete(10, 11)])
        .expect("lead-in ops are well-formed");
    let mut teardown = Vec::new();
    ops_two_augmentation_teardown(&mut teardown, 0);
    for _ in 0..2 {
        eng.apply_all(&teardown)
            .expect("teardown ops are well-formed");
    }
    assert!(eng.matching().is_empty(), "the teardown is state-neutral");
    let augs_before = eng.counters().augmentations_applied;
    let rebuilds_before = eng.counters().rebuilds;
    let before = allocations();
    let stats = eng
        .apply_all(&teardown)
        .expect("teardown ops are well-formed");
    let during = allocations() - before;
    let restored = eng.counters().augmentations_applied - augs_before - stats.augmentations;
    assert_eq!(eng.counters().rebuilds, rebuilds_before + 1);
    assert_eq!(
        restored, 1,
        "the epoch's global restore must apply the deferred augmentation"
    );
    assert_eq!(
        during, 0,
        "a warmed-up restore that applies augmentations must not allocate \
         ({during} allocations)"
    );

    // phase 5: the sharded batch path — `apply_all` chunks the cycle into
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
}
