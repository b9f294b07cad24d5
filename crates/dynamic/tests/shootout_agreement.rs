//! The cross-engine metamorphic suite behind the shootout: every dynamic
//! engine in the crate — eager, sharded, recompute baseline, random-walk,
//! and the bounded-lazy and ε-stale repair policies — is driven through
//! the one [`UpdateEngine`] surface over pinned-seed update streams, and
//! held to the claims the shootout compares them on:
//!
//! - **consistency**: after a flush the maintained matching validates
//!   against the live snapshot (no vertex matched twice, every matched
//!   edge backed by a live copy);
//! - **quality**: the post-flush matching meets the engine's *declared*
//!   floor against a from-scratch blossom solve at every checkpoint;
//! - **recourse accounting**: the per-op recourse the engines return sums
//!   exactly to their lifetime counter, and the observable churn between
//!   checkpoints (matching symmetric difference) never exceeds what the
//!   journals reported for the span.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wmatch_dynamic::{
    DynamicConfig, DynamicMatcher, RandomWalkConfig, RandomWalkMatcher, RecomputeBaseline,
    RepairPolicy, ShardedMatcher, UpdateEngine, UpdateOp,
};
use wmatch_graph::exact::max_weight_matching;
use wmatch_graph::{Edge, Vertex};

/// Every engine the shootout compares, freshly configured. The lazy
/// budget and staleness window are deliberately tight so the deferred
/// policies actually defer on these streams.
fn engines(n: usize) -> Vec<(&'static str, Box<dyn UpdateEngine>)> {
    let cfg = DynamicConfig::default();
    vec![
        ("eager", Box::new(DynamicMatcher::new(n, cfg))),
        ("baseline", Box::new(RecomputeBaseline::new(n, 3))),
        ("sharded", Box::new(ShardedMatcher::new(n, cfg, 4))),
        (
            "randomwalk",
            Box::new(RandomWalkMatcher::new(n, RandomWalkConfig::new())),
        ),
        (
            "lazy",
            Box::new(DynamicMatcher::new(n, cfg).with_policy(RepairPolicy::Budget(1))),
        ),
        (
            "stale",
            Box::new(DynamicMatcher::new(n, cfg).with_policy(RepairPolicy::Window(9))),
        ),
    ]
}

/// Heavy churn: interleaved inserts and deletes with a density governor.
fn heavy_churn(n: usize, len: usize, seed: u64) -> Vec<UpdateOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<(Vertex, Vertex)> = Vec::new();
    let cap = 5 * n / 2;
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let delete = !live.is_empty()
            && (live.len() >= cap || (live.len() > cap / 2 && rng.gen_range(0..2) == 0));
        if delete {
            let i = rng.gen_range(0..live.len());
            let (u, v) = live.swap_remove(i);
            ops.push(UpdateOp::delete(u, v));
        } else {
            let u = rng.gen_range(0..n as Vertex);
            let mut v = rng.gen_range(0..n as Vertex);
            if v == u {
                v = (v + 1) % n as Vertex;
            }
            live.push((u, v));
            ops.push(UpdateOp::insert(u, v, rng.gen_range(1..=200)));
        }
    }
    ops
}

/// Sliding window: pure inserts until the window fills, then every insert
/// evicts the oldest live edge — the time-decay workload.
fn sliding_window(n: usize, len: usize, window: usize, seed: u64) -> Vec<UpdateOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fifo: std::collections::VecDeque<(Vertex, Vertex)> = Default::default();
    let mut ops = Vec::with_capacity(len);
    while ops.len() < len {
        let u = rng.gen_range(0..n as Vertex);
        let mut v = rng.gen_range(0..n as Vertex);
        if v == u {
            v = (v + 1) % n as Vertex;
        }
        ops.push(UpdateOp::insert(u, v, rng.gen_range(1..=200)));
        fifo.push_back((u, v));
        if fifo.len() > window && ops.len() < len {
            let (du, dv) = fifo.pop_front().unwrap();
            ops.push(UpdateOp::delete(du, dv));
        }
    }
    ops
}

/// Delete-the-matching: an insert phase, then delete exactly the edges a
/// probe eager engine matched — every delete forces a repair.
fn delete_matching(n: usize, inserts: usize, seed: u64) -> Vec<UpdateOp> {
    let mut ops = heavy_churn(n, inserts, seed)
        .into_iter()
        .filter(|op| matches!(op, UpdateOp::Insert { .. }))
        .collect::<Vec<_>>();
    let mut probe = DynamicMatcher::new(n, DynamicConfig::default());
    for &op in &ops {
        probe.apply(op).expect("inserts are well-formed");
    }
    let matched: Vec<Edge> = probe.matching().to_edges();
    ops.extend(matched.iter().map(|e| UpdateOp::delete(e.u, e.v)));
    ops
}

/// Replays `ops` on `eng` with a checkpoint every `cadence` ops: flush,
/// validate against the snapshot, and hold the *declared* floor against a
/// from-scratch blossom solve.
fn replay_with_floor_checkpoints(
    label: &str,
    eng: &mut dyn UpdateEngine,
    ops: &[UpdateOp],
    cadence: usize,
) {
    let floor = eng.declared_floor();
    for (step, &op) in ops.iter().enumerate() {
        eng.apply(op)
            .unwrap_or_else(|e| panic!("{label} step {step}: {e}"));
        if (step + 1) % cadence == 0 || step + 1 == ops.len() {
            eng.flush();
            let snap = eng.graph().snapshot();
            eng.matching()
                .validate(Some(&snap))
                .unwrap_or_else(|e| panic!("{label} step {step}: invalid matching: {e}"));
            let opt = max_weight_matching(&snap).weight();
            assert!(
                eng.matching().weight() as f64 >= (floor - 1e-9) * opt as f64,
                "{label} step {step}: weight {} below declared floor {floor} of optimum {opt}",
                eng.matching().weight()
            );
        }
    }
    assert_eq!(
        eng.counters().updates_applied as usize,
        ops.len(),
        "{label}: every stream op must be counted"
    );
}

#[test]
fn every_engine_holds_its_declared_floor_on_heavy_churn() {
    let ops = heavy_churn(20, 400, 0xC0FFEE);
    for (name, mut eng) in engines(20) {
        replay_with_floor_checkpoints(&format!("churn/{name}"), eng.as_mut(), &ops, 50);
    }
}

#[test]
fn every_engine_holds_its_declared_floor_on_sliding_windows() {
    let ops = sliding_window(20, 400, 30, 0x51DE);
    for (name, mut eng) in engines(20) {
        replay_with_floor_checkpoints(&format!("window/{name}"), eng.as_mut(), &ops, 50);
    }
}

#[test]
fn every_engine_holds_its_declared_floor_when_the_matching_is_deleted() {
    let ops = delete_matching(20, 160, 0xDE1);
    for (name, mut eng) in engines(20) {
        replay_with_floor_checkpoints(&format!("delete-matching/{name}"), eng.as_mut(), &ops, 25);
    }
}

/// The (key, weight) multiset view of a matching, for symmetric diffs.
fn matching_set(eng: &dyn UpdateEngine) -> std::collections::HashSet<((Vertex, Vertex), u64)> {
    eng.matching().iter().map(|e| (e.key(), e.weight)).collect()
}

#[test]
fn recourse_journals_reconcile_with_counters_and_snapshot_diffs() {
    let ops = heavy_churn(18, 300, 0x5EC0);
    for (name, mut eng) in engines(18) {
        let mut total: u64 = 0;
        let mut span: u64 = 0;
        let mut at_checkpoint = matching_set(eng.as_ref());
        for (step, &op) in ops.iter().enumerate() {
            let stats = eng.apply(op).expect("well-formed stream");
            total += stats.recourse;
            span += stats.recourse;
            if (step + 1) % 40 == 0 || step + 1 == ops.len() {
                let fs = eng.flush();
                total += fs.recourse;
                span += fs.recourse;
                // observable churn over the span: every matched-edge
                // change must have passed through a journal, so the
                // symmetric difference cannot exceed the reported recourse
                let now = matching_set(eng.as_ref());
                let diff = now.symmetric_difference(&at_checkpoint).count() as u64;
                assert!(
                    diff <= span,
                    "{name} step {step}: snapshot diff {diff} exceeds journaled recourse {span}"
                );
                at_checkpoint = now;
                span = 0;
            }
        }
        assert_eq!(
            total,
            eng.counters().recourse_total,
            "{name}: returned per-op recourse must sum to the lifetime counter"
        );
    }
}

#[test]
fn generously_budgeted_lazy_engine_is_bit_identical_to_eager() {
    // metamorphic relation: with an unbounded budget the lazy policy never
    // defers, so it *is* the eager engine, op for op
    let ops = heavy_churn(16, 250, 0x1A2B);
    let mut eager = DynamicMatcher::new(16, DynamicConfig::default());
    let mut lazy = DynamicMatcher::new(16, DynamicConfig::default())
        .with_policy(RepairPolicy::Budget(usize::MAX));
    for &op in &ops {
        let a = eager.apply(op).unwrap();
        let b = lazy.apply(op).unwrap();
        assert_eq!(a, b, "per-op stats diverge");
    }
    assert_eq!(eager.matching().to_edges(), lazy.matching().to_edges());
    assert_eq!(lazy.exhausted_updates(), 0, "nothing may be deferred");
    assert_eq!(lazy.pending_len(), 0);
}

proptest! {
    // Seed pinned for reproducibility: every run explores the same cases.
    #![proptest_config(ProptestConfig::with_cases(20).with_seed(0x73686f6f))] // b"shoo"

    /// Pinned-seed random streams through every engine: post-flush the
    /// matching validates and meets the declared floor, and the counters
    /// see the whole stream.
    #[test]
    fn random_streams_hold_floor_across_all_engines(
        stream_seed in 0u64..500,
        len in 30usize..90,
    ) {
        let ops = heavy_churn(12, len, stream_seed);
        for (name, mut eng) in engines(12) {
            let floor = eng.declared_floor();
            for &op in &ops {
                eng.apply(op).expect("well-formed stream");
            }
            eng.flush();
            let snap = eng.graph().snapshot();
            eng.matching().validate(Some(&snap)).expect("valid post-flush");
            let opt = max_weight_matching(&snap).weight();
            prop_assert!(
                eng.matching().weight() as f64 >= (floor - 1e-9) * opt as f64,
                "{} below declared floor", name
            );
            prop_assert_eq!(eng.counters().updates_applied as usize, ops.len());
        }
    }
}
