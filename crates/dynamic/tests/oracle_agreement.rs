//! The dynamic-vs-oracle agreement suite: replay update sequences and, at
//! checkpoints, hold the maintained matching to the engine's declared
//! approximation floor against a from-scratch exact (blossom) solve —
//! plus the invariant cross-check against the reference `AugSearcher`
//! (the engine's "no short augmentation" must mean exactly what the
//! static searcher means by it).
//!
//! Covers the unit cases the update model makes interesting (deleting a
//! matched edge, parallel edges, weight-class boundary crossings), a
//! ≥10⁵-operation churn sequence with periodic oracle checkpoints, and a
//! pinned-seed property test over random update sequences.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wmatch_dynamic::{
    DynamicConfig, DynamicMatcher, RecomputeBaseline, ShardedMatcher, UpdateEngine, UpdateOp,
};
use wmatch_graph::aug_search::best_augmentation;
use wmatch_graph::exact::max_weight_matching;
use wmatch_graph::Vertex;
use wmatch_oracle::{certify_max_weight, IncrementalCertifier};

/// The floor the default configuration certifies (Fact 1.3 at
/// `max_len = 3`, i.e. ℓ = 2).
const FLOOR_NUM: i128 = 1;
const FLOOR_DEN: i128 = 2;

/// Asserts the engine's matching validates, meets the ½ floor against a
/// from-scratch blossom solve of the live graph, and admits no positive
/// augmentation the reference searcher can see.
fn assert_oracle_floor(eng: &DynamicMatcher, label: &str) {
    let snap = eng.graph().snapshot();
    eng.matching()
        .validate(Some(&snap))
        .unwrap_or_else(|e| panic!("{label}: invalid matching: {e}"));
    assert!(
        best_augmentation(&snap, eng.matching(), eng.config().max_len).is_none(),
        "{label}: a positive short augmentation survived"
    );
    let opt = max_weight_matching(&snap).weight();
    assert!(
        eng.matching().weight() * FLOOR_DEN >= FLOOR_NUM * opt,
        "{label}: {} below the ½ floor of optimum {opt}",
        eng.matching().weight()
    );
}

/// A deterministic churn step that keeps the live set near a bounded
/// density (≈2.5 edges per vertex): above the cap it deletes, below half
/// the cap it inserts, in between it flips a coin — so a long sequence
/// stays sparse instead of accreting into a dense graph.
fn churn_op(rng: &mut StdRng, n: usize, live: &mut Vec<(Vertex, Vertex)>) -> UpdateOp {
    let cap = 5 * n / 2;
    let delete = !live.is_empty()
        && (live.len() >= cap || (live.len() > cap / 2 && rng.gen_range(0..2) == 0));
    if delete {
        let i = rng.gen_range(0..live.len());
        let (u, v) = live.swap_remove(i);
        UpdateOp::delete(u, v)
    } else {
        let u = rng.gen_range(0..n as Vertex);
        let mut v = rng.gen_range(0..n as Vertex);
        if v == u {
            v = (v + 1) % n as Vertex;
        }
        live.push((u, v));
        UpdateOp::insert(u, v, rng.gen_range(1..=1000))
    }
}

/// The headline acceptance check: a 10⁵-operation churn sequence; at
/// every checkpoint the maintained matching meets the declared floor
/// against the blossom oracle.
#[test]
fn hundred_thousand_op_churn_holds_floor_at_checkpoints() {
    const N: usize = 96;
    const OPS: usize = 100_000;
    const CHECKPOINT: usize = 1_000;
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    let mut eng = DynamicMatcher::new(N, DynamicConfig::default());
    let mut live = Vec::new();
    for step in 1..=OPS {
        let op = churn_op(&mut rng, N, &mut live);
        eng.apply(op).expect("generated ops are well-formed");
        if step % CHECKPOINT == 0 {
            assert_oracle_floor(&eng, &format!("churn step {step}"));
        }
    }
    let counters = eng.counters();
    assert_eq!(counters.updates_applied as usize, OPS);
    // bounded recourse in the aggregate: local repair touches a handful
    // of matching edges per update, not the whole matching
    assert!(
        counters.recourse_total < (3 * OPS) as u64,
        "recourse {} is not O(1) per update",
        counters.recourse_total
    );
}

/// A deterministic bipartite churn step (left 0..n/2, right n/2..n) with
/// the same density governor as [`churn_op`].
fn bipartite_churn_op(rng: &mut StdRng, n: usize, live: &mut Vec<(Vertex, Vertex)>) -> UpdateOp {
    let half = (n / 2) as Vertex;
    let cap = 5 * n / 2;
    let delete = !live.is_empty()
        && (live.len() >= cap || (live.len() > cap / 2 && rng.gen_range(0..2) == 0));
    if delete {
        let i = rng.gen_range(0..live.len());
        let (u, v) = live.swap_remove(i);
        UpdateOp::delete(u, v)
    } else {
        let u = rng.gen_range(0..half);
        let v = half + rng.gen_range(0..half);
        live.push((u, v));
        UpdateOp::insert(u, v, rng.gen_range(1..=1000))
    }
}

/// The tightened-cadence bipartite counterpart of the churn acceptance
/// check: every 1k ops the engine is re-certified through the
/// [`IncrementalCertifier`] (warm dual repair from the previous
/// checkpoint's optimum), the warm optimum is cross-checked against a
/// cold solve of the same snapshot, and the maintained matching holds the
/// ½ floor against the certified optimum.
#[test]
fn bipartite_churn_certifies_warm_at_every_thousand_ops() {
    const N: usize = 96;
    const OPS: usize = 20_000;
    const CHECKPOINT: usize = 1_000;
    let mut rng = StdRng::seed_from_u64(0xB1BA);
    let mut eng = DynamicMatcher::new(N, DynamicConfig::default());
    let side: Vec<bool> = (0..N).map(|v| v >= N / 2).collect();
    let mut cert = IncrementalCertifier::new(side.clone());
    let mut live = Vec::new();
    for step in 1..=OPS {
        let op = bipartite_churn_op(&mut rng, N, &mut live);
        eng.apply(op).expect("generated ops are well-formed");
        if step % CHECKPOINT == 0 {
            let ck = eng
                .certify_checkpoint(&mut cert)
                .expect("churn stays bipartite");
            let cold = certify_max_weight(&eng.graph().snapshot(), &side)
                .expect("same snapshot, same bipartition");
            assert_eq!(
                ck.optimum, cold.optimum,
                "step {step}: warm and cold optima disagree"
            );
            assert!(
                ck.ratio >= 0.5 - 1e-9,
                "step {step}: ratio {} below the ½ floor of {}",
                ck.ratio,
                ck.optimum
            );
        }
    }
    let stats = cert.stats();
    assert_eq!(stats.checkpoints, (OPS / CHECKPOINT) as u64);
    assert_eq!(
        stats.warm_checkpoints,
        (OPS / CHECKPOINT - 1) as u64,
        "every checkpoint after the first must warm-start"
    );
}

#[test]
fn deleting_a_matched_edge_repairs_to_oracle_floor() {
    // the canonical hard delete: the matched middle of a weighted path,
    // forcing the repair to re-knit both sides
    let mut eng = DynamicMatcher::new(6, DynamicConfig::default());
    let weights = [
        (0u32, 1u32, 4u64),
        (1, 2, 6),
        (2, 3, 6),
        (3, 4, 4),
        (4, 5, 3),
    ];
    for (u, v, w) in weights {
        eng.apply(UpdateOp::insert(u, v, w)).unwrap();
        assert_oracle_floor(&eng, &format!("insert {{{u},{v}}}"));
    }
    for (u, v) in [(1u32, 2u32), (3, 4), (0, 1)] {
        eng.apply(UpdateOp::delete(u, v)).unwrap();
        assert_oracle_floor(&eng, &format!("delete {{{u},{v}}}"));
    }
}

#[test]
fn parallel_edges_agree_with_oracle_through_churn() {
    // parallel copies of every weight relation: heavier-after, lighter-
    // after, equal; deletions peel them off most-recent-first
    let mut eng = DynamicMatcher::new(4, DynamicConfig::default());
    let script = [
        UpdateOp::insert(0, 1, 5),
        UpdateOp::insert(0, 1, 9), // heavier parallel copy: must upgrade
        UpdateOp::insert(2, 3, 4),
        UpdateOp::insert(2, 3, 1), // lighter parallel copy: no change
        UpdateOp::insert(1, 2, 7),
        UpdateOp::delete(0, 1),    // removes the 9-copy, falls back to 5
        UpdateOp::insert(0, 1, 5), // equal-weight parallel copy
        UpdateOp::delete(2, 3),    // removes the 1-copy (most recent)
        UpdateOp::delete(2, 3),    // removes the 4-copy: endpoint 3 frees
    ];
    for (i, op) in script.iter().enumerate() {
        eng.apply(*op).unwrap();
        assert_oracle_floor(&eng, &format!("script step {i} ({op})"));
    }
}

#[test]
fn weight_class_boundary_crossings_keep_the_floor() {
    // weights straddling the power-of-two weight-class boundaries: every
    // class is populated on both sides of a boundary, with the heavier
    // neighbour one unit up, and the floor is checked after every step
    let mut eng = DynamicMatcher::new(20, DynamicConfig::default());
    let mut step = 0usize;
    for k in 1..6u32 {
        let class = 1u64 << k; // 2, 4, 8, 16, 32
        for d in [-1i64, 0, 1] {
            let w = (class as i64 + d) as u64;
            let base = ((step * 3) % 18) as Vertex;
            eng.apply(UpdateOp::insert(base, base + 1, w)).unwrap();
            eng.apply(UpdateOp::insert(base + 1, base + 2, w + 1))
                .unwrap();
            assert_oracle_floor(&eng, &format!("boundary 2^{k}{d:+}"));
            step += 1;
        }
    }
    // churn the boundary edges back out
    for _ in 0..10 {
        let base = ((step * 3) % 18) as Vertex;
        let _ = eng.apply(UpdateOp::delete(base, base + 1));
        assert_oracle_floor(&eng, &format!("boundary delete at {base}"));
        step += 1;
    }
}

#[test]
fn incremental_engine_matches_recompute_baseline_quality() {
    // same sequence, same floor machinery: the local engine's weight may
    // differ from the from-scratch recompute, but both must clear the
    // oracle floor at every checkpoint
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let mut eng = DynamicMatcher::new(24, DynamicConfig::default());
    let mut base = RecomputeBaseline::new(24, 3);
    let mut live = Vec::new();
    for step in 1..=400usize {
        let op = churn_op(&mut rng, 24, &mut live);
        eng.apply(op).unwrap();
        base.apply(op).unwrap();
        if step % 50 == 0 {
            assert_oracle_floor(&eng, &format!("engine step {step}"));
            let opt = max_weight_matching(&base.graph().snapshot()).weight();
            assert!(
                base.matching().weight() * FLOOR_DEN >= FLOOR_NUM * opt,
                "baseline step {step}: {} vs {opt}",
                base.matching().weight()
            );
        }
    }
}

/// An abstract update plan: interpreted against the tracked live set so
/// every generated sequence is well-formed by construction.
fn arb_update_plan(
    max_n: usize,
    max_ops: usize,
) -> impl Strategy<Value = (usize, Vec<(u32, u32, u64, bool)>)> {
    (4usize..=max_n).prop_flat_map(move |n| {
        let raw = proptest::collection::vec(
            (0u32..n as u32, 0u32..n as u32, 1u64..=64, any::<bool>()),
            1..=max_ops,
        );
        raw.prop_map(move |ops| (n, ops))
    })
}

/// Interprets a raw plan into concrete ops (deletes pick a live pair by
/// index; inserts fix self-loops by shifting an endpoint).
fn interpret(n: usize, raw: &[(u32, u32, u64, bool)]) -> Vec<UpdateOp> {
    let mut live: Vec<(Vertex, Vertex)> = Vec::new();
    let mut out = Vec::with_capacity(raw.len());
    for &(a, b, w, del) in raw {
        if del && !live.is_empty() {
            let i = (a as usize + b as usize) % live.len();
            let (u, v) = live.swap_remove(i);
            out.push(UpdateOp::delete(u, v));
        } else {
            let u = a;
            let v = if a == b { (b + 1) % n as u32 } else { b };
            live.push((u, v));
            out.push(UpdateOp::insert(u, v, w));
        }
    }
    out
}

proptest! {
    // Seed pinned for reproducibility: every run explores the same cases.
    #![proptest_config(ProptestConfig::with_cases(48).with_seed(0x64796e61))] // b"dyna"

    /// Random update sequences: after every full replay the engine
    /// validates, holds the oracle floor, admits no short augmentation,
    /// and agrees with a fresh engine replaying the same sequence
    /// (replay determinism).
    #[test]
    fn random_sequences_hold_oracle_floor(
        (n, raw) in arb_update_plan(12, 60),
    ) {
        let ops = interpret(n, &raw);
        let mut eng = DynamicMatcher::new(n, DynamicConfig::default());
        eng.apply_all(&ops).expect("interpreted ops are well-formed");
        let snap = eng.graph().snapshot();
        eng.matching().validate(Some(&snap)).expect("valid matching");
        prop_assert!(best_augmentation(&snap, eng.matching(), 3).is_none());
        let opt = max_weight_matching(&snap).weight();
        prop_assert!(eng.matching().weight() * FLOOR_DEN >= FLOOR_NUM * opt);

        let mut replay = DynamicMatcher::new(n, DynamicConfig::default());
        replay.apply_all(&ops).expect("same ops");
        prop_assert_eq!(replay.matching().to_edges(), eng.matching().to_edges());
    }

    /// The same sequences across thread counts: bit-identical matchings
    /// and counters for threads 1/2/4/0.
    #[test]
    fn random_sequences_bit_identical_across_threads(
        (n, raw) in arb_update_plan(10, 40),
    ) {
        let ops = interpret(n, &raw);
        let run = |threads: usize| {
            let cfg = DynamicConfig::default().with_threads(threads);
            let mut eng = DynamicMatcher::new(n, cfg);
            eng.apply_all(&ops).expect("interpreted ops are well-formed");
            (eng.matching().to_edges(), eng.counters())
        };
        let want = run(1);
        for threads in [2usize, 4, 0] {
            let got = run(threads);
            prop_assert_eq!(&want.0, &got.0, "threads = {}", threads);
            prop_assert_eq!(want.1, got.1, "threads = {}", threads);
        }
    }

    /// The sharded engine against the sequential reference: for every
    /// random sequence, shard counts {1, 2, 8} × thread counts {1, 4, 0}
    /// produce bit-identical matchings, counters, and batch stats — and
    /// the committed matching holds the oracle floor.
    #[test]
    fn sharded_bit_identical_to_sequential_and_holds_floor(
        (n, raw) in arb_update_plan(12, 60),
    ) {
        let ops = interpret(n, &raw);
        let cfg = DynamicConfig::default();
        let mut seq = DynamicMatcher::new(n, cfg);
        let want_stats = seq.apply_all(&ops).expect("interpreted ops are well-formed");
        for shards in [1usize, 2, 8] {
            for threads in [1usize, 4, 0] {
                let mut sh = ShardedMatcher::new(n, cfg.with_threads(threads), shards)
                    .with_batch_size(16);
                let got_stats = sh.apply_all(&ops).expect("same ops");
                prop_assert_eq!(
                    seq.matching().to_edges(),
                    sh.matching().to_edges(),
                    "shards = {}, threads = {}", shards, threads
                );
                prop_assert_eq!(
                    seq.counters(),
                    sh.counters(),
                    "shards = {}, threads = {}", shards, threads
                );
                prop_assert_eq!(
                    want_stats,
                    got_stats,
                    "shards = {}, threads = {}", shards, threads
                );
            }
        }
        let snap = seq.graph().snapshot();
        let opt = max_weight_matching(&snap).weight();
        prop_assert!(seq.matching().weight() * FLOOR_DEN >= FLOOR_NUM * opt);
    }
}

/// Boundary-heavy churn at scale for the sharded engine: a longer
/// deterministic stream where most edges cross shard boundaries, checked
/// against the sequential engine with oracle-floor checkpoints.
#[test]
fn sharded_boundary_churn_matches_sequential_with_floor_checkpoints() {
    const N: usize = 64;
    const OPS: usize = 4_000;
    let mut rng = StdRng::seed_from_u64(0x5AAD);
    let mut live: Vec<(Vertex, Vertex)> = Vec::new();
    let mut ops = Vec::with_capacity(OPS);
    for _ in 0..OPS {
        // bias endpoints toward the 8-shard boundaries of the range
        if !live.is_empty() && rng.gen_range(0..3) == 0 {
            let i = rng.gen_range(0..live.len());
            let (u, v) = live.swap_remove(i);
            ops.push(UpdateOp::delete(u, v));
        } else {
            let b = (rng.gen_range(1..8u32) * (N as u32 / 8)) % N as u32;
            let u = (b + N as u32 - 1 - rng.gen_range(0..2u32)) % N as u32;
            let mut v = (b + rng.gen_range(0..2u32)) % N as u32;
            if v == u {
                v = (v + 1) % N as u32;
            }
            ops.push(UpdateOp::insert(u, v, rng.gen_range(1..=1000)));
            live.push((u, v));
        }
    }
    let cfg = DynamicConfig::default();
    let mut seq = DynamicMatcher::new(N, cfg);
    // threads = 2 is accepted and must not change the committed state
    // either
    let mut sh = ShardedMatcher::new(N, cfg.with_threads(2), 8).with_batch_size(128);
    for (step, chunk) in ops.chunks(500).enumerate() {
        seq.apply_all(chunk).expect("well-formed");
        sh.apply_all(chunk).expect("well-formed");
        assert_eq!(
            seq.matching().to_edges(),
            sh.matching().to_edges(),
            "chunk {step}"
        );
        assert_eq!(seq.counters(), sh.counters(), "chunk {step}");
        assert_oracle_floor(&seq, &format!("boundary chunk {step}"));
    }
}

/// The hub adversary: every op of every batch touches a shared hub
/// vertex, and the committed state must still match the sequential engine
/// exactly, floor checkpoints included.
#[test]
fn hub_vertex_batches_collapse_to_one_group_and_agree() {
    const N: usize = 48;
    const OPS: usize = 2_000;
    const BATCH: usize = 100;
    const HUB: Vertex = 7; // mid-shard, so routing is by min endpoint
    let mut rng = StdRng::seed_from_u64(0x4081);
    let mut live: Vec<Vertex> = Vec::new();
    let mut ops = Vec::with_capacity(OPS);
    for _ in 0..OPS {
        if !live.is_empty() && rng.gen_range(0..3) == 0 {
            let i = rng.gen_range(0..live.len());
            let v = live.swap_remove(i);
            ops.push(UpdateOp::delete(HUB, v));
        } else {
            let mut v = rng.gen_range(0..N as Vertex);
            if v == HUB {
                v = (v + 1) % N as Vertex;
            }
            ops.push(UpdateOp::insert(HUB, v, rng.gen_range(1..=1000)));
            live.push(v);
        }
    }
    let cfg = DynamicConfig::default();
    let mut seq = DynamicMatcher::new(N, cfg);
    let mut sh = ShardedMatcher::new(N, cfg.with_threads(2), 8).with_batch_size(BATCH);
    for (step, chunk) in ops.chunks(500).enumerate() {
        seq.apply_all(chunk).expect("well-formed");
        sh.apply_all(chunk).expect("well-formed");
        assert_eq!(
            seq.matching().to_edges(),
            sh.matching().to_edges(),
            "hub chunk {step}"
        );
        assert_eq!(seq.counters(), sh.counters(), "hub chunk {step}");
        assert_oracle_floor(&seq, &format!("hub chunk {step}"));
    }
}
