//! The crash-recovery and fault-injection suite: WAL + snapshot recovery
//! must be **bit-identical** to the uninterrupted run for any snapshot
//! cadence × crash point × shard count × thread count; malformed ops
//! (including chaos-poisoned ones) must be rejected typed, never by
//! panicking; and sentinel-detected corruption must heal back to a
//! certified state.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wmatch_dynamic::{
    ChaosConfig, DynamicConfig, DynamicError, DynamicMatcher, RetryPolicy, ServeDriver,
    ShardedMatcher, UpdateOp, WalConfig,
};
use wmatch_graph::aug_search::best_augmentation;
use wmatch_graph::Vertex;

/// A deterministic churn step over a bounded-density live set (same
/// shape as the oracle-agreement suite's generator).
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

fn churn_stream(seed: u64, n: usize, len: usize) -> Vec<UpdateOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live = Vec::new();
    (0..len).map(|_| churn_op(&mut rng, n, &mut live)).collect()
}

/// Semantic state two engines must share to count as bit-identical.
fn state_of(eng: &ShardedMatcher) -> (Vec<wmatch_graph::Edge>, i128, String) {
    (
        eng.matching().to_edges(),
        eng.matching().weight(),
        format!("{:?}", eng.counters()),
    )
}

// ---------------------------------------------------------------------
// Satellite (a): malformed single ops are typed rejections, never panics.
// ---------------------------------------------------------------------

#[test]
fn delete_of_never_inserted_edge_is_typed_not_panic() {
    let mut eng = DynamicMatcher::new(8, DynamicConfig::default());
    eng.apply(UpdateOp::insert(0, 1, 5)).unwrap();
    let err = eng.apply(UpdateOp::delete(2, 3)).unwrap_err();
    assert_eq!(err, DynamicError::EdgeNotFound { u: 2, v: 3 });
    assert!(!err.is_transient());
    // a once-live, now-deleted edge is equally not found
    eng.apply(UpdateOp::insert(2, 3, 4)).unwrap();
    eng.apply(UpdateOp::delete(2, 3)).unwrap();
    let err = eng.apply(UpdateOp::delete(2, 3)).unwrap_err();
    assert_eq!(err, DynamicError::EdgeNotFound { u: 2, v: 3 });
    // the engine is unharmed and keeps serving
    assert_eq!(eng.matching().weight(), 5);
    eng.apply(UpdateOp::insert(4, 5, 7)).unwrap();
    assert_eq!(eng.matching().weight(), 12);
}

#[test]
fn out_of_range_and_self_loop_deletes_are_typed_not_panic() {
    let mut eng = DynamicMatcher::new(8, DynamicConfig::default());
    eng.apply(UpdateOp::insert(0, 1, 5)).unwrap();
    let err = eng.apply(UpdateOp::delete(0, 99)).unwrap_err();
    assert_eq!(err, DynamicError::VertexOutOfRange { vertex: 99, n: 8 });
    let err = eng.apply(UpdateOp::delete(42, 1)).unwrap_err();
    assert_eq!(err, DynamicError::VertexOutOfRange { vertex: 42, n: 8 });
    // a self-loop delete must not silently delete an arbitrary incident
    // edge (the adjacency scan matches any edge at `u` when `u == v`)
    let err = eng.apply(UpdateOp::delete(0, 0)).unwrap_err();
    assert_eq!(err, DynamicError::SelfLoop { vertex: 0 });
    assert_eq!(eng.graph().live_edges(), 1, "nothing was deleted");
    assert_eq!(eng.matching().weight(), 5);
}

#[test]
fn sharded_batch_rejects_malformed_ops_with_partial_progress() {
    for (shards, threads) in [(1, 1), (4, 2), (8, 4)] {
        let cfg = DynamicConfig::default().with_threads(threads);
        let mut eng = ShardedMatcher::new(16, cfg, shards);
        let ops = [
            UpdateOp::insert(0, 1, 5),
            UpdateOp::insert(2, 3, 6),
            UpdateOp::delete(10, 11), // never inserted
            UpdateOp::insert(4, 5, 7),
        ];
        let e = eng.apply_all(&ops).unwrap_err();
        assert_eq!(e.applied, 2);
        assert_eq!(e.stats.applied, 2);
        assert_eq!(e.source, DynamicError::EdgeNotFound { u: 10, v: 11 });
        assert!(!e.is_transient());
        assert_eq!(eng.matching().weight(), 11, "prefix committed");
    }
}

// ---------------------------------------------------------------------
// Satellite (c): WAL + snapshot recovery is bit-identical for any
// snapshot cadence × crash point × shards × threads.
// ---------------------------------------------------------------------

/// Replays `ops` with a WAL at the given cadence, crashes after
/// `crash_at` ops, recovers, finishes the stream, and demands the final
/// state be bit-identical to the uninterrupted run.
fn crash_recover_roundtrip(
    seed: u64,
    cadence: usize,
    crash_at: usize,
    shards: usize,
    threads: usize,
) {
    const N: usize = 48;
    const OPS: usize = 600;
    let ops = churn_stream(seed, N, OPS);
    let cfg = DynamicConfig::default().with_threads(threads);

    let mut reference = ShardedMatcher::new(N, cfg, shards);
    reference.apply_all(&ops).unwrap();

    let mut eng = ShardedMatcher::new(N, cfg, shards);
    eng.enable_wal(WalConfig::new().with_snapshot_every(cadence));
    let crash_at = crash_at.min(OPS);
    eng.apply_all(&ops[..crash_at]).unwrap();
    let before = state_of(&eng);

    eng.simulate_crash();
    let report = eng
        .recover()
        .expect("a WAL was enabled, so recovery must run");
    assert_eq!(
        state_of(&eng),
        before,
        "cadence {cadence} crash {crash_at} shards {shards} threads {threads}: \
         recovery diverged from the pre-crash state"
    );
    assert_eq!(
        report.snapshot_updates + report.replayed_ops as u64,
        eng.counters().updates_applied,
        "snapshot + tail must account for every applied update"
    );

    eng.apply_all(&ops[crash_at..]).unwrap();
    assert_eq!(
        state_of(&eng),
        state_of(&reference),
        "cadence {cadence} crash {crash_at} shards {shards} threads {threads}: \
         post-recovery stream diverged from the uninterrupted run"
    );
}

#[test]
fn recovery_is_bit_identical_across_the_acceptance_grid() {
    for &(cadence, crash_at) in &[(1usize, 37usize), (64, 300), (10_000, 599)] {
        for &shards in &[1usize, 4, 8] {
            for &threads in &[1usize, 2, 4] {
                crash_recover_roundtrip(0xC0FFEE, cadence, crash_at, shards, threads);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Any snapshot cadence × crash point × shards {1,4,8} × threads
    /// {1,2,4}: recovery replays to a state bit-identical (matching,
    /// recourse, counters) to the uninterrupted run.
    #[test]
    fn recovery_bit_identical_for_random_cadence_and_crash_point(
        seed in any::<u64>(),
        cadence in 1usize..200,
        crash_at in 0usize..600,
        shards_ix in 0usize..3,
        threads_ix in 0usize..3,
    ) {
        let shards = [1usize, 4, 8][shards_ix];
        let threads = [1usize, 2, 4][threads_ix];
        crash_recover_roundtrip(seed, cadence, crash_at, shards, threads);
    }
}

#[test]
fn recovery_canonicalizes_deferred_ops_eagerly() {
    const N: usize = 32;
    let ops = churn_stream(7, N, 200);
    let cfg = DynamicConfig::default();

    // reference: the same stream applied eagerly, uninterrupted
    let mut reference = ShardedMatcher::new(N, cfg, 1);
    reference.apply_all(&ops).unwrap();

    let mut eng = ShardedMatcher::new(N, cfg, 1);
    eng.enable_wal(WalConfig::new().with_snapshot_every(64));
    eng.apply_all(&ops[..150]).unwrap();
    eng.apply_deferred(&ops[150..]).unwrap();
    assert!(eng.deferred_repairs() > 0, "lazy ops are pending");

    eng.simulate_crash();
    eng.recover().unwrap();
    assert_eq!(eng.deferred_repairs(), 0, "replay is eager");
    assert_eq!(
        state_of(&eng),
        state_of(&reference),
        "a crash canonicalizes pending staleness into the repaired state"
    );
}

#[test]
fn snapshot_taken_while_repairs_are_deferred_keeps_the_debt() {
    // an eager batch after a deferred one crosses the snapshot cadence:
    // the snapshot must carry the pending repair, or recovery loses it
    let run = |crash: bool| {
        let mut eng = ShardedMatcher::new(8, DynamicConfig::default(), 1);
        eng.enable_wal(WalConfig::new().with_snapshot_every(1));
        eng.apply_deferred(&[UpdateOp::insert(0, 1, 5)]).unwrap();
        eng.apply_all(&[UpdateOp::insert(4, 5, 3)]).unwrap();
        if crash {
            eng.simulate_crash();
            eng.recover().unwrap();
            assert_eq!(eng.deferred_repairs(), 1, "the snapshot keeps the debt");
        }
        eng.flush_repairs();
        eng
    };
    let uninterrupted = run(false);
    let recovered = run(true);
    assert_eq!(uninterrupted.matching().weight(), 8);
    assert_eq!(state_of(&recovered), state_of(&uninterrupted));
    let live = recovered.graph().snapshot();
    assert!(
        best_augmentation(&live, recovered.matching(), 3).is_none(),
        "no positive augmentation survives the flush"
    );
}

// ---------------------------------------------------------------------
// Chaos poison: malformed ops injected into the stream are rejected
// typed; the serve driver skips them and the survivors stay certified.
// ---------------------------------------------------------------------

#[test]
fn poisoned_stream_is_served_with_typed_skips_and_certified_survivors() {
    const N: usize = 48;
    let ops = churn_stream(0xBEEF, N, 800);
    let cfg = DynamicConfig::default().with_threads(2);

    let mut eng = ShardedMatcher::new(N, cfg, 4);
    eng.install_chaos(ChaosConfig::new().with_seed(3).with_poison_every(8));
    let mut driver = ServeDriver::new(
        RetryPolicy::default().with_base_backoff(std::time::Duration::from_micros(10)),
    );
    for chunk in ops.chunks(64) {
        driver.serve(&mut eng, chunk);
    }
    driver.finish(&mut eng);

    let counters = eng.chaos_counters().unwrap();
    assert!(counters.poisoned_ops > 0, "poison fired");
    assert!(driver.stats().skipped_ops > 0, "poisoned ops were skipped");
    assert_eq!(driver.stats().skipped_ops, driver.stats().fatal_errors);
    // survivors are a valid, floor-certified matching
    let snap = eng.graph().snapshot();
    eng.matching().validate(Some(&snap)).unwrap();
    assert!(
        best_augmentation(&snap, eng.matching(), eng.config().max_len).is_none(),
        "a positive short augmentation survived the poison storm"
    );
    assert!(eng.sentinel_violation().is_none());
}

// ---------------------------------------------------------------------
// Bit-flip corruption: the invariant sentinel quarantines, heals, and
// rejects the batch with the one transient error.
// ---------------------------------------------------------------------

#[test]
fn bitflip_trips_sentinel_quarantines_and_retry_succeeds() {
    const N: usize = 32;
    let cfg = DynamicConfig::default();
    let mut eng = ShardedMatcher::new(N, cfg, 2);
    eng.install_chaos(
        ChaosConfig::new()
            .with_seed(5)
            .with_bitflip_every(1)
            .with_sentinel_every(1),
    );

    let batch1: Vec<UpdateOp> = (0..8)
        .map(|i| UpdateOp::insert(2 * i, 2 * i + 1, 10))
        .collect();
    eng.apply_batch(&batch1).unwrap();
    let flips = eng.chaos_counters().unwrap().bit_flips;
    assert!(flips > 0, "a matched entry was corrupted after commit");
    assert!(
        eng.sentinel_violation().is_some(),
        "the corruption is visible to the sentinel"
    );

    let batch2 = [UpdateOp::insert(16, 17, 3)];
    let e = eng.apply_batch(&batch2).unwrap_err();
    assert!(e.is_transient(), "quarantine is the one transient error");
    assert!(matches!(e.source, DynamicError::Quarantined { .. }));
    assert_eq!(e.applied, 0, "the batch was rejected before any op ran");

    let counters = eng.chaos_counters().unwrap();
    assert!(counters.sentinel_trips > 0);
    assert!(counters.quarantines > 0);

    // the state was healed before the error returned: the matching
    // validates against the live graph and the retry lands
    let snap = eng.graph().snapshot();
    eng.matching().validate(Some(&snap)).unwrap();
    eng.apply_batch(&batch2).unwrap();
    assert!(eng.graph().live_edges() >= 9);
}

#[test]
fn bitflip_with_wal_heals_bit_identical_to_clean_run() {
    const N: usize = 48;
    let ops = churn_stream(0xFA11, N, 500);
    let cfg = DynamicConfig::default().with_threads(2);

    let mut reference = ShardedMatcher::new(N, cfg, 4);
    reference.apply_all(&ops).unwrap();

    let mut eng = ShardedMatcher::new(N, cfg, 4);
    eng.enable_wal(WalConfig::new().with_snapshot_every(50));
    eng.install_chaos(
        ChaosConfig::new()
            .with_seed(11)
            .with_bitflip_every(2)
            .with_sentinel_every(1),
    );
    // storm threshold pinned off: bit-identity to the eager clean run is
    // the *certified* path's contract — degraded mode trades it for
    // liveness, and a snapshot of a lazily-flushed state would bake the
    // (deliberate) difference into the durable state
    let mut driver = ServeDriver::new(
        RetryPolicy::default()
            .with_base_backoff(std::time::Duration::from_micros(10))
            .with_max_retries(8)
            .with_storm_threshold(u32::MAX),
    );
    for chunk in ops.chunks(40) {
        driver.serve(&mut eng, chunk);
    }
    driver.finish(&mut eng);

    let counters = eng.chaos_counters().unwrap();
    assert!(counters.bit_flips > 0, "corruption was injected");
    assert!(counters.quarantines > 0, "the sentinel healed via the WAL");
    assert!(driver.stats().transient_errors > 0);
    assert!(
        driver.stats().retries > 0,
        "transient rejections were retried"
    );
    assert_eq!(driver.stats().skipped_ops, 0, "no op was lost");

    // the durable state (snapshot + journal tail) is exactly the clean
    // run: recovery proves it by reproducing the reference bit-for-bit
    eng.recover().unwrap();
    assert_eq!(
        state_of(&eng),
        state_of(&reference),
        "WAL-backed healing must converge to the uninterrupted clean run"
    );
}

// ---------------------------------------------------------------------
// Degraded mode under a sustained fault storm: the driver keeps
// ingesting, flushes on the staleness budget, and exits certified.
// ---------------------------------------------------------------------

#[test]
fn fault_storm_degrades_then_recovers_certified() {
    const N: usize = 48;
    let ops = churn_stream(0x570, N, 600);
    let cfg = DynamicConfig::default().with_threads(2);

    let mut eng = ShardedMatcher::new(N, cfg, 4);
    eng.install_chaos(ChaosConfig::new().with_seed(2).with_poison_every(2));
    let policy = RetryPolicy::default()
        .with_base_backoff(std::time::Duration::from_micros(10))
        .with_storm_threshold(2)
        .with_max_stale_ops(64)
        .with_recovery_streak(3);
    let mut driver = ServeDriver::new(policy);
    for chunk in ops.chunks(32) {
        driver.serve(&mut eng, chunk);
    }
    driver.finish(&mut eng);

    let stats = driver.stats();
    assert!(stats.storms > 0, "the poison storm tripped degraded mode");
    assert!(stats.degraded_batches > 0);
    assert!(stats.flushes > 0);
    assert!(stats.watchdog_checks >= stats.flushes);
    assert!(!driver.is_degraded(), "finish() exits degraded mode");
    assert_eq!(eng.deferred_repairs(), 0, "no staleness left behind");

    let snap = eng.graph().snapshot();
    eng.matching().validate(Some(&snap)).unwrap();
    assert!(
        best_augmentation(&snap, eng.matching(), eng.config().max_len).is_none(),
        "the quality watchdog must leave a floor-certified matching"
    );
}
