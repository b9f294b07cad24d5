//! E13 — the chaos suite: the robustness layer of the dynamic serve path
//! measured under deterministic fault injection and adversarial
//! worst-case streams (ROADMAP 4c).
//!
//! `report -- chaos` (or `-- e13`) writes `BENCH_chaos.json` with four
//! sections, and — like every suite in this workspace — asserts the
//! correctness contracts **before** recording a single number, because a
//! latency figure for an engine that lost data is meaningless:
//!
//! 1. **Fault grid** — every fault class of the chaos harness, each with
//!    its contract asserted: poisoned ops are rejected typed and the
//!    surviving state is bit-identical to the run that never saw them
//!    (a twin injector predicts exactly which ops were poisoned);
//!    bit-flipped matching entries trip the invariant sentinel, and
//!    healing goes through WAL recovery (bit-identical) or a warm
//!    rebuild epoch (re-certified floor).
//! 2. **Recovery latency** — crash the engine (`simulate_crash`) at
//!    several WAL snapshot cadences and time `recover()`; recovery must
//!    reproduce the pre-crash state bit-for-bit.
//! 3. **Degraded throughput** — the [`ServeDriver`] under a sustained
//!    poison storm: certified-path throughput vs the degraded
//!    (deferred-repair) path that keeps the service live.
//! 4. **Worst-case ratio** — each adversarial family replayed with
//!    checkpoints; the worst observed matching-weight ratio against the
//!    exact optimum (warm [`IncrementalCertifier`] on the bipartite
//!    families, blossom on the rest) must stay at or above the Fact 1.3
//!    ½ floor.
//!
//! With `WMATCH_CHAOS_GUARD=1` the suite additionally fails unless every
//! fault class actually fired and every contract flag committed true —
//! the CI hook that keeps the chaos harness honest.

use std::time::Instant;

use wmatch_dynamic::{
    ChaosConfig, ChaosInjector, DynamicConfig, RetryPolicy, ServeDriver, ShardedMatcher, UpdateOp,
    WalConfig,
};
use wmatch_graph::aug_search::best_augmentation;
use wmatch_graph::exact::max_weight_matching;
use wmatch_oracle::IncrementalCertifier;

use crate::families::AdversarialFamily;

/// One fault class of the grid, with its asserted contract.
#[derive(Debug, Clone)]
pub struct FaultGridRow {
    /// Fault class label.
    pub class: &'static str,
    /// Ops replayed under injection.
    pub ops: usize,
    /// Faults the injector actually fired.
    pub injected: u64,
    /// Whether the surviving state matched the fault-free reference
    /// bit-for-bit (classes whose contract is bit-identity).
    pub bit_identical: bool,
    /// One-line description of the asserted contract.
    pub contract: &'static str,
}

/// One crash-recovery measurement at a WAL snapshot cadence.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    /// WAL snapshot cadence (ops per snapshot).
    pub cadence: usize,
    /// Ops applied before the crash.
    pub ops: usize,
    /// Snapshots the WAL captured.
    pub snapshots: u64,
    /// Journal-tail ops replayed by recovery.
    pub replayed_ops: usize,
    /// Wall-clock milliseconds of `recover()`.
    pub recovery_ms: f64,
    /// Whether recovery reproduced the pre-crash state bit-for-bit.
    pub bit_identical: bool,
}

/// Throughput of the serve driver under a sustained fault storm.
#[derive(Debug, Clone)]
pub struct DegradedRow {
    /// Workload label.
    pub family: &'static str,
    /// Ops served.
    pub ops: usize,
    /// Clean-run (no chaos) throughput, updates/s.
    pub clean_ups: f64,
    /// Under-storm throughput (certified + degraded batches), updates/s.
    pub storm_ups: f64,
    /// Storms that tripped degraded mode.
    pub storms: u64,
    /// Batches served through the degraded path.
    pub degraded_batches: u64,
    /// Malformed (poisoned) ops skipped typed.
    pub skipped_ops: u64,
    /// Deferred-repair flushes (each followed by a watchdog check).
    pub flushes: u64,
    /// Watchdog checks that found and healed a violation.
    pub watchdog_trips: u64,
}

/// Worst observed quality ratio of one adversarial family.
#[derive(Debug, Clone)]
pub struct RatioRow {
    /// Adversarial family name.
    pub family: &'static str,
    /// Vertices.
    pub n: usize,
    /// Ops replayed.
    pub ops: usize,
    /// Oracle checkpoints taken.
    pub checkpoints: usize,
    /// Worst observed `w(M) / w(M*)` across the checkpoints.
    pub worst_ratio: f64,
    /// Which exact oracle certified the optimum.
    pub oracle: &'static str,
}

/// Everything `BENCH_chaos.json` records.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The asserted fault grid.
    pub fault_grid: Vec<FaultGridRow>,
    /// Crash-recovery latency per WAL cadence.
    pub recovery: Vec<RecoveryRow>,
    /// Serve-driver throughput under the fault storm.
    pub degraded: Vec<DegradedRow>,
    /// Worst-case quality ratios per adversarial family.
    pub ratios: Vec<RatioRow>,
}

/// Semantic state two engines must share to count as bit-identical.
fn state_of(eng: &ShardedMatcher) -> (Vec<wmatch_graph::Edge>, i128, String) {
    (
        eng.matching().to_edges(),
        eng.matching().weight(),
        format!("{:?}", eng.counters()),
    )
}

/// Fault class 1 — poisoned ops: replay per-op with a twin injector
/// predicting exactly which ops get poisoned. Every rejection must be
/// either a predicted poison or a *cascade* of one (a later delete of a
/// pair whose insert was poisoned away — which must fail identically on
/// the reference), and the surviving state must be bit-identical to a
/// reference run that skipped exactly the rejected ops.
fn grid_poison(n: usize, ops: &[UpdateOp]) -> FaultGridRow {
    let chaos_cfg = ChaosConfig::new()
        .with_seed(0xE13)
        .with_poison_every(7)
        .with_sentinel_every(0);
    let twin = ChaosInjector::new(chaos_cfg);
    let cfg = DynamicConfig::default().with_seed(5);

    let mut reference = ShardedMatcher::new(n, cfg, 4);
    let mut eng = ShardedMatcher::new(n, cfg, 4);
    eng.install_chaos(chaos_cfg);
    let mut rejected = 0u64;
    for (i, &op) in ops.iter().enumerate() {
        match eng.apply_batch(&[op]) {
            Ok(_) => {
                assert!(
                    !twin.would_poison(i as u64),
                    "op {i}: the twin predicted poison but the engine accepted"
                );
                reference
                    .apply_batch(&[op])
                    .expect("accepted ops are well-formed for the reference too");
            }
            Err(e) => {
                assert!(!e.is_transient(), "poison must reject fatal, not transient");
                assert_eq!(e.applied, 0);
                rejected += 1;
                if !twin.would_poison(i as u64) {
                    // cascade: the op itself was clean, but it depends on
                    // a poisoned-away insert — the reference must reject
                    // it the same way
                    let r = reference.apply_batch(&[op]);
                    assert!(
                        r.is_err(),
                        "op {i}: rejected with neither a predicted poison nor a cascade"
                    );
                }
            }
        }
    }
    let injected = eng.chaos_counters().expect("chaos installed").poisoned_ops;
    assert!(injected > 0, "the poison cadence must actually fire");
    assert!(
        rejected >= injected,
        "every poisoned op was rejected typed ({rejected} rejections, {injected} poisons)"
    );
    let bit_identical = state_of(&eng) == state_of(&reference);
    assert!(
        bit_identical,
        "poison grid: survivors diverged from the skip-the-rejected reference run"
    );
    FaultGridRow {
        class: "poisoned-ops",
        ops: ops.len(),
        injected,
        bit_identical,
        contract:
            "typed rejection (poison or cascade); survivors bit-identical to the skipping run",
    }
}

/// Fault class 2 — bit flips with a WAL: corrupted matching entries trip
/// the sentinel, healing goes through WAL recovery, and the durable
/// state stays exactly the clean run's.
fn grid_bitflip_wal(n: usize, ops: &[UpdateOp]) -> FaultGridRow {
    let cfg = DynamicConfig::default().with_seed(5).with_threads(2);
    let mut reference = ShardedMatcher::new(n, cfg, 4);
    reference.apply_all(ops).expect("well-formed stream");

    let mut eng = ShardedMatcher::new(n, cfg, 4);
    eng.enable_wal(WalConfig::new().with_snapshot_every(64));
    eng.install_chaos(
        ChaosConfig::new()
            .with_seed(0xE13)
            .with_bitflip_every(2)
            .with_sentinel_every(1),
    );
    // storm threshold pinned off: this grid row asserts the *certified*
    // path's bit-identity contract, and degraded mode intentionally
    // trades bit-identity for liveness (its contract is the watchdog's
    // re-certified floor, asserted by the degraded row instead)
    let mut driver = ServeDriver::new(
        RetryPolicy::default()
            .with_base_backoff(std::time::Duration::from_micros(10))
            .with_max_retries(8)
            .with_storm_threshold(u32::MAX),
    );
    for chunk in ops.chunks(50) {
        driver.serve(&mut eng, chunk);
    }
    driver.finish(&mut eng);
    let counters = eng.chaos_counters().expect("chaos installed");
    assert!(counters.bit_flips > 0, "the flip cadence must fire");
    assert!(
        counters.quarantines > 0,
        "the sentinel must catch the flips"
    );
    assert_eq!(
        driver.stats().skipped_ops,
        0,
        "no op may be lost to healing"
    );
    // the WAL's durable state is the clean run: recovery proves it
    eng.recover().expect("a WAL was enabled");
    let bit_identical = state_of(&eng) == state_of(&reference);
    assert!(
        bit_identical,
        "bitflip/WAL grid: healing diverged from the uninterrupted clean run"
    );
    FaultGridRow {
        class: "bit-flips (WAL heal)",
        ops: ops.len(),
        injected: counters.bit_flips,
        bit_identical,
        contract: "sentinel quarantine -> WAL recovery; bit-identical to the clean run",
    }
}

/// Fault class 3 — bit flips without a WAL: the sentinel quarantines and
/// heals via a warm rebuild epoch; the healed matching must re-certify
/// the Fact 1.3 floor against an exact blossom solve.
fn grid_bitflip_rebuild(n: usize, ops: &[UpdateOp]) -> FaultGridRow {
    let cfg = DynamicConfig::default().with_seed(5);
    let mut eng = ShardedMatcher::new(n, cfg, 2);
    eng.install_chaos(
        ChaosConfig::new()
            .with_seed(0xE13)
            .with_bitflip_every(2)
            .with_sentinel_every(1),
    );
    let mut driver = ServeDriver::new(
        RetryPolicy::default().with_base_backoff(std::time::Duration::from_micros(10)),
    );
    for chunk in ops.chunks(50) {
        driver.serve(&mut eng, chunk);
    }
    driver.finish(&mut eng);
    let counters = eng.chaos_counters().expect("chaos installed");
    assert!(counters.bit_flips > 0, "the flip cadence must fire");
    assert!(
        counters.quarantines > 0,
        "the sentinel must catch the flips"
    );
    assert_eq!(
        driver.stats().skipped_ops,
        0,
        "no op may be lost to healing"
    );
    // the last batch's post-commit flip may still be outstanding — heal
    // it the same way the sentinel would at the next batch boundary
    if let Some(shard) = eng.sentinel_violation() {
        eng.quarantine_heal(shard);
    }
    let snap = eng.graph().snapshot();
    eng.matching()
        .validate(Some(&snap))
        .expect("the healed matching must validate against the live graph");
    assert!(
        best_augmentation(&snap, eng.matching(), cfg.max_len).is_none(),
        "bitflip/rebuild grid: healing left a positive short augmentation"
    );
    let opt = max_weight_matching(&snap).weight();
    assert!(
        eng.matching().weight() * 2 >= opt,
        "bitflip/rebuild grid: healed weight {} below half of optimum {opt}",
        eng.matching().weight()
    );
    FaultGridRow {
        class: "bit-flips (rebuild heal)",
        ops: ops.len(),
        injected: counters.bit_flips,
        bit_identical: false,
        contract: "sentinel quarantine -> warm rebuild; Fact 1.3 half floor re-certified",
    }
}

/// Times crash recovery at one WAL snapshot cadence.
fn recovery_row(n: usize, ops: &[UpdateOp], cadence: usize) -> RecoveryRow {
    let cfg = DynamicConfig::default().with_seed(5).with_threads(2);
    let mut eng = ShardedMatcher::new(n, cfg, 4);
    eng.enable_wal(WalConfig::new().with_snapshot_every(cadence));
    eng.apply_all(ops).expect("well-formed stream");
    let before = state_of(&eng);
    let wal = eng.wal_stats().expect("a WAL is enabled");
    eng.simulate_crash();
    let t = Instant::now();
    let report = eng.recover().expect("a WAL was enabled");
    let recovery_ms = t.elapsed().as_secs_f64() * 1e3;
    let bit_identical = state_of(&eng) == before;
    assert!(
        bit_identical,
        "recovery at cadence {cadence} diverged from the pre-crash state"
    );
    RecoveryRow {
        cadence,
        ops: ops.len(),
        snapshots: wal.snapshots,
        replayed_ops: report.replayed_ops,
        recovery_ms,
        bit_identical,
    }
}

/// Measures serve-driver throughput with and without the poison storm.
fn degraded_row(family: &'static str, n: usize, ops: &[UpdateOp]) -> DegradedRow {
    let cfg = DynamicConfig::default().with_seed(5).with_threads(2);
    // clean baseline
    let mut clean_eng = ShardedMatcher::new(n, cfg, 4);
    let t = Instant::now();
    clean_eng.apply_all(ops).expect("well-formed stream");
    let clean_ups = ops.len() as f64 / t.elapsed().as_secs_f64().max(1e-9);

    // the storm: heavy poison, driver policy tuned to degrade quickly
    let mut eng = ShardedMatcher::new(n, cfg, 4);
    eng.install_chaos(
        ChaosConfig::new()
            .with_seed(0xE13)
            .with_poison_every(4)
            .with_sentinel_every(0),
    );
    let mut driver = ServeDriver::new(
        RetryPolicy::default()
            .with_base_backoff(std::time::Duration::from_micros(10))
            .with_storm_threshold(2)
            .with_max_stale_ops(256)
            .with_recovery_streak(4),
    );
    let t = Instant::now();
    for chunk in ops.chunks(64) {
        driver.serve(&mut eng, chunk);
    }
    driver.finish(&mut eng);
    let storm_ups = ops.len() as f64 / t.elapsed().as_secs_f64().max(1e-9);
    let d = driver.stats();
    assert!(d.storms > 0, "the storm must trip degraded mode");
    assert_eq!(eng.deferred_repairs(), 0, "finish() flushes all staleness");
    // the survivors still satisfy the engine's certificate invariant
    let snap = eng.graph().snapshot();
    eng.matching()
        .validate(Some(&snap))
        .expect("valid matching");
    assert!(
        best_augmentation(&snap, eng.matching(), cfg.max_len).is_none(),
        "degraded row: the watchdog left a positive short augmentation"
    );
    DegradedRow {
        family,
        ops: ops.len(),
        clean_ups,
        storm_ups,
        storms: d.storms,
        degraded_batches: d.degraded_batches,
        skipped_ops: d.skipped_ops,
        flushes: d.flushes,
        watchdog_trips: d.watchdog_trips,
    }
}

/// Replays one adversarial family with exact-oracle checkpoints and
/// records the worst observed quality ratio, asserting the ½ floor.
fn ratio_row(family: AdversarialFamily, n: usize, ops: usize, checkpoint: usize) -> RatioRow {
    let w = family.build(n, ops, 0xE13);
    let cfg = DynamicConfig::default().with_seed(5).with_threads(2);
    // delete-matching waves start from a non-empty base graph
    let mut eng =
        ShardedMatcher::from_graph(&w.initial, cfg, 4).expect("generated base graph is valid");
    let side = family.bipartite_side(w.n);
    let mut cert = side.as_ref().map(|s| IncrementalCertifier::new(s.clone()));
    let mut worst = f64::INFINITY;
    let mut checkpoints = 0usize;
    for chunk in w.ops.chunks(checkpoint) {
        eng.apply_all(chunk).expect("well-formed stream");
        let snap = eng.graph().snapshot();
        let opt = match cert.as_mut() {
            Some(c) => {
                c.certify(&snap)
                    .expect("the family is bipartite by construction")
                    .optimum
            }
            None => max_weight_matching(&snap).weight(),
        };
        let ratio = if opt == 0 {
            1.0
        } else {
            eng.matching().weight() as f64 / opt as f64
        };
        assert!(
            ratio >= 0.5 - 1e-9,
            "{}: checkpoint ratio {ratio} below the Fact 1.3 half floor",
            family.name()
        );
        worst = worst.min(ratio);
        checkpoints += 1;
    }
    RatioRow {
        family: family.name(),
        n: w.n,
        ops: w.ops.len(),
        checkpoints,
        worst_ratio: if worst.is_finite() { worst } else { 1.0 },
        oracle: if side.is_some() {
            "incremental-hungarian (warm)"
        } else {
            "blossom (exact, general)"
        },
    }
}

/// Runs the whole chaos suite at `quick` or full sizes.
pub fn run_suite(quick: bool) -> ChaosReport {
    let (gn, gops) = if quick { (96, 3_000) } else { (256, 20_000) };
    let storm = AdversarialFamily::HubStorm.build(gn, gops, 0xE13);

    let fault_grid = vec![
        grid_poison(storm.n, &storm.ops),
        grid_bitflip_wal(storm.n, &storm.ops),
        grid_bitflip_rebuild(storm.n, &storm.ops),
    ];

    let (rn, rops) = if quick {
        (512, 20_000)
    } else {
        (4_096, 200_000)
    };
    let recovery_stream = AdversarialFamily::BoundaryOscillation.build(rn, rops, 0xE13);
    let recovery = [64usize, 1_024, 16_384]
        .iter()
        .map(|&c| recovery_row(recovery_stream.n, &recovery_stream.ops, c))
        .collect();

    let degraded = vec![degraded_row(
        AdversarialFamily::HubStorm.name(),
        storm.n,
        &storm.ops,
    )];

    // oracle-feasible sizes: the warm bipartite certifier carries the
    // larger rows, the O(n³) blossom only the small general one
    let (bn, bops, bcheck) = if quick {
        (96, 2_000, 500)
    } else {
        (192, 8_000, 1_000)
    };
    let (xn, xops, xcheck) = if quick {
        (48, 1_000, 250)
    } else {
        (96, 3_000, 500)
    };
    let ratios = vec![
        ratio_row(AdversarialFamily::BoundaryOscillation, bn, bops, bcheck),
        ratio_row(AdversarialFamily::HubStorm, bn, bops, bcheck),
        ratio_row(AdversarialFamily::DeleteMatchingWaves, xn, xops, xcheck),
    ];

    let report = ChaosReport {
        fault_grid,
        recovery,
        degraded,
        ratios,
    };
    if std::env::var("WMATCH_CHAOS_GUARD").as_deref() == Ok("1") {
        assert_chaos_guard(&report);
    }
    report
}

/// The CI guard: every fault class fired, every bit-identity contract
/// committed true, and the worst observed ratio never dipped below ½.
fn assert_chaos_guard(report: &ChaosReport) {
    for row in &report.fault_grid {
        assert!(
            row.injected > 0,
            "chaos guard: fault class {:?} never fired",
            row.class
        );
    }
    for row in &report.fault_grid {
        if row.class != "bit-flips (rebuild heal)" {
            assert!(
                row.bit_identical,
                "chaos guard: {:?} lost bit-identity",
                row.class
            );
        }
    }
    for row in &report.recovery {
        assert!(
            row.bit_identical,
            "chaos guard: recovery at cadence {} lost bit-identity",
            row.cadence
        );
    }
    for row in &report.degraded {
        assert!(
            row.storm_ups > 0.0 && row.storms > 0,
            "chaos guard: the {} storm row did not exercise degraded mode",
            row.family
        );
    }
    for row in &report.ratios {
        assert!(
            row.worst_ratio >= 0.5 - 1e-9,
            "chaos guard: {} worst ratio {} below the half floor",
            row.family,
            row.worst_ratio
        );
    }
}

/// Serializes the report as `BENCH_chaos.json` (hand-rolled JSON: the
/// workspace builds offline, without serde).
pub fn to_json(report: &ChaosReport, quick: bool) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n  \"policy\": \"all fault-grid and floor contracts asserted before timing; chaos decisions are seed-keyed and exactly reproducible\",\n  \"floor\": \"Fact 1.3 half floor at the default max_len 3\",\n",
        if quick { "quick" } else { "full" },
    ));
    out.push_str("  \"fault_grid\": [\n");
    for (i, r) in report.fault_grid.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"class\": \"{}\", \"ops\": {}, \"injected\": {}, \"bit_identical\": {}, \"contract\": \"{}\"}}{}\n",
            r.class,
            r.ops,
            r.injected,
            r.bit_identical,
            r.contract,
            if i + 1 < report.fault_grid.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"recovery\": [\n");
    for (i, r) in report.recovery.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"cadence\": {}, \"ops\": {}, \"snapshots\": {}, \"replayed_ops\": {}, \"recovery_ms\": {:.3}, \"bit_identical\": {}}}{}\n",
            r.cadence,
            r.ops,
            r.snapshots,
            r.replayed_ops,
            r.recovery_ms,
            r.bit_identical,
            if i + 1 < report.recovery.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"degraded\": [\n");
    for (i, r) in report.degraded.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"family\": \"{}\", \"ops\": {}, \"clean_updates_per_sec\": {:.1}, \"storm_updates_per_sec\": {:.1}, \"storms\": {}, \"degraded_batches\": {}, \"skipped_ops\": {}, \"flushes\": {}, \"watchdog_trips\": {}}}{}\n",
            r.family,
            r.ops,
            r.clean_ups,
            r.storm_ups,
            r.storms,
            r.degraded_batches,
            r.skipped_ops,
            r.flushes,
            r.watchdog_trips,
            if i + 1 < report.degraded.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"worst_case_ratio\": [\n");
    for (i, r) in report.ratios.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"family\": \"{}\", \"n\": {}, \"ops\": {}, \"checkpoints\": {}, \"worst_ratio\": {:.4}, \"oracle\": \"{}\"}}{}\n",
            r.family,
            r.n,
            r.ops,
            r.checkpoints,
            r.worst_ratio,
            r.oracle,
            if i + 1 < report.ratios.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs the suite, writes `BENCH_chaos.json` (next to the working
/// directory; override with `WMATCH_BENCH_DIR`), and renders the
/// markdown section.
pub fn run(quick: bool) -> String {
    let t0 = Instant::now();
    let report = run_suite(quick);
    let dir = std::env::var("WMATCH_BENCH_DIR").unwrap_or_else(|_| ".".into());
    let path = std::path::Path::new(&dir).join("BENCH_chaos.json");
    std::fs::write(&path, to_json(&report, quick)).expect("write BENCH_chaos.json");

    let mut out = String::from(
        "## E13 — chaos: fault injection, crash recovery, and the adversarial worst case\n\n",
    );
    out.push_str(&format!(
        "written: `{}` (every fault-grid contract asserted before timing)\n\n",
        path.display()
    ));
    out.push_str("| fault class | ops | injected | bit-identical | contract |\n");
    out.push_str("|---|---:|---:|---|---|\n");
    for r in &report.fault_grid {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            r.class, r.ops, r.injected, r.bit_identical, r.contract
        ));
    }
    out.push_str("\n| WAL cadence | ops | snapshots | replayed | recovery ms |\n");
    out.push_str("|---:|---:|---:|---:|---:|\n");
    for r in &report.recovery {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {:.2} |\n",
            r.cadence, r.ops, r.snapshots, r.replayed_ops, r.recovery_ms
        ));
    }
    out.push_str("\n| storm workload | ops | clean updates/s | storm updates/s | storms | degraded batches | skipped | watchdog trips |\n");
    out.push_str("|---|---:|---:|---:|---:|---:|---:|---:|\n");
    for r in &report.degraded {
        out.push_str(&format!(
            "| {} | {} | {:.0} | {:.0} | {} | {} | {} | {} |\n",
            r.family,
            r.ops,
            r.clean_ups,
            r.storm_ups,
            r.storms,
            r.degraded_batches,
            r.skipped_ops,
            r.watchdog_trips
        ));
    }
    out.push_str("\n| adversarial family | n | ops | checkpoints | worst ratio | oracle |\n");
    out.push_str("|---|---:|---:|---:|---:|---|\n");
    for r in &report.ratios {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {:.4} | {} |\n",
            r.family, r.n, r.ops, r.checkpoints, r.worst_ratio, r.oracle
        ));
    }
    out.push_str(&format!(
        "\nShape: the fault grid is the contract, not the measurement — poisoned ops reject \
         typed with the survivors bit-identical to the never-poisoned run, and corrupted \
         matching entries heal through the WAL (bit-identical) or a warm rebuild (floor \
         re-certified). Recovery latency scales with the journal \
         tail, so the cadence column is the knob: snapshot often to recover fast, rarely to \
         snapshot cheap. The degraded row is the serve driver keeping a poisoned stream \
         live; the worst-case ratios hold the Fact 1.3 ½ floor on streams built to break \
         it. (suite ran in {:.1}s)\n",
        t0.elapsed().as_secs_f64()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_parseable() {
        let report = ChaosReport {
            fault_grid: vec![FaultGridRow {
                class: "poisoned-ops",
                ops: 100,
                injected: 7,
                bit_identical: true,
                contract: "typed rejection",
            }],
            recovery: vec![RecoveryRow {
                cadence: 64,
                ops: 100,
                snapshots: 2,
                replayed_ops: 36,
                recovery_ms: 1.5,
                bit_identical: true,
            }],
            degraded: vec![DegradedRow {
                family: "hub-storm",
                ops: 100,
                clean_ups: 1000.0,
                storm_ups: 400.0,
                storms: 2,
                degraded_batches: 5,
                skipped_ops: 7,
                flushes: 3,
                watchdog_trips: 0,
            }],
            ratios: vec![RatioRow {
                family: "boundary-oscillation",
                n: 96,
                ops: 2000,
                checkpoints: 4,
                worst_ratio: 0.8123,
                oracle: "incremental-hungarian (warm)",
            }],
        };
        let j = to_json(&report, true);
        assert!(j.contains("\"fault_grid\""));
        assert!(j.contains("\"recovery\""));
        assert!(j.contains("\"worst_case_ratio\""));
        assert!(j.contains("\"worst_ratio\": 0.8123"));
        assert!(j.contains("\"recovery_ms\": 1.500"));
        assert!(j.contains("\"bit_identical\": true"));
        assert!(j.starts_with('{') && j.trim_end().ends_with('}'));
        assert_chaos_guard(&report);
    }

    #[test]
    fn guard_trips_on_silent_fault_class() {
        let report = ChaosReport {
            fault_grid: vec![FaultGridRow {
                class: "bit-flips (WAL heal)",
                ops: 100,
                injected: 0, // never fired
                bit_identical: true,
                contract: "c",
            }],
            recovery: vec![],
            degraded: vec![],
            ratios: vec![],
        };
        let r = std::panic::catch_unwind(|| assert_chaos_guard(&report));
        assert!(r.is_err(), "a silent fault class must trip the guard");
    }

    #[test]
    fn tiny_suite_end_to_end() {
        // miniature pass over the whole plumbing (not the sizes)
        let storm = AdversarialFamily::HubStorm.build(48, 600, 1);
        let rows = vec![
            grid_poison(storm.n, &storm.ops),
            grid_bitflip_wal(storm.n, &storm.ops),
            grid_bitflip_rebuild(storm.n, &storm.ops),
        ];
        for r in &rows {
            assert!(r.injected > 0, "{}: never fired", r.class);
        }
        let rec = recovery_row(storm.n, &storm.ops, 100);
        assert!(rec.bit_identical && rec.replayed_ops > 0);
        let deg = degraded_row("hub-storm", storm.n, &storm.ops);
        assert!(deg.storms > 0 && deg.storm_ups > 0.0);
        let ratio = ratio_row(AdversarialFamily::DeleteMatchingWaves, 32, 300, 100);
        assert!(ratio.worst_ratio >= 0.5 - 1e-9);
        assert!(ratio.checkpoints > 0);
    }
}
