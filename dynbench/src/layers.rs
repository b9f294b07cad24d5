//! The traced run: per-layer metrics.
//!
//! Phase A alternates untraced rounds with traced rounds of the same
//! workload loop, so the run reports its own traced throughput next to
//! the untraced one (the tracing overhead). Phase B replays the round's
//! first ops through each layer in isolation — a bare `DynGraph`, one
//! `DynamicMatcher::apply` per update, then, in lockstep per 256-op
//! batch, `DynamicMatcher::apply_all`, `ShardedMatcher::apply_batch`
//! without and with the WAL, `ServeDriver::serve`, and `apply_batch` at
//! threads = 2 — so each layer's self time is the difference between
//! two neighbouring replays. Every call gets a span, kept in memory and
//! written out as JSON lines when the run ends.

use std::fs;
use std::io::BufWriter;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use wmatch_dynamic::{
    DynGraph, DynamicConfig, DynamicMatcher, RetryPolicy, ServeDriver, ShardedMatcher, UpdateOp,
    WalConfig,
};
use wmatch_graph::aug_search::AugSearcher;
use wmatch_graph::exact::max_weight_matching;
use wmatch_graph::Graph;
use wmatch_oracle::IncrementalCertifier;

use crate::checks::{fact13, same_state, Digest, Fatal};
use crate::stats::{self, median, Samples};
use crate::trace::{Tracer, NO_PARENT};
use crate::workloads::{
    self, Instance, Sizes, Totals, Workload, BATCH, CERTIFY_EVERY, CRASH_EVERY, SHARDS,
};
use crate::{Metric, Report};

/// Share of `--seconds` given to phase A.
const PHASE_A_SHARE: f64 = 0.4;
/// Most traced rounds phase A runs (bounds the span log).
const MAX_TRACED_ROUNDS: usize = 8;

/// The traced run of `w`.
pub fn traced(w: Workload, seed: u64, seconds: u64) -> Result<Report, Fatal> {
    traced_at(w, seed, seconds, &Sizes::of(w), true)
}

/// [`traced`] at explicit sizes; `write` chooses whether the span log
/// is written to disk.
pub fn traced_at(
    w: Workload,
    seed: u64,
    seconds: u64,
    sizes: &Sizes,
    write: bool,
) -> Result<Report, Fatal> {
    let calibration_ms = stats::calibration_ms();
    // the traced run works on the run's first instance
    let inputs = [Instance::generate(w, sizes, seed)];
    let isolate_ops = sizes.isolate_batches * BATCH;
    let cap = MAX_TRACED_ROUNDS * (sizes.calls + sizes.checks(w) + 2 * sizes.recoveries(w) + 8)
        + 2 * isolate_ops
        + 8 * sizes.isolate_batches
        + 256;
    let mut tracer = Tracer::new(w.name(), cap);

    // phase A: untraced and traced rounds, interleaved
    let mut plain = Totals::new(w, sizes, MAX_TRACED_ROUNDS);
    let mut spanned = Totals::new(w, sizes, MAX_TRACED_ROUNDS);
    let budget = Duration::from_secs_f64(seconds as f64 * PHASE_A_SHARE);
    let start = Instant::now();
    let wait0 = stats::runqueue_wait_ns();
    let mut longest = Duration::ZERO;
    while spanned.rounds < MAX_TRACED_ROUNDS {
        let t = Instant::now();
        workloads::round(w, &inputs, 0, sizes, 1, &mut plain, None)?;
        workloads::round(w, &inputs, 0, sizes, 1, &mut spanned, Some(&mut tracer))?;
        longest = longest.max(t.elapsed());
        if start.elapsed() + longest > budget {
            break;
        }
    }
    let wait_ms = stats::runqueue_wait_ns().saturating_sub(wait0) as f64 / 1e6;
    let (Some(traced), Some(untraced)) = (&spanned.digests[0], &plain.digests[0]) else {
        return Err("phase A ran no round".into());
    };
    same_state("traced round vs untraced", untraced, traced)?;

    // phase B: isolation replays over the round's first ops
    let iso = Isolation::new(w, &inputs[0], sizes);
    let mut m = Vec::new();
    let mut layer =
        |name, unit, value: f64, basis: String| m.push(Metric::new(name, unit, value, basis));

    let dyngraph_ns = iso.dyngraph(&mut tracer)?;
    let (engine, engine_digest) = iso.engine(&mut tracer)?;
    let lanes = iso.batched(&mut tracer)?;
    for (replay, r) in Replay::ALL.iter().zip(&lanes) {
        same_state(
            &format!("isolation replay {} vs engine.apply", replay.span()),
            &engine_digest,
            &r.digest,
        )?;
    }
    let [apply_all, sharded, wal, served, spec] = &lanes[..] else {
        unreachable!("one result per lane")
    };
    let ops = iso.ops.len() as f64;
    let per_op = |ns: u64| ns as f64 / ops;
    let diff = |a: u64, b: u64| (a as f64 - b as f64) / ops;
    let basis_ops = format!("{} ops of the round's stream", iso.ops.len());

    layer(
        "dyngraph.apply_ns_per_op",
        "ns",
        dyngraph_ns / ops,
        basis_ops.clone(),
    );
    layer(
        "engine.apply_ns_per_op",
        "ns",
        per_op(engine.apply_ns),
        basis_ops.clone(),
    );
    layer(
        "repair.self_ns_per_op",
        "ns",
        per_op(engine.apply_ns) - dyngraph_ns / ops,
        "engine.apply minus dyngraph".into(),
    );
    layer(
        "repair.augmenting_share",
        "ratio",
        engine.augmenting as f64 / ops,
        format!(
            "{} of {} updates applied an augmentation",
            engine.augmenting,
            iso.ops.len()
        ),
    );
    layer(
        "repair.search_only_ns_per_op",
        "ns",
        engine.search_only_ns as f64 / (iso.ops.len() as u64 - engine.augmenting).max(1) as f64,
        "mean apply of updates with augmentations = 0".into(),
    );
    layer(
        "repair.ns_per_augmentation",
        "ns",
        engine.augmenting_ns as f64 / engine.augmentations.max(1) as f64,
        format!(
            "augmenting updates' apply time over {} augmentations",
            engine.augmentations
        ),
    );
    layer(
        "repair.augmentations_per_op",
        "augs/update",
        engine.augmentations as f64 / ops,
        basis_ops.clone(),
    );
    layer(
        "repair.scratch_high_water",
        "vertices",
        engine.scratch_high_water as f64,
        "DynamicMatcher::scratch_high_water".into(),
    );
    let bootstrap = iso.bootstrap(&mut tracer);
    layer(
        "setup.bootstrap_s",
        "s",
        bootstrap,
        if w.is_marketplace() {
            "from_graph of the warmed-up graph".into()
        } else {
            "from_graph of the initial graph".into()
        },
    );
    layer(
        "aug_search.full_scan_ms",
        "ms",
        engine.full_scan_ms,
        "median of 5 best_augmentation scans of the final snapshot".into(),
    );
    layer(
        "sharded.self_ns_per_op",
        "ns",
        diff(sharded.busy_ns, apply_all.busy_ns),
        "apply_batch without WAL minus DynamicMatcher::apply_all".into(),
    );
    layer(
        "wal.self_ns_per_op",
        "ns",
        diff(wal.busy_ns, sharded.busy_ns),
        "apply_batch with WAL minus without".into(),
    );
    layer(
        "wal.snapshots",
        "count",
        wal.snap.1 as f64,
        format!("of {} batches", sizes.isolate_batches),
    );
    layer(
        "wal.snapshot_extra_us",
        "us",
        wal.snapshot_extra_us(),
        "mean snapshot batch minus mean other batch".into(),
    );
    layer(
        "wal.replayed_ops_per_recover",
        "ops",
        wal.recovered_ops as f64 / wal.recoveries.max(1) as f64,
        format!("over {} recoveries", wal.recoveries),
    );
    layer(
        "driver.self_ns_per_op",
        "ns",
        diff(served.busy_ns, wal.busy_ns),
        "ServeDriver::serve minus apply_batch with WAL".into(),
    );
    layer(
        "driver.retries",
        "count",
        served.retries as f64,
        "DegradedStats".into(),
    );
    layer(
        "driver.skipped_ops",
        "count",
        served.skipped as f64,
        "DegradedStats".into(),
    );
    layer(
        "driver.degraded_batches",
        "count",
        served.degraded as f64,
        "DegradedStats".into(),
    );
    layer(
        "spec.self_ns_per_op",
        "ns",
        diff(spec.busy_ns, sharded.busy_ns),
        "apply_batch at threads = 2 minus threads = 1".into(),
    );
    layer(
        "spec.replayed_share",
        "ratio",
        spec.replayed as f64 / spec.balls_parallel.max(1) as f64,
        format!("replayed over {} speculated balls", spec.balls_parallel),
    );
    layer(
        "spec.fallbacks",
        "count",
        spec.fallbacks as f64,
        "threads = 2 replay".into(),
    );
    layer(
        "spec.overlap_groups_per_batch",
        "groups/batch",
        spec.overlap_groups as f64 / sizes.isolate_batches as f64,
        "threads = 2 replay".into(),
    );
    layer(
        "pool.steals",
        "count",
        spec.steals as f64,
        "threads = 2 replay".into(),
    );
    layer(
        "oracle.snapshot_ms",
        "ms",
        engine.snapshot_ms,
        format!(
            "median DynGraph::snapshot of {} checkpoints",
            engine.oracle_checkpoints
        ),
    );
    layer(
        "oracle.certify_warm_ms",
        "ms",
        engine.certify_warm_ms,
        if w.is_marketplace() {
            format!(
                "median warm IncrementalCertifier::certify of {} checkpoints",
                engine.oracle_checkpoints
            )
        } else {
            "0: general graph, no bipartite certifier".into()
        },
    );
    layer(
        "oracle.phases_per_checkpoint",
        "count",
        engine.phases_per_checkpoint,
        "CertifierStats".into(),
    );
    layer(
        "oracle.delta_steps_per_checkpoint",
        "count",
        engine.delta_steps_per_checkpoint,
        "CertifierStats".into(),
    );
    layer(
        "oracle.warm_share",
        "ratio",
        engine.warm_share,
        "CertifierStats".into(),
    );
    let blossom = iso.blossom_ms(&mut tracer, &engine)?;
    layer(
        "oracle.blossom_ms",
        "ms",
        blossom,
        "median max_weight_matching of the isolation checkpoints".into(),
    );
    layer(
        "host.runqueue_wait_ms",
        "ms",
        wait_ms,
        "over phase A".into(),
    );
    layer(
        "host.calibration_ms",
        "ms",
        calibration_ms,
        "fixed xorshift loop, median of 5".into(),
    );
    let rate = |t: &Totals| t.updates as f64 / (t.calls.total_ns() as f64 / 1e9);
    layer(
        "trace.updates_per_s",
        "updates/s",
        rate(&spanned),
        format!("{} traced rounds", spanned.rounds),
    );
    layer(
        "trace.untraced_updates_per_s",
        "updates/s",
        rate(&plain),
        format!("{} untraced rounds", plain.rounds),
    );

    if write {
        write_spans(&tracer, w, seed)?;
    }
    let mut run = vec![
        ("workload", format!("\"{}\"", w.name())),
        ("seed", seed.to_string()),
        ("revision", format!("\"{}\"", stats::git_revision())),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(1, |p| p.get())
                .to_string(),
        ),
    ];
    run.push(("rounds", (plain.rounds + spanned.rounds).to_string()));
    run.push(("host.runqueue_wait_ms", wait_ms.to_string()));
    run.push(("host.calibration_ms", calibration_ms.to_string()));
    run.push(("spans", tracer.spans().len().to_string()));
    run.push(("spans_dropped", tracer.dropped().to_string()));
    Ok(Report {
        attempted: plain.attempted + spanned.attempted,
        failed: plain.failed + spanned.failed,
        metrics: m,
        run,
    })
}

/// Writes the span log under the build directory.
fn write_spans(tracer: &Tracer, w: Workload, seed: u64) -> Result<(), Fatal> {
    let dir =
        PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
            .join("dynbench-trace");
    let path = dir.join(format!("{}-seed{seed}.jsonl", w.name()));
    let io = |e: std::io::Error| format!("writing {}: {e}", path.display());
    fs::create_dir_all(&dir).map_err(io)?;
    let mut out = BufWriter::new(fs::File::create(&path).map_err(io)?);
    tracer.write_jsonl(&mut out).map_err(io)?;
    std::io::Write::flush(&mut out).map_err(io)?;
    println!(
        "spans: {} written to {}",
        tracer.spans().len(),
        path.display()
    );
    Ok(())
}

/// The isolation replays' shared inputs: the state every engine starts
/// from and the ops all of them replay.
struct Isolation<'a> {
    w: Workload,
    inputs: &'a Instance,
    /// Ops applied untimed before the replay (marketplace warm-up).
    warm: &'a [UpdateOp],
    /// The replayed ops: the round's first `isolate_batches` batches.
    ops: &'a [UpdateOp],
    checkpoint_every: usize,
}

/// What the one-`apply`-per-update replay measured.
struct EngineReplay {
    apply_ns: u64,
    augmenting: u64,
    augmentations: u64,
    search_only_ns: u64,
    augmenting_ns: u64,
    scratch_high_water: usize,
    snapshot_ms: f64,
    certify_warm_ms: f64,
    phases_per_checkpoint: f64,
    delta_steps_per_checkpoint: f64,
    warm_share: f64,
    oracle_checkpoints: usize,
    full_scan_ms: f64,
    /// Live-graph snapshots at the checkpoints (for blossom timing).
    snapshots: Vec<Graph>,
}

/// The batched replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Replay {
    ApplyAll,
    Sharded,
    Wal,
    Serve,
    TwoThreads,
}

impl Replay {
    /// Lane order of the lockstep replay (and of its results).
    const ALL: [Replay; 5] = [
        Replay::ApplyAll,
        Replay::Sharded,
        Replay::Wal,
        Replay::Serve,
        Replay::TwoThreads,
    ];

    fn span(self) -> &'static str {
        match self {
            Replay::ApplyAll => "engine.apply_all",
            Replay::Sharded => "sharded.apply_batch",
            Replay::Wal => "wal.apply_batch",
            Replay::Serve => "driver.serve",
            Replay::TwoThreads => "spec.apply_batch",
        }
    }
}

/// An engine of the lockstep replay.
enum Lane {
    Dynamic(Box<DynamicMatcher>),
    Sharded(Box<ShardedMatcher>, Option<ServeDriver>),
}

impl Lane {
    /// WAL snapshots taken so far (0 without a WAL).
    fn snapshots(&self) -> u64 {
        match self {
            Lane::Sharded(eng, _) => eng.wal_stats().map_or(0, |s| s.snapshots),
            Lane::Dynamic(_) => 0,
        }
    }
}

/// What one lane of the lockstep replay measured.
struct BatchReplay {
    busy_ns: u64,
    digest: Digest,
    /// `(ns, batches)` of batches that took a WAL snapshot.
    snap: (u64, u64),
    /// `(ns, batches)` of the other batches.
    other: (u64, u64),
    recoveries: u64,
    recovered_ops: u64,
    retries: u64,
    skipped: u64,
    degraded: u64,
    fallbacks: u64,
    replayed: u64,
    balls_parallel: u64,
    overlap_groups: u64,
    steals: u64,
}

impl BatchReplay {
    fn new(n: usize) -> Self {
        BatchReplay {
            busy_ns: 0,
            digest: Digest::with_capacity(n / 2),
            snap: (0, 0),
            other: (0, 0),
            recoveries: 0,
            recovered_ops: 0,
            retries: 0,
            skipped: 0,
            degraded: 0,
            fallbacks: 0,
            replayed: 0,
            balls_parallel: 0,
            overlap_groups: 0,
            steals: 0,
        }
    }

    /// Mean snapshot batch minus mean other batch, in µs (0 when either
    /// kind is missing).
    fn snapshot_extra_us(&self) -> f64 {
        if self.snap.1 == 0 || self.other.1 == 0 {
            return 0.0;
        }
        (self.snap.0 as f64 / self.snap.1 as f64 - self.other.0 as f64 / self.other.1 as f64) / 1e3
    }
}

impl<'a> Isolation<'a> {
    fn new(w: Workload, inputs: &'a Instance, sizes: &Sizes) -> Self {
        let n_ops = sizes.isolate_batches * BATCH;
        Isolation {
            w,
            inputs,
            warm: &inputs.stream.ops[..inputs.warm],
            ops: &inputs.stream.ops[inputs.warm..inputs.warm + n_ops],
            checkpoint_every: if w.is_marketplace() {
                CERTIFY_EVERY * BATCH
            } else {
                BATCH
            },
        }
    }

    fn cfg(&self) -> DynamicConfig {
        DynamicConfig::default()
    }

    /// A `DynamicMatcher` at the replay's starting state.
    fn dynamic(&self) -> Result<DynamicMatcher, Fatal> {
        let mut eng = DynamicMatcher::from_graph(&self.inputs.stream.initial, self.cfg())
            .map_err(|e| format!("bootstrap: {e}"))?;
        eng.apply_all(self.warm)
            .map_err(|e| format!("warm-up rejected an op: {}", e.source))?;
        Ok(eng)
    }

    /// A `ShardedMatcher` at the replay's starting state.
    fn sharded(&self, threads: usize) -> Result<ShardedMatcher, Fatal> {
        let cfg = self.cfg().with_threads(threads);
        let mut eng = ShardedMatcher::from_graph(&self.inputs.stream.initial, cfg, SHARDS)
            .map_err(|e| format!("bootstrap: {e}"))?;
        eng.apply_all(self.warm)
            .map_err(|e| format!("warm-up rejected an op: {}", e.source))?;
        Ok(eng)
    }

    /// The ops through a bare `DynGraph`; returns the nanoseconds, the
    /// median of five passes.
    fn dyngraph(&self, tracer: &mut Tracer) -> Result<f64, Fatal> {
        let mut base = DynGraph::from_graph(&self.inputs.stream.initial)
            .map_err(|e| format!("DynGraph rejected the initial graph: {e}"))?;
        let rejected = self
            .warm
            .iter()
            .filter(|&&op| !apply_structural(&mut base, op))
            .count();
        let mut passes = Samples::with_capacity(5);
        let mut failed = rejected;
        for _ in 0..5 {
            let mut g = base.clone();
            let span = tracer.open("dyngraph.replay", NO_PARENT, (0, self.ops.len()));
            let t = Instant::now();
            for &op in self.ops {
                failed += usize::from(!apply_structural(&mut g, op));
            }
            passes.push(t.elapsed().as_nanos() as u64);
            tracer.close(span);
            std::hint::black_box(&g);
        }
        if failed > 0 {
            return Err(format!("a bare DynGraph rejected {failed} ops"));
        }
        Ok(median(&passes).unwrap_or(0) as f64)
    }

    /// One `DynamicMatcher::apply` per update, classified by the
    /// returned `UpdateStats`, with oracle checkpoints between calls.
    fn engine(&self, tracer: &mut Tracer) -> Result<(EngineReplay, Digest), Fatal> {
        let mut eng = self.dynamic()?;
        let mut cert = self
            .w
            .is_marketplace()
            .then(|| IncrementalCertifier::new(self.inputs.side.clone()));
        if let Some(c) = cert.as_mut() {
            c.certify(&eng.graph().snapshot())
                .map_err(|e| format!("certifier: {e}"))?;
        }
        let checkpoints = self.ops.len() / self.checkpoint_every;
        let mut snap_ns = Samples::with_capacity(checkpoints);
        let mut cert_ns = Samples::with_capacity(checkpoints);
        let mut snapshots = Vec::with_capacity(checkpoints);
        let mut out = EngineReplay {
            apply_ns: 0,
            augmenting: 0,
            augmentations: 0,
            search_only_ns: 0,
            augmenting_ns: 0,
            scratch_high_water: 0,
            snapshot_ms: 0.0,
            certify_warm_ms: 0.0,
            phases_per_checkpoint: 0.0,
            delta_steps_per_checkpoint: 0.0,
            warm_share: 0.0,
            oracle_checkpoints: checkpoints,
            full_scan_ms: 0.0,
            snapshots: Vec::new(),
        };
        let base = self.inputs.warm;
        for (i, &op) in self.ops.iter().enumerate() {
            let t0 = Instant::now();
            let st = eng
                .apply(op)
                .map_err(|e| format!("isolation replay rejected {op}: {e}"))?;
            let t1 = Instant::now();
            tracer.record("engine.apply", NO_PARENT, t0, t1, (base + i, base + i + 1));
            let ns = t1.saturating_duration_since(t0).as_nanos() as u64;
            out.apply_ns += ns;
            if st.augmentations > 0 {
                out.augmenting += 1;
                out.augmentations += st.augmentations;
                out.augmenting_ns += ns;
            } else {
                out.search_only_ns += ns;
            }
            if (i + 1) % self.checkpoint_every == 0 {
                let t0 = Instant::now();
                let snap = eng.graph().snapshot();
                let t1 = Instant::now();
                tracer.record("oracle.snapshot", NO_PARENT, t0, t1, (0, base + i + 1));
                snap_ns.push(t1.saturating_duration_since(t0).as_nanos() as u64);
                if let Some(c) = cert.as_mut() {
                    let t0 = Instant::now();
                    let optimum = c
                        .certify(&snap)
                        .map_err(|e| format!("certifier: {e}"))?
                        .optimum;
                    let t1 = Instant::now();
                    tracer.record("oracle.certify", NO_PARENT, t0, t1, (0, base + i + 1));
                    cert_ns.push(t1.saturating_duration_since(t0).as_nanos() as u64);
                    if eng.matching().weight() * 2 < optimum {
                        return Err(format!(
                            "isolation checkpoint below the ½ floor: {} vs {optimum}",
                            eng.matching().weight()
                        ));
                    }
                }
                snapshots.push(snap);
            }
        }
        out.scratch_high_water = eng.scratch_high_water();
        out.snapshot_ms = median(&snap_ns).unwrap_or(0) as f64 / 1e6;
        out.certify_warm_ms = median(&cert_ns).unwrap_or(0) as f64 / 1e6;
        if let Some(c) = cert.as_ref() {
            let s = c.stats();
            let k = s.checkpoints.max(1) as f64;
            out.phases_per_checkpoint = s.phases as f64 / k;
            out.delta_steps_per_checkpoint = s.delta_steps as f64 / k;
            out.warm_share = s.warm_checkpoints as f64 / k;
        }
        let fin = eng.graph().snapshot();
        let mut searcher = AugSearcher::new();
        let mut scans = Samples::with_capacity(5);
        for _ in 0..5 {
            let t0 = Instant::now();
            let found = searcher.best_augmentation(&fin, eng.matching(), eng.config().max_len);
            let t1 = Instant::now();
            tracer.record(
                "aug_search.full_scan",
                NO_PARENT,
                t0,
                t1,
                (0, base + self.ops.len()),
            );
            scans.push(t1.saturating_duration_since(t0).as_nanos() as u64);
            if found.is_some() {
                return Err("isolation replay: a positive short augmentation survives".into());
            }
        }
        out.full_scan_ms = median(&scans).unwrap_or(0) as f64 / 1e6;
        fact13(
            "isolation replay",
            &fin,
            eng.matching(),
            eng.config().max_len,
            &mut searcher,
        )?;
        out.snapshots = snapshots;
        let mut digest = Digest::with_capacity(self.inputs.stream.n / 2);
        digest.capture(eng.matching(), &eng.counters());
        Ok((out, digest))
    }

    /// The ops in 256-op batches through every batched path in
    /// lockstep: each batch goes through all five engines before the
    /// next batch starts, in an order that rotates per batch, so a host
    /// slowdown lands on every path alike and the differences between
    /// paths (the self times) keep their sign.
    fn batched(&self, tracer: &mut Tracer) -> Result<Vec<BatchReplay>, Fatal> {
        let mut lanes = Vec::with_capacity(Replay::ALL.len());
        for replay in Replay::ALL {
            let engine = match replay {
                Replay::ApplyAll => Lane::Dynamic(Box::new(self.dynamic()?)),
                Replay::TwoThreads => Lane::Sharded(Box::new(self.sharded(2)?), None),
                Replay::Sharded => Lane::Sharded(Box::new(self.sharded(1)?), None),
                Replay::Wal | Replay::Serve => {
                    let mut eng = self.sharded(1)?;
                    eng.enable_wal(WalConfig::default());
                    let driver =
                        (replay == Replay::Serve).then(|| ServeDriver::new(RetryPolicy::default()));
                    Lane::Sharded(Box::new(eng), driver)
                }
            };
            lanes.push((replay, engine, BatchReplay::new(self.inputs.stream.n)));
        }
        let base = self.inputs.warm;
        let n_batches = self.ops.len() / BATCH;
        let k = lanes.len();
        for (b, batch) in self.ops.chunks_exact(BATCH).enumerate() {
            for j in 0..k {
                let (replay, engine, out) = &mut lanes[(b + j) % k];
                let span = replay.span();
                let snaps_before = engine.snapshots();
                let t0 = Instant::now();
                let applied = match engine {
                    Lane::Dynamic(eng) => {
                        eng.apply_all(batch)
                            .map_err(|e| format!("{span} rejected an op: {}", e.source))?
                            .applied
                    }
                    Lane::Sharded(eng, Some(driver)) => driver.serve(eng, batch).applied,
                    Lane::Sharded(eng, None) => {
                        eng.apply_batch(batch)
                            .map_err(|e| format!("{span} rejected an op: {}", e.source))?
                            .applied
                    }
                };
                let t1 = Instant::now();
                if applied != batch.len() {
                    return Err(format!(
                        "{span} left {} ops unapplied",
                        batch.len() - applied
                    ));
                }
                let lo = base + b * BATCH;
                tracer.record(span, NO_PARENT, t0, t1, (lo, lo + BATCH));
                let ns = t1.saturating_duration_since(t0).as_nanos() as u64;
                out.busy_ns += ns;
                if engine.snapshots() > snaps_before {
                    out.snap.0 += ns;
                    out.snap.1 += 1;
                } else {
                    out.other.0 += ns;
                    out.other.1 += 1;
                }
                let crash = (b + 1) % CRASH_EVERY == 0 || b + 1 == n_batches;
                if let (Replay::Wal, Lane::Sharded(eng, _), true) = (*replay, &mut *engine, crash) {
                    let t0 = Instant::now();
                    eng.simulate_crash();
                    let report = eng.recover().ok_or("recover: no WAL enabled")?;
                    tracer.record(
                        "wal.crash_recover",
                        NO_PARENT,
                        t0,
                        Instant::now(),
                        (0, lo + BATCH),
                    );
                    out.recoveries += 1;
                    out.recovered_ops += report.replayed_ops as u64;
                }
            }
        }
        let mut outs = Vec::with_capacity(k);
        for (_, engine, mut out) in lanes {
            match &engine {
                Lane::Dynamic(eng) => out.digest.capture(eng.matching(), &eng.counters()),
                Lane::Sharded(eng, driver) => {
                    if let Some(d) = driver {
                        let d = d.stats();
                        out.retries = d.retries;
                        out.skipped = d.skipped_ops;
                        out.degraded = d.degraded_batches;
                    }
                    out.fallbacks = eng.fallbacks();
                    out.replayed = eng.replayed();
                    out.balls_parallel = eng.balls_parallel();
                    out.overlap_groups = eng.overlap_groups();
                    out.steals = eng.steals();
                    out.digest.capture(eng.matching(), &eng.counters());
                }
            }
            outs.push(out);
        }
        Ok(outs)
    }

    /// Seconds of one `DynamicMatcher::from_graph`: the initial graph on
    /// the churn workloads, the warmed-up graph on the marketplace.
    fn bootstrap(&self, tracer: &mut Tracer) -> f64 {
        let g = if self.w.is_marketplace() {
            let mut d = DynGraph::new(self.inputs.stream.n);
            for &op in self.warm {
                apply_structural(&mut d, op);
            }
            d.snapshot()
        } else {
            self.inputs.stream.initial.clone()
        };
        let t0 = Instant::now();
        let eng = DynamicMatcher::from_graph(&g, self.cfg());
        let t1 = Instant::now();
        tracer.record("setup.from_graph", NO_PARENT, t0, t1, (0, 0));
        std::hint::black_box(&eng);
        t1.saturating_duration_since(t0).as_secs_f64()
    }

    /// Median `exact::max_weight_matching` over the isolation
    /// checkpoints; on the marketplace its optimum must equal the
    /// bipartite certifier's.
    fn blossom_ms(&self, tracer: &mut Tracer, engine: &EngineReplay) -> Result<f64, Fatal> {
        let picks: Vec<&Graph> = if self.w.is_marketplace() {
            engine.snapshots.iter().take(1).collect()
        } else {
            engine.snapshots.iter().collect()
        };
        let mut times = Samples::with_capacity(picks.len());
        for g in picks {
            let t0 = Instant::now();
            let optimum = max_weight_matching(g).weight();
            let t1 = Instant::now();
            tracer.record("oracle.blossom", NO_PARENT, t0, t1, (0, 0));
            times.push(t1.saturating_duration_since(t0).as_nanos() as u64);
            if self.w.is_marketplace() {
                let mut cert = IncrementalCertifier::new(self.inputs.side.clone());
                let exact = cert
                    .certify(g)
                    .map_err(|e| format!("certifier: {e}"))?
                    .optimum;
                if exact != optimum {
                    return Err(format!(
                        "blossom optimum {optimum} differs from the certifier's {exact}"
                    ));
                }
            }
        }
        Ok(median(&times).unwrap_or(0) as f64 / 1e6)
    }
}

/// Applies an op to a bare `DynGraph` (structure only, no matching);
/// `false` if the graph rejected it.
fn apply_structural(g: &mut DynGraph, op: UpdateOp) -> bool {
    match op {
        UpdateOp::Insert { u, v, weight } => g.insert(u, v, weight).is_ok(),
        UpdateOp::Delete { u, v } => g.delete(u, v).is_ok(),
    }
}
