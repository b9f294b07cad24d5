//! The sharded production-scale dynamic engine.
//!
//! [`ShardedMatcher`] is the serve-path engine. It ingests updates in
//! batches and wraps the sequential per-op path with the production
//! machinery: a write-ahead log for crash recovery, seeded fault
//! injection, a batch-boundary invariant sentinel that quarantines and
//! heals damaged state, and the deferred-repair mode of the degraded
//! [`ServeDriver`](crate::ServeDriver). Every batch commits op by op, in
//! stream order, through the same crate-private `EngineCore` path that
//! [`DynamicMatcher`] runs.
//!
//! # Shards
//!
//! Vertex `v` belongs to shard `v·k/n` (contiguous ranges); the edge
//! `{u, v}` is owned by the shard of `min(u, v)`. A shard is the unit the
//! sentinel reports a violation in ([`DynamicError::Quarantined`]); the
//! shard count never changes what is committed.
//!
//! # The determinism contract
//!
//! The committed state after a batch is **bit-identical to feeding the
//! same ops one-by-one into a single [`DynamicMatcher`]** — for any
//! shard count, any worker-thread count, and any batch size — because it
//! runs the same code. The batch size only decides where the WAL
//! journals and where the sentinel and chaos hooks fire; the worker pool
//! serves the rebuild epochs, which are bit-identical for any thread
//! count.
//!
//! [`DynamicMatcher`]: crate::DynamicMatcher

use wmatch_graph::pool::resolve_threads;
use wmatch_graph::{Edge, Graph, Matching, Vertex};
use wmatch_oracle::{IncrementalCertifier, OracleError};

use crate::certifier::CheckpointCertificate;
use crate::chaos::{ChaosConfig, ChaosCounters, ChaosInjector};
use crate::dyngraph::DynGraph;
use crate::engine::{
    apply_each, run_rebuild_epoch, static_bounded_matching, BatchError, BatchStats, DynamicConfig,
    DynamicCounters, EngineCore, UpdateEngine, UpdateStats,
};
use crate::error::DynamicError;
use crate::update::UpdateOp;
use crate::wal::{RecoveryReport, Wal, WalConfig, WalStats};

/// The shard owning vertex `v` under `k` contiguous vertex ranges
/// (out-of-range vertices clamp to the last shard).
fn shard_of(v: Vertex, k: usize, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let v = (v as usize).min(n - 1);
    v * k / n
}

/// A `k`-shard batched dynamic matching engine, bit-identical to the
/// sequential [`DynamicMatcher`](crate::DynamicMatcher) for any shard
/// count, thread count, and batch size — see the [module docs](self).
///
/// # Example
///
/// ```
/// use wmatch_dynamic::{DynamicConfig, ShardedMatcher, UpdateOp};
///
/// let mut eng = ShardedMatcher::new(6, DynamicConfig::default(), 2);
/// let stats = eng
///     .apply_all(&[
///         UpdateOp::insert(0, 1, 4),
///         UpdateOp::insert(4, 5, 7),
///         UpdateOp::insert(1, 2, 6),
///     ])
///     .unwrap();
/// assert_eq!(stats.applied, 3);
/// assert_eq!(eng.matching().weight(), 13); // {4,5}@7 and the heavier {1,2}@6
/// ```
#[derive(Debug)]
pub struct ShardedMatcher {
    core: EngineCore,
    /// Vertex shards: the sentinel's quarantine granularity.
    k: usize,
    batch: usize,
    /// Crash-recovery journal + snapshots (None until
    /// [`ShardedMatcher::enable_wal`]).
    wal: Option<Box<Wal>>,
}

impl ShardedMatcher {
    /// Default ops per ingest batch (tunable via
    /// [`ShardedMatcher::with_batch_size`]).
    pub const DEFAULT_BATCH: usize = 256;

    /// An engine over an initially edgeless graph on `n` vertices with
    /// `shards` vertex shards (0 = one per available core, like the
    /// `threads` knob).
    pub fn new(n: usize, cfg: DynamicConfig, shards: usize) -> Self {
        ShardedMatcher {
            core: EngineCore::new(n, cfg),
            k: resolve_threads(shards),
            batch: Self::DEFAULT_BATCH,
            wal: None,
        }
    }

    /// An engine seeded with an initial graph, bootstrapped exactly like
    /// [`DynamicMatcher::from_graph`](crate::DynamicMatcher::from_graph)
    /// (not counted as updates or recourse).
    ///
    /// # Errors
    ///
    /// [`DynamicError::ZeroWeight`] if the initial graph carries a
    /// zero-weight edge.
    pub fn from_graph(
        initial: &Graph,
        cfg: DynamicConfig,
        shards: usize,
    ) -> Result<Self, DynamicError> {
        let mut eng = ShardedMatcher::new(initial.vertex_count(), cfg, shards);
        eng.core.g = DynGraph::from_graph(initial)?;
        eng.core.m = static_bounded_matching(initial, cfg.max_len, &mut eng.core.kit.searcher);
        Ok(eng)
    }

    /// Sets the ingest batch size (clamped to ≥ 1): how many ops are
    /// journaled and committed between two runs of the batch-boundary
    /// hooks. The committed state is identical for any value.
    pub fn with_batch_size(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// The engine's configuration.
    pub fn config(&self) -> &DynamicConfig {
        &self.core.cfg
    }

    /// The number of vertex shards (the granularity of sentinel
    /// quarantines; it never changes the committed state).
    pub fn shard_count(&self) -> usize {
        self.k
    }

    /// The maintained matching.
    pub fn matching(&self) -> &Matching {
        &self.core.m
    }

    /// The live graph.
    pub fn graph(&self) -> &DynGraph {
        &self.core.g
    }

    /// Lifetime counters (identical to the sequential engine's on the
    /// same update stream).
    pub fn counters(&self) -> DynamicCounters {
        self.core.counters
    }

    /// Always 0: batches commit sequentially, so no plan is replayed.
    pub fn replayed(&self) -> u64 {
        0
    }

    /// Always 0: batches commit sequentially, so nothing falls back.
    pub fn fallbacks(&self) -> u64 {
        0
    }

    /// Always 0: batches commit sequentially, in no overlap groups.
    pub fn overlap_groups(&self) -> u64 {
        0
    }

    /// Always 0: batches commit sequentially, with no ball in parallel.
    pub fn balls_parallel(&self) -> u64 {
        0
    }

    /// Chunks stolen across the rebuild epochs' pool jobs so far (always
    /// 0 at `threads = 1`) — scheduler telemetry, never semantics.
    pub fn steals(&self) -> u64 {
        self.core.pool.steals()
    }

    /// The largest dense scratch footprint any repair path has used.
    pub fn scratch_high_water(&self) -> usize {
        self.core.scratch_high_water()
    }

    /// Applies one batch, committing its ops in stream order through the
    /// sequential per-op path. When a WAL is enabled the batch is
    /// journaled first; when a chaos injector is installed the sentinel
    /// gate, op poisoning, and post-commit corruption hooks run around
    /// it.
    ///
    /// # Errors
    ///
    /// A [`BatchError`] at the first malformed op; `applied` counts the
    /// committed updates (which remain applied). A transient
    /// [`DynamicError::Quarantined`] means the sentinel found (and
    /// already healed) corrupted state *before* applying anything —
    /// retry the batch.
    pub fn apply_batch(&mut self, ops: &[UpdateOp]) -> Result<BatchStats, BatchError> {
        self.apply_chunk(ops)
    }

    /// Applies a whole update sequence, chunked into engine-sized
    /// batches ([`ShardedMatcher::with_batch_size`]). Stats aggregate
    /// over all batches.
    ///
    /// # Errors
    ///
    /// A [`BatchError`] at the first malformed op; `applied` counts the
    /// committed updates across the whole sequence and `stats` carries
    /// the applied prefix's aggregate.
    pub fn apply_all(&mut self, ops: &[UpdateOp]) -> Result<BatchStats, BatchError> {
        let mut out = BatchStats::default();
        let mut offset = 0usize;
        for chunk in ops.chunks(self.batch) {
            match self.apply_chunk(chunk) {
                Ok(s) => out.merge(&s),
                Err(e) => {
                    out.merge(&e.stats);
                    return Err(BatchError {
                        applied: offset + e.applied,
                        stats: out,
                        source: e.source,
                    });
                }
            }
            offset += chunk.len();
        }
        Ok(out)
    }

    /// One batch through the full serve path: sentinel gate → poison
    /// hook → WAL journal → commit → snapshot → corruption hook. The
    /// hooks are all no-ops without a chaos injector / WAL.
    fn apply_chunk(&mut self, ops: &[UpdateOp]) -> Result<BatchStats, BatchError> {
        // sentinel gate: refuse to build on corrupted state — heal it
        // and report a transient, retryable rejection
        if self.core.chaos.as_ref().is_some_and(|c| c.sentinel_due()) {
            if let Some(shard) = self.sentinel_violation() {
                self.quarantine_heal(shard);
                return Err(BatchError {
                    applied: 0,
                    stats: BatchStats::default(),
                    source: DynamicError::Quarantined { shard },
                });
            }
        }
        // poison hook: the injector may replace ops by malformed ones
        let poisoned: Option<Vec<UpdateOp>> = {
            let EngineCore { g, chaos, .. } = &mut self.core;
            chaos
                .as_mut()
                .filter(|c| c.config().poison_every > 0)
                .map(|c| {
                    let mut buf = ops.to_vec();
                    for op in buf.iter_mut() {
                        if let Some(bad) = c.poison_op(g, *op) {
                            *op = bad;
                        }
                    }
                    buf
                })
        };
        let ops_run: &[UpdateOp] = poisoned.as_deref().unwrap_or(ops);
        // log-before-apply: durable state is snapshot + tail
        if let Some(w) = self.wal.as_mut() {
            w.log(ops_run);
        }
        match self.commit(ops_run) {
            Ok(stats) => {
                // snapshot first so snapshots always capture clean,
                // committed state — never the injected corruption below
                if let Some(w) = self.wal.as_mut() {
                    w.maybe_snapshot(&self.core);
                }
                self.inject_bitflip();
                Ok(stats)
            }
            Err(e) => {
                // the rejected op and the never-run suffix must not be
                // replayed by recovery
                if let Some(w) = self.wal.as_mut() {
                    w.truncate_unapplied(ops_run.len() - e.applied);
                }
                Err(e)
            }
        }
    }

    /// Commits one batch's ops in stream order through the sequential
    /// per-op path — the one commit loop of live batches and of crash
    /// recovery's replay.
    fn commit(&mut self, ops: &[UpdateOp]) -> Result<BatchStats, BatchError> {
        if let Some(c) = self.core.chaos.as_mut() {
            c.begin_batch();
        }
        apply_each(ops, |op| self.core.apply_one(op))
    }

    /// Applies updates in **deferred mode**: structural changes and the
    /// op-validity rule only, no repairs — the degraded serve path's
    /// tolerate-ε-staleness ingest, the same deferral as
    /// [`RepairPolicy::Window`](crate::RepairPolicy::Window). The matching
    /// stays *valid* but its Fact 1.3 certificate is suspended until
    /// [`ShardedMatcher::flush_repairs`] runs: an eager batch in between
    /// repairs only around its own ops, and the deferred debt stays
    /// pending. Deferred ops are journaled like any other; crash recovery
    /// replays the journal tail eagerly and restores any debt its
    /// snapshot holds.
    ///
    /// # Errors
    ///
    /// A [`BatchError`] at the first malformed op, exactly as
    /// [`ShardedMatcher::apply_all`].
    pub fn apply_deferred(&mut self, ops: &[UpdateOp]) -> Result<BatchStats, BatchError> {
        if let Some(w) = self.wal.as_mut() {
            w.log(ops);
        }
        let res = apply_each(ops, |op| self.core.defer_one(op));
        if let (Err(e), Some(w)) = (&res, self.wal.as_mut()) {
            w.truncate_unapplied(ops.len() - e.applied);
        }
        res
    }

    /// Repairs everything deferred by [`ShardedMatcher::apply_deferred`]
    /// in one batched sweep (plus a rebuild epoch if one came due while
    /// deferring), restoring the Fact 1.3 certificate. Returns the
    /// flush's aggregate churn; `applied` stays 0 — the deferred ops
    /// were already counted when ingested.
    pub fn flush_repairs(&mut self) -> BatchStats {
        let s = self.core.flush();
        if let Some(w) = self.wal.as_mut() {
            w.maybe_snapshot(&self.core);
        }
        BatchStats {
            gain: s.gain,
            recourse: s.recourse,
            augmentations: s.augmentations,
            rebuilds: u64::from(s.rebuilt),
            ..Default::default()
        }
    }

    /// Deferred updates whose repairs are still pending (0 outside
    /// degraded mode).
    pub fn deferred_repairs(&self) -> usize {
        self.core.pending_ops
    }

    /// Flushes any deferred repairs, then re-certifies the committed
    /// state through `cert`; see
    /// [`UpdateEngine::certify_checkpoint`].
    ///
    /// # Errors
    ///
    /// [`OracleError`] if the live graph does not fit the certifier's
    /// bipartition.
    pub fn certify_checkpoint(
        &mut self,
        cert: &mut IncrementalCertifier,
    ) -> Result<CheckpointCertificate, OracleError> {
        UpdateEngine::certify_checkpoint(self, cert)
    }

    /// Enables the write-ahead log, snapshotting the current state
    /// immediately. Every subsequent batch is journaled before it is
    /// applied, so [`ShardedMatcher::recover`] can always rebuild the
    /// committed state.
    pub fn enable_wal(&mut self, cfg: WalConfig) {
        self.wal = Some(Box::new(Wal::new(cfg, &self.core)));
    }

    /// The WAL's observable state, or `None` if no WAL is enabled.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal.as_ref().map(|w| w.stats())
    }

    /// Rebuilds the engine's semantic state from the WAL: restores the
    /// latest snapshot and replays the journal tail through the ordinary
    /// batch path. By the engine's determinism contract the result is
    /// **bit-identical to the uninterrupted run** (matching, recourse,
    /// counters) — for any snapshot cadence, crash point, shard count,
    /// and thread count. Returns `None` if no WAL is enabled.
    pub fn recover(&mut self) -> Option<RecoveryReport> {
        let mut wal = self.wal.take()?;
        wal.restore(&mut self.core);
        let tail = wal.take_tail();
        for chunk in tail.chunks(self.batch) {
            self.commit(chunk)
                .expect("journaled ops committed before the crash");
        }
        let report = RecoveryReport {
            snapshot_updates: wal.snapshot_updates(),
            replayed_ops: tail.len(),
        };
        wal.put_tail(tail);
        self.wal = Some(wal);
        Some(report)
    }

    /// Wipes the engine's live state (graph, matching, counters) as a
    /// crash would — the WAL, being the durable half, survives. Chaos
    /// and recovery tests pair this with [`ShardedMatcher::recover`].
    pub fn simulate_crash(&mut self) {
        let n = self.core.g.vertex_count();
        self.core.g = DynGraph::new(n);
        self.core.m.reset(n);
        self.core.counters = DynamicCounters::default();
        self.core.updates_since_rebuild = 0;
        self.core.pending.clear();
        self.core.pending_ops = 0;
    }

    /// Installs a deterministic fault injector (test and chaos-bench
    /// builds only): op poisoning, matching corruption, and the sentinel
    /// gate cadence are all driven by it.
    pub fn install_chaos(&mut self, cfg: ChaosConfig) {
        self.core.chaos = Some(Box::new(ChaosInjector::new(cfg)));
    }

    /// The installed injector's fault/recovery telemetry, or `None`.
    pub fn chaos_counters(&self) -> Option<ChaosCounters> {
        self.core.chaos.as_ref().map(|c| c.counters)
    }

    /// The invariant sentinel: spot-checks matching consistency (mate
    /// symmetry and every matched entry backed by a live edge of the
    /// same weight) and the bounded-augmentation floor's edge-dominance
    /// consequence (no live edge outweighs the matched weight it
    /// conflicts with — a violation is a positive 1-edge augmentation,
    /// which Fact 1.3 forbids at any `max_len ≥ 1`). Returns the vertex
    /// shard of the first violation. The dominance check is skipped
    /// while deferred repairs are pending — staleness is deliberate
    /// there, not corruption.
    pub fn sentinel_violation(&self) -> Option<usize> {
        let g = &self.core.g;
        let m = &self.core.m;
        let n = g.vertex_count();
        let k = self.k;
        for v in 0..n as Vertex {
            let Some(e) = m.matched_edge(v) else { continue };
            if !e.touches(v) {
                return Some(shard_of(v, k, n));
            }
            let mate = e.other(v);
            let back = m.matched_edge(mate).map(|b| (b.key(), b.weight));
            if back != Some((e.key(), e.weight)) {
                return Some(shard_of(v.min(mate), k, n));
            }
            if e.key().0 == v && !g.has_live_copy(e.u, e.v, e.weight) {
                return Some(shard_of(e.u.min(e.v), k, n));
            }
        }
        if self.core.pending_ops == 0 {
            for e in g.live_iter() {
                let mu = m.matched_edge(e.u);
                let mv = m.matched_edge(e.v);
                let conflict = match (mu, mv) {
                    (Some(a), Some(b)) if a.key() == b.key() => a.weight,
                    _ => mu.map_or(0, |x| x.weight) + mv.map_or(0, |x| x.weight),
                };
                if e.weight > conflict {
                    return Some(shard_of(e.u.min(e.v), k, n));
                }
            }
        }
        None
    }

    /// Quarantines a shard the sentinel flagged and heals the engine:
    /// with a WAL, a full [`ShardedMatcher::recover`] (bit-identical to
    /// the uninterrupted run); without one, dead matched entries are
    /// dropped and a warm restore-only rebuild epoch re-certifies the
    /// Fact 1.3 floor on the surviving state. Public so serve drivers
    /// and watchdogs (e.g. [`ServeDriver`](crate::ServeDriver) after a
    /// deferred-repair flush) can heal a flagged shard on the spot
    /// instead of waiting for the next batch's sentinel gate.
    pub fn quarantine_heal(&mut self, shard: usize) {
        if self.wal.is_some() {
            self.recover();
        } else {
            let EngineCore { g, m, .. } = &mut self.core;
            let n = g.vertex_count();
            for v in 0..n as Vertex {
                if let Some(e) = m.matched_edge(v) {
                    if e.key().0 == v && !g.has_live_copy(e.u, e.v, e.weight) {
                        m.remove_pair(e.u, e.v).expect("edge was matched");
                    }
                }
            }
            // restore-only epoch: rebuild_rounds = 0 skips the class
            // sweep (randomness unused), re-certifying the invariant
            // globally; the epoch counter is not consumed
            let cfg = self.core.cfg.with_rebuild_rounds(0);
            let EngineCore {
                g,
                m,
                pool,
                kit,
                rebuild,
                counters,
                ..
            } = &mut self.core;
            let (recourse, _gain, augs) =
                run_rebuild_epoch(g, m, &cfg, pool, kit, rebuild, counters.rebuilds);
            counters.recourse_total += recourse;
            counters.augmentations_applied += augs;
        }
        if let Some(c) = self.core.chaos.as_mut() {
            c.counters.sentinel_trips += 1;
            c.counters.quarantines += 1;
        }
        let _ = shard;
    }

    /// The post-commit corruption hook: when the injector's bit-flip
    /// cadence fires, one matched entry's stored weight is rewritten to
    /// a value no live copy of the pair carries — exactly the damage the
    /// sentinel's liveness check must catch before the next batch.
    fn inject_bitflip(&mut self) {
        let EngineCore { g, m, chaos, .. } = &mut self.core;
        let Some(c) = chaos.as_mut() else { return };
        if c.config().bitflip_every == 0 {
            return;
        }
        let candidates = m.iter().count();
        let Some(victim) = c.bitflip_victim(candidates) else {
            return;
        };
        let e = m.iter().nth(victim).expect("victim index is in range");
        let live_max = g
            .incident(e.u)
            .filter(|x| x.touches(e.v))
            .map(|x| x.weight)
            .max()
            .unwrap_or(0);
        m.remove_pair(e.u, e.v).expect("edge was matched");
        m.insert(Edge::new(e.u, e.v, live_max + 1))
            .expect("endpoints just freed");
    }
}

impl UpdateEngine for ShardedMatcher {
    /// One-op batch through the serve path: its hooks run around exactly
    /// the sequential repair.
    fn apply(&mut self, op: UpdateOp) -> Result<UpdateStats, DynamicError> {
        match self.apply_all(&[op]) {
            Ok(s) => Ok(UpdateStats {
                gain: s.gain,
                recourse: s.recourse,
                augmentations: s.augmentations,
                rebuilt: s.rebuilds > 0,
            }),
            Err(e) => Err(e.source),
        }
    }

    /// Settles deferred repairs via [`ShardedMatcher::flush_repairs`]; with
    /// nothing deferred it is a no-op that takes no WAL snapshot.
    fn flush(&mut self) -> UpdateStats {
        if self.deferred_repairs() == 0 {
            return UpdateStats::default();
        }
        let s = self.flush_repairs();
        UpdateStats {
            gain: s.gain,
            recourse: s.recourse,
            augmentations: s.augmentations,
            rebuilt: s.rebuilds > 0,
        }
    }

    fn matching(&self) -> &Matching {
        ShardedMatcher::matching(self)
    }

    fn graph(&self) -> &DynGraph {
        ShardedMatcher::graph(self)
    }

    fn counters(&self) -> DynamicCounters {
        ShardedMatcher::counters(self)
    }

    fn declared_floor(&self) -> f64 {
        self.config().certified_floor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DynamicMatcher;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wmatch_graph::Vertex;

    fn churn_ops(n: Vertex, count: usize, seed: u64) -> Vec<UpdateOp> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut live: Vec<(Vertex, Vertex)> = Vec::new();
        let mut ops = Vec::new();
        for _ in 0..count {
            let do_delete = !live.is_empty() && rng.gen_range(0..3) == 0;
            if do_delete {
                let i = rng.gen_range(0..live.len());
                let (u, v) = live.swap_remove(i);
                ops.push(UpdateOp::delete(u, v));
            } else {
                let u = rng.gen_range(0..n);
                let mut v = rng.gen_range(0..n);
                if v == u {
                    v = (v + 1) % n;
                }
                ops.push(UpdateOp::insert(u, v, rng.gen_range(1..40u64)));
                live.push((u, v));
            }
        }
        ops
    }

    fn assert_matches_sequential(
        cfg: DynamicConfig,
        ops: &[UpdateOp],
        shards: usize,
        batch: usize,
    ) {
        let mut seq = DynamicMatcher::new(24, cfg);
        let mut sh = ShardedMatcher::new(24, cfg, shards).with_batch_size(batch);
        let seq_stats = seq.apply_all(ops).unwrap();
        let sh_stats = sh.apply_all(ops).unwrap();
        assert_eq!(
            seq.matching().to_edges(),
            sh.matching().to_edges(),
            "shards={shards} batch={batch}"
        );
        assert_eq!(
            seq.counters(),
            sh.counters(),
            "shards={shards} batch={batch}"
        );
        assert_eq!(seq_stats, sh_stats, "shards={shards} batch={batch}");
    }

    #[test]
    fn sharded_is_bit_identical_to_sequential() {
        let ops = churn_ops(24, 300, 0xdead);
        for &shards in &[1usize, 2, 3, 8] {
            for &batch in &[1usize, 7, 64, 1000] {
                assert_matches_sequential(DynamicConfig::default(), &ops, shards, batch);
            }
        }
    }

    #[test]
    fn acceptance_grid_is_bit_identical() {
        // the threads × shards × batch grid, all against the same
        // sequential run: none of the three knobs may change committed
        // state (threads = 0 resolves to the core count)
        let ops = churn_ops(24, 300, 0x6081);
        for &threads in &[1usize, 2, 4, 0] {
            let cfg = DynamicConfig::default().with_threads(threads);
            for &shards in &[1usize, 4, 8] {
                for &batch in &[64usize, 256, 512] {
                    assert_matches_sequential(cfg, &ops, shards, batch);
                }
            }
        }
    }

    #[test]
    fn sharded_matches_sequential_with_rebuild_epochs() {
        let ops = churn_ops(24, 200, 0xbeef);
        for &threads in &[1usize, 2] {
            let cfg = DynamicConfig::default()
                .with_rebuild_threshold(32)
                .with_seed(7)
                .with_threads(threads);
            for &shards in &[2usize, 4] {
                assert_matches_sequential(cfg, &ops, shards, 50);
            }
        }
    }

    #[test]
    fn sharded_matches_sequential_across_threads() {
        let ops = churn_ops(24, 150, 0xfeed);
        for &threads in &[1usize, 2, 4, 0] {
            let cfg = DynamicConfig::default().with_threads(threads);
            assert_matches_sequential(cfg, &ops, 4, 32);
        }
    }

    #[test]
    fn boundary_heavy_churn_stays_identical() {
        // every edge crosses the 2-shard boundary of a 24-vertex range:
        // ownership stays with the low endpoint's shard
        let mut rng = StdRng::seed_from_u64(0x0b0b);
        let mut ops = Vec::new();
        let mut live = Vec::new();
        for _ in 0..200 {
            if !live.is_empty() && rng.gen_range(0..3) == 0 {
                let i = rng.gen_range(0..live.len());
                let (u, v): (Vertex, Vertex) = live.swap_remove(i);
                ops.push(UpdateOp::delete(u, v));
            } else {
                let u = rng.gen_range(0..12u32);
                let v = rng.gen_range(12..24u32);
                ops.push(UpdateOp::insert(u, v, rng.gen_range(1..30u64)));
                live.push((u, v));
            }
        }
        for &threads in &[1usize, 2] {
            let cfg = DynamicConfig::default().with_threads(threads);
            assert_matches_sequential(cfg, &ops, 2, 40);
            assert_matches_sequential(cfg, &ops, 8, 40);
        }
    }

    #[test]
    fn parallel_edge_churn_stays_identical() {
        // hammer a handful of pairs with parallel copies and interleaved
        // deletes: LIFO copy selection must agree with the sequential
        // engine
        let mut rng = StdRng::seed_from_u64(0x9a9a);
        let pairs = [(0u32, 13u32), (5, 18), (11, 12), (2, 3)];
        let mut ops = Vec::new();
        let mut counts = [0usize; 4];
        for _ in 0..250 {
            let p = rng.gen_range(0..pairs.len());
            let (u, v) = pairs[p];
            if counts[p] > 0 && rng.gen_range(0..2) == 0 {
                ops.push(UpdateOp::delete(u, v));
                counts[p] -= 1;
            } else {
                ops.push(UpdateOp::insert(u, v, rng.gen_range(1..50u64)));
                counts[p] += 1;
            }
        }
        for &threads in &[1usize, 2] {
            let cfg = DynamicConfig::default().with_threads(threads);
            assert_matches_sequential(cfg, &ops, 2, 32);
            assert_matches_sequential(cfg, &ops, 8, 32);
        }
    }

    #[test]
    fn batch_error_reports_applied_count() {
        for &threads in &[1usize, 2] {
            let cfg = DynamicConfig::default().with_threads(threads);
            let mut eng = ShardedMatcher::new(8, cfg, 2).with_batch_size(3);
            let ops = [
                UpdateOp::insert(0, 1, 5),
                UpdateOp::insert(2, 3, 4),
                UpdateOp::insert(4, 5, 3),
                UpdateOp::insert(6, 7, 2),
                UpdateOp::delete(0, 7), // never inserted
                UpdateOp::insert(1, 2, 9),
            ];
            let err = eng.apply_all(&ops).unwrap_err();
            assert_eq!(err.applied, 4, "four updates committed before the bad op");
            assert!(matches!(err.source, DynamicError::EdgeNotFound { .. }));
            assert_eq!(eng.counters().updates_applied, 4);
            assert_eq!(eng.matching().weight(), 14);
            let msg = err.to_string();
            assert!(msg.contains("4 updates applied"), "{msg}");
        }
    }

    #[test]
    fn hub_batches_collapse_to_one_group_and_match_sequential() {
        // adversarial: every op of a batch touches hub vertex 0, and all
        // of them are owned by vertex 0's shard — the batches must still
        // match the sequential engine exactly
        let mut rng = StdRng::seed_from_u64(0x4b0b);
        let mut ops = Vec::new();
        let mut live: Vec<Vertex> = Vec::new();
        for _ in 0..120 {
            if !live.is_empty() && rng.gen_range(0..3) == 0 {
                let i = rng.gen_range(0..live.len());
                let v = live.swap_remove(i);
                ops.push(UpdateOp::delete(0, v));
            } else {
                let v = rng.gen_range(1..24u32);
                ops.push(UpdateOp::insert(0, v, rng.gen_range(1..40u64)));
                live.push(v);
            }
        }
        let cfg = DynamicConfig::default().with_threads(2);
        for &shards in &[1usize, 4] {
            assert_matches_sequential(cfg, &ops, shards, 40);
        }
    }

    #[test]
    fn apply_batch_equals_apply_all_chunking() {
        // one explicit batch vs the same ops auto-chunked: identical state
        let ops = churn_ops(24, 90, 0xabcd);
        let cfg = DynamicConfig::default().with_threads(2);
        let mut a = ShardedMatcher::new(24, cfg, 4);
        let mut b = ShardedMatcher::new(24, cfg, 4).with_batch_size(30);
        a.apply_batch(&ops).unwrap();
        b.apply_all(&ops).unwrap();
        assert_eq!(a.matching().to_edges(), b.matching().to_edges());
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn deferred_insert_upgrades_a_heavier_parallel_copy() {
        // degraded-mode ingest keeps the matching valid on inserts too: a
        // heavier copy of a matched pair is swapped in at once, so the
        // flush leaves nothing for the watchdog to heal
        let mut eng = ShardedMatcher::new(2, DynamicConfig::default(), 1);
        eng.apply_deferred(&[UpdateOp::insert(0, 1, 1)]).unwrap();
        eng.flush_repairs();
        eng.apply_deferred(&[UpdateOp::insert(0, 1, 100)]).unwrap();
        eng.flush_repairs();
        assert_eq!(eng.matching().weight(), 100);
        assert_eq!(eng.sentinel_violation(), None);
    }

    #[test]
    fn from_graph_bootstraps_like_sequential() {
        let mut g = Graph::new(8);
        g.add_edge(0, 1, 4);
        g.add_edge(1, 2, 6);
        g.add_edge(2, 3, 4);
        g.add_edge(5, 6, 9);
        let sh = ShardedMatcher::from_graph(&g, DynamicConfig::default(), 3).unwrap();
        let seq = DynamicMatcher::from_graph(&g, DynamicConfig::default()).unwrap();
        assert_eq!(sh.matching().to_edges(), seq.matching().to_edges());
        assert_eq!(sh.shard_count(), 3);
    }
}
