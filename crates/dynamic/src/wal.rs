//! Write-ahead op journal + periodic snapshots: crash recovery for the
//! sharded engine.
//!
//! The WAL follows the classic log-before-apply discipline: every batch
//! is appended to the in-memory op journal (the *tail*) before the
//! engine touches it, and once the tail grows past the configured
//! cadence a fresh snapshot of the engine's semantic state (graph,
//! matching, counters, rebuild phase, pending repair debt) is captured at
//! the batch boundary and the tail is cleared. Durable state is therefore
//! always `snapshot + tail`, and
//! [`ShardedMatcher::recover`](crate::ShardedMatcher::recover) rebuilds
//! it by restoring the snapshot and replaying the tail through the
//! ordinary batch path — which the engine's determinism contract
//! (bit-identical for any batch size, shard count, and thread count)
//! turns into a state **bit-identical to the uninterrupted run**.
//!
//! If a batch stops at a malformed op, the un-applied suffix is
//! truncated from the tail so the journal only ever records ops that
//! actually committed. Deferred (degraded-mode) ops are journaled like any
//! other; recovery replays them eagerly, so a crash canonicalizes the
//! tail's staleness into the fully-repaired state. Debt already in the
//! snapshot — ops deferred before a later batch crossed the cadence —
//! is restored as pending, and the next flush repairs it.

use wmatch_graph::{Matching, Vertex};

use crate::dyngraph::DynGraph;
use crate::engine::{DynamicCounters, EngineCore};
use crate::update::UpdateOp;

/// Snapshot cadence of the write-ahead log.
///
/// Follows the workspace's config idiom: `Default` + chainable `with_*`
/// setters, `#[non_exhaustive]` so fields can grow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct WalConfig {
    /// Capture a fresh snapshot (and clear the journal tail) once the
    /// tail holds at least this many ops, checked at batch boundaries.
    /// Smaller values recover faster but snapshot more often.
    pub snapshot_every: usize,
}

impl Default for WalConfig {
    /// Snapshot every 4096 journaled ops.
    fn default() -> Self {
        WalConfig {
            snapshot_every: 4096,
        }
    }
}

impl WalConfig {
    /// The default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the snapshot cadence (clamped to ≥ 1 at use sites).
    pub fn with_snapshot_every(mut self, snapshot_every: usize) -> Self {
        self.snapshot_every = snapshot_every;
        self
    }
}

/// What [`ShardedMatcher::recover`](crate::ShardedMatcher::recover)
/// did: how much state came from the snapshot and how much was replayed
/// from the journal tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct RecoveryReport {
    /// Updates already durable in the restored snapshot.
    pub snapshot_updates: u64,
    /// Journaled ops replayed on top of the snapshot.
    pub replayed_ops: usize,
}

/// Observable state of an engine's WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct WalStats {
    /// Snapshots captured (including the one taken when the WAL was
    /// enabled).
    pub snapshots: u64,
    /// Ops journaled over the WAL's lifetime (truncated ops excluded).
    pub ops_journaled: u64,
    /// Ops currently in the journal tail (the replay cost of a crash
    /// right now).
    pub tail_len: usize,
}

/// The write-ahead log: one snapshot of the engine's semantic state plus
/// the journal tail of every op applied since.
#[derive(Debug)]
pub(crate) struct Wal {
    every: usize,
    snap_g: DynGraph,
    snap_m: Matching,
    snap_counters: DynamicCounters,
    snap_since_rebuild: usize,
    snap_pending: Vec<Vertex>,
    snap_pending_ops: usize,
    tail: Vec<UpdateOp>,
    snapshots: u64,
    ops_journaled: u64,
}

impl Wal {
    /// A WAL whose initial snapshot is `core`'s current state.
    pub fn new(cfg: WalConfig, core: &EngineCore) -> Self {
        let mut wal = Wal {
            every: cfg.snapshot_every.max(1),
            snap_g: DynGraph::new(0),
            snap_m: Matching::new(0),
            snap_counters: DynamicCounters::default(),
            snap_since_rebuild: 0,
            snap_pending: Vec::new(),
            snap_pending_ops: 0,
            tail: Vec::new(),
            snapshots: 0,
            ops_journaled: 0,
        };
        wal.capture(core);
        wal
    }

    fn capture(&mut self, core: &EngineCore) {
        self.snap_g.clone_from(&core.g);
        self.snap_m.copy_from(&core.m);
        self.snap_counters = core.counters;
        self.snap_since_rebuild = core.updates_since_rebuild;
        self.snap_pending.clone_from(&core.pending);
        self.snap_pending_ops = core.pending_ops;
        self.tail.clear();
        self.snapshots += 1;
    }

    /// Appends a batch to the journal tail — call *before* applying it.
    pub fn log(&mut self, ops: &[UpdateOp]) {
        self.tail.extend_from_slice(ops);
        self.ops_journaled += ops.len() as u64;
    }

    /// Drops the last `unapplied` ops from the tail: a batch stopped at
    /// a malformed op, so the rejected op and everything after it never
    /// committed and must not be replayed.
    pub fn truncate_unapplied(&mut self, unapplied: usize) {
        let keep = self.tail.len().saturating_sub(unapplied);
        self.tail.truncate(keep);
        self.ops_journaled = self.ops_journaled.saturating_sub(unapplied as u64);
    }

    /// Captures a fresh snapshot (clearing the tail) if the tail has
    /// reached the cadence — call at batch boundaries, after a batch
    /// fully commits.
    pub fn maybe_snapshot(&mut self, core: &EngineCore) {
        if self.tail.len() >= self.every {
            self.capture(core);
        }
    }

    /// Restores `core`'s semantic state to the snapshot. The caller
    /// replays the tail afterwards.
    pub fn restore(&self, core: &mut EngineCore) {
        core.g.clone_from(&self.snap_g);
        core.m.copy_from(&self.snap_m);
        core.counters = self.snap_counters;
        core.updates_since_rebuild = self.snap_since_rebuild;
        core.pending.clone_from(&self.snap_pending);
        core.pending_ops = self.snap_pending_ops;
    }

    /// Updates durable in the snapshot.
    pub fn snapshot_updates(&self) -> u64 {
        self.snap_counters.updates_applied
    }

    /// Moves the tail out for replay (the engine cannot replay through
    /// `self` while it is borrowed); pair with [`Wal::put_tail`].
    pub fn take_tail(&mut self) -> Vec<UpdateOp> {
        std::mem::take(&mut self.tail)
    }

    /// Returns the tail after replay, preserving `snapshot + tail`
    /// as the durable state.
    pub fn put_tail(&mut self, tail: Vec<UpdateOp>) {
        debug_assert!(self.tail.is_empty());
        self.tail = tail;
    }

    /// The WAL's observable state.
    pub fn stats(&self) -> WalStats {
        WalStats {
            snapshots: self.snapshots,
            ops_journaled: self.ops_journaled,
            tail_len: self.tail.len(),
        }
    }
}
