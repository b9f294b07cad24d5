//! The update-stream engine: bounded-length augmentation repair with
//! bounded recourse, plus batched rebuild epochs on the worker pool.
//!
//! # The invariant
//!
//! After every applied update, the maintained matching `M` admits **no
//! positive augmentation with at most `max_len` edges** (with the
//! matching-neighbourhood gain semantics of Definition 4.4, exactly as
//! [`best_augmentation`](wmatch_graph::aug_search::best_augmentation)
//! searches them). Fact 1.3 then certifies `w(M) ≥ (1 − 1/ℓ)·w(M*)` for
//! `max_len = 2ℓ − 1` — the engine's approximation floor holds at every
//! point of the update stream, not just at the end. That is the default
//! [`RepairPolicy::Eager`]; the deferring policies keep the matching valid
//! after every update and restore the invariant at every flush.
//!
//! # Locality
//!
//! The invariant is repaired locally. If it held before an update, any
//! *newly* positive short component must touch the updated vertices:
//! an inserted edge can only open components through itself, a deleted
//! matched edge only components touching its freed endpoints, and each
//! applied repair only components touching the vertices it changed. The
//! engine therefore maintains a dirty set — the update's endpoints,
//! everything a deferring policy left pending, and every vertex an
//! applied repair touched — and every positive walk of at most `max_len`
//! edges passes through it. The repair therefore searches only walks
//! through the dirty set, in place on the live graph and matching: the
//! reusable [`AugSearcher`] runs its DFS from each seed — every walk that
//! starts or ends there, every cycle through it — and once more from the
//! seed for each alternating prefix that leaves it along its matched
//! edge, for the walks with the seed inside. It applies the best
//! augmentation found until none remains. The winner is order-free — the
//! largest gain, an exact tie going to the least effect (the sorted keys
//! of the edges added, then of those removed) — so the repair commits
//! exactly what a scan of the whole graph would pick, whatever the seed
//! and adjacency order, and each added edge goes in smaller endpoint
//! first. Everything runs on epoch-stamped [`Scratch`] arenas — no
//! hashing, no per-update allocation churn once warmed up.
//!
//! Whole-graph restores — the bootstrap ([`static_bounded_matching`]),
//! rebuild and restore-only epochs, and the sentinel heal — run
//! [`AugSearcher::converge`]: one full scan, then after each applied
//! augmentation a re-search of only the starts with an alternating walk
//! of at most `max_len` edges to a vertex whose mate it changed.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;

use wmatch_core::greedy::greedy_by_weight;
use wmatch_core::main_alg::{improve_matching_offline_pooled, MainAlgConfig};
use wmatch_graph::aug_search::AugSearcher;
use wmatch_graph::{Edge, Graph, Matching, Scratch, Vertex, WorkerPool};
use wmatch_oracle::{IncrementalCertifier, OracleError};

use crate::certifier::CheckpointCertificate;
use crate::chaos::ChaosInjector;
use crate::dyngraph::DynGraph;
use crate::error::DynamicError;
use crate::repair::{keep_valid, repair_op, RepairKit};
use crate::update::UpdateOp;

/// Configuration of the update-stream engine.
///
/// Follows the workspace's config idiom: `Default` + chainable `with_*`
/// setters, `#[non_exhaustive]` so fields can grow.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct DynamicConfig {
    /// Maximum edges per repair augmentation. With `max_len = 2ℓ − 1`
    /// the engine certifies a `(1 − 1/ℓ)` approximation after every
    /// update (Fact 1.3); the default 3 gives the ½ floor. Search cost is
    /// exponential in this value — keep it small.
    pub max_len: usize,
    /// Run a batched rebuild epoch after this many updates (0 = never).
    /// An epoch runs [`DynamicConfig::rebuild_rounds`] rounds of
    /// Algorithm 3's weight-class sweep on the live snapshot (on the
    /// engine's worker pool, warm-started from the maintained matching)
    /// and then restores the bounded-augmentation invariant globally.
    pub rebuild_threshold: usize,
    /// Class-sweep rounds per rebuild epoch.
    pub rebuild_rounds: usize,
    /// Target slack ε of the rebuild epochs' class sweep (granularity and
    /// weight-grid parameters derive from it via
    /// [`MainAlgConfig::practical`]).
    pub eps: f64,
    /// RNG seed for the rebuild epochs' random bipartitions.
    pub seed: u64,
    /// Worker threads of the engine's pool (0 = one per available core —
    /// the same sentinel as `SolveRequest::threads`, resolved by
    /// [`wmatch_graph::pool::resolve_threads`]). Only rebuild epochs
    /// parallelize; the per-update repair path is sequential. The
    /// maintained matching is **bit-identical for every value**.
    pub threads: usize,
}

impl Default for DynamicConfig {
    /// `max_len = 3` (the ½ floor), no rebuild epochs, ε = 0.25, seed 0,
    /// sequential.
    fn default() -> Self {
        DynamicConfig {
            max_len: 3,
            rebuild_threshold: 0,
            rebuild_rounds: 2,
            eps: 0.25,
            seed: 0,
            threads: 1,
        }
    }
}

impl DynamicConfig {
    /// The default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the maximum augmentation length (edges per component).
    pub fn with_max_len(mut self, max_len: usize) -> Self {
        self.max_len = max_len;
        self
    }

    /// Sets the rebuild threshold (updates per epoch; 0 = never).
    pub fn with_rebuild_threshold(mut self, rebuild_threshold: usize) -> Self {
        self.rebuild_threshold = rebuild_threshold;
        self
    }

    /// Sets the class-sweep rounds per rebuild epoch.
    pub fn with_rebuild_rounds(mut self, rebuild_rounds: usize) -> Self {
        self.rebuild_rounds = rebuild_rounds;
        self
    }

    /// Sets the rebuild epochs' target slack ε.
    pub fn with_eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count (0 = one per available core).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The approximation floor the invariant certifies via Fact 1.3:
    /// `1 − 1/ℓ` where `max_len = 2ℓ − 1` (i.e. `ℓ = (max_len + 1) / 2`).
    pub fn certified_floor(&self) -> f64 {
        let l = self.max_len.div_ceil(2).max(1);
        1.0 - 1.0 / l as f64
    }
}

/// What one applied update did to the matching.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct UpdateStats {
    /// Net matching-weight change.
    pub gain: i128,
    /// Matching edges changed by this update — the *net* symmetric
    /// difference between the matching before and after, counting an
    /// edge by its endpoint pair and weight. An edge swapped out and
    /// back in by intermediate repair steps counts zero: this is the
    /// churn a consumer of the matching actually observes, and the same
    /// measure [`RecomputeBaseline`] and the rebuild epochs report.
    pub recourse: u64,
    /// Repair augmentations applied.
    pub augmentations: u64,
    /// Whether this update triggered a rebuild epoch.
    pub rebuilt: bool,
}

/// Lifetime counters of an engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct DynamicCounters {
    /// Updates applied since construction.
    pub updates_applied: u64,
    /// Total matching edges changed across all updates (recourse).
    pub recourse_total: u64,
    /// Repair augmentations applied (excluding rebuild-epoch internals,
    /// whose churn is folded into `recourse_total` as a matching diff).
    pub augmentations_applied: u64,
    /// Rebuild epochs executed.
    pub rebuilds: u64,
}

/// Aggregate outcome of a (possibly partial) update batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct BatchStats {
    /// Updates applied.
    pub applied: usize,
    /// Net matching-weight change over the batch.
    pub gain: i128,
    /// Total net recourse over the batch (sum of per-update recourse).
    pub recourse: u64,
    /// Repair augmentations applied over the batch.
    pub augmentations: u64,
    /// Rebuild epochs triggered within the batch.
    pub rebuilds: u64,
}

impl BatchStats {
    /// Folds another batch's totals into these — what a serve driver
    /// uses to aggregate partial progress across retried batches.
    pub fn merge(&mut self, other: &BatchStats) {
        self.applied += other.applied;
        self.gain += other.gain;
        self.recourse += other.recourse;
        self.augmentations += other.augmentations;
        self.rebuilds += other.rebuilds;
    }

    /// Folds one applied update into the batch totals.
    pub(crate) fn absorb(&mut self, s: UpdateStats) {
        self.applied += 1;
        self.gain += s.gain;
        self.recourse += s.recourse;
        self.augmentations += s.augmentations;
        if s.rebuilt {
            self.rebuilds += 1;
        }
    }
}

/// Applies `ops` in order through `apply`, stopping at the first error —
/// the one batch loop of every engine. The error carries the applied
/// prefix's count and stats.
pub(crate) fn apply_each(
    ops: &[UpdateOp],
    mut apply: impl FnMut(UpdateOp) -> Result<UpdateStats, DynamicError>,
) -> Result<BatchStats, BatchError> {
    let mut out = BatchStats::default();
    for (i, &op) in ops.iter().enumerate() {
        match apply(op) {
            Ok(s) => out.absorb(s),
            Err(source) => {
                return Err(BatchError {
                    applied: i,
                    stats: out,
                    source,
                })
            }
        }
    }
    Ok(out)
}

/// A batch stopped at a malformed operation. `applied` says how many of
/// the batch's updates were applied (and remain applied) before the
/// offending one — batch application is not transactional, and without
/// this count a caller could not tell how far the engine got.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchError {
    /// Updates applied before the failure (the failing op's batch index).
    pub applied: usize,
    /// Aggregate stats of the applied prefix (`stats.applied` equals
    /// [`BatchError::applied`]) — the partial progress a serve driver
    /// surfaces instead of discarding the batch's accounting.
    pub stats: BatchStats,
    /// Why the batch stopped.
    pub source: DynamicError,
}

impl BatchError {
    /// Whether retrying the rejected suffix can succeed — delegates to
    /// [`DynamicError::is_transient`]. Malformed ops fail forever (skip
    /// them); a [`DynamicError::Quarantined`] rejection heals before
    /// returning, so a bounded retry is the right response.
    pub fn is_transient(&self) -> bool {
        self.source.is_transient()
    }
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "batch stopped at op {}: {} ({} updates applied)",
            self.applied, self.source, self.applied
        )
    }
}

impl Error for BatchError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.source)
    }
}

/// Persistent buffers of the rebuild epochs: the class-sweep scratch, the
/// pre-epoch matching (for the symmetric-difference recourse), and the
/// snapshot graph the sweep runs on — all reused across epochs so a
/// rebuild allocates nothing at steady state.
#[derive(Debug)]
pub(crate) struct RebuildKit {
    pub scratch: Scratch,
    epoch_before: Matching,
    snapshot: Graph,
}

impl RebuildKit {
    pub fn new() -> Self {
        RebuildKit {
            scratch: Scratch::new(),
            epoch_before: Matching::new(0),
            snapshot: Graph::new(0),
        }
    }
}

/// When the engine runs the bounded-augmentation repair — a scheduling
/// choice in the sense of Angriman et al. (arXiv 2104.13098). Every
/// policy runs the same structural change, the same op-validity rule (so
/// the matching is *valid* after every update, never backed by a dead
/// edge), and the same ball-local repair kernel; they differ only in how
/// much repair an update pays for and when. Once
/// [`DynamicMatcher::flush`] has run, every policy certifies the same
/// Fact 1.3 floor.
///
/// Set with [`DynamicMatcher::with_policy`]. The sharded engine has no
/// policy: its batches commit through the eager repair, and its degraded
/// mode defers exactly as `Window` does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairPolicy {
    /// Repair every update to the full invariant before returning: the
    /// floor holds after every update. The engine's default.
    Eager,
    /// At most this many augmentations per update (clamped to ≥ 1). When
    /// the budget runs out before the invariant is certified, the
    /// unsettled dirty vertices are carried into the next update's repair
    /// (and re-seeded there), so the engine keeps converging without ever
    /// spending more than a bounded amount of search on one op. The floor
    /// is deferred, not abandoned: a flush drains the carry with an
    /// unbudgeted fix-up. On calm streams the budget is rarely hit and
    /// the engine behaves eagerly; under churn storms it degrades
    /// smoothly instead of stalling on one hot ball.
    ///
    /// ```
    /// use wmatch_dynamic::{DynamicConfig, DynamicMatcher, RepairPolicy, UpdateOp};
    ///
    /// let mut eng =
    ///     DynamicMatcher::new(4, DynamicConfig::default()).with_policy(RepairPolicy::Budget(2));
    /// eng.apply(UpdateOp::insert(0, 1, 5)).unwrap();
    /// eng.apply(UpdateOp::insert(1, 2, 9)).unwrap();
    /// eng.flush(); // settle any carried repair debt
    /// assert_eq!(eng.matching().weight(), 9);
    /// ```
    Budget(usize),
    /// Defer repairs: an update performs only the structural change and
    /// the validity rule, and its endpoints join the pending set; once
    /// this many updates (clamped to ≥ 1) are pending, one batched fix-up
    /// restores the invariant over everything they touched. Per-op cost
    /// drops to the structural update, and the floor holds at flush
    /// boundaries rather than after every op.
    ///
    /// Within one window, deferred updates on **pairwise disjoint vertex
    /// sets** commute: their structural changes land in adjacency lists
    /// no other op reads, and the flush canonicalises its seed set
    /// (sorted, deduplicated) before searching, so permuting them yields
    /// a bit-identical post-flush matching. Ops sharing a vertex do not
    /// commute (per-vertex adjacency order is insertion order).
    ///
    /// ```
    /// use wmatch_dynamic::{DynamicConfig, DynamicMatcher, RepairPolicy, UpdateOp};
    ///
    /// let mut eng =
    ///     DynamicMatcher::new(4, DynamicConfig::default()).with_policy(RepairPolicy::Window(2));
    /// eng.apply(UpdateOp::insert(0, 1, 5)).unwrap();
    /// assert_eq!(eng.matching().weight(), 0); // deferred: nothing matched yet
    /// eng.apply(UpdateOp::insert(2, 3, 7)).unwrap(); // second op fills the window
    /// assert_eq!(eng.matching().weight(), 12); // flushed: both matched
    /// ```
    Window(usize),
}

/// The shared state and the one per-op path of every dynamic engine: the
/// live graph, the maintained matching, the sequential repair kit, the
/// pending-dirty set of deferred repairs, the rebuild machinery, and the
/// lifetime counters. [`DynamicMatcher`] is a thin wrapper over one of
/// these; the sharded engine's batch commit and degraded mode run the
/// very same methods — which is what makes "bit-identical to sequential"
/// hold by construction rather than by re-implementation.
#[derive(Debug)]
pub(crate) struct EngineCore {
    pub g: DynGraph,
    pub m: Matching,
    pub cfg: DynamicConfig,
    pub pool: WorkerPool,
    pub kit: RepairKit,
    pub rebuild: RebuildKit,
    pub counters: DynamicCounters,
    pub updates_since_rebuild: usize,
    /// Deterministic fault injector, test/chaos-bench only (`None` in
    /// production). Installed via `ShardedMatcher::install_chaos`.
    pub chaos: Option<Box<ChaosInjector>>,
    /// Vertices whose repair was deferred — by a deferred update or by a
    /// budget that ran out — drained by [`EngineCore::flush`] or settled
    /// by a rebuild epoch.
    pub pending: Vec<Vertex>,
    /// Deferred updates since the last flush. While non-zero the
    /// bounded-augmentation invariant is deliberately stale, and the
    /// sentinel's floor spot-check must be skipped.
    pub pending_ops: usize,
    /// Flushes that settled a non-empty pending set.
    pub flushes: u64,
    /// Budgeted updates whose repair ran out of budget before certifying.
    pub exhausted_updates: u64,
}

impl EngineCore {
    pub fn new(n: usize, cfg: DynamicConfig) -> Self {
        EngineCore {
            g: DynGraph::new(n),
            m: Matching::new(n),
            pool: WorkerPool::new(cfg.threads),
            cfg,
            kit: RepairKit::new(),
            rebuild: RebuildKit::new(),
            counters: DynamicCounters::default(),
            updates_since_rebuild: 0,
            chaos: None,
            pending: Vec::new(),
            pending_ops: 0,
            flushes: 0,
            exhausted_updates: 0,
        }
    }

    /// One update under `policy`: structural change, validity rule, then
    /// the repair the policy pays for now, counters, and the rebuild
    /// epoch if one is due.
    pub fn apply(
        &mut self,
        op: UpdateOp,
        policy: RepairPolicy,
    ) -> Result<UpdateStats, DynamicError> {
        match policy {
            RepairPolicy::Eager => self.apply_one(op),
            RepairPolicy::Budget(budget) => self.apply_budgeted(op, budget),
            RepairPolicy::Window(bound) => {
                let mut stats = self.defer_one(op)?;
                if self.pending_ops >= bound {
                    let fs = self.flush();
                    stats.gain += fs.gain;
                    stats.recourse += fs.recourse;
                    stats.augmentations += fs.augmentations;
                    stats.rebuilt |= fs.rebuilt;
                }
                Ok(stats)
            }
        }
    }

    /// The structural change of `op` plus the op-validity rule, as a
    /// fresh journalled update. Returns the weight change.
    fn change(&mut self, op: UpdateOp) -> Result<i128, DynamicError> {
        self.kit.begin_update();
        self.g.apply(op)?;
        Ok(keep_valid(&mut self.kit, &self.g, &mut self.m, op).unwrap_or(0))
    }

    /// One eager update — structural change, local repair, recourse
    /// accounting, counters, and the rebuild epoch if one is due. The
    /// sequential engine and every sharded batch commit through it.
    pub fn apply_one(&mut self, op: UpdateOp) -> Result<UpdateStats, DynamicError> {
        self.kit.begin_update();
        self.g.apply(op)?;
        let fix = repair_op(&mut self.kit, &self.g, &mut self.m, op, self.cfg.max_len);
        // net recourse of this update's own repairs, before any epoch
        // (which reports its churn as a whole-matching diff instead)
        let mut stats = UpdateStats {
            gain: fix.gain,
            recourse: self.kit.net_recourse(),
            augmentations: fix.augmentations,
            rebuilt: false,
        };
        self.finish(&mut stats);
        Ok(stats)
    }

    /// Counts one applied update and runs the rebuild epoch if due,
    /// folding the epoch's churn into `stats`. Shared by the eager and the
    /// budgeted update, so counters and rebuild timing agree bit-for-bit.
    fn finish(&mut self, stats: &mut UpdateStats) {
        self.counters.updates_applied += 1;
        self.counters.augmentations_applied += stats.augmentations;
        self.updates_since_rebuild += 1;
        self.rebuild_if_due(stats);
        self.counters.recourse_total += stats.recourse;
    }

    /// One update under a work budget: the validity rule, then at most
    /// `budget` augmentations seeded at the endpoints plus everything
    /// pending. If the budget runs out before the invariant is certified,
    /// the unsettled dirty vertices stay pending and seed the next
    /// update's repair (or the flush).
    fn apply_budgeted(&mut self, op: UpdateOp, budget: usize) -> Result<UpdateStats, DynamicError> {
        let gain = self.change(op)?;
        let (u, v) = op.endpoints();
        self.kit.dirty.clear();
        self.kit.dirty.append(&mut self.pending);
        self.kit.dirty.extend([u, v]);
        let (fix, exhausted) =
            self.kit
                .fix_up_budgeted(&self.g, &mut self.m, self.cfg.max_len, budget);
        if exhausted {
            self.exhausted_updates += 1;
            self.pending.append(&mut self.kit.dirty);
            self.pending.sort_unstable();
            self.pending.dedup();
        }
        let mut stats = UpdateStats {
            gain: gain + fix.gain,
            recourse: self.kit.net_recourse(),
            augmentations: fix.augmentations,
            rebuilt: false,
        };
        self.finish(&mut stats);
        Ok(stats)
    }

    /// One **deferred** update: the structural change and the validity
    /// rule only, no repair. The op endpoints join
    /// [`EngineCore::pending`]; the bounded-augmentation invariant is
    /// restored in one batched sweep by [`EngineCore::flush`]. This is
    /// both the `Window` policy and the degraded serve mode's
    /// tolerate-ε-staleness path: the per-op cost drops to the structural
    /// update while the matching stays valid, just temporarily
    /// uncertified.
    pub fn defer_one(&mut self, op: UpdateOp) -> Result<UpdateStats, DynamicError> {
        let gain = self.change(op)?;
        let stats = UpdateStats {
            gain,
            recourse: self.kit.net_recourse(),
            ..UpdateStats::default()
        };
        let (u, v) = op.endpoints();
        self.pending.extend([u, v]);
        self.pending_ops += 1;
        self.counters.updates_applied += 1;
        self.counters.recourse_total += stats.recourse;
        self.updates_since_rebuild += 1;
        Ok(stats)
    }

    /// Repairs everything left pending: one fix-up sweep over the pending
    /// set, then a rebuild epoch if one came due while deferring. Returns
    /// the aggregate churn of the flush; a no-op (and allocation-free)
    /// when nothing is pending.
    pub fn flush(&mut self) -> UpdateStats {
        let mut stats = UpdateStats::default();
        if self.pending.is_empty() {
            return stats;
        }
        self.flushes += 1;
        self.kit.begin_update();
        self.kit.dirty.clear();
        self.kit.dirty.append(&mut self.pending);
        let fix = self.kit.fix_up(&self.g, &mut self.m, self.cfg.max_len);
        stats.gain = fix.gain;
        stats.augmentations = fix.augmentations;
        stats.recourse = self.kit.net_recourse();
        self.counters.augmentations_applied += stats.augmentations;
        self.pending_ops = 0;
        self.rebuild_if_due(&mut stats);
        self.counters.recourse_total += stats.recourse;
        stats
    }

    /// Runs the rebuild epoch once `rebuild_threshold` updates have been
    /// applied since the last one, folding its churn into `stats`. The
    /// epoch ends with a global invariant restore, so it also settles
    /// anything pending.
    fn rebuild_if_due(&mut self, stats: &mut UpdateStats) {
        if self.cfg.rebuild_threshold == 0
            || self.updates_since_rebuild < self.cfg.rebuild_threshold
        {
            return;
        }
        self.counters.rebuilds += 1;
        self.updates_since_rebuild = 0;
        let (rebuild_recourse, gain, augs) = run_rebuild_epoch(
            &self.g,
            &mut self.m,
            &self.cfg,
            &mut self.pool,
            &mut self.kit,
            &mut self.rebuild,
            self.counters.rebuilds,
        );
        self.counters.augmentations_applied += augs;
        stats.recourse += rebuild_recourse;
        stats.gain += gain;
        stats.rebuilt = true;
        self.pending.clear();
        self.pending_ops = 0;
    }

    pub fn scratch_high_water(&self) -> usize {
        self.kit
            .scratch_high_water()
            .max(self.rebuild.scratch.high_water())
            .max(self.pool.scratch_high_water())
    }
}

/// The uniform surface of every dynamic engine in the crate — the
/// incremental repairer under any [`RepairPolicy`], the recompute
/// baseline, the sharded engine, and the random-walk competitor
/// ([`RandomWalkMatcher`](crate::RandomWalkMatcher)).
///
/// The trait is what lets the cross-engine agreement suites and the
/// shootout bench drive every engine through one loop: apply a stream,
/// [`UpdateEngine::flush`] whatever repair debt the engine's contract
/// allows it to defer, and compare the matchings, counters, and declared
/// floors. Engines that repair eagerly (no debt) keep the default no-op
/// `flush`.
pub trait UpdateEngine {
    /// Applies one update.
    ///
    /// # Errors
    ///
    /// A [`DynamicError`] for malformed operations; the engine must be
    /// left unchanged (malformed ops are not counted).
    fn apply(&mut self, op: UpdateOp) -> Result<UpdateStats, DynamicError>;

    /// Settles any deferred repair work, restoring whatever invariant the
    /// engine's declared floor rests on. Eager engines (no deferral) keep
    /// this default no-op.
    fn flush(&mut self) -> UpdateStats {
        UpdateStats::default()
    }

    /// The maintained matching.
    fn matching(&self) -> &Matching;

    /// The live graph.
    fn graph(&self) -> &DynGraph;

    /// Lifetime counters.
    fn counters(&self) -> DynamicCounters;

    /// The approximation floor this engine certifies for its matching
    /// once [`UpdateEngine::flush`] has run (for eager engines: after
    /// every update).
    fn declared_floor(&self) -> f64;

    /// Settles any deferred repairs, then re-certifies the live graph
    /// through `cert` (warm from the previous checkpoint) and measures the
    /// maintained matching against the exact optimum. The flush is what
    /// makes the ratio comparable with [`UpdateEngine::declared_floor`];
    /// with nothing deferred it is a no-op.
    ///
    /// # Errors
    ///
    /// [`OracleError`] if the live graph does not fit the certifier's
    /// bipartition.
    fn certify_checkpoint(
        &mut self,
        cert: &mut IncrementalCertifier,
    ) -> Result<CheckpointCertificate, OracleError> {
        self.flush();
        let optimum = cert.certify(&self.graph().snapshot())?.optimum;
        let engine_weight = self.matching().weight();
        let ratio = if optimum == 0 {
            1.0
        } else {
            engine_weight as f64 / optimum as f64
        };
        Ok(CheckpointCertificate {
            optimum,
            engine_weight,
            ratio,
        })
    }
}

impl UpdateEngine for DynamicMatcher {
    fn apply(&mut self, op: UpdateOp) -> Result<UpdateStats, DynamicError> {
        DynamicMatcher::apply(self, op)
    }

    fn flush(&mut self) -> UpdateStats {
        DynamicMatcher::flush(self)
    }

    fn matching(&self) -> &Matching {
        DynamicMatcher::matching(self)
    }

    fn graph(&self) -> &DynGraph {
        DynamicMatcher::graph(self)
    }

    fn counters(&self) -> DynamicCounters {
        DynamicMatcher::counters(self)
    }

    fn declared_floor(&self) -> f64 {
        self.config().certified_floor()
    }
}

impl UpdateEngine for RecomputeBaseline {
    fn apply(&mut self, op: UpdateOp) -> Result<UpdateStats, DynamicError> {
        RecomputeBaseline::apply(self, op)
    }

    fn matching(&self) -> &Matching {
        RecomputeBaseline::matching(self)
    }

    fn graph(&self) -> &DynGraph {
        RecomputeBaseline::graph(self)
    }

    fn counters(&self) -> DynamicCounters {
        RecomputeBaseline::counters(self)
    }

    fn declared_floor(&self) -> f64 {
        DynamicConfig::default()
            .with_max_len(self.max_len())
            .certified_floor()
    }
}

/// The fully-dynamic matching engine. See the [module docs](self) for the
/// invariant and the repair strategy, and [`RepairPolicy`] for when the
/// repair runs (eagerly, by default).
///
/// # Example
///
/// ```
/// use wmatch_dynamic::{DynamicConfig, DynamicMatcher, UpdateOp};
///
/// // a 3-edge path: greedy would grab the middle edge; the repair
/// // machinery finds the 3-augmentation to the two outer edges
/// let mut eng = DynamicMatcher::new(4, DynamicConfig::default());
/// for (u, v, w) in [(1, 2, 6), (0, 1, 4), (2, 3, 4)] {
///     eng.apply(UpdateOp::insert(u, v, w)).unwrap();
/// }
/// assert_eq!(eng.matching().weight(), 8);
/// assert_eq!(eng.counters().updates_applied, 3);
/// ```
#[derive(Debug)]
pub struct DynamicMatcher {
    core: EngineCore,
    policy: RepairPolicy,
}

impl DynamicMatcher {
    /// An eager engine over an initially edgeless graph on `n` vertices.
    pub fn new(n: usize, cfg: DynamicConfig) -> Self {
        DynamicMatcher {
            core: EngineCore::new(n, cfg),
            policy: RepairPolicy::Eager,
        }
    }

    /// An eager engine seeded with an initial graph: the edges are loaded
    /// structurally and the matching is bootstrapped to the invariant
    /// with [`static_bounded_matching`] (this initial construction does
    /// not count towards the update/recourse counters).
    ///
    /// # Errors
    ///
    /// [`DynamicError::ZeroWeight`] if the initial graph carries a
    /// zero-weight edge.
    pub fn from_graph(initial: &Graph, cfg: DynamicConfig) -> Result<Self, DynamicError> {
        let mut eng = DynamicMatcher::new(initial.vertex_count(), cfg);
        eng.core.g = DynGraph::from_graph(initial)?;
        eng.core.m = static_bounded_matching(initial, cfg.max_len, &mut eng.core.kit.searcher);
        Ok(eng)
    }

    /// Sets the repair policy; a `Budget` or `Window` of 0 is clamped to 1.
    pub fn with_policy(mut self, policy: RepairPolicy) -> Self {
        self.policy = match policy {
            RepairPolicy::Eager => RepairPolicy::Eager,
            RepairPolicy::Budget(budget) => RepairPolicy::Budget(budget.max(1)),
            RepairPolicy::Window(bound) => RepairPolicy::Window(bound.max(1)),
        };
        self
    }

    /// The engine's configuration.
    pub fn config(&self) -> &DynamicConfig {
        &self.core.cfg
    }

    /// The engine's repair policy.
    pub fn policy(&self) -> RepairPolicy {
        self.policy
    }

    /// The maintained matching (always valid; certified to the Fact 1.3
    /// floor after every update under [`RepairPolicy::Eager`], otherwise
    /// once [`DynamicMatcher::flush`] has run).
    pub fn matching(&self) -> &Matching {
        &self.core.m
    }

    /// The live graph.
    pub fn graph(&self) -> &DynGraph {
        &self.core.g
    }

    /// Lifetime counters.
    pub fn counters(&self) -> DynamicCounters {
        self.core.counters
    }

    /// Chunks a worker's claims stole across all pool jobs so far (always
    /// 0 at `threads = 1`) — scheduler telemetry, never semantics.
    pub fn steals(&self) -> u64 {
        self.core.pool.steals()
    }

    /// The largest dense scratch footprint the repair path has used —
    /// the same `scratch_high_water` measure the static solvers report.
    pub fn scratch_high_water(&self) -> usize {
        self.core.scratch_high_water()
    }

    /// Dirty vertices whose repair is pending (0 ⇔ the invariant is
    /// certified; always 0 under [`RepairPolicy::Eager`]).
    pub fn pending_len(&self) -> usize {
        self.core.pending.len()
    }

    /// Updates deferred since the last flush under
    /// [`RepairPolicy::Window`] (0 right after a flush).
    pub fn pending_ops(&self) -> usize {
        self.core.pending_ops
    }

    /// Flushes that settled pending repairs (automatic or explicit).
    pub fn flushes(&self) -> u64 {
        self.core.flushes
    }

    /// Updates whose repair ran out of its [`RepairPolicy::Budget`]
    /// before certifying.
    pub fn exhausted_updates(&self) -> u64 {
        self.core.exhausted_updates
    }

    /// Applies one update and repairs the matching as the policy says.
    ///
    /// # Errors
    ///
    /// A [`DynamicError`] for malformed operations (bad endpoints, zero
    /// weight, deleting a non-live edge); the engine — pending repairs
    /// included — is unchanged and nothing is counted.
    pub fn apply(&mut self, op: UpdateOp) -> Result<UpdateStats, DynamicError> {
        self.core.apply(op, self.policy)
    }

    /// Settles any pending repairs now (one unbudgeted fix-up sweep, plus
    /// a rebuild epoch if one came due while deferring), re-certifying
    /// the bounded-augmentation invariant. A no-op when nothing is
    /// pending — always under [`RepairPolicy::Eager`].
    pub fn flush(&mut self) -> UpdateStats {
        self.core.flush()
    }

    /// Applies a whole update sequence, stopping at the first malformed
    /// operation. Returns the aggregate [`BatchStats`] of the batch.
    ///
    /// # Errors
    ///
    /// A [`BatchError`] wrapping the first [`DynamicError`] encountered;
    /// its `applied` count says how many updates were applied before the
    /// malformed one (those remain applied — batches are not
    /// transactional).
    pub fn apply_all(&mut self, ops: &[UpdateOp]) -> Result<BatchStats, BatchError> {
        apply_each(ops, |op| self.apply(op))
    }
}

/// One batched rebuild epoch, shared by [`DynamicMatcher`] and the
/// sharded engine: class-sweep rounds on the pool (warm-started from the
/// maintained matching), a parallel-upgrade sweep, then a global
/// invariant restore via the repair kit. Returns `(recourse, gain,
/// augmentations)` — recourse measured as the symmetric difference
/// against the pre-epoch matching, counting `(endpoints, weight)` pairs.
///
/// `epoch_index` keys the epoch randomness (the caller's rebuild
/// counter): bit-identical for any pool size, shard count, or batch
/// size. With `rebuild_rounds = 0` the class sweep is skipped entirely
/// and the epoch only re-certifies the invariant — a restore-only epoch.
pub(crate) fn run_rebuild_epoch(
    g: &DynGraph,
    m: &mut Matching,
    cfg: &DynamicConfig,
    pool: &mut WorkerPool,
    kit: &mut RepairKit,
    rk: &mut RebuildKit,
    epoch_index: u64,
) -> (u64, i128, u64) {
    let n = g.vertex_count();
    rk.epoch_before.copy_from(m);
    if cfg.rebuild_rounds > 0 && g.live_edges() > 0 {
        g.snapshot_into(&mut rk.snapshot);
        // epoch randomness is keyed by the epoch counter, never by
        // thread count: bit-identical for any pool size
        let seed = cfg
            .seed
            .wrapping_add(epoch_index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let main_cfg = MainAlgConfig::practical(cfg.eps, seed)
            .with_trials(1)
            .with_threads(cfg.threads);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..cfg.rebuild_rounds {
            improve_matching_offline_pooled(
                &rk.snapshot,
                m,
                &main_cfg,
                &mut rng,
                &mut rk.scratch,
                pool,
            );
        }
    }
    // parallel upgrade sweep: the class sweep may have committed a
    // lighter copy of a pair that also has a heavier live copy
    for u in 0..n as Vertex {
        if let Some(me) = m.matched_edge(u) {
            let v = me.other(u);
            if u < v {
                let best = g
                    .incident(u)
                    .filter(|e| e.touches(v))
                    .map(|e| e.weight)
                    .max()
                    .unwrap_or(me.weight);
                if best > me.weight {
                    m.remove_pair(u, v).expect("edge was matched");
                    m.insert(Edge::new(u, v, best))
                        .expect("endpoints just freed");
                }
            }
        }
    }
    // the class sweep improves but does not certify: restore the
    // bounded-augmentation invariant over the whole graph
    let augmentations = kit.restore(g, m, cfg.max_len);
    // O(n) symmetric difference against the pre-epoch matching: each
    // changed edge is counted once, at its `key().0` endpoint
    let ident = |e: Edge| (e.key(), e.weight);
    let mut recourse = 0u64;
    for v in 0..n as Vertex {
        let before = rk
            .epoch_before
            .matched_edge(v)
            .filter(|e| e.key().0 == v)
            .map(ident);
        let after = m.matched_edge(v).filter(|e| e.key().0 == v).map(ident);
        if before != after {
            recourse += before.is_some() as u64 + after.is_some() as u64;
        }
    }
    (
        recourse,
        m.weight() - rk.epoch_before.weight(),
        augmentations,
    )
}

/// The static counterpart of the engine's invariant: greedy-by-weight,
/// then repeatedly apply the best augmentation of at most `max_len` edges
/// until none with positive gain remains. The result certifies the same
/// Fact 1.3 floor the engine maintains incrementally — this is what
/// [`DynamicMatcher::from_graph`] bootstraps with and what the
/// recompute-from-scratch baseline ([`RecomputeBaseline`]) recomputes
/// after every update.
///
/// The loop is [`AugSearcher::converge`]: one full scan, then after each
/// applied augmentation a re-search of only the start vertices with an
/// alternating walk of at most `max_len` edges to a vertex whose mate it
/// changed. The matching is the one a full
/// [`best_augmentation`](wmatch_graph::aug_search::best_augmentation)
/// scan per augmentation reaches, augmentation for augmentation.
///
/// # Example
///
/// ```
/// use wmatch_dynamic::static_bounded_matching;
/// use wmatch_graph::aug_search::{best_augmentation, AugSearcher};
/// use wmatch_graph::generators;
///
/// let g = generators::path_graph(&[4, 6, 4]);
/// let m = static_bounded_matching(&g, 3, &mut AugSearcher::new());
/// assert_eq!(m.weight(), 8); // outer pair beats the greedy middle edge
/// assert!(best_augmentation(&g, &m, 3).is_none());
/// ```
pub fn static_bounded_matching(g: &Graph, max_len: usize, searcher: &mut AugSearcher) -> Matching {
    let mut m = greedy_by_weight(g);
    searcher.converge(g, &mut m, max_len);
    m
}

/// The honest recompute-from-scratch baseline: the same structural
/// updates and the same Fact 1.3 floor as [`DynamicMatcher`], but the
/// matching is recomputed from scratch (via [`static_bounded_matching`])
/// after every update instead of being repaired locally. Recourse is the
/// symmetric difference between consecutive matchings — what a consumer
/// of the matching would actually observe churn.
#[derive(Debug)]
pub struct RecomputeBaseline {
    g: DynGraph,
    m: Matching,
    max_len: usize,
    searcher: AugSearcher,
    counters: DynamicCounters,
}

impl RecomputeBaseline {
    /// A baseline over an initially edgeless graph on `n` vertices.
    pub fn new(n: usize, max_len: usize) -> Self {
        RecomputeBaseline {
            g: DynGraph::new(n),
            m: Matching::new(n),
            max_len,
            searcher: AugSearcher::new(),
            counters: DynamicCounters::default(),
        }
    }

    /// A baseline seeded with an initial graph (solved once, not counted
    /// as recourse).
    ///
    /// # Errors
    ///
    /// [`DynamicError::ZeroWeight`] if the initial graph carries a
    /// zero-weight edge.
    pub fn from_graph(initial: &Graph, max_len: usize) -> Result<Self, DynamicError> {
        let mut b = RecomputeBaseline::new(initial.vertex_count(), max_len);
        b.g = DynGraph::from_graph(initial)?;
        b.m = static_bounded_matching(initial, max_len, &mut b.searcher);
        Ok(b)
    }

    /// The current matching.
    pub fn matching(&self) -> &Matching {
        &self.m
    }

    /// The live graph.
    pub fn graph(&self) -> &DynGraph {
        &self.g
    }

    /// The maximum edges per augmentation of the per-update recompute.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Lifetime counters (`augmentations_applied` stays 0: the baseline
    /// reports whole-matching churn, not individual repairs).
    pub fn counters(&self) -> DynamicCounters {
        self.counters
    }

    /// Chunks stolen across worker pools — always 0: the baseline has no
    /// parallel layer. Exposed so the facade's telemetry schema is uniform
    /// across the dynamic engines.
    pub fn steals(&self) -> u64 {
        0
    }

    /// The largest dense scratch footprint the recompute searcher has
    /// used.
    pub fn scratch_high_water(&self) -> usize {
        self.searcher.scratch_high_water()
    }

    /// Applies one update: structural change, then a full recompute.
    ///
    /// # Errors
    ///
    /// A [`DynamicError`] for malformed operations (state unchanged).
    pub fn apply(&mut self, op: UpdateOp) -> Result<UpdateStats, DynamicError> {
        self.g.apply(op)?;
        let fresh = static_bounded_matching(&self.g.snapshot(), self.max_len, &mut self.searcher);
        let before: HashSet<((Vertex, Vertex), u64)> =
            self.m.iter().map(|e| (e.key(), e.weight)).collect();
        let after: HashSet<((Vertex, Vertex), u64)> =
            fresh.iter().map(|e| (e.key(), e.weight)).collect();
        let recourse = before.symmetric_difference(&after).count() as u64;
        let gain = fresh.weight() - self.m.weight();
        self.m = fresh;
        self.counters.updates_applied += 1;
        self.counters.recourse_total += recourse;
        Ok(UpdateStats {
            gain,
            recourse,
            augmentations: 0,
            rebuilt: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::Rng;
    use wmatch_graph::aug_search::best_augmentation;
    use wmatch_graph::exact::max_weight_matching;
    use wmatch_graph::generators::{self, WeightModel};

    /// The engine invariant, checked against the reference searcher on a
    /// snapshot: no positive augmentation of ≤ max_len edges anywhere.
    fn assert_invariant(eng: &DynamicMatcher) {
        let snap = eng.graph().snapshot();
        eng.matching()
            .validate(Some(&snap))
            .expect("valid matching");
        assert!(
            best_augmentation(&snap, eng.matching(), eng.config().max_len).is_none(),
            "engine left a positive augmentation behind"
        );
    }

    #[test]
    fn insert_matches_free_pair() {
        let mut eng = DynamicMatcher::new(4, DynamicConfig::default());
        let s = eng.apply(UpdateOp::insert(0, 1, 5)).unwrap();
        assert_eq!(s.gain, 5);
        assert_eq!(s.recourse, 1);
        assert_eq!(eng.matching().weight(), 5);
        assert_invariant(&eng);
    }

    #[test]
    fn insert_swaps_in_heavier_edge() {
        let mut eng = DynamicMatcher::new(3, DynamicConfig::default());
        eng.apply(UpdateOp::insert(0, 1, 2)).unwrap();
        let s = eng.apply(UpdateOp::insert(1, 2, 7)).unwrap();
        assert_eq!(s.gain, 5, "swap 2 out, 7 in");
        assert_eq!(s.recourse, 2);
        assert_eq!(eng.matching().weight(), 7);
        assert_invariant(&eng);
    }

    #[test]
    fn delete_matched_edge_repairs_locally() {
        // path 0-1-2-3 weights 4,6,4: engine holds the outer pair (8);
        // deleting {0,1} frees 0 and 1, repair re-matches {1,2}
        let mut eng = DynamicMatcher::new(4, DynamicConfig::default());
        eng.apply(UpdateOp::insert(0, 1, 4)).unwrap();
        eng.apply(UpdateOp::insert(1, 2, 6)).unwrap();
        eng.apply(UpdateOp::insert(2, 3, 4)).unwrap();
        assert_eq!(eng.matching().weight(), 8);
        let s = eng.apply(UpdateOp::delete(0, 1)).unwrap();
        assert_eq!(eng.matching().weight(), 6);
        assert!(s.recourse >= 2, "lost {{0,1}}, re-matched {{1,2}}");
        assert_invariant(&eng);
    }

    #[test]
    fn delete_unmatched_edge_is_free() {
        let mut eng = DynamicMatcher::new(3, DynamicConfig::default());
        eng.apply(UpdateOp::insert(0, 1, 9)).unwrap();
        eng.apply(UpdateOp::insert(1, 2, 1)).unwrap();
        let s = eng.apply(UpdateOp::delete(1, 2)).unwrap();
        assert_eq!(s.recourse, 0);
        assert_eq!(s.gain, 0);
        assert_eq!(eng.matching().weight(), 9);
        assert_invariant(&eng);
    }

    #[test]
    fn parallel_copy_keeps_matching_valid() {
        // two parallel copies of {0,1}@5: deleting one leaves the
        // matching backed by the surviving copy
        let mut eng = DynamicMatcher::new(2, DynamicConfig::default());
        eng.apply(UpdateOp::insert(0, 1, 5)).unwrap();
        eng.apply(UpdateOp::insert(0, 1, 5)).unwrap();
        let s = eng.apply(UpdateOp::delete(0, 1)).unwrap();
        assert_eq!(s.recourse, 0);
        assert_eq!(eng.matching().weight(), 5);
        assert_invariant(&eng);
        // deleting the second copy finally unmatches
        eng.apply(UpdateOp::delete(0, 1)).unwrap();
        assert_eq!(eng.matching().weight(), 0);
        assert_invariant(&eng);
    }

    #[test]
    fn parallel_copies_of_different_weight() {
        // matched light copy, delete the heavy parallel copy: matching
        // must survive (the light copy still backs it)
        let mut eng = DynamicMatcher::new(2, DynamicConfig::default());
        eng.apply(UpdateOp::insert(0, 1, 3)).unwrap();
        eng.apply(UpdateOp::insert(0, 1, 8)).unwrap();
        assert_eq!(
            eng.matching().weight(),
            8,
            "repair upgraded to the heavy copy"
        );
        // LIFO deletion removes the heavy copy; the matched heavy edge is
        // gone, repair falls back to the light copy
        eng.apply(UpdateOp::delete(0, 1)).unwrap();
        assert_eq!(eng.matching().weight(), 3);
        assert_invariant(&eng);
    }

    #[test]
    fn malformed_ops_leave_engine_unchanged() {
        let mut eng = DynamicMatcher::new(2, DynamicConfig::default());
        eng.apply(UpdateOp::insert(0, 1, 5)).unwrap();
        assert!(matches!(
            eng.apply(UpdateOp::insert(0, 9, 1)),
            Err(DynamicError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            eng.apply(UpdateOp::insert(0, 1, 0)),
            Err(DynamicError::ZeroWeight { .. })
        ));
        assert!(matches!(
            eng.apply(UpdateOp::delete(1, 0))
                .and_then(|_| eng.apply(UpdateOp::delete(1, 0))),
            Err(DynamicError::EdgeNotFound { .. })
        ));
        assert_eq!(eng.counters().updates_applied, 2, "errors are not counted");
    }

    #[test]
    fn from_graph_bootstraps_invariant() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = generators::gnp(20, 0.3, WeightModel::Uniform { lo: 1, hi: 50 }, &mut rng);
        let eng = DynamicMatcher::from_graph(&g, DynamicConfig::default()).unwrap();
        assert_invariant(&eng);
        let opt = max_weight_matching(&g).weight();
        assert!(
            eng.matching().weight() * 2 >= opt,
            "Fact 1.3 floor at max_len 3: {} vs {opt}",
            eng.matching().weight()
        );
    }

    #[test]
    fn random_churn_keeps_floor_and_invariant() {
        let mut rng = StdRng::seed_from_u64(13);
        let cfg = DynamicConfig::default();
        let mut eng = DynamicMatcher::new(14, cfg);
        let mut live: Vec<(Vertex, Vertex)> = Vec::new();
        for step in 0..240 {
            let do_delete = !live.is_empty() && rng.gen_range(0..3) == 0;
            if do_delete {
                let i = rng.gen_range(0..live.len());
                let (u, v) = live.swap_remove(i);
                eng.apply(UpdateOp::delete(u, v)).unwrap();
            } else {
                let u = rng.gen_range(0..14u32);
                let mut v = rng.gen_range(0..14u32);
                if v == u {
                    v = (v + 1) % 14;
                }
                let w = rng.gen_range(1..40u64);
                eng.apply(UpdateOp::insert(u, v, w)).unwrap();
                live.push((u, v));
            }
            if step % 40 == 0 {
                assert_invariant(&eng);
                let opt = max_weight_matching(&eng.graph().snapshot()).weight();
                assert!(
                    eng.matching().weight() * 2 >= opt,
                    "step {step}: {} vs opt {opt}",
                    eng.matching().weight()
                );
            }
        }
        assert_invariant(&eng);
        assert_eq!(eng.counters().updates_applied, 240);
        assert!(eng.counters().recourse_total > 0);
        assert!(eng.scratch_high_water() > 0);
    }

    #[test]
    fn rebuild_epochs_fire_and_preserve_invariant() {
        let mut rng = StdRng::seed_from_u64(19);
        let cfg = DynamicConfig::default()
            .with_rebuild_threshold(16)
            .with_rebuild_rounds(1);
        let mut eng = DynamicMatcher::new(12, cfg);
        for _ in 0..48 {
            let u = rng.gen_range(0..12u32);
            let mut v = rng.gen_range(0..12u32);
            if v == u {
                v = (v + 1) % 12;
            }
            eng.apply(UpdateOp::insert(u, v, rng.gen_range(1..20u64)))
                .unwrap();
        }
        assert_eq!(eng.counters().rebuilds, 3, "one epoch per 16 updates");
        assert_invariant(&eng);
    }

    #[test]
    fn restore_only_epochs_take_no_snapshot() {
        // only the class sweep reads the snapshot: a restore-only epoch
        // must not copy the live graph into it
        let cfg = DynamicConfig::default()
            .with_rebuild_threshold(4)
            .with_rebuild_rounds(0);
        let mut eng = DynamicMatcher::new(8, cfg);
        for v in 0..4u32 {
            eng.apply(UpdateOp::insert(v, v + 1, 3 + v as u64)).unwrap();
        }
        assert_eq!(eng.counters().rebuilds, 1);
        assert!(eng.graph().live_edges() > 0);
        assert_eq!(eng.core.rebuild.snapshot.edge_count(), 0);
        assert_invariant(&eng);
    }

    #[test]
    fn bootstrap_arena_reaches_the_high_water_mark() {
        // `from_graph` converges on a searcher arena sized to the whole
        // graph; telemetry must see it before any update
        let mut rng = StdRng::seed_from_u64(43);
        let g = generators::gnp(500, 0.01, WeightModel::Uniform { lo: 1, hi: 9 }, &mut rng);
        let eng = DynamicMatcher::from_graph(&g, DynamicConfig::default()).unwrap();
        assert!(
            eng.scratch_high_water() >= 500,
            "{}",
            eng.scratch_high_water()
        );
    }

    #[test]
    fn rebuild_is_bit_identical_across_threads() {
        for threads in [2usize, 4, 0] {
            let mut rng = StdRng::seed_from_u64(23);
            let cfg1 = DynamicConfig::default()
                .with_rebuild_threshold(8)
                .with_seed(5);
            let cfgt = cfg1.with_threads(threads);
            let mut a = DynamicMatcher::new(16, cfg1);
            let mut b = DynamicMatcher::new(16, cfgt);
            for _ in 0..40 {
                let u = rng.gen_range(0..16u32);
                let mut v = rng.gen_range(0..16u32);
                if v == u {
                    v = (v + 1) % 16;
                }
                let op = UpdateOp::insert(u, v, rng.gen_range(1..30u64));
                let sa = a.apply(op).unwrap();
                let sb = b.apply(op).unwrap();
                assert_eq!(sa, sb, "threads = {threads}");
            }
            assert_eq!(
                a.matching().to_edges(),
                b.matching().to_edges(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn recompute_baseline_agrees_on_quality() {
        let mut rng = StdRng::seed_from_u64(29);
        let mut eng = DynamicMatcher::new(12, DynamicConfig::default());
        let mut base = RecomputeBaseline::new(12, 3);
        for _ in 0..80 {
            let u = rng.gen_range(0..12u32);
            let mut v = rng.gen_range(0..12u32);
            if v == u {
                v = (v + 1) % 12;
            }
            let op = UpdateOp::insert(u, v, rng.gen_range(1..25u64));
            eng.apply(op).unwrap();
            base.apply(op).unwrap();
        }
        // both hold the same certified floor; the incremental engine's
        // total recourse must not exceed the recompute baseline's by the
        // nature of local repair (checked loosely: both are bounded)
        let opt = max_weight_matching(&eng.graph().snapshot()).weight();
        assert!(eng.matching().weight() * 2 >= opt);
        assert!(base.matching().weight() * 2 >= opt);
        assert_eq!(base.counters().updates_applied, 80);
    }

    #[test]
    fn recourse_equals_matching_diff_along_churn() {
        // the unified recourse definition: per-update recourse is exactly
        // the (key, weight) symmetric difference between the matchings
        // before and after the update, recomputed here independently
        let mut rng = StdRng::seed_from_u64(41);
        let mut eng = DynamicMatcher::new(14, DynamicConfig::default());
        let mut live: Vec<(Vertex, Vertex)> = Vec::new();
        let diff = |a: &Matching, b: &Matching| {
            let sa: HashSet<((Vertex, Vertex), u64)> =
                a.iter().map(|e| (e.key(), e.weight)).collect();
            let sb: HashSet<((Vertex, Vertex), u64)> =
                b.iter().map(|e| (e.key(), e.weight)).collect();
            sa.symmetric_difference(&sb).count() as u64
        };
        let mut total = 0u64;
        for step in 0..300 {
            let op = if !live.is_empty() && rng.gen_range(0..3) == 0 {
                let i = rng.gen_range(0..live.len());
                let (u, v) = live.swap_remove(i);
                UpdateOp::delete(u, v)
            } else {
                let u = rng.gen_range(0..14u32);
                let mut v = rng.gen_range(0..14u32);
                if v == u {
                    v = (v + 1) % 14;
                }
                live.push((u, v));
                UpdateOp::insert(u, v, rng.gen_range(1..40u64))
            };
            let before = eng.matching().clone();
            let s = eng.apply(op).unwrap();
            assert_eq!(
                s.recourse,
                diff(&before, eng.matching()),
                "step {step}: reported recourse must equal the observable churn"
            );
            assert_eq!(
                s.gain,
                eng.matching().weight() - before.weight(),
                "step {step}"
            );
            total += s.recourse;
        }
        assert_eq!(eng.counters().recourse_total, total);
    }

    #[test]
    fn apply_all_reports_batch_stats_and_partial_progress() {
        let mut eng = DynamicMatcher::new(6, DynamicConfig::default());
        let stats = eng
            .apply_all(&[
                UpdateOp::insert(0, 1, 5),
                UpdateOp::insert(2, 3, 4),
                UpdateOp::delete(0, 1),
            ])
            .unwrap();
        assert_eq!(stats.applied, 3);
        assert_eq!(stats.gain, 4);
        assert_eq!(stats.recourse, 3, "two matched, one unmatched");
        // a malformed op stops the batch and reports how far it got
        let err = eng
            .apply_all(&[
                UpdateOp::insert(0, 1, 2),
                UpdateOp::insert(4, 5, 1),
                UpdateOp::delete(1, 2), // never inserted
                UpdateOp::insert(0, 2, 9),
            ])
            .unwrap_err();
        assert_eq!(err.applied, 2, "the first two committed and stay applied");
        assert!(matches!(err.source, DynamicError::EdgeNotFound { .. }));
        assert_eq!(eng.counters().updates_applied, 5);
        assert!(err.to_string().contains("2 updates applied"), "{err}");
    }

    fn with_policy(n: usize, policy: RepairPolicy) -> DynamicMatcher {
        DynamicMatcher::new(n, DynamicConfig::default()).with_policy(policy)
    }

    #[test]
    fn budget_defers_the_long_swap() {
        // growing the 4-6-4 path takes a 3-edge swap after the outer
        // inserts; budget 1 per op still converges because the carry
        // re-seeds — then flush certifies
        let mut eng = with_policy(4, RepairPolicy::Budget(1));
        eng.apply(UpdateOp::insert(1, 2, 6)).unwrap();
        eng.apply(UpdateOp::insert(0, 1, 4)).unwrap();
        eng.apply(UpdateOp::insert(2, 3, 4)).unwrap();
        eng.flush();
        assert_eq!(eng.matching().weight(), 8, "outer pair after settling");
        let snap = eng.graph().snapshot();
        assert!(best_augmentation(&snap, eng.matching(), 3).is_none());
    }

    #[test]
    fn generous_budget_matches_eager_engine() {
        // a budget no stream exhausts makes the budgeted engine the eager
        // engine, bit for bit
        let mut rng = StdRng::seed_from_u64(31);
        let mut lazy = with_policy(10, RepairPolicy::Budget(usize::MAX));
        let mut eager = DynamicMatcher::new(10, DynamicConfig::default());
        let mut live: Vec<(u32, u32)> = Vec::new();
        for _ in 0..160 {
            let op = if !live.is_empty() && rng.gen_range(0..3) == 0 {
                let i = rng.gen_range(0..live.len());
                let (u, v) = live.swap_remove(i);
                UpdateOp::delete(u, v)
            } else {
                let u = rng.gen_range(0..10u32);
                let mut v = rng.gen_range(0..10u32);
                if v == u {
                    v = (v + 1) % 10;
                }
                live.push((u, v));
                UpdateOp::insert(u, v, rng.gen_range(1..30u64))
            };
            let sl = lazy.apply(op).unwrap();
            let se = eager.apply(op).unwrap();
            assert_eq!(sl, se);
        }
        assert_eq!(lazy.matching().to_edges(), eager.matching().to_edges());
        assert_eq!(lazy.exhausted_updates(), 0);
        assert_eq!(lazy.pending_len(), 0);
    }

    #[test]
    fn tight_budget_converges_after_flush() {
        let mut rng = StdRng::seed_from_u64(37);
        let cfg = DynamicConfig::default();
        let mut eng = DynamicMatcher::new(14, cfg).with_policy(RepairPolicy::Budget(1));
        let mut live: Vec<(u32, u32)> = Vec::new();
        for _ in 0..220 {
            let op = if !live.is_empty() && rng.gen_range(0..3) == 0 {
                let i = rng.gen_range(0..live.len());
                let (u, v) = live.swap_remove(i);
                UpdateOp::delete(u, v)
            } else {
                let u = rng.gen_range(0..14u32);
                let mut v = rng.gen_range(0..14u32);
                if v == u {
                    v = (v + 1) % 14;
                }
                live.push((u, v));
                UpdateOp::insert(u, v, rng.gen_range(1..40u64))
            };
            eng.apply(op).unwrap();
            // valid at every point, certified only after flush
            eng.matching()
                .validate(Some(&eng.graph().snapshot()))
                .expect("matching stays valid under the budget");
        }
        eng.flush();
        assert_eq!(eng.pending_len(), 0);
        let snap = eng.graph().snapshot();
        assert!(
            best_augmentation(&snap, eng.matching(), cfg.max_len).is_none(),
            "flush certifies the full invariant"
        );
        assert_eq!(eng.counters().updates_applied, 220);
    }

    #[test]
    fn malformed_ops_leave_carry_untouched() {
        let mut eng = with_policy(2, RepairPolicy::Budget(1));
        eng.apply(UpdateOp::insert(0, 1, 5)).unwrap();
        let carry_before = eng.pending_len();
        assert!(eng.apply(UpdateOp::insert(0, 9, 1)).is_err());
        assert_eq!(
            eng.pending_len(),
            carry_before,
            "failed op must not touch carry"
        );
        assert!(eng.apply(UpdateOp::delete(1, 0)).is_ok());
        let carry_after = eng.pending_len();
        assert!(eng.apply(UpdateOp::delete(1, 0)).is_err());
        assert_eq!(
            eng.pending_len(),
            carry_after,
            "failed op must not touch carry"
        );
        assert_eq!(eng.counters().updates_applied, 2);
    }

    #[test]
    fn defers_until_the_bound_then_flushes() {
        let mut eng = with_policy(6, RepairPolicy::Window(3));
        eng.apply(UpdateOp::insert(0, 1, 5)).unwrap();
        eng.apply(UpdateOp::insert(2, 3, 4)).unwrap();
        assert_eq!(eng.matching().weight(), 0);
        assert_eq!(eng.pending_ops(), 2);
        let s = eng.apply(UpdateOp::insert(4, 5, 3)).unwrap();
        assert_eq!(eng.matching().weight(), 12, "third op triggered the flush");
        assert_eq!(eng.pending_ops(), 0);
        assert_eq!(eng.flushes(), 1);
        assert!(s.recourse >= 3);
    }

    #[test]
    fn deleted_matched_edge_is_dropped_immediately() {
        // validity is never deferred: deleting the matched copy must
        // unmatch it on the spot, even mid-window
        let mut eng = with_policy(4, RepairPolicy::Window(10));
        eng.apply(UpdateOp::insert(0, 1, 5)).unwrap();
        eng.flush();
        assert_eq!(eng.matching().weight(), 5);
        eng.apply(UpdateOp::delete(0, 1)).unwrap();
        assert_eq!(eng.matching().weight(), 0);
        eng.matching()
            .validate(Some(&eng.graph().snapshot()))
            .expect("matching stays valid mid-window");
    }

    #[test]
    fn deferred_insert_upgrades_a_heavier_parallel_copy() {
        // validity is never deferred for inserts either: a heavier copy of
        // a matched pair must be swapped in on the spot — no later flush
        // can express that upgrade as an augmentation
        for policy in [RepairPolicy::Window(1), RepairPolicy::Window(10)] {
            let mut eng = with_policy(2, policy);
            eng.apply(UpdateOp::insert(0, 1, 1)).unwrap();
            eng.flush();
            let s = eng.apply(UpdateOp::insert(0, 1, 100)).unwrap();
            assert_eq!(s.gain, 99, "{policy:?}");
            assert_eq!(s.recourse, 2, "{policy:?}: light copy out, heavy in");
            eng.flush();
            assert_eq!(eng.matching().weight(), 100, "{policy:?}");
        }
    }

    #[test]
    fn flushed_state_matches_eager_engine_invariant() {
        let mut rng = StdRng::seed_from_u64(17);
        let cfg = DynamicConfig::default();
        let mut eng = DynamicMatcher::new(12, cfg).with_policy(RepairPolicy::Window(7));
        for _ in 0..140 {
            let u = rng.gen_range(0..12u32);
            let mut v = rng.gen_range(0..12u32);
            if v == u {
                v = (v + 1) % 12;
            }
            eng.apply(UpdateOp::insert(u, v, rng.gen_range(1..30u64)))
                .unwrap();
        }
        eng.flush();
        let snap = eng.graph().snapshot();
        eng.matching().validate(Some(&snap)).expect("valid");
        assert!(
            best_augmentation(&snap, eng.matching(), cfg.max_len).is_none(),
            "flush must restore the bounded-augmentation invariant"
        );
        assert_eq!(eng.counters().updates_applied, 140);
    }

    #[test]
    fn bound_one_is_the_eager_engine_on_disjoint_streams() {
        // with a window of 1 every op flushes immediately; on a stream the
        // eager engine handles identically, weights agree
        let mut stale = with_policy(8, RepairPolicy::Window(1));
        let mut eager = DynamicMatcher::new(8, DynamicConfig::default());
        let ops = [
            UpdateOp::insert(0, 1, 5),
            UpdateOp::insert(2, 3, 7),
            UpdateOp::insert(1, 2, 9),
            UpdateOp::delete(0, 1),
        ];
        for &op in &ops {
            stale.apply(op).unwrap();
            eager.apply(op).unwrap();
        }
        assert_eq!(
            stale.matching().to_edges(),
            eager.matching().to_edges(),
            "bound 1 repairs after every op, like the eager engine"
        );
    }

    #[test]
    fn policy_sizes_clamp_to_one() {
        assert_eq!(
            with_policy(2, RepairPolicy::Budget(0)).policy(),
            RepairPolicy::Budget(1)
        );
        assert_eq!(
            with_policy(2, RepairPolicy::Window(0)).policy(),
            RepairPolicy::Window(1)
        );
        assert_eq!(
            DynamicMatcher::new(2, DynamicConfig::default()).policy(),
            RepairPolicy::Eager
        );
    }

    #[test]
    fn certified_floor_derivation() {
        assert_eq!(DynamicConfig::default().certified_floor(), 0.5);
        assert_eq!(
            DynamicConfig::default().with_max_len(5).certified_floor(),
            1.0 - 1.0 / 3.0
        );
        assert_eq!(
            DynamicConfig::default().with_max_len(1).certified_floor(),
            0.0
        );
    }
}
