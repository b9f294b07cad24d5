//! Adapters for the fully-dynamic arrival model: the incremental
//! update-stream engine, its recompute-from-scratch baseline, the sharded
//! engine, and the shootout competitors (random-walk, bounded-lazy,
//! ε-stale).
//!
//! The eager engines maintain the invariant that after every update the
//! matching admits no positive augmentation of at most
//! [`SolveRequest::aug_depth`] edges, which by Fact 1.3 certifies the
//! declared ½ floor (at the default depth 3) *at every point of the
//! stream*. `dynamic-lazy` and `dynamic-stale` are the same
//! [`DynamicMatcher`] under a deferring [`RepairPolicy`]: they make the
//! same claim only after their end-of-stream flush, which the shared
//! replay loop always performs before the report is assembled. The
//! `dynamic-randomwalk` competitor certifies its ½ floor through
//! single-edge local dominance instead.
//!
//! Every adapter reports through one assembly path (`report`), so all of
//! them carry the same seven-key telemetry prefix and cross-solver
//! tooling can diff recourse, repair work, and pool behaviour without
//! per-solver cases.

use std::time::{Duration, Instant};

use wmatch_dynamic::{
    BatchError, DynamicConfig, DynamicMatcher, RandomWalkConfig, RandomWalkMatcher,
    RecomputeBaseline, RepairPolicy, ShardedMatcher, UpdateEngine, UpdateOp,
};

use crate::capabilities::{Capabilities, ModelKind, Objective};
use crate::error::SolveError;
use crate::instance::Instance;
use crate::report::{SolveReport, Telemetry};
use crate::request::{Effort, SolveRequest};
use crate::solvers::{preflight, reject_warm_start, Solver};

/// The shared entry checks of every dynamic adapter; returns the update
/// sequence (preflight guarantees the model is dynamic).
fn admit<'a>(
    solver: &dyn Solver,
    instance: &'a Instance,
    request: &SolveRequest,
) -> Result<&'a [UpdateOp], SolveError> {
    preflight(solver.name(), &solver.capabilities(), instance, request)?;
    reject_warm_start(solver.name(), request)?;
    Ok(instance
        .updates()
        .expect("preflight admits only the dynamic model"))
}

/// Maps a malformed update onto the uniform error contract.
fn update_error(e: wmatch_dynamic::DynamicError) -> SolveError {
    SolveError::InvalidConfig {
        field: "updates",
        reason: e.to_string(),
    }
}

/// Maps a malformed update onto the uniform error contract, recording how
/// many stream ops had already been applied when it surfaced — partial
/// progress a caller replaying a long stream needs to resume or debug.
fn update_error_at(applied: usize, e: wmatch_dynamic::DynamicError) -> SolveError {
    SolveError::InvalidConfig {
        field: "updates",
        reason: format!("{e} ({applied} updates applied)"),
    }
}

/// Maps a batch failure (which already carries the applied-op count) onto
/// the uniform error contract, routing by retryability: a quarantined
/// shard (the sentinel healed the state before rejecting) surfaces as
/// [`SolveError::Transient`] so callers know a bounded retry is the
/// right response, while malformed-op rejections stay deterministic
/// configuration errors.
fn batch_error(e: BatchError) -> SolveError {
    if e.is_transient() {
        SolveError::Transient {
            reason: e.to_string(),
        }
    } else {
        SolveError::InvalidConfig {
            field: "updates",
            reason: e.to_string(),
        }
    }
}

/// The [`DynamicConfig`] a request maps onto.
fn dynamic_cfg(request: &SolveRequest) -> DynamicConfig {
    let rebuild_rounds = match request.effort {
        Effort::Quick => 1,
        Effort::Standard => 2,
        Effort::Thorough => 4,
    };
    DynamicConfig::default()
        .with_max_len(request.aug_depth)
        .with_rebuild_threshold(request.rebuild_threshold)
        .with_rebuild_rounds(rebuild_rounds)
        .with_eps(request.eps)
        .with_seed(request.seed)
        .with_threads(request.threads)
}

/// Renders updates-per-second from a replayed op count and duration.
fn updates_per_sec(updates: usize, elapsed: Duration) -> String {
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        format!("{:.1}", updates as f64 / secs)
    } else {
        "inf".to_string()
    }
}

/// What one stream replay observed, for [`report`].
struct Replay {
    /// When the solve started (engine construction included).
    t0: Instant,
    /// The replay itself, end-of-stream flush included.
    elapsed: Duration,
    /// Peak live edges over the replay.
    peak_live: usize,
    /// Stream length.
    updates: usize,
}

/// The shared per-op replay loop: applies every update, tracking the
/// live-edge peak, then flushes whatever repair debt the engine deferred
/// — the declared floor (and the certificate when requested) is a
/// post-flush claim. The flush is a no-op for eager engines.
fn replay<E: UpdateEngine>(
    engine: &mut E,
    updates: &[UpdateOp],
    t0: Instant,
) -> Result<Replay, SolveError> {
    let mut peak_live = engine.graph().live_edges();
    let start = Instant::now();
    for (i, &op) in updates.iter().enumerate() {
        engine.apply(op).map_err(|e| update_error_at(i, e))?;
        peak_live = peak_live.max(engine.graph().live_edges());
    }
    engine.flush();
    Ok(Replay {
        t0,
        elapsed: start.elapsed(),
        peak_live,
        updates: updates.len(),
    })
}

/// The shared report assembly. Every dynamic solver reports the same
/// telemetry prefix, in this pinned order: `updates_applied`,
/// `recourse_total`, `updates_per_sec`, `augmentations_applied`,
/// `rebuilds`, `steals`, `scratch_high_water`. Engines without a given
/// facility report its honest zero (the baseline has no pool, so `steals`
/// is 0; the walk engine never rebuilds) rather than omitting the key —
/// cross-solver tooling diffs these columns positionally. The solver's
/// `specific` extras follow the prefix.
fn report(
    name: &'static str,
    request: &SolveRequest,
    engine: &dyn UpdateEngine,
    run: Replay,
    steals: u64,
    scratch_high_water: usize,
    specific: Vec<(&'static str, String)>,
) -> SolveReport {
    let wall = run.t0.elapsed();
    let counters = engine.counters();
    let mut extras = vec![
        ("updates_applied", counters.updates_applied.to_string()),
        ("recourse_total", counters.recourse_total.to_string()),
        ("updates_per_sec", updates_per_sec(run.updates, run.elapsed)),
        (
            "augmentations_applied",
            counters.augmentations_applied.to_string(),
        ),
        ("rebuilds", counters.rebuilds.to_string()),
        ("steals", steals.to_string()),
        ("scratch_high_water", scratch_high_water.to_string()),
    ];
    extras.extend(specific);
    let telemetry = Telemetry {
        rounds: counters.rebuilds as usize,
        peak_stored_edges: run.peak_live + engine.matching().len(),
        wall,
        extras,
        ..Telemetry::new()
    };
    SolveReport::assemble(
        name,
        engine.matching().clone(),
        Objective::Weight,
        &engine.graph().snapshot(),
        request.certify,
        telemetry,
    )
}

/// The solve of the three [`DynamicMatcher`] adapters, which differ only
/// in the repair policy and the policy's own extras.
fn solve_matcher(
    solver: &dyn Solver,
    instance: &Instance,
    request: &SolveRequest,
    policy: RepairPolicy,
    specific: fn(&DynamicMatcher) -> Vec<(&'static str, String)>,
) -> Result<SolveReport, SolveError> {
    let updates = admit(solver, instance, request)?;
    let t0 = Instant::now();
    let mut engine = DynamicMatcher::from_graph(instance.graph(), dynamic_cfg(request))
        .map_err(update_error)?
        .with_policy(policy);
    let run = replay(&mut engine, updates, t0)?;
    Ok(report(
        solver.name(),
        request,
        &engine,
        run,
        engine.steals(),
        engine.scratch_high_water(),
        specific(&engine),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmatch_dynamic::{BatchStats, DynamicError};

    #[test]
    fn batch_error_routes_by_retryability() {
        let transient = batch_error(BatchError {
            applied: 3,
            stats: BatchStats::default(),
            source: DynamicError::Quarantined { shard: 1 },
        });
        assert!(transient.is_transient());
        assert!(matches!(transient, SolveError::Transient { .. }));

        let fatal = batch_error(BatchError {
            applied: 3,
            stats: BatchStats::default(),
            source: DynamicError::EdgeNotFound { u: 0, v: 1 },
        });
        assert!(!fatal.is_transient());
        assert!(matches!(
            fatal,
            SolveError::InvalidConfig {
                field: "updates",
                ..
            }
        ));
    }
}

/// The incremental update-stream engine: bounded-depth augmentation
/// repair around each update, with optional batched rebuild epochs
/// (Algorithm 3's weight-class sweep on the solve's worker pool).
#[derive(Debug, Clone, Copy, Default)]
pub struct DynamicWgtAug;

impl Solver for DynamicWgtAug {
    fn name(&self) -> &'static str {
        "dynamic-wgtaug"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            models: &[ModelKind::Dynamic],
            objective: Objective::Weight,
            bipartite_only: false,
            exact: false,
            // Fact 1.3 at the default aug_depth 3 (ℓ = 2), maintained
            // after every update of the stream
            approx_floor: 0.5,
            theorem: "Fact 1.3 (bounded-length augmentation repair; dynamic driver)",
        }
    }

    fn solve(
        &self,
        instance: &Instance,
        request: &SolveRequest,
    ) -> Result<SolveReport, SolveError> {
        solve_matcher(self, instance, request, RepairPolicy::Eager, |_| Vec::new())
    }
}

/// The random-walk competitor: each update launches a handful of
/// seed-keyed alternating walks from the touched endpoints (à la the
/// local random-walk dynamic matching heuristics of Angriman, Meyerhenke,
/// Penschuck & Wagner, arXiv:2104.13098), applies the best positive
/// prefix each walk finds, then settles single-edge local dominance —
/// which alone certifies the declared ½ floor after every update,
/// independent of walk length or trial count.
#[derive(Debug, Clone, Copy, Default)]
pub struct DynamicRandomWalk;

impl Solver for DynamicRandomWalk {
    fn name(&self) -> &'static str {
        "dynamic-randomwalk"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            models: &[ModelKind::Dynamic],
            objective: Objective::Weight,
            bipartite_only: false,
            exact: false,
            // single-edge local dominance: every OPT edge charges the
            // matched weight at its endpoints, each matched edge absorbs
            // at most two charges → w(M*) ≤ 2·w(M)
            approx_floor: 0.5,
            theorem: "local dominance (random-walk repair; cf. arXiv:2104.13098)",
        }
    }

    fn solve(
        &self,
        instance: &Instance,
        request: &SolveRequest,
    ) -> Result<SolveReport, SolveError> {
        let updates = admit(self, instance, request)?;
        let trials = match request.effort {
            Effort::Quick => 2,
            Effort::Standard => 4,
            Effort::Thorough => 8,
        };
        let cfg = RandomWalkConfig::new()
            .with_walk_len(request.walk_len)
            .with_trials(trials)
            .with_seed(request.seed);
        let t0 = Instant::now();
        let mut engine =
            RandomWalkMatcher::from_graph(instance.graph(), cfg).map_err(update_error)?;
        let run = replay(&mut engine, updates, t0)?;
        let specific = vec![
            ("walks_taken", engine.walks_taken().to_string()),
            ("walk_hits", engine.walk_hits().to_string()),
        ];
        Ok(report(
            self.name(),
            request,
            &engine,
            run,
            engine.steals(),
            engine.scratch_high_water(),
            specific,
        ))
    }
}

/// The bounded-lazy competitor: the [`DynamicMatcher`] under
/// [`RepairPolicy::Budget`]`(`[`SolveRequest::work_budget`]`)` — each
/// update repairs with at most that many augmentations; leftover dirty
/// regions are carried forward and settled by the end-of-stream flush,
/// which restores the Fact 1.3 invariant the declared floor is measured
/// against.
#[derive(Debug, Clone, Copy, Default)]
pub struct DynamicLazy;

impl Solver for DynamicLazy {
    fn name(&self) -> &'static str {
        "dynamic-lazy"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            models: &[ModelKind::Dynamic],
            objective: Objective::Weight,
            bipartite_only: false,
            exact: false,
            // Fact 1.3 at the default aug_depth 3 — restored by the
            // end-of-stream flush (mid-stream the floor may lapse while
            // repair debt is carried)
            approx_floor: 0.5,
            theorem: "Fact 1.3 (bounded-budget repair, restored at flush)",
        }
    }

    fn solve(
        &self,
        instance: &Instance,
        request: &SolveRequest,
    ) -> Result<SolveReport, SolveError> {
        let policy = RepairPolicy::Budget(request.work_budget);
        solve_matcher(self, instance, request, policy, |engine| {
            vec![
                ("budget_exhausted", engine.exhausted_updates().to_string()),
                ("carry", engine.pending_len().to_string()),
            ]
        })
    }
}

/// The tolerate-ε-staleness competitor: the [`DynamicMatcher`] under
/// [`RepairPolicy::Window`]`(`[`SolveRequest::staleness_bound`]`)` —
/// every update performs only the structural change and the validity
/// rule, and one batched repair sweep runs per window of deferred
/// updates. The end-of-stream flush makes the report's matching meet the
/// same Fact 1.3 floor as the eager engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct DynamicStale;

impl Solver for DynamicStale {
    fn name(&self) -> &'static str {
        "dynamic-stale"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            models: &[ModelKind::Dynamic],
            objective: Objective::Weight,
            bipartite_only: false,
            exact: false,
            // Fact 1.3 at flush boundaries; the adapter's end-of-stream
            // flush makes the reported matching a flush-boundary state
            approx_floor: 0.5,
            theorem: "Fact 1.3 (ε-stale deferred repair, restored at flush)",
        }
    }

    fn solve(
        &self,
        instance: &Instance,
        request: &SolveRequest,
    ) -> Result<SolveReport, SolveError> {
        let policy = RepairPolicy::Window(request.staleness_bound);
        solve_matcher(self, instance, request, policy, |engine| {
            vec![("flushes", engine.flushes().to_string())]
        })
    }
}

/// The honest baseline: the same structural updates and the same Fact 1.3
/// floor, but the matching is recomputed from scratch after every update
/// — what `dynamic-wgtaug`'s locality and recourse numbers are measured
/// against.
#[derive(Debug, Clone, Copy, Default)]
pub struct DynamicRebuild;

impl Solver for DynamicRebuild {
    fn name(&self) -> &'static str {
        "dynamic-rebuild"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            models: &[ModelKind::Dynamic],
            objective: Objective::Weight,
            bipartite_only: false,
            exact: false,
            approx_floor: 0.5,
            theorem: "Fact 1.3 (recompute-from-scratch baseline)",
        }
    }

    fn solve(
        &self,
        instance: &Instance,
        request: &SolveRequest,
    ) -> Result<SolveReport, SolveError> {
        let updates = admit(self, instance, request)?;
        let t0 = Instant::now();
        let mut baseline = RecomputeBaseline::from_graph(instance.graph(), request.aug_depth)
            .map_err(update_error)?;
        let run = replay(&mut baseline, updates, t0)?;
        Ok(report(
            self.name(),
            request,
            &baseline,
            run,
            baseline.steals(),
            baseline.scratch_high_water(),
            Vec::new(),
        ))
    }
}

/// The production-scale sharded engine: updates arrive in batches, and
/// every batch commits op by op through the sequential engine's repair
/// path, with the serve path's batch-boundary hooks (WAL, sentinel,
/// chaos) around it. Vertex shards, each owning the pairs whose smaller
/// endpoint falls in its range, are the granularity of sentinel
/// quarantines. The committed matching is bit-identical to
/// `dynamic-wgtaug` for every shard count, thread count, and batch size,
/// so the same Fact 1.3 floor holds after every batch. The speculation
/// telemetry keys (`plans_replayed`, `plan_fallbacks`, `overlap_groups`,
/// `balls_parallel`) read 0, and `plans_inline` counts every update.
#[derive(Debug, Clone, Copy, Default)]
pub struct DynamicSharded;

impl Solver for DynamicSharded {
    fn name(&self) -> &'static str {
        "dynamic-sharded"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            models: &[ModelKind::Dynamic],
            objective: Objective::Weight,
            bipartite_only: false,
            exact: false,
            // bit-identical to the sequential engine → same Fact 1.3 floor
            approx_floor: 0.5,
            theorem: "Fact 1.3 (sharded batched dynamic driver)",
        }
    }

    fn solve(
        &self,
        instance: &Instance,
        request: &SolveRequest,
    ) -> Result<SolveReport, SolveError> {
        let updates = admit(self, instance, request)?;
        let t0 = Instant::now();
        let mut engine =
            ShardedMatcher::from_graph(instance.graph(), dynamic_cfg(request), request.shards)
                .map_err(update_error)?;
        let mut peak_live = engine.graph().live_edges();
        let start = Instant::now();
        // peak_live is sampled per 4096-op batch, not per op
        let mut offset = 0usize;
        for chunk in updates.chunks(4096) {
            engine.apply_all(chunk).map_err(|mut e| {
                e.applied += offset; // report stream-relative progress
                batch_error(e)
            })?;
            offset += chunk.len();
            peak_live = peak_live.max(engine.graph().live_edges());
        }
        let run = Replay {
            t0,
            elapsed: start.elapsed(),
            peak_live,
            updates: updates.len(),
        };
        let specific = vec![
            ("shards", engine.shard_count().to_string()),
            ("plans_replayed", engine.replayed().to_string()),
            ("plan_fallbacks", engine.fallbacks().to_string()),
            (
                "plans_inline",
                engine.counters().updates_applied.to_string(),
            ),
            ("overlap_groups", engine.overlap_groups().to_string()),
            ("balls_parallel", engine.balls_parallel().to_string()),
        ];
        Ok(report(
            self.name(),
            request,
            &engine,
            run,
            engine.steals(),
            engine.scratch_high_water(),
            specific,
        ))
    }
}
