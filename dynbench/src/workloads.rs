//! The four workloads and their timed rounds.
//!
//! A run replays *cycles* until `--seconds` is spent, always at least
//! one. A cycle is one round per instance, and the instances are
//! independent streams drawn from the run's seed, so a run's figures
//! average over several graphs instead of resting on one. A round
//! builds a fresh engine (the timed set-up), drives the instance's ops
//! through it in a closed loop — one caller, each call awaited, no
//! pacing — and ends with its checks. Every cycle replays the same ops
//! from the same starts, so a round must commit the same state as the
//! same instance's first round (anything else is a fatal determinism
//! failure), and the per-seed counts (`recourse_per_op`,
//! `certified_ratio`) do not depend on how many cycles fit.

use std::time::{Duration, Instant};

use wmatch_dynamic::{
    DynamicConfig, DynamicMatcher, RetryPolicy, ServeDriver, ShardedMatcher, WalConfig,
};
use wmatch_graph::aug_search::AugSearcher;
use wmatch_graph::exact::max_weight_matching;
use wmatch_oracle::IncrementalCertifier;

use crate::checks::{fact13, same_recovery, same_state, Checkpoints, Digest, Fatal};
use crate::stats::{nearest_rank, tail_percentile, Samples};
use crate::streams::{self, Stream};
use crate::trace::{SpanId, Tracer, NO_PARENT};

/// Ops per `ServeDriver::serve` call on the marketplace workloads.
pub const BATCH: usize = 256;
/// Vertex shards of the marketplace engine.
pub const SHARDS: usize = 8;
/// Batches between warm `certify_checkpoint` calls.
pub const CERTIFY_EVERY: usize = 50;
/// Batches between `simulate_crash` + `recover` pairs.
pub const CRASH_EVERY: usize = 97;
/// Churn workloads: Fact 1.3 checks per exact blossom checkpoint (the
/// blossom takes about 20 of them at n = 2000).
pub const BLOSSOM_EVERY: usize = 4;

/// A benchmark workload. Every one runs the engine at threads = 1; the
/// threads = 2 path is checked on every `marketplace-serve` run and
/// timed in the traced run (see README.md for why it is not a workload
/// of its own).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The bipartite marketplace through `ServeDriver`.
    MarketplaceServe,
    /// `HeavyChurn` through `DynamicMatcher::apply`.
    HeavyChurn,
    /// `DeleteMatching` through `DynamicMatcher::apply`.
    DeleteMatching,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::MarketplaceServe,
        Workload::HeavyChurn,
        Workload::DeleteMatching,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MarketplaceServe => "marketplace-serve",
            Workload::HeavyChurn => "heavy-churn",
            Workload::DeleteMatching => "delete-matching",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether this is the marketplace workload.
    pub fn is_marketplace(self) -> bool {
        self == Workload::MarketplaceServe
    }
}

/// How big one workload's rounds are.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Vertices.
    pub n: usize,
    /// Timed calls per round: batches on the marketplace, updates on
    /// the churn workloads.
    pub calls: usize,
    /// Churn workloads: updates between Fact 1.3 checks (divides
    /// `calls`, so the last check closes the round).
    pub check_every: usize,
    /// Independent instances per cycle.
    pub instances: usize,
    /// Batches of the traced run's isolation replays.
    pub isolate_batches: usize,
}

impl Sizes {
    /// The benchmark's sizes: each engine's state stays a few MiB, a
    /// round takes one to five seconds on a 2-vCPU host, and one cycle
    /// alone makes over 1000 timed calls, enough for a p99 with ten
    /// calls beyond it.
    pub fn of(w: Workload) -> Sizes {
        if w.is_marketplace() {
            Sizes {
                n: 10_000,
                calls: 11 * CRASH_EVERY,
                check_every: 0,
                instances: 1,
                isolate_batches: 5 * CRASH_EVERY,
            }
        } else {
            Sizes {
                n: 2_000,
                calls: 2_000,
                check_every: 250,
                instances: 4,
                isolate_batches: 4,
            }
        }
    }

    /// `certify_ms` samples per round.
    pub fn checks(&self, w: Workload) -> usize {
        if w.is_marketplace() {
            1 + self.calls / CERTIFY_EVERY
        } else {
            self.calls / self.check_every
        }
    }

    /// Recoveries per round.
    pub fn recoveries(&self, w: Workload) -> usize {
        if w.is_marketplace() {
            self.calls / CRASH_EVERY
        } else {
            1
        }
    }
}

/// One generated instance of a workload.
#[derive(Debug)]
pub struct Instance {
    /// The stream; a round replays `ops[..warm + calls·ops_per_call]`.
    pub stream: Stream,
    /// Marketplace bipartition (`false` = left); empty otherwise.
    pub side: Vec<bool>,
    /// Leading ops applied during set-up (the marketplace warm-up that
    /// fills the listing window); 0 for the churn workloads.
    pub warm: usize,
}

impl Instance {
    /// The `sizes.instances` instances of `w` drawn from `seed`;
    /// instance 0 is the stream the report harness builds at `seed`.
    pub fn generate_all(w: Workload, sizes: &Sizes, seed: u64) -> Vec<Instance> {
        (0..sizes.instances as u64)
            .map(|i| {
                Instance::generate(
                    w,
                    sizes,
                    seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                )
            })
            .collect()
    }

    /// One instance of `w` at `sizes` from `seed`.
    pub fn generate(w: Workload, sizes: &Sizes, seed: u64) -> Instance {
        match w {
            Workload::MarketplaceServe => {
                let window = (sizes.n / 2).max(8);
                let (stream, side, warm) =
                    streams::marketplace_bipartite(sizes.n, window + sizes.calls * BATCH, seed);
                Instance { stream, side, warm }
            }
            Workload::HeavyChurn => Instance {
                stream: streams::heavy_churn(sizes.n, sizes.calls, seed),
                side: Vec::new(),
                warm: 0,
            },
            Workload::DeleteMatching => Instance {
                stream: streams::delete_matching(sizes.n, sizes.calls, seed),
                side: Vec::new(),
                warm: 0,
            },
        }
    }
}

/// Everything the rounds of one run accumulate. Sample buffers are
/// sized for `max_rounds` rounds up front.
#[derive(Debug)]
pub struct Totals {
    /// Nanoseconds of each timed call.
    pub calls: Samples,
    /// Updates applied by the timed calls.
    pub updates: u64,
    /// Matching edges changed by the timed updates.
    pub recourse: u64,
    /// Set-up seconds of each round, in ns.
    pub setup: Samples,
    /// Each certification checkpoint, in ns.
    pub certify: Samples,
    /// Each crash recovery, in ns.
    pub recover: Samples,
    /// Checkpoint ratios against the declared floor.
    pub checkpoints: Checkpoints,
    /// Ops and checkpoints attempted.
    pub attempted: u64,
    /// Ops rejected, skipped or unapplied, and checkpoints below floor.
    pub failed: u64,
    /// Rounds completed.
    pub rounds: usize,
    /// Each cycle's nearest-rank median call, in ns.
    pub cycle_p50: Samples,
    /// Each cycle's nearest-rank p99 call, in ns.
    pub cycle_p99: Samples,
    cycle_start: usize,
    cycle_sorted: Vec<u64>,
    /// Per instance, the state each of its rounds must commit (set by
    /// its first round).
    pub digests: Vec<Option<Digest>>,
    before: Digest,
    after: Digest,
    searcher: AugSearcher,
}

impl Totals {
    /// Buffers for up to `max_rounds` rounds of `w` at `sizes`.
    pub fn new(w: Workload, sizes: &Sizes, max_rounds: usize) -> Totals {
        let floor = DynamicConfig::default().certified_floor();
        Totals {
            calls: Samples::with_capacity(sizes.calls * max_rounds),
            updates: 0,
            recourse: 0,
            setup: Samples::with_capacity(max_rounds),
            certify: Samples::with_capacity(sizes.checks(w) * max_rounds),
            recover: Samples::with_capacity(sizes.recoveries(w) * max_rounds),
            checkpoints: Checkpoints::new(floor),
            attempted: 0,
            failed: 0,
            rounds: 0,
            cycle_p50: Samples::with_capacity(max_rounds),
            cycle_p99: Samples::with_capacity(max_rounds),
            cycle_start: 0,
            cycle_sorted: Vec::with_capacity(sizes.instances * sizes.calls),
            digests: vec![None; sizes.instances],
            before: Digest::with_capacity(sizes.n / 2),
            after: Digest::with_capacity(sizes.n / 2),
            searcher: AugSearcher::new(),
        }
    }

    /// Whether another cycle's samples still fit.
    pub fn has_room(&self, w: Workload, sizes: &Sizes) -> bool {
        let k = sizes.instances;
        self.calls.room() >= k * sizes.calls
            && self.setup.room() >= k
            && self.certify.room() >= k * sizes.checks(w)
            && self.recover.room() >= k * sizes.recoveries(w)
    }

    /// Closes a cycle: the nearest-rank median and p99 of its calls.
    /// A cycle makes over 1000 calls, so the p99 has at least
    /// [`MIN_BEYOND`](crate::stats::MIN_BEYOND) calls beyond it; fewer
    /// is fatal.
    fn end_cycle(&mut self) -> Result<(), Fatal> {
        self.cycle_sorted.clear();
        self.cycle_sorted
            .extend_from_slice(&self.calls.as_slice()[self.cycle_start..]);
        self.cycle_sorted.sort_unstable();
        let p50 = nearest_rank(&self.cycle_sorted, 1, 2).ok_or("a cycle made no timed call")?;
        self.cycle_p50.push(p50);
        self.cycle_p99
            .push(tail_percentile(&self.cycle_sorted, 99, 100)?);
        self.cycle_start = self.calls.len();
        Ok(())
    }

    /// Compares the round's final state with its instance's first
    /// round.
    fn end_round(&mut self, instance: usize) -> Result<(), Fatal> {
        self.rounds += 1;
        match &self.digests[instance] {
            None => self.digests[instance] = Some(self.after.clone()),
            Some(first) => same_state(&format!("instance {instance} round"), first, &self.after)?,
        }
        Ok(())
    }
}

fn ns_between(t0: Instant, t1: Instant) -> u64 {
    t1.saturating_duration_since(t0).as_nanos() as u64
}

/// One round of `heavy-churn` or `delete-matching`: bootstrap with
/// `DynamicMatcher::from_graph`, one `apply` per update, a Fact 1.3
/// check every `check_every` updates and an exact blossom ratio at every
/// [`BLOSSOM_EVERY`]-th check and the last, then a crash: the engine is
/// dropped and rebuilt from its live graph.
pub fn churn_round(
    inputs: &Instance,
    instance: usize,
    sizes: &Sizes,
    acc: &mut Totals,
    mut tracer: Option<&mut Tracer>,
) -> Result<(), Fatal> {
    let cfg = DynamicConfig::default();
    let round = open(&mut tracer, "round", NO_PARENT, (0, sizes.calls));
    let t = Instant::now();
    let mut eng = DynamicMatcher::from_graph(&inputs.stream.initial, cfg)
        .map_err(|e| format!("bootstrap rejected the initial graph: {e}"))?;
    let t1 = Instant::now();
    acc.setup.push(ns_between(t, t1));
    record(&mut tracer, "setup.from_graph", round, t, t1, (0, 0));

    let ops = &inputs.stream.ops[..sizes.calls];
    for (i, &op) in ops.iter().enumerate() {
        let t0 = Instant::now();
        let res = eng.apply(op);
        let t1 = Instant::now();
        acc.calls.push(ns_between(t0, t1));
        record(&mut tracer, "engine.apply", round, t0, t1, (i, i + 1));
        acc.attempted += 1;
        match res {
            Ok(st) => acc.recourse += st.recourse,
            Err(_) => acc.failed += 1,
        }
        if (i + 1) % sizes.check_every == 0 {
            let check = (i + 1) / sizes.check_every;
            let t0 = Instant::now();
            let snap = eng.graph().snapshot();
            fact13(
                "checkpoint",
                &snap,
                eng.matching(),
                cfg.max_len,
                &mut acc.searcher,
            )?;
            let t1 = Instant::now();
            acc.certify.push(ns_between(t0, t1));
            record(&mut tracer, "check.fact13", round, t0, t1, (0, i + 1));
            if !check.is_multiple_of(BLOSSOM_EVERY) && i + 1 != ops.len() {
                continue;
            }
            let t0 = Instant::now();
            let optimum = max_weight_matching(&snap).weight();
            record(
                &mut tracer,
                "oracle.blossom",
                round,
                t0,
                Instant::now(),
                (0, i + 1),
            );
            let ratio = if optimum == 0 {
                1.0
            } else {
                eng.matching().weight() as f64 / optimum as f64
            };
            checkpoint(acc, ratio);
        }
    }
    acc.updates += ops.len() as u64;
    acc.after.capture(eng.matching(), &eng.counters());

    // no WAL on this engine: it recovers by bootstrapping its live graph
    let durable = eng.graph().snapshot();
    drop(eng);
    let t0 = Instant::now();
    let rebuilt = DynamicMatcher::from_graph(&durable, cfg)
        .map_err(|e| format!("recover: bootstrap rejected the live graph: {e}"))?;
    let t1 = Instant::now();
    acc.recover.push(ns_between(t0, t1));
    record(&mut tracer, "recover.from_graph", round, t0, t1, (0, 0));
    fact13(
        "recover",
        &durable,
        rebuilt.matching(),
        cfg.max_len,
        &mut acc.searcher,
    )?;
    close(&mut tracer, round);
    acc.end_round(instance)
}

/// One round of a marketplace workload: warm-up, WAL and certifier as
/// set-up, then 256-op batches through `ServeDriver::serve` with a warm
/// `certify_checkpoint` every 50 batches and a `simulate_crash` +
/// `recover` every 97, each recovery checked bit for bit.
pub fn market_round(
    inputs: &Instance,
    instance: usize,
    sizes: &Sizes,
    threads: usize,
    acc: &mut Totals,
    mut tracer: Option<&mut Tracer>,
) -> Result<(), Fatal> {
    let cfg = DynamicConfig::default().with_threads(threads);
    let warm = inputs.warm;
    let round = open(
        &mut tracer,
        "round",
        NO_PARENT,
        (0, warm + sizes.calls * BATCH),
    );
    let t = Instant::now();
    let mut eng = ShardedMatcher::new(inputs.stream.n, cfg, SHARDS);
    let mut driver = ServeDriver::new(RetryPolicy::default());
    let warmed = driver.serve(&mut eng, &inputs.stream.ops[..warm]);
    eng.enable_wal(WalConfig::default());
    let mut cert = IncrementalCertifier::new(inputs.side.clone());
    let first = eng
        .certify_checkpoint(&mut cert)
        .map_err(|e| format!("certifier rejected the warm-up graph: {e}"))?;
    let t1 = Instant::now();
    acc.setup.push(ns_between(t, t1));
    record(&mut tracer, "setup.warm_up", round, t, t1, (0, warm));
    acc.attempted += warm as u64 + 1;
    acc.failed += (warm - warmed.applied) as u64;
    checkpoint(acc, first.ratio);

    let ops = &inputs.stream.ops[warm..warm + sizes.calls * BATCH];
    for (b, batch) in ops.chunks_exact(BATCH).enumerate() {
        let lo = warm + b * BATCH;
        let t0 = Instant::now();
        let st = driver.serve(&mut eng, batch);
        let t1 = Instant::now();
        acc.calls.push(ns_between(t0, t1));
        record(&mut tracer, "driver.serve", round, t0, t1, (lo, lo + BATCH));
        acc.attempted += BATCH as u64;
        acc.failed += (BATCH - st.applied.min(BATCH)) as u64;
        acc.recourse += st.recourse;
        if (b + 1) % CERTIFY_EVERY == 0 {
            let t0 = Instant::now();
            let ck = eng
                .certify_checkpoint(&mut cert)
                .map_err(|e| format!("certifier rejected the live graph: {e}"))?;
            let t1 = Instant::now();
            acc.certify.push(ns_between(t0, t1));
            record(
                &mut tracer,
                "oracle.certify_checkpoint",
                round,
                t0,
                t1,
                (0, lo + BATCH),
            );
            checkpoint(acc, ck.ratio);
        }
        if (b + 1) % CRASH_EVERY == 0 {
            let counters = eng.counters();
            acc.before.capture(eng.matching(), &counters);
            let t0 = Instant::now();
            eng.simulate_crash();
            eng.recover().ok_or("recover: no WAL enabled")?;
            let t1 = Instant::now();
            acc.recover.push(ns_between(t0, t1));
            record(
                &mut tracer,
                "wal.crash_recover",
                round,
                t0,
                t1,
                (0, lo + BATCH),
            );
            acc.after.capture(eng.matching(), &eng.counters());
            same_recovery(&acc.before, &counters, &acc.after, &eng.counters())?;
        }
    }
    acc.updates += ops.len() as u64;
    driver.finish(&mut eng);
    let snap = eng.graph().snapshot();
    fact13(
        "final",
        &snap,
        eng.matching(),
        cfg.max_len,
        &mut acc.searcher,
    )?;
    acc.after.capture(eng.matching(), &eng.counters());
    close(&mut tracer, round);
    acc.end_round(instance)
}

fn checkpoint(acc: &mut Totals, ratio: f64) {
    let below = acc.checkpoints.below_floor;
    acc.checkpoints.record(ratio);
    acc.attempted += 1;
    acc.failed += acc.checkpoints.below_floor - below;
}

/// Runs one round of `w` on instance `instance`.
pub fn round(
    w: Workload,
    inputs: &[Instance],
    instance: usize,
    sizes: &Sizes,
    threads: usize,
    acc: &mut Totals,
    tracer: Option<&mut Tracer>,
) -> Result<(), Fatal> {
    let inst = &inputs[instance];
    if w.is_marketplace() {
        market_round(inst, instance, sizes, threads, acc, tracer)
    } else {
        churn_round(inst, instance, sizes, acc, tracer)
    }
}

/// Runs cycles of `w` until `budget` is spent: a cycle starts only if
/// the longest cycle so far still fits, and at least one always runs.
pub fn run_cycles(
    w: Workload,
    inputs: &[Instance],
    sizes: &Sizes,
    budget: Duration,
    acc: &mut Totals,
) -> Result<(), Fatal> {
    let start = Instant::now();
    let mut longest = Duration::ZERO;
    loop {
        let t = Instant::now();
        for i in 0..inputs.len() {
            round(w, inputs, i, sizes, 1, acc, None)?;
        }
        acc.end_cycle()?;
        longest = longest.max(t.elapsed());
        if start.elapsed() + longest > budget || !acc.has_room(w, sizes) {
            return Ok(());
        }
    }
}

/// The threads = 2 gate of `marketplace-serve`: each instance, run once
/// more at threads = 2 (the speculate → replay path on the worker
/// pool), must commit the digest its threads = 1 rounds committed.
pub fn check_two_threads(
    inputs: &[Instance],
    sizes: &Sizes,
    one_thread: &Totals,
) -> Result<(), Fatal> {
    let mut two = Totals::new(Workload::MarketplaceServe, sizes, inputs.len());
    for (i, inst) in inputs.iter().enumerate() {
        market_round(inst, i, sizes, 2, &mut two, None)?;
    }
    for (one, two) in one_thread.digests.iter().zip(&two.digests) {
        let (Some(one), Some(two)) = (one, two) else {
            return Err("2t digest: an instance never ran".into());
        };
        same_state("2t digest vs threads = 1", one, two)?;
    }
    Ok(())
}

fn open(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: SpanId,
    ops: (usize, usize),
) -> SpanId {
    tracer
        .as_deref_mut()
        .map_or(NO_PARENT, |t| t.open(name, parent, ops))
}

fn close(tracer: &mut Option<&mut Tracer>, id: SpanId) {
    if let Some(t) = tracer.as_deref_mut() {
        t.close(id);
    }
}

fn record(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: SpanId,
    t0: Instant,
    t1: Instant,
    ops: (usize, usize),
) {
    if let Some(t) = tracer.as_deref_mut() {
        t.record(name, parent, t0, t1, ops);
    }
}
