//! # `wmatch-dynamic` — the fully-dynamic arrival model
//!
//! An update-stream engine that maintains an approximate maximum-weight
//! matching under interleaved edge insertions and deletions, built from
//! the paper's central primitive: *short unweighted augmentations repair
//! a weighted matching*.
//!
//! The engine ([`DynamicMatcher`]) keeps the invariant that the
//! maintained matching admits **no positive augmentation of at most
//! `max_len` edges** (with the paper's Definition 4.4 matching-
//! neighbourhood gain semantics). By Fact 1.3, with `max_len = 2ℓ − 1`
//! this certifies a `(1 − 1/ℓ)` approximation after *every* update —
//! the default `max_len = 3` gives the ½ floor the facade declares.
//!
//! What makes the invariant cheap to maintain is locality: an insertion
//! can only create new improving components *through the new edge*, a
//! deletion only ones *touching the freed endpoints*, and an applied
//! repair only ones touching the vertices it changed. So each update
//! builds just the *alternating ball* of those seed vertices — every
//! vertex with an alternating walk of at most `max_len` edges to a seed,
//! found by the [`ParityBfs`](wmatch_graph::aug_search::ParityBfs) —
//! relabels it into a compact sub-instance, and hands it to the exhaustive
//! [`AugSearcher`](wmatch_graph::aug_search::AugSearcher) from
//! `wmatch-graph` with each vertex's parity distances to the seeds: the
//! search never extends a walk that cannot reach a seed by an
//! alternating walk in the edges left, and returns exactly what a scan
//! of the whole radius-`max_len` ball would. A rim vertex (at parity
//! distance `max_len`) can only be the far end of such a walk, so the
//! sub-instance leaves out the edges between rim vertices and the search
//! starts no walk at the rim. It is the same searcher (and the
//! same epoch-stamped [`Scratch`](wmatch_graph::Scratch) arenas) the
//! offline machinery runs on, so the dynamic and static notions of "no
//! short augmentation" agree by construction. Whole-graph restores — the
//! bootstrap, rebuild epochs, the sentinel heal — run its `converge`
//! loop, which re-searches only the starts with an alternating walk to a
//! vertex each applied augmentation changed.
//!
//! *When* the repair runs is the engine's [`RepairPolicy`]: eagerly after
//! every update (the default), under a per-update augmentation budget
//! whose leftover carries forward, or deferred over a window of updates
//! and flushed in one batch. Every policy keeps the matching valid after
//! every update through one op-validity rule (swap in a heavier parallel
//! copy, drop a dead matched copy) and certifies the same floor once
//! flushed. The [`UpdateEngine`] trait puts every engine in the crate —
//! the policies, the [`ShardedMatcher`], the [`RandomWalkMatcher`]
//! competitor and the [`RecomputeBaseline`] — behind one surface, with
//! one provided [`UpdateEngine::certify_checkpoint`].
//!
//! The [`ShardedMatcher`] is the serve-path engine: batched ingest with a
//! write-ahead log, seeded fault injection ([`ChaosInjector`]) and an
//! invariant sentinel around each batch, whose ops commit through the
//! same sequential per-op path as [`DynamicMatcher`] — so it is
//! bit-identical to it for any shard, thread, or batch count.
//!
//! For batched update epochs, the engine periodically runs a *rebuild*:
//! one or more rounds of Algorithm 3's weight-class sweep
//! ([`wmatch_core::main_alg::improve_matching_offline_pooled`]) on the
//! live snapshot, warm-started from the maintained matching and executed
//! on a persistent [`WorkerPool`](wmatch_graph::WorkerPool) — with the
//! same bit-identical-for-any-`threads` determinism contract as every
//! other parallel layer in the workspace — followed by a global
//! invariant restore.
//!
//! # Example
//!
//! ```
//! use wmatch_dynamic::{DynamicConfig, DynamicMatcher, UpdateOp};
//!
//! let mut eng = DynamicMatcher::new(4, DynamicConfig::default());
//! eng.apply(UpdateOp::insert(0, 1, 5)).unwrap();
//! eng.apply(UpdateOp::insert(1, 2, 9)).unwrap();
//! assert_eq!(eng.matching().weight(), 9); // the heavier edge wins
//! eng.apply(UpdateOp::delete(1, 2)).unwrap();
//! assert_eq!(eng.matching().weight(), 5); // repaired from {0,1}
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod certifier;
pub mod chaos;
pub mod degraded;
pub mod dyngraph;
pub mod engine;
pub mod error;
pub mod randomwalk;
mod repair;
pub mod sharded;
pub mod update;
pub mod wal;

pub use certifier::CheckpointCertificate;
pub use chaos::{ChaosConfig, ChaosCounters, ChaosInjector};
pub use degraded::{DegradedStats, RetryPolicy, ServeDriver};
pub use dyngraph::DynGraph;
pub use engine::{
    static_bounded_matching, BatchError, BatchStats, DynamicConfig, DynamicCounters,
    DynamicMatcher, RecomputeBaseline, RepairPolicy, UpdateEngine, UpdateStats,
};
pub use error::DynamicError;
pub use randomwalk::{RandomWalkConfig, RandomWalkMatcher};
pub use sharded::ShardedMatcher;
pub use update::UpdateOp;
pub use wal::{RecoveryReport, WalConfig};
