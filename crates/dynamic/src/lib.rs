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
//! searches only the walks through those seed vertices, in place on the
//! live graph and matching: the exhaustive
//! [`AugSearcher`](wmatch_graph::aug_search::AugSearcher) from
//! `wmatch-graph` runs its DFS from each seed, and once more from the
//! seed for each alternating prefix that leaves it along its matched
//! edge, so it enumerates exactly the walks of at most `max_len` edges
//! through a seed. Every search keeps one order-free winner — the
//! largest gain, an exact tie going to the least effect (the sorted keys
//! of the edges added, then removed) — so the local search returns
//! exactly what a scan of the whole graph would. It is the same searcher
//! (and the same epoch-stamped [`Scratch`](wmatch_graph::Scratch) arenas)
//! the offline machinery runs on, so the dynamic and static notions of
//! "no short augmentation" agree by construction. Whole-graph restores — the
//! bootstrap and the sentinel heal — run its `converge` loop, which
//! re-searches only the starts with an alternating walk to a vertex each
//! applied augmentation changed; the heal runs it in place on the live
//! graph.
//!
//! The off-by-default `lockstep` cargo feature checks every local search
//! against the full scan of its plain radius-`max_len` ball, and every
//! `converge` round's cached gains, panicking on any difference;
//! `lockstep_checks()` (under the feature) counts the local searches it
//! checked.
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
//! bit-identical to it for any shard, thread, or batch count. The
//! `threads` knob is accepted but decides nothing: the crate has no
//! parallel layer. Without a WAL, the sentinel heals by one global
//! restore of the invariant, warm from the surviving matching, which also
//! settles any deferred repairs; its recourse is the diff against the
//! matching it started from.
//!
//! The engine does not run Algorithm 3's weight-class sweep, which
//! promises progress only while `w(M) < (1 − ε)·w(M*)`: the maintained
//! matchings already certify close to optimum (the shootout's
//! `oracle_ratio` in `BENCH_dynamic.json`).
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

/// The local searches the `lockstep` feature has checked against the
/// full scan of their ball in this process.
#[cfg(feature = "lockstep")]
pub fn lockstep_checks() -> u64 {
    repair::lockstep::CHECKED.load(std::sync::atomic::Ordering::Relaxed)
}
