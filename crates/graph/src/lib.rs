//! Graph and matching substrate for the `wmatch` workspace.
//!
//! This crate provides everything the algorithms in
//! [*Weighted Matchings via Unweighted Augmentations*](https://arxiv.org/abs/1811.02760)
//! (Gamlath, Kale, Mitrović, Svensson — PODC 2019) are built on:
//!
//! * [`Graph`] / [`Edge`] — undirected graphs with positive integer edge
//!   weights (the paper's model: weights are positive integers bounded by
//!   `poly(n)`),
//! * [`Matching`] — a matching with O(1) mate queries and weight tracking,
//! * [`alternating`] — alternating paths/cycles, matching neighbourhoods and
//!   augmentation gains (Definitions 4.2–4.5 of the paper),
//! * [`generators`] — random and adversarial instance families, including the
//!   exact graphs from the paper's figures,
//! * [`exact`] — exact matching solvers used as ground truth: Hopcroft–Karp,
//!   Hungarian (successive shortest paths), unweighted blossom, and Galil's
//!   maximum-weight general matching,
//! * [`aug_search`] — exhaustive short-augmentation search that verifies
//!   and maintains Fact 1.3: a full scan, a scan anchored at seed
//!   vertices, and a converge loop that re-searches only the starts that
//!   reach each applied augmentation, both bounded by the alternating
//!   reach of a parity BFS,
//! * [`csr`] / [`scratch`] — the flat hot-path substrate: cached CSR
//!   adjacency views ([`CsrView`]) and epoch-stamped scratch arenas
//!   ([`Scratch`]) that keep the per-round neighbourhood scans of
//!   Algorithm 3/4 allocation-free,
//! * [`pool`] — the persistent deterministic worker pool ([`WorkerPool`])
//!   behind every parallel layer: the Algorithm 3 class sweep, Algorithm 4
//!   candidate scoring, and the MPC simulator's per-machine rounds.
//!
//! # Example
//!
//! ```
//! use wmatch_graph::{Graph, Matching};
//!
//! let mut g = Graph::new(4);
//! g.add_edge(0, 1, 5);
//! g.add_edge(1, 2, 7);
//! g.add_edge(2, 3, 5);
//!
//! let mut m = Matching::new(g.vertex_count());
//! m.insert(g.edge(1)).unwrap(); // match {1,2} of weight 7
//! assert_eq!(m.weight(), 7);
//! assert_eq!(m.mate(1), Some(2));
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod alternating;
pub mod aug_search;
pub mod csr;
pub mod edge;
pub mod error;
pub mod exact;
pub mod generators;
pub mod graph;
pub mod matching;
pub mod pool;
pub mod scratch;

pub use alternating::Augmentation;
pub use csr::CsrView;
pub use edge::{Edge, Vertex};
pub use error::GraphError;
pub use graph::Graph;
pub use matching::Matching;
pub use pool::WorkerPool;
pub use scratch::Scratch;

/// Total weight of a slice of edges as a wide integer (cannot overflow for
/// any realistic instance: `u64` weights summed into `i128`).
pub fn total_weight(edges: &[Edge]) -> i128 {
    edges.iter().map(|e| e.weight as i128).sum()
}
