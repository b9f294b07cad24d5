//! # `wmatch-api` — the unified solver facade
//!
//! One trait, one request/report contract, one registry over every
//! matching algorithm in the `wmatch` workspace.
//!
//! The paper's thesis is a *generic reduction*: weighted matching reduces
//! to unweighted augmentations regardless of the computational model.
//! This crate makes that uniformity concrete at the API level. An
//! [`Instance`] is a graph plus an [`ArrivalModel`] (offline,
//! random-order stream, adversarial stream, MPC, or a fully-dynamic
//! insert/delete update stream); a [`SolveRequest`]
//! carries the validated run parameters (ε, seed, budgets, threads); every
//! algorithm is a [`Solver`] returning a [`SolveReport`] with the
//! [`Matching`](wmatch_graph::Matching) plus uniform [`Telemetry`]
//! (rounds, passes, stored-edge peak, wall time) and an optional
//! approximation [`Certificate`] against the exact oracle. Failures are
//! typed [`SolveError`]s, never panics.
//!
//! ## Registry
//!
//! | solver | paper result | model(s) | objective | exact |
//! |---|---|---|---|---|
//! | `main-alg-offline` | Theorem 1.2/4.1, Algorithms 3–4 | offline | weight | no (1−ε) |
//! | `main-alg-streaming` | Theorem 1.2.2 | adversarial, random-order | weight | no (1−ε) |
//! | `main-alg-mpc` | Theorem 1.2.1 | MPC | weight | no (1−ε) |
//! | `rand-arr-matching` | Theorem 1.1, Algorithm 2 | random-order | weight | no (½+c) |
//! | `dynamic-wgtaug` | Fact 1.3 repair loop (update streams) | dynamic | weight | no (½) |
//! | `dynamic-sharded` | Fact 1.3 sharded batched engine | dynamic | weight | no (½) |
//! | `dynamic-rebuild` | Fact 1.3 recompute-from-scratch baseline | dynamic | weight | no (½) |
//! | `dynamic-randomwalk` | local dominance via seeded random-walk repair (cf. arXiv:2104.13098) | dynamic | weight | no (½) |
//! | `dynamic-lazy` | Fact 1.3 under a per-update work budget (`RepairPolicy::Budget`), restored at flush | dynamic | weight | no (½) |
//! | `dynamic-stale` | Fact 1.3 with ε-stale deferred repair (`RepairPolicy::Window`), restored at flush | dynamic | weight | no (½) |
//! | `random-order-unweighted` | Theorem 3.4 | random-order | cardinality | no (0.506) |
//! | `greedy` | folklore ½ baseline | offline, streams | weight | no |
//! | `local-ratio` | \[PS17\], Section 3.2 | offline, streams | weight | no |
//! | `blossom` | exact oracle (Galil) | offline | weight | yes |
//! | `hungarian` | exact oracle (bipartite) | offline | weight | yes |
//! | `oracle-lekm` | exact oracle: slack-array Hungarian, certified duals, warm-startable | offline | weight | yes |
//! | `hopcroft-karp` | offline `Unw-Bip-Matching` box | offline | cardinality | yes |
//! | `stream-mcm` | streaming `Unw-Bip-Matching` box (\[AG13\] role) | streams | cardinality | no |
//! | `mpc-mcm` | MPC coreset box (\[ABB+19\]/\[GGK+18\] role) | MPC | cardinality | no |
//!
//! ## One solve per arrival model
//!
//! ```
//! use wmatch_api::{registry_for, solve, Instance, SolveRequest};
//! use wmatch_graph::generators::{gnp, WeightModel};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let g = gnp(24, 0.25, WeightModel::Uniform { lo: 1, hi: 64 }, &mut rng);
//! let req = SolveRequest::new().with_seed(7);
//!
//! // offline: the (1-eps) layered-graph machinery
//! let offline = solve("main-alg-offline", &Instance::offline(g.clone()), &req).unwrap();
//! offline.matching.validate(Some(&g)).unwrap();
//!
//! // single-pass random-order stream: Algorithm 2
//! let ra = solve("rand-arr-matching", &Instance::random_order(g.clone(), 3), &req).unwrap();
//! assert_eq!(ra.telemetry.passes, 1);
//!
//! // multi-pass adversarial stream
//! let st = solve("main-alg-streaming", &Instance::adversarial(g.clone()), &req).unwrap();
//! assert!(st.telemetry.passes <= st.telemetry.extra("passes_sequential").unwrap().parse().unwrap());
//!
//! // MPC: 4 machines x 4000 words
//! let mpc = solve("main-alg-mpc", &Instance::mpc(g.clone(), 4, 4000), &req).unwrap();
//! assert!(mpc.value > 0);
//!
//! // fully dynamic: maintain the matching under inserts and deletes
//! use wmatch_api::UpdateOp;
//! let ops = vec![UpdateOp::insert(0, 1, 4), UpdateOp::insert(1, 2, 6), UpdateOp::delete(1, 2)];
//! let dy = solve("dynamic-wgtaug", &Instance::dynamic(wmatch_graph::Graph::new(3), ops), &req).unwrap();
//! assert_eq!(dy.value, 4); // repaired back to {0,1} after the delete
//! assert_eq!(dy.telemetry.extra("updates_applied"), Some("3"));
//!
//! // or enumerate everything that can run on an instance
//! for s in registry_for(&Instance::offline(g.clone())) {
//!     let report = s.solve(&Instance::offline(g.clone()), &req).unwrap();
//!     report.matching.validate(Some(&g)).unwrap();
//! }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod capabilities;
pub mod error;
pub mod instance;
pub mod registry;
pub mod report;
pub mod request;
pub mod solvers;

pub use capabilities::{Capabilities, ModelKind, Objective};
pub use error::SolveError;
pub use instance::{ArrivalModel, Instance};
pub use registry::{registry, registry_for, solve, solver};
pub use report::{objective_value, Certificate, SolveReport, Telemetry};
pub use request::{Effort, SolveRequest, MAX_AUG_DEPTH, MAX_BUDGET, MAX_THREADS, MAX_WALK_LEN};
pub use solvers::Solver;
// the dynamic model's update vocabulary, re-exported so facade consumers
// can build `Instance::dynamic` sequences without naming wmatch-dynamic
pub use wmatch_dynamic::UpdateOp;
