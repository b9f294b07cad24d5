//! The cross-thread-count determinism contract: for a fixed seed, every
//! parallel layer — the Algorithm 3 class sweep, Algorithm 4 candidate
//! scoring, and the MPC simulator's machine rounds — must return a
//! matching **bit-identical** to the sequential run for any `threads`
//! value. The worker pool guarantees this by construction (deterministic
//! owner-indexed result slots, canonical-order commits); this suite is the
//! enforcement.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wmatch_api::{solve, Instance, SolveReport, SolveRequest};
use wmatch_graph::generators::{self, WeightModel};
use wmatch_graph::{Graph, WorkerPool};
use wmatch_mpc::{mpc_bipartite_mcm_pooled, MpcConfig, MpcMcmConfig, MpcSimulator};

/// The thread counts the contract is tested over (0 = one per core).
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 0];

fn offline_report(g: &Graph, seed: u64, threads: usize) -> SolveReport {
    solve(
        "main-alg-offline",
        &Instance::offline(g.clone()),
        &SolveRequest::new().with_seed(seed).with_threads(threads),
    )
    .expect("offline solver")
}

fn mpc_report(g: &Graph, seed: u64, threads: usize) -> SolveReport {
    solve(
        "main-alg-mpc",
        &Instance::mpc(g.clone(), 4, 50_000),
        &SolveRequest::new()
            .with_seed(seed)
            .with_threads(threads)
            .with_round_budget(6),
    )
    .expect("mpc solver")
}

/// Asserts the full bit-identity contract between two reports: same
/// matching edges, same objective value, same convergence trace.
fn assert_identical(want: &SolveReport, got: &SolveReport, label: &str) {
    assert_eq!(
        want.matching.to_edges(),
        got.matching.to_edges(),
        "{label}: matchings diverge"
    );
    assert_eq!(want.value, got.value, "{label}: weights diverge");
    assert_eq!(
        want.telemetry.trace, got.telemetry.trace,
        "{label}: traces diverge"
    );
}

/// A random graph with deliberate parallel edges: every ~4th edge is
/// re-added with a different weight.
fn parallel_edge_graph(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = generators::gnp(n, 0.3, WeightModel::Uniform { lo: 1, hi: 40 }, &mut rng);
    let mut g = Graph::new(n);
    for (i, e) in base.edges().iter().enumerate() {
        g.add_edge(e.u, e.v, e.weight);
        if i % 4 == 0 {
            g.add_edge(e.u, e.v, e.weight + 3);
        }
    }
    g
}

#[test]
fn offline_driver_identical_on_random_graphs() {
    let mut rng = StdRng::seed_from_u64(101);
    for seed in 0..3u64 {
        let g = generators::gnp(20, 0.3, WeightModel::Uniform { lo: 1, hi: 64 }, &mut rng);
        let want = offline_report(&g, seed, 1);
        for threads in THREAD_COUNTS {
            let got = offline_report(&g, seed, threads);
            assert_identical(&want, &got, &format!("gnp seed {seed} threads {threads}"));
        }
    }
}

#[test]
fn offline_driver_identical_on_parallel_edge_graphs() {
    for seed in 0..3u64 {
        let g = parallel_edge_graph(16, 300 + seed);
        let want = offline_report(&g, seed, 1);
        for threads in THREAD_COUNTS {
            let got = offline_report(&g, seed, threads);
            assert_identical(
                &want,
                &got,
                &format!("parallel-edge seed {seed} threads {threads}"),
            );
        }
    }
}

#[test]
fn offline_driver_identical_on_barrier_graphs() {
    // the planted 3-augmentation family: every class sweep carries work
    let g = generators::weighted_barrier_paths(8, 9);
    let want = offline_report(&g, 7, 1);
    assert!(want.value > 0, "barrier family must be improvable");
    for threads in THREAD_COUNTS {
        let got = offline_report(&g, 7, threads);
        assert_identical(&want, &got, &format!("barrier threads {threads}"));
    }
}

#[test]
fn mpc_driver_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(202);
    let g = generators::gnp(14, 0.3, WeightModel::Uniform { lo: 1, hi: 32 }, &mut rng);
    let want = mpc_report(&g, 5, 1);
    for threads in THREAD_COUNTS {
        let got = mpc_report(&g, 5, threads);
        assert_identical(&want, &got, &format!("mpc threads {threads}"));
        // the model's round accounting must not depend on the worker count
        assert_eq!(want.telemetry.rounds, got.telemetry.rounds);
    }
}

#[test]
fn mpc_mcm_facade_solver_identical_across_thread_counts() {
    // the registry's mpc-mcm box must honor the threads contract too
    let mut rng = StdRng::seed_from_u64(404);
    let (g, side) = generators::random_bipartite(20, 20, 0.2, WeightModel::Unit, &mut rng);
    let run = |threads: usize| {
        solve(
            "mpc-mcm",
            &Instance::mpc(g.clone(), 4, 20_000)
                .with_bipartition(side.clone())
                .unwrap(),
            &SolveRequest::new().with_seed(3).with_threads(threads),
        )
        .expect("mpc-mcm solver")
    };
    let want = run(1);
    for threads in THREAD_COUNTS {
        let got = run(threads);
        assert_eq!(
            want.matching.to_edges(),
            got.matching.to_edges(),
            "mpc-mcm threads {threads}"
        );
        assert_eq!(want.telemetry.rounds, got.telemetry.rounds);
        let workers: usize = got
            .telemetry
            .extra("workers_used")
            .expect("workers_used extra")
            .parse()
            .unwrap();
        assert_eq!(workers, wmatch_graph::pool::resolve_threads(threads));
    }
}

#[test]
fn dynamic_engine_identical_across_thread_counts() {
    // the dynamic-wgtaug solver accepts the knob but has no parallel
    // layer: maintained matching, value, and recourse counters must be
    // bit-identical for any threads
    use wmatch_api::UpdateOp;
    let mut rng = StdRng::seed_from_u64(505);
    let n = 24u32;
    let mut live: Vec<(u32, u32)> = Vec::new();
    let mut ops = Vec::new();
    for _ in 0..120 {
        if !live.is_empty() && live.len() > 40 {
            let i = (ops.len() * 7) % live.len();
            let (u, v) = live.swap_remove(i);
            ops.push(UpdateOp::delete(u, v));
        } else {
            let u = rng.gen_range(0..n);
            let mut v = rng.gen_range(0..n);
            if v == u {
                v = (v + 1) % n;
            }
            live.push((u, v));
            ops.push(UpdateOp::insert(u, v, rng.gen_range(1..50u64)));
        }
    }
    let inst = Instance::dynamic(Graph::new(n as usize), ops);
    let run = |threads: usize| {
        solve(
            "dynamic-wgtaug",
            &inst,
            &SolveRequest::new().with_seed(9).with_threads(threads),
        )
        .expect("dynamic solver")
    };
    let want = run(1);
    for threads in THREAD_COUNTS {
        let got = run(threads);
        assert_eq!(
            want.matching.to_edges(),
            got.matching.to_edges(),
            "dynamic threads {threads}"
        );
        assert_eq!(want.value, got.value, "dynamic threads {threads}");
        for key in ["updates_applied", "recourse_total", "augmentations_applied"] {
            assert_eq!(
                want.telemetry.extra(key),
                got.telemetry.extra(key),
                "dynamic threads {threads}: {key}"
            );
        }
    }
}

/// A mixed insert/delete stream on `n` vertices, deterministic in `seed`.
fn churn_ops(n: u32, len: usize, seed: u64) -> Vec<wmatch_api::UpdateOp> {
    use wmatch_api::UpdateOp;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<(u32, u32)> = Vec::new();
    let mut ops = Vec::new();
    for _ in 0..len {
        if live.len() > n as usize * 2 {
            let i = (ops.len() * 7) % live.len();
            let (u, v) = live.swap_remove(i);
            ops.push(UpdateOp::delete(u, v));
        } else {
            let u = rng.gen_range(0..n);
            let mut v = rng.gen_range(0..n);
            if v == u {
                v = (v + 1) % n;
            }
            live.push((u, v));
            ops.push(UpdateOp::insert(u, v, rng.gen_range(1..50u64)));
        }
    }
    ops
}

#[test]
fn competitor_solvers_identical_across_thread_counts() {
    // the shootout competitors share the determinism contract: with a
    // fixed seed the reported matching and the repair counters are
    // bit-identical for any threads value (no dynamic engine has a
    // parallel layer)
    let inst = Instance::dynamic(Graph::new(24), churn_ops(24, 120, 505));
    for solver in ["dynamic-randomwalk", "dynamic-lazy", "dynamic-stale"] {
        let run = |threads: usize| {
            solve(
                solver,
                &inst,
                &SolveRequest::new()
                    .with_seed(9)
                    .with_threads(threads)
                    .with_work_budget(2)
                    .with_staleness_bound(7),
            )
            .expect("competitor solver")
        };
        let want = run(1);
        for threads in THREAD_COUNTS {
            let got = run(threads);
            assert_eq!(
                want.matching.to_edges(),
                got.matching.to_edges(),
                "{solver} threads {threads}"
            );
            assert_eq!(want.value, got.value, "{solver} threads {threads}");
            for key in ["updates_applied", "recourse_total", "augmentations_applied"] {
                assert_eq!(
                    want.telemetry.extra(key),
                    got.telemetry.extra(key),
                    "{solver} threads {threads}: {key}"
                );
            }
        }
    }
}

#[test]
fn mpc_box_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(303);
    let (g, side) = generators::random_bipartite(30, 30, 0.15, WeightModel::Unit, &mut rng);
    let cfg = MpcMcmConfig::for_delta(0.1, 9);
    let run = |threads: usize| {
        let mut pool = WorkerPool::new(threads);
        let mut sim = MpcSimulator::new(MpcConfig::new(5, 4000));
        mpc_bipartite_mcm_pooled(&mut sim, g.edges().to_vec(), &side, &cfg, &mut pool).unwrap()
    };
    let want = run(1);
    for threads in THREAD_COUNTS {
        let got = run(threads);
        assert_eq!(
            want.matching.to_edges(),
            got.matching.to_edges(),
            "mpc box threads {threads}"
        );
        assert_eq!(want.rounds, got.rounds, "mpc box threads {threads}");
    }
}

fn arb_multigraph(max_n: usize, max_m: usize) -> impl Strategy<Value = Graph> {
    (4usize..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec(
            (0..n as u32, 0..n as u32, 1u64..=50, any::<bool>()),
            0..=max_m,
        )
        .prop_map(move |raw| {
            let mut g = Graph::new(n);
            for (u, v, w, dup) in raw {
                if u != v {
                    g.add_edge(u, v, w);
                    if dup {
                        // deliberate parallel edge
                        g.add_edge(u, v, w.saturating_add(1));
                    }
                }
            }
            g
        })
    })
}

proptest! {
    // Seed pinned for reproducibility: every run explores the same cases.
    #![proptest_config(ProptestConfig::with_cases(24).with_seed(0x7468_7264))] // b"thrd"

    /// Offline driver: arbitrary multigraphs (parallel edges included),
    /// arbitrary seeds, every tested thread count — bit-identical.
    #[test]
    fn offline_driver_deterministic_for_any_thread_count(
        g in arb_multigraph(14, 30),
        seed in 0u64..100,
    ) {
        let want = offline_report(&g, seed, 1);
        for threads in THREAD_COUNTS {
            let got = offline_report(&g, seed, threads);
            prop_assert_eq!(want.matching.to_edges(), got.matching.to_edges());
            prop_assert_eq!(want.value, got.value);
            prop_assert_eq!(&want.telemetry.trace, &got.telemetry.trace);
        }
    }

    /// The shootout competitors: arbitrary churn streams, arbitrary
    /// seeds, every tested thread count — bit-identical matching, value,
    /// and repair counters.
    #[test]
    fn competitor_solvers_deterministic_for_any_thread_count(
        stream_seed in 0u64..1000,
        solver_seed in 0u64..100,
        len in 20usize..60,
    ) {
        let inst = Instance::dynamic(Graph::new(12), churn_ops(12, len, stream_seed));
        for solver in ["dynamic-randomwalk", "dynamic-lazy", "dynamic-stale"] {
            let run = |threads: usize| {
                solve(
                    solver,
                    &inst,
                    &SolveRequest::new()
                        .with_seed(solver_seed)
                        .with_threads(threads)
                        .with_work_budget(1)
                        .with_staleness_bound(5),
                )
                .expect("competitor solver")
            };
            let want = run(1);
            for threads in THREAD_COUNTS {
                let got = run(threads);
                prop_assert_eq!(want.matching.to_edges(), got.matching.to_edges());
                prop_assert_eq!(want.value, got.value);
                prop_assert_eq!(
                    want.telemetry.extra("recourse_total"),
                    got.telemetry.extra("recourse_total")
                );
            }
        }
    }

    /// The stale engine's batch-order contract: within one staleness
    /// window, deferred ops touching pairwise-disjoint vertex sets
    /// commute — permuting them yields a bit-identical post-flush
    /// matching.
    #[test]
    fn stale_window_invariant_under_disjoint_permutations(
        weights in proptest::collection::vec((1u64..50, 1u64..20, any::<bool>()), 2..8),
        perm_seed in 0u64..1000,
    ) {
        use wmatch_api::UpdateOp;
        // pair i lives on vertices (2i, 2i+1): pairwise disjoint by
        // construction. The stream is a fixed-order insert prefix plus
        // one window op per pair (delete, or a heavier parallel copy);
        // only the window segment is permuted.
        let n = 2 * weights.len();
        let mut ops: Vec<UpdateOp> = Vec::new();
        for (i, &(w, _, _)) in weights.iter().enumerate() {
            ops.push(UpdateOp::insert(2 * i as u32, 2 * i as u32 + 1, w));
        }
        let mut window: Vec<UpdateOp> = weights
            .iter()
            .enumerate()
            .map(|(i, &(w, delta, del))| {
                let (u, v) = (2 * i as u32, 2 * i as u32 + 1);
                if del {
                    UpdateOp::delete(u, v)
                } else {
                    UpdateOp::insert(u, v, w + delta)
                }
            })
            .collect();
        let baseline: Vec<UpdateOp> = ops.iter().copied().chain(window.iter().copied()).collect();
        // Fisher–Yates keyed by perm_seed
        let mut rng = StdRng::seed_from_u64(perm_seed);
        for i in (1..window.len()).rev() {
            let j = rng.gen_range(0..=i);
            window.swap(i, j);
        }
        let permuted: Vec<UpdateOp> = ops.into_iter().chain(window).collect();
        let bound = baseline.len(); // the whole stream is one window
        let run = |stream: Vec<UpdateOp>| {
            solve(
                "dynamic-stale",
                &Instance::dynamic(Graph::new(n), stream),
                &SolveRequest::new().with_staleness_bound(bound),
            )
            .expect("stale solver")
        };
        let want = run(baseline);
        let got = run(permuted);
        prop_assert_eq!(want.matching.to_edges(), got.matching.to_edges());
        prop_assert_eq!(want.value, got.value);
    }

    /// MPC box: random bipartite instances, every tested thread count —
    /// identical matching and round count.
    #[test]
    fn mpc_box_deterministic_for_any_thread_count(
        nl in 4usize..16,
        p_pct in 5u32..40,
        seed in 0u64..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, side) =
            generators::random_bipartite(nl, nl, p_pct as f64 / 100.0, WeightModel::Unit, &mut rng);
        let cfg = MpcMcmConfig::for_delta(0.2, seed);
        let run = |threads: usize| {
            let mut pool = WorkerPool::new(threads);
            let mut sim = MpcSimulator::new(MpcConfig::new(4, 10_000));
            mpc_bipartite_mcm_pooled(&mut sim, g.edges().to_vec(), &side, &cfg, &mut pool)
                .unwrap()
        };
        let want = run(1);
        for threads in THREAD_COUNTS {
            let got = run(threads);
            prop_assert_eq!(want.matching.to_edges(), got.matching.to_edges());
            prop_assert_eq!(want.rounds, got.rounds);
        }
    }
}
