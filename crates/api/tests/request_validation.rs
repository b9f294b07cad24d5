//! Regression tests for the facade's validated configuration: every
//! out-of-range request parameter must surface as a typed
//! `SolveError::InvalidConfig` — never as a panic deep inside an
//! algorithm (the legacy `MainAlgConfig::practical` path accepted any ε
//! and only failed much later in `weight_grid`).

use wmatch_api::{
    solve, Instance, SolveError, SolveRequest, MAX_BUDGET, MAX_THREADS, MAX_WALK_LEN,
};
use wmatch_graph::generators::{gnp, WeightModel};
use wmatch_graph::{Graph, Matching};

use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_graph() -> Graph {
    let mut rng = StdRng::seed_from_u64(3);
    gnp(12, 0.4, WeightModel::Uniform { lo: 1, hi: 32 }, &mut rng)
}

fn assert_invalid(req: SolveRequest, field: &str) {
    match req.validate() {
        Err(SolveError::InvalidConfig { field: f, .. }) => {
            assert_eq!(f, field, "wrong field reported for {req:?}")
        }
        other => panic!("expected InvalidConfig for {field}, got {other:?}"),
    }
}

#[test]
fn eps_zero_rejected() {
    assert_invalid(SolveRequest::new().with_eps(0.0), "eps");
}

#[test]
fn eps_negative_rejected() {
    assert_invalid(SolveRequest::new().with_eps(-0.25), "eps");
}

#[test]
fn eps_one_rejected() {
    assert_invalid(SolveRequest::new().with_eps(1.0), "eps");
}

#[test]
fn eps_above_one_rejected() {
    assert_invalid(SolveRequest::new().with_eps(17.0), "eps");
}

#[test]
fn eps_nan_and_infinity_rejected() {
    assert_invalid(SolveRequest::new().with_eps(f64::NAN), "eps");
    assert_invalid(SolveRequest::new().with_eps(f64::INFINITY), "eps");
}

#[test]
fn zero_round_budget_rejected() {
    assert_invalid(SolveRequest::new().with_round_budget(0), "round_budget");
}

#[test]
fn zero_pass_budget_rejected() {
    assert_invalid(SolveRequest::new().with_pass_budget(0), "pass_budget");
}

#[test]
fn overflowing_budgets_rejected() {
    assert_invalid(
        SolveRequest::new().with_round_budget(MAX_BUDGET + 1),
        "round_budget",
    );
    assert_invalid(
        SolveRequest::new().with_pass_budget(usize::MAX),
        "pass_budget",
    );
}

#[test]
fn thread_overflow_rejected() {
    assert_invalid(SolveRequest::new().with_threads(MAX_THREADS + 1), "threads");
    assert_invalid(SolveRequest::new().with_threads(usize::MAX), "threads");
}

#[test]
fn auto_threads_and_boundary_values_accepted() {
    SolveRequest::new().with_threads(0).validate().unwrap();
    SolveRequest::new()
        .with_threads(MAX_THREADS)
        .validate()
        .unwrap();
    SolveRequest::new()
        .with_round_budget(1)
        .with_pass_budget(1)
        .validate()
        .unwrap();
    SolveRequest::new().with_eps(1e-9).validate().unwrap();
    SolveRequest::new().with_eps(1.0 - 1e-9).validate().unwrap();
}

#[test]
fn threads_zero_means_one_per_core_on_both_types() {
    // the api and core contracts must resolve the sentinel identically
    let auto = SolveRequest::new().with_threads(0).resolved_threads();
    assert!(auto >= 1);
    assert_eq!(
        auto,
        wmatch_graph::pool::resolve_threads(0),
        "SolveRequest and the pool must share one resolution rule"
    );
    assert_eq!(SolveRequest::new().with_threads(3).resolved_threads(), 3);
}

#[test]
fn pool_telemetry_reflects_the_requested_threads() {
    let g = small_graph();
    for (threads, want) in [(1usize, 1usize), (2, 2)] {
        let res = solve(
            "main-alg-offline",
            &Instance::offline(g.clone()),
            &SolveRequest::new().with_threads(threads),
        )
        .unwrap();
        let workers: usize = res
            .telemetry
            .extra("workers_used")
            .expect("workers_used extra")
            .parse()
            .unwrap();
        assert_eq!(workers, want);
        let busy = res.telemetry.extra("busy_ns").expect("busy_ns extra");
        assert_eq!(busy.split(',').count(), want, "one busy slot per worker");
    }
}

#[test]
fn every_solver_rejects_nonsense_eps_instead_of_panicking() {
    // the legacy entry points panicked (or looped) long after accepting a
    // nonsense eps; through the facade the same request is a typed error
    let g = small_graph();
    let offline = Instance::offline(g.clone());
    let streaming = Instance::random_order(g.clone(), 1);
    let mpc = Instance::mpc(g, 3, 50_000);
    let bad = SolveRequest::new().with_eps(-1.0);
    for (name, inst) in [
        ("main-alg-offline", &offline),
        ("main-alg-streaming", &streaming),
        ("main-alg-mpc", &mpc),
        ("rand-arr-matching", &streaming),
        ("greedy", &offline),
        ("local-ratio", &offline),
        ("blossom", &offline),
    ] {
        match solve(name, inst, &bad) {
            Err(SolveError::InvalidConfig { field: "eps", .. }) => {}
            other => panic!("{name}: expected eps InvalidConfig, got {other:?}"),
        }
    }
}

#[test]
fn degenerate_mpc_deployments_are_typed_errors_not_panics() {
    let g = small_graph();
    for (name, inst, field) in [
        (
            "main-alg-mpc",
            Instance::mpc(g.clone(), 0, 4000),
            "machines",
        ),
        (
            "main-alg-mpc",
            Instance::mpc(g.clone(), 4, 0),
            "memory_words",
        ),
        ("mpc-mcm", Instance::mpc(g.clone(), 0, 4000), "machines"),
    ] {
        match solve(name, &inst, &SolveRequest::new()) {
            Err(SolveError::InvalidConfig { field: f, .. }) => assert_eq!(f, field, "{name}"),
            other => panic!("{name}: expected InvalidConfig for {field}, got {other:?}"),
        }
    }
}

#[test]
fn unsupported_model_is_a_typed_error() {
    let g = small_graph();
    let err = solve(
        "main-alg-offline",
        &Instance::adversarial(g),
        &SolveRequest::new(),
    )
    .unwrap_err();
    assert!(
        matches!(err, SolveError::UnsupportedModel { .. }),
        "{err:?}"
    );
}

#[test]
fn non_bipartite_instance_is_a_typed_error() {
    // a triangle has no 2-coloring
    let mut g = Graph::new(3);
    g.add_edge(0, 1, 1);
    g.add_edge(1, 2, 1);
    g.add_edge(0, 2, 1);
    let err = solve("hungarian", &Instance::offline(g), &SolveRequest::new()).unwrap_err();
    assert!(matches!(err, SolveError::NotBipartite { .. }), "{err:?}");
}

#[test]
fn unknown_solver_is_a_typed_error() {
    let err = solve(
        "definitely-not-a-solver",
        &Instance::offline(small_graph()),
        &SolveRequest::new(),
    )
    .unwrap_err();
    assert!(matches!(err, SolveError::UnknownSolver { .. }), "{err:?}");
}

#[test]
fn warm_start_vertex_mismatch_rejected() {
    let g = small_graph();
    let req = SolveRequest::new().with_warm_start(Matching::new(g.vertex_count() + 5));
    let err = solve("main-alg-offline", &Instance::offline(g), &req).unwrap_err();
    assert!(
        matches!(
            err,
            SolveError::InvalidConfig {
                field: "warm_start",
                ..
            }
        ),
        "{err:?}"
    );
}

#[test]
fn warm_start_on_unsupporting_solver_rejected() {
    let g = small_graph();
    let req = SolveRequest::new().with_warm_start(Matching::new(g.vertex_count()));
    let err = solve("greedy", &Instance::offline(g), &req).unwrap_err();
    assert!(
        matches!(
            err,
            SolveError::InvalidConfig {
                field: "warm_start",
                ..
            }
        ),
        "{err:?}"
    );
}

#[test]
fn invalid_declared_bipartition_rejected() {
    let mut g = Graph::new(2);
    g.add_edge(0, 1, 4);
    let err = Instance::offline(g)
        .with_bipartition(vec![true, true])
        .unwrap_err();
    assert!(
        matches!(
            err,
            SolveError::InvalidConfig {
                field: "bipartition",
                ..
            }
        ),
        "{err:?}"
    );
}

#[test]
fn aug_depth_out_of_range_rejected() {
    assert_invalid(SolveRequest::new().with_aug_depth(0), "aug_depth");
    assert_invalid(
        SolveRequest::new().with_aug_depth(wmatch_api::MAX_AUG_DEPTH + 1),
        "aug_depth",
    );
    assert!(SolveRequest::new().with_aug_depth(1).validate().is_ok());
    assert!(SolveRequest::new()
        .with_aug_depth(wmatch_api::MAX_AUG_DEPTH)
        .validate()
        .is_ok());
}

#[test]
fn shards_overflow_rejected() {
    assert_invalid(SolveRequest::new().with_shards(MAX_THREADS + 1), "shards");
    assert_invalid(SolveRequest::new().with_shards(usize::MAX), "shards");
    assert!(SolveRequest::new().with_shards(0).validate().is_ok());
    assert!(SolveRequest::new()
        .with_shards(MAX_THREADS)
        .validate()
        .is_ok());
}

#[test]
fn walk_len_out_of_range_rejected() {
    assert_invalid(SolveRequest::new().with_walk_len(0), "walk_len");
    assert_invalid(
        SolveRequest::new().with_walk_len(MAX_WALK_LEN + 1),
        "walk_len",
    );
    assert_invalid(SolveRequest::new().with_walk_len(usize::MAX), "walk_len");
    assert!(SolveRequest::new().with_walk_len(1).validate().is_ok());
    assert!(SolveRequest::new()
        .with_walk_len(MAX_WALK_LEN)
        .validate()
        .is_ok());
}

#[test]
fn work_budget_out_of_range_rejected() {
    assert_invalid(SolveRequest::new().with_work_budget(0), "work_budget");
    assert_invalid(
        SolveRequest::new().with_work_budget(MAX_BUDGET + 1),
        "work_budget",
    );
    assert!(SolveRequest::new().with_work_budget(1).validate().is_ok());
    assert!(SolveRequest::new()
        .with_work_budget(MAX_BUDGET)
        .validate()
        .is_ok());
}

#[test]
fn staleness_bound_out_of_range_rejected() {
    assert_invalid(
        SolveRequest::new().with_staleness_bound(0),
        "staleness_bound",
    );
    assert_invalid(
        SolveRequest::new().with_staleness_bound(MAX_BUDGET + 1),
        "staleness_bound",
    );
    assert!(SolveRequest::new()
        .with_staleness_bound(1)
        .validate()
        .is_ok());
    assert!(SolveRequest::new()
        .with_staleness_bound(MAX_BUDGET)
        .validate()
        .is_ok());
}

#[test]
fn competitor_solvers_reject_invalid_knobs_before_touching_the_stream() {
    // the knob checks run in preflight, so even a stream that would fail
    // later reports the configuration error first — typed, not a panic
    use wmatch_api::UpdateOp;
    let inst = Instance::dynamic(Graph::new(4), vec![UpdateOp::insert(0, 99, 1)]);
    for (solver, req, field) in [
        (
            "dynamic-randomwalk",
            SolveRequest::new().with_walk_len(0),
            "walk_len",
        ),
        (
            "dynamic-lazy",
            SolveRequest::new().with_work_budget(0),
            "work_budget",
        ),
        (
            "dynamic-stale",
            SolveRequest::new().with_staleness_bound(MAX_BUDGET + 1),
            "staleness_bound",
        ),
    ] {
        match solve(solver, &inst, &req) {
            Err(SolveError::InvalidConfig { field: f, .. }) => assert_eq!(f, field, "{solver}"),
            other => panic!("{solver}: expected {field} InvalidConfig, got {other:?}"),
        }
    }
}

#[test]
fn malformed_update_sequences_are_typed_errors() {
    // the dynamic solvers forward engine rejections through the uniform
    // error contract instead of panicking mid-replay
    use wmatch_api::UpdateOp;
    for (name, bad) in [
        ("out-of-range endpoint", UpdateOp::insert(0, 99, 1)),
        ("zero weight", UpdateOp::insert(0, 1, 0)),
        ("self-loop", UpdateOp::insert(2, 2, 5)),
        ("deleting a non-live edge", UpdateOp::delete(0, 1)),
    ] {
        for solver in [
            "dynamic-wgtaug",
            "dynamic-rebuild",
            "dynamic-sharded",
            "dynamic-randomwalk",
            "dynamic-lazy",
            "dynamic-stale",
        ] {
            let inst = Instance::dynamic(Graph::new(4), vec![bad]);
            let err = solve(solver, &inst, &SolveRequest::new()).unwrap_err();
            assert!(
                matches!(
                    err,
                    SolveError::InvalidConfig {
                        field: "updates",
                        ..
                    }
                ),
                "{solver} / {name}: {err:?}"
            );
        }
    }
}

#[test]
fn update_errors_report_partial_progress() {
    // a failing op mid-stream names how many updates were already applied
    // — the count a caller needs to resume or debug a long replay
    use wmatch_api::UpdateOp;
    let ops = vec![
        UpdateOp::insert(0, 1, 5),
        UpdateOp::insert(1, 2, 7),
        UpdateOp::delete(2, 3), // never inserted → EdgeNotFound after 2 ops
        UpdateOp::insert(0, 3, 9),
    ];
    for solver in [
        "dynamic-wgtaug",
        "dynamic-rebuild",
        "dynamic-sharded",
        "dynamic-randomwalk",
        "dynamic-lazy",
        "dynamic-stale",
    ] {
        let inst = Instance::dynamic(Graph::new(4), ops.clone());
        match solve(solver, &inst, &SolveRequest::new().with_shards(2)) {
            Err(SolveError::InvalidConfig {
                field: "updates",
                reason,
            }) => assert!(
                reason.contains("2 updates applied"),
                "{solver}: reason must carry the applied count, got {reason:?}"
            ),
            other => panic!("{solver}: expected updates InvalidConfig, got {other:?}"),
        }
    }
}
