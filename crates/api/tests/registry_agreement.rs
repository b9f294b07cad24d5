//! The cross-solver agreement suite: every registry solver, run through
//! the one facade on shared small instance families, must
//!
//! (a) return a `Matching` that validates against its `Graph`,
//! (b) meet its declared approximation floor against the exact (blossom)
//!     oracle for its objective, and
//! (c) report internally consistent telemetry (passes within budget,
//!     `value` matching the `Matching`'s own objective value).

use wmatch_api::{
    objective_value, registry, registry_for, solver, ArrivalModel, Instance, ModelKind, SolveError,
    SolveRequest, UpdateOp,
};
use wmatch_graph::generators::{self, WeightModel};
use wmatch_graph::Graph;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// A star: center 0, `leaves` spokes of increasing weight.
fn star(leaves: usize) -> Graph {
    let mut g = Graph::new(leaves + 1);
    for i in 0..leaves {
        g.add_edge(0, (i + 1) as u32, (i + 1) as u64);
    }
    g
}

/// A small multigraph with parallel edges of differing weights.
fn parallel_edges() -> Graph {
    let mut g = Graph::new(4);
    g.add_edge(0, 1, 5);
    g.add_edge(0, 1, 9); // parallel, heavier
    g.add_edge(2, 3, 4);
    g.add_edge(2, 3, 1); // parallel, lighter
    g.add_edge(1, 2, 7);
    g
}

/// The shared instance families of the suite.
fn families() -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(5);
    vec![
        (
            "gnp",
            generators::gnp(20, 0.3, WeightModel::Uniform { lo: 1, hi: 64 }, &mut rng),
        ),
        ("path", generators::path_graph(&[5, 9, 5, 7, 3, 8])),
        ("star", star(7)),
        ("parallel-edges", parallel_edges()),
        ("barrier", generators::weighted_barrier_paths(5, 50)),
    ]
}

/// The instance on a solver's primary (first-listed) arrival model —
/// the model its declared floor is contractually tested against.
fn instance_for(primary: ModelKind, g: &Graph) -> Instance {
    match primary {
        ModelKind::Offline => Instance::offline(g.clone()),
        ModelKind::RandomOrder => Instance::random_order(g.clone(), 9),
        ModelKind::Adversarial => Instance::adversarial(g.clone()),
        ModelKind::Mpc => Instance::mpc(g.clone(), 4, 50_000),
        // the dynamic engines replay the family as an insert stream (the
        // delete paths have their own agreement suite)
        ModelKind::Dynamic => Instance::dynamic(
            Graph::new(g.vertex_count()),
            g.edges()
                .iter()
                .map(|e| UpdateOp::insert(e.u, e.v, e.weight))
                .collect::<Vec<_>>(),
        ),
    }
}

#[test]
fn registry_exposes_at_least_eight_uniquely_named_solvers() {
    let names: Vec<&str> = registry().iter().map(|s| s.name()).collect();
    assert!(names.len() >= 8, "only {} solvers registered", names.len());
    let mut dedup = names.clone();
    dedup.sort();
    dedup.dedup();
    assert_eq!(dedup.len(), names.len(), "duplicate names in {names:?}");
    // the eight the contract promises by name
    for required in [
        "main-alg-offline",
        "main-alg-streaming",
        "main-alg-mpc",
        "rand-arr-matching",
        "greedy",
        "local-ratio",
        "blossom",
        "hungarian",
        "oracle-lekm",
    ] {
        assert!(
            names.contains(&required),
            "{required} missing from {names:?}"
        );
    }
}

#[test]
fn every_solver_agrees_with_the_blossom_oracle_on_every_family() {
    let req = SolveRequest::new().with_seed(11).with_certify(true);
    for s in registry() {
        let caps = s.capabilities();
        let mut ran = 0usize;
        for (family, g) in families() {
            let inst = instance_for(caps.primary_model(), &g);
            if caps.bipartite_only && !inst.is_bipartite() {
                continue;
            }
            let label = format!("{} on {family}", s.name());
            let report = s
                .solve(&inst, &req)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            ran += 1;

            // (a) the matching validates against its graph
            report
                .matching
                .validate(Some(&g))
                .unwrap_or_else(|e| panic!("{label}: invalid matching: {e}"));

            // (b) declared approximation floor vs. the exact oracle
            let cert = report
                .certificate
                .as_ref()
                .unwrap_or_else(|| panic!("{label}: certificate missing"));
            assert_eq!(cert.objective, caps.objective, "{label}");
            assert!(
                cert.ratio >= caps.approx_floor - 1e-9,
                "{label}: ratio {} below declared floor {}",
                cert.ratio,
                caps.approx_floor
            );
            assert!(
                cert.ratio <= 1.0 + 1e-9,
                "{label}: ratio {} exceeds the optimum",
                cert.ratio
            );
            // independent re-check of the certificate itself; bipartite
            // families must come with the oracle's dual labels attached
            cert.verify(&g, &report.matching)
                .unwrap_or_else(|e| panic!("{label}: certificate fails verification: {e}"));
            assert_eq!(
                cert.duals.is_some(),
                g.bipartition().is_some(),
                "{label}: dual labels present iff the family is bipartite"
            );
            assert!(
                report.telemetry.extra("certify_ns").is_some(),
                "{label}: certification time missing from telemetry"
            );

            // (c) telemetry is internally consistent
            assert_eq!(
                report.value,
                objective_value(&report.matching, caps.objective),
                "{label}: reported value disagrees with the matching"
            );
            if let Some(last) = report.telemetry.trace.last() {
                assert_eq!(*last, report.matching.weight(), "{label}: trace tail");
            }
            match inst.model() {
                ArrivalModel::Offline => {
                    assert_eq!(report.telemetry.passes, 0, "{label}: offline passes")
                }
                ArrivalModel::Mpc { memory_words, .. } => assert!(
                    report.telemetry.peak_stored_edges <= *memory_words,
                    "{label}: machine memory above budget"
                ),
                ArrivalModel::Dynamic { updates } => assert_eq!(
                    report.telemetry.extra("updates_applied"),
                    Some(updates.len().to_string().as_str()),
                    "{label}: update count"
                ),
                _ => assert!(report.telemetry.passes >= 1, "{label}: stream passes"),
            }
            if s.name() == "stream-mcm" {
                assert!(
                    report.telemetry.passes <= req.pass_budget,
                    "{label}: passes {} above budget {}",
                    report.telemetry.passes,
                    req.pass_budget
                );
            }
            if let Some(seq) = report.telemetry.extra("passes_sequential") {
                let seq: usize = seq.parse().unwrap();
                assert!(
                    report.telemetry.passes <= seq,
                    "{label}: model passes above sequential passes"
                );
            }
        }
        assert!(ran > 0, "{} never ran on any family", s.name());
    }
}

#[test]
fn exact_solvers_agree_with_each_other() {
    // on bipartite instances the weighted oracles must coincide exactly
    let req = SolveRequest::new();
    for (family, g) in families() {
        let inst = Instance::offline(g.clone());
        if !inst.is_bipartite() {
            continue;
        }
        let blossom = solver("blossom").unwrap().solve(&inst, &req).unwrap();
        let hungarian = solver("hungarian").unwrap().solve(&inst, &req).unwrap();
        let oracle = solver("oracle-lekm").unwrap().solve(&inst, &req).unwrap();
        assert_eq!(blossom.value, hungarian.value, "{family}: oracle mismatch");
        assert_eq!(
            blossom.value, oracle.value,
            "{family}: slack oracle mismatch"
        );
    }
}

#[test]
fn registry_for_filters_by_model_and_bipartiteness() {
    let mut triangle = Graph::new(3);
    triangle.add_edge(0, 1, 1);
    triangle.add_edge(1, 2, 1);
    triangle.add_edge(0, 2, 1);

    let offline = registry_for(&Instance::offline(triangle.clone()));
    // non-bipartite offline: no hungarian/hopcroft-karp, no stream/mpc solvers
    let names: Vec<&str> = offline.iter().map(|s| s.name()).collect();
    assert!(names.contains(&"main-alg-offline"));
    assert!(names.contains(&"blossom"));
    assert!(!names.contains(&"hungarian"));
    assert!(!names.contains(&"main-alg-streaming"));

    let stream = registry_for(&Instance::random_order(triangle.clone(), 1));
    let names: Vec<&str> = stream.iter().map(|s| s.name()).collect();
    assert!(names.contains(&"rand-arr-matching"));
    assert!(names.contains(&"main-alg-streaming"));
    assert!(!names.contains(&"main-alg-offline"));
    assert!(!names.contains(&"stream-mcm"), "triangle is not bipartite");

    let mpc = registry_for(&Instance::mpc(triangle, 4, 1000));
    let names: Vec<&str> = mpc.iter().map(|s| s.name()).collect();
    assert_eq!(names, ["main-alg-mpc"]);

    // a bipartite stream instance admits the bipartite box
    let path = generators::path_graph(&[3, 5, 3]);
    let names: Vec<String> = registry_for(&Instance::adversarial(path))
        .iter()
        .map(|s| s.name().to_string())
        .collect();
    assert!(names.contains(&"stream-mcm".to_string()));
}

#[test]
fn every_registry_solver_solves_something_through_registry_for() {
    // sanity: walking registry_for and solving must never error on a
    // well-formed instance
    let g = generators::path_graph(&[4, 6, 4, 2]);
    let req = SolveRequest::new();
    for inst in [
        Instance::offline(g.clone()),
        Instance::random_order(g.clone(), 2),
        Instance::adversarial(g.clone()),
        Instance::mpc(g.clone(), 3, 10_000),
    ] {
        for s in registry_for(&inst) {
            let report = s
                .solve(&inst, &req)
                .unwrap_or_else(|e| panic!("{}: {e}", s.name()));
            report.matching.validate(Some(&g)).unwrap();
        }
    }
}

#[test]
fn sharded_solver_matches_the_sequential_dynamic_engine() {
    // one churn stream, every shard count: `dynamic-sharded` must report
    // the exact matching and update telemetry of `dynamic-wgtaug`
    let mut rng = StdRng::seed_from_u64(41);
    let g = generators::gnp(24, 0.3, WeightModel::Uniform { lo: 1, hi: 64 }, &mut rng);
    let mut ops: Vec<UpdateOp> = g
        .edges()
        .iter()
        .map(|e| UpdateOp::insert(e.u, e.v, e.weight))
        .collect();
    // delete every third inserted edge, then re-insert it heavier
    for (i, e) in g.edges().iter().enumerate() {
        if i % 3 == 0 {
            ops.push(UpdateOp::delete(e.u, e.v));
            ops.push(UpdateOp::insert(e.u, e.v, e.weight + 100));
        }
    }
    let inst = Instance::dynamic(Graph::new(g.vertex_count()), ops);
    let base_req = SolveRequest::new().with_seed(9);
    let want = solver("dynamic-wgtaug")
        .unwrap()
        .solve(&inst, &base_req)
        .unwrap();
    for shards in [1usize, 2, 8, 0] {
        let got = solver("dynamic-sharded")
            .unwrap()
            .solve(&inst, &base_req.clone().with_shards(shards))
            .unwrap();
        assert_eq!(
            want.matching.to_edges(),
            got.matching.to_edges(),
            "shards = {shards}"
        );
        assert_eq!(want.value, got.value, "shards = {shards}");
        for key in ["updates_applied", "recourse_total", "augmentations_applied"] {
            assert_eq!(
                want.telemetry.extra(key),
                got.telemetry.extra(key),
                "shards = {shards}, key = {key}"
            );
        }
    }
}

#[test]
fn mpc_budget_violations_surface_as_typed_errors() {
    let g = generators::path_graph(&[4, 6, 4, 2]);
    let tiny = Instance::mpc(g, 2, 1); // four edges cannot fit 2 x 1 words
    let err = solver("main-alg-mpc")
        .unwrap()
        .solve(&tiny, &SolveRequest::new())
        .unwrap_err();
    assert!(matches!(err, SolveError::Mpc(_)), "{err:?}");
}
