//! The dynamic solvers' telemetry contract: every engine behind the
//! facade reports the same six-key extras prefix, in the same order —
//! `updates_applied`, `recourse_total`, `updates_per_sec`,
//! `augmentations_applied`, `steals`, `scratch_high_water` — with
//! solver-specific extras only *after* it. Cross-solver tooling
//! (the shootout bench, the memory experiments) diffs these columns
//! positionally, so a missing key is a schema break, not a style choice.
//! (The recompute baseline historically omitted the pool keys — the gap
//! this suite exists to keep closed.)

use wmatch_api::{solve, Instance, SolveRequest, UpdateOp};
use wmatch_graph::Graph;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The pinned prefix, in order.
const COMMON_KEYS: [&str; 6] = [
    "updates_applied",
    "recourse_total",
    "updates_per_sec",
    "augmentations_applied",
    "steals",
    "scratch_high_water",
];

/// Every dynamic solver in the registry.
const DYNAMIC_SOLVERS: [&str; 6] = [
    "dynamic-wgtaug",
    "dynamic-sharded",
    "dynamic-rebuild",
    "dynamic-randomwalk",
    "dynamic-lazy",
    "dynamic-stale",
];

fn churn_instance(n: u32, len: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<(u32, u32)> = Vec::new();
    let mut ops = Vec::new();
    for _ in 0..len {
        if live.len() > n as usize {
            let i = (ops.len() * 5) % live.len();
            let (u, v) = live.swap_remove(i);
            ops.push(UpdateOp::delete(u, v));
        } else {
            let u = rng.gen_range(0..n);
            let mut v = rng.gen_range(0..n);
            if v == u {
                v = (v + 1) % n;
            }
            live.push((u, v));
            ops.push(UpdateOp::insert(u, v, rng.gen_range(1..40u64)));
        }
    }
    Instance::dynamic(Graph::new(n as usize), ops)
}

#[test]
fn every_dynamic_solver_reports_the_common_prefix_in_order() {
    let inst = churn_instance(16, 80, 11);
    for solver in DYNAMIC_SOLVERS {
        let report = solve(solver, &inst, &SolveRequest::new()).expect(solver);
        let extras = &report.telemetry.extras;
        assert!(
            extras.len() >= COMMON_KEYS.len(),
            "{solver}: only {} extras, need the {}-key prefix",
            extras.len(),
            COMMON_KEYS.len()
        );
        for (i, want) in COMMON_KEYS.iter().enumerate() {
            assert_eq!(
                extras[i].0, *want,
                "{solver}: extras[{i}] must be {want}, got {} — the prefix is positional",
                extras[i].0
            );
        }
    }
}

#[test]
fn common_prefix_values_are_parseable_and_consistent() {
    let inst = churn_instance(16, 80, 13);
    for solver in DYNAMIC_SOLVERS {
        let report = solve(solver, &inst, &SolveRequest::new()).expect(solver);
        let int_of = |key: &str| -> u64 {
            report
                .telemetry
                .extra(key)
                .unwrap_or_else(|| panic!("{solver}: missing {key}"))
                .parse()
                .unwrap_or_else(|_| panic!("{solver}: {key} not an integer"))
        };
        assert_eq!(int_of("updates_applied"), 80, "{solver}: whole stream");
        assert!(int_of("recourse_total") > 0, "{solver}: churn happened");
        // sequential run: nothing to steal anywhere
        assert_eq!(int_of("steals"), 0, "{solver}");
        let _ = int_of("scratch_high_water"); // parseable is the contract
        report
            .telemetry
            .extra("updates_per_sec")
            .unwrap_or_else(|| panic!("{solver}: missing updates_per_sec"));
    }
}

#[test]
fn solver_specific_extras_follow_the_prefix() {
    let inst = churn_instance(12, 40, 7);
    for (solver, key) in [
        ("dynamic-sharded", "shards"),
        ("dynamic-randomwalk", "walks_taken"),
        ("dynamic-lazy", "budget_exhausted"),
        ("dynamic-stale", "flushes"),
    ] {
        let report = solve(solver, &inst, &SolveRequest::new()).expect(solver);
        let pos = report
            .telemetry
            .extras
            .iter()
            .position(|(k, _)| *k == key)
            .unwrap_or_else(|| panic!("{solver}: missing specific extra {key}"));
        assert!(
            pos >= COMMON_KEYS.len(),
            "{solver}: {key} sits at {pos}, inside the common prefix"
        );
    }
}
