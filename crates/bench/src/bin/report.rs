//! The experiment report generator.
//!
//! ```text
//! cargo run --release -p wmatch-bench --bin report            # all experiments
//! cargo run --release -p wmatch-bench --bin report -- e1 e5   # selected
//! cargo run --release -p wmatch-bench --bin report -- --quick # small sizes
//! ```
//!
//! Each section regenerates one experiment from `EXPERIMENTS.md` (E1–E13) and
//! prints it as markdown. `serve` is accepted as an alias for `e12` (the
//! marketplace serve benchmark, which writes `BENCH_serve.json`) and `chaos`
//! for `e13` (the fault-injection/recovery suite, which writes
//! `BENCH_chaos.json`). An unknown id or flag exits with status 2 and
//! lists the accepted ids and aliases.

use std::time::Instant;

use wmatch_bench::experiments::*;

type Runner = fn(bool) -> String;

/// Every runnable experiment, in report order.
fn experiments() -> Vec<(&'static str, Runner)> {
    vec![
        ("e1", e1_random_order_unweighted::run),
        ("e2", e2_random_arrival_weighted::run),
        ("e3", e3_three_aug_paths::run),
        ("e4", e4_fact13::run),
        ("e5", e5_one_minus_eps::run),
        ("e6", e6_streaming_model::run),
        ("e7", e7_mpc_model::run),
        ("e8", e8_memory::run),
        ("e9", e9_layered_structure::run),
        ("e10", e10_ablations::run),
        ("e11", e11_dynamic::run),
        ("e12", e12_serve::run),
        // e13 also writes BENCH_chaos.json (fault grid, crash recovery,
        // degraded throughput, worst-case ratios; WMATCH_CHAOS_GUARD=1
        // enables the CI guard)
        ("e13", e13_chaos::run),
        // hotpath also writes BENCH_hotpath.json (the recorded perf
        // trajectory; see WMATCH_BENCH_DIR)
        ("hotpath", wmatch_bench::hotpath::run),
        // scaling writes BENCH_parallel.json (worker-pool layers across
        // thread counts; WMATCH_SCALING_GUARD=1 enables the CI guard)
        ("scaling", wmatch_bench::scaling::run),
        // dynamic writes BENCH_dynamic.json (update-stream engine vs the
        // recompute-from-scratch baseline on the E11 workload families)
        ("dynamic", wmatch_bench::dynamic::run),
        // oracle writes BENCH_oracle.json (slack-array Hungarian vs the
        // dense oracles, cold vs warm; WMATCH_ORACLE_GUARD=1 enables the
        // warm-not-slower-than-cold CI guard)
        ("oracle", wmatch_bench::oracle::run),
    ]
}

/// The suite-style names of e12 and e13.
const ALIASES: [(&str, &str); 2] = [("serve", "e12"), ("chaos", "e13")];

/// A parsed command line: quick mode plus the selected experiment ids
/// (aliases resolved; empty selects every experiment).
#[derive(Debug, PartialEq)]
struct Args {
    quick: bool,
    selected: Vec<&'static str>,
}

/// Parses the command line against the known experiment `ids`. An
/// unknown id or flag is an error that lists what is accepted, so a typo
/// can never pass as an empty report.
fn parse_args(args: &[String], ids: &[&'static str]) -> Result<Args, String> {
    let mut out = Args {
        quick: false,
        selected: Vec::new(),
    };
    for a in args {
        if a == "--quick" {
            out.quick = true;
        } else if a.starts_with('-') {
            return Err(format!("unknown flag `{a}`; the only flag is --quick"));
        } else {
            let id = ALIASES
                .iter()
                .find(|(alias, _)| alias == a)
                .map_or(a.as_str(), |&(_, id)| id);
            let Some(&known) = ids.iter().find(|&&k| k == id) else {
                let aliases: Vec<String> = ALIASES
                    .iter()
                    .map(|(alias, id)| format!("{alias} = {id}"))
                    .collect();
                return Err(format!(
                    "unknown experiment `{a}`; accepted ids: {} (aliases: {})",
                    ids.join(", "),
                    aliases.join(", ")
                ));
            };
            out.selected.push(known);
        }
    }
    Ok(out)
}

fn main() {
    let experiments = experiments();
    let ids: Vec<&'static str> = experiments.iter().map(|&(id, _)| id).collect();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Args { quick, selected } = parse_args(&raw, &ids).unwrap_or_else(|e| {
        eprintln!("report: {e}");
        std::process::exit(2);
    });
    let run_all = selected.is_empty();

    println!("# wmatch experiment report\n");
    println!(
        "mode: {}; selected: {}\n",
        if quick { "quick" } else { "full" },
        if run_all {
            "all".to_string()
        } else {
            selected.join(", ")
        }
    );
    for (id, f) in experiments {
        if run_all || selected.contains(&id) {
            let t = Instant::now();
            let section = f(quick);
            println!("{section}");
            println!(
                "_({id} regenerated in {:.1}s)_\n",
                t.elapsed().as_secs_f64()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let ids: Vec<&'static str> = experiments().iter().map(|&(id, _)| id).collect();
        parse_args(&args, &ids)
    }

    #[test]
    fn ids_aliases_and_quick_parse() {
        assert_eq!(
            parse(&["--quick", "e1", "serve", "chaos", "dynamic"]),
            Ok(Args {
                quick: true,
                selected: vec!["e1", "e12", "e13", "dynamic"],
            })
        );
        assert_eq!(
            parse(&[]),
            Ok(Args {
                quick: false,
                selected: vec![],
            }),
            "no ids selects every experiment"
        );
    }

    #[test]
    fn unknown_id_is_an_error_listing_ids_and_aliases() {
        let err = parse(&["--quick", "e99"]).unwrap_err();
        assert!(err.contains("`e99`"), "{err}");
        assert!(err.contains("e1, e2,") && err.contains("oracle"), "{err}");
        assert!(
            err.contains("serve = e12") && err.contains("chaos = e13"),
            "{err}"
        );
        assert!(parse(&["dynamic/serve/chaos"]).is_err());
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let err = parse(&["--quik", "e1"]).unwrap_err();
        assert!(err.contains("`--quik`") && err.contains("--quick"), "{err}");
        assert!(parse(&["-q"]).is_err());
    }
}
