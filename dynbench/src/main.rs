//! `dynbench` — a closed-loop, oracle-checked benchmark of
//! `wmatch-dynamic`.
//!
//! ```text
//! cargo run --release --offline --manifest-path dynbench/Cargo.toml -- \
//!     --workload heavy-churn --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! A failed correctness gate prints no metrics and exits with code 1.
//! See README.md beside this package for the workloads and metrics.

mod checks;
mod layers;
mod stats;
mod streams;
mod trace;
mod workloads;

use std::time::Duration;

use checks::Fatal;
use stats::{median, rss_kib, Samples};
use workloads::{Instance, Sizes, Totals, Workload};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How the value was obtained (sample count and rule), for the
    /// human-readable lines.
    pub basis: String,
}

impl Metric {
    /// A metric with its basis.
    pub fn new(name: &'static str, unit: &'static str, value: f64, basis: String) -> Metric {
        Metric {
            name,
            unit,
            value,
            basis,
        }
    }
}

/// What a run reports.
#[derive(Debug)]
pub struct Report {
    /// Ops and checkpoints attempted.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// Metrics in output order.
    pub metrics: Vec<Metric>,
    /// Facts about the run recorded beside the metrics.
    pub run: Vec<(&'static str, String)>,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("--seconds {value}: expected 1 to 600"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Rounds the sample buffers are sized for: a round takes well over a
/// quarter second on any host this benchmark targets.
fn max_rounds(seconds: u64) -> usize {
    4 * seconds as usize
}

/// The timed run: end-to-end metrics.
fn timed(w: Workload, seed: u64, seconds: u64) -> Result<Report, Fatal> {
    timed_at(w, seed, seconds, &Sizes::of(w))
}

/// [`timed`] at explicit sizes.
fn timed_at(w: Workload, seed: u64, seconds: u64, sizes: &Sizes) -> Result<Report, Fatal> {
    let calibration_ms = stats::calibration_ms();
    let sizes = *sizes;
    let inputs = Instance::generate_all(w, &sizes, seed);
    let mut acc = Totals::new(w, &sizes, max_rounds(seconds));
    let (base_kib, _) = rss_kib();
    let wait0 = stats::runqueue_wait_ns();
    workloads::run_cycles(w, &inputs, &sizes, Duration::from_secs(seconds), &mut acc)?;
    let wait_ms = stats::runqueue_wait_ns().saturating_sub(wait0) as f64 / 1e6;
    let (_, peak_kib) = rss_kib();
    if w.is_marketplace() {
        workloads::check_two_threads(&inputs, &sizes, &acc)?;
    }
    let metrics = end_to_end(w, &acc, peak_kib.saturating_sub(base_kib))?;
    Ok(Report {
        attempted: acc.attempted,
        failed: acc.failed,
        metrics,
        run: run_record(w, seed, &acc, calibration_ms, wait_ms),
    })
}

/// Facts recorded with every run, timed or traced.
fn run_record(
    w: Workload,
    seed: u64,
    acc: &Totals,
    calibration_ms: f64,
    wait_ms: f64,
) -> Vec<(&'static str, String)> {
    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    vec![
        ("workload", format!("\"{}\"", w.name())),
        ("seed", seed.to_string()),
        ("revision", format!("\"{}\"", stats::git_revision())),
        ("available_parallelism", parallelism.to_string()),
        ("rounds", acc.rounds.to_string()),
        ("host.runqueue_wait_ms", wait_ms.to_string()),
        ("host.calibration_ms", calibration_ms.to_string()),
    ]
}

/// The end-to-end metrics of a finished timed run.
fn end_to_end(w: Workload, acc: &Totals, peak_kib: u64) -> Result<Vec<Metric>, Fatal> {
    let n = acc.calls.len();
    let call = if w.is_marketplace() {
        "256-op batch calls (an update's latency is its batch's)"
    } else {
        "one-update calls"
    };
    let busy_s = acc.calls.total_ns() as f64 / 1e9;
    let cycles = acc.cycle_p99.len();
    let per_cycle = n / cycles.max(1);
    let beyond = per_cycle - (99 * per_cycle).div_ceil(100);
    let med = |s: &Samples, what: &str| median(s).ok_or_else(|| format!("no {what} samples"));
    let (certify_what, recover_what, oracle) = if w.is_marketplace() {
        (
            "warm certify_checkpoint calls",
            "simulate_crash + recover pairs",
            "warm IncrementalCertifier",
        )
    } else {
        (
            "Fact 1.3 checkpoint checks",
            "from_graph rebuilds after a crash",
            "exact blossom",
        )
    };
    Ok(vec![
        Metric::new(
            "updates_per_s",
            "updates/s",
            acc.updates as f64 / busy_s,
            format!("{} updates in {busy_s:.3} s inside timed calls", acc.updates),
        ),
        Metric::new(
            "update_p50_us",
            "us",
            med(&acc.cycle_p50, "p50")? as f64 / 1e3,
            format!("median over {cycles} cycles of the nearest-rank median of each cycle's {per_cycle} {call}"),
        ),
        Metric::new(
            "update_p99_us",
            "us",
            med(&acc.cycle_p99, "p99")? as f64 / 1e3,
            format!("median over {cycles} cycles of the nearest-rank p99 of each cycle's {per_cycle} {call}, {beyond} beyond"),
        ),
        Metric::new(
            "recourse_per_op",
            "edges/update",
            acc.recourse as f64 / acc.updates as f64,
            format!("{} matching-edge changes over {} updates", acc.recourse, acc.updates),
        ),
        Metric::new(
            "certified_ratio",
            "ratio",
            acc.checkpoints.worst,
            format!(
                "worst of {} checkpoints ({oracle}), floor {}",
                acc.checkpoints.count, acc.checkpoints.floor
            ),
        ),
        Metric::new(
            "certify_ms",
            "ms",
            med(&acc.certify, "certify")? as f64 / 1e6,
            format!("median of {} {certify_what}", acc.certify.len()),
        ),
        Metric::new(
            "recover_ms",
            "ms",
            med(&acc.recover, "recover")? as f64 / 1e6,
            format!("median of {} {recover_what}", acc.recover.len()),
        ),
        Metric::new(
            "setup_s",
            "s",
            med(&acc.setup, "setup")? as f64 / 1e9,
            format!("median of {} round set-ups", acc.setup.len()),
        ),
        Metric::new(
            "peak_rss_mb",
            "MiB",
            peak_kib as f64 / 1024.0,
            "VmHWM minus VmRSS after input generation".to_string(),
        ),
    ])
}

fn print_report(w: Workload, report: &Report) -> Result<(), Fatal> {
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not a finite number", m.name));
    }
    for m in &report.metrics {
        println!(
            "{}/{} = {} {}  ({})",
            w.name(),
            m.name,
            m.value,
            m.unit,
            m.basis
        );
    }
    let run: Vec<String> = report
        .run
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!("{{\"run\":{{{}}}}}", run.join(","));
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dynbench: {e}");
            eprintln!("usage: dynbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            std::process::exit(2);
        }
    };
    let result = if args.trace {
        layers::traced(args.workload, args.seed, args.seconds)
    } else {
        timed(args.workload, args.seed, args.seconds)
    };
    let outcome = result.and_then(|report| print_report(args.workload, &report));
    if let Err(e) = outcome {
        eprintln!(
            "dynbench: {}: correctness check failed: {e}",
            args.workload.name()
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Miniature sizes: every code path of a full run on small graphs,
    /// with just over 1000 timed calls per cycle so the p99 rule holds.
    fn mini(w: Workload) -> Sizes {
        if w.is_marketplace() {
            Sizes {
                n: 400,
                calls: 11 * workloads::CRASH_EVERY,
                check_every: 0,
                instances: 1,
                isolate_batches: workloads::CRASH_EVERY + 3,
            }
        } else {
            Sizes {
                n: 200,
                calls: 600,
                check_every: 100,
                instances: 2,
                isolate_batches: 1,
            }
        }
    }

    fn names(metrics: &[Metric]) -> Vec<&'static str> {
        metrics.iter().map(|m| m.name).collect()
    }

    /// The metric names in `BENCHMARK.json`, in order.
    fn declared(section: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn a_miniature_run_of_each_workload_passes_every_check() {
        for w in Workload::ALL {
            let report =
                timed_at(w, 3, 1, &mini(w)).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert_eq!(report.failed, 0, "{}", w.name());
            assert!(report.attempted > 0);
            assert!(
                report
                    .metrics
                    .iter()
                    .all(|m| m.value.is_finite() && m.value > 0.0),
                "{}: {:?}",
                w.name(),
                report.metrics
            );
            assert_eq!(
                names(&report.metrics),
                declared("end_to_end"),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn a_miniature_traced_run_of_each_workload_emits_every_layer() {
        for w in Workload::ALL {
            let report = layers::traced_at(w, 5, 1, &mini(w), false)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert_eq!(report.failed, 0, "{}", w.name());
            assert!(report.metrics.iter().all(|m| m.value.is_finite()));
            assert_eq!(
                names(&report.metrics),
                declared("per_layer"),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn an_injected_below_floor_ratio_fails_the_run() {
        let w = Workload::HeavyChurn;
        let sizes = mini(w);
        let inputs = Instance::generate_all(w, &sizes, 1);
        let mut acc = Totals::new(w, &sizes, 1);
        // no engine reaches ratio 1.5, so every checkpoint is below it
        acc.checkpoints.floor = 1.5;
        workloads::round(w, &inputs, 0, &sizes, 1, &mut acc, None).unwrap();
        assert_eq!(acc.failed, acc.checkpoints.count);
        assert!(acc.failed > 0);
    }

    #[test]
    fn a_2t_digest_mismatch_is_fatal() {
        let w = Workload::MarketplaceServe;
        let sizes = mini(w);
        let inputs = Instance::generate_all(w, &sizes, 2);
        let mut acc = Totals::new(w, &sizes, 1);
        workloads::round(w, &inputs, 0, &sizes, 1, &mut acc, None).unwrap();
        assert!(workloads::check_two_threads(&inputs, &sizes, &acc).is_ok());
        let d = acc.digests[0].as_mut().unwrap();
        d.edges.pop();
        let err = workloads::check_two_threads(&inputs, &sizes, &acc).unwrap_err();
        assert!(err.contains("2t digest"), "{err}");
    }

    #[test]
    fn a_round_that_diverges_from_its_first_is_fatal() {
        let w = Workload::MarketplaceServe;
        let sizes = mini(w);
        let inputs = Instance::generate_all(w, &sizes, 4);
        let mut acc = Totals::new(w, &sizes, 2);
        workloads::round(w, &inputs, 0, &sizes, 1, &mut acc, None).unwrap();
        acc.digests[0].as_mut().unwrap().recourse_total += 1;
        let err = workloads::round(w, &inputs, 0, &sizes, 1, &mut acc, None).unwrap_err();
        assert!(err.contains("committed state differs"), "{err}");
    }
}
