//! E12 — the marketplace serve benchmark: the sharded dynamic engine as
//! a million-user matching service.
//!
//! `report -- serve` (or `-- e12`) replays the hotspot-skewed
//! [`marketplace`] update stream through
//! [`ShardedMatcher`] at service scale — n = 10⁶ users and ≥10⁶ applied
//! updates per row in full mode — and writes `BENCH_serve.json` with
//! replay throughput (`updates_per_sec`) and batch-amortized per-update
//! ingest latency (`p50_us`/`p99_us`, one sample per committed batch).
//! Each row is the **best of N replays** (N in the JSON header), so the
//! committed numbers are repeatable peak throughput, not a draw from the
//! scheduler-noise distribution.
//!
//! Rows come in two flavours: `sequential` (the reference engine) and
//! `sharded` at shards {1, 4, 8}. Every sharded batch commits through the
//! sequential engine's per-op path, so the sharded rows price the
//! batching facade alone; the `sharded@1` row is the one the
//! `WMATCH_SERVE_GUARD` CI guard compares against sequential.
//!
//! Two guards run **before** any timing, because a throughput number for
//! a wrong result is meaningless:
//!
//! 1. **Determinism** — on a scaled-down stream (with rebuild epochs
//!    enabled), the full acceptance grid of shard count × thread count ×
//!    batch size must commit a matching and counters bit-identical to
//!    the sequential [`DynamicMatcher`].
//! 2. **Quality floor** — on an oracle-feasible sub-sample the committed
//!    matching meets the Fact 1.3 ½ floor against an exact blossom solve
//!    at every checkpoint; after each timed row the final million-vertex
//!    matching is certified to admit no positive short augmentation (the
//!    exact invariant Fact 1.3 turns into the floor).
//!
//! With `WMATCH_SERVE_GUARD=1` in the environment, the suite additionally
//! fails if the `sharded@1 (threads=1)` row falls more than 15% behind
//! sequential — the regression guard for the "batching costs ~nothing"
//! contract.

use std::time::Instant;

use wmatch_dynamic::{DynamicConfig, DynamicMatcher, ShardedMatcher, UpdateOp};
use wmatch_graph::aug_search::best_augmentation;
use wmatch_graph::exact::max_weight_matching;

use crate::families::marketplace;

/// One measured row of `BENCH_serve.json`.
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// Engine label (`sequential` or `sharded`).
    pub engine: &'static str,
    /// Shard count (1 for the sequential engine).
    pub shards: usize,
    /// Worker threads of the engine's pool.
    pub threads: usize,
    /// Ingest batch size.
    pub batch: usize,
    /// Users (vertices).
    pub n: usize,
    /// Updates applied by this row.
    pub ops: usize,
    /// Replay throughput in updates per second (best of N replays).
    pub updates_per_sec: f64,
    /// Median batch-amortized per-update ingest latency (µs).
    pub p50_us: f64,
    /// 99th-percentile batch-amortized per-update ingest latency (µs).
    pub p99_us: f64,
    /// Total net matching-edge changes across the replay.
    pub recourse_total: u64,
    /// Final matching weight.
    pub final_weight: i128,
    /// Chunks stolen by the work-stealing pool.
    pub steals: u64,
}

/// Percentile over per-batch latency samples (nearest-rank on the sorted
/// list; `q` in [0, 1]).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// The host's available hardware parallelism (what `threads = 0`
/// resolves to), recorded so committed runs are self-describing.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Asserts the sharded engine's determinism contract on a scaled-down
/// marketplace stream: the full acceptance grid — shards {1, 4, 8} ×
/// threads {1, 2, 4, 0} × batch {64, 256, 512} — commits bit-identical
/// state to the sequential engine, with rebuild epochs enabled so the
/// parallel epoch layer is covered too.
fn assert_determinism(n: usize, ops: usize) {
    let w = marketplace(n, ops, 0xE12);
    let cfg = DynamicConfig::default()
        .with_seed(5)
        .with_rebuild_threshold(ops / 3);
    let mut seq = DynamicMatcher::new(n, cfg);
    seq.apply_all(&w.ops)
        .expect("generated stream is well-formed");
    for shards in [1usize, 4, 8] {
        for threads in [1usize, 2, 4, 0] {
            for batch in [64usize, 256, 512] {
                let mut sh = ShardedMatcher::new(n, cfg.with_threads(threads), shards)
                    .with_batch_size(batch);
                sh.apply_all(&w.ops).expect("same stream");
                assert_eq!(
                    seq.matching().to_edges(),
                    sh.matching().to_edges(),
                    "serve determinism: shards={shards} threads={threads} batch={batch}"
                );
                assert_eq!(
                    seq.counters(),
                    sh.counters(),
                    "serve counters: shards={shards} threads={threads} batch={batch}"
                );
            }
        }
    }
}

/// Asserts the Fact 1.3 ½ floor against the exact blossom oracle at
/// checkpoints of an oracle-feasible marketplace sub-sample, replayed
/// through the sharded engine itself.
fn assert_oracle_floor_subsample(n: usize, ops: usize, checkpoint: usize) {
    let w = marketplace(n, ops, 0xF100);
    let cfg = DynamicConfig::default().with_seed(5);
    let mut sh = ShardedMatcher::new(n, cfg, 4);
    for (i, chunk) in w.ops.chunks(checkpoint).enumerate() {
        sh.apply_all(chunk)
            .expect("generated stream is well-formed");
        let snap = sh.graph().snapshot();
        sh.matching()
            .validate(Some(&snap))
            .unwrap_or_else(|e| panic!("serve floor checkpoint {i}: invalid matching: {e}"));
        assert!(
            best_augmentation(&snap, sh.matching(), cfg.max_len).is_none(),
            "serve floor checkpoint {i}: a positive short augmentation survived"
        );
        let opt = max_weight_matching(&snap).weight();
        assert!(
            sh.matching().weight() * 2 >= opt,
            "serve floor checkpoint {i}: {} below half of optimum {opt}",
            sh.matching().weight()
        );
    }
}

/// One timed replay of `ops` through one engine configuration; returns
/// the row plus the raw busy seconds (for best-of-N selection).
fn replay_once(
    engine: &'static str,
    n: usize,
    ops: &[UpdateOp],
    shards: usize,
    threads: usize,
    batch: usize,
) -> (ServeRow, f64) {
    let cfg = DynamicConfig::default().with_seed(5).with_threads(threads);
    let mut lat_us: Vec<f64> = Vec::with_capacity(ops.len() / batch + 1);
    // replay time = the sum of the timed batches (the final-snapshot
    // certificate below is verification, not service work)
    let mut busy = 0.0f64;
    let (matching_weight, recourse, steals) = if engine == "sequential" {
        let mut eng = DynamicMatcher::new(n, cfg);
        for chunk in ops.chunks(batch) {
            let t = Instant::now();
            eng.apply_all(chunk)
                .expect("generated stream is well-formed");
            let dt = t.elapsed().as_secs_f64();
            busy += dt;
            lat_us.push(dt * 1e6 / chunk.len() as f64);
        }
        // the Fact 1.3 certificate on the full final graph: the
        // invariant the ½ floor follows from, checkable without the
        // O(n³) oracle
        let snap = eng.graph().snapshot();
        assert!(
            best_augmentation(&snap, eng.matching(), cfg.max_len).is_none(),
            "{engine}: a positive short augmentation survived the replay"
        );
        (
            eng.matching().weight(),
            eng.counters().recourse_total,
            eng.steals(),
        )
    } else {
        let mut eng = ShardedMatcher::new(n, cfg, shards).with_batch_size(batch);
        for chunk in ops.chunks(batch) {
            let t = Instant::now();
            eng.apply_batch(chunk)
                .expect("generated stream is well-formed");
            let dt = t.elapsed().as_secs_f64();
            busy += dt;
            lat_us.push(dt * 1e6 / chunk.len() as f64);
        }
        let snap = eng.graph().snapshot();
        assert!(
            best_augmentation(&snap, eng.matching(), cfg.max_len).is_none(),
            "{engine}({shards}): a positive short augmentation survived the replay"
        );
        (
            eng.matching().weight(),
            eng.counters().recourse_total,
            eng.steals(),
        )
    };
    lat_us.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let row = ServeRow {
        engine,
        shards,
        threads,
        batch,
        n,
        ops: ops.len(),
        updates_per_sec: ops.len() as f64 / busy.max(1e-9),
        p50_us: percentile(&lat_us, 0.50),
        p99_us: percentile(&lat_us, 0.99),
        recourse_total: recourse,
        final_weight: matching_weight,
        steals,
    };
    (row, busy)
}

/// Measures one configuration `best_of` times and keeps the fastest
/// replay (every replay commits the identical state — only timing
/// varies, so best-of-N is selection, not cherry-picking).
fn measure(
    engine: &'static str,
    n: usize,
    ops: &[UpdateOp],
    shards: usize,
    threads: usize,
    batch: usize,
    best_of: usize,
) -> ServeRow {
    let mut best: Option<(ServeRow, f64)> = None;
    for _ in 0..best_of.max(1) {
        let (row, busy) = replay_once(engine, n, ops, shards, threads, batch);
        if best.as_ref().is_none_or(|(_, b)| busy < *b) {
            best = Some((row, busy));
        }
    }
    best.expect("at least one replay ran").0
}

/// How many replays each row keeps the best of.
fn best_of(quick: bool) -> usize {
    if quick {
        2
    } else {
        3
    }
}

/// Runs the whole serve suite: guards first, then the timed rows, then
/// (under `WMATCH_SERVE_GUARD=1`) the sharded@1 overhead guard.
pub fn run_suite(quick: bool) -> Vec<ServeRow> {
    // batch 256 is the engine's default ingest batch
    let (n, ops, batch) = if quick {
        (10_000usize, 100_000usize, 256usize)
    } else {
        (1_000_000, 2_000_000, 256)
    };
    // guard 1: determinism (scaled-down, epochs enabled, full grid)
    let (gn, gops) = if quick { (800, 6_000) } else { (2_000, 20_000) };
    assert_determinism(gn, gops);
    // guard 2: the ½ floor against the exact oracle on a feasible
    // sub-sample, replayed through the sharded engine itself
    let (fn_, fops, fcheck) = if quick {
        (96, 1_500, 500)
    } else {
        (120, 3_000, 750)
    };
    assert_oracle_floor_subsample(fn_, fops, fcheck);

    let w = marketplace(n, ops, 0xCAFE);
    let reps = best_of(quick);
    let mut rows = vec![measure("sequential", n, &w.ops, 1, 1, batch, reps)];
    // the overhead-parity rows: the batching facade over the same path
    for shards in [1usize, 4, 8] {
        rows.push(measure("sharded", n, &w.ops, shards, 1, batch, reps));
    }
    // the engines must agree at scale too (cheap: weights + recourse are
    // already collected per row)
    for r in &rows[1..] {
        assert_eq!(
            r.final_weight, rows[0].final_weight,
            "sharded({}@{}) final weight diverged from sequential",
            r.shards, r.threads
        );
        assert_eq!(
            r.recourse_total, rows[0].recourse_total,
            "sharded({}@{}) recourse diverged from sequential",
            r.shards, r.threads
        );
    }
    if std::env::var("WMATCH_SERVE_GUARD").as_deref() == Ok("1") {
        assert_serve_guard(&rows);
    }
    rows
}

/// The CI overhead guard: `sharded@1 (threads=1)` must stay within 15%
/// of sequential throughput — the "batching costs ~nothing" contract,
/// enforced.
fn assert_serve_guard(rows: &[ServeRow]) {
    let seq = rows
        .iter()
        .find(|r| r.engine == "sequential")
        .expect("suite always measures sequential");
    let sh1 = rows
        .iter()
        .find(|r| r.engine == "sharded" && r.shards == 1 && r.threads == 1)
        .expect("suite always measures sharded@1 threads=1");
    assert!(
        sh1.updates_per_sec >= 0.85 * seq.updates_per_sec,
        "serve guard: sharded@1 at {:.0} updates/s is more than 15% behind sequential at {:.0}",
        sh1.updates_per_sec,
        seq.updates_per_sec
    );
}

/// Serializes the rows as `BENCH_serve.json` (hand-rolled JSON: the
/// workspace builds offline, without serde).
pub fn to_json(rows: &[ServeRow], quick: bool) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n  \"hardware_threads\": {},\n  \"policy\": \"each row is the best of {} full replays (identical committed state per replay; only timing varies)\",\n  \"workload\": \"marketplace (hotspot-skewed sliding-window churn)\",\n  \"unit\": \"updates_per_sec; p50_us/p99_us are batch-amortized per-update ingest latencies\",\n  \"determinism\": \"sharded engine asserted bit-identical to sequential for shards 1/4/8 x threads 1/2/4/0 x batch 64/256/512 (rebuild epochs enabled) before timing; final weight and recourse re-asserted at full scale\",\n  \"floor\": \"Fact 1.3 half floor asserted against the exact blossom oracle at checkpoints of a feasible sub-sample, replayed through the sharded engine\",\n  \"benches\": [\n",
        if quick { "quick" } else { "full" },
        hardware_threads(),
        best_of(quick),
    ));
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"engine\": \"{}\", \"shards\": {}, \"threads\": {}, \"batch\": {}, \"n\": {}, \
             \"ops\": {}, \"updates_per_sec\": {:.1}, \"p50_us\": {:.3}, \"p99_us\": {:.3}, \
             \"recourse_total\": {}, \"final_weight\": {}, \"steals\": {}}}{}\n",
            r.engine,
            r.shards,
            r.threads,
            r.batch,
            r.n,
            r.ops,
            r.updates_per_sec,
            r.p50_us,
            r.p99_us,
            r.recourse_total,
            r.final_weight,
            r.steals,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs the suite, writes `BENCH_serve.json` (next to the working
/// directory; override with `WMATCH_BENCH_DIR`), and renders the
/// markdown section.
pub fn run(quick: bool) -> String {
    let t0 = Instant::now();
    let rows = run_suite(quick);
    let dir = std::env::var("WMATCH_BENCH_DIR").unwrap_or_else(|_| ".".into());
    let path = std::path::Path::new(&dir).join("BENCH_serve.json");
    std::fs::write(&path, to_json(&rows, quick)).expect("write BENCH_serve.json");

    let mut out =
        String::from("## E12 — marketplace serve: the sharded engine at service scale\n\n");
    out.push_str(&format!(
        "written: `{}` (determinism and the Fact 1.3 ½ floor asserted before timing; \
         latencies are batch-amortized per update; each row is the best of {} replays)\n\n",
        path.display(),
        best_of(quick),
    ));
    out.push_str("| engine | shards | threads | n | ops | updates/s | p50 µs | p99 µs | recourse | steals |\n");
    out.push_str("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n");
    for r in &rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {:.0} | {:.2} | {:.2} | {} | {} |\n",
            r.engine,
            r.shards,
            r.threads,
            r.n,
            r.ops,
            r.updates_per_sec,
            r.p50_us,
            r.p99_us,
            r.recourse_total,
            r.steals
        ));
    }
    out.push_str(&format!(
        "\nShape: all engines commit the identical matching (that is the contract, asserted \
         above). Every sharded batch commits through the sequential engine's per-op path, \
         so the sharded rows' throughput gap is pure batching-facade overhead and the serve \
         guard holds it within 15%. (suite ran in {:.1}s)\n",
        t0.elapsed().as_secs_f64()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_parseable() {
        let rows = vec![ServeRow {
            engine: "sharded",
            shards: 4,
            threads: 2,
            batch: 256,
            n: 1000,
            ops: 5000,
            updates_per_sec: 123_456.7,
            p50_us: 1.25,
            p99_us: 9.5,
            recourse_total: 42,
            final_weight: 999,
            steals: 3,
        }];
        let j = to_json(&rows, true);
        assert!(j.contains("\"updates_per_sec\": 123456.7"));
        assert!(j.contains("\"p99_us\": 9.500"));
        assert!(j.contains("\"engine\": \"sharded\""));
        assert!(j.contains("\"threads\": 2"));
        assert!(j.contains("\"hardware_threads\":"));
        assert!(j.contains("best of 2 full replays"));
        assert!(j.contains("\"steals\": 3"));
        assert!(j.starts_with('{') && j.trim_end().ends_with('}'));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 0.99), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tiny_suite_guards_and_measures() {
        // miniature end-to-end pass over the plumbing (not the sizes)
        assert_determinism(64, 400);
        assert_oracle_floor_subsample(32, 300, 150);
        let w = marketplace(128, 1_000, 1);
        let seq = measure("sequential", 128, &w.ops, 1, 1, 64, 1);
        let sh = measure("sharded", 128, &w.ops, 4, 1, 64, 1);
        assert_eq!(seq.final_weight, sh.final_weight);
        assert_eq!(seq.recourse_total, sh.recourse_total);
        assert!(sh.updates_per_sec > 0.0 && sh.p99_us >= sh.p50_us);
        // a two-worker pool commits the same state
        let sp = measure("sharded", 128, &w.ops, 4, 2, 64, 1);
        assert_eq!(sp.final_weight, seq.final_weight);
        assert_eq!(sp.recourse_total, seq.recourse_total);
    }

    #[test]
    fn serve_guard_trips_on_slow_sharded() {
        let mk = |engine: &'static str, threads: usize, ups: f64| ServeRow {
            engine,
            shards: 1,
            threads,
            batch: 256,
            n: 100,
            ops: 100,
            updates_per_sec: ups,
            p50_us: 1.0,
            p99_us: 2.0,
            recourse_total: 0,
            final_weight: 0,
            steals: 0,
        };
        // within 15%: fine
        assert_serve_guard(&[mk("sequential", 1, 100_000.0), mk("sharded", 1, 90_000.0)]);
        // beyond 15%: trips
        let r = std::panic::catch_unwind(|| {
            assert_serve_guard(&[mk("sequential", 1, 100_000.0), mk("sharded", 1, 70_000.0)]);
        });
        assert!(r.is_err(), "a 30% gap must trip the guard");
    }
}
