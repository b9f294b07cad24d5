//! A million-user marketplace as a matching service: buyers and sellers
//! stream offers in, listings expire, and the dispatcher keeps a
//! certified near-optimal assignment live the whole time — sharded and
//! write-ahead logged, with the committed state bit-identical to a
//! sequential replay.
//!
//! Drives `wmatch_dynamic::ShardedMatcher` directly over a
//! hotspot-skewed sliding-window stream (a few hot users dominate the
//! traffic; offers expire after a window), reporting throughput and
//! batch-amortized p50/p99 ingest latency per reporting interval.
//!
//! Ingest goes through the fault-tolerant [`ServeDriver`]: a batch that
//! trips a fault is not an abort — the driver surfaces the partial
//! progress ([`wmatch_dynamic::BatchStats`]), retries transient
//! rejections with bounded backoff, skips malformed ops, and keeps the
//! marketplace live. Pass `chaos` to inject a deterministic fault storm
//! (about one poisoned op in 97) and watch the service degrade and
//! recover instead of falling over.
//!
//! ```text
//! cargo run --release -p wmatch-examples --example marketplace            # 10⁶ users
//! cargo run --release -p wmatch-examples --example marketplace -- quick  # scaled down
//! cargo run --release -p wmatch-examples --example marketplace -- quick chaos
//! ```

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wmatch_dynamic::{
    ChaosConfig, DynamicConfig, RetryPolicy, ServeDriver, ShardedMatcher, UpdateOp,
};
use wmatch_graph::Vertex;

/// Nearest-rank percentile over sorted samples.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn main() {
    let quick = std::env::args().any(|a| a == "quick");
    let chaos = std::env::args().any(|a| a == "chaos");
    let (n, total_ops) = if quick {
        (10_000usize, 100_000usize)
    } else {
        (1_000_000, 2_000_000)
    };
    let shards = 8usize;
    let batch = 256usize;
    let window = (n / 2).max(8);
    let mut rng = StdRng::seed_from_u64(0xE12);

    println!("marketplace: {n} users, {total_ops} updates, {shards} shards, batch {batch}");
    println!("(offers expire after a {window}-listing window; hot users dominate the stream)");
    if chaos {
        println!("chaos: poisoning ~1% of ops");
    }
    println!();
    println!(
        "{:>10} {:>12} {:>10} {:>10} {:>10} {:>12}",
        "ops", "updates/s", "p50 µs", "p99 µs", "value", "recourse/op"
    );

    let mut eng = ShardedMatcher::new(n, DynamicConfig::default(), shards).with_batch_size(batch);
    if chaos {
        eng.install_chaos(
            ChaosConfig::new()
                .with_seed(0xC4405)
                .with_poison_every(97)
                .with_bitflip_every(0),
        );
    }
    let mut driver = ServeDriver::new(RetryPolicy::default());
    let mut live: std::collections::VecDeque<(Vertex, Vertex)> =
        std::collections::VecDeque::with_capacity(window + 1);
    let mut ops: Vec<UpdateOp> = Vec::with_capacity(batch);
    let mut lat_us: Vec<f64> = Vec::new();
    let mut interval_busy = 0.0f64;
    let mut interval_ops = 0usize;
    let mut applied = 0usize;
    let mut last_recourse = 0u64;
    let report_every = total_ops / 10;

    while applied < total_ops {
        ops.clear();
        while ops.len() < batch && applied + ops.len() < total_ops {
            // hot side: power-law skew concentrates offers on low ids
            let r: f64 = rng.gen();
            let u = (r.powf(1.5) * n as f64) as Vertex;
            let mut v = rng.gen_range(0..n as Vertex);
            if v == u {
                v = (v + 1) % n as Vertex;
            }
            ops.push(UpdateOp::insert(u, v, rng.gen_range(1..=1_000)));
            live.push_back((u, v));
            if live.len() > window && applied + ops.len() < total_ops {
                let (du, dv) = live.pop_front().expect("window is non-empty");
                ops.push(UpdateOp::delete(du, dv));
            }
        }
        let t = Instant::now();
        // the driver never aborts: partial progress (BatchStats) is
        // surfaced, transient faults are retried with backoff, malformed
        // ops are skipped, and a fault storm degrades instead of failing
        let stats = driver.serve(&mut eng, &ops);
        debug_assert!(stats.applied <= ops.len());
        let dt = t.elapsed().as_secs_f64();
        interval_busy += dt;
        interval_ops += ops.len();
        lat_us.push(dt * 1e6 / ops.len() as f64);
        applied += ops.len();

        if applied % report_every < batch {
            lat_us.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
            let c = eng.counters();
            println!(
                "{:>10} {:>12.0} {:>10.2} {:>10.2} {:>10} {:>12.3}",
                applied,
                interval_ops as f64 / interval_busy.max(1e-9),
                percentile(&lat_us, 0.50),
                percentile(&lat_us, 0.99),
                eng.matching().weight(),
                (c.recourse_total - last_recourse) as f64 / interval_ops.max(1) as f64,
            );
            last_recourse = c.recourse_total;
            lat_us.clear();
            interval_busy = 0.0;
            interval_ops = 0;
        }
    }

    driver.finish(&mut eng);
    let c = eng.counters();
    println!();
    println!(
        "total: {} updates over {} users; {} matching edges changed ({:.3}/update)",
        c.updates_applied,
        n,
        c.recourse_total,
        c.recourse_total as f64 / c.updates_applied.max(1) as f64,
    );
    let d = driver.stats();
    if d.fatal_errors + d.transient_errors + d.storms > 0 || chaos {
        println!(
            "faults: {} malformed ops skipped, {} transient rejections ({} retries), \
             {} storms → {} degraded batches",
            d.skipped_ops, d.transient_errors, d.retries, d.storms, d.degraded_batches,
        );
    }
    if chaos {
        println!(
            "the service stayed live through the fault storm: malformed ops were skipped \
             typed, storms degraded to deferred repairs, and the quality watchdog \
             re-certified the ½ floor (Fact 1.3) at every flush"
        );
    } else {
        println!(
            "the committed matching is bit-identical to a sequential replay and certified \
             ≥ 50% of optimum after every batch (Fact 1.3)"
        );
    }
}
