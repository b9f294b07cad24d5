//! Ride-matching under churn (the motivating workload of the dynamic
//! arrival model): riders and drivers appear and disappear, each viable
//! pairing carries a value, and the dispatcher must keep a near-optimal
//! assignment *while changing as few existing matches as possible* —
//! every reassignment is a rider watching their car drive away.
//!
//! Drives `wmatch_dynamic::DynamicMatcher` directly: a pool of drivers
//! and a stream of rider sessions; each arriving rider opens pairing
//! edges to nearby drivers, each departing rider (ride served or
//! abandoned) closes them. Prints the maintained value, the oracle
//! ratio, and the recourse over time.
//!
//! ```text
//! cargo run -p wmatch-examples --example dynamic_reconnect
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wmatch_dynamic::{DynamicConfig, DynamicMatcher, UpdateOp};
use wmatch_examples::pct;
use wmatch_graph::exact::max_weight_matching;
use wmatch_graph::Vertex;

/// One rider session: the vertex it occupies and its open pairing edges.
struct Session {
    rider: Vertex,
    edges: Vec<(Vertex, Vertex)>,
}

fn main() {
    let drivers = 40usize; // vertices 0..40
    let riders = 40usize; // vertices 40..80, recycled across sessions
    let n = drivers + riders;
    let mut rng = StdRng::seed_from_u64(2026);

    let mut eng = DynamicMatcher::new(n, DynamicConfig::default());
    let mut free_rider_slots: Vec<Vertex> = (drivers as Vertex..n as Vertex).collect();
    let mut sessions: Vec<Session> = Vec::new();

    println!("ride matching: {drivers} drivers, {riders} rider slots");
    println!();
    println!(
        "{:>6} {:>8} {:>9} {:>10} {:>11}",
        "step", "riders", "value", "vs oracle", "recourse/op"
    );

    let steps = 600;
    let mut last_recourse = 0u64;
    let mut last_updates = 0u64;
    for step in 1..=steps {
        let arrive =
            !free_rider_slots.is_empty() && (sessions.is_empty() || rng.gen_range(0..100) < 55);
        if arrive {
            // a rider appears and sees 2-5 nearby drivers, valued by
            // proximity and surge
            let rider = free_rider_slots.pop().expect("slot available");
            let k = rng.gen_range(2..=5usize);
            let mut edges = Vec::with_capacity(k);
            for _ in 0..k {
                let driver = rng.gen_range(0..drivers as Vertex);
                if edges.iter().any(|&(_, d)| d == driver) {
                    continue;
                }
                let value = rng.gen_range(5..=100u64);
                eng.apply(UpdateOp::insert(rider, driver, value))
                    .expect("well-formed insert");
                edges.push((rider, driver));
            }
            sessions.push(Session { rider, edges });
        } else {
            // a rider leaves (served or gave up): all pairings close
            let i = rng.gen_range(0..sessions.len());
            let s = sessions.swap_remove(i);
            for (r, d) in s.edges {
                eng.apply(UpdateOp::delete(r, d)).expect("edge is live");
            }
            free_rider_slots.push(s.rider);
        }

        if step % 75 == 0 {
            let counters = eng.counters();
            let opt = max_weight_matching(&eng.graph().snapshot()).weight();
            let ratio = if opt == 0 {
                1.0
            } else {
                eng.matching().weight() as f64 / opt as f64
            };
            let d_rec = counters.recourse_total - last_recourse;
            let d_ops = counters.updates_applied - last_updates;
            println!(
                "{:>6} {:>8} {:>9} {:>10} {:>11.3}",
                step,
                sessions.len(),
                eng.matching().weight(),
                pct(ratio),
                d_rec as f64 / d_ops.max(1) as f64,
            );
            last_recourse = counters.recourse_total;
            last_updates = counters.updates_applied;
        }
    }

    let counters = eng.counters();
    println!();
    println!(
        "total: {} updates, {} matching edges changed ({:.3} per update), {} repair augmentations",
        counters.updates_applied,
        counters.recourse_total,
        counters.recourse_total as f64 / counters.updates_applied.max(1) as f64,
        counters.augmentations_applied,
    );
    println!(
        "the maintained matching is certified ≥ {} of optimum after every single update (Fact 1.3)",
        pct(eng.config().certified_floor()),
    );
}
