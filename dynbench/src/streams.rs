//! The benchmark's own input generators: the three update-stream
//! families, made from the `--seed` argument alone.
//!
//! They follow `crates/bench/src/families.rs` (same RNG, same seed
//! mixing, same draw order), so a row here lines up with the matching
//! rows of `BENCH_dynamic.json` and `BENCH_serve.json` at equal
//! `(n, ops, seed)`. They are copied rather than imported so that a
//! later change to the report harness cannot silently change a workload.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wmatch_dynamic::UpdateOp;
use wmatch_graph::generators::{gnp, WeightModel};
use wmatch_graph::{Edge, Graph, Matching, Vertex};

/// An update stream: the initial graph plus the operations applied on
/// top of it.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Vertex count.
    pub n: usize,
    /// The graph the stream starts from.
    pub initial: Graph,
    /// Interleaved inserts and deletes.
    pub ops: Vec<UpdateOp>,
}

/// The bipartite marketplace stream: every edge runs from the
/// power-law-hot left half to the right half, weights 1–1000, and each
/// listing expires after a window of `n/2` live edges. Returns the
/// stream, the side labels (`false` = left), and the window; the first
/// `window` ops are inserts that fill it.
pub fn marketplace_bipartite(n: usize, ops: usize, seed: u64) -> (Stream, Vec<bool>, usize) {
    let n = n.max(4);
    let half = (n / 2) as Vertex;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb1_7a57e);
    let window = (n / 2).max(8);
    let mut live: VecDeque<(Vertex, Vertex)> = VecDeque::with_capacity(window + 1);
    let mut out = Vec::with_capacity(ops);
    while out.len() < ops {
        let r: f64 = rng.gen();
        let u = (r.powf(1.5) * half as f64) as Vertex;
        let v = half + rng.gen_range(0..half);
        out.push(UpdateOp::insert(u, v, rng.gen_range(1..=1_000)));
        live.push_back((u, v));
        if live.len() > window && out.len() < ops {
            let (du, dv) = live.pop_front().expect("window is non-empty");
            out.push(UpdateOp::delete(du, dv));
        }
    }
    let side = (0..n).map(|v| v >= n / 2).collect();
    let stream = Stream {
        n,
        initial: Graph::new(n),
        ops: out,
    };
    (stream, side, window)
}

/// Shared prologue of the two general-graph families: the RNG and the
/// G(n, 5/n) base graph with weights 1–100.
fn churn_base(n: usize, seed: u64) -> (StdRng, Graph) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd1_5ea5e);
    let p = (5.0 / n as f64).min(0.5);
    let base = gnp(n, p, WeightModel::Uniform { lo: 1, hi: 100 }, &mut rng);
    (rng, base)
}

fn random_pair(rng: &mut StdRng, n: usize) -> (Vertex, Vertex) {
    let u = rng.gen_range(0..n as Vertex);
    let mut v = rng.gen_range(0..n as Vertex);
    if v == u {
        v = (v + 1) % n as Vertex;
    }
    (u, v)
}

/// `HeavyChurn`: a G(n, 5/n) base under churn — half the ops delete a
/// random live edge, half insert a random pair with weight 1–100.
pub fn heavy_churn(n: usize, ops: usize, seed: u64) -> Stream {
    let n = n.max(4);
    let (mut rng, initial) = churn_base(n, seed);
    let mut live: Vec<(Vertex, Vertex)> = initial.edges().iter().map(|e| (e.u, e.v)).collect();
    let mut out = Vec::with_capacity(ops);
    while out.len() < ops {
        if !live.is_empty() && rng.gen_range(0..2) == 0 {
            let i = rng.gen_range(0..live.len());
            let (u, v) = live.swap_remove(i);
            out.push(UpdateOp::delete(u, v));
        } else {
            let (u, v) = random_pair(&mut rng, n);
            out.push(UpdateOp::insert(u, v, rng.gen_range(1..=100)));
            live.push((u, v));
        }
    }
    Stream {
        n,
        initial,
        ops: out,
    }
}

/// `DeleteMatching`: the adversary computes a greedy matching of the
/// live graph, deletes exactly its edges, then reinserts those pairs
/// with fresh weights, round after round.
pub fn delete_matching(n: usize, ops: usize, seed: u64) -> Stream {
    let n = n.max(4);
    let (mut rng, base) = churn_base(n, seed);
    let mut live: Vec<Edge> = base.edges().to_vec();
    live.sort_unstable_by_key(|e| e.key());
    live.dedup_by_key(|e| e.key());
    let initial = Graph::from_edges(n, live.iter().copied());
    let mut out = Vec::with_capacity(ops + n);
    while out.len() < ops {
        let mut by_weight = live.clone();
        by_weight.sort_unstable_by(|a, b| b.weight.cmp(&a.weight).then(a.key().cmp(&b.key())));
        let mut matched = Matching::new(n);
        let mut hit: Vec<Edge> = Vec::new();
        for e in by_weight {
            if matched.insert(e).is_ok() {
                hit.push(e);
            }
        }
        if hit.is_empty() {
            break;
        }
        for e in &hit {
            out.push(UpdateOp::delete(e.u, e.v));
        }
        for e in &hit {
            let w = rng.gen_range(1..=100);
            out.push(UpdateOp::insert(e.u, e.v, w));
            let slot = live
                .iter_mut()
                .find(|l| l.key() == e.key())
                .expect("hit edges come from the live set");
            slot.weight = w;
        }
    }
    Stream {
        n,
        initial,
        ops: out,
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    /// Replays a stream against a per-pair live-copy count: every op is
    /// in range and not a loop, every weight positive, and every delete
    /// hits a live pair.
    fn assert_well_formed(s: &Stream) {
        let mut live: HashMap<(Vertex, Vertex), usize> = HashMap::new();
        for e in s.initial.edges() {
            *live.entry(e.key()).or_default() += 1;
        }
        for op in &s.ops {
            let (u, v) = op.endpoints();
            assert!((u as usize) < s.n && (v as usize) < s.n && u != v, "{op}");
            let key = (u.min(v), u.max(v));
            match op {
                UpdateOp::Insert { weight, .. } => {
                    assert!(*weight > 0, "{op}");
                    *live.entry(key).or_default() += 1;
                }
                UpdateOp::Delete { .. } => {
                    let c = live.get_mut(&key).unwrap_or_else(|| panic!("{op} dangles"));
                    assert!(*c > 0, "{op} deletes a dead pair");
                    *c -= 1;
                }
            }
        }
    }

    #[test]
    fn marketplace_is_deterministic_bipartite_and_well_formed() {
        let (s, side, window) = marketplace_bipartite(200, 3000, 7);
        assert_well_formed(&s);
        assert_eq!(window, 100);
        assert!(
            s.ops[..window].iter().all(|o| o.is_insert()),
            "warm-up fills the window"
        );
        assert!(
            s.ops[window..].iter().any(|o| !o.is_insert()),
            "listings expire"
        );
        for op in &s.ops {
            let (u, v) = op.endpoints();
            assert_ne!(side[u as usize], side[v as usize], "{op} crosses no side");
        }
        assert_eq!(s.ops, marketplace_bipartite(200, 3000, 7).0.ops);
        assert_ne!(s.ops, marketplace_bipartite(200, 3000, 8).0.ops);
    }

    #[test]
    fn churn_families_are_deterministic_and_well_formed() {
        for build in [heavy_churn, delete_matching] {
            let s = build(120, 2000, 3);
            assert!(s.ops.len() >= 2000);
            assert!(s.initial.edge_count() > 0);
            assert!(s.ops.iter().any(|o| !o.is_insert()));
            assert_well_formed(&s);
            let again = build(120, 2000, 3);
            assert_eq!(s.ops, again.ops);
            assert_eq!(s.initial, again.initial);
            assert_ne!(s.ops, build(120, 2000, 4).ops);
        }
    }
}
