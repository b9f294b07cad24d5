//! The instance families used across experiments: the static graph
//! families of E1–E10 and the dynamic update-stream workloads of E11.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wmatch_dynamic::UpdateOp;
use wmatch_graph::generators::{self, WeightModel};
use wmatch_graph::{Edge, Graph, Vertex};

/// A named instance family, sized by a scale parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Disjoint unit-weight 3-edge paths (greedy ½-barrier).
    BarrierPaths,
    /// Disjoint weighted (w, w+1, w) paths (local-ratio barrier).
    WeightedBarrier,
    /// Erdős–Rényi with uniform weights in [1, 1000].
    GnpUniform,
    /// Erdős–Rényi with geometric weight classes (the paper's grouping).
    GnpGeometric,
    /// Random bipartite, uniform weights.
    BipartiteUniform,
    /// Disjoint alternating even cycles (only cycle augmentations help).
    AlternatingCycles,
}

impl Family {
    /// All families.
    pub fn all() -> [Family; 6] {
        [
            Family::BarrierPaths,
            Family::WeightedBarrier,
            Family::GnpUniform,
            Family::GnpGeometric,
            Family::BipartiteUniform,
            Family::AlternatingCycles,
        ]
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Family::BarrierPaths => "barrier-paths",
            Family::WeightedBarrier => "weighted-barrier",
            Family::GnpUniform => "gnp-uniform",
            Family::GnpGeometric => "gnp-geometric",
            Family::BipartiteUniform => "bipartite-uniform",
            Family::AlternatingCycles => "alternating-cycles",
        }
    }

    /// Builds an instance with roughly `n` vertices.
    pub fn build(&self, n: usize, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
        match self {
            Family::BarrierPaths => generators::disjoint_paths3(n / 4),
            Family::WeightedBarrier => generators::weighted_barrier_paths(n / 4, 500),
            Family::GnpUniform => {
                let p = (8.0 / n as f64).min(0.5);
                generators::gnp(n, p, WeightModel::Uniform { lo: 1, hi: 1000 }, &mut rng)
            }
            Family::GnpGeometric => {
                let p = (8.0 / n as f64).min(0.5);
                generators::gnp(
                    n,
                    p,
                    WeightModel::GeometricClasses {
                        classes: 8,
                        base: 3,
                    },
                    &mut rng,
                )
            }
            Family::BipartiteUniform => {
                let p = (8.0 / n as f64).min(0.5);
                generators::random_bipartite(
                    n / 2,
                    n / 2,
                    p,
                    WeightModel::Uniform { lo: 1, hi: 1000 },
                    &mut rng,
                )
                .0
            }
            Family::AlternatingCycles => generators::alternating_cycles(n / 8, 4, 3, 4).0,
        }
    }
}

/// A generated dynamic workload: the initial graph plus the update
/// sequence applied on top of it.
#[derive(Debug, Clone)]
pub struct DynamicWorkload {
    /// Vertex count (shared by the initial graph and every update).
    pub n: usize,
    /// The initial graph the updates start from.
    pub initial: Graph,
    /// The interleaved insert/delete operations.
    pub ops: Vec<UpdateOp>,
}

/// A named dynamic update-stream family, sized by a vertex count and an
/// operation count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynamicFamily {
    /// Edges arrive one by one and expire after a fixed window: every
    /// insertion past the window triggers the deletion of the oldest
    /// live edge (the classic turnstile-window workload).
    SlidingWindow,
    /// A fixed random base graph under heavy churn: random live edges
    /// are deleted and fresh random edges inserted, half-and-half.
    HeavyChurn,
    /// The adversarial sequence for a matching maintainer: repeatedly
    /// compute a greedy matching of the live graph and delete exactly
    /// its edges (the ones any good matching leans on), then hand the
    /// pairs back with fresh weights so the next round's matching
    /// differs.
    DeleteMatching,
}

impl DynamicFamily {
    /// All dynamic families.
    pub fn all() -> [DynamicFamily; 3] {
        [
            DynamicFamily::SlidingWindow,
            DynamicFamily::HeavyChurn,
            DynamicFamily::DeleteMatching,
        ]
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            DynamicFamily::SlidingWindow => "sliding-window",
            DynamicFamily::HeavyChurn => "heavy-churn",
            DynamicFamily::DeleteMatching => "delete-matching",
        }
    }

    /// Builds a workload on `n` vertices with (almost exactly) `ops`
    /// operations. Deterministic in `(n, ops, seed)`.
    pub fn build(&self, n: usize, ops: usize, seed: u64) -> DynamicWorkload {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xd1_5ea5e);
        let n = n.max(4);
        let random_pair = |rng: &mut StdRng| -> (Vertex, Vertex) {
            let u = rng.gen_range(0..n as Vertex);
            let mut v = rng.gen_range(0..n as Vertex);
            if v == u {
                v = (v + 1) % n as Vertex;
            }
            (u, v)
        };
        match self {
            DynamicFamily::SlidingWindow => {
                // window of ~2n edges: past it, each insert evicts the
                // oldest live edge
                let window = 2 * n;
                let mut live: std::collections::VecDeque<(Vertex, Vertex)> =
                    std::collections::VecDeque::new();
                let mut out = Vec::with_capacity(ops);
                while out.len() < ops {
                    let (u, v) = random_pair(&mut rng);
                    out.push(UpdateOp::insert(u, v, rng.gen_range(1..=100)));
                    live.push_back((u, v));
                    if live.len() > window && out.len() < ops {
                        let (du, dv) = live.pop_front().expect("window is non-empty");
                        out.push(UpdateOp::delete(du, dv));
                    }
                }
                DynamicWorkload {
                    n,
                    initial: Graph::new(n),
                    ops: out,
                }
            }
            DynamicFamily::HeavyChurn => {
                let initial = {
                    let p = (5.0 / n as f64).min(0.5);
                    generators::gnp(n, p, WeightModel::Uniform { lo: 1, hi: 100 }, &mut rng)
                };
                let mut live: Vec<(Vertex, Vertex)> =
                    initial.edges().iter().map(|e| (e.u, e.v)).collect();
                let mut out = Vec::with_capacity(ops);
                while out.len() < ops {
                    if !live.is_empty() && rng.gen_range(0..2) == 0 {
                        let i = rng.gen_range(0..live.len());
                        let (u, v) = live.swap_remove(i);
                        out.push(UpdateOp::delete(u, v));
                    } else {
                        let (u, v) = random_pair(&mut rng);
                        out.push(UpdateOp::insert(u, v, rng.gen_range(1..=100)));
                        live.push((u, v));
                    }
                }
                DynamicWorkload {
                    n,
                    initial,
                    ops: out,
                }
            }
            DynamicFamily::DeleteMatching => {
                // simple base graph (each round reinserts the same pairs,
                // so the live graph stays simple and the tracker exact)
                let base = {
                    let p = (5.0 / n as f64).min(0.5);
                    generators::gnp(n, p, WeightModel::Uniform { lo: 1, hi: 100 }, &mut rng)
                };
                let mut live: Vec<Edge> = base.edges().to_vec();
                live.sort_unstable_by_key(|e| e.key());
                live.dedup_by_key(|e| e.key());
                let initial = Graph::from_edges(n, live.iter().copied());
                let mut out = Vec::with_capacity(ops + n);
                while out.len() < ops {
                    // the adversary's greedy matching over the live set —
                    // exactly the edges any good matching leans on
                    let mut by_weight = live.clone();
                    by_weight.sort_unstable_by(|a, b| {
                        b.weight.cmp(&a.weight).then(a.key().cmp(&b.key()))
                    });
                    let mut matched = wmatch_graph::Matching::new(n);
                    let mut hit: Vec<Edge> = Vec::new();
                    for e in by_weight {
                        if matched.insert(e).is_ok() {
                            hit.push(e);
                        }
                    }
                    if hit.is_empty() {
                        break; // edgeless live graph: the adversary is done
                    }
                    // delete exactly the matching, then hand the pairs
                    // back with fresh weights — the next round's matching
                    // genuinely differs, so the maintainer can never
                    // settle
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
                DynamicWorkload {
                    n,
                    initial,
                    ops: out,
                }
            }
        }
    }
}

/// The worst-case adversarial update-stream families of the chaos suite
/// (E13, ROADMAP 4c): each one is built to hammer a specific weakness of
/// the repair engine, so the robustness layer is measured where the
/// engine hurts, not where it shines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversarialFamily {
    /// Weight-class boundary oscillation: a fixed set of disjoint pairs
    /// whose weights hop back and forth across geometric weight-class
    /// boundaries (powers of 1 + ε at ε = 0.25) every round, each hop a
    /// delete of the pair's matched edge and a reinsert. The dynamic
    /// engines keep no weight classes, so for them this is matched-edge
    /// churn at its purest: every update changes the matching (recourse
    /// 1 per op) while each repair stays inside one isolated pair, and
    /// the optimum a warm certifier tracks shifts every round. Bipartite
    /// by construction (pair `i` ↔ `n/2 + i`), so the exact bipartite
    /// certifier can ride it.
    BoundaryOscillation,
    /// Hub storm: every update is incident to one of four hub vertices,
    /// each holding about `n/8` edges of a sliding window, so every
    /// repair seeds its search at a high-degree vertex and consecutive
    /// updates keep re-searching the same dense neighbourhood. At most
    /// four edges are ever matched, so few updates change the matching
    /// and nearly all the repair cost is search. Bipartite (hubs on the
    /// left, spokes on the right).
    HubStorm,
    /// Delete-the-matching waves: repeatedly compute a greedy matching
    /// of the live graph and delete exactly its edges (the ones any good
    /// matching leans on), then reinsert the pairs with fresh weights —
    /// [`DynamicFamily::DeleteMatching`] in wave form, the classic
    /// recourse adversary. Not bipartite.
    DeleteMatchingWaves,
}

impl AdversarialFamily {
    /// All adversarial families.
    pub fn all() -> [AdversarialFamily; 3] {
        [
            AdversarialFamily::BoundaryOscillation,
            AdversarialFamily::HubStorm,
            AdversarialFamily::DeleteMatchingWaves,
        ]
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            AdversarialFamily::BoundaryOscillation => "boundary-oscillation",
            AdversarialFamily::HubStorm => "hub-storm",
            AdversarialFamily::DeleteMatchingWaves => "delete-matching-waves",
        }
    }

    /// Side labels (`false` = left) when the family is bipartite by
    /// construction, so the exact bipartite certifier can checkpoint it;
    /// `None` for [`AdversarialFamily::DeleteMatchingWaves`].
    pub fn bipartite_side(&self, n: usize) -> Option<Vec<bool>> {
        match self {
            AdversarialFamily::BoundaryOscillation | AdversarialFamily::HubStorm => {
                Some((0..n.max(4)).map(|v| v >= n.max(4) / 2).collect())
            }
            AdversarialFamily::DeleteMatchingWaves => None,
        }
    }

    /// Builds a workload on `n` vertices with (almost exactly) `ops`
    /// operations. Deterministic in `(n, ops, seed)`.
    pub fn build(&self, n: usize, ops: usize, seed: u64) -> DynamicWorkload {
        let n = n.max(4);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xadd_e5a17);
        match self {
            AdversarialFamily::BoundaryOscillation => {
                // boundary weights of the engine's default geometric
                // classes ((1 + ε)^k at ε = 0.25): oscillating ±1 around
                // one flips the edge's class every round
                let mut boundaries = Vec::new();
                let mut w = 4.0f64;
                while w < 1000.0 {
                    boundaries.push(w.ceil() as u64);
                    w *= 1.25;
                }
                let half = (n / 2) as Vertex;
                let pairs: Vec<(Vertex, Vertex)> = (0..half).map(|i| (i, half + i)).collect();
                let mut out = Vec::with_capacity(ops + 2 * pairs.len());
                // seed round: every pair starts just under its boundary
                for (i, &(u, v)) in pairs.iter().enumerate() {
                    let b = boundaries[i % boundaries.len()];
                    out.push(UpdateOp::insert(u, v, b - 1));
                }
                let mut round = 0u64;
                while out.len() < ops {
                    round += 1;
                    for (i, &(u, v)) in pairs.iter().enumerate() {
                        if out.len() >= ops {
                            break;
                        }
                        let b = boundaries[(i + round as usize) % boundaries.len()];
                        // hop across the boundary: b−1 ↔ b+1 by round
                        let w = if round.is_multiple_of(2) {
                            b - 1
                        } else {
                            b + 1
                        };
                        out.push(UpdateOp::delete(u, v));
                        out.push(UpdateOp::insert(u, v, w));
                    }
                }
                DynamicWorkload {
                    n,
                    initial: Graph::new(n),
                    ops: out,
                }
            }
            AdversarialFamily::HubStorm => {
                // every op touches one of a handful of left-side hubs;
                // a sliding window keeps hub degrees deep but bounded
                let hubs = 4.min(n / 2).max(1) as Vertex;
                let half = (n / 2) as Vertex;
                let window = (n / 2).max(8);
                let mut live: std::collections::VecDeque<(Vertex, Vertex)> =
                    std::collections::VecDeque::with_capacity(window + 1);
                let mut out = Vec::with_capacity(ops);
                while out.len() < ops {
                    let u = rng.gen_range(0..hubs);
                    let v = half + rng.gen_range(0..half);
                    out.push(UpdateOp::insert(u, v, rng.gen_range(1..=1_000)));
                    live.push_back((u, v));
                    if live.len() > window && out.len() < ops {
                        let (du, dv) = live.pop_front().expect("window is non-empty");
                        out.push(UpdateOp::delete(du, dv));
                    }
                }
                DynamicWorkload {
                    n,
                    initial: Graph::new(n),
                    ops: out,
                }
            }
            AdversarialFamily::DeleteMatchingWaves => {
                DynamicFamily::DeleteMatching.build(n, ops, seed)
            }
        }
    }
}

/// The E12 marketplace workload: a service-style update stream over `n`
/// users where a hot minority of users dominates the traffic (power-law
/// endpoint skew with exponent 3/2 — strong enough that the hot third
/// carries ~half the inserts, gentle enough that the hottest single
/// vertex keeps O(n^(1/3)) expected live degree, so repair balls stay
/// local at n = 10⁶) and listings expire after a sliding window (~`n/2`
/// live edges), so the live graph stays sparse while individual vertices
/// see deep churn. Not part of [`DynamicFamily::all`] — it is the serve
/// benchmark's dedicated workload, sized to millions of ops.
/// Deterministic in `(n, ops, seed)`.
pub fn marketplace(n: usize, ops: usize, seed: u64) -> DynamicWorkload {
    let n = n.max(4);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3a_4b5c6d);
    let window = (n / 2).max(8);
    let mut live: std::collections::VecDeque<(Vertex, Vertex)> =
        std::collections::VecDeque::with_capacity(window + 1);
    let mut out = Vec::with_capacity(ops);
    while out.len() < ops {
        // hot side: power-law skew concentrates traffic on low ids
        let r: f64 = rng.gen();
        let u = (r.powf(1.5) * n as f64) as Vertex;
        let mut v = rng.gen_range(0..n as Vertex);
        if v == u {
            v = (v + 1) % n as Vertex;
        }
        out.push(UpdateOp::insert(u, v, rng.gen_range(1..=1_000)));
        live.push_back((u, v));
        if live.len() > window && out.len() < ops {
            let (du, dv) = live.pop_front().expect("window is non-empty");
            out.push(UpdateOp::delete(du, dv));
        }
    }
    DynamicWorkload {
        n,
        initial: Graph::new(n),
        ops: out,
    }
}

/// The bipartite marketplace workload: the same hotspot-skewed
/// sliding-window churn as [`marketplace`], restricted to listings-vs-
/// buyers form — every edge crosses from the left half `0..n/2` (hot,
/// power-law-skewed) to the right half `n/2..n` — so the live graph is
/// bipartite at every prefix and the exact-certification suites
/// (`report -- oracle`, the `IncrementalCertifier` checkpoints of
/// `wmatch-dynamic`) can ride it. Returns the workload plus the side
/// labels (`false` = left). Deterministic in `(n, ops, seed)`.
pub fn marketplace_bipartite(n: usize, ops: usize, seed: u64) -> (DynamicWorkload, Vec<bool>) {
    let n = n.max(4);
    let half = (n / 2) as Vertex;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb1_7a57e);
    let window = (n / 2).max(8);
    let mut live: std::collections::VecDeque<(Vertex, Vertex)> =
        std::collections::VecDeque::with_capacity(window + 1);
    let mut out = Vec::with_capacity(ops);
    while out.len() < ops {
        // hot left side: power-law skew concentrates listings on low ids
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
    (
        DynamicWorkload {
            n,
            initial: Graph::new(n),
            ops: out,
        },
        side,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_build_nonempty() {
        for f in Family::all() {
            let g = f.build(40, 1);
            assert!(g.vertex_count() > 0, "{}", f.name());
            assert!(g.edge_count() > 0, "{}", f.name());
        }
    }

    #[test]
    fn builds_are_deterministic() {
        for f in Family::all() {
            assert_eq!(f.build(32, 7), f.build(32, 7));
        }
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<_> = Family::all().iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), 6);
    }

    /// Replays a workload against a pair-count tracker, asserting every
    /// deletion targets a live pair.
    fn assert_well_formed(w: &DynamicWorkload) {
        let mut live: std::collections::HashMap<(u32, u32), usize> = Default::default();
        for e in w.initial.edges() {
            *live.entry(e.key()).or_default() += 1;
        }
        for op in &w.ops {
            let (u, v) = op.endpoints();
            assert!((u as usize) < w.n && (v as usize) < w.n && u != v, "{op}");
            let key = if u <= v { (u, v) } else { (v, u) };
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
    fn dynamic_families_are_well_formed_and_deterministic() {
        for f in DynamicFamily::all() {
            let w = f.build(48, 400, 7);
            assert!(w.ops.len() >= 400, "{}: only {} ops", f.name(), w.ops.len());
            assert_well_formed(&w);
            assert!(
                w.ops.iter().any(|o| !o.is_insert()),
                "{}: no deletes",
                f.name()
            );
            let w2 = f.build(48, 400, 7);
            assert_eq!(w.ops, w2.ops, "{}: not deterministic", f.name());
            assert_eq!(w.initial, w2.initial, "{}", f.name());
        }
    }

    #[test]
    fn marketplace_is_well_formed_skewed_and_deterministic() {
        let w = marketplace(64, 800, 9);
        assert!(w.ops.len() >= 800);
        assert_well_formed(&w);
        assert!(w.ops.iter().any(|o| !o.is_insert()), "no expirations");
        assert_eq!(w.ops, marketplace(64, 800, 9).ops, "not deterministic");
        // the hot third of the id range must carry well over its uniform
        // share (it gets (1/3)^(2/3) ≈ 48% of the hot-side draws)
        let hot = w
            .ops
            .iter()
            .filter(|o| o.is_insert() && o.endpoints().0 < 21)
            .count();
        let inserts = w.ops.iter().filter(|o| o.is_insert()).count();
        assert!(
            hot * 5 > inserts * 2,
            "skew lost: {hot}/{inserts} inserts touch the hot third"
        );
    }

    #[test]
    fn marketplace_bipartite_stays_bipartite_and_deterministic() {
        let (w, side) = marketplace_bipartite(64, 800, 9);
        assert!(w.ops.len() >= 800);
        assert_well_formed(&w);
        assert!(w.ops.iter().any(|o| !o.is_insert()), "no expirations");
        assert_eq!(side.len(), 64);
        for op in &w.ops {
            let (u, v) = op.endpoints();
            assert!(
                side[u as usize] != side[v as usize],
                "{op} does not cross the bipartition"
            );
        }
        assert_eq!(w.ops, marketplace_bipartite(64, 800, 9).0.ops);
    }

    #[test]
    fn adversarial_families_are_well_formed_and_deterministic() {
        for f in AdversarialFamily::all() {
            let w = f.build(48, 400, 7);
            assert!(w.ops.len() >= 400, "{}: only {} ops", f.name(), w.ops.len());
            assert_well_formed(&w);
            assert!(
                w.ops.iter().any(|o| !o.is_insert()),
                "{}: no deletes",
                f.name()
            );
            assert_eq!(
                w.ops,
                f.build(48, 400, 7).ops,
                "{}: not deterministic",
                f.name()
            );
            if let Some(side) = f.bipartite_side(48) {
                for op in &w.ops {
                    let (u, v) = op.endpoints();
                    assert!(
                        side[u as usize] != side[v as usize],
                        "{}: {op} does not cross the bipartition",
                        f.name()
                    );
                }
            }
        }
        let names: std::collections::HashSet<_> =
            AdversarialFamily::all().iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), 3);
    }

    #[test]
    fn dynamic_family_names_are_unique() {
        let names: std::collections::HashSet<_> =
            DynamicFamily::all().iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), 3);
    }
}
