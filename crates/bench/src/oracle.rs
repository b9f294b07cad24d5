//! Ground-truth access for the experiments, plus the oracle benchmark
//! suite: `report -- oracle` writes `BENCH_oracle.json`.
//!
//! The suite measures the `wmatch-oracle` slack-array Hungarian against
//! the workspace's older dense oracles on bipartite families
//! (`bipartite-gnp`, `path`, `weighted-barrier`, `marketplace`), in three
//! sections:
//!
//! 1. **static** — cold certification time per (family, n), with the
//!    dense Hungarian and blossom rows capped at the sizes they can
//!    reach (the slack oracle runs alone at n = 10⁵);
//! 2. **warm** — re-certification of a churned copy of each instance,
//!    warm-started from the previous certificate's duals, against a cold
//!    re-solve of the same copy;
//! 3. **churn** — the [`marketplace_bipartite`] stream replayed through
//!    the dynamic engine with an
//!    [`IncrementalCertifier`] checkpoint every 1k ops, warm totals
//!    against cold totals.
//!
//! Every timed solve carries a verified certificate: the slack oracle
//! panics in-code on any complementary-slackness violation, the suite
//! re-runs the independent `Certified::verify` check on each section's
//! instances before recording a row, and the capped dense-solver rows
//! double as an agreement assertion (`value == optimum`). With
//! `WMATCH_ORACLE_GUARD=1` the suite additionally fails if warm
//! re-certification falls more than 10% behind cold in the aggregate.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wmatch_api::{solve, Instance, SolveRequest};
use wmatch_dynamic::{DynamicConfig, DynamicMatcher, UpdateOp};
use wmatch_graph::exact::{max_weight_bipartite_matching, max_weight_matching};
use wmatch_graph::generators::{path_graph, weighted_barrier_paths};
use wmatch_graph::{Graph, Vertex};
use wmatch_oracle::{certify_max_weight, Certified, IncrementalCertifier, WeightOracle};

use crate::families::marketplace_bipartite;

/// Exact maximum matching weight of `g`, via the registry's `blossom`
/// oracle. On unit-weight graphs this equals the maximum cardinality.
pub fn opt_weight(g: &Graph) -> i128 {
    solve(
        "blossom",
        &Instance::offline(g.clone()),
        &SolveRequest::new(),
    )
    .expect("the blossom oracle accepts every offline instance")
    .value
}

/// One timed row of the static section.
#[derive(Debug, Clone)]
pub struct StaticRow {
    /// Family name.
    pub family: &'static str,
    /// Vertices.
    pub n: usize,
    /// Edges.
    pub m: usize,
    /// Solver label (`oracle-cold`, `hungarian-dense`, `blossom`).
    pub solver: &'static str,
    /// Solve wall time in milliseconds.
    pub time_ms: f64,
    /// The optimum it found (asserted equal across solvers).
    pub optimum: i128,
}

/// One row of the warm section: cold vs warm re-certification of a
/// churned instance.
#[derive(Debug, Clone)]
pub struct WarmRow {
    /// Family name.
    pub family: &'static str,
    /// Vertices.
    pub n: usize,
    /// Edges after the churn.
    pub m: usize,
    /// Edges deleted + edges inserted by the churn.
    pub churn_ops: usize,
    /// Cold re-certification time (ms).
    pub cold_ms: f64,
    /// Warm (dual-repair) re-certification time (ms).
    pub warm_ms: f64,
    /// Alternating-BFS phases of the cold solve.
    pub phases_cold: usize,
    /// Alternating-BFS phases of the warm solve.
    pub phases_warm: usize,
    /// Warm pairs adopted straight into the initial matching.
    pub adopted: usize,
}

/// The churn section: incremental certification of a dynamic stream.
#[derive(Debug, Clone)]
pub struct ChurnRow {
    /// Vertices.
    pub n: usize,
    /// Stream operations replayed.
    pub ops: usize,
    /// Checkpoint cadence in operations.
    pub checkpoint: usize,
    /// Total warm certification time across all checkpoints (ms).
    pub warm_ms: f64,
    /// Total cold certification time across the same checkpoints (ms).
    pub cold_ms: f64,
    /// Worst engine-weight/optimum ratio seen at a checkpoint.
    pub min_ratio: f64,
}

/// The three sections of one suite run.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// Cold certification per (family, n, solver).
    pub static_rows: Vec<StaticRow>,
    /// Warm vs cold re-certification per (family, n).
    pub warm_rows: Vec<WarmRow>,
    /// Incremental certification of the marketplace stream.
    pub churn: ChurnRow,
}

/// Milliseconds spent in `f`, alongside its output.
fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Runs `f` `reps` times and returns the last result with the minimum
/// elapsed time — the standard noise-resistant estimate for a
/// deterministic computation.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let (mut out, mut best) = timed_ms(&mut f);
    for _ in 1..reps {
        let (o, t) = timed_ms(&mut f);
        if t < best {
            best = t;
        }
        out = o;
    }
    (out, best)
}

/// A sparse random bipartite graph (sides `0..n/2` and `n/2..n`, average
/// degree ≈ `deg`) sampled edge-by-edge — unlike the O(n²)
/// `generators::random_bipartite`, this reaches n = 10⁵ instantly.
/// Parallel edges are possible and intended (the oracle must price them).
fn sparse_bipartite(n: usize, deg: usize, seed: u64) -> Graph {
    let half = (n / 2).max(1) as Vertex;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0b5e55ed);
    let m = deg * n / 2;
    let mut g = Graph::new(n);
    for _ in 0..m {
        let u = rng.gen_range(0..half);
        let v = half + rng.gen_range(0..half);
        g.add_edge(u, v, rng.gen_range(1..=1_000));
    }
    g
}

/// The final live graph of a [`marketplace_bipartite`] stream. The
/// stream's deletions are exactly sliding-window expirations (oldest live
/// edge first), so a FIFO replay reconstructs the live set in O(ops).
fn marketplace_snapshot(n: usize, ops: usize, seed: u64) -> Graph {
    let (w, _) = marketplace_bipartite(n, ops, seed);
    let mut live: std::collections::VecDeque<(Vertex, Vertex, u64)> =
        std::collections::VecDeque::new();
    for op in &w.ops {
        match op {
            UpdateOp::Insert { u, v, weight } => live.push_back((*u, *v, *weight)),
            UpdateOp::Delete { u, v } => {
                let (lu, lv, _) = live.pop_front().expect("deletes only live pairs");
                debug_assert_eq!((lu, lv), (*u, *v), "marketplace expires FIFO");
            }
        }
    }
    let mut g = Graph::new(n);
    for (u, v, w) in live {
        g.add_edge(u, v, w);
    }
    g
}

/// The static-section families at vertex count `n`.
fn families(n: usize) -> Vec<(&'static str, Graph)> {
    vec![
        ("bipartite-gnp", sparse_bipartite(n, 8, n as u64)),
        (
            "path",
            path_graph(
                &(0..n.saturating_sub(1))
                    .map(|i| 1 + (i as u64 * 37) % 1_000)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("weighted-barrier", weighted_barrier_paths(n / 4, 500)),
        ("marketplace", marketplace_snapshot(n, 4 * n, 0x0c1e)),
    ]
}

/// Applies `ops/2` deletions and `ops/2` insertions to a copy of `g`
/// (cross edges only, per `side`), returning the churned graph.
fn churned_copy(g: &Graph, side: &[bool], ops: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4u64);
    let mut edges = g.edges().to_vec();
    let lefts: Vec<Vertex> = (0..side.len() as Vertex)
        .filter(|&v| !side[v as usize])
        .collect();
    let rights: Vec<Vertex> = (0..side.len() as Vertex)
        .filter(|&v| side[v as usize])
        .collect();
    for _ in 0..ops / 2 {
        if edges.is_empty() {
            break;
        }
        let i = rng.gen_range(0..edges.len());
        edges.swap_remove(i);
    }
    let mut out = Graph::new(g.vertex_count());
    for e in edges {
        out.add_edge(e.u, e.v, e.weight);
    }
    for _ in 0..ops / 2 {
        let u = lefts[rng.gen_range(0..lefts.len())];
        let v = rights[rng.gen_range(0..rights.len())];
        out.add_edge(u, v, rng.gen_range(1..=1_000));
    }
    out
}

/// Runs the static section: cold oracle certification per (family, n),
/// with dense-oracle comparison rows up to `cap_old` vertices.
fn static_section(sizes: &[usize], cap_old: usize) -> Vec<StaticRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        for (family, g) in families(n) {
            let side = g.bipartition().expect("static families are bipartite");
            let m = g.edge_count();
            let (cert, t) =
                timed_ms(|| certify_max_weight(&g, &side).expect("family fits its bipartition"));
            // the in-solve check already ran; re-run the independent one
            cert.verify(&g, &side).expect("certificate re-verifies");
            let optimum = cert.optimum;
            rows.push(StaticRow {
                family,
                n,
                m,
                solver: "oracle-cold",
                time_ms: t,
                optimum,
            });
            if n <= cap_old {
                let (hm, t) = timed_ms(|| max_weight_bipartite_matching(&g, &side));
                assert_eq!(
                    hm.weight(),
                    optimum,
                    "{family}/{n}: dense Hungarian disagrees"
                );
                rows.push(StaticRow {
                    family,
                    n,
                    m,
                    solver: "hungarian-dense",
                    time_ms: t,
                    optimum,
                });
                let (bm, t) = timed_ms(|| max_weight_matching(&g));
                assert_eq!(bm.weight(), optimum, "{family}/{n}: blossom disagrees");
                rows.push(StaticRow {
                    family,
                    n,
                    m,
                    solver: "blossom",
                    time_ms: t,
                    optimum,
                });
            }
        }
    }
    rows
}

/// Runs the warm section: churn each family instance at `n`, then time a
/// cold re-certification against a dual-repair warm start from the
/// pre-churn certificate.
fn warm_section(n: usize) -> Vec<WarmRow> {
    let mut rows = Vec::new();
    for (family, g0) in families(n) {
        let side = g0.bipartition().expect("static families are bipartite");
        let base = certify_max_weight(&g0, &side).expect("pre-churn certify");
        // 2% of the vertices see an update between certifications —
        // the checkpoint regime the dual warm start is built for (after
        // k small updates the number of fresh searches is O(k)); the
        // churn section below covers the heavier streaming turnover
        let churn_ops = (n / 50).max(8);
        let g1 = churned_copy(&g0, &side, churn_ops, n as u64);
        // best-of-3: at quick sizes a single cold or warm solve is
        // sub-millisecond, and the CI guard compares these numbers —
        // take the minimum over three runs so scheduler noise does not
        // decide the verdict
        let (cold, cold_ms) = best_of(3, || {
            WeightOracle::new(side.clone())
                .certify(&g1, None)
                .expect("churned copy stays bipartite")
        });
        let (warm, warm_ms) = best_of(3, || {
            WeightOracle::new(side.clone())
                .certify(&g1, Some(&base))
                .expect("churned copy stays bipartite")
        });
        assert_eq!(
            warm.optimum, cold.optimum,
            "{family}/{n}: warm and cold optima disagree"
        );
        warm.verify(&g1, &side)
            .expect("warm certificate re-verifies");
        rows.push(WarmRow {
            family,
            n,
            m: g1.edge_count(),
            churn_ops,
            cold_ms,
            warm_ms,
            phases_cold: cold.stats.phases,
            phases_warm: warm.stats.phases,
            adopted: warm.stats.adopted,
        });
    }
    rows
}

/// Runs the churn section: the bipartite marketplace stream through the
/// dynamic engine, certified warm at every `checkpoint` ops against a
/// cold solve of the same snapshot.
fn churn_section(n: usize, ops: usize, checkpoint: usize) -> ChurnRow {
    let (w, side) = marketplace_bipartite(n, ops, 0x0c2e);
    let mut eng = DynamicMatcher::new(n, DynamicConfig::default());
    let mut cert = IncrementalCertifier::new(side.clone());
    let (mut warm_ms, mut cold_ms, mut min_ratio) = (0.0f64, 0.0f64, f64::INFINITY);
    for chunk in w.ops.chunks(checkpoint) {
        eng.apply_all(chunk)
            .expect("generated stream is well-formed");
        let snap = eng.graph().snapshot();
        let (warm, wt) = timed_ms(|| cert.certify(&snap).expect("stream stays bipartite").optimum);
        warm_ms += wt;
        let (cold, ct): (Certified, f64) =
            timed_ms(|| certify_max_weight(&snap, &side).expect("stream stays bipartite"));
        cold_ms += ct;
        assert_eq!(warm, cold.optimum, "churn checkpoint: warm/cold disagree");
        let ratio = if cold.optimum == 0 {
            1.0
        } else {
            eng.matching().weight() as f64 / cold.optimum as f64
        };
        assert!(
            ratio >= 0.5 - 1e-9,
            "churn checkpoint: engine ratio {ratio} below the ½ floor"
        );
        min_ratio = min_ratio.min(ratio);
    }
    ChurnRow {
        n,
        ops: w.ops.len(),
        checkpoint,
        warm_ms,
        cold_ms,
        min_ratio,
    }
}

/// Runs the whole suite at `quick` or full sizes.
pub fn run_suite(quick: bool) -> OracleReport {
    let (sizes, cap_old, warm_n): (&[usize], usize, usize) = if quick {
        (&[200, 1_000], 200, 1_000)
    } else {
        // the dense O(n³) oracles stop being feasible past a few hundred
        // vertices; the slack oracle alone carries the n = 10⁵ row
        (&[500, 1_000, 10_000, 100_000], 500, 20_000)
    };
    let static_rows = static_section(sizes, cap_old);
    let warm_rows = warm_section(warm_n);
    // checkpoint cadence vs live-window size decides how much of the
    // previous certificate survives to be adopted: the quick parameters
    // keep the per-checkpoint turnover near 25% of the window (n = 2048
    // → window 1024, 250 ops between checkpoints) so warm starts have
    // something to reuse even at CI scale
    // best-of-3 like the warm rows (the replay is deterministic, only
    // the clock varies): component-wise minima are what the CI guard
    // compares, and a single quick replay is small enough for scheduler
    // noise to flip the verdict
    let churn = {
        let run = || {
            if quick {
                churn_section(2_048, 3_000, 250)
            } else {
                churn_section(10_000, 20_000, 1_000)
            }
        };
        let mut best = run();
        for _ in 0..2 {
            let next = run();
            best.warm_ms = best.warm_ms.min(next.warm_ms);
            best.cold_ms = best.cold_ms.min(next.cold_ms);
        }
        best
    };

    if std::env::var("WMATCH_ORACLE_GUARD").as_deref() == Ok("1") {
        let warm_total: f64 = warm_rows.iter().map(|r| r.warm_ms).sum::<f64>() + churn.warm_ms;
        let cold_total: f64 = warm_rows.iter().map(|r| r.cold_ms).sum::<f64>() + churn.cold_ms;
        // Regression guard in the WMATCH_SCALING_GUARD mold: warm
        // re-certification must not be slower than cold beyond a 10%
        // timer-noise margin. At quick sizes a checkpoint is ~100µs and
        // the O(E) instance build + certificate verification (paid
        // identically by both paths) dominate, so warm ≈ cold is the
        // expected noise floor — the guard exists to catch the warm path
        // *regressing* (e.g. a repair pass going quadratic), not to
        // demand a speedup the instance sizes cannot show.
        assert!(
            warm_total <= cold_total * 1.10,
            "oracle guard: warm re-certification ({warm_total:.1} ms) slower than cold \
             ({cold_total:.1} ms) beyond the 10% noise margin"
        );
    }
    OracleReport {
        static_rows,
        warm_rows,
        churn,
    }
}

/// Serializes the report as `BENCH_oracle.json` (hand-rolled JSON: the
/// workspace builds offline, without serde).
pub fn to_json(rep: &OracleReport, quick: bool) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n  \"unit\": \"time_ms per certified solve; every row's optimum is \
         dual-certified (complementary slackness checked in-code)\",\n  \"guard\": \
         \"WMATCH_ORACLE_GUARD=1 fails the run if warm re-certification falls more than 10% \
         behind cold in the aggregate\",\n",
        if quick { "quick" } else { "full" }
    ));
    out.push_str("  \"static\": [\n");
    for (i, r) in rep.static_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"family\": \"{}\", \"n\": {}, \"m\": {}, \"solver\": \"{}\", \
             \"time_ms\": {:.3}, \"optimum\": {}}}{}\n",
            r.family,
            r.n,
            r.m,
            r.solver,
            r.time_ms,
            r.optimum,
            if i + 1 < rep.static_rows.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ],\n  \"warm\": [\n");
    for (i, r) in rep.warm_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"family\": \"{}\", \"n\": {}, \"m\": {}, \"churn_ops\": {}, \
             \"cold_ms\": {:.3}, \"warm_ms\": {:.3}, \"speedup\": {:.2}, \
             \"phases_cold\": {}, \"phases_warm\": {}, \"adopted\": {}}}{}\n",
            r.family,
            r.n,
            r.m,
            r.churn_ops,
            r.cold_ms,
            r.warm_ms,
            r.cold_ms / r.warm_ms.max(1e-9),
            r.phases_cold,
            r.phases_warm,
            r.adopted,
            if i + 1 < rep.warm_rows.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"churn\": {{\"n\": {}, \"ops\": {}, \"checkpoint\": {}, \
         \"warm_ms\": {:.3}, \"cold_ms\": {:.3}, \"speedup\": {:.2}, \"min_ratio\": {:.4}}}\n",
        rep.churn.n,
        rep.churn.ops,
        rep.churn.checkpoint,
        rep.churn.warm_ms,
        rep.churn.cold_ms,
        rep.churn.cold_ms / rep.churn.warm_ms.max(1e-9),
        rep.churn.min_ratio
    ));
    out.push_str("}\n");
    out
}

/// Runs the suite, writes `BENCH_oracle.json` (next to the working
/// directory; override with `WMATCH_BENCH_DIR`), and renders the
/// markdown section.
pub fn run(quick: bool) -> String {
    let t0 = Instant::now();
    let rep = run_suite(quick);
    let dir = std::env::var("WMATCH_BENCH_DIR").unwrap_or_else(|_| ".".into());
    let path = std::path::Path::new(&dir).join("BENCH_oracle.json");
    std::fs::write(&path, to_json(&rep, quick)).expect("write BENCH_oracle.json");

    let mut out = String::from(
        "## Oracle — certified bipartite MWM: slack-array Hungarian vs the dense oracles\n\n",
    );
    out.push_str(&format!(
        "written: `{}` (every optimum is dual-certified before its row is recorded; the dense \
         rows double as agreement assertions)\n\n",
        path.display()
    ));
    out.push_str("### Cold certification\n\n| family | n | m | solver | time ms | optimum |\n|---|---:|---:|---|---:|---:|\n");
    for r in &rep.static_rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {:.2} | {} |\n",
            r.family, r.n, r.m, r.solver, r.time_ms, r.optimum
        ));
    }
    out.push_str("\n### Warm vs cold re-certification after churn\n\n| family | n | m | churn ops | cold ms | warm ms | speedup | phases cold→warm | adopted |\n|---|---:|---:|---:|---:|---:|---:|---|---:|\n");
    for r in &rep.warm_rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {:.2} | {:.2} | {:.2}x | {}→{} | {} |\n",
            r.family,
            r.n,
            r.m,
            r.churn_ops,
            r.cold_ms,
            r.warm_ms,
            r.cold_ms / r.warm_ms.max(1e-9),
            r.phases_cold,
            r.phases_warm,
            r.adopted
        ));
    }
    let c = &rep.churn;
    out.push_str(&format!(
        "\n### Incremental certification of the marketplace stream\n\nn = {}, {} ops, a \
         checkpoint every {} ops: warm (dual-repair) total {:.1} ms vs cold total {:.1} ms \
         ({:.2}x); worst engine ratio at a checkpoint {:.4} (floor ½).\n",
        c.n,
        c.ops,
        c.checkpoint,
        c.warm_ms,
        c.cold_ms,
        c.cold_ms / c.warm_ms.max(1e-9),
        c.min_ratio
    ));
    out.push_str(&format!(
        "\nShape: cold certification scales with the label-driven BFS (near-linear on these \
         sparse families, reaching n = 10⁵ where the dense O(n³) oracles cannot start), and \
         warm re-certification pays only for the churned region — the dual-repair pass adopts \
         the surviving tight pairs and re-searches the rest. (suite ran in {:.1}s)\n",
        t0.elapsed().as_secs_f64()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_parseable() {
        let rep = OracleReport {
            static_rows: vec![StaticRow {
                family: "bipartite-gnp",
                n: 100,
                m: 400,
                solver: "oracle-cold",
                time_ms: 1.25,
                optimum: 999,
            }],
            warm_rows: vec![WarmRow {
                family: "path",
                n: 100,
                m: 99,
                churn_ops: 10,
                cold_ms: 2.0,
                warm_ms: 0.5,
                phases_cold: 40,
                phases_warm: 6,
                adopted: 44,
            }],
            churn: ChurnRow {
                n: 64,
                ops: 1000,
                checkpoint: 100,
                warm_ms: 3.0,
                cold_ms: 9.0,
                min_ratio: 0.8125,
            },
        };
        let j = to_json(&rep, true);
        assert!(j.contains("\"solver\": \"oracle-cold\""));
        assert!(j.contains("\"speedup\": 4.00"));
        assert!(j.contains("\"min_ratio\": 0.8125"));
        assert!(j.starts_with('{') && j.trim_end().ends_with('}'));
    }

    #[test]
    fn tiny_suite_certifies_and_agrees() {
        // miniature end-to-end pass over the plumbing (not the sizes)
        let rows = static_section(&[64], 64);
        assert_eq!(rows.len(), 4 * 3, "every family gets all three solvers");
        for r in &rows {
            assert!(r.time_ms >= 0.0);
        }
        let warm = warm_section(64);
        assert_eq!(warm.len(), 4);
        for r in &warm {
            assert!(r.adopted > 0, "{}: warm start adopted nothing", r.family);
        }
        let churn = churn_section(32, 300, 100);
        assert!(churn.min_ratio >= 0.5 - 1e-9);
        assert!(churn.warm_ms > 0.0 && churn.cold_ms > 0.0);
    }

    #[test]
    fn marketplace_snapshot_is_bipartite_and_live() {
        let g = marketplace_snapshot(64, 500, 3);
        assert!(g.edge_count() > 0);
        assert!(g.bipartition().is_some());
    }
}
