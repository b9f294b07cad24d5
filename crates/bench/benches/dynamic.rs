//! Criterion benchmarks for the dynamic update-stream engine: replay
//! throughput of `DynamicMatcher` on each E11 workload family, against
//! the recompute-from-scratch baseline on a smaller op count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use wmatch_bench::families::DynamicFamily;
use wmatch_dynamic::{DynamicConfig, DynamicMatcher, RecomputeBaseline};

fn bench_engine_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic/engine_replay");
    group.sample_size(10);
    for family in DynamicFamily::all() {
        // the replay measured here includes the from-graph bootstrap, so
        // only the empty-initial sliding-window family scales to 10⁴
        // vertices without the bootstrap dominating the number
        let sizes: &[(usize, usize)] = match family {
            DynamicFamily::SlidingWindow => &[(1_000, 2_000), (10_000, 5_000)],
            _ => &[(1_000, 2_000), (2_000, 3_000)],
        };
        for &(n, ops) in sizes {
            let w = family.build(n, ops, 17);
            let id = BenchmarkId::new(family.name(), format!("n{n}_ops{}", w.ops.len()));
            group.bench_with_input(id, &w, |b, w| {
                b.iter(|| {
                    let mut eng = DynamicMatcher::from_graph(&w.initial, DynamicConfig::default())
                        .expect("well-formed workload");
                    eng.apply_all(&w.ops).expect("well-formed workload");
                    eng.matching().weight()
                })
            });
        }
    }
    group.finish();
}

fn bench_recompute_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic/recompute_baseline");
    group.sample_size(10);
    for family in DynamicFamily::all() {
        let w = family.build(200, 200, 17);
        let id = BenchmarkId::from_parameter(family.name());
        group.bench_with_input(id, &w, |b, w| {
            b.iter(|| {
                let mut base =
                    RecomputeBaseline::from_graph(&w.initial, 3).expect("well-formed workload");
                for &op in &w.ops {
                    base.apply(op).expect("well-formed workload");
                }
                base.matching().weight()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine_replay, bench_recompute_baseline);
criterion_main!(benches);
