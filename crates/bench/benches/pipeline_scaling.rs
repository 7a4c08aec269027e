//! Criterion bench behind Fig. 8: Canary's full bug-hunting pipeline
//! (VFG construction + inter-thread UAF checking) across program sizes,
//! whose near-linear growth is the paper's scalability claim.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use canary_bench::run_canary_uaf;
use canary_workloads::{generate, WorkloadSpec};

fn bench_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline_scaling");
    g.sample_size(10);
    for &stmts in &[300usize, 600, 1200, 2400, 4800] {
        let spec = WorkloadSpec {
            target_stmts: stmts,
            ..WorkloadSpec::small(0xF168)
        };
        let w = generate(&spec);
        g.throughput(Throughput::Elements(w.prog.stmt_count() as u64));
        g.bench_with_input(BenchmarkId::new("canary_uaf", stmts), &w, |b, w| {
            b.iter(|| run_canary_uaf(w));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
