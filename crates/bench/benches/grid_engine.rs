//! Grid engine throughput: serial vs parallel execution of a reduced
//! Fig. 3 sweep. End-to-end sweep timings with a per-layer host-time
//! ledger come from the `perfbench/` package that `BENCHMARK.json`
//! declares; this bench isolates the executor alone.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use voltascope::grid::{Executor, GridSpec};
use voltascope::{experiments::fig3, Harness};
use voltascope_dnn::zoo::Workload;

fn bench_grid_executors(c: &mut Criterion) {
    let harness = Harness::paper();
    // Reduced but uneven sweep: a cheap and an expensive workload, so
    // the dynamic work-stealing actually matters.
    let workloads = [Workload::LeNet, Workload::AlexNet];
    let cells = GridSpec::paper().workloads(workloads.iter().copied()).len() as u64;

    let mut group = c.benchmark_group("grid_engine");
    group.sample_size(10);
    group.throughput(criterion::Throughput::Elements(cells));
    for threads in [1usize, 2, 4, 8] {
        let exec = if threads == 1 {
            Executor::Serial
        } else {
            Executor::Parallel { threads }
        };
        group.bench_with_input(
            BenchmarkId::new("fig3_reduced", format!("{threads}thread")),
            &exec,
            |b, &exec| {
                b.iter(|| fig3::grid_with(&harness, &workloads, exec));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_grid_executors);
criterion_main!(benches);
