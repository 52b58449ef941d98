//! End-to-end cost of the reproduction harness: wall time to simulate
//! one training epoch per configuration (what every cell of the paper's
//! Fig. 3 grid costs to regenerate, lowering included).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use voltascope::grid::{cell_report, GridSpec};
use voltascope::Harness;
use voltascope_comm::CommMethod;
use voltascope_dnn::zoo::Workload;

fn bench_epochs(c: &mut Criterion) {
    let harness = Harness::paper();
    let mut group = c.benchmark_group("simulate_epoch");
    group.sample_size(10);
    let spec = GridSpec::paper()
        .workloads([Workload::LeNet, Workload::AlexNet, Workload::InceptionV3])
        .comms([CommMethod::Nccl])
        .batches([16])
        .gpu_counts([1, 8]);
    for cell in spec.cells() {
        let def = cell.workload.definition();
        group.bench_with_input(
            BenchmarkId::new(cell.workload.name(), format!("{}gpu", cell.gpus)),
            &cell,
            |b, cell| b.iter(|| cell_report(&harness, &def, cell).epoch_time),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_epochs);
criterion_main!(benches);
