//! Prints a full simulated-nvprof summary for one configuration
//! (SS IV-B tooling demonstration): GPU activities and API calls of a
//! steady-state iteration.
use voltascope::grid::GridSpec;
use voltascope_comm::CommMethod;
use voltascope_dnn::zoo::Workload;
use voltascope_profile::ProfileSummary;

fn main() {
    let service = voltascope_bench::service();
    let spec = GridSpec::paper()
        .workloads([Workload::AlexNet])
        .comms([CommMethod::Nccl])
        .batches([16])
        .gpu_counts([4]);
    let cells = spec.cells();
    let report = &service.run_cells_traced(&cells, true)[0];
    println!("AlexNet, batch 16/GPU, 4 GPUs, NCCL - one steady-state iteration");
    println!("{}", ProfileSummary::from_trace(&report.iter_trace));
    voltascope_bench::save_service(&service);
}
