//! Generational extension: rerun the paper's experiment on the
//! Pascal-era DGX-1 (P100, NVLink 1.0) that Gawande et al. studied
//! (SS III) — how much of the Volta system's advantage is compute
//! (tensor cores, more SMs) vs fabric (25 vs 20 GB/s links)?
use voltascope::grid::{Executor, GridSpec};
use voltascope::service::GridService;
use voltascope_dnn::zoo::Workload;
use voltascope_gpu::{GpuSpec, KernelCostModel};
use voltascope_profile::TextTable;
use voltascope_topo::dgx1_p100;

fn main() {
    let volta = voltascope_bench::service();
    // The Pascal harness gets its own service without a snapshot: its
    // fingerprint differs from the paper harness's, so saving it would
    // make the shared snapshot stale for every later binary.
    let mut pascal = volta.base().clone();
    pascal.sys.topo = dgx1_p100();
    pascal.sys.gpu = GpuSpec::tesla_p100();
    pascal.sys.kernels = KernelCostModel {
        max_efficiency: volta.base().sys.kernels.max_efficiency,
        knee_flops: volta.base().sys.kernels.knee_flops,
        ..KernelCostModel::new(&pascal.sys.gpu)
    };
    let pascal = GridService::with_executor(pascal, Executor::from_env());

    let spec = GridSpec::paper()
        .workloads([Workload::LeNet, Workload::AlexNet, Workload::ResNet])
        .batches([16])
        .gpu_counts([1, 8]);
    let (v, p) = (volta.sweep(&spec), pascal.sweep(&spec));
    let mut table = TextTable::new([
        "Workload",
        "Method",
        "GPUs",
        "DGX-1V (s)",
        "DGX-1P (s)",
        "Volta speedup",
    ]);
    for ((cell, v), p) in v.iter().zip(p.values()) {
        let v = v.epoch_time.as_secs_f64();
        let p = p.epoch_time.as_secs_f64();
        table.row([
            cell.workload.name().to_string(),
            cell.comm.name().to_string(),
            cell.gpus.to_string(),
            format!("{v:.1}"),
            format!("{p:.1}"),
            format!("{:.2}x", p / v),
        ]);
    }
    voltascope_bench::emit("Extension: Volta vs Pascal DGX-1 (batch 16)", &table);
    voltascope_bench::save_service(&volta);
}
