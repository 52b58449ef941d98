//! BP/WU overlap ablation (DESIGN.md SS5): how much communication MXNet's
//! per-layer pipelining could hide if it overlapped perfectly.
use voltascope::grid::{Executor, GridSpec};
use voltascope::service::GridService;
use voltascope_profile::TextTable;

fn main() {
    let base = voltascope_bench::service();
    // The variant harness gets its own service without a snapshot: its
    // fingerprint differs from the paper harness's, so saving it would
    // make the shared snapshot stale for every later binary.
    let mut variant = base.base().clone();
    variant.sys.bp_wu_overlap = true;
    let overlapped = GridService::with_executor(variant, Executor::from_env());

    let spec = GridSpec::paper()
        .workloads(voltascope_bench::workloads())
        .batches([16])
        .gpu_counts([2, 4, 8]);
    let (a, b) = (base.sweep(&spec), overlapped.sweep(&spec));
    let mut table = TextTable::new([
        "Workload",
        "Method",
        "GPUs",
        "No overlap (s)",
        "Full overlap (s)",
        "Hidden (%)",
    ]);
    for ((cell, a), b) in a.iter().zip(b.values()) {
        let a = a.epoch_time.as_secs_f64();
        let b = b.epoch_time.as_secs_f64();
        table.row([
            cell.workload.name().to_string(),
            cell.comm.name().to_string(),
            cell.gpus.to_string(),
            format!("{a:.1}"),
            format!("{b:.1}"),
            format!("{:.1}", 100.0 * (a - b) / a),
        ]);
    }
    voltascope_bench::emit("Ablation: BP/WU overlap", &table);
    voltascope_bench::save_service(&base);
}
