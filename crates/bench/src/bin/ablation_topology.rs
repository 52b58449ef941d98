//! Topology ablation (DESIGN.md SS5): rerun AlexNet 16x4 on platform
//! variants (PCIe-only, single-lane NVLink, ideal NVSwitch, GPU
//! forwarding) to isolate which hardware property causes which effect.
//! The sweep is issued through the caching `GridService`; set
//! `VOLTASCOPE_CACHE` to warm-start from (and re-save) a snapshot.
use voltascope::experiments::ablation;
use voltascope_dnn::zoo::Workload;

fn main() {
    let service = voltascope_bench::service();
    let rows = ablation::topology_ablation(&service, Workload::AlexNet, 16, 4);
    voltascope_bench::emit(
        "Ablation: interconnect topology (AlexNet, batch 16, 4 GPUs)",
        &ablation::render(&rows),
    );
    voltascope_bench::save_service(&service);
}
