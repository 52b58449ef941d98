//! Degraded-DGX-1 fault-injection sweep: epoch-time and idle-time
//! deltas for every network under a dead GPU3 NVLink interface and a
//! 1.5x straggler GPU3, versus the healthy baseline (batch 16, 8
//! GPUs). The sweep is issued through the caching `GridService`; set
//! `VOLTASCOPE_CACHE` to warm-start from (and re-save) a snapshot.
use voltascope::experiments::faults;

fn main() {
    let service = voltascope_bench::service();
    let rows = faults::degraded_grid(&service, &voltascope_bench::workloads());
    voltascope_bench::emit(
        "Degraded DGX-1: fault-injection scenarios (batch 16, 8 GPUs)",
        &faults::render(&rows),
    );
    voltascope_bench::save_service(&service);
}
