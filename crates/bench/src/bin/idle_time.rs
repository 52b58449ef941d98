//! Per-GPU idle-time analysis (SS V-A: "some of the GPUs become idle
//! during DNN training" because of the asymmetric interconnect). The
//! sweep is issued through the caching `GridService`; set
//! `VOLTASCOPE_CACHE` to warm-start from (and re-save) a snapshot.
use voltascope::experiments::idle;
use voltascope::grid::{Cell, GridSpec};
use voltascope_comm::CommMethod;
use voltascope_dnn::zoo::Workload;
use voltascope_train::ScalingMode;

fn main() {
    let service = voltascope_bench::service();
    // One grid over every section, computed in parallel up front...
    let spec = GridSpec::paper()
        .workloads([Workload::AlexNet])
        .batches([16])
        .gpu_counts([4, 8]);
    let out = idle::grid(&service, &spec);
    let index = out.index();
    // ...then printed in the report's (gpus, comm) section order.
    for (workload, gpus) in [(Workload::AlexNet, 4usize), (Workload::AlexNet, 8)] {
        for comm in CommMethod::ALL {
            let cell = Cell {
                workload: workload.into(),
                comm,
                batch: 16,
                gpus,
                scaling: ScalingMode::Strong,
                platform: voltascope::grid::Platform::Dgx1,
                fault: voltascope::grid::FaultScenario::Healthy,
            };
            let rows = index[&cell];
            println!(
                "== {} / {} / {} GPUs ==",
                workload.name(),
                comm.name(),
                gpus
            );
            println!("{}", idle::render(rows).render());
        }
    }
    voltascope_bench::save_service(&service);
}
