//! Regenerates Fig. 1: the timeline of one data-parallel training
//! iteration (4 GPUs, LeNet, P2P), as an ASCII Gantt chart.
use voltascope::experiments::structure;
use voltascope_dnn::zoo::Workload;

fn main() {
    let service = voltascope_bench::service();
    println!("== Fig. 1: one steady-state iteration, LeNet, 4 GPUs, P2P ==");
    println!("(F = forward, B = backward, W = weight update, A = api, H/S = h2d/setup)");
    print!(
        "{}",
        structure::fig1_timeline(&service, Workload::LeNet, 4, 100)
    );

    // `--chrome <path>` additionally writes a Chrome trace-event file
    // for interactive inspection in chrome://tracing / Perfetto.
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--chrome" {
            let path = args.next().expect("--chrome needs a path");
            let cells = structure::fig1_spec(Workload::LeNet, 4).cells();
            let report = &service.run_cells_traced(&cells, true)[0];
            let json = voltascope_profile::chrome_trace(&report.iter_trace);
            std::fs::write(&path, json).expect("write chrome trace");
            println!("chrome trace written to {path}");
        }
    }
    voltascope_bench::save_service(&service);
}
