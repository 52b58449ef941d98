//! Quickstart: simulate one epoch of multi-GPU DNN training on the
//! DGX-1 and print what the paper's profiler would have seen.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dgx1_repro::prelude::*;

fn main() {
    // The calibrated Volta DGX-1 (8x V100, NVLink hybrid cube-mesh),
    // behind the caching sweep service every experiment uses.
    let service = GridService::new(Harness::paper());

    // GoogLeNet, batch 32 per GPU, 4 GPUs, NCCL collectives.
    let spec = GridSpec::paper()
        .workloads([Workload::GoogLeNet])
        .comms([CommMethod::Nccl])
        .batches([32])
        .gpu_counts([4]);
    let report = service.sweep(&spec).values()[0].clone();

    // The checked-in `.workload` file the cell was timed from.
    let def = WorkloadSel::from(Workload::GoogLeNet).definition();
    let lowered = def.lowered(32).expect("zoo workloads lower");
    println!("workload          : {}", def.name());
    println!(
        "parameters        : {:.1} M",
        (def.spec().param_bytes() / 4) as f64 / 1e6
    );
    println!("gradient buckets  : {}", lowered.buckets.len());
    println!("iterations/epoch  : {}", report.iterations);
    println!("iteration time    : {}", report.iter_time);
    println!("  FP+BP           : {}", report.fp_bp_iter);
    println!("  WU (exposed)    : {}", report.wu_iter);
    println!(
        "epoch time        : {:.1} s",
        report.epoch_time.as_secs_f64()
    );
    println!(
        "compute util      : {:.1} %",
        100.0 * report.compute_utilization
    );
    println!("sync share        : {:.2} %", report.sync_percent());
    println!();
    println!("nvprof-style summary of one steady-state iteration:");
    println!("{}", ProfileSummary::from_trace(&report.iter_trace));
}
