//! The paper's headline experiment in miniature: P2P vs NCCL training
//! time for one workload across GPU counts (Fig. 3 for one network).
//!
//! ```text
//! cargo run --release --example compare_comm_methods [lenet|alexnet|googlenet|resnet|inception]
//! ```

use dgx1_repro::prelude::*;

fn main() {
    let workload = std::env::args()
        .nth(1)
        .and_then(|n| Workload::from_name(&n))
        .unwrap_or(Workload::LeNet);
    let service = GridService::new(Harness::paper());
    let spec = GridSpec::paper()
        .workloads([workload])
        .batches([16])
        .gpu_counts([1, 2, 4, 8]);
    let out = service.sweep(&spec);
    let secs = out.index_by(|c| (c.comm, c.gpus));
    let secs = |comm, gpus| secs[&(comm, gpus)].epoch_time.as_secs_f64();

    let mut table = TextTable::new(["GPUs", "P2P (s)", "NCCL (s)", "Best", "Speedup vs 1 GPU"]);
    let base = secs(CommMethod::P2p, 1);
    for gpus in [1usize, 2, 4, 8] {
        let p2p = secs(CommMethod::P2p, gpus);
        let nccl = secs(CommMethod::Nccl, gpus);
        let best = if p2p <= nccl { "P2P" } else { "NCCL" };
        table.row([
            gpus.to_string(),
            format!("{p2p:.1}"),
            format!("{nccl:.1}"),
            best.to_string(),
            format!("{:.2}x", base / p2p.min(nccl)),
        ]);
    }
    println!(
        "{} at batch 16/GPU, strong scaling on 256K images:",
        workload
    );
    println!("{}", table.render());
    println!("Paper SS V-A: P2P wins for the small networks; NCCL overtakes");
    println!("for the deep many-layer networks at 4-8 GPUs.");
}
