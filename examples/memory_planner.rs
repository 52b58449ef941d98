//! Use the Table IV memory model as a planning tool: which per-GPU
//! batch sizes fit each workload on a 16 GB V100, and what does the
//! parameter-server GPU pay on top (SS V-D)? The footprints come from
//! each workload's checked-in `.workload` file.
//!
//! ```text
//! cargo run --release --example memory_planner
//! ```

use dgx1_repro::gpu::GpuSpec;
use dgx1_repro::prelude::*;

fn main() {
    let mm = MemoryModel::default();
    let spec = GpuSpec::tesla_v100();
    let mut table = TextTable::new(["Network", "Batch", "GPU0 (GB)", "GPUx (GB)", "Fits?"]);
    for workload in Workload::ALL {
        let def = WorkloadSel::from(workload).definition();
        for batch in [16usize, 64, 128, 256] {
            let row = |gib: Result<f64, String>| match gib {
                Ok(v) => format!("{v:.2}"),
                Err(_) => "-".to_string(),
            };
            let server = mm
                .usage(def.spec(), batch, GpuRole::Server, &spec)
                .map(|u| u.training_gib())
                .map_err(|e| e.to_string());
            let worker = mm
                .usage(def.spec(), batch, GpuRole::Worker, &spec)
                .map(|u| u.training_gib())
                .map_err(|e| e.to_string());
            let fits = server.is_ok() && worker.is_ok();
            table.row([
                workload.name().to_string(),
                batch.to_string(),
                row(server),
                row(worker),
                if fits { "yes" } else { "OOM" }.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
    println!("Max trainable batch per GPU (power-of-two sweep):");
    for workload in Workload::ALL {
        let cap = mm.max_batch(WorkloadSel::from(workload).definition().spec(), &spec);
        println!(
            "  {:<13} {}",
            workload.name(),
            cap.map_or("none".into(), |b| b.to_string())
        );
    }
}
