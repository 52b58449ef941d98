//! Extension workload beyond the paper's roster: VGG-16 (138M
//! parameters, 2.3x AlexNet) pushes the communication-heavy end of the
//! workload spectrum further — where do the paper's P2P/NCCL
//! conclusions go as weights keep growing?
use voltascope::grid::GridSpec;
use voltascope::WorkloadSel;
use voltascope_comm::CommMethod;
use voltascope_profile::TextTable;

fn main() {
    let vgg16 = WorkloadSel::from_name("VGG-16").expect("vgg16.workload is registered");
    let service = voltascope_bench::service();
    let spec = GridSpec::paper()
        .workloads([vgg16])
        .batches([16])
        .gpu_counts([1, 2, 4, 8]);
    let out = service.sweep(&spec);
    let by = out.index_by(|c| (c.comm, c.gpus));
    let mut table = TextTable::new(["GPUs", "P2P (s)", "NCCL (s)", "WU share P2P (%)"]);
    for gpus in [1usize, 2, 4, 8] {
        let p2p = by[&(CommMethod::P2p, gpus)];
        let nccl = by[&(CommMethod::Nccl, gpus)];
        table.row([
            gpus.to_string(),
            format!("{:.1}", p2p.epoch_time.as_secs_f64()),
            format!("{:.1}", nccl.epoch_time.as_secs_f64()),
            format!(
                "{:.1}",
                100.0 * p2p.wu_iter.as_secs_f64() / p2p.iter_time.as_secs_f64()
            ),
        ]);
    }
    let params = vgg16.definition().spec().param_bytes() / 4;
    println!(
        "VGG-16 ({:.0}M params), batch 16/GPU, strong scaling:",
        params as f64 / 1e6
    );
    voltascope_bench::emit("Extension: VGG-16 training time", &table);
    voltascope_bench::save_service(&service);
}
