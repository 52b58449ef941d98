//! Gradient-bucket fusion ablation (DESIGN.md SS5): sweep the fusion
//! threshold and watch the per-key-overhead vs pipelining tradeoff —
//! the optimisation later popularised by Horovod/DDP, applied to the
//! paper's platform.
//!
//! The fusion threshold is a training-config knob, not a grid-cell
//! axis, so this binary lowers each workload's registered spec once and
//! times it directly instead of going through the sweep service.
use voltascope::{Harness, WorkloadSel};
use voltascope_comm::CommMethod;
use voltascope_dnn::zoo::Workload;
use voltascope_profile::TextTable;
use voltascope_train::{
    fuse_buckets, simulate_epoch_lowered, DatasetSpec, ScalingMode, TrainConfig,
};

fn main() {
    let h = Harness::paper();
    let mut table = TextTable::new([
        "Workload",
        "Method",
        "Fusion",
        "Buckets",
        "WU/iter",
        "Epoch (s)",
    ]);
    for workload in [Workload::ResNet, Workload::AlexNet] {
        let lowered = WorkloadSel::from(workload)
            .definition()
            .lowered(16)
            .expect("zoo workloads lower");
        for comm in CommMethod::ALL {
            for (label, fusion) in [
                ("per-layer", 0u64),
                ("1 MB", 1 << 20),
                ("16 MB", 16 << 20),
                ("single", u64::MAX / 2),
            ] {
                let cfg = TrainConfig {
                    batch_per_gpu: 16,
                    gpu_count: 8,
                    comm,
                    scaling: ScalingMode::Strong,
                    dataset: DatasetSpec::imagenet_256k(),
                    bucket_fusion_bytes: fusion,
                };
                let r = simulate_epoch_lowered(&h.sys, &lowered, &cfg);
                let (buckets, _) = fuse_buckets(&lowered.buckets, fusion);
                table.row([
                    workload.name().to_string(),
                    comm.name().to_string(),
                    label.to_string(),
                    buckets.len().to_string(),
                    r.wu_iter.to_string(),
                    format!("{:.1}", r.epoch_time.as_secs_f64()),
                ]);
            }
        }
    }
    voltascope_bench::emit(
        "Ablation: gradient-bucket fusion (batch 16, 8 GPUs)",
        &table,
    );
}
