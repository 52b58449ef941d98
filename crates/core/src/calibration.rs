//! Calibration constants pinning the simulator to the paper's platform.
//!
//! Every number here is tied either to a public hardware datum or to a
//! quantitative statement in the paper; DESIGN.md §4 explains the
//! policy (match *shapes*, not absolute seconds).

use voltascope_comm::collective::NcclCosts;
use voltascope_comm::{BandwidthEfficiency, TuningSpace};
use voltascope_gpu::{ApiCostModel, GpuSpec, KernelCostModel};
use voltascope_sim::SimSpan;
use voltascope_train::{MemoryModel, SystemModel};

/// Number of repetitions per configuration (paper Fig. 3: "mean
/// training time of 5 repetitions").
pub const REPETITIONS: u32 = 5;

/// Relative standard deviation of run-to-run jitter. The paper's
/// stddev whiskers are small relative to the bars; ~1.5% reproduces
/// that visual scale.
pub const JITTER_SIGMA: f64 = 0.015;

/// Base seed for the deterministic jitter streams.
pub const SEED: u64 = 0x155C_2018;

/// The calibrated DGX-1 system model.
///
/// * GPU: Tesla V100-SXM2-16GB (80 SMs, 15.7 TF FP32, 125 TF tensor,
///   16 GB HBM2 at 900 GB/s) — §IV-A.
/// * NVLink 25 GB/s per lane per direction, aggregating to 50 GB/s on
///   double connections — §IV-A.
/// * Kernel efficiency curve: ceiling 0.055 of the tensor peak (~6.9
///   TFLOP/s effective) with a 50 MFLOP half-saturation knee — matching
///   MXNet-18.04-era V100 training throughputs at per-GPU batches of
///   16-64, and leaving LeNet launch-bound (the paper reports 18.3%
///   compute utilisation for LeNet, §V-C) while Inception-v3's larger
///   kernels amortise, giving its near-linear FP+BP scaling.
/// * API costs: single-digit-microsecond launches, 25 us stream
///   synchronisation — Broadwell-era driver figures; Table III's
///   amortisation trend follows from their fixedness.
/// * Host dispatch: 130 us of serial scheduler work per GPU per
///   iteration (MXNet iterator + kvstore bookkeeping), fitted to the
///   paper's LeNet strong-scaling speedups of 1.62/2.37/3.36x at
///   2/4/8 GPUs (§V-A).
/// * NCCL: 20 us per-bucket kernel overhead + 120 ms per-epoch
///   communicator setup + 300 us/GPU grouped-call marshalling per
///   iteration (multi-GPU only) + 4 us per-ring-step protocol cost at
///   85% sustained link bandwidth, calibrated against the paper's
///   21.8% LeNet batch-16 single-GPU overhead (§V-B), the Table II
///   trends, and the P2P-vs-NCCL crossovers of Fig. 3.
/// * NCCL tuning space: the paper's NCCL 2.0/2.1 stack ran
///   single-channel Simple-protocol rings only — LL128 and the
///   ring/tree auto-selection arrived with NCCL 2.4, after the study —
///   and the fitted constants above (step cost, 85% efficiency)
///   subsume whatever per-size protocol behaviour that stack had. The
///   default space is therefore the `{ring} x {Simple} x {1 channel}`
///   singleton ([`TuningSpace::paper`]); `VOLTASCOPE_NCCL_PROTO`
///   opens the modern LL / LL128 / Simple x ring/tree x channel space
///   (DESIGN.md §5.2, and the `protocol_sweep` golden for the
///   crossover structure on healthy and degraded fabrics).
/// * P2P: 70 us of kvstore orchestration per per-key transfer on the
///   source GPU's host thread — the per-key tax that makes the deep
///   many-bucket networks favour NCCL at 4-8 GPUs (§V-A).
pub fn dgx1_system() -> SystemModel {
    let gpu = GpuSpec::tesla_v100();
    let kernels = KernelCostModel {
        max_efficiency: 0.055,
        knee_flops: 5.0e7,
        ..KernelCostModel::new(&gpu)
    };
    let api = ApiCostModel {
        launch_kernel: SimSpan::from_micros(7),
        memcpy_async: SimSpan::from_micros(9),
        stream_synchronize: SimSpan::from_micros(25),
        event_record: SimSpan::from_micros(2),
        malloc: SimSpan::from_micros(80),
    };
    let nccl = NcclCosts {
        kernel_overhead: SimSpan::from_micros(20),
        epoch_setup: SimSpan::from_millis(120),
        step_overhead: SimSpan::from_micros(4),
        bandwidth_efficiency: BandwidthEfficiency::new(0.85)
            .unwrap_or_else(|e| panic!("calibration constant rejected: {e}")),
        group_call_overhead: SimSpan::from_micros(300),
        tuning: TuningSpace::from_env(),
        chunking: false,
    };
    SystemModel {
        topo: voltascope_topo::dgx1_v100(),
        gpu,
        kernels,
        api,
        nccl,
        host_dispatch: SimSpan::from_micros(130),
        p2p_issue: SimSpan::from_micros(70),
        bp_wu_overlap: false,
        gpu_slowdown: Default::default(),
        compute_streams: 1,
        tuner: Default::default(),
    }
}

/// The calibrated memory model (Table IV): activation multiplier 1.3
/// makes Inception-v3 at batch 64 land at ~12 GB on GPU0 (paper: 11
/// GB) and reproduces the batch caps of §V-D for ResNet/Inception-v3.
pub fn memory_model() -> MemoryModel {
    MemoryModel::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_matches_paper_platform() {
        let sys = dgx1_system();
        assert_eq!(sys.topo.gpu_count(), 8);
        assert_eq!(sys.gpu.sm_count, 80);
        assert_eq!(sys.gpu.memory_bytes, 16 << 30);
    }

    #[test]
    fn lenet_is_launch_bound_at_paper_utilization() {
        // §V-C: LeNet achieves ~18.3% compute utilisation; our LeNet
        // kernels must sit far below the efficiency ceiling.
        let sys = dgx1_system();
        let model = voltascope_dnn::zoo::lenet();
        let kernels = model.kernel_profile(16);
        let biggest = kernels.iter().map(|k| k.flops).max().unwrap();
        let util = sys.kernels.achieved_utilization(biggest as f64, true);
        assert!(util < 0.05, "LeNet utilisation too high: {util}");
    }

    #[test]
    fn inception_kernels_amortise_far_better_than_lenet() {
        let sys = dgx1_system();
        let inception = voltascope_dnn::zoo::inception_v3();
        let lenet = voltascope_dnn::zoo::lenet();
        let biggest = |m: &voltascope_dnn::Model| {
            m.kernel_profile(16).iter().map(|k| k.flops).max().unwrap() as f64
        };
        let u_inc = sys.kernels.achieved_utilization(biggest(&inception), true);
        let u_len = sys.kernels.achieved_utilization(biggest(&lenet), true);
        // Inception-v3's kernels sit at the efficiency ceiling; LeNet's
        // largest kernel reaches less than half of it.
        assert!(
            u_inc > 0.9 * sys.kernels.max_efficiency,
            "inception {u_inc}"
        );
        assert!(u_len < 0.5 * sys.kernels.max_efficiency, "lenet {u_len}");
    }
}
