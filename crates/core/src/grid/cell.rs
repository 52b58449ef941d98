//! Typed grid points and platform variants.

use voltascope_comm::CommMethod;
use voltascope_topo::{
    dgx1_v100, full_nvlink_switch, pcie_only, single_lane_dgx1, Device, FaultSpec, Topology,
};
use voltascope_train::ScalingMode;

use crate::workloads::WorkloadSel;

/// A platform variant for the ablation axis of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// The paper's DGX-1 (baseline).
    Dgx1,
    /// DGX-1 wiring with all NVLink double connections flattened to
    /// single lanes — isolates the asymmetric-bandwidth effect (§V-A).
    SingleLane,
    /// No NVLink at all (Tallent et al.'s PCIe baseline, §III).
    PcieOnly,
    /// Idealised all-to-all NVSwitch: every pair one hop.
    NvSwitch,
    /// DGX-1 wiring but with GPU routers allowed to forward packets —
    /// removes the design limitation of §V-A footnote 4.
    ForwardingGpus,
}

impl Platform {
    /// All variants, baseline first.
    pub const ALL: [Platform; 5] = [
        Platform::Dgx1,
        Platform::SingleLane,
        Platform::PcieOnly,
        Platform::NvSwitch,
        Platform::ForwardingGpus,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Platform::Dgx1 => "DGX-1",
            Platform::SingleLane => "DGX-1 single-lane",
            Platform::PcieOnly => "PCIe-only",
            Platform::NvSwitch => "NVSwitch (ideal)",
            Platform::ForwardingGpus => "DGX-1 + GPU forwarding",
        }
    }

    /// Builds the variant topology.
    pub fn topology(self) -> Topology {
        match self {
            Platform::Dgx1 => dgx1_v100(),
            Platform::SingleLane => single_lane_dgx1(),
            Platform::PcieOnly => pcie_only(8),
            Platform::NvSwitch => full_nvlink_switch(8),
            Platform::ForwardingGpus => {
                let mut t = dgx1_v100();
                t.set_gpus_forward(true);
                t
            }
        }
    }
}

/// A canned degraded-DGX-1 scenario for the fault axis of the grid.
///
/// Each variant names a reproducible [`FaultSpec`]; experiments sweep
/// these instead of carrying ad-hoc specs so cells stay small `Copy`
/// keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultScenario {
    /// No faults: the baseline platform as-is.
    Healthy,
    /// GPU3's NVLink interface is dead (all its NVLink bricks down).
    /// This is the interesting single-point failure: killing any *one*
    /// NVLink cable leaves an all-NVLink 8-GPU Hamiltonian ring with
    /// the same 25 GB/s bottleneck (the hybrid cube-mesh tolerates it),
    /// but a dead interface forces the ring through host-bounced PCIe
    /// hops.
    DeadNvLink,
    /// GPU3 is a straggler: thermal throttling runs its kernels 1.5x
    /// slower, dragging every synchronous iteration with it.
    StragglerGpu,
    /// GPU3 *and* GPU6 straggle at 1.5x simultaneously — one on each
    /// CPU socket. Synchronous data parallelism waits for the slowest
    /// rank per iteration, so a second straggler at the same factor
    /// barely moves the epoch beyond the single-straggler case; this
    /// scenario exists to demonstrate that max-of-ranks behaviour.
    TwoStragglers,
    /// The [`FaultScenario::DeadNvLink`] interface failure striking at
    /// 50% of the epoch instead of existing from the start: pre-fault
    /// iterations run healthy, the in-flight iteration re-routes its
    /// dead-link traffic through the engine's dynamic-event machinery,
    /// and the tail runs at the renegotiated host-bounced pace.
    MidEpochDeadNvLink,
    /// The [`FaultScenario::StragglerGpu`] throttling starting at 50%
    /// of the epoch: GPU3's in-flight kernels stretch mid-iteration,
    /// then the tail runs at the statically throttled pace.
    MidEpochStraggler,
}

impl FaultScenario {
    /// The scenarios swept by the canonical degraded-DGX-1 experiment,
    /// healthy first. Frozen at three entries: the golden outputs under
    /// `results/` enumerate exactly this set, so new scenarios join
    /// [`FaultScenario::EXTENDED`] instead.
    pub const ALL: [FaultScenario; 3] = [
        FaultScenario::Healthy,
        FaultScenario::DeadNvLink,
        FaultScenario::StragglerGpu,
    ];

    /// Every canned scenario, including those outside the canonical
    /// golden sweep.
    pub const EXTENDED: [FaultScenario; 6] = [
        FaultScenario::Healthy,
        FaultScenario::DeadNvLink,
        FaultScenario::StragglerGpu,
        FaultScenario::TwoStragglers,
        FaultScenario::MidEpochDeadNvLink,
        FaultScenario::MidEpochStraggler,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            FaultScenario::Healthy => "healthy",
            FaultScenario::DeadNvLink => "dead NVLink (GPU3)",
            FaultScenario::StragglerGpu => "straggler GPU3 (1.5x)",
            FaultScenario::TwoStragglers => "stragglers GPU3+GPU6 (1.5x)",
            FaultScenario::MidEpochDeadNvLink => "dead NVLink (GPU3) at 50%",
            FaultScenario::MidEpochStraggler => "straggler GPU3 (1.5x) at 50%",
        }
    }

    /// The fault specification this scenario injects. For mid-epoch
    /// scenarios this is the fault that eventually strikes; pair it
    /// with [`FaultScenario::mid_epoch_fraction`] to decide *when* it
    /// applies (the grid harness stays healthy and the fault is lowered
    /// to dynamic engine events instead of rewiring the topology).
    pub fn spec(self) -> FaultSpec {
        match self {
            FaultScenario::Healthy => FaultSpec::new(),
            FaultScenario::DeadNvLink | FaultScenario::MidEpochDeadNvLink => {
                FaultSpec::new().kill_nvlinks_of(Device::gpu(3))
            }
            FaultScenario::StragglerGpu | FaultScenario::MidEpochStraggler => {
                FaultSpec::new().slow_gpu(Device::gpu(3), 1.5)
            }
            FaultScenario::TwoStragglers => {
                FaultSpec::new().two_stragglers(Device::gpu(3), Device::gpu(6), 1.5)
            }
        }
    }

    /// For dynamic scenarios, the epoch fraction at which
    /// [`FaultScenario::spec`] strikes; `None` for scenarios whose
    /// fault exists for the whole epoch (the topology is rewired before
    /// lowering and every iteration pays the degraded price).
    pub fn mid_epoch_fraction(self) -> Option<f64> {
        match self {
            FaultScenario::MidEpochDeadNvLink | FaultScenario::MidEpochStraggler => Some(0.5),
            _ => None,
        }
    }
}

/// One typed point of an experiment grid: the full configuration of a
/// single measurement. Cells are small `Copy` keys, `Eq + Hash` so
/// renderers can index results directly instead of scanning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cell {
    /// Workload (network) selector: a zoo network or another
    /// registered `.workload` spec.
    pub workload: WorkloadSel,
    /// Communication method.
    pub comm: CommMethod,
    /// Per-GPU batch size.
    pub batch: usize,
    /// GPU count.
    pub gpus: usize,
    /// Dataset scaling regime.
    pub scaling: ScalingMode,
    /// Platform variant.
    pub platform: Platform,
    /// Fault-injection scenario applied to the platform.
    pub fault: FaultScenario,
}

impl Cell {
    /// The jitter salt of the repetition protocol, derived from the
    /// cell key alone so that execution order (and executor choice)
    /// can never influence the sampled jitter stream.
    ///
    /// The bit layout is **frozen**: it must keep matching the seed
    /// harness's formula so the golden outputs under `results/` stay
    /// byte-identical. Zoo workloads tag their enum discriminant
    /// (0..=4) exactly as before; data workloads occupy the disjoint
    /// `0x20 + index` range (see [`WorkloadSel::salt_tag`]). Scaling
    /// mode, platform and fault scenario are deliberately not salted —
    /// the jittered-measurement protocol is only applied to the
    /// baseline-platform strong-scaling grids (Fig. 3); all other
    /// experiments (including the degraded-DGX-1 sweep) report raw
    /// epoch times.
    pub fn jitter_salt(&self) -> u64 {
        (self.workload.salt_tag() << 40)
            | ((self.batch as u64) << 24)
            | ((self.gpus as u64) << 16)
            | (self.comm == CommMethod::Nccl) as u64
    }
}

/// Static cost rank of a cell: a relative-workload weight (calibrated
/// against the simulated epoch times of the zoo CNNs — LeNet lightest,
/// VGG-16 heaviest) scaled by batch size and GPU count. Used by the
/// sweep service to compute a request's claimed cells
/// longest-expected-first, so the sweep's makespan-floor cell
/// (Inception-v3, batch 64, 8 GPUs on the fig3 grid) starts before the
/// dozens of cheap cells enumerated ahead of it. Monotone per workload
/// in batch and GPU count; unknown data workloads rank mid-pack.
pub(crate) fn cost_rank(cell: &Cell) -> u64 {
    let weight: u64 = match cell.workload.name() {
        "LeNet" => 1,
        "AlexNet" => 6,
        "GoogLeNet" => 18,
        "ResNet" => 24,
        "GPT2-Small" => 28,
        "Inception-v3" => 32,
        "VGG-16" => 40,
        _ => 16,
    };
    weight
        .saturating_mul(cell.batch as u64)
        .saturating_mul(cell.gpus as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    use voltascope_dnn::zoo::Workload;

    fn cell(workload: Workload, comm: CommMethod, batch: usize, gpus: usize) -> Cell {
        Cell {
            workload: workload.into(),
            comm,
            batch,
            gpus,
            scaling: ScalingMode::Strong,
            platform: Platform::Dgx1,
            fault: FaultScenario::Healthy,
        }
    }

    #[test]
    fn cost_rank_scales_with_workload_batch_and_gpus() {
        let base = cost_rank(&cell(Workload::LeNet, CommMethod::Nccl, 16, 1));
        assert_eq!(base, 16);
        // Heavier workload, bigger batch, more GPUs all rank higher.
        assert!(cost_rank(&cell(Workload::ResNet, CommMethod::Nccl, 16, 1)) > base);
        assert!(cost_rank(&cell(Workload::LeNet, CommMethod::Nccl, 64, 1)) > base);
        assert!(cost_rank(&cell(Workload::LeNet, CommMethod::Nccl, 16, 8)) > base);
    }

    #[test]
    fn fig3_heaviest_cell_maximizes_cost_rank_over_the_paper_grid() {
        // Inception-v3 at batch 64 on all 8 GPUs over NCCL: the fig3
        // sweep's makespan floor, which the service must start first.
        let floor = cell(Workload::InceptionV3, CommMethod::Nccl, 64, 8);
        let floor_rank = cost_rank(&floor);
        for c in crate::grid::GridSpec::paper().cells() {
            assert!(
                cost_rank(&c) <= floor_rank,
                "{c:?} outranks the declared makespan floor"
            );
            // Strictly heavier than every cell that differs in the
            // rank inputs (comm method doesn't enter the rank).
            let same_rank_inputs =
                c.workload == floor.workload && c.batch == floor.batch && c.gpus == floor.gpus;
            if !same_rank_inputs {
                assert!(cost_rank(&c) < floor_rank, "{c:?} ties the floor");
            }
        }
    }

    #[test]
    fn salts_are_distinct_across_the_paper_grid() {
        let mut seen = std::collections::HashSet::new();
        for w in Workload::ALL {
            for comm in CommMethod::ALL {
                for batch in [16, 32, 64] {
                    for gpus in [1, 2, 4, 8] {
                        assert!(
                            seen.insert(cell(w, comm, batch, gpus).jitter_salt()),
                            "salt collision at {w:?}/{comm:?}/{batch}/{gpus}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn salt_matches_the_frozen_seed_formula() {
        let c = cell(Workload::LeNet, CommMethod::Nccl, 16, 4);
        let expect = ((Workload::LeNet as u64) << 40) | (16u64 << 24) | (4u64 << 16) | 1;
        assert_eq!(c.jitter_salt(), expect);
    }

    #[test]
    fn platform_topologies_build() {
        for p in Platform::ALL {
            let t = p.topology();
            assert!(!p.name().is_empty());
            assert!(!t.name().is_empty());
        }
    }

    #[test]
    fn fault_scenarios_apply_to_every_platform() {
        for p in Platform::ALL {
            for f in FaultScenario::EXTENDED {
                // Every canned scenario must be valid on every platform
                // topology (GPU3 exists everywhere; its NVLink-kill is
                // a no-op on PCIe-only, which has no NVLinks).
                let t = p.topology().apply(&f.spec());
                assert!(!t.name().is_empty(), "{p:?}/{f:?}");
                assert!(!f.name().is_empty());
            }
        }
    }

    #[test]
    fn healthy_scenario_is_the_empty_spec() {
        for f in FaultScenario::EXTENDED {
            assert_eq!(f.spec().is_healthy(), f == FaultScenario::Healthy, "{f:?}");
        }
    }

    #[test]
    fn mid_epoch_scenarios_strike_halfway_with_their_static_twin_spec() {
        assert_eq!(
            FaultScenario::MidEpochDeadNvLink.mid_epoch_fraction(),
            Some(0.5)
        );
        assert_eq!(
            FaultScenario::MidEpochStraggler.mid_epoch_fraction(),
            Some(0.5)
        );
        for f in FaultScenario::ALL {
            assert_eq!(f.mid_epoch_fraction(), None, "{f:?}");
        }
        assert_eq!(FaultScenario::TwoStragglers.mid_epoch_fraction(), None);
        // Each dynamic scenario strikes with exactly its static twin's
        // fault, so the two rows bracket the same damage.
        assert_eq!(
            format!("{:?}", FaultScenario::MidEpochDeadNvLink.spec()),
            format!("{:?}", FaultScenario::DeadNvLink.spec())
        );
        assert_eq!(
            format!("{:?}", FaultScenario::MidEpochStraggler.spec()),
            format!("{:?}", FaultScenario::StragglerGpu.spec())
        );
    }

    #[test]
    fn canonical_sweep_is_frozen_and_extended_is_a_superset() {
        // The degraded-DGX-1 golden enumerates exactly ALL; it must not
        // grow when scenarios are added.
        assert_eq!(FaultScenario::ALL.len(), 3);
        for f in FaultScenario::ALL {
            assert!(FaultScenario::EXTENDED.contains(&f));
        }
        assert!(FaultScenario::EXTENDED.contains(&FaultScenario::TwoStragglers));
        assert!(FaultScenario::EXTENDED.contains(&FaultScenario::MidEpochDeadNvLink));
        assert!(FaultScenario::EXTENDED.contains(&FaultScenario::MidEpochStraggler));
        // Dynamic scenarios must stay out of the frozen canonical sweep.
        assert!(FaultScenario::ALL
            .iter()
            .all(|f| f.mid_epoch_fraction().is_none()));
    }

    #[test]
    fn two_stragglers_slow_both_sockets() {
        let spec = FaultScenario::TwoStragglers.spec();
        assert_eq!(spec.slowdown_of(Device::gpu(3)), 1.5);
        assert_eq!(spec.slowdown_of(Device::gpu(6)), 1.5);
        assert_eq!(spec.slowdown_of(Device::gpu(0)), 1.0);
    }
}
