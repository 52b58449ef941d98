//! Design-space ablations (DESIGN.md §5): rerun the training-time
//! experiment on variant platforms to isolate which hardware property
//! causes which effect the paper observes.
//!
//! The platform variants themselves live on the grid engine's platform
//! axis ([`crate::grid::Platform`], re-exported here); the ablation is
//! just a grid sweep with a non-trivial platform axis.

use std::collections::HashMap;
use std::sync::Arc;

use voltascope_comm::CommMethod;
use voltascope_dnn::zoo::Workload;
use voltascope_profile::TextTable;
use voltascope_train::EpochReport;

pub use crate::grid::Platform;

use crate::grid::{GridOut, GridSpec};
use crate::service::GridService;

/// One ablation result.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Platform variant.
    pub platform: Platform,
    /// Communication method.
    pub comm: CommMethod,
    /// Epoch time in seconds.
    pub epoch_s: f64,
}

/// The declarative ablation sweep: every platform variant × both
/// communication methods, at one workload/batch/GPU-count point.
pub fn spec(workload: Workload, batch: usize, gpus: usize) -> GridSpec {
    GridSpec::paper()
        .workloads([workload])
        .batches([batch])
        .gpu_counts([gpus])
        .platforms(Platform::ALL)
}

/// Runs the topology ablation for one workload/batch/GPU-count, under
/// both communication methods, through `service`.
pub fn topology_ablation(
    service: &GridService,
    workload: Workload,
    batch: usize,
    gpus: usize,
) -> Vec<AblationRow> {
    rows_from(&service.sweep(&spec(workload, batch, gpus)))
}

/// Derives the ablation rows from a raw report grid.
pub fn rows_from(out: &GridOut<Arc<EpochReport>>) -> Vec<AblationRow> {
    out.iter()
        .map(|(c, r)| AblationRow {
            platform: c.platform,
            comm: c.comm,
            epoch_s: r.epoch_time.as_secs_f64(),
        })
        .collect()
}

/// Renders the ablation table (slowdown relative to the DGX-1
/// baseline of the same method).
pub fn render(rows: &[AblationRow]) -> TextTable {
    let baselines: HashMap<CommMethod, f64> = rows
        .iter()
        .filter(|r| r.platform == Platform::Dgx1)
        .map(|r| (r.comm, r.epoch_s))
        .collect();
    let mut table = TextTable::new(["Platform", "Method", "Epoch (s)", "vs DGX-1"]);
    for r in rows {
        let baseline = baselines.get(&r.comm).copied().unwrap_or(f64::NAN);
        table.row([
            r.platform.name().to_string(),
            r.comm.name().to_string(),
            format!("{:.1}", r.epoch_s),
            format!("{:.2}x", r.epoch_s / baseline),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Executor;
    use crate::harness::Harness;

    fn ablation(workload: Workload, batch: usize, gpus: usize) -> Vec<AblationRow> {
        let service = GridService::with_executor(Harness::paper(), Executor::Serial);
        topology_ablation(&service, workload, batch, gpus)
    }

    #[test]
    fn pcie_only_is_slowest_for_communication_heavy_training() {
        // AlexNet, 61M weights: communication dominates at 4 GPUs.
        let rows = ablation(Workload::AlexNet, 16, 4);
        let time = |p: Platform, c: CommMethod| {
            rows.iter()
                .find(|r| r.platform == p && r.comm == c)
                .unwrap()
                .epoch_s
        };
        for comm in CommMethod::ALL {
            assert!(
                time(Platform::PcieOnly, comm) > time(Platform::Dgx1, comm),
                "{comm}: PCIe-only should be slower than NVLink"
            );
        }
    }

    #[test]
    fn single_lane_never_beats_baseline() {
        let rows = ablation(Workload::AlexNet, 16, 2);
        let time = |p: Platform, c: CommMethod| {
            rows.iter()
                .find(|r| r.platform == p && r.comm == c)
                .unwrap()
                .epoch_s
        };
        for comm in CommMethod::ALL {
            assert!(time(Platform::SingleLane, comm) >= time(Platform::Dgx1, comm) * 0.999);
        }
    }

    #[test]
    fn ablation_renders_relative_column() {
        let rows = ablation(Workload::LeNet, 16, 2);
        let text = render(&rows).render();
        assert!(text.contains("1.00x"));
        assert!(text.contains("PCIe-only"));
    }
}
