//! Per-GPU idle-time analysis — quantifying the §V-A observation that
//! the DGX-1's asymmetric links leave some GPUs idle ("GPU1 and GPU2
//! remain idle until GPU3 receives the updated weights").

use std::sync::Arc;

use voltascope_profile::TextTable;
use voltascope_sim::SimSpan;
use voltascope_train::EpochReport;

use crate::grid::{Cell, GridOut, GridSpec};
use crate::service::GridService;

/// One GPU's activity within a steady-state iteration.
#[derive(Debug, Clone)]
pub struct IdleRow {
    /// GPU index.
    pub gpu: usize,
    /// Time the compute stream ran kernels (FP/BP/WU).
    pub busy: SimSpan,
    /// Time the compute stream sat idle.
    pub idle: SimSpan,
    /// Idle share of the iteration, in percent.
    pub idle_percent: f64,
}

/// Computes the per-GPU idle table for every cell of `spec` through
/// `service`. The result is indexable by [`crate::grid::Cell`], so
/// callers can print sections in any order regardless of enumeration
/// order. Idle scans walk the iteration traces, so this issues a
/// *traced* sweep: slim-loaded snapshot entries (which carry no trace)
/// are recomputed rather than silently scanned as 100% idle.
pub fn grid(service: &GridService, spec: &GridSpec) -> GridOut<Vec<IdleRow>> {
    rows_from(service.sweep_traced(spec))
}

/// Derives the per-GPU idle rows from a raw report grid.
pub fn rows_from(out: GridOut<Arc<EpochReport>>) -> GridOut<Vec<IdleRow>> {
    out.map(|c, report| idle_rows(c, &report))
}

fn idle_rows(c: &Cell, report: &EpochReport) -> Vec<IdleRow> {
    (0..c.gpus)
        .map(|g| {
            let resource = format!("GPU{g}.compute");
            let busy: SimSpan = report
                .iter_trace
                .events()
                .iter()
                .filter(|e| e.resource.as_deref() == Some(&resource))
                .map(|e| e.duration())
                .sum();
            let idle = report.iter_time.saturating_sub(busy);
            IdleRow {
                gpu: g,
                busy,
                idle,
                idle_percent: 100.0 * idle.ratio(report.iter_time),
            }
        })
        .collect()
}

/// Renders the idle table.
pub fn render(rows: &[IdleRow]) -> TextTable {
    let mut table = TextTable::new(["GPU", "Busy/iter", "Idle/iter", "Idle (%)"]);
    for r in rows {
        table.row([
            format!("GPU{}", r.gpu),
            r.busy.to_string(),
            r.idle.to_string(),
            format!("{:.1}", r.idle_percent),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Executor;
    use crate::harness::Harness;
    use voltascope_comm::CommMethod;
    use voltascope_dnn::zoo::Workload;

    /// The idle rows of one configuration, through a serial service.
    fn idle_of(workload: Workload, batch: usize, gpus: usize, comm: CommMethod) -> Vec<IdleRow> {
        let service = GridService::with_executor(Harness::paper(), Executor::Serial);
        let spec = GridSpec::paper()
            .workloads([workload])
            .comms([comm])
            .batches([batch])
            .gpu_counts([gpus]);
        grid(&service, &spec)
            .into_pairs()
            .next()
            .expect("one-cell grid")
            .1
    }

    #[test]
    fn all_gpus_report_and_sum_to_iteration() {
        let rows = idle_of(Workload::LeNet, 16, 4, CommMethod::P2p);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.idle_percent >= 0.0 && r.idle_percent <= 100.0);
            assert!(!r.busy.is_zero(), "GPU{} never computed", r.gpu);
        }
    }

    #[test]
    fn parameter_server_gpu_is_busiest() {
        // GPU0 runs the update kernels on top of FP/BP, so it idles
        // least under P2P (the others wait on it, §V-A).
        let rows = idle_of(Workload::AlexNet, 16, 4, CommMethod::P2p);
        let gpu0_idle = rows[0].idle_percent;
        let max_other = rows[1..]
            .iter()
            .map(|r| r.idle_percent)
            .fold(0.0f64, f64::max);
        assert!(
            gpu0_idle <= max_other,
            "GPU0 idle {gpu0_idle:.1}% vs max other {max_other:.1}%"
        );
    }

    #[test]
    fn multi_gpu_idling_exceeds_single_gpu() {
        let one = idle_of(Workload::LeNet, 16, 1, CommMethod::P2p);
        let eight = idle_of(Workload::LeNet, 16, 8, CommMethod::P2p);
        let mean8: f64 = eight.iter().map(|r| r.idle_percent).sum::<f64>() / eight.len() as f64;
        assert!(mean8 > one[0].idle_percent);
    }

    #[test]
    fn renders() {
        let rows = idle_of(Workload::LeNet, 16, 2, CommMethod::Nccl);
        assert_eq!(render(&rows).len(), 2);
    }
}
