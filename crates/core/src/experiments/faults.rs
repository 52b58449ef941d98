//! Degraded-DGX-1 fault-injection sweep: epoch-time and idle-time
//! deltas when the paper's platform loses an NVLink interface or one
//! GPU thermally throttles.
//!
//! The scenarios live on the grid engine's fault axis
//! ([`crate::grid::FaultScenario`], re-exported here); this module is
//! just a grid sweep with a non-trivial fault axis plus the delta
//! bookkeeping against the healthy baseline.
//!
//! A notable non-result drives the scenario choice: the hybrid
//! cube-mesh tolerates any *single* dead NVLink cable at 8 GPUs — an
//! all-NVLink Hamiltonian ring with the same 25 GB/s cross-quad
//! bottleneck always survives, so NCCL renegotiates and epoch time
//! barely moves (see `single_dead_cable_is_survivable_at_8_gpus`
//! below). Only a full interface failure (all of one GPU's bricks)
//! breaks the ring and forces host-bounced hops.

use std::collections::HashMap;
use std::sync::Arc;

use voltascope_comm::CommMethod;
use voltascope_dnn::zoo::Workload;
use voltascope_profile::TextTable;
use voltascope_sim::SimSpan;
use voltascope_train::EpochReport;

pub use crate::grid::FaultScenario;

use crate::grid::{Cell, GridOut, GridSpec};
use crate::service::GridService;
use crate::workloads::WorkloadSel;

/// One degraded-scenario measurement.
#[derive(Debug, Clone)]
pub struct DegradedRow {
    /// Workload (network).
    pub workload: WorkloadSel,
    /// Communication method.
    pub comm: CommMethod,
    /// Fault scenario.
    pub scenario: FaultScenario,
    /// Raw epoch time in seconds (no jitter protocol: deltas between
    /// scenarios are the signal, repetition noise would bury them).
    pub epoch_s: f64,
    /// Worst per-GPU compute-stream idle share of the steady-state
    /// iteration, in percent.
    pub max_idle_percent: f64,
}

/// The declarative degraded-DGX-1 sweep: every workload × both
/// communication methods × every fault scenario, at the paper's
/// batch-16, 8-GPU point (all eight GPUs so the ring must cross the
/// broken quad boundary).
pub fn spec() -> GridSpec {
    GridSpec::paper()
        .batches([16])
        .gpu_counts([8])
        .faults(FaultScenario::ALL)
}

/// Runs the degraded-DGX-1 sweep over `workloads` through `service`.
/// The idle-percent column walks the iteration traces, so this issues
/// a *traced* sweep: slim-loaded snapshot entries are recomputed
/// rather than scanned as fully idle.
pub fn degraded_grid(service: &GridService, workloads: &[Workload]) -> Vec<DegradedRow> {
    rows_from(service.sweep_traced(&spec().workloads(workloads.iter().copied())))
        .into_pairs()
        .map(|(_, row)| row)
        .collect()
}

/// Derives the degraded rows from a raw report grid.
pub fn rows_from(out: GridOut<Arc<EpochReport>>) -> GridOut<DegradedRow> {
    out.map(|c, report| degraded_row(c, &report))
}

fn degraded_row(c: &Cell, report: &EpochReport) -> DegradedRow {
    let max_idle_percent = (0..c.gpus)
        .map(|g| {
            let resource = format!("GPU{g}.compute");
            let busy: SimSpan = report
                .iter_trace
                .events()
                .iter()
                .filter(|e| e.resource.as_deref() == Some(&resource))
                .map(|e| e.duration())
                .sum();
            100.0
                * report
                    .iter_time
                    .saturating_sub(busy)
                    .ratio(report.iter_time)
        })
        .fold(0.0f64, f64::max);
    DegradedRow {
        workload: c.workload,
        comm: c.comm,
        scenario: c.fault,
        epoch_s: report.epoch_time.as_secs_f64(),
        max_idle_percent,
    }
}

/// Renders the degraded table: absolute numbers plus deltas against
/// the healthy row of the same (workload, method).
pub fn render(rows: &[DegradedRow]) -> TextTable {
    let baselines: HashMap<(WorkloadSel, CommMethod), (f64, f64)> = rows
        .iter()
        .filter(|r| r.scenario == FaultScenario::Healthy)
        .map(|r| ((r.workload, r.comm), (r.epoch_s, r.max_idle_percent)))
        .collect();
    let mut table = TextTable::new([
        "Network",
        "Method",
        "Scenario",
        "Epoch (s)",
        "d epoch (%)",
        "Max idle (%)",
        "d idle (pts)",
    ]);
    for r in rows {
        let (base_epoch, base_idle) = baselines
            .get(&(r.workload, r.comm))
            .copied()
            .unwrap_or((f64::NAN, f64::NAN));
        table.row([
            r.workload.name().to_string(),
            r.comm.name().to_string(),
            r.scenario.name().to_string(),
            format!("{:.1}", r.epoch_s),
            format!("{:+.1}", 100.0 * (r.epoch_s - base_epoch) / base_epoch),
            format!("{:.1}", r.max_idle_percent),
            format!("{:+.1}", r.max_idle_percent - base_idle),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltascope_topo::{Device, FaultSpec};

    use crate::grid::{epoch_reports, Executor};
    use crate::harness::Harness;

    /// The degraded rows of every cell of `spec`, on the direct
    /// reference path.
    fn rows_of(spec: &GridSpec) -> Vec<DegradedRow> {
        rows_from(epoch_reports(&Harness::paper(), spec, Executor::Serial))
            .into_pairs()
            .map(|(_, r)| r)
            .collect()
    }

    fn epoch_of(rows: &[DegradedRow], w: Workload, c: CommMethod, s: FaultScenario) -> f64 {
        rows.iter()
            .find(|r| r.workload == w && r.comm == c && r.scenario == s)
            .expect("row present")
            .epoch_s
    }

    #[test]
    fn dead_interface_slows_every_nccl_workload_at_8_gpus() {
        let spec = spec().workloads([Workload::LeNet, Workload::AlexNet]);
        let rows = rows_of(&spec);
        for w in [Workload::LeNet, Workload::AlexNet] {
            let healthy = epoch_of(&rows, w, CommMethod::Nccl, FaultScenario::Healthy);
            let dead = epoch_of(&rows, w, CommMethod::Nccl, FaultScenario::DeadNvLink);
            assert!(
                dead > healthy * 1.001,
                "{w:?}: dead interface {dead} vs healthy {healthy}"
            );
            let straggler = epoch_of(&rows, w, CommMethod::Nccl, FaultScenario::StragglerGpu);
            // A straggler can never help; whether it hurts depends on
            // the workload (see below).
            assert!(
                straggler >= healthy,
                "{w:?}: straggler {straggler} vs healthy {healthy}"
            );
        }
        // AlexNet's kernels are big enough that GPU3 at 1.5x drags the
        // synchronous iteration. (LeNet is scheduler-bound at 8 GPUs:
        // its tiny kernels hide entirely behind serial host dispatch,
        // so the straggler costs nothing — itself a finding.)
        let healthy = epoch_of(
            &rows,
            Workload::AlexNet,
            CommMethod::Nccl,
            FaultScenario::Healthy,
        );
        let straggler = epoch_of(
            &rows,
            Workload::AlexNet,
            CommMethod::Nccl,
            FaultScenario::StragglerGpu,
        );
        assert!(
            straggler > healthy * 1.001,
            "AlexNet straggler {straggler} vs healthy {healthy}"
        );
    }

    #[test]
    fn single_dead_cable_is_survivable_at_8_gpus() {
        // Killing one cross-quad cable leaves an all-NVLink Hamiltonian
        // ring with the same 25 GB/s bottleneck: NCCL renegotiates and
        // the 8-GPU epoch moves by well under the dead-interface hit.
        let h = Harness::paper();
        let cut = Harness {
            sys: h
                .sys
                .with_faults(&FaultSpec::new().kill_link(Device::gpu(3), Device::gpu(5))),
            ..h.clone()
        };
        let model = Workload::AlexNet.build();
        let healthy = h
            .epoch(
                &model,
                16,
                8,
                CommMethod::Nccl,
                voltascope_train::ScalingMode::Strong,
            )
            .epoch_time
            .as_secs_f64();
        let degraded = cut
            .epoch(
                &model,
                16,
                8,
                CommMethod::Nccl,
                voltascope_train::ScalingMode::Strong,
            )
            .epoch_time
            .as_secs_f64();
        let rel = (degraded - healthy).abs() / healthy;
        assert!(
            rel < 0.02,
            "single dead cable changed 8-GPU NCCL epoch by {:.2}%",
            100.0 * rel
        );
    }

    #[test]
    fn single_dead_cable_breaks_the_6_gpu_ring() {
        // At 6 GPUs (0..5), GPU5's only in-set NVLink neighbours are
        // GPU3 and GPU4; killing the 3-5 cable leaves no all-NVLink
        // Hamiltonian cycle, so the ring falls back to host-bounced
        // hops and NCCL measurably slows.
        let h = Harness::paper();
        let cut = Harness {
            sys: h
                .sys
                .with_faults(&FaultSpec::new().kill_link(Device::gpu(3), Device::gpu(5))),
            ..h.clone()
        };
        let model = Workload::AlexNet.build();
        let healthy = h
            .epoch(
                &model,
                16,
                6,
                CommMethod::Nccl,
                voltascope_train::ScalingMode::Strong,
            )
            .epoch_time
            .as_secs_f64();
        let degraded = cut
            .epoch(
                &model,
                16,
                6,
                CommMethod::Nccl,
                voltascope_train::ScalingMode::Strong,
            )
            .epoch_time
            .as_secs_f64();
        assert!(
            degraded > healthy * 1.01,
            "6-GPU ring should break: {degraded} vs {healthy}"
        );
    }

    #[test]
    fn mid_epoch_dead_interface_brackets_healthy_and_always_dead() {
        // The dynamic scenario's epoch must land strictly between the
        // healthy epoch (the fault costs something) and its static
        // twin's (half the epoch ran at the healthy pace).
        let spec = spec()
            .workloads([Workload::AlexNet])
            .comms([CommMethod::Nccl])
            .faults([
                FaultScenario::Healthy,
                FaultScenario::DeadNvLink,
                FaultScenario::MidEpochDeadNvLink,
            ]);
        let rows = rows_of(&spec);
        let healthy = epoch_of(
            &rows,
            Workload::AlexNet,
            CommMethod::Nccl,
            FaultScenario::Healthy,
        );
        let dead = epoch_of(
            &rows,
            Workload::AlexNet,
            CommMethod::Nccl,
            FaultScenario::DeadNvLink,
        );
        let mid = epoch_of(
            &rows,
            Workload::AlexNet,
            CommMethod::Nccl,
            FaultScenario::MidEpochDeadNvLink,
        );
        assert!(mid > healthy * 1.001, "mid {mid} vs healthy {healthy}");
        assert!(mid < dead * 0.999, "mid {mid} vs always-dead {dead}");
    }

    #[test]
    fn second_straggler_at_same_factor_barely_moves_the_epoch() {
        // Synchronous data parallelism waits for the slowest rank each
        // iteration: a second GPU throttled at the *same* 1.5x factor
        // can never beat the single-straggler case, and because the
        // iteration is already paced by the first straggler it should
        // cost at most a whisker more (sub-percent, from the second
        // slow rank's own comm-phase contribution).
        let spec = spec()
            .workloads([Workload::AlexNet])
            .faults(FaultScenario::EXTENDED);
        let rows = rows_of(&spec);
        let one = epoch_of(
            &rows,
            Workload::AlexNet,
            CommMethod::Nccl,
            FaultScenario::StragglerGpu,
        );
        let two = epoch_of(
            &rows,
            Workload::AlexNet,
            CommMethod::Nccl,
            FaultScenario::TwoStragglers,
        );
        let healthy = epoch_of(
            &rows,
            Workload::AlexNet,
            CommMethod::Nccl,
            FaultScenario::Healthy,
        );
        assert!(two >= one, "two stragglers {two} vs one {one}");
        assert!(
            two > healthy * 1.001,
            "two stragglers {two} vs healthy {healthy}"
        );
        // Max-of-ranks: the second straggler adds far less than the
        // first one did.
        assert!(
            two - one < (one - healthy) * 0.5,
            "second straggler added {} but first added {}",
            two - one,
            one - healthy
        );
    }

    #[test]
    fn render_marks_healthy_deltas_as_zero() {
        let spec = spec().workloads([Workload::LeNet]);
        let rows = rows_of(&spec);
        let text = render(&rows).render();
        assert!(text.contains("+0.0"));
        assert!(text.contains("healthy"));
        assert!(text.contains("dead NVLink"));
    }
}
