//! Shared helper for the integration suites that time single
//! configurations.

use std::sync::Arc;

use dgx1_repro::prelude::*;
use dgx1_repro::voltascope::grid::epoch_reports;

/// Simulates one cell of `w` on `h` from scratch through the uncached
/// reference sweep (the path every `GridService` miss takes), so two
/// calls really compute twice.
pub fn report(
    h: &Harness,
    w: Workload,
    batch: usize,
    gpus: usize,
    comm: CommMethod,
    scaling: ScalingMode,
) -> Arc<EpochReport> {
    let spec = GridSpec::paper()
        .workloads([w])
        .comms([comm])
        .batches([batch])
        .gpu_counts([gpus])
        .scalings([scaling]);
    epoch_reports(h, &spec, Executor::Serial).values()[0].clone()
}
