//! Per-cell simulation, the direct reference sweep, and indexed results.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use voltascope_train::{
    simulate_epoch_dynamic_lowered, simulate_epoch_lowered, EpochReport, MidEpochFault, TrainConfig,
};
use voltascope_workload::Definition;

use super::cell::{Cell, FaultScenario, Platform};
use super::executor::Executor;
use super::spec::GridSpec;
use crate::Harness;

/// Builds the [`Harness`] variant for one (platform, fault) pair:
/// `base` itself for the healthy baseline DGX-1, otherwise `base` with
/// the variant topology swapped in and the fault spec applied. The
/// measurement-protocol fields (reps, jitter, seed) are always
/// inherited unchanged, so post-processing a variant's raw epoch with
/// the *base* harness is byte-identical to using the variant harness.
///
/// Mid-epoch scenarios ([`FaultScenario::mid_epoch_fraction`]) keep
/// the platform topology *healthy*: their fault strikes at simulation
/// time via the engine's dynamic-event machinery ([`cell_report`]),
/// not by rewiring the topology before lowering.
pub fn harness_for(base: &Harness, platform: Platform, fault: FaultScenario) -> Harness {
    let static_fault = fault != FaultScenario::Healthy && fault.mid_epoch_fraction().is_none();
    if platform == Platform::Dgx1 && !static_fault {
        return base.clone();
    }
    let mut sys = base.sys.clone();
    if platform != Platform::Dgx1 {
        sys.topo = platform.topology();
    }
    if static_fault {
        sys = sys.with_faults(&fault.spec());
    }
    Harness {
        sys,
        ..base.clone()
    }
}

/// Simulates one cell's [`EpochReport`] from its workload
/// [`Definition`], dispatching on the fault scenario: static scenarios
/// run the ordinary epoch against the (already degraded) harness;
/// mid-epoch scenarios run the dynamic piecewise epoch
/// ([`simulate_epoch_dynamic_lowered`]) against the healthy harness,
/// with the fault lowered to engine events at
/// [`FaultScenario::mid_epoch_fraction`]. A dynamic report's
/// steady-state columns describe the **post-fault** regime, while
/// `epoch_time` is the piecewise composition. Both the caching
/// service and the direct reference path ([`epoch_reports`]) route
/// every cell through here, so the two stay interchangeable.
///
/// # Panics
///
/// Panics with the lowering error's message when the definition fails
/// validation, and on the fault-spec validation of `Topology::apply`.
pub fn cell_report(harness: &Harness, def: &Definition, cell: &Cell) -> EpochReport {
    let cfg = TrainConfig {
        scaling: cell.scaling,
        ..TrainConfig::strong(cell.batch, cell.gpus, cell.comm)
    };
    let lowered = def.lowered(cell.batch).unwrap_or_else(|e| panic!("{e}"));
    match cell.fault.mid_epoch_fraction() {
        Some(fraction) => {
            let fault = MidEpochFault::new(cell.fault.spec(), fraction);
            let dynamic = simulate_epoch_dynamic_lowered(&harness.sys, &lowered, &cfg, &fault);
            EpochReport {
                epoch_time: dynamic.epoch_time,
                ..dynamic.degraded
            }
        }
        None => simulate_epoch_lowered(&harness.sys, &lowered, &cfg),
    }
}

/// Simulates the raw [`EpochReport`] of every cell of `spec`, without
/// a cache: one [`harness_for`] per
/// (platform, fault) pair on the spec's axes, then [`cell_report`]
/// mapped over [`GridSpec::cells`] under `exec`. This is the direct
/// reference path the service tests compare
/// [`crate::service::GridService::sweep`] against; both produce the
/// same `GridOut<Arc<EpochReport>>` shape.
pub fn epoch_reports(base: &Harness, spec: &GridSpec, exec: Executor) -> GridOut<Arc<EpochReport>> {
    let mut harnesses = HashMap::new();
    for &p in spec.platform_axis() {
        for &f in spec.fault_axis() {
            harnesses.insert((p, f), harness_for(base, p, f));
        }
    }
    let cells = spec.cells();
    let values = exec.run(cells.len(), |i| {
        let cell = &cells[i];
        let harness = &harnesses[&(cell.platform, cell.fault)];
        Arc::new(cell_report(harness, cell.workload.resolve(), cell))
    });
    GridOut { cells, values }
}

/// The results of one grid run: values in cell-enumeration order plus
/// O(1) lookup by cell key.
#[derive(Debug, Clone)]
pub struct GridOut<T> {
    cells: Vec<Cell>,
    values: Vec<T>,
}

impl<T> GridOut<T> {
    /// Assembles a grid result from already-paired cells and values
    /// (used by the service layer, which answers some cells from cache
    /// rather than executing the whole grid).
    ///
    /// # Panics
    ///
    /// Panics when the lengths disagree.
    pub(crate) fn from_parts(cells: Vec<Cell>, values: Vec<T>) -> Self {
        assert_eq!(
            cells.len(),
            values.len(),
            "one value per cell in enumeration order"
        );
        GridOut { cells, values }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the grid was empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cells, in enumeration order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The values, in enumeration order.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Iterates `(cell, value)` pairs in enumeration order.
    pub fn iter(&self) -> impl Iterator<Item = (&Cell, &T)> {
        self.cells.iter().zip(self.values.iter())
    }

    /// Consumes the grid into `(cell, value)` pairs.
    pub fn into_pairs(self) -> impl Iterator<Item = (Cell, T)> {
        self.cells.into_iter().zip(self.values)
    }

    /// An O(1) index over the full cell keys.
    pub fn index(&self) -> HashMap<Cell, &T> {
        self.cells.iter().copied().zip(self.values.iter()).collect()
    }

    /// An O(1) index over a derived key (e.g. `(workload, batch)` when
    /// the other axes are singletons). Later cells win on key
    /// collisions, matching enumeration order.
    pub fn index_by<K, F>(&self, key: F) -> HashMap<K, &T>
    where
        K: Eq + Hash,
        F: Fn(&Cell) -> K,
    {
        self.cells
            .iter()
            .map(&key)
            .zip(self.values.iter())
            .collect()
    }

    /// Looks up one cell's value.
    pub fn get(&self, cell: &Cell) -> Option<&T> {
        self.cells
            .iter()
            .position(|c| c == cell)
            .map(|i| &self.values[i])
    }

    /// Maps the values, keeping cells and order.
    pub fn map<U, F: FnMut(&Cell, T) -> U>(self, mut f: F) -> GridOut<U> {
        let GridOut { cells, values } = self;
        let values = cells.iter().zip(values).map(|(c, v)| f(c, v)).collect();
        GridOut { cells, values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltascope_comm::CommMethod;
    use voltascope_dnn::zoo::Workload;

    fn small_spec() -> GridSpec {
        GridSpec::paper()
            .workloads([Workload::LeNet])
            .comms([CommMethod::P2p])
            .batches([16, 32])
            .gpu_counts([1, 2])
    }

    #[test]
    fn results_are_indexable_by_cell() {
        let cells = small_spec().cells();
        let values = cells.iter().map(|c| (c.batch, c.gpus)).collect();
        let out = GridOut::from_parts(cells, values);
        assert_eq!(out.len(), 4);
        let index = out.index();
        for (cell, value) in out.iter() {
            assert_eq!(index[cell], value);
            assert_eq!(out.get(cell), Some(value));
        }
        let by_batch = out.index_by(|c| (c.batch, c.gpus));
        assert_eq!(by_batch[&(32, 2)], &(32, 2));
    }

    #[test]
    fn platform_axis_swaps_the_topology() {
        let h = Harness::paper();
        let spec = small_spec()
            .batches([16])
            .gpu_counts([2])
            .platforms([Platform::Dgx1, Platform::PcieOnly]);
        let names: Vec<String> = spec
            .cells()
            .iter()
            .map(|c| {
                harness_for(&h, c.platform, c.fault)
                    .sys
                    .topo
                    .name()
                    .to_string()
            })
            .collect();
        assert_eq!(names.len(), 2);
        assert_ne!(names[0], names[1]);
        // And the direct sweep times each cell on its own platform.
        let out = epoch_reports(&h, &spec, Executor::Serial);
        assert_ne!(out.values()[0].epoch_time, out.values()[1].epoch_time);
    }

    #[test]
    fn mid_epoch_scenarios_keep_the_harness_healthy() {
        // Dynamic scenarios inject their fault at simulation time, so
        // the harness topology must stay the healthy platform — the
        // pre-fault iterations and the communicator are built against
        // it.
        let h = Harness::paper();
        let healthy = harness_for(&h, Platform::Dgx1, FaultScenario::Healthy);
        let dynamic = harness_for(&h, Platform::Dgx1, FaultScenario::MidEpochDeadNvLink);
        let dead = harness_for(&h, Platform::Dgx1, FaultScenario::DeadNvLink);
        assert_eq!(dynamic.sys.topo.name(), healthy.sys.topo.name());
        assert_ne!(dead.sys.topo.name(), healthy.sys.topo.name());
        let straggling = harness_for(&h, Platform::Dgx1, FaultScenario::MidEpochStraggler);
        assert!(straggling.sys.gpu_slowdown.is_empty());
    }

    #[test]
    fn fault_axis_degrades_the_harness_system() {
        let h = Harness::paper();
        let spec = small_spec()
            .batches([16])
            .gpu_counts([8])
            .faults(FaultScenario::ALL);
        let by_fault: HashMap<FaultScenario, Harness> = spec
            .cells()
            .iter()
            .map(|c| (c.fault, harness_for(&h, c.platform, c.fault)))
            .collect();
        let healthy = &by_fault[&FaultScenario::Healthy];
        let dead = &by_fault[&FaultScenario::DeadNvLink];
        let straggler = &by_fault[&FaultScenario::StragglerGpu];
        assert!(healthy.sys.gpu_slowdown.is_empty());
        assert_ne!(healthy.sys.topo.name(), dead.sys.topo.name());
        assert_eq!(straggler.sys.gpu_slowdown.len(), 1);
    }
}
