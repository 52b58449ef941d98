//! The three sweep workloads: their set-up, one pass of their traffic
//! through `GridService`, and the probe calls a traced pass adds to
//! attribute host time to the layers under the service.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use voltascope::experiments::{faults, fig3, idle};
use voltascope::grid::{self, Cell, Executor, FaultScenario, GridOut, GridSpec, Platform};
use voltascope::service::{persist, GridService, SnapshotStatus};
use voltascope::{Harness, WorkloadSel};
use voltascope_comm::{tuner, CommMethod, Ring, TuningSpace};
use voltascope_dnn::zoo::Workload;
use voltascope_train::{EpochReport, SystemModel};
use voltascope_workload::Definition;

use crate::check::{self, Reference};
use crate::ledger::Ledger;

/// Sweep worker threads, pinned so the traffic does not depend on the
/// host.
pub const WORKERS: usize = 2;
/// The executor every sweep runs on.
pub const EXEC: Executor = Executor::Parallel { threads: WORKERS };

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The Fig. 3 grid swept from an empty service, then snapshotted.
    Fig3Cold,
    /// The Fig. 3 grid served from that snapshot, with lazy trace
    /// decodes for the 8-GPU and idle-time cells.
    Fig3Warm,
    /// The degraded-DGX-1 grid under the modern NCCL tuning space.
    WhatifFaults,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 3] = [Kind::Fig3Cold, Kind::Fig3Warm, Kind::WhatifFaults];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig3Cold => "fig3_cold",
            Kind::Fig3Warm => "fig3_warm",
            Kind::WhatifFaults => "whatif_faults",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The Fig. 3 grid: 5 CNNs x {P2P, NCCL} x batch {16, 32, 64} x
/// {1, 2, 4, 8} GPUs on the healthy DGX-1.
fn fig3_spec() -> GridSpec {
    fig3::spec(&Workload::ALL)
}

/// The cells the `idle_time` golden renders (all inside the Fig. 3 grid).
fn idle_spec() -> GridSpec {
    GridSpec::paper()
        .workloads([Workload::AlexNet])
        .batches([16])
        .gpu_counts([4, 8])
}

/// The degraded-DGX-1 grid: every CNN and comm method at batch 16 on 8
/// GPUs, under every canned fault scenario.
fn whatif_spec() -> GridSpec {
    GridSpec::paper()
        .batches([16])
        .gpu_counts([8])
        .faults(FaultScenario::EXTENDED)
}

/// The calibrated DGX-1 harness with the NCCL tuning space set in code
/// rather than read from the environment.
fn harness(space: TuningSpace) -> Harness {
    let mut h = Harness::paper();
    h.sys.nccl.tuning = space;
    h
}

/// Every grid the benchmark answers, with the harness it is simulated
/// against and the tuning label of its reference keys.
pub fn reference_grids() -> [(GridSpec, Harness, &'static str); 2] {
    [
        (fig3_spec(), harness(TuningSpace::paper()), "paper"),
        (whatif_spec(), harness(TuningSpace::modern()), "modern"),
    ]
}

/// The flag that makes the benchmark write the cold Fig. 3 snapshot to
/// the path that follows it, then exit.
pub const WRITE_SNAPSHOT_FLAG: &str = "--write-snapshot";

/// Sweeps the Fig. 3 grid from an empty service and saves it with full
/// traces to `path`: the snapshot `fig3_warm` serves from.
pub fn write_fig3_snapshot(path: &Path) -> Result<(), String> {
    let service = GridService::with_executor(harness(TuningSpace::paper()), EXEC);
    service.sweep(&fig3_spec());
    service
        .save_with(path, false)
        .map(drop)
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// What one pass answered.
#[derive(Debug)]
pub struct PassOutcome {
    /// Cells answered.
    pub cells: u64,
    /// Cells whose simulated output or render did not match.
    pub failed: u64,
    /// Fit error against the paper figures, on the Fig. 3 workloads.
    pub paper_err_pct: Option<f64>,
    /// Size of the snapshot the pass wrote, if it wrote one.
    pub snapshot_bytes: Option<u64>,
}

/// A set-up workload, ready for passes.
pub struct Bench {
    kind: Kind,
    base: Harness,
    tuning: &'static str,
    cells: Vec<Cell>,
    defs: HashMap<WorkloadSel, Definition>,
    reference: Reference,
    fig3_golden: String,
    idle_golden: String,
    snapshot: PathBuf,
}

impl Bench {
    /// Sets up `kind`: pins the harness, resolves every workload the
    /// traffic names and checks it lowers at each batch size it is
    /// swept at, loads the reference digests and golden renders from
    /// `root`, and for `fig3_warm` writes the cold Fig. 3 snapshot into
    /// the private directory `dir`.
    pub fn setup(kind: Kind, root: &Path, dir: &Path) -> Result<Self, String> {
        let read = |rel: &str| {
            std::fs::read_to_string(root.join(rel)).map_err(|e| format!("reading {rel}: {e}"))
        };
        let (space, tuning) = match kind {
            Kind::WhatifFaults => (TuningSpace::modern(), "modern"),
            Kind::Fig3Cold | Kind::Fig3Warm => (TuningSpace::paper(), "paper"),
        };
        let cells = match kind {
            Kind::Fig3Cold => fig3_spec().cells(),
            Kind::Fig3Warm => warm_traced_cells(),
            Kind::WhatifFaults => whatif_spec().cells(),
        };
        let mut defs: HashMap<WorkloadSel, Definition> = HashMap::new();
        let mut lowered = HashSet::new();
        for cell in &cells {
            let def = defs
                .entry(cell.workload)
                .or_insert_with(|| cell.workload.definition());
            if lowered.insert((cell.workload, cell.batch)) {
                def.lowered(cell.batch)
                    .map_err(|e| format!("{}: {e}", cell.workload.name()))?;
            }
        }
        let bench = Bench {
            kind,
            base: harness(space),
            tuning,
            cells,
            defs,
            reference: Reference::load(&root.join("perfbench/reference/cells.txt"))?,
            fig3_golden: read("results/fig3_training_time.txt")?,
            idle_golden: read("results/idle_time.txt")?,
            snapshot: dir.join("fig3.snapshot"),
        };
        if kind == Kind::Fig3Warm {
            // A child process writes the snapshot, so the memory of the
            // cold sweep never counts against the warm passes.
            let exe =
                std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
            let status = std::process::Command::new(exe)
                .arg(WRITE_SNAPSHOT_FLAG)
                .arg(&bench.snapshot)
                .status()
                .map_err(|e| format!("starting the snapshot writer: {e}"))?;
            if !status.success() {
                return Err(format!("the snapshot writer failed: {status}"));
            }
        }
        Ok(bench)
    }

    /// The cells whose request order the seed permutes.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Cells one pass answers.
    pub fn cells_per_pass(&self) -> u64 {
        let table = if self.kind == Kind::Fig3Warm {
            fig3_spec().len()
        } else {
            0
        };
        (table + self.cells.len()) as u64
    }

    /// Runs one pass, issuing the permuted cells in `order`. With a
    /// ledger, times every layer call and runs the probes.
    pub fn pass(&self, order: &[Cell], mut ledger: Option<&mut Ledger>) -> PassOutcome {
        let mut outcome = match self.kind {
            Kind::Fig3Cold => self.cold(order, &mut ledger),
            Kind::Fig3Warm => self.warm(order, &mut ledger),
            Kind::WhatifFaults => self.whatif(order, &mut ledger),
        };
        outcome.failed = outcome.failed.min(outcome.cells);
        outcome
    }

    fn cold(&self, order: &[Cell], ledger: &mut Option<&mut Ledger>) -> PassOutcome {
        let service = GridService::with_executor(self.base.clone(), EXEC);
        let reports = timed(ledger, |l| &mut l.request_ms, || service.run_cells(order));
        record_service(ledger, &service);
        let mut failed = self.mismatches(order, &reports, true);
        let table = timed(
            ledger,
            |l| &mut l.request_ms,
            || service.sweep(&fig3_spec()),
        );
        let paper_err_pct = check::paper_err_pct(table.iter().map(|(c, r)| (c, &**r)));
        failed += self.fig3_failures(&table, ledger);
        failed += self.idle_failures(&service, ledger);
        let saved = timed(
            ledger,
            |l| &mut l.encode_ms,
            || service.save_with(&self.snapshot, false),
        );
        let snapshot_bytes = saved
            .ok()
            .and_then(|_| std::fs::metadata(&self.snapshot).ok())
            .map(|m| m.len());
        if snapshot_bytes.is_none() {
            failed += order.len() as u64;
        }
        if let Some(l) = ledger.as_deref_mut() {
            l.snapshot_bytes = snapshot_bytes.unwrap_or(0);
            failed += self.probe(order, l);
        }
        PassOutcome {
            cells: self.cells_per_pass(),
            failed,
            paper_err_pct,
            snapshot_bytes,
        }
    }

    fn warm(&self, order: &[Cell], ledger: &mut Option<&mut Ledger>) -> PassOutcome {
        let cells = self.cells_per_pass();
        let (service, status) = timed(
            ledger,
            |l| &mut l.load_ms,
            || GridService::with_snapshot(self.base.clone(), EXEC, &self.snapshot),
        );
        let grid = fig3_spec();
        if !matches!(status, SnapshotStatus::Loaded { cells } if cells == grid.len()) {
            eprintln!("perfbench: warm pass did not load the snapshot: {status}");
            return PassOutcome {
                cells,
                failed: cells,
                paper_err_pct: None,
                snapshot_bytes: None,
            };
        }
        let table = timed(ledger, |l| &mut l.request_ms, || service.sweep(&grid));
        let mut failed = self.mismatches(table.cells(), table.values(), false);
        let paper_err_pct = check::paper_err_pct(table.iter().map(|(c, r)| (c, &**r)));
        failed += self.fig3_failures(&table, ledger);
        let traced = timed(
            ledger,
            |l| &mut l.request_ms,
            || service.run_cells_traced(order, true),
        );
        failed += self.mismatches(order, &traced, true);
        failed += self.idle_failures(&service, ledger);
        record_service(ledger, &service);
        if let Some(l) = ledger.as_deref_mut() {
            l.trace_decodes = service.trace_decodes();
            failed += self.probe_decodes(order, l);
        }
        PassOutcome {
            cells,
            failed,
            paper_err_pct,
            snapshot_bytes: None,
        }
    }

    fn whatif(&self, order: &[Cell], ledger: &mut Option<&mut Ledger>) -> PassOutcome {
        let service = GridService::with_executor(self.base.clone(), EXEC);
        let reports = timed(
            ledger,
            |l| &mut l.request_ms,
            || service.run_cells_traced(order, true),
        );
        record_service(ledger, &service);
        let mut failed = self.mismatches(order, &reports, true);
        let out = timed(
            ledger,
            |l| &mut l.request_ms,
            || service.sweep_traced(&whatif_spec()),
        );
        let text = timed(
            ledger,
            |l| &mut l.render_ms,
            || faults::render(faults::rows_from(out).values()).render(),
        );
        std::hint::black_box(text);
        if let Some(l) = ledger.as_deref_mut() {
            failed += self.probe(order, l);
        }
        PassOutcome {
            cells: self.cells_per_pass(),
            failed,
            paper_err_pct: None,
            snapshot_bytes: None,
        }
    }

    /// Cells among `cells` whose report does not match the reference.
    fn mismatches(&self, cells: &[Cell], reports: &[Arc<EpochReport>], with_trace: bool) -> u64 {
        let bad = cells.iter().zip(reports).filter(|(cell, report)| {
            !self
                .reference
                .matches(&check::cell_key(cell, self.tuning), report, with_trace)
        });
        bad.count() as u64
    }

    /// Renders Fig. 3 from `table`; a render that differs from the
    /// golden condemns every cell in it.
    fn fig3_failures(
        &self,
        table: &GridOut<Arc<EpochReport>>,
        ledger: &mut Option<&mut Ledger>,
    ) -> u64 {
        let text = timed(
            ledger,
            |l| &mut l.render_ms,
            || check::fig3_text(&fig3::render(&fig3::rows_from(&self.base, table)).render()),
        );
        if text == self.fig3_golden {
            0
        } else {
            eprintln!("perfbench: Fig. 3 render differs from results/fig3_training_time.txt");
            table.len() as u64
        }
    }

    /// Renders the idle-time report from a traced sweep of its cells, in
    /// the golden's (GPU count, comm method) section order.
    fn idle_failures(&self, service: &GridService, ledger: &mut Option<&mut Ledger>) -> u64 {
        let spec = idle_spec();
        let out = timed(
            ledger,
            |l| &mut l.request_ms,
            || service.sweep_traced(&spec),
        );
        let text = timed(
            ledger,
            |l| &mut l.render_ms,
            || {
                let rows = idle::rows_from(out);
                let mut sections: Vec<(&Cell, &Vec<idle::IdleRow>)> = rows.iter().collect();
                sections.sort_by_key(|(c, _)| (c.gpus, c.comm == CommMethod::Nccl));
                sections
                    .into_iter()
                    .map(|(c, rows)| check::idle_section(c, &idle::render(rows).render()))
                    .collect::<String>()
            },
        );
        if text == self.idle_golden {
            0
        } else {
            eprintln!("perfbench: idle render differs from results/idle_time.txt");
            spec.len() as u64
        }
    }

    /// Replays the cells of `order` through the layers' public calls on
    /// the same executor, timing each layer; returns the mismatching
    /// cells among the probe's own reports.
    fn probe(&self, order: &[Cell], l: &mut Ledger) -> u64 {
        let mut harnesses: HashMap<(Platform, FaultScenario), Harness> = HashMap::new();
        for cell in order {
            harnesses
                .entry((cell.platform, cell.fault))
                .or_insert_with(|| {
                    let start = Instant::now();
                    let h = grid::harness_for(&self.base, cell.platform, cell.fault);
                    l.harness_ms += ms_since(start);
                    h
                });
        }
        let start = Instant::now();
        let probes = EXEC.run(order.len(), |i| {
            let cell = &order[i];
            probe_cell(
                &harnesses[&(cell.platform, cell.fault)],
                &self.defs[&cell.workload],
                cell,
            )
        });
        let wall_ms = ms_since(start);
        let mut busy_ms = 0.0;
        let mut failed = 0;
        for (cell, p) in order.iter().zip(probes) {
            l.lower_ms += p.lower_ms;
            l.harness_ms += p.surgery_ms;
            l.surgery_ms += p.surgery_ms;
            l.ring_build_ms += p.ring_build_ms;
            l.tuner_ms += p.tuner_ms;
            l.tuner_calls += p.tuner_calls;
            l.tuner_candidates += p.tuner_candidates;
            l.cell_ms += p.cell_ms;
            l.cell_ms_max = l.cell_ms_max.max(p.cell_ms);
            l.trace_events += p.report.iter_trace.len() as u64;
            l.critical_chain_len += p.report.critical_chain.len() as u64;
            busy_ms += p.total_ms;
            if !self
                .reference
                .matches(&check::cell_key(cell, self.tuning), &p.report, true)
            {
                failed += 1;
            }
        }
        l.imbalance_ms = wall_ms - busy_ms / WORKERS as f64;
        failed
    }

    /// Times `LazyTrace::decode` for every traced cell of `order`, read
    /// from the pass's snapshot; returns the blocks that fail to decode
    /// to the reference length.
    fn probe_decodes(&self, order: &[Cell], l: &mut Ledger) -> u64 {
        let fingerprint = persist::harness_fingerprint(&self.base);
        let Ok(entries) = persist::load_entries_lazy(&self.snapshot, fingerprint) else {
            return order.len() as u64;
        };
        let wanted: HashSet<&Cell> = order.iter().collect();
        let mut failed = order.len() as u64;
        for (cell, _, trace) in &entries {
            let (true, persist::EntryTrace::Lazy(trace)) = (wanted.contains(cell), trace) else {
                continue;
            };
            let start = Instant::now();
            let events = trace.decode();
            l.trace_decode_ms += ms_since(start);
            let want = self
                .reference
                .trace_events(&check::cell_key(cell, self.tuning));
            if events
                .ok()
                .map(|e| e.len())
                .is_some_and(|n| Some(n) == want)
            {
                failed -= 1;
            }
        }
        failed
    }
}

/// The cells a warm pass asks for with traces: every 8-GPU Fig. 3 cell
/// plus the idle-time cells, once each, in enumeration order.
fn warm_traced_cells() -> Vec<Cell> {
    let mut cells: Vec<Cell> = fig3_spec()
        .cells()
        .into_iter()
        .filter(|c| c.gpus == 8)
        .collect();
    for cell in idle_spec().cells() {
        if !cells.contains(&cell) {
            cells.push(cell);
        }
    }
    cells
}

/// Host time and counts of one probed cell.
struct CellProbe {
    lower_ms: f64,
    surgery_ms: f64,
    ring_build_ms: f64,
    tuner_ms: f64,
    tuner_calls: u64,
    tuner_candidates: u64,
    cell_ms: f64,
    total_ms: f64,
    report: EpochReport,
}

/// Calls each layer `grid::cell_report` runs through for `cell`, then
/// `cell_report` itself: the lowering, the topology surgery of a
/// mid-epoch fault, a ring per simulated system, and the tuner per
/// distinct gradient-bucket size (what the epoch memoises per cell).
fn probe_cell(h: &Harness, def: &Definition, cell: &Cell) -> CellProbe {
    let start = Instant::now();
    let lowered = def
        .lowered(cell.batch)
        .unwrap_or_else(|e| panic!("grid workload failed to lower: {e}"));
    let lower_ms = ms_since(start);

    // A mid-epoch fault simulates the healthy system, its degraded
    // twin, and the healthy system again with the fault's events.
    let surgery = Instant::now();
    let degraded = cell
        .fault
        .mid_epoch_fraction()
        .map(|_| h.sys.with_faults(&cell.fault.spec()));
    let surgery_ms = if degraded.is_some() {
        ms_since(surgery)
    } else {
        0.0
    };
    let systems: Vec<&SystemModel> = match &degraded {
        Some(d) => vec![&h.sys, d, &h.sys],
        None => vec![&h.sys],
    };

    let sizes: BTreeSet<u64> = lowered
        .buckets
        .iter()
        .map(|b| b.bytes)
        .filter(|&b| b > 0)
        .collect();
    let (mut ring_build_ms, mut tuner_ms, mut tuner_calls, mut tuner_candidates) = (0.0, 0.0, 0, 0);
    for sys in systems {
        let t = Instant::now();
        let ring = Ring::build(&sys.topo, cell.gpus);
        ring_build_ms += ms_since(t);
        if cell.comm != CommMethod::Nccl {
            continue;
        }
        let t = Instant::now();
        for &bytes in &sizes {
            let choice = tuner::choose_all_reduce(&sys.topo, &ring, bytes, &sys.nccl)
                .and_then(|ar| {
                    Ok((
                        ar,
                        tuner::choose_broadcast(&sys.topo, &ring, bytes, &sys.nccl)?,
                    ))
                })
                .unwrap_or_else(|e| panic!("tuner failed: {e}"));
            std::hint::black_box(choice);
        }
        tuner_ms += ms_since(t);
        tuner_calls += 2 * sizes.len() as u64;
        tuner_candidates += sizes.len() as u64 * simulated_candidates(&sys.nccl.tuning);
    }

    let t = Instant::now();
    let report = grid::cell_report(h, def, cell);
    let cell_ms = ms_since(t);
    CellProbe {
        lower_ms,
        surgery_ms,
        ring_build_ms,
        tuner_ms,
        tuner_calls,
        tuner_candidates,
        cell_ms,
        total_ms: ms_since(start),
        report,
    }
}

/// Candidates the tuner simulates for one AllReduce plus one Broadcast
/// choice in `space`; a space with one candidate short-circuits.
fn simulated_candidates(space: &TuningSpace) -> u64 {
    let all_reduce = space.candidates().count() as u64;
    let broadcast =
        (space.protocols.len() * space.channels.iter().filter(|&&c| c >= 1).count()) as u64;
    [all_reduce, broadcast].into_iter().filter(|&n| n > 1).sum()
}

/// Runs `f`; when tracing, adds its host time to the ledger slot
/// `slot` picks.
fn timed<T>(
    ledger: &mut Option<&mut Ledger>,
    slot: fn(&mut Ledger) -> &mut f64,
    f: impl FnOnce() -> T,
) -> T {
    let start = Instant::now();
    let value = f();
    if let Some(l) = ledger.as_deref_mut() {
        *slot(l) += ms_since(start);
    }
    value
}

/// Copies the service's hit rate and computed-cell count to the ledger.
fn record_service(ledger: &mut Option<&mut Ledger>, service: &GridService) {
    if let Some(l) = ledger.as_deref_mut() {
        let stats = service.stats();
        l.hit_rate = stats.hit_rate();
        l.computed = stats.computed;
    }
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_candidates_counts_both_collectives() {
        // Modern: 2 algorithms x 3 protocols x 3 channel counts for
        // AllReduce, 3 x 3 for the ring-only Broadcast.
        assert_eq!(simulated_candidates(&TuningSpace::modern()), 18 + 9);
        assert_eq!(simulated_candidates(&TuningSpace::paper()), 0);
    }
}
