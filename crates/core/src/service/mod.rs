//! # Cached sweep service over the grid engine
//!
//! [`GridService`] is the request front end for the grid engine:
//! callers submit sweeps (a [`GridSpec`] or an explicit [`Cell`] list)
//! and the service answers every cell it has already computed from its
//! cache and schedules only the missing cells onto its [`Executor`]
//! worker pool.
//!
//! The cached value per cell is the [`EpochReport`] — the raw,
//! jitter-free simulation output every portable experiment derives its
//! rows from. Post-processing (the repetition protocol's jittered
//! [`crate::Measurement`], FP+BP/WU splits, sync shares, idle scans)
//! is cheap and deterministic, so experiment modules re-derive their
//! tables from cached reports. Every timing experiment issues its
//! sweep through this service; [`crate::grid::epoch_reports`] is the
//! uncached reference sweep its tests compare against. Both time each
//! cell through [`crate::grid::cell_report`].
//!
//! ## Cache keying
//!
//! The cache key is the full [`Cell`] — including the platform variant
//! and fault scenario — so a PCIe-only AlexNet epoch can never answer
//! a DGX-1 request for the same (workload, comm, batch, gpus, scaling)
//! point. Keys are never evicted: the whole paper grid is a few
//! thousand cells of a few-KB report each, far below any meaningful
//! memory bound, and eviction would reintroduce recomputation
//! nondeterminism for long request streams.
//!
//! ## One request at a time
//!
//! A request holds the state lock from start to finish: it classifies
//! its cells, computes the missing ones on the executor, publishes
//! their reports and assembles its answer under one lock. Parallelism
//! lives inside a request; a second requester waits and then finds
//! hits, so no cell is ever computed twice. A cell computation must
//! therefore never call back into its own service
//! ([`crate::grid::cell_report`] does not). The cache only ever holds
//! complete entries, so a request that panics (an invalid cell, such
//! as a GPU count beyond the topology) publishes none of its cells and
//! leaves the cache as it found it.
//!
//! ## Persistence
//!
//! The cache can be snapshotted to disk and reloaded across processes:
//! [`GridService::save`] writes every completed cell through the
//! versioned, fingerprinted format of [`persist`], and
//! [`GridService::with_snapshot`] warm-starts a service from such a
//! file (falling back to an empty cache when the file is missing,
//! stale, or corrupt). The regeneration binaries wire this to the
//! `VOLTASCOPE_CACHE` environment variable.
//!
//! ### Lazy trace decode
//!
//! Warm starts load snapshots through
//! [`persist::load_entries_lazy`]: cells and scalar fields are parsed
//! eagerly, but each entry's trace block stays *encoded* — a
//! [`persist::LazyTrace`] window into the snapshot image — until a
//! trace-consuming request actually touches that cell. Ordinary
//! (table-only) requests serve lazy entries as hits with empty traces
//! and never decode a single event; the first traced request decodes
//! the block under the state lock and upgrades the entry to a full
//! `Done` in place (counted by [`GridService::trace_decodes`]).
//! Re-saving an untouched lazy entry copies its encoded block
//! verbatim, so a warm load-then-save round-trip is byte-identical
//! without decoding anything.
//!
//! ### Slim snapshots
//!
//! [`GridService::save_with`] can omit the iteration traces (the bulk
//! of snapshot size) per the `VOLTASCOPE_CACHE_SLIM` opt-out. Entries
//! loaded from such a snapshot are held *slim-marked* in the cache:
//! ordinary requests serve them as hits (every scalar field
//! round-trips exactly), but trace-consuming requests issued through
//! [`GridService::sweep_traced`] / [`GridService::run_cells_traced`]
//! treat a slim entry as missing and recompute the cell, so an idle
//! scan can never silently render from an empty trace. Recomputation
//! publishes the full report, upgrading the entry in place.
//!
//! ## Claim order
//!
//! A request computes its missing cells longest-first, ranked by
//! the static `cost_rank` of each cell (workload weight × batch ×
//! GPUs). Fig. 3's heaviest cell (Inception-v3, batch 64, 8 GPUs) is
//! the sweep's makespan floor: started first, it runs while the cheap
//! cells fill the other workers, instead of starting last and leaving
//! one worker alone on the tail. Reports are still returned in input
//! order and a completed request's counters do not depend on the
//! order, so only the schedule moves, never an output.
//!
//! ## Example
//!
//! ```
//! use voltascope::grid::{Executor, GridSpec};
//! use voltascope::service::GridService;
//! use voltascope::Harness;
//! use voltascope_dnn::zoo::Workload;
//!
//! let service = GridService::with_executor(Harness::paper(), Executor::Serial);
//! let spec = GridSpec::paper().workloads([Workload::LeNet]).batches([16]);
//! let first = service.sweep(&spec);
//! let again = service.sweep(&spec);
//! assert_eq!(first.len(), again.len());
//! // The second sweep was answered entirely from cache.
//! assert_eq!(service.stats().computed, first.len() as u64);
//! ```

pub mod persist;

use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use voltascope_comm::tuner::{TunerMemo, TunerStats};
use voltascope_train::EpochReport;

use crate::grid::{
    self, cost_rank, harness_for, Cell, Executor, FaultScenario, GridOut, GridSpec, Platform,
};
use crate::Harness;

use persist::PersistError;

/// One complete cache entry. `Done` holds a full report. `DoneSlim`
/// entries were loaded from a slim snapshot: their scalar fields are
/// exact but the iteration trace is empty, so trace-consuming requests
/// treat them as missing and recompute (see the module docs).
/// `DoneLazy` entries were loaded from a full snapshot but their trace
/// block is still encoded: scalar requests serve them as-is, and the
/// first traced request decodes the block and upgrades the slot to
/// `Done` in place.
#[derive(Debug)]
enum Slot {
    Done(Arc<EpochReport>),
    DoneSlim(Arc<EpochReport>),
    DoneLazy {
        report: Arc<EpochReport>,
        trace: persist::LazyTrace,
    },
}

/// Lock-guarded service state: the report cache plus the lazily grown
/// pool of per-(platform, fault) harnesses, shared across the
/// service's whole lifetime.
#[derive(Debug, Default)]
struct State {
    cache: HashMap<Cell, Slot>,
    harnesses: HashMap<(Platform, FaultScenario), Arc<Harness>>,
}

/// Counters describing how a [`GridService`] answered its requests so
/// far. Monotone; snapshot via [`GridService::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Requests served ([`GridService::run_cells`] / [`GridService::sweep`] calls).
    pub requests: u64,
    /// Total cells across all requests (duplicates counted).
    pub cells: u64,
    /// Cells answered from a completed cache entry (including entries
    /// preloaded from a snapshot).
    pub hits: u64,
    /// Intra-request duplicates of a cell the *same* request claimed
    /// moments earlier. These enjoy no cache benefit — the request
    /// pays for the computation itself — so they are tracked apart
    /// from hits and excluded from [`ServiceStats::hit_rate`].
    pub repeats: u64,
    /// Cells actually computed (each unique cell at most once, unless
    /// its request panicked and a later request computed it again).
    pub computed: u64,
}

impl ServiceStats {
    /// Fraction of requested cells answered from the cache, in
    /// `[0, 1]`; zero for no traffic. Intra-request repeats of a
    /// freshly claimed cell do not count — a cold request `[c, c]`
    /// reports a 0% hit rate.
    pub fn hit_rate(&self) -> f64 {
        if self.cells == 0 {
            0.0
        } else {
            self.hits as f64 / self.cells as f64
        }
    }
}

/// How [`GridService::with_snapshot`] started: warm from a loaded
/// snapshot, cold because none existed, or cold because the file was
/// rejected (stale or damaged).
#[derive(Debug)]
pub enum SnapshotStatus {
    /// The snapshot was valid; this many cells were preloaded.
    Loaded {
        /// Number of cache entries loaded from the file.
        cells: usize,
    },
    /// No snapshot file existed at the path.
    Cold,
    /// A file existed but was rejected; the service starts empty and
    /// recomputes (a later [`GridService::save`] repairs the file).
    Rejected(PersistError),
}

impl fmt::Display for SnapshotStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotStatus::Loaded { cells } => write!(f, "warm start: loaded {cells} cells"),
            SnapshotStatus::Cold => write!(f, "cold start: no snapshot"),
            SnapshotStatus::Rejected(e) => write!(f, "cold start: snapshot rejected ({e})"),
        }
    }
}

/// A caching sweep front end that serves one request at a time and
/// computes each cell at most once. See the [module docs](self) for
/// semantics.
#[derive(Debug)]
pub struct GridService {
    base: Harness,
    exec: Executor,
    state: Mutex<State>,
    requests: AtomicU64,
    cells: AtomicU64,
    hits: AtomicU64,
    repeats: AtomicU64,
    computed: AtomicU64,
    trace_decodes: AtomicU64,
}

impl GridService {
    /// A service over `base`, executing missing cells under the
    /// environment-selected executor ([`Executor::from_env`], honouring
    /// `VOLTASCOPE_THREADS`).
    pub fn new(base: Harness) -> Self {
        Self::with_executor(base, Executor::from_env())
    }

    /// A service with an explicit executor for missing cells. The
    /// service installs a fresh [`TunerMemo`] in `base`, so every cell
    /// it computes shares one memo that no other service shares.
    pub fn with_executor(mut base: Harness, exec: Executor) -> Self {
        base.sys.tuner = TunerMemo::default();
        GridService {
            base,
            exec,
            state: Mutex::new(State::default()),
            requests: AtomicU64::new(0),
            cells: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            repeats: AtomicU64::new(0),
            computed: AtomicU64::new(0),
            trace_decodes: AtomicU64::new(0),
        }
    }

    /// A service warm-started from the snapshot file at `path`
    /// (load-or-empty): a valid snapshot written under the same
    /// harness calibration preloads the cache; a missing, stale, or
    /// corrupt file yields an empty cache with the reason in the
    /// returned [`SnapshotStatus`]. Preloaded cells are served as
    /// ordinary cache hits.
    pub fn with_snapshot(
        base: Harness,
        exec: Executor,
        path: impl AsRef<Path>,
    ) -> (Self, SnapshotStatus) {
        let fingerprint = persist::harness_fingerprint(&base);
        let service = Self::with_executor(base, exec);
        let status = match persist::load_entries_lazy(path.as_ref(), fingerprint) {
            Ok(entries) => {
                let cells = entries.len();
                let mut state = service.lock_state();
                for (cell, report, trace) in entries {
                    let slot = match trace {
                        persist::EntryTrace::Slim => Slot::DoneSlim(report),
                        persist::EntryTrace::Lazy(trace) => Slot::DoneLazy { report, trace },
                    };
                    state.cache.insert(cell, slot);
                }
                drop(state);
                SnapshotStatus::Loaded { cells }
            }
            Err(e) if e.is_missing_file() => SnapshotStatus::Cold,
            Err(e) => SnapshotStatus::Rejected(e),
        };
        (service, status)
    }

    /// Snapshots every completed cache entry to `path` (atomically:
    /// temp sibling + rename), keyed by this service's harness
    /// fingerprint, with full iteration traces. Returns the number of
    /// cells written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<usize, PersistError> {
        self.save_with(path, false)
    }

    /// Snapshots the cache, optionally slim: when `slim` is true the
    /// iteration traces are omitted from every written entry (the
    /// `VOLTASCOPE_CACHE_SLIM` mode — see the module docs). Entries
    /// that were themselves loaded from a slim snapshot are always
    /// written slim, whatever `slim` says: their traces are empty
    /// placeholders, and persisting them as full entries would launder
    /// a slim entry into one that trace consumers trust.
    pub fn save_with(&self, path: impl AsRef<Path>, slim: bool) -> Result<usize, PersistError> {
        use persist::TraceOut;
        let entries: Vec<(Cell, Arc<EpochReport>, TraceOut)> = {
            let state = self.lock_state();
            state
                .cache
                .iter()
                .map(|(cell, slot)| match slot {
                    Slot::Done(report) => {
                        let out = if slim {
                            TraceOut::Slim
                        } else {
                            TraceOut::Events
                        };
                        (*cell, report.clone(), out)
                    }
                    Slot::DoneSlim(report) => (*cell, report.clone(), TraceOut::Slim),
                    // An undecoded lazy entry re-saves its encoded
                    // block verbatim: byte-identical to a fresh encode
                    // (the decoder only accepts canonical blocks) and
                    // free of any decode cost.
                    Slot::DoneLazy { report, trace } => {
                        let out = if slim {
                            TraceOut::Slim
                        } else {
                            TraceOut::Raw(trace.clone())
                        };
                        (*cell, report.clone(), out)
                    }
                })
                .collect()
        };
        persist::save_with_traces(
            path.as_ref(),
            persist::harness_fingerprint(&self.base),
            &entries,
        )?;
        Ok(entries.len())
    }

    /// The base harness requests are simulated against. Its
    /// measurement-protocol fields apply to every platform/fault
    /// variant (see [`harness_for`]), so renderers post-process cached
    /// reports with this harness.
    pub fn base(&self) -> &Harness {
        &self.base
    }

    /// The executor missing cells are scheduled onto.
    pub fn executor(&self) -> Executor {
        self.exec
    }

    /// Runs a full declarative sweep through the cache, returning an
    /// indexed [`GridOut`] in the spec's canonical enumeration order —
    /// the same shape [`crate::grid::epoch_reports`] produces.
    pub fn sweep(&self, spec: &GridSpec) -> GridOut<Arc<EpochReport>> {
        let cells = spec.cells();
        let reports = self.run_cells(&cells);
        GridOut::from_parts(cells, reports)
    }

    /// Like [`GridService::sweep`], for consumers that walk the
    /// iteration traces (idle scans, timeline renders): slim-marked
    /// cache entries are recomputed instead of served, so every
    /// returned report carries its full trace. On a service that never
    /// loaded a slim snapshot this is identical to `sweep`.
    pub fn sweep_traced(&self, spec: &GridSpec) -> GridOut<Arc<EpochReport>> {
        let cells = spec.cells();
        let reports = self.run_cells_traced(&cells, true);
        GridOut::from_parts(cells, reports)
    }

    /// Answers one request for an explicit cell list: cache hits are
    /// returned as-is and missing cells are computed on this service's
    /// executor. Returns one report per input cell, in input order
    /// (duplicates allowed). A concurrent request waits until this one
    /// has finished.
    ///
    /// Slim-marked entries (loaded from a slim snapshot) are served as
    /// ordinary hits — their scalar fields are exact, only the
    /// iteration trace is empty. Trace consumers must use
    /// [`GridService::run_cells_traced`] instead.
    ///
    /// # Panics
    ///
    /// Panics if a missing cell's simulation panics (e.g. an invalid
    /// GPU count). The request then caches none of its cells, and later
    /// requests are unaffected.
    pub fn run_cells(&self, cells: &[Cell]) -> Vec<Arc<EpochReport>> {
        self.run_cells_traced(cells, false)
    }

    /// [`GridService::run_cells`] with an explicit trace requirement:
    /// when `traced` is true, slim-marked entries count as missing and
    /// are recomputed (publishing the full report, which upgrades the
    /// cache entry in place).
    pub fn run_cells_traced(&self, cells: &[Cell], traced: bool) -> Vec<Arc<EpochReport>> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.cells.fetch_add(cells.len() as u64, Ordering::Relaxed);
        let mut state = self.lock_state();

        // Classify every cell. Duplicates of a cell claimed earlier in
        // this same request are not hits — the request pays for the
        // computation — so they are tracked as `repeats`.
        let mut mine: Vec<(Cell, Arc<Harness>)> = Vec::new();
        let mut claimed_here: HashSet<Cell> = HashSet::new();
        for &cell in cells {
            if claimed_here.contains(&cell) {
                self.repeats.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            // A traced request touching a lazy entry decodes its block,
            // upgrading the slot to `Done`; a block that fails to decode
            // falls through and is recomputed like a missing cell.
            if traced
                && matches!(state.cache.get(&cell), Some(Slot::DoneLazy { .. }))
                && self.upgrade_lazy(&mut state, cell).is_some()
            {
                self.hits.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            match state.cache.get(&cell) {
                Some(Slot::Done(_)) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                }
                Some(Slot::DoneSlim(_) | Slot::DoneLazy { .. }) if !traced => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                }
                // A slim (or undecodable lazy) entry cannot serve a
                // traced request: recompute the full report.
                Some(Slot::DoneSlim(_) | Slot::DoneLazy { .. }) | None => {
                    claimed_here.insert(cell);
                    let harness = Self::harness(&mut state, &self.base, cell);
                    mine.push((cell, harness));
                }
            }
        }

        // Longest first (see the module docs' claim-order section); the
        // sort is stable, so equal ranks keep their claim order.
        mine.sort_by_key(|(cell, _)| Reverse(cost_rank(cell)));
        let computed = self.exec.run(mine.len(), |i| {
            let (cell, harness) = &mine[i];
            let report = grid::cell_report(harness, cell.workload.resolve(), cell);
            self.computed.fetch_add(1, Ordering::Relaxed);
            Arc::new(report)
        });
        for ((cell, _), report) in mine.iter().zip(computed) {
            state.cache.insert(*cell, Slot::Done(report));
        }

        // Every requested cell is cached by now. Slim and lazy slots
        // are only left for a request that is not `traced`.
        cells
            .iter()
            .map(|cell| match state.cache.get(cell) {
                Some(
                    Slot::Done(report) | Slot::DoneSlim(report) | Slot::DoneLazy { report, .. },
                ) => report.clone(),
                None => unreachable!("request cell {cell:?} was computed above"),
            })
            .collect()
    }

    /// Decodes a lazy entry's trace block and upgrades its slot to a
    /// full `Done` in place, returning the complete report. `None` if
    /// the slot is not lazy or the block fails to decode (the caller
    /// recomputes the cell — unreachable for snapshots this code
    /// wrote, since the load already checksummed the image, but cheap
    /// to stay defensive about).
    fn upgrade_lazy(&self, state: &mut State, cell: Cell) -> Option<Arc<EpochReport>> {
        let (report, trace) = match state.cache.get(&cell) {
            Some(Slot::DoneLazy { report, trace }) => (report.clone(), trace.clone()),
            _ => return None,
        };
        let events = trace.decode().ok()?;
        let mut full = (*report).clone();
        full.iter_trace = voltascope_sim::Trace::new(events);
        let full = Arc::new(full);
        state.cache.insert(cell, Slot::Done(full.clone()));
        self.trace_decodes.fetch_add(1, Ordering::Relaxed);
        Some(full)
    }

    /// Fetches (building on first use) the shared harness for `cell`
    /// from the state pool.
    fn harness(state: &mut State, base: &Harness, cell: Cell) -> Arc<Harness> {
        state
            .harnesses
            .entry((cell.platform, cell.fault))
            .or_insert_with(|| Arc::new(harness_for(base, cell.platform, cell.fault)))
            .clone()
    }

    /// Acquires the state lock, recovering from poisoning: the cache
    /// only ever holds complete entries, so a poisoned mutex only means
    /// "an earlier request panicked", not "the state is inconsistent".
    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of the request counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            requests: self.requests.load(Ordering::Relaxed),
            cells: self.cells.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            repeats: self.repeats.load(Ordering::Relaxed),
            computed: self.computed.load(Ordering::Relaxed),
        }
    }

    /// Number of lazy-loaded trace blocks decoded so far — the cost a
    /// warm service has actually paid for traces. A warm service
    /// answering only table-level sweeps leaves this at zero.
    /// Deliberately *not* part of [`ServiceStats`]: those counters say
    /// how requests were answered, not which snapshot machinery
    /// served them.
    pub fn trace_decodes(&self) -> u64 {
        self.trace_decodes.load(Ordering::Relaxed)
    }

    /// Lookups and solves of this service's NCCL tuner memo so far.
    /// Like [`GridService::trace_decodes`], this says what the service
    /// computed, not how requests were answered, so it is not part of
    /// [`ServiceStats`].
    pub fn tuner_stats(&self) -> TunerStats {
        self.base.sys.tuner.stats()
    }

    /// Number of distinct cells resident in the cache.
    pub fn cached_cells(&self) -> usize {
        self.lock_state().cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use voltascope_comm::CommMethod;
    use voltascope_dnn::zoo::Workload;
    use voltascope_train::ScalingMode;

    fn lenet_cell(batch: usize, gpus: usize) -> Cell {
        Cell {
            workload: voltascope_dnn::zoo::Workload::LeNet.into(),
            comm: CommMethod::P2p,
            batch,
            gpus,
            scaling: ScalingMode::Strong,
            platform: Platform::Dgx1,
            fault: FaultScenario::Healthy,
        }
    }

    /// A cell whose simulation panics: 9 GPUs on an 8-GPU topology.
    fn poisonous_cell() -> Cell {
        lenet_cell(16, 9)
    }

    #[test]
    fn repeat_requests_hit_the_cache() {
        let service = GridService::with_executor(Harness::paper(), Executor::Serial);
        let cells = [lenet_cell(16, 1), lenet_cell(16, 2)];
        let first = service.run_cells(&cells);
        let second = service.run_cells(&cells);
        assert_eq!(first.len(), 2);
        for (a, b) in first.iter().zip(second.iter()) {
            // Same Arc, not merely equal values.
            assert!(Arc::ptr_eq(a, b));
        }
        let stats = service.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.cells, 4);
        assert_eq!(stats.computed, 2);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.repeats, 0);
        assert_eq!(stats.hit_rate(), 0.5);
        assert_eq!(service.cached_cells(), 2);
    }

    #[test]
    fn duplicate_cells_within_a_request_compute_once() {
        let service = GridService::with_executor(Harness::paper(), Executor::Serial);
        let cell = lenet_cell(16, 1);
        let reports = service.run_cells(&[cell, cell, cell]);
        assert_eq!(reports.len(), 3);
        assert!(Arc::ptr_eq(&reports[0], &reports[1]));
        assert!(Arc::ptr_eq(&reports[1], &reports[2]));
        let stats = service.stats();
        assert_eq!(stats.computed, 1);
        // Intra-request duplicates of a freshly claimed cell are
        // repeats, not hits: the request gained nothing from the
        // cache, so the hit rate must stay zero.
        assert_eq!(stats.repeats, 2);
        assert_eq!(stats.hit_rate(), 0.0);
    }

    #[test]
    fn warm_duplicates_count_as_hits() {
        let service = GridService::with_executor(Harness::paper(), Executor::Serial);
        let cell = lenet_cell(16, 1);
        service.run_cells(&[cell]);
        service.run_cells(&[cell, cell]);
        let stats = service.stats();
        assert_eq!(stats.computed, 1);
        assert_eq!(stats.hits, 2, "both warm duplicates are genuine hits");
        assert_eq!(stats.repeats, 0);
    }

    #[test]
    fn overlapping_sweeps_only_compute_the_missing_cells() {
        let service = GridService::with_executor(Harness::paper(), Executor::Serial);
        let small = GridSpec::paper()
            .workloads([Workload::LeNet])
            .comms([CommMethod::P2p])
            .batches([16])
            .gpu_counts([1, 2]);
        let bigger = small.clone().gpu_counts([1, 2, 4]);
        service.sweep(&small);
        let out = service.sweep(&bigger);
        assert_eq!(out.len(), 3);
        let stats = service.stats();
        assert_eq!(stats.computed, 3, "only the 4-GPU cell was new");
        assert_eq!(stats.hits, 2);
    }

    #[test]
    fn empty_requests_are_answered_without_computation() {
        let service = GridService::with_executor(Harness::paper(), Executor::Serial);
        assert!(service.run_cells(&[]).is_empty());
        let stats = service.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.cells, 0);
        assert_eq!(stats.hit_rate(), 0.0);
    }

    #[test]
    fn sweep_preserves_canonical_enumeration_order() {
        let service = GridService::with_executor(Harness::paper(), Executor::Serial);
        let spec = GridSpec::paper()
            .workloads([Workload::LeNet])
            .comms([CommMethod::P2p, CommMethod::Nccl])
            .batches([16])
            .gpu_counts([2]);
        let out = service.sweep(&spec);
        assert_eq!(out.cells(), spec.cells().as_slice());
    }

    #[test]
    fn panicking_compute_reverts_its_claim() {
        let service = GridService::with_executor(Harness::paper(), Executor::Serial);
        let result = catch_unwind(AssertUnwindSafe(|| {
            service.run_cells(&[poisonous_cell()]);
        }));
        assert!(result.is_err(), "9-GPU cell must panic");
        // Nothing was cached for the failed cell.
        assert_eq!(service.cached_cells(), 0);

        // A retry panics again (no deadlock on a stale claim)...
        let retry = catch_unwind(AssertUnwindSafe(|| {
            service.run_cells(&[poisonous_cell()]);
        }));
        assert!(retry.is_err());
        assert_eq!(service.cached_cells(), 0);

        // ...and an unrelated healthy request completes normally: the
        // mutex was not poisoned into an `expect` cascade.
        let reports = service.run_cells(&[lenet_cell(16, 1)]);
        assert_eq!(reports.len(), 1);
        let stats = service.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.computed, 1, "only the healthy cell completed");
    }

    #[test]
    fn a_panicking_request_caches_nothing_and_keeps_earlier_cells() {
        // The serial executor computes longest-first: the healthy cell
        // outranks the poisonous one (LeNet b64 on 4 GPUs vs b16 on 9),
        // so it finishes before the poisonous one panics. The request
        // still publishes none of its cells, while a cell an earlier
        // request cached stays a hit.
        let service = GridService::with_executor(Harness::paper(), Executor::Serial);
        let earlier = lenet_cell(16, 2);
        let first = service.run_cells(&[earlier]);
        let good = lenet_cell(64, 4);
        assert!(cost_rank(&good) > cost_rank(&poisonous_cell()));
        let result = catch_unwind(AssertUnwindSafe(|| {
            service.run_cells(&[earlier, poisonous_cell(), good]);
        }));
        assert!(result.is_err());
        assert_eq!(
            service.cached_cells(),
            1,
            "the panicking request cached nothing"
        );
        let again = service.run_cells(&[earlier]);
        assert!(Arc::ptr_eq(&first[0], &again[0]));
        let stats = service.stats();
        assert_eq!(
            stats.hits, 2,
            "served from cache before and after the panic"
        );
        assert_eq!(
            stats.computed, 2,
            "the earlier cell and the finished good cell"
        );
    }

    #[test]
    fn claimed_cells_are_computed_longest_first() {
        // The poisonous 9-GPU cell outranks the cheap 1-GPU cell, so
        // it runs first and panics before the cheap cell is computed,
        // even though the cheap cell comes first in the request.
        let service = GridService::with_executor(Harness::paper(), Executor::Serial);
        let result = catch_unwind(AssertUnwindSafe(|| {
            service.run_cells(&[lenet_cell(16, 1), poisonous_cell()]);
        }));
        assert!(result.is_err());
        assert_eq!(service.stats().computed, 0, "heaviest claim runs first");
        assert_eq!(service.cached_cells(), 0);
    }

    #[test]
    fn concurrent_requests_for_a_panicking_cell_never_deadlock() {
        // Requests are serialised: whichever request runs second finds
        // the cell still missing after the first one panicked, so both
        // observe the panic and nothing is cached.
        let service = Arc::new(GridService::with_executor(
            Harness::paper(),
            Executor::Serial,
        ));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let service = Arc::clone(&service);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    service.run_cells(&[poisonous_cell()])
                })
            })
            .collect();
        for handle in handles {
            assert!(handle.join().is_err(), "both requests must panic");
        }
        assert_eq!(service.cached_cells(), 0);
        // The service remains fully usable afterwards.
        let reports = service.run_cells(&[lenet_cell(16, 2)]);
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn snapshot_roundtrip_preserves_reports_and_serves_hits() {
        let path = std::env::temp_dir().join(format!(
            "voltascope-service-unit-{}.snap",
            std::process::id()
        ));
        let cells = [lenet_cell(16, 1), lenet_cell(16, 2), lenet_cell(32, 4)];

        let cold = GridService::with_executor(Harness::paper(), Executor::Serial);
        let cold_reports = cold.run_cells(&cells);
        assert_eq!(cold.save(&path).unwrap(), cells.len());

        let (warm, status) = GridService::with_snapshot(Harness::paper(), Executor::Serial, &path);
        assert!(matches!(status, SnapshotStatus::Loaded { cells: 3 }));
        let warm_reports = warm.run_cells(&cells);
        for (c, w) in cold_reports.iter().zip(warm_reports.iter()) {
            assert_eq!(c.iterations, w.iterations);
            assert_eq!(c.epoch_time, w.epoch_time);
            assert_eq!(c.iter_time, w.iter_time);
            assert_eq!(c.api_iter, w.api_iter);
            // Table-only requests serve lazy entries without decoding:
            // the returned reports carry empty traces.
            assert!(w.iter_trace.events().is_empty());
        }
        let stats = warm.stats();
        assert_eq!(stats.computed, 0, "warm run must be pure hits");
        assert_eq!(stats.hits, cells.len() as u64);
        assert_eq!(stats.hit_rate(), 1.0);
        assert_eq!(warm.trace_decodes(), 0, "no trace consumer ran");

        // A traced request decodes the lazy blocks — no recompute —
        // and the decoded traces match the cold originals exactly.
        let traced_reports = warm.run_cells_traced(&cells, true);
        for (c, t) in cold_reports.iter().zip(traced_reports.iter()) {
            assert_eq!(c.iter_trace.events(), t.iter_trace.events());
        }
        assert_eq!(warm.stats().computed, 0, "lazy decode, not recompute");
        assert_eq!(warm.trace_decodes(), cells.len() as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn lazy_entries_upgrade_once_and_resave_without_decoding() {
        let path = std::env::temp_dir().join(format!(
            "voltascope-service-lazy-{}.snap",
            std::process::id()
        ));
        let cells = [lenet_cell(16, 1), lenet_cell(16, 2)];
        let cold = GridService::with_executor(Harness::paper(), Executor::Serial);
        cold.run_cells(&cells);
        cold.save(&path).unwrap();
        let cold_bytes = std::fs::read(&path).unwrap();

        // Warm load + table-only traffic + re-save: byte-identical to
        // the cold snapshot with zero trace decodes (the encoded
        // blocks are copied verbatim).
        let resaved = std::env::temp_dir().join(format!(
            "voltascope-service-lazy-resave-{}.snap",
            std::process::id()
        ));
        let (warm, _) = GridService::with_snapshot(Harness::paper(), Executor::Serial, &path);
        warm.run_cells(&cells);
        warm.save(&resaved).unwrap();
        assert_eq!(std::fs::read(&resaved).unwrap(), cold_bytes);
        assert_eq!(warm.trace_decodes(), 0);

        // Traced traffic upgrades each entry exactly once; the
        // re-save after decoding still reproduces the cold bytes
        // (fresh encode of the decoded events).
        let first = warm.run_cells_traced(&cells, true);
        let again = warm.run_cells_traced(&cells, true);
        assert_eq!(warm.trace_decodes(), cells.len() as u64, "decoded once");
        assert!(Arc::ptr_eq(&first[0], &again[0]), "upgrade persisted");
        warm.save(&resaved).unwrap();
        assert_eq!(std::fs::read(&resaved).unwrap(), cold_bytes);

        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&resaved).unwrap();
    }

    #[test]
    fn missing_and_stale_snapshots_start_cold() {
        let path = std::env::temp_dir().join(format!(
            "voltascope-service-stale-{}.snap",
            std::process::id()
        ));
        let (_, status) = GridService::with_snapshot(Harness::paper(), Executor::Serial, &path);
        assert!(matches!(status, SnapshotStatus::Cold));

        // A snapshot written under a different calibration is rejected.
        let mut tweaked = Harness::paper();
        tweaked.seed += 1;
        let other = GridService::with_executor(tweaked, Executor::Serial);
        other.run_cells(&[lenet_cell(16, 1)]);
        other.save(&path).unwrap();
        let (service, status) =
            GridService::with_snapshot(Harness::paper(), Executor::Serial, &path);
        assert!(matches!(
            status,
            SnapshotStatus::Rejected(PersistError::FingerprintMismatch { .. })
        ));
        assert_eq!(service.cached_cells(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn slim_snapshot_serves_scalars_but_recomputes_for_traces() {
        let path = std::env::temp_dir().join(format!(
            "voltascope-service-slim-{}.snap",
            std::process::id()
        ));
        let cells = [lenet_cell(16, 1), lenet_cell(16, 2)];

        let cold = GridService::with_executor(Harness::paper(), Executor::Serial);
        let cold_reports = cold.run_cells(&cells);
        assert!(cold_reports
            .iter()
            .all(|r| !r.iter_trace.events().is_empty()));
        cold.save_with(&path, true).unwrap();

        // Ordinary requests: pure hits, exact scalars, empty traces.
        let (warm, status) = GridService::with_snapshot(Harness::paper(), Executor::Serial, &path);
        assert!(matches!(status, SnapshotStatus::Loaded { cells: 2 }));
        let warm_reports = warm.run_cells(&cells);
        for (c, w) in cold_reports.iter().zip(warm_reports.iter()) {
            assert_eq!(c.iterations, w.iterations);
            assert_eq!(c.epoch_time, w.epoch_time);
            assert_eq!(c.iter_time, w.iter_time);
            assert_eq!(c.api_iter, w.api_iter);
            assert_eq!(
                c.compute_utilization.to_bits(),
                w.compute_utilization.to_bits()
            );
            assert!(w.iter_trace.events().is_empty());
        }
        assert_eq!(warm.stats().computed, 0);
        assert_eq!(warm.stats().hits, 2);

        // Traced requests: slim entries are recomputed, full traces
        // come back, and the cache entry is upgraded in place.
        let traced = warm.run_cells_traced(&cells, true);
        assert_eq!(warm.stats().computed, 2, "slim entries recomputed");
        for (c, t) in cold_reports.iter().zip(traced.iter()) {
            assert_eq!(c.iter_trace.events(), t.iter_trace.events());
        }
        let again = warm.run_cells_traced(&cells, true);
        assert_eq!(warm.stats().computed, 2, "upgrade persists: no recompute");
        assert!(Arc::ptr_eq(&traced[0], &again[0]));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resaving_a_slim_loaded_cache_stays_slim() {
        let path = std::env::temp_dir().join(format!(
            "voltascope-service-reslim-{}.snap",
            std::process::id()
        ));
        let cold = GridService::with_executor(Harness::paper(), Executor::Serial);
        cold.run_cells(&[lenet_cell(16, 1)]);
        cold.save_with(&path, true).unwrap();

        // A full (slim = false) re-save of slim-loaded entries must not
        // launder empty placeholder traces into trusted full entries.
        let (warm, _) = GridService::with_snapshot(Harness::paper(), Executor::Serial, &path);
        warm.save_with(&path, false).unwrap();
        let (again, status) = GridService::with_snapshot(Harness::paper(), Executor::Serial, &path);
        assert!(matches!(status, SnapshotStatus::Loaded { cells: 1 }));
        let traced = again.sweep_traced(
            &GridSpec::paper()
                .workloads([Workload::LeNet])
                .comms([CommMethod::P2p])
                .batches([16])
                .gpu_counts([1]),
        );
        assert_eq!(again.stats().computed, 1, "still treated as slim");
        let report = traced.get(&lenet_cell(16, 1)).unwrap();
        assert!(!report.iter_trace.events().is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
