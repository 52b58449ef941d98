//! The per-layer host-time ledger of one traced pass. Every time is
//! taken by the benchmark around a public call into the layer; the
//! program itself is not instrumented.

/// Host milliseconds and counts attributed to each layer in one pass.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// `Definition::lowered`, summed over cells.
    pub lower_ms: f64,
    /// `grid::harness_for` per distinct (platform, fault) pair, plus the
    /// `SystemModel::with_faults` surgery of mid-epoch cells.
    pub harness_ms: f64,
    /// The part of `harness_ms` spent inside `cell_report` (mid-epoch
    /// cells rebuild the degraded topology themselves).
    pub surgery_ms: f64,
    /// `Ring::build` for every system a cell simulates.
    pub ring_build_ms: f64,
    /// `tuner::choose_all_reduce` + `choose_broadcast` per distinct
    /// bucket size of every NCCL cell.
    pub tuner_ms: f64,
    /// Tuner calls made.
    pub tuner_calls: u64,
    /// Candidates the tuner simulated (0 for a singleton space, which
    /// short-circuits).
    pub tuner_candidates: u64,
    /// `grid::cell_report`, summed over cells.
    pub cell_ms: f64,
    /// Slowest single `grid::cell_report`.
    pub cell_ms_max: f64,
    /// Wall time of the probe sweep minus summed cell time per worker.
    pub imbalance_ms: f64,
    /// Iteration-trace events of the computed reports.
    pub trace_events: u64,
    /// Critical-chain links of the computed reports.
    pub critical_chain_len: u64,
    /// `GridService` requests (sweeps and cell lists).
    pub request_ms: f64,
    /// `ServiceStats::hit_rate` after the pass's requests.
    pub hit_rate: f64,
    /// `ServiceStats::computed` after the pass's requests.
    pub computed: u64,
    /// `GridService::save_with`.
    pub encode_ms: f64,
    /// Size of the written snapshot.
    pub snapshot_bytes: u64,
    /// `GridService::with_snapshot`.
    pub load_ms: f64,
    /// `LazyTrace::decode` of every trace the pass needs.
    pub trace_decode_ms: f64,
    /// `GridService::trace_decodes` after the pass.
    pub trace_decodes: u64,
    /// Experiment `rows_from` + `render` calls.
    pub render_ms: f64,
}

impl Ledger {
    /// `(name, value, unit)` for every per-layer metric; the names are
    /// the `per_layer` entries of `BENCHMARK.json`. `train.epoch_ms` is
    /// the epoch's self time: `cell_report` minus the lowering, ring
    /// builds, tuner calls and topology surgery it performs inside.
    pub fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        let epoch_self =
            self.cell_ms - self.lower_ms - self.ring_build_ms - self.tuner_ms - self.surgery_ms;
        vec![
            ("workload.lower_ms", self.lower_ms, "ms"),
            ("topo.harness_ms", self.harness_ms, "ms"),
            ("topo.ring_build_ms", self.ring_build_ms, "ms"),
            ("comm.tuner_ms", self.tuner_ms, "ms"),
            ("comm.tuner_calls", self.tuner_calls as f64, "count"),
            (
                "comm.tuner_candidates",
                self.tuner_candidates as f64,
                "count",
            ),
            ("train.epoch_ms", epoch_self, "ms"),
            ("train.cell_ms_max", self.cell_ms_max, "ms"),
            ("train.trace_events", self.trace_events as f64, "count"),
            (
                "train.critical_chain_len",
                self.critical_chain_len as f64,
                "count",
            ),
            ("grid.imbalance_ms", self.imbalance_ms, "ms"),
            ("service.request_ms", self.request_ms, "ms"),
            ("service.hit_rate", self.hit_rate, "ratio"),
            ("service.computed", self.computed as f64, "count"),
            ("persist.encode_ms", self.encode_ms, "ms"),
            (
                "persist.snapshot_bytes",
                self.snapshot_bytes as f64,
                "bytes",
            ),
            ("persist.load_ms", self.load_ms, "ms"),
            ("persist.trace_decode_ms", self.trace_decode_ms, "ms"),
            ("persist.trace_decodes", self.trace_decodes as f64, "count"),
            ("profile.render_ms", self.render_ms, "ms"),
        ]
    }
}
