//! # The declarative experiment grid engine
//!
//! Every result in the paper is a configuration grid — Fig. 3 alone is
//! 5 workloads × 2 communication methods × 3 batch sizes × 4 GPU
//! counts — and every cell of every grid is a pure function of its
//! configuration. This module replaces the hand-rolled nested sweep
//! loops the experiment modules used to carry with one engine:
//!
//! * [`GridSpec`] — the declarative description of a sweep: one value
//!   list per axis (workload, communication method, batch size, GPU
//!   count, scaling mode, platform variant), each defaulting to the
//!   paper's canonical choice so an experiment only names the axes it
//!   actually sweeps.
//! * [`Cell`] — one typed grid point. Cells are `Copy + Eq + Hash`, so
//!   renderers index results in O(1) instead of linearly scanning
//!   result vectors. Jitter salts are derived from the cell key alone
//!   ([`Cell::jitter_salt`]), never from execution order.
//! * [`Executor`] — pluggable execution strategy: [`Executor::Serial`]
//!   or [`Executor::Parallel`] (std `thread::scope` work-chunking over
//!   an atomic work index; the workspace deliberately has no rayon).
//!   [`Executor::from_env`] reads the `VOLTASCOPE_THREADS` override.
//! * [`cell_report`] — simulates one cell against the [`Harness`]
//!   variant [`harness_for`] builds for its (platform, fault) pair.
//!   Every sweep, cached or not, times its cells through it.
//!
//! Experiments issue their sweeps through
//! [`crate::service::GridService`], which caches reports and runs the
//! missing cells on an [`Executor`]. [`epoch_reports`] is the uncached
//! reference sweep the service tests compare it against.
//!
//! ## Determinism
//!
//! Cell enumeration order is fixed (workload → platform → comm → batch
//! → GPUs → scaling) and results are written into slots indexed by the
//! cell's enumeration position, so [`Executor::Serial`] and
//! [`Executor::Parallel`] produce **bit-identical** result vectors for
//! any thread count — verified by `tests/determinism.rs`.
//!
//! ## Example
//!
//! ```
//! use voltascope::grid::{epoch_reports, Executor, GridSpec};
//! use voltascope::Harness;
//! use voltascope_dnn::zoo::Workload;
//!
//! let spec = GridSpec::paper()
//!     .workloads([Workload::LeNet])
//!     .batches([16])
//!     .gpu_counts([1, 4]);
//! let out = epoch_reports(&Harness::paper(), &spec, Executor::Serial);
//! assert_eq!(out.len(), 2 * 2); // comm methods x GPU counts
//! ```

mod cell;
mod executor;
mod runner;
mod spec;

pub(crate) use cell::cost_rank;
pub use cell::{Cell, FaultScenario, Platform};
pub use executor::Executor;
pub use runner::{cell_report, epoch_reports, harness_for, GridOut};
pub use spec::{GridSpec, PAPER_BATCHES, PAPER_GPU_COUNTS};

#[allow(unused_imports)] // rustdoc links
use crate::Harness;
