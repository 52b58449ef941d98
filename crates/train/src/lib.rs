//! # voltascope-train — data-parallel DNN training on the simulated DGX-1
//!
//! The MXNet stand-in of the paper reproduction:
//!
//! * **Timing** — [`simulate_epoch_lowered`] runs one configuration
//!   (workload x batch x GPU count x
//!   [`CommMethod`](voltascope_comm::CommMethod)) on the discrete-event
//!   engine: API calls on host threads, kernels on compute streams,
//!   gradient buckets flowing over NVLink/PCIe as soon as backward
//!   produces them (MXNet's BP/WU overlap), with either the P2P
//!   parameter-server schedule or NCCL-style ring collectives. Its
//!   input is a [`LoweredWorkload`](voltascope_workload::LoweredWorkload),
//!   the kernel and bucket profile a `.workload` spec lowers to.
//! * **Memory** — [`MemoryModel`] reproduces the `nvidia-smi` readings
//!   of Table IV from the same spec, including GPU0's batch-independent
//!   parameter-server overhead.
//! * **Numerics** — [`DataParallel`] executes synchronous SGD (paper
//!   Fig. 1) with real tensors, and [`AsyncParameterServer`] the ASGD
//!   alternative of §II-B with measurable gradient staleness. They
//!   drive the `extension_async_sgd` experiment; the timing path never
//!   calls them.
//!
//! # Example
//!
//! ```
//! use voltascope_comm::CommMethod;
//! use voltascope_train::{simulate_epoch_lowered, SystemModel, TrainConfig};
//! use voltascope_workload::{lower, WorkloadSpec};
//!
//! let spec = WorkloadSpec::parse(
//!     "workload v1\nname Tiny\ninput 1 28 28\n\
//!      layer fc1 fc 0 1505280 3010560 3136 480 3011520 1\nend\n",
//! )
//! .unwrap();
//! let sys = SystemModel::dgx1();
//! let cfg = TrainConfig::strong(32, 4, CommMethod::Nccl);
//! let report = simulate_epoch_lowered(&sys, &lower(&spec, 32).unwrap(), &cfg);
//! assert_eq!(report.iter_time, report.fp_bp_iter + report.wu_iter);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod async_sgd;
mod dataset;
pub mod dynamic;
mod epoch;
mod memory;
mod optimizer;
mod parallel;
mod pipeline;

pub use async_sgd::AsyncParameterServer;
pub use dataset::{DatasetSpec, ScalingMode, SyntheticDataset};
pub use dynamic::{simulate_epoch_dynamic_lowered, DynamicEpochReport, MidEpochFault};
pub use epoch::{fuse_buckets, simulate_epoch_lowered, EpochReport, SystemModel, TrainConfig};
pub use memory::{GpuRole, MemoryModel, MemoryUsage};
pub use optimizer::{Sgd, SgdState};
pub use parallel::{flatten, unflatten, DataParallel};
pub use pipeline::{simulate_pipeline_epoch, PipelineConfig, PipelineError, PipelineReport};

// Compile-time guarantee for the parallel experiment grid: the platform
// model and epoch reports cross sweep worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SystemModel>();
    assert_send_sync::<EpochReport>();
    assert_send_sync::<MemoryModel>();
    assert_send_sync::<TrainConfig>();
};
