//! # voltascope-dnn — a miniature DNN framework with real numerics
//!
//! The substrate standing in for MXNet + cuDNN in the paper
//! reproduction: dense `f32` tensors, differentiable layers with
//! hand-written forward/backward passes, a DAG [`Model`] with eager
//! shape inference, and the five-network zoo the paper trains
//! ([`zoo::lenet`], [`zoo::alexnet`], [`zoo::googlenet`],
//! [`zoo::inception_v3`], [`zoo::resnet50`]).
//!
//! The simulator does not read this crate at run time: every grid
//! cell times from, and the memory model sizes, the checked-in
//! `.workload` file that `export_workloads` generates from a builder
//! here (via the *accounting* API — [`Model::layer_info`], parameter
//! counts, activation footprints, gradient buckets). What still reads
//! a built [`Model`]:
//!
//! * `export_workloads`, which writes and checks those files;
//! * the Table I census ([`NetworkStats`]), which counts layer kinds
//!   and modules the files do not record;
//! * the *execution* API — [`Model::forward`], [`Model::backward`],
//!   [`softmax_cross_entropy`] — behind the real-numerics data-parallel
//!   and asynchronous SGD of `voltascope-train`;
//! * reference tests pinning the files to the builders.
//!
//! # Example
//!
//! ```
//! use voltascope_dnn::{zoo, NetworkStats};
//!
//! let lenet = zoo::lenet();
//! let stats = NetworkStats::of(&lenet);
//! assert_eq!(stats.conv_layers, 2);
//! // Classic LeNet-5 has ~61.7K parameters (paper Table I: "K" scale).
//! assert!((60_000..64_000).contains(&stats.weights));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
mod layer;
mod loss;
mod stats;
mod tensor;
pub mod zoo;

pub use graph::{
    Activations, GradientBucket, Gradients, KernelDesc, LayerInfo, Model, ModelBuilder, NodeId,
    Params, Source, Stage,
};
pub use layer::{
    Add, AvgPool2d, Backward, BatchNorm2d, Concat, Conv2d, Dense, Layer, MaxPool2d, Relu,
};
pub use loss::{accuracy, softmax_cross_entropy};
pub use stats::NetworkStats;
pub use tensor::{Shape, Tensor};

// Compile-time guarantee for the parallel experiment grid: models (and
// the tensors inside them) are shareable across sweep worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Model>();
    assert_send_sync::<Tensor>();
    assert_send_sync::<NetworkStats>();
};
