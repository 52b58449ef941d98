//! # voltascope-comm — inter-GPU communication methods
//!
//! Implements the two communication schemes the paper compares for the
//! weight-update (WU) stage of data-parallel training (§II-C, §V-A):
//!
//! * **P2P direct transfer** — `cudaMemcpy`-style DMA copies between
//!   GPU memories, arranged by MXNet's parameter-server schedule: a
//!   [`ReductionTree`] funnels gradients to GPU0, the updated weights
//!   are broadcast back. Non-adjacent GPU pairs use either a software
//!   relay through a common NVLink neighbour (multi-stage transfer) or
//!   the slow DtoH + HtoD bounce through the CPUs.
//! * **NCCL-style collectives** — topology-aware [`Ring`] AllReduce and
//!   Broadcast with chunked pipelining, paying a fixed per-call kernel
//!   overhead (the "NCCL overhead" of Table II) but using every ring
//!   link concurrently. The [`protocol`] module models NCCL's LL /
//!   LL128 / Simple wire protocols, ring/tree algorithms, and channel
//!   counts; [`tuner`] picks the cheapest combination per message size
//!   the way NCCL's internal cost model does (overridable via
//!   `VOLTASCOPE_NCCL_PROTO`).
//!
//! The **timing** level ([`LinkNetwork`], [`collective`]) lowers
//! transfers onto the discrete-event engine's link resources. A
//! separate **semantic** ring AllReduce ([`semantic`]) sums real `f32`
//! buffers for the numeric data-parallel SGD; it shares no code with
//! the timed collectives.
//!
//! # Example
//!
//! ```
//! use voltascope_comm::semantic;
//!
//! let mut bufs = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
//! semantic::ring_all_reduce(&mut bufs);
//! assert_eq!(bufs, vec![vec![9.0, 12.0]; 3]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collective;
mod network;
pub mod protocol;
mod ring;
pub mod semantic;
mod tree;
pub mod tuner;

pub use network::LinkNetwork;
pub use protocol::{
    Algorithm, BandwidthEfficiency, CommError, Protocol, Selection, TuningSpace, NCCL_PROTO_ENV,
};
pub use ring::Ring;
pub use tree::ReductionTree;

/// The two inter-GPU communication methods the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommMethod {
    /// CUDA peer-to-peer direct transfers with MXNet's parameter-server
    /// reduction/broadcast schedule.
    P2p,
    /// NCCL-style ring AllReduce + Broadcast collectives.
    Nccl,
}

impl CommMethod {
    /// Both methods, in the paper's presentation order.
    pub const ALL: [CommMethod; 2] = [CommMethod::P2p, CommMethod::Nccl];

    /// Display name as the paper writes it.
    pub fn name(self) -> &'static str {
        match self {
            CommMethod::P2p => "P2P",
            CommMethod::Nccl => "NCCL",
        }
    }
}

impl std::fmt::Display for CommMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// Compile-time guarantee for the parallel experiment grid: the
// communication cost models cross sweep worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CommMethod>();
    assert_send_sync::<collective::NcclCosts>();
    assert_send_sync::<Selection>();
    assert_send_sync::<TuningSpace>();
    assert_send_sync::<ReductionTree>();
    assert_send_sync::<Ring>();
};
