//! # voltascope-workload — workloads as data
//!
//! The declarative workload layer of the reproduction: a `.workload`
//! text schema ([`WorkloadSpec::parse`]), the one lowering pass
//! compiling a spec into the per-layer kernel/bucket profile
//! `simulate_epoch_lowered` executes ([`lower`]), and the [`Definition`]
//! handle every grid cell times through. A built Rust model enters the
//! same pass via [`WorkloadSpec::from_model`], the bridge the
//! checked-in zoo files are exported with.
//!
//! # Example
//!
//! ```
//! use voltascope_workload::{lower, WorkloadSpec};
//!
//! let text = "workload v1\n\
//!             name Toy\n\
//!             input 1 28 28\n\
//!             layer conv1 conv 0 117600 235200 3136 18816 624 1\n\
//!             layer fc1 fc 0 94080 188160 18816 40 188170 1\n\
//!             end\n";
//! let spec = WorkloadSpec::parse(text).unwrap();
//! let lowered = lower(&spec, 16).unwrap();
//! assert_eq!(lowered.kernels.len(), 4); // 2 FP + 2 BP
//! assert_eq!(lowered.buckets.len(), 2); // both layers carry weights
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lower;
mod schema;

pub use lower::{lower, LowerError, LoweredDag, LoweredWorkload};
pub use schema::{DepError, LayerSpec, ParseError, ParseErrorKind, WorkloadSpec, KNOWN_KINDS};

use std::sync::Arc;

/// A workload as the grid machinery times it: a shared handle to a
/// parsed `.workload` spec. Cloning is an `Arc` clone, so every cell of
/// a sweep can hold its workload's definition without copying layers.
#[derive(Debug, Clone)]
pub struct Definition(Arc<WorkloadSpec>);

impl Definition {
    /// The workload's display name.
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// The spec timing lowers from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.0
    }

    /// Lowers the definition for `batch` samples per GPU.
    pub fn lowered(&self, batch: usize) -> Result<LoweredWorkload, LowerError> {
        lower(&self.0, batch)
    }
}

impl From<WorkloadSpec> for Definition {
    fn from(s: WorkloadSpec) -> Self {
        Definition(Arc::new(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltascope_dnn::zoo;

    #[test]
    fn definition_lowers_its_spec() {
        let spec = WorkloadSpec::from_model(&zoo::lenet());
        let def: Definition = spec.clone().into();
        assert_eq!(def.name(), "LeNet");
        assert_eq!(def.spec(), &spec);
        assert_eq!(def.lowered(32).unwrap(), lower(&spec, 32).unwrap());
    }
}
