//! GPU memory accounting for training (the paper's Table IV).
//!
//! Reproduces what `nvidia-smi` reports per GPU during the pre-training
//! and training phases of MXNet data-parallel training:
//!
//! * **Pre-training**: CUDA context + the replicated network model.
//! * **Training (every GPU)**: adds gradients, optimiser state, and the
//!   activation/workspace footprint that grows with batch size.
//! * **Training (GPU0)**: adds the parameter-server buffers — gradient
//!   aggregation and weight staging — which are *batch-independent*,
//!   which is why GPU0's relative overhead shrinks as the batch grows
//!   (§V-D).
//!
//! The footprint comes from the workload's [`WorkloadSpec`], the same
//! `.workload` file timing lowers: parameters are the sum of the
//! layers' `param_bytes`, activations the batch times the sum of their
//! `out_bytes`.

use voltascope_gpu::{GpuSpec, MemoryPool, OomError};
use voltascope_workload::WorkloadSpec;

/// Which role a GPU plays in the parameter-server schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuRole {
    /// GPU0: aggregates gradients and updates weights.
    Server,
    /// Any other GPU.
    Worker,
}

/// Calibration constants of the memory model.
#[derive(Debug, Clone)]
pub struct MemoryModel {
    /// Multiplier on the raw activation footprint covering backward
    /// buffers, cuDNN workspace per layer, and allocator slack.
    /// Calibrated so Inception-v3 at batch 64 lands near the paper's
    /// 11 GB and the batch-size caps of §V-D reproduce.
    pub activation_multiplier: f64,
    /// Fixed framework overhead beyond the CUDA context (data pipeline
    /// staging buffers, executor bookkeeping).
    pub fixed_overhead: u64,
    /// Whether the optimiser keeps a momentum buffer (MXNet's default
    /// SGD does).
    pub momentum: bool,
}

impl Default for MemoryModel {
    fn default() -> Self {
        MemoryModel {
            activation_multiplier: 1.3,
            fixed_overhead: 600 << 20,
            momentum: true,
        }
    }
}

/// One GPU's memory usage figures in bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryUsage {
    /// `nvidia-smi` reading during pre-training (model resident).
    pub pre_training: u64,
    /// `nvidia-smi` reading during training.
    pub training: u64,
}

impl MemoryUsage {
    /// Usage in GiB (the unit of Table IV).
    pub fn training_gib(&self) -> f64 {
        self.training as f64 / (1u64 << 30) as f64
    }

    /// Pre-training usage in GiB.
    pub fn pre_training_gib(&self) -> f64 {
        self.pre_training as f64 / (1u64 << 30) as f64
    }
}

impl MemoryModel {
    /// Computes the memory usage of one GPU for `workload` at the given
    /// per-GPU batch size.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] when the footprint exceeds the device —
    /// the condition that capped the paper's batch sizes (§V-D).
    pub fn usage(
        &self,
        workload: &WorkloadSpec,
        batch: usize,
        role: GpuRole,
        spec: &GpuSpec,
    ) -> Result<MemoryUsage, OomError> {
        let mut pool = MemoryPool::new(spec.memory_bytes, spec.context_bytes);
        let params = workload.param_bytes();

        // Pre-training: the model is broadcast to every GPU.
        pool.alloc(params, "weights")?;
        pool.alloc(self.fixed_overhead, "framework")?;
        let pre_training = pool.device_reported();

        // Training: gradients + optimiser state + activations.
        pool.alloc(params, "gradients")?;
        if self.momentum {
            pool.alloc(params, "momentum")?;
        }
        let activations =
            (workload.activation_bytes(batch) as f64 * self.activation_multiplier) as u64;
        pool.alloc(activations, "activations+workspace")?;
        if role == GpuRole::Server {
            // Aggregation buffer for incoming gradients + staging copy
            // of the updated weights, both batch-independent.
            pool.alloc(params, "grad-aggregation")?;
            pool.alloc(params, "weight-staging")?;
        }
        Ok(MemoryUsage {
            pre_training,
            training: pool.device_reported(),
        })
    }

    /// The largest power-of-two batch size (from 16 doubling upward)
    /// that still fits on the device — how §V-D found 64 to be the cap
    /// for Inception-v3/ResNet and 128 for GoogLeNet.
    pub fn max_batch(&self, workload: &WorkloadSpec, spec: &GpuSpec) -> Option<usize> {
        let mut best = None;
        let mut batch = 16usize;
        while batch <= 1024 {
            if self.usage(workload, batch, GpuRole::Server, spec).is_err() {
                break;
            }
            best = Some(batch);
            batch *= 2;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltascope_dnn::zoo;

    #[test]
    fn server_uses_more_than_worker() {
        let mm = MemoryModel::default();
        let spec = GpuSpec::tesla_v100();
        let workload = WorkloadSpec::from_model(&zoo::alexnet());
        let s = mm.usage(&workload, 32, GpuRole::Server, &spec).unwrap();
        let w = mm.usage(&workload, 32, GpuRole::Worker, &spec).unwrap();
        assert!(s.training > w.training);
        assert_eq!(s.pre_training, w.pre_training);
        // The gap is two parameter copies (modulo allocator rounding).
        let gap = s.training - w.training;
        assert!(gap >= 2 * workload.param_bytes());
        assert!(gap < 2 * workload.param_bytes() + 2048);
    }

    #[test]
    fn server_overhead_percentage_shrinks_with_batch() {
        // Paper §V-D: "the percentage of additional memory usage by
        // GPU0 decreases with increased batch size."
        let mm = MemoryModel::default();
        let spec = GpuSpec::tesla_v100();
        let workload = WorkloadSpec::from_model(&zoo::googlenet());
        let pct = |batch| {
            let s = mm.usage(&workload, batch, GpuRole::Server, &spec).unwrap();
            let w = mm.usage(&workload, batch, GpuRole::Worker, &spec).unwrap();
            (s.training - w.training) as f64 / w.training as f64
        };
        assert!(pct(16) > pct(32));
        assert!(pct(32) > pct(64));
    }

    #[test]
    fn memory_grows_with_batch_but_sublinearly() {
        let mm = MemoryModel::default();
        let spec = GpuSpec::tesla_v100();
        let workload = WorkloadSpec::from_model(&zoo::resnet50());
        let m16 = mm
            .usage(&workload, 16, GpuRole::Worker, &spec)
            .unwrap()
            .training;
        let m64 = mm
            .usage(&workload, 64, GpuRole::Worker, &spec)
            .unwrap()
            .training;
        assert!(m64 > m16);
        // Fixed terms mean 4x batch < 4x memory (paper: 1.83x for
        // Inception-v3).
        assert!((m64 as f64) < 4.0 * m16 as f64);
    }

    #[test]
    fn pre_training_is_batch_independent() {
        let mm = MemoryModel::default();
        let spec = GpuSpec::tesla_v100();
        let workload = WorkloadSpec::from_model(&zoo::lenet());
        let a = mm.usage(&workload, 16, GpuRole::Worker, &spec).unwrap();
        let b = mm.usage(&workload, 64, GpuRole::Worker, &spec).unwrap();
        assert_eq!(a.pre_training, b.pre_training);
    }

    #[test]
    fn oversized_batches_oom() {
        let mm = MemoryModel::default();
        let spec = GpuSpec::tesla_v100();
        let workload = WorkloadSpec::from_model(&zoo::inception_v3());
        // Batch 256 per GPU cannot fit Inception-v3 in 16 GB.
        assert!(mm.usage(&workload, 256, GpuRole::Server, &spec).is_err());
        let cap = mm.max_batch(&workload, &spec).unwrap();
        assert!(cap < 256);
    }

    #[test]
    fn parameter_bytes_near_u64_max_report_no_batch() {
        // `.workload` files are untrusted: a parameter footprint no
        // allocation can round up must surface as OOM, not overflow.
        let gpu = GpuSpec::tesla_v100();
        let mm = MemoryModel::default();
        let mut huge = WorkloadSpec::from_model(&zoo::lenet());
        for l in &mut huge.layers {
            l.param_bytes = 0;
        }
        huge.layers[0].param_bytes = u64::MAX - 10;
        assert!(mm.usage(&huge, 16, GpuRole::Worker, &gpu).is_err());
        assert_eq!(mm.max_batch(&huge, &gpu), None);
        // Two huge layers saturate the sum instead of wrapping it.
        huge.layers[1].param_bytes = u64::MAX - 10;
        assert_eq!(huge.param_bytes(), u64::MAX);
        assert_eq!(mm.max_batch(&huge, &gpu), None);
    }

    #[test]
    fn gib_conversions() {
        let u = MemoryUsage {
            pre_training: 1 << 30,
            training: 3 << 30,
        };
        assert_eq!(u.pre_training_gib(), 1.0);
        assert_eq!(u.training_gib(), 3.0);
    }
}
