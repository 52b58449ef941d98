//! The experiment harness: configured system + measurement protocol.

use voltascope_sim::{mean_stddev, Jitter};
use voltascope_train::{MemoryModel, SystemModel};

use crate::calibration;

/// A measurement: mean and standard deviation over the repetitions of
/// the paper's protocol (5 runs per configuration, Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Mean over repetitions, in seconds.
    pub mean_s: f64,
    /// Sample standard deviation, in seconds.
    pub stddev_s: f64,
}

/// The configured experiment harness: the calibrated DGX-1 plus the
/// paper's measurement protocol. Epochs are simulated per grid cell
/// through a [`crate::service::GridService`] built over a harness.
///
/// # Example
///
/// ```
/// use voltascope::grid::GridSpec;
/// use voltascope::service::GridService;
/// use voltascope::Harness;
/// use voltascope_comm::CommMethod;
/// use voltascope_dnn::zoo::Workload;
///
/// let service = GridService::new(Harness::paper());
/// let spec = GridSpec::paper()
///     .workloads([Workload::LeNet])
///     .comms([CommMethod::P2p])
///     .batches([64])
///     .gpu_counts([4]);
/// let report = service.sweep(&spec).values()[0].clone();
/// let m = service.base().measure(report.epoch_time.as_secs_f64(), 42);
/// assert!(m.mean_s > 0.0);
/// assert!(m.stddev_s < m.mean_s);
/// ```
#[derive(Debug, Clone)]
pub struct Harness {
    /// The simulated platform.
    pub sys: SystemModel,
    /// The memory model for Table IV.
    pub memory: MemoryModel,
    /// Repetitions per configuration.
    pub reps: u32,
    /// Relative jitter between repetitions.
    pub jitter_sigma: f64,
    /// Jitter seed.
    pub seed: u64,
}

impl Harness {
    /// The paper's calibrated protocol (see [`crate::calibration`]).
    pub fn paper() -> Self {
        Harness {
            sys: calibration::dgx1_system(),
            memory: calibration::memory_model(),
            reps: calibration::REPETITIONS,
            jitter_sigma: calibration::JITTER_SIGMA,
            seed: calibration::SEED,
        }
    }

    /// Applies the repetition protocol to an epoch time: `reps`
    /// jittered samples, deterministic per configuration.
    pub fn measure(&self, epoch_seconds: f64, config_salt: u64) -> Measurement {
        let mut jitter = Jitter::new(self.seed ^ config_salt, self.jitter_sigma);
        let samples: Vec<f64> = (0..self.reps)
            .map(|_| jitter.perturb(epoch_seconds))
            .collect();
        let (mean_s, stddev_s) = mean_stddev(&samples);
        Measurement { mean_s, stddev_s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_protocol_is_deterministic() {
        let h = Harness::paper();
        let a = h.measure(10.0, 42);
        let b = h.measure(10.0, 42);
        assert_eq!(a, b);
        let c = h.measure(10.0, 43);
        assert_ne!(a, c, "different configs must jitter differently");
    }

    #[test]
    fn jitter_is_small_relative_to_mean() {
        let h = Harness::paper();
        let m = h.measure(100.0, 7);
        assert!((m.mean_s - 100.0).abs() < 5.0);
        assert!(m.stddev_s < 6.0);
    }
}
