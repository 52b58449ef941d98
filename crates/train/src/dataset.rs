//! Dataset descriptors and synthetic data generation.

use voltascope_dnn::{Shape, Tensor};

/// How the dataset grows with GPU count (paper §IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalingMode {
    /// Fixed dataset size regardless of GPU count (speedup = strong
    /// scaling; the paper uses 256K ImageNet images).
    Strong,
    /// Dataset grows proportionally to GPU count (256K images *per
    /// GPU*: 512K for 2, 1024K for 4, 2048K for 8).
    Weak,
}

/// Size/shape description of a training set — all the simulator needs
/// (the paper profiles time, not accuracy, so image *content* only
/// matters for the numeric tests, which use [`SyntheticDataset`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Name for reports.
    pub name: String,
    /// Base image count (per the strong-scaling configuration).
    pub images: u64,
    /// Number of classes.
    pub classes: usize,
}

impl DatasetSpec {
    /// The paper's 256K-image ImageNet subset (§IV-C).
    pub fn imagenet_256k() -> Self {
        DatasetSpec {
            name: "ImageNet-256K".to_string(),
            images: 256 * 1024,
            classes: 1000,
        }
    }

    /// Total images given the scaling mode and GPU count.
    pub fn total_images(&self, scaling: ScalingMode, gpu_count: usize) -> u64 {
        match scaling {
            ScalingMode::Strong => self.images,
            ScalingMode::Weak => self.images * gpu_count as u64,
        }
    }

    /// Iterations per epoch: each iteration consumes one mini-batch of
    /// `batch_per_gpu` on every GPU.
    ///
    /// # Panics
    ///
    /// Panics if `batch_per_gpu` or `gpu_count` is zero.
    pub fn iterations(&self, scaling: ScalingMode, batch_per_gpu: usize, gpu_count: usize) -> u64 {
        assert!(batch_per_gpu > 0 && gpu_count > 0);
        let total = self.total_images(scaling, gpu_count);
        let per_iter = (batch_per_gpu * gpu_count) as u64;
        total.div_ceil(per_iter)
    }

    /// Bytes of one input image for the given image shape (f32).
    pub fn image_bytes(image_shape: &Shape) -> u64 {
        image_shape.with_batch(1).bytes()
    }
}

/// A deterministic synthetic classification dataset whose labels are
/// learnable from the images: each class has a base pattern, and each
/// sample is its class pattern plus small pseudo-random noise. Used by
/// the numeric training demos and tests (loss must actually fall).
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    image_shape: Shape,
    classes: usize,
    samples: usize,
    seed: u64,
}

impl SyntheticDataset {
    /// Creates a dataset of `samples` images of `image_shape` (batch
    /// dim 1) over `classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if `classes` or `samples` is zero, or the shape's batch
    /// dimension is not 1.
    pub fn new(image_shape: Shape, classes: usize, samples: usize, seed: u64) -> Self {
        assert!(classes > 0 && samples > 0);
        assert_eq!(image_shape.dim(0), 1, "image shape uses batch 1");
        SyntheticDataset {
            image_shape,
            classes,
            samples,
            seed,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples
    }

    /// `true` when empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.samples == 0
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The label of sample `index`.
    pub fn label(&self, index: usize) -> usize {
        index % self.classes
    }

    /// Materialises a mini-batch `[start, start + count)` (indices wrap
    /// around the dataset) as an input tensor and label vector.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn batch(&self, start: usize, count: usize) -> (Tensor, Vec<usize>) {
        assert!(count > 0, "empty batch");
        let mut x = Tensor::zeros(self.image_shape.with_batch(count));
        let per_image = self.image_shape.numel();
        let mut labels = Vec::with_capacity(count);
        for i in 0..count {
            let idx = (start + i) % self.samples;
            let label = self.label(idx);
            labels.push(label);
            let dst = &mut x.data_mut()[i * per_image..(i + 1) * per_image];
            for (j, v) in dst.iter_mut().enumerate() {
                // Class pattern: a smooth function of (label, j).
                let pattern = (((label + 1) * (j + 3)) % 23) as f32 / 23.0 - 0.5;
                // Deterministic per-sample noise.
                let h =
                    (self.seed ^ ((idx as u64) << 24) ^ j as u64).wrapping_mul(0x9E3779B97F4A7C15);
                let noise = ((h >> 40) % 1000) as f32 / 5000.0 - 0.1;
                *v = pattern + noise;
            }
        }
        (x, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imagenet_preset() {
        let d = DatasetSpec::imagenet_256k();
        assert_eq!(d.images, 262_144);
        assert_eq!(d.classes, 1000);
    }

    #[test]
    fn weak_scaling_multiplies_dataset() {
        let d = DatasetSpec::imagenet_256k();
        assert_eq!(d.total_images(ScalingMode::Strong, 8), 262_144);
        assert_eq!(d.total_images(ScalingMode::Weak, 8), 8 * 262_144);
        // Weak scaling: iterations per epoch are constant in GPU count.
        assert_eq!(
            d.iterations(ScalingMode::Weak, 32, 1),
            d.iterations(ScalingMode::Weak, 32, 8)
        );
    }

    #[test]
    fn strong_scaling_divides_iterations() {
        let d = DatasetSpec::imagenet_256k();
        let i1 = d.iterations(ScalingMode::Strong, 16, 1);
        let i4 = d.iterations(ScalingMode::Strong, 16, 4);
        assert_eq!(i1, 16_384);
        assert_eq!(i4, 4_096);
    }

    #[test]
    fn iterations_round_up() {
        let d = DatasetSpec {
            name: "t".into(),
            images: 10,
            classes: 2,
        };
        assert_eq!(d.iterations(ScalingMode::Strong, 3, 1), 4);
    }

    #[test]
    fn synthetic_batches_are_deterministic_and_labelled() {
        let ds = SyntheticDataset::new(Shape::new([1, 1, 4, 4]), 3, 30, 7);
        let (x1, l1) = ds.batch(0, 6);
        let (x2, l2) = ds.batch(0, 6);
        assert_eq!(x1.data(), x2.data());
        assert_eq!(l1, l2);
        assert_eq!(l1, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(x1.shape().dims(), &[6, 1, 4, 4]);
    }

    #[test]
    fn batches_wrap_around() {
        let ds = SyntheticDataset::new(Shape::new([1, 1, 2, 2]), 2, 4, 1);
        let (_, labels) = ds.batch(3, 3);
        assert_eq!(labels, vec![1, 0, 1]);
    }

    #[test]
    fn same_class_samples_share_structure() {
        // Two samples of the same class differ only by small noise.
        let ds = SyntheticDataset::new(Shape::new([1, 1, 3, 3]), 2, 10, 3);
        let (a, _) = ds.batch(0, 1); // label 0
        let (b, _) = ds.batch(2, 1); // label 0 again
        let diff: f32 = a
            .data()
            .iter()
            .zip(b.data())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max);
        assert!(diff < 0.25, "noise too large: {diff}");
    }

    #[test]
    fn image_bytes_formula() {
        assert_eq!(
            DatasetSpec::image_bytes(&Shape::new([1, 3, 224, 224])),
            3 * 224 * 224 * 4
        );
    }
}
