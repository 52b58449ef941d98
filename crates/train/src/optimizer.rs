//! Stochastic gradient descent with momentum.

use voltascope_dnn::{Gradients, Params, Tensor};

/// SGD with classical momentum — MXNet's default optimiser for the
/// paper's image-classification workloads.
///
/// Update rule per parameter: `v = m*v + g ; w -= lr*v`.
///
/// # Example
///
/// ```
/// use voltascope_train::Sgd;
///
/// let sgd = Sgd::new(0.01).momentum(0.9);
/// assert_eq!(sgd.learning_rate(), 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
}

/// Momentum buffers, one per parameter tensor (lazily shaped on first
/// step).
#[derive(Debug, Clone, Default)]
pub struct SgdState {
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics unless `lr` is positive and finite.
    pub fn new(lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "bad learning rate {lr}");
        Sgd { lr, momentum: 0.0 }
    }

    /// Sets the momentum coefficient.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= m < 1`.
    pub fn momentum(mut self, m: f32) -> Self {
        assert!((0.0..1.0).contains(&m), "bad momentum {m}");
        self.momentum = m;
        self
    }

    /// The configured learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Applies one update step in place.
    ///
    /// # Panics
    ///
    /// Panics if `grads` does not structurally match `params`, or
    /// `state` was used with a different model.
    pub fn step(&self, params: &mut Params, grads: &Gradients, state: &mut SgdState) {
        if state.velocity.is_empty() {
            state.velocity = params
                .iter()
                .map(|p| Tensor::zeros(p.shape().clone()))
                .collect();
        }
        let mut slot = 0;
        for (p, g) in params.iter_mut().zip(grads.iter()) {
            assert_eq!(p.shape(), g.shape(), "gradient/parameter shape mismatch");
            let v = &mut state.velocity[slot];
            assert_eq!(v.shape(), p.shape(), "stale optimiser state");
            for i in 0..p.numel() {
                v[i] = self.momentum * v[i] + g[i];
                p[i] -= self.lr * v[i];
            }
            slot += 1;
        }
        assert_eq!(slot, state.velocity.len(), "gradient structure mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltascope_dnn::{zoo, Shape, Tensor};

    #[test]
    fn plain_sgd_moves_against_gradient() {
        let model = zoo::lenet();
        let mut params = model.init_params(3);
        let x = Tensor::full(Shape::new([1, 1, 28, 28]), 0.2);
        let acts = model.forward(&params, &x);
        let before = model.output(&acts).clone();
        let (_, grad) = voltascope_dnn::softmax_cross_entropy(&before, &[3]);
        let grads = model.backward(&params, &x, &acts, &grad);
        let sgd = Sgd::new(0.5);
        let mut state = SgdState::default();
        sgd.step(&mut params, &grads, &mut state);
        let after_acts = model.forward(&params, &x);
        let (loss_after, _) =
            voltascope_dnn::softmax_cross_entropy(model.output(&after_acts), &[3]);
        let (loss_before, _) = voltascope_dnn::softmax_cross_entropy(&before, &[3]);
        assert!(
            loss_after < loss_before,
            "loss went {loss_before} -> {loss_after}"
        );
    }

    #[test]
    fn momentum_accumulates_velocity() {
        // Two identical steps with momentum move further the second time.
        let model = zoo::lenet();
        let mut p1 = model.init_params(1);
        let x = Tensor::full(Shape::new([1, 1, 28, 28]), 0.1);
        let acts = model.forward(&p1, &x);
        let (_, grad) = voltascope_dnn::softmax_cross_entropy(model.output(&acts), &[0]);
        let grads = model.backward(&p1, &x, &acts, &grad);

        let sgd = Sgd::new(0.1).momentum(0.9);
        let mut state = SgdState::default();
        let snapshot = |p: &voltascope_dnn::Params| -> Vec<f32> {
            p.iter().flat_map(|t| t.data().to_vec()).collect()
        };
        let w0 = snapshot(&p1);
        sgd.step(&mut p1, &grads, &mut state);
        let w1 = snapshot(&p1);
        sgd.step(&mut p1, &grads, &mut state);
        let w2 = snapshot(&p1);
        let dist =
            |a: &[f32], b: &[f32]| -> f32 { a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum() };
        let d1 = dist(&w0, &w1);
        let d2 = dist(&w1, &w2);
        assert!(d2 > d1 * 1.5, "momentum not accumulating: {d1} then {d2}");
    }

    #[test]
    #[should_panic(expected = "bad learning rate")]
    fn zero_lr_rejected() {
        let _ = Sgd::new(0.0);
    }
}
