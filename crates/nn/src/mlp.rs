//! A sequential multilayer perceptron.

use crate::activation::Activation;
use crate::layer::Dense;
use smfl_linalg::{Matrix, Result};

/// Stack of [`Dense`] layers trained by manual backprop.
#[derive(Debug, Clone)]
pub struct Mlp {
    /// The layers, input to output.
    pub layers: Vec<Dense>,
}

impl Mlp {
    /// Builds an MLP from layer widths and per-layer activations:
    /// `widths = [in, h1, ..., out]`, `acts.len() == widths.len() - 1`.
    pub fn new(widths: &[usize], acts: &[Activation], seed: u64) -> Mlp {
        assert!(widths.len() >= 2, "need at least input and output widths");
        assert_eq!(acts.len(), widths.len() - 1, "one activation per layer");
        let layers = widths
            .windows(2)
            .zip(acts)
            .enumerate()
            .map(|(i, (w, &act))| Dense::new(w[0], w[1], act, seed.wrapping_add(i as u64)))
            .collect();
        Mlp { layers }
    }

    /// Input width of the network.
    pub fn inputs(&self) -> usize {
        self.layers.first().map_or(0, Dense::inputs)
    }

    /// Output width of the network.
    pub fn outputs(&self) -> usize {
        self.layers.last().map_or(0, Dense::outputs)
    }

    /// Training forward pass (caches per-layer activations).
    pub fn forward(&mut self, x: &Matrix) -> Result<Matrix> {
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = layer.forward(&h)?;
        }
        Ok(h)
    }

    /// Inference forward pass (no caches).
    pub fn forward_inference(&self, x: &Matrix) -> Result<Matrix> {
        let mut h = x.clone();
        for layer in &self.layers {
            h = layer.forward_inference(&h)?;
        }
        Ok(h)
    }

    /// Backward pass from `dL/d(output)`; fills every layer's gradients
    /// and returns `dL/d(input)`.
    pub fn backward(&mut self, grad_out: &Matrix) -> Result<Matrix> {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// Plain SGD step over all layers.
    pub fn sgd_step(&mut self, lr: f64) {
        for layer in &mut self.layers {
            layer.apply_gradients(lr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Matrix, Matrix) {
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ])
        .unwrap();
        let y = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![1.0], vec![0.0]]).unwrap();
        (x, y)
    }

    #[test]
    fn construction_shapes() {
        let net = Mlp::new(&[4, 8, 2], &[Activation::Relu, Activation::Sigmoid], 1);
        assert_eq!(net.inputs(), 4);
        assert_eq!(net.outputs(), 2);
        assert_eq!(net.layers.len(), 2);
    }

    #[test]
    #[should_panic(expected = "one activation per layer")]
    fn mismatched_activations_panic() {
        Mlp::new(&[2, 2], &[Activation::Relu, Activation::Relu], 0);
    }

    #[test]
    fn learns_xor_with_sgd() {
        let (x, y) = xor_data();
        let mut net = Mlp::new(&[2, 8, 1], &[Activation::Tanh, Activation::Sigmoid], 42);
        for _ in 0..4000 {
            let pred = net.forward(&x).unwrap();
            // MSE gradient: (pred - y)
            let grad = pred.sub(&y).unwrap();
            net.backward(&grad).unwrap();
            net.sgd_step(0.5);
        }
        let pred = net.forward_inference(&x).unwrap();
        for i in 0..4 {
            let p = pred.get(i, 0);
            let t = y.get(i, 0);
            assert!(
                (p - t).abs() < 0.2,
                "xor case {i}: predicted {p}, wanted {t}"
            );
        }
    }

    #[test]
    fn inference_matches_training_path() {
        let net_widths = [3, 5, 2];
        let acts = [Activation::Relu, Activation::Identity];
        let mut net = Mlp::new(&net_widths, &acts, 7);
        let x = smfl_linalg::random::uniform_matrix(6, 3, -1.0, 1.0, 8);
        let a = net.forward(&x).unwrap();
        let b = net.forward_inference(&x).unwrap();
        assert!(a.approx_eq(&b, 0.0));
    }

    #[test]
    fn full_network_gradient_check() {
        let mut net = Mlp::new(&[2, 4, 1], &[Activation::Tanh, Activation::Identity], 9);
        let x = smfl_linalg::random::uniform_matrix(3, 2, -1.0, 1.0, 10);
        let y = net.forward(&x).unwrap();
        net.backward(&y).unwrap(); // L = 0.5 Σ y²
        let analytic = net.layers[0].grad_w.get(1, 2);
        let h = 1e-6;
        let orig = net.layers[0].w.get(1, 2);
        net.layers[0].w.set(1, 2, orig + h);
        let lp = 0.5 * net.forward_inference(&x).unwrap().frobenius_norm_sq();
        net.layers[0].w.set(1, 2, orig - h);
        let lm = 0.5 * net.forward_inference(&x).unwrap().frobenius_norm_sq();
        net.layers[0].w.set(1, 2, orig);
        let numeric = (lp - lm) / (2.0 * h);
        assert!((numeric - analytic).abs() < 1e-4, "{numeric} vs {analytic}");
    }
}
