//! Dense CPU tensors with `f32` storage.

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{Result, Shape, TensorError};

/// A dense, row-major, `f32` tensor.
///
/// This is deliberately minimal: enough to run model forward passes at
/// reduced sizes in tests and examples. Layout is always contiguous
/// row-major; views are materialized rather than strided.
///
/// # Example
///
/// ```
/// use mmg_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// assert!(t.data().iter().all(|&x| x == 0.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLengthMismatch`] if `data.len()` differs
    /// from the shape's element count.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Tensor> {
        let shape = Shape::new(dims);
        if data.len() != shape.numel() {
            return Err(TensorError::DataLengthMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// All-zero tensor.
    #[must_use]
    pub fn zeros(dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.numel()];
        Tensor { shape, data }
    }

    /// All-one tensor.
    #[must_use]
    pub fn ones(dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        let data = vec![1.0; shape.numel()];
        Tensor { shape, data }
    }

    /// Tensor filled with `value`.
    #[must_use]
    pub fn full(dims: &[usize], value: f32) -> Tensor {
        let shape = Shape::new(dims);
        let data = vec![value; shape.numel()];
        Tensor { shape, data }
    }

    /// Square identity matrix of side `n`.
    #[must_use]
    pub fn eye(n: usize) -> Tensor {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Standard-normal tensor from a deterministic seed.
    ///
    /// All randomness in the suite is seeded for reproducibility.
    #[must_use]
    pub fn randn(dims: &[usize], seed: u64) -> Tensor {
        let shape = Shape::new(dims);
        let mut rng = StdRng::seed_from_u64(seed);
        // Box-Muller via rand's StandardNormal-free path: use two uniforms.
        let uniform = rand::distributions::Uniform::new(f32::EPSILON, 1.0f32);
        let n = shape.numel();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = uniform.sample(&mut rng);
            let u2: f32 = uniform.sample(&mut rng);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos());
            if data.len() < n {
                data.push(r * theta.sin());
            }
        }
        Tensor { shape, data }
    }

    /// `[0, 1, …, n-1]` as a rank-1 tensor.
    #[must_use]
    pub fn arange(n: usize) -> Tensor {
        let data = (0..n).map(|i| i as f32).collect();
        Tensor { shape: Shape::new(&[n]), data }
    }

    /// The tensor's shape.
    #[must_use]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Borrow the underlying row-major data.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Total element count.
    #[must_use]
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Element at a multi-dimensional index.
    #[must_use]
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the element at a multi-dimensional index.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// Reinterprets the data with a new shape of equal element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLengthMismatch`] if element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let shape = Shape::new(dims);
        if shape.numel() != self.numel() {
            return Err(TensorError::DataLengthMismatch {
                expected: shape.numel(),
                actual: self.numel(),
            });
        }
        Ok(Tensor { shape, data: self.data.clone() })
    }

    /// Materialized axis permutation.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] if `perm` is not a
    /// permutation of `0..rank`.
    pub fn permute(&self, perm: &[usize]) -> Result<Tensor> {
        let rank = self.shape.rank();
        let mut seen = vec![false; rank];
        if perm.len() != rank || perm.iter().any(|&p| p >= rank || std::mem::replace(&mut seen[p], true)) {
            return Err(TensorError::InvalidParameter {
                op: "permute",
                reason: format!("{perm:?} is not a permutation of 0..{rank}"),
            });
        }
        let src_dims = self.shape.dims();
        let dst_dims: Vec<usize> = perm.iter().map(|&p| src_dims[p]).collect();
        let dst_shape = Shape::new(&dst_dims);
        let src_strides = self.shape.strides();
        let mut out = vec![0.0f32; self.numel()];
        let mut index = vec![0usize; rank];
        for (flat, slot) in out.iter_mut().enumerate() {
            // Decompose flat index of destination into multi-index.
            let mut rem = flat;
            let dst_strides = dst_shape.strides();
            for a in 0..rank {
                index[a] = rem / dst_strides[a];
                rem %= dst_strides[a];
            }
            // Map back to source offset.
            let mut src_off = 0;
            for a in 0..rank {
                src_off += index[a] * src_strides[perm[a]];
            }
            *slot = self.data[src_off];
        }
        Ok(Tensor { shape: dst_shape, data: out })
    }

    /// 2-D transpose.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] if the tensor is not rank-2.
    pub fn transpose(&self) -> Result<Tensor> {
        if self.shape.rank() != 2 {
            return Err(TensorError::InvalidShape {
                op: "transpose",
                reason: format!("expected rank 2, got {}", self.shape.rank()),
            });
        }
        self.permute(&[1, 0])
    }

    /// Maximum absolute difference to another tensor of identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                op: "max_abs_diff",
                lhs: self.shape.dims().to_vec(),
                rhs: other.shape.dims().to_vec(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max))
    }

    /// Whether all elements are finite.
    #[must_use]
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert!(matches!(
            Tensor::from_vec(vec![1.0; 5], &[2, 3]),
            Err(TensorError::DataLengthMismatch { expected: 6, actual: 5 })
        ));
    }

    #[test]
    fn eye_has_unit_diagonal() {
        let t = Tensor::eye(3);
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[1, 1]), 1.0);
        assert_eq!(t.at(&[0, 1]), 0.0);
    }

    #[test]
    fn randn_is_deterministic_and_roughly_normal() {
        let a = Tensor::randn(&[1000], 42);
        let b = Tensor::randn(&[1000], 42);
        assert_eq!(a, b);
        let mean: f32 = a.data().iter().sum::<f32>() / 1000.0;
        let var: f32 = a.data().iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / 1000.0;
        assert!(mean.abs() < 0.15, "mean {mean}");
        assert!((var - 1.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn randn_different_seeds_differ() {
        assert_ne!(Tensor::randn(&[16], 1), Tensor::randn(&[16], 2));
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::arange(6);
        let r = t.reshape(&[2, 3]).unwrap();
        assert_eq!(r.at(&[1, 2]), 5.0);
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn permute_transposes() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let p = t.permute(&[1, 0]).unwrap();
        assert_eq!(p.shape().dims(), &[3, 2]);
        assert_eq!(p.at(&[0, 1]), 4.0);
        assert_eq!(p.at(&[2, 0]), 3.0);
    }

    #[test]
    fn permute_rejects_non_permutation() {
        let t = Tensor::zeros(&[2, 3]);
        assert!(t.permute(&[0, 0]).is_err());
        assert!(t.permute(&[0]).is_err());
        assert!(t.permute(&[0, 2]).is_err());
    }

    #[test]
    fn permute_3d_roundtrip() {
        let t = Tensor::randn(&[2, 3, 4], 7);
        let p = t.permute(&[2, 0, 1]).unwrap();
        assert_eq!(p.shape().dims(), &[4, 2, 3]);
        let back = p.permute(&[1, 2, 0]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn max_abs_diff_detects_difference() {
        let a = Tensor::zeros(&[4]);
        let mut b = Tensor::zeros(&[4]);
        b.set(&[2], 0.5);
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.5);
        let c = Tensor::zeros(&[5]);
        assert!(a.max_abs_diff(&c).is_err());
    }

    #[test]
    fn set_and_at_roundtrip() {
        let mut t = Tensor::zeros(&[2, 2, 2]);
        t.set(&[1, 0, 1], 9.0);
        assert_eq!(t.at(&[1, 0, 1]), 9.0);
        assert_eq!(t.data()[5], 9.0);
    }
}
