//! Denoising schedules — the numerical core of the diffusion loop.
//!
//! The performance plane only needs the *number* of denoising steps, but a
//! usable diffusion system also needs the schedule itself: the β/ᾱ tables
//! of DDPM training and the step-skipping DDIM sampler that makes "tens or
//! hundreds of UNet traversals" (Section II-A) a tunable quality/latency
//! knob. The quickstart-scale examples drive real tensors through it.

use mmg_tensor::{ops, Result, Tensor, TensorError};

/// A discrete DDPM noise schedule with `T` training steps.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseSchedule {
    betas: Vec<f64>,
    alphas_cum: Vec<f64>,
}

impl NoiseSchedule {
    /// The linear β schedule of DDPM / Stable Diffusion
    /// (β: 8.5e-4 → 1.2e-2 over `steps`, scaled-linear variant).
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`.
    #[must_use]
    pub fn scaled_linear(steps: usize) -> Self {
        assert!(steps > 0, "schedule needs at least one step");
        let (b0, b1) = (0.00085f64.sqrt(), 0.012f64.sqrt());
        let betas: Vec<f64> = (0..steps)
            .map(|i| {
                let f = if steps == 1 { 0.0 } else { i as f64 / (steps - 1) as f64 };
                let b = b0 + f * (b1 - b0);
                b * b
            })
            .collect();
        let mut alphas_cum = Vec::with_capacity(steps);
        let mut acc = 1.0f64;
        for &b in &betas {
            acc *= 1.0 - b;
            alphas_cum.push(acc);
        }
        NoiseSchedule { betas, alphas_cum }
    }

    /// Number of training steps `T`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.betas.len()
    }

    /// Whether the schedule is empty (never true for constructed values).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.betas.is_empty()
    }

    /// `ᾱ_t` (cumulative product of `1 - β`).
    ///
    /// # Panics
    ///
    /// Panics if `t >= len()`.
    #[must_use]
    pub fn alpha_cum(&self, t: usize) -> f64 {
        self.alphas_cum[t]
    }

    /// Signal-to-noise ratio at step `t`: `ᾱ / (1 - ᾱ)`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= len()`.
    #[must_use]
    pub fn snr(&self, t: usize) -> f64 {
        let a = self.alphas_cum[t];
        a / (1.0 - a)
    }

    /// The forward (noising) process: `x_t = √ᾱ·x₀ + √(1-ᾱ)·ε`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `x0` and `noise` differ.
    ///
    /// # Panics
    ///
    /// Panics if `t >= len()`.
    pub fn add_noise(&self, x0: &Tensor, noise: &Tensor, t: usize) -> Result<Tensor> {
        let a = self.alphas_cum[t];
        ops::add(
            &ops::scale(x0, a.sqrt() as f32),
            &ops::scale(noise, (1.0 - a).sqrt() as f32),
        )
    }

    /// Evenly spaced inference timesteps for a `steps`-step DDIM sampler,
    /// descending (the generation order).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] if `steps` is zero or
    /// exceeds the training schedule.
    pub fn ddim_timesteps(&self, steps: usize) -> Result<Vec<usize>> {
        if steps == 0 || steps > self.len() {
            return Err(TensorError::InvalidParameter {
                op: "ddim_timesteps",
                reason: format!("steps {steps} outside 1..={}", self.len()),
            });
        }
        let stride = self.len() / steps;
        let mut ts: Vec<usize> = (0..steps).map(|i| i * stride).collect();
        ts.reverse();
        Ok(ts)
    }

    /// One deterministic DDIM update from `t` to `t_prev` given the
    /// predicted noise `eps`:
    /// `x₀̂ = (x_t − √(1−ᾱ_t)·ε) / √ᾱ_t`, then re-noise to `t_prev`.
    ///
    /// # Errors
    ///
    /// Returns shape errors if `x_t` and `eps` differ.
    ///
    /// # Panics
    ///
    /// Panics if `t` or `t_prev` are out of range.
    pub fn ddim_step(
        &self,
        x_t: &Tensor,
        eps: &Tensor,
        t: usize,
        t_prev: Option<usize>,
    ) -> Result<Tensor> {
        let a_t = self.alphas_cum[t];
        let x0 = ops::scale(
            &ops::add(x_t, &ops::scale(eps, -((1.0 - a_t).sqrt() as f32)))?,
            (1.0 / a_t.sqrt()) as f32,
        );
        match t_prev {
            None => Ok(x0),
            Some(tp) => {
                let a_p = self.alphas_cum[tp];
                ops::add(
                    &ops::scale(&x0, a_p.sqrt() as f32),
                    &ops::scale(eps, (1.0 - a_p).sqrt() as f32),
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> NoiseSchedule {
        NoiseSchedule::scaled_linear(1000)
    }

    #[test]
    fn alphas_decrease_monotonically() {
        let s = sched();
        for t in 1..s.len() {
            assert!(s.alpha_cum(t) < s.alpha_cum(t - 1));
        }
        assert!(s.alpha_cum(0) > 0.99);
        assert!(s.alpha_cum(999) < 0.05, "end of schedule is nearly pure noise");
    }

    #[test]
    fn snr_decreases_over_time() {
        let s = sched();
        for t in 1..s.len() {
            assert!(s.snr(t) < s.snr(t - 1));
        }
    }

    #[test]
    fn ddim_timesteps_descend_evenly() {
        let s = sched();
        let ts = s.ddim_timesteps(50).unwrap();
        assert_eq!(ts.len(), 50);
        assert_eq!(ts[0], 980);
        assert_eq!(*ts.last().unwrap(), 0);
        for w in ts.windows(2) {
            assert_eq!(w[0] - w[1], 20);
        }
        assert!(s.ddim_timesteps(0).is_err());
        assert!(s.ddim_timesteps(1001).is_err());
    }

    #[test]
    fn noising_preserves_variance_roughly() {
        // x_t = √ᾱ x0 + √(1-ᾱ) ε with unit-variance inputs stays ~unit.
        let s = sched();
        let x0 = Tensor::randn(&[4096], 1);
        let eps = Tensor::randn(&[4096], 2);
        for t in [0, 500, 999] {
            let xt = s.add_noise(&x0, &eps, t).unwrap();
            let var: f32 = xt.data().iter().map(|v| v * v).sum::<f32>() / 4096.0;
            assert!((var - 1.0).abs() < 0.15, "t={t}: var {var}");
        }
    }

    #[test]
    fn ddim_with_true_noise_recovers_x0() {
        // If the model predicts the exact noise, one DDIM step to t=None
        // recovers x0.
        let s = sched();
        let x0 = Tensor::randn(&[256], 3);
        let eps = Tensor::randn(&[256], 4);
        let xt = s.add_noise(&x0, &eps, 700).unwrap();
        let rec = s.ddim_step(&xt, &eps, 700, None).unwrap();
        assert!(rec.max_abs_diff(&x0).unwrap() < 1e-3);
    }

    #[test]
    fn ddim_step_chain_is_consistent() {
        // Stepping 700 → 300 with exact noise equals noising x0 at 300.
        let s = sched();
        let x0 = Tensor::randn(&[256], 5);
        let eps = Tensor::randn(&[256], 6);
        let xt = s.add_noise(&x0, &eps, 700).unwrap();
        let stepped = s.ddim_step(&xt, &eps, 700, Some(300)).unwrap();
        let direct = s.add_noise(&x0, &eps, 300).unwrap();
        assert!(stepped.max_abs_diff(&direct).unwrap() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_steps_panics() {
        let _ = NoiseSchedule::scaled_linear(0);
    }
}
