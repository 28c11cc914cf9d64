//! Range calibration for post-training quantization: observe activations on
//! calibration data, then freeze [`QParams`].

use bconv_tensor::Tensor;

use crate::QParams;

/// Accumulates activation ranges over calibration batches.
///
/// Two policies are provided: absolute maximum (robust default) and an
/// exponential moving average of per-batch maxima (smoother, the policy
/// used by training-aware quantization frameworks such as Distiller).
#[derive(Debug, Clone)]
pub struct Calibrator {
    abs_max: f32,
    ema: Option<f32>,
    ema_decay: f32,
    observations: usize,
}

impl Calibrator {
    /// New calibrator with EMA decay 0.9.
    pub fn new() -> Self {
        Self { abs_max: 0.0, ema: None, ema_decay: 0.9, observations: 0 }
    }

    /// New calibrator with a custom EMA decay in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `decay` is not in `(0, 1)`.
    pub fn with_ema_decay(decay: f32) -> Self {
        assert!(decay > 0.0 && decay < 1.0, "decay must be in (0,1)");
        Self { ema_decay: decay, ..Self::new() }
    }

    /// Observes one batch of activations.
    pub fn observe(&mut self, t: &Tensor) {
        let batch_max = t.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        self.abs_max = self.abs_max.max(batch_max);
        self.ema = Some(match self.ema {
            None => batch_max,
            Some(e) => e * self.ema_decay + batch_max * (1.0 - self.ema_decay),
        });
        self.observations += 1;
    }

    /// Number of observed batches.
    pub fn observations(&self) -> usize {
        self.observations
    }

    /// The largest absolute value observed so far (`0.0` before any
    /// observation). Infinite once any observed value was `±Inf`, which no
    /// [`QParams`] can represent.
    pub fn abs_max(&self) -> f32 {
        self.abs_max
    }

    /// Freezes parameters using the absolute maximum seen.
    ///
    /// Returns `None` if nothing was observed or all data was zero.
    pub fn finalize_abs_max(&self, bits: u8) -> Option<QParams> {
        (self.abs_max > 0.0).then(|| QParams::from_abs_max(self.abs_max, bits))
    }

    /// Freezes parameters using the EMA of per-batch maxima.
    ///
    /// Returns `None` if nothing was observed or the EMA is zero.
    pub fn finalize_ema(&self, bits: u8) -> Option<QParams> {
        match self.ema {
            Some(e) if e > 0.0 => Some(QParams::from_abs_max(e, bits)),
            _ => None,
        }
    }
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abs_max_tracks_the_global_maximum() {
        let mut c = Calibrator::new();
        c.observe(&Tensor::filled([1, 1, 2, 2], 0.5));
        c.observe(&Tensor::filled([1, 1, 2, 2], -2.0));
        c.observe(&Tensor::filled([1, 1, 2, 2], 1.0));
        let q = c.finalize_abs_max(8).unwrap();
        assert!((q.scale() - 2.0 / 127.0).abs() < 1e-7);
        assert_eq!(c.observations(), 3);
    }

    #[test]
    fn ema_is_smoother_than_abs_max() {
        let mut c = Calibrator::with_ema_decay(0.5);
        c.observe(&Tensor::filled([1, 1, 2, 2], 1.0));
        c.observe(&Tensor::filled([1, 1, 2, 2], 100.0)); // outlier
        c.observe(&Tensor::filled([1, 1, 2, 2], 1.0));
        let abs = c.finalize_abs_max(8).unwrap();
        let ema = c.finalize_ema(8).unwrap();
        assert!(ema.scale() < abs.scale(), "EMA should discount the outlier");
    }

    #[test]
    fn empty_calibrator_finalizes_to_none() {
        let c = Calibrator::new();
        assert!(c.finalize_abs_max(8).is_none());
        assert!(c.finalize_ema(8).is_none());
    }

    #[test]
    fn all_zero_data_finalizes_to_none() {
        let mut c = Calibrator::new();
        c.observe(&Tensor::zeros([1, 1, 2, 2]));
        assert!(c.finalize_abs_max(8).is_none());
    }

    #[test]
    #[should_panic(expected = "decay must be in (0,1)")]
    fn bad_decay_panics() {
        let _ = Calibrator::with_ema_decay(1.0);
    }
}
