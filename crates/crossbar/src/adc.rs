//! Sense-amplifier / ADC model.
//!
//! Source-line currents are digitised before the SA logic combines them
//! (paper Fig. 3b/c: `ADC` + `S&A` blocks). A uniform quantizer with a
//! configurable bit width models the conversion; the ideal variant passes
//! currents through unchanged (used for ablations).

use crate::error::CrossbarError;

/// Analog-to-digital conversion applied to every crossbar read.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AdcSpec {
    /// Infinite-precision conversion (ablation baseline).
    #[default]
    Ideal,
    /// Uniform mid-tread quantizer with `bits` resolution over
    /// `[0, full_scale]`; inputs are clamped to the range.
    Uniform {
        /// Resolution in bits (1..=24).
        bits: u32,
        /// Full-scale input current (A).
        full_scale: f64,
    },
}

impl AdcSpec {
    /// Creates a uniform quantizer, validating parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidConfig`] for `bits` outside
    /// `1..=24` or a non-positive full scale.
    pub fn uniform(bits: u32, full_scale: f64) -> Result<Self, CrossbarError> {
        if !(1..=24).contains(&bits) {
            return Err(CrossbarError::InvalidConfig(format!(
                "ADC bits {bits} outside 1..=24"
            )));
        }
        if full_scale <= 0.0 || !full_scale.is_finite() {
            return Err(CrossbarError::InvalidConfig(
                "ADC full scale must be positive".into(),
            ));
        }
        Ok(AdcSpec::Uniform { bits, full_scale })
    }

    /// Converts an input current to its quantized representation.
    pub fn convert(&self, current: f64) -> f64 {
        match *self {
            AdcSpec::Ideal => current,
            AdcSpec::Uniform { bits, full_scale } => {
                let levels = (1u64 << bits) as f64 - 1.0;
                let clamped = current.clamp(0.0, full_scale);
                let code = (clamped / full_scale * levels).round();
                code / levels * full_scale
            }
        }
    }

    /// Least-significant-bit step size (0 for the ideal ADC).
    pub fn lsb(&self) -> f64 {
        match *self {
            AdcSpec::Ideal => 0.0,
            AdcSpec::Uniform { bits, full_scale } => full_scale / ((1u64 << bits) as f64 - 1.0),
        }
    }
}

/// Multiply-form ADC quantizer, the conversion of every bi-crossbar
/// read: the reciprocals of [`AdcSpec::convert`]'s divisions are fixed
/// per array, so a conversion (one per action per SA proposal) is two
/// multiplies and a round instead of two `fdiv`s.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Quantizer {
    Ideal,
    Uniform {
        to_code: f64,
        from_code: f64,
        full_scale: f64,
    },
}

impl Quantizer {
    pub(crate) fn from_spec(spec: &AdcSpec) -> Self {
        match *spec {
            AdcSpec::Ideal => Quantizer::Ideal,
            AdcSpec::Uniform { bits, full_scale } => {
                let levels = (1u64 << bits) as f64 - 1.0;
                Quantizer::Uniform {
                    to_code: levels / full_scale,
                    from_code: full_scale / levels,
                    full_scale,
                }
            }
        }
    }

    /// The quantized current of `current`.
    #[inline]
    pub(crate) fn convert(&self, current: f64) -> f64 {
        match *self {
            Quantizer::Ideal => current,
            Quantizer::Uniform {
                to_code,
                from_code,
                full_scale,
            } => (current.clamp(0.0, full_scale) * to_code).round() * from_code,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_passthrough() {
        let a = AdcSpec::Ideal;
        assert_eq!(a.convert(1.234e-6), 1.234e-6);
        assert_eq!(a.lsb(), 0.0);
    }

    #[test]
    fn uniform_quantizes_within_half_lsb() {
        let a = AdcSpec::uniform(8, 1e-3).unwrap();
        let lsb = a.lsb();
        for k in 0..100 {
            let x = k as f64 * 1e-5 + 3.3e-7;
            let y = a.convert(x);
            assert!((x - y).abs() <= lsb / 2.0 + 1e-18, "x={x}, y={y}");
        }
    }

    #[test]
    fn clamps_out_of_range() {
        let a = AdcSpec::uniform(4, 1.0).unwrap();
        assert_eq!(a.convert(2.0), 1.0);
        assert_eq!(a.convert(-0.5), 0.0);
    }

    #[test]
    fn endpoints_are_exact() {
        let a = AdcSpec::uniform(6, 1.0).unwrap();
        assert_eq!(a.convert(0.0), 0.0);
        assert_eq!(a.convert(1.0), 1.0);
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(AdcSpec::uniform(0, 1.0).is_err());
        assert!(AdcSpec::uniform(25, 1.0).is_err());
        assert!(AdcSpec::uniform(8, 0.0).is_err());
        assert!(AdcSpec::uniform(8, f64::NAN).is_err());
    }

    #[test]
    fn more_bits_less_error() {
        let x = 0.123456;
        let e4 = (AdcSpec::uniform(4, 1.0).unwrap().convert(x) - x).abs();
        let e12 = (AdcSpec::uniform(12, 1.0).unwrap().convert(x) - x).abs();
        assert!(e12 < e4);
    }
}
