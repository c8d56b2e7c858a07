//! The exact integer arithmetic specification of quantized inference.
//!
//! Neural Cache assumes 8-bit quantized inputs and weights (Section IV) and
//! re-quantizes outputs after every layer by computing the min and max of
//! the layer's accumulator values in-cache, letting the CPU derive two
//! scalar integers, and applying multiply/add/shift in-cache (Section IV-D).
//!
//! This module pins down that arithmetic **exactly**, in one place, so the
//! plain-Rust reference executor and the bit-serial in-cache executor are
//! bit-identical by construction:
//!
//! - activations: `real = scale * (q - zero_point)`, `q: u8`;
//! - weights: same affine form per layer;
//! - accumulator (all integer, zero-point corrected):
//!   `ACC = S1 - zp_w*S2 - zp_a*W1(m) + N*zp_w*zp_a + bias(m)` where
//!   `S1 = sum(q_w * q_a)`, `S2 = sum(q_a)`, `W1(m) = sum(q_w)` per filter;
//! - requantization: `q_out = min((max(ACC - acc_min, 0) * M) >> SH, 255)`
//!   with `M`/`SH` chosen deterministically from the layer's accumulator
//!   range.

use std::fmt;

/// Affine quantization parameters of an activation tensor:
/// `real = scale * (q - zero_point)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActQuant {
    /// Real value of one quantization step.
    pub scale: f64,
    /// The `u8` code representing real zero.
    pub zero_point: i32,
}

impl ActQuant {
    /// Parameters covering the real range `[min, max]` with 256 levels.
    /// The range is widened to include zero so the zero point is exact.
    ///
    /// # Panics
    ///
    /// Panics if `min > max` or the values are not finite.
    #[must_use]
    pub fn from_range(min: f64, max: f64) -> Self {
        assert!(min.is_finite() && max.is_finite() && min <= max);
        let lo = min.min(0.0);
        let hi = max.max(0.0);
        let scale = ((hi - lo) / 255.0).max(f64::MIN_POSITIVE);
        let zero_point = (-lo / scale).round().clamp(0.0, 255.0) as i32;
        ActQuant { scale, zero_point }
    }

    /// Quantizes a real value (saturating).
    #[must_use]
    pub fn quantize(&self, real: f64) -> u8 {
        ((real / self.scale).round() + f64::from(self.zero_point)).clamp(0.0, 255.0) as u8
    }

    /// Dequantizes a code back to a real value.
    #[must_use]
    pub fn dequantize(&self, q: u8) -> f64 {
        self.scale * (f64::from(q) - f64::from(self.zero_point))
    }

    /// Zero-point-centered code interval: the exact integer range of
    /// `q - zero_point` over all 256 codes. This is the seed interval of
    /// the value-range abstract interpretation (`nc-verify::range`).
    #[must_use]
    pub fn centered_bounds(&self) -> (i64, i64) {
        (
            -i64::from(self.zero_point),
            255 - i64::from(self.zero_point),
        )
    }
}

impl Default for ActQuant {
    /// Unit scale, zero offset — raw byte semantics.
    fn default() -> Self {
        ActQuant {
            scale: 1.0,
            zero_point: 0,
        }
    }
}

/// Affine quantization parameters of a layer's weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightQuant {
    /// Real value of one quantization step.
    pub scale: f64,
    /// The `u8` code representing real zero.
    pub zero_point: i32,
}

impl WeightQuant {
    /// Parameters covering the real weight range `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max` or the values are not finite.
    #[must_use]
    pub fn from_range(min: f64, max: f64) -> Self {
        let a = ActQuant::from_range(min, max);
        WeightQuant {
            scale: a.scale,
            zero_point: a.zero_point,
        }
    }

    /// Quantizes a real weight (saturating).
    #[must_use]
    pub fn quantize(&self, real: f64) -> u8 {
        ((real / self.scale).round() + f64::from(self.zero_point)).clamp(0.0, 255.0) as u8
    }

    /// Zero-point-centered code interval of `q - zero_point` over all 256
    /// weight codes (see [`ActQuant::centered_bounds`]).
    #[must_use]
    pub fn centered_bounds(&self) -> (i64, i64) {
        (
            -i64::from(self.zero_point),
            255 - i64::from(self.zero_point),
        )
    }
}

impl Default for WeightQuant {
    fn default() -> Self {
        WeightQuant {
            scale: 1.0,
            zero_point: 0,
        }
    }
}

/// Largest multiplier the requantization pipeline may use; it must fit the
/// in-cache scalar multiplier (16 bits).
pub const MAX_MULTIPLIER: u32 = u16::MAX as u32;

/// Largest right shift of the requantization pipeline.
pub const MAX_SHIFT: u32 = 24;

/// The integer requantization of Section IV-D: maps a layer's accumulator
/// range onto `u8` using a subtract / multiply / shift / clamp pipeline that
/// the cache executes with bit-serial scalar ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Requantizer {
    /// Accumulator value mapped to output code 0 (subtracted first).
    pub acc_min: i64,
    /// Scalar multiplier (`<= MAX_MULTIPLIER`, computed by the CPU).
    pub multiplier: u32,
    /// Arithmetic right shift applied after the multiply.
    pub shift: u32,
}

impl Requantizer {
    /// Derives the multiplier and shift for accumulators in
    /// `[acc_min, acc_max]`, deterministically: the largest `shift <=
    /// MAX_SHIFT` whose multiplier `ceil(255 << shift / range)` fits
    /// [`MAX_MULTIPLIER`]. The ceiling guarantees `acc_max` maps to code
    /// 255; the saturating clamp in [`Requantizer::apply`] absorbs the
    /// (at most one-code) overshoot near the top of the range.
    ///
    /// # Panics
    ///
    /// Panics if `acc_min > acc_max`.
    #[must_use]
    pub fn from_range(acc_min: i64, acc_max: i64) -> Self {
        assert!(acc_min <= acc_max, "inverted accumulator range");
        let range = (acc_max - acc_min).max(1) as u128;
        let mut shift = MAX_SHIFT;
        let mut multiplier = (255u128 << shift).div_ceil(range);
        while multiplier > u128::from(MAX_MULTIPLIER) && shift > 0 {
            shift -= 1;
            multiplier = (255u128 << shift).div_ceil(range);
        }
        Requantizer {
            acc_min,
            multiplier: multiplier.min(u128::from(MAX_MULTIPLIER)) as u32,
            shift,
        }
    }

    /// Applies the pipeline to one accumulator value. This function *is* the
    /// specification: the in-cache executor reproduces it with `add_scalar`
    /// / `relu` / `mul_scalar` / row-slice shift / `clamp_max_scalar`.
    #[must_use]
    pub fn apply(&self, acc: i64) -> u8 {
        let d = (acc - self.acc_min).max(0) as u128;
        let q = (d * u128::from(self.multiplier)) >> self.shift;
        q.min(255) as u8
    }
}

impl fmt::Display for Requantizer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(acc - {}) * {} >> {}",
            self.acc_min, self.multiplier, self.shift
        )
    }
}

/// Integer re-quantization of an already-quantized `u8` tensor from one
/// affine domain to another (needed when a raw max-pool branch is
/// concatenated with re-quantized convolution branches in Mixed 6a/7a).
///
/// `q_out = clamp((q_in * m + c) >> sh)` with deterministic constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeRequant {
    /// Multiplier applied to the input code.
    pub m: i64,
    /// Additive constant (already scaled by `1 << sh`).
    pub c: i64,
    /// Right shift.
    pub sh: u32,
}

impl CodeRequant {
    /// Builds the mapping taking codes under `from` to codes under `to`
    /// (`real` value preserved up to rounding).
    #[must_use]
    pub fn between(from: ActQuant, to: ActQuant) -> Self {
        const SH: u32 = 16;
        let ratio = from.scale / to.scale;
        let m = (ratio * f64::from(1u32 << SH)).round() as i64;
        let c = ((f64::from(to.zero_point) - ratio * f64::from(from.zero_point))
            * f64::from(1u32 << SH))
        .round() as i64
            + (1 << (SH - 1)); // rounding bias
        CodeRequant { m, c, sh: SH }
    }

    /// Identity mapping (used when the domains already agree).
    #[must_use]
    pub fn identity() -> Self {
        CodeRequant { m: 1, c: 0, sh: 0 }
    }

    /// Applies the mapping to one code.
    #[must_use]
    pub fn apply(&self, q: u8) -> u8 {
        ((i64::from(q) * self.m + self.c) >> self.sh).clamp(0, 255) as u8
    }
}

/// Requantization plan of a standalone convolution layer: maps the measured
/// accumulator range to output codes and derives the next layer's
/// activation parameters.
///
/// `acc_scale` is `s_w * s_a`, the real value of one accumulator unit.
/// This function is the *single* source of the constants for both the
/// reference and the in-cache executor (bit-exactness by construction).
#[must_use]
pub fn conv_requant_plan(acc_min: i64, acc_max: i64, acc_scale: f64) -> (Requantizer, ActQuant) {
    let req = Requantizer::from_range(acc_min, acc_max);
    let range = (acc_max - acc_min).max(1) as f64;
    let scale = (acc_scale * range / 255.0).max(f64::MIN_POSITIVE);
    let zero_point = (-(acc_min as f64) * 255.0 / range)
        .round()
        .clamp(0.0, 255.0) as i32;
    (req, ActQuant { scale, zero_point })
}

/// Requantizer for one branch of a mixed block whose outputs must share the
/// block-wide real range `[r_min, r_max]` (Section IV computes min/max once
/// per layer, so concatenated branches share output quantization).
#[must_use]
pub fn branch_requantizer(r_min: f64, r_max: f64, acc_scale: f64) -> Requantizer {
    let amin = (r_min / acc_scale).floor() as i64;
    let amax = (r_max / acc_scale).ceil() as i64;
    Requantizer::from_range(amin, amax.max(amin))
}

/// Adds two accumulator terms, debug-asserting that the sum stays inside
/// `i64` (the widened reference executor must never silently wrap; release
/// builds keep the plain wrapping add for speed).
#[inline]
#[must_use]
pub fn acc_add(a: i64, b: i64) -> i64 {
    debug_assert!(
        a.checked_add(b).is_some(),
        "accumulator add {a} + {b} wraps i64"
    );
    a.wrapping_add(b)
}

/// Multiplies two accumulator terms, debug-asserting the product stays
/// inside `i64` (see [`acc_add`]).
#[inline]
#[must_use]
pub fn acc_mul(a: i64, b: i64) -> i64 {
    debug_assert!(
        a.checked_mul(b).is_some(),
        "accumulator multiply {a} * {b} wraps i64"
    );
    a.wrapping_mul(b)
}

/// Worst-case accumulator magnitude `n_taps * w_mag * a_mag + bias_mag`,
/// computed with checked arithmetic: `None` means the bound itself does not
/// fit `i64`, so the reference executor could wrap and no static interval
/// can certify the layer.
#[must_use]
pub fn checked_acc_bound(n_taps: i64, w_mag: i64, a_mag: i64, bias_mag: i64) -> Option<i64> {
    n_taps
        .checked_mul(w_mag)?
        .checked_mul(a_mag)?
        .checked_add(bias_mag)
}

/// Shared activation parameters of a mixed block's concatenated output.
#[must_use]
pub fn shared_out_quant(r_min: f64, r_max: f64) -> ActQuant {
    let scale = ((r_max - r_min) / 255.0).max(f64::MIN_POSITIVE);
    let zero_point = (-r_min / scale).round().clamp(0.0, 255.0) as i32;
    ActQuant { scale, zero_point }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn act_quant_roundtrip() {
        let q = ActQuant::from_range(-2.0, 6.0);
        assert_eq!(q.quantize(0.0), q.zero_point as u8);
        let code = q.quantize(3.0);
        assert!((q.dequantize(code) - 3.0).abs() < q.scale);
        // Saturation.
        assert_eq!(q.quantize(100.0), 255);
        assert_eq!(q.quantize(-100.0), 0);
    }

    #[test]
    fn act_quant_includes_zero() {
        let q = ActQuant::from_range(2.0, 6.0);
        assert_eq!(q.zero_point, 0, "range widened to include zero");
        let q = ActQuant::from_range(-6.0, -2.0);
        assert_eq!(q.zero_point, 255);
    }

    #[test]
    fn requantizer_maps_range_to_codes() {
        let r = Requantizer::from_range(-1000, 9000);
        assert_eq!(r.apply(-1000), 0);
        assert_eq!(r.apply(-5000), 0, "below min clamps (ReLU in-cache)");
        assert_eq!(r.apply(9000), 255);
        let mid = r.apply(4000);
        assert!((120..=130).contains(&mid), "midpoint ~127, got {mid}");
        // The clamp keeps every in-range value at the top code or below.
        for acc in (-1000..=9000).step_by(7) {
            let q = r.apply(acc);
            assert!(q == 255 || i64::from(q) <= (acc + 1000) / 39 + 1);
        }
    }

    #[test]
    fn requantizer_multiplier_fits_in_cache_constant() {
        for (lo, hi) in [
            (0, 1),
            (0, 255),
            (-7, 100_000),
            (-2_000_000_000, 2_000_000_000),
        ] {
            let r = Requantizer::from_range(lo, hi);
            assert!(r.multiplier <= MAX_MULTIPLIER);
            assert!(r.shift <= MAX_SHIFT);
            assert!(r.multiplier > 0);
        }
    }

    #[test]
    fn requantizer_is_monotone() {
        let r = Requantizer::from_range(-512, 131_072);
        let mut prev = 0u8;
        for acc in (-512..=131_072).step_by(97) {
            let q = r.apply(acc);
            assert!(q >= prev);
            prev = q;
        }
        assert_eq!(r.apply(131_072), 255, "the range max reaches the top code");
    }

    #[test]
    fn degenerate_range_is_total() {
        let r = Requantizer::from_range(42, 42);
        assert_eq!(r.apply(42), 0);
    }

    #[test]
    fn centered_bounds_cover_all_codes() {
        let a = ActQuant {
            scale: 0.5,
            zero_point: 100,
        };
        assert_eq!(a.centered_bounds(), (-100, 155));
        let w = WeightQuant {
            scale: 1.0,
            zero_point: 0,
        };
        assert_eq!(w.centered_bounds(), (0, 255));
    }

    #[test]
    fn checked_acc_bound_detects_i64_overflow() {
        assert_eq!(checked_acc_bound(9, 255, 255, 10), Some(9 * 255 * 255 + 10));
        assert_eq!(checked_acc_bound(i64::MAX, 2, 1, 0), None);
        assert_eq!(checked_acc_bound(1, 1, 1, i64::MAX), None);
    }

    #[test]
    fn acc_helpers_compute_exactly() {
        assert_eq!(acc_add(40, 2), 42);
        assert_eq!(acc_mul(-6, 7), -42);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "accumulator add")]
    fn acc_add_asserts_on_i64_wrap() {
        let _ = acc_add(i64::MAX, 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "accumulator multiply")]
    fn acc_mul_asserts_on_i64_wrap() {
        let _ = acc_mul(i64::MAX, 2);
    }

    #[test]
    fn code_requant_preserves_real_values() {
        let from = ActQuant::from_range(-1.0, 3.0);
        let to = ActQuant::from_range(-2.0, 6.0);
        let map = CodeRequant::between(from, to);
        for q in 0..=255u8 {
            let real = from.dequantize(q);
            let q2 = map.apply(q);
            let real2 = to.dequantize(q2);
            assert!((real - real2).abs() <= to.scale, "q={q}: {real} vs {real2}");
        }
        assert_eq!(CodeRequant::identity().apply(77), 77);
    }
}
