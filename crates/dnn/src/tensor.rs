//! Quantized activation tensors and integer accumulator tensors.

use std::fmt;

use crate::{ActQuant, Shape};

/// An 8-bit quantized activation tensor in HWC layout with its affine
/// parameters.
///
/// # Examples
///
/// ```
/// use nc_dnn::{ActQuant, QTensor, Shape};
///
/// let t = QTensor::from_fn(Shape::new(2, 2, 3), ActQuant::default(), |y, x, c| {
///     (y * 6 + x * 3 + c) as u8
/// });
/// assert_eq!(t.get(1, 1, 2), 11);
/// ```
#[derive(Clone, PartialEq)]
pub struct QTensor {
    shape: Shape,
    data: Vec<u8>,
    params: ActQuant,
}

impl QTensor {
    /// Creates a tensor filled with the zero-point code (real value zero).
    #[must_use]
    pub fn zeros(shape: Shape, params: ActQuant) -> Self {
        QTensor {
            shape,
            data: vec![params.zero_point.clamp(0, 255) as u8; shape.len()],
            params,
        }
    }

    /// Creates a tensor by evaluating `f(y, x, c)` over the shape.
    #[must_use]
    pub fn from_fn(
        shape: Shape,
        params: ActQuant,
        mut f: impl FnMut(usize, usize, usize) -> u8,
    ) -> Self {
        let mut data = Vec::with_capacity(shape.len());
        for y in 0..shape.h {
            for x in 0..shape.w {
                for c in 0..shape.c {
                    data.push(f(y, x, c));
                }
            }
        }
        QTensor {
            shape,
            data,
            params,
        }
    }

    /// Wraps raw HWC data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.len()`.
    #[must_use]
    pub fn from_vec(shape: Shape, params: ActQuant, data: Vec<u8>) -> Self {
        assert_eq!(data.len(), shape.len(), "data length must match shape");
        QTensor {
            shape,
            data,
            params,
        }
    }

    /// Tensor shape.
    #[must_use]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Quantization parameters.
    #[must_use]
    pub fn params(&self) -> ActQuant {
        self.params
    }

    /// Raw HWC bytes.
    #[must_use]
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Code at `(y, x, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[must_use]
    #[inline]
    pub fn get(&self, y: usize, x: usize, c: usize) -> u8 {
        self.data[self.shape.index(y, x, c)]
    }

    /// Code at `(y, x, c)`, or the zero-point code for out-of-bounds
    /// coordinates — the padding semantics of quantized SAME convolution
    /// (padding contributes real zero).
    #[must_use]
    #[inline]
    pub fn get_padded(&self, y: isize, x: isize, c: usize) -> u8 {
        if y < 0 || x < 0 || y as usize >= self.shape.h || x as usize >= self.shape.w {
            self.params.zero_point.clamp(0, 255) as u8
        } else {
            self.get(y as usize, x as usize, c)
        }
    }

    /// Sets the code at `(y, x, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn set(&mut self, y: usize, x: usize, c: usize, q: u8) {
        let idx = self.shape.index(y, x, c);
        self.data[idx] = q;
    }

    /// Dequantized real value at `(y, x, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[must_use]
    pub fn real(&self, y: usize, x: usize, c: usize) -> f64 {
        self.params.dequantize(self.get(y, x, c))
    }
}

impl fmt::Debug for QTensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "QTensor {{ shape: {}, scale: {:.4e}, zero_point: {} }}",
            self.shape, self.params.scale, self.params.zero_point
        )
    }
}

/// A tensor of signed integer accumulators (one per output element of a
/// convolution sub-layer, before requantization).
#[derive(Clone, PartialEq, Eq)]
pub struct AccTensor {
    shape: Shape,
    data: Vec<i64>,
}

impl AccTensor {
    /// Creates a zeroed accumulator tensor.
    #[must_use]
    pub fn zeros(shape: Shape) -> Self {
        AccTensor {
            shape,
            data: vec![0; shape.len()],
        }
    }

    /// Tensor shape.
    #[must_use]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Accumulator at `(y, x, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[must_use]
    #[inline]
    pub fn get(&self, y: usize, x: usize, c: usize) -> i64 {
        self.data[self.shape.index(y, x, c)]
    }

    /// Sets the accumulator at `(y, x, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn set(&mut self, y: usize, x: usize, c: usize, v: i64) {
        let idx = self.shape.index(y, x, c);
        self.data[idx] = v;
    }

    /// All accumulator values.
    #[must_use]
    pub fn data(&self) -> &[i64] {
        &self.data
    }

    /// Minimum and maximum accumulator values (the in-cache min/max
    /// reduction of the quantization step computes exactly this).
    #[must_use]
    pub fn min_max(&self) -> (i64, i64) {
        let mut min = i64::MAX;
        let mut max = i64::MIN;
        for &v in &self.data {
            min = min.min(v);
            max = max.max(v);
        }
        (min, max)
    }

    /// Applies `ReLU` in the accumulator domain (real zero is accumulator
    /// zero, so `max(acc, 0)` is exact).
    pub fn relu(&mut self) {
        for v in &mut self.data {
            *v = (*v).max(0);
        }
    }
}

impl fmt::Debug for AccTensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (min, max) = if self.data.is_empty() {
            (0, 0)
        } else {
            self.min_max()
        };
        write!(
            f,
            "AccTensor {{ shape: {}, min: {min}, max: {max} }}",
            self.shape
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qtensor_roundtrip() {
        let shape = Shape::new(3, 4, 2);
        let mut t = QTensor::zeros(shape, ActQuant::from_range(-1.0, 1.0));
        t.set(2, 3, 1, 200);
        assert_eq!(t.get(2, 3, 1), 200);
        assert_eq!(t.data().len(), 24);
    }

    #[test]
    fn padding_returns_zero_point() {
        let params = ActQuant::from_range(-1.0, 1.0);
        let t = QTensor::zeros(Shape::new(2, 2, 1), params);
        let zp = params.zero_point as u8;
        assert_eq!(t.get_padded(-1, 0, 0), zp);
        assert_eq!(t.get_padded(0, 5, 0), zp);
        assert_eq!(t.get_padded(1, 1, 0), zp, "in-bounds zeros are zp too");
        assert!((t.params().dequantize(t.get_padded(-1, -1, 0))).abs() < params.scale);
    }

    #[test]
    fn acc_tensor_min_max_and_relu() {
        let mut a = AccTensor::zeros(Shape::new(1, 1, 4));
        a.set(0, 0, 0, -50);
        a.set(0, 0, 1, 7);
        a.set(0, 0, 2, 1000);
        assert_eq!(a.min_max(), (-50, 1000));
        a.relu();
        assert_eq!(a.min_max(), (0, 1000));
        assert_eq!(a.get(0, 0, 0), 0);
        assert_eq!(a.get(0, 0, 1), 7);
    }

    #[test]
    fn from_fn_order_is_hwc() {
        let t = QTensor::from_fn(Shape::new(2, 2, 2), ActQuant::default(), |y, x, c| {
            (y * 100 + x * 10 + c) as u8
        });
        assert_eq!(t.data()[0], 0);
        assert_eq!(t.data()[1], 1);
        assert_eq!(t.data()[2], 10);
        assert_eq!(t.data()[7], 111);
    }
}
