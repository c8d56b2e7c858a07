//! A fixed calibration kernel that measures the host, not the program.
//!
//! The benchmark host is shared: within minutes the same code runs up to
//! ~1.9x slower while co-tenants are busy, and a slow spell can last a whole
//! run. End-to-end host times are therefore scaled to a reference host
//! speed, using this kernel timed right before each unit of work. The
//! kernel is the benchmark's own code, so a change to the program moves the
//! unit's time but not the kernel's, while a change in host speed moves
//! both.
//!
//! The kernel resembles the simulator's hot path: bit-serial ripple-carry
//! multiply-accumulate over 256-lane bit-plane rows held as `[u64; 4]`, with
//! per-lane bit pokes and peeks.

use std::hint::black_box;
use std::time::Instant;

use crate::report::median;

/// The reference host speed: the one at which [`kernel`] takes this many
/// milliseconds (about an idle host of the benchmark's type).
pub const REF_KERNEL_MS: f64 = 0.5;

/// Kernel samples on each side of the one timed just before a unit that the
/// unit's speed factor uses: with 1, the kernels just before and just after
/// the unit and the one before the previous unit. A wider window follows
/// short slow spells less closely and left the tail twice as noisy.
const HALF_WINDOW: usize = 1;

/// Kernel timings taken next to the units of one run.
#[derive(Debug, Default)]
pub struct Calibration {
    kernel_ms: Vec<f64>,
}

impl Calibration {
    /// Times one kernel call; returns the new sample's index.
    pub fn sample(&mut self) -> usize {
        let t = Instant::now();
        black_box(kernel());
        self.kernel_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.kernel_ms.len() - 1
    }

    /// How much slower than the reference the host ran around sample `i`:
    /// the median of the kernel timings within [`HALF_WINDOW`] samples of
    /// it, over [`REF_KERNEL_MS`]. A host time divided by this factor is
    /// the time at the reference speed.
    #[must_use]
    pub fn factor(&self, i: usize) -> f64 {
        let lo = i.saturating_sub(HALF_WINDOW);
        let hi = (i + HALF_WINDOW + 1).min(self.kernel_ms.len());
        median(&self.kernel_ms[lo..hi]).unwrap_or(f64::NAN) / REF_KERNEL_MS
    }

    /// Median kernel time of the run, ms.
    #[must_use]
    pub fn median_ms(&self) -> f64 {
        median(&self.kernel_ms).unwrap_or(f64::NAN)
    }
}

const LANES_WORDS: usize = 4;
type Row = [u64; LANES_WORDS];

/// Multiply-accumulate rounds per kernel call (about [`REF_KERNEL_MS`] on an
/// idle host of the benchmark's type).
const ROUNDS: usize = 320;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Runs the kernel once and returns a checksum (so nothing is elided).
#[must_use]
pub fn kernel() -> u64 {
    let mut state = black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut rows = vec![[0u64; LANES_WORDS]; 64];
    for row in rows.iter_mut().take(16) {
        for w in row.iter_mut() {
            *w = xorshift(&mut state);
        }
    }
    let mut checksum = 0u64;
    for round in 0..ROUNDS {
        // Per-lane pokes of a fresh multiplicand byte into rows 0..8.
        for lane in 0..LANES_WORDS * 64 {
            let byte = xorshift(&mut state) as u8;
            for (bit, row) in rows.iter_mut().take(8).enumerate() {
                let word = &mut row[lane / 64];
                let mask = 1u64 << (lane % 64);
                if byte >> bit & 1 == 1 {
                    *word |= mask;
                } else {
                    *word &= !mask;
                }
            }
        }
        // 8x8 bit-serial multiply into rows 16..32, one predicated
        // ripple-carry add per multiplier bit (rows 8..16).
        for j in 0..8 {
            let tag: Row = rows[8 + j];
            let mut carry: Row = [0; LANES_WORDS];
            for i in 0..8 {
                let a = rows[i];
                let p = &mut rows[16 + i + j];
                for w in 0..LANES_WORDS {
                    let sum = a[w] ^ p[w] ^ carry[w];
                    let c = (a[w] & p[w]) | (carry[w] & (a[w] ^ p[w]));
                    p[w] = (sum & tag[w]) | (p[w] & !tag[w]);
                    carry[w] = c & tag[w];
                }
            }
        }
        // Per-lane peek of one product row.
        let row = rows[16 + round % 16];
        for lane in 0..LANES_WORDS * 64 {
            checksum = checksum.wrapping_add(row[lane / 64] >> (lane % 64) & 1);
        }
    }
    black_box(checksum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_the_windowed_median_over_the_reference() {
        let c = Calibration {
            kernel_ms: vec![0.5, 0.5, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        };
        // The window is clipped at both ends of the run.
        assert_eq!(c.factor(0), 1.0);
        assert_eq!(c.factor(11), 2.0);
        // Around the switch the median follows the majority of the window.
        assert_eq!(c.factor(4), 1.0);
        assert_eq!(c.factor(5), 2.0);
        assert_eq!(c.median_ms(), 1.0);
    }

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }
}
