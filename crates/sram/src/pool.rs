//! A thread-safe recycling pool of [`ComputeArray`]s.
//!
//! The functional executor stands up one fresh 8KB array per
//! MAC/reduce/assemble/requantize run — millions of 256x256-bit allocations
//! over an Inception-class execution. In hardware the arrays are of course
//! the same physical SRAM on every pass; the pool mirrors that by handing
//! out *cleared* arrays and reclaiming them when the checkout handle drops,
//! so the hot path stops paying the allocator. It is `Sync`, so the worker
//! threads of a sharded execution engine can draw from one shared pool. It
//! counts checkouts and returns ([`PoolStats`]) so every run can report its
//! pool events.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::{ComputeArray, Result};

/// A monotonic snapshot of one [`ArrayPool`]'s checkout events.
///
/// The counters record the pool's whole lifetime, so a caller can diff two
/// snapshots around a region of interest. Both are deterministic for a
/// given workload, whatever the thread timing: each shard job checks out a
/// fixed number of arrays and its handles drop when the job ends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total [`ArrayPool::acquire`] calls.
    pub acquires: u64,
    /// Total handle drops that returned an array to the pool's release
    /// path (whether retained or dropped over the idle cap).
    pub releases: u64,
}

/// A recycling pool of [`ComputeArray`]s sharing one zero-row configuration.
///
/// # Examples
///
/// ```
/// use nc_sram::{ArrayPool, Operand};
///
/// let pool = ArrayPool::with_zero_row(255)?;
/// let op = Operand::new(0, 8)?;
/// {
///     let mut arr = pool.acquire();
///     arr.poke_lane(0, op, 42);
///     assert_eq!(arr.peek_lane(0, op), 42);
/// } // handle drops: the array is cleared and returned to the pool
/// let arr = pool.acquire(); // recycled, not reallocated
/// assert_eq!(arr.peek_lane(0, op), 0);
/// # Ok::<(), nc_sram::SramError>(())
/// ```
#[derive(Debug)]
pub struct ArrayPool {
    zero_row: Option<usize>,
    free: Mutex<Vec<ComputeArray>>,
    // Relaxed counters behind [`PoolStats`]: monotone tallies read after
    // the workers' scoped join, which already synchronizes.
    acquires: AtomicU64,
    releases: AtomicU64,
}

impl ArrayPool {
    /// Cap on retained idle arrays: arrays released beyond it are dropped
    /// instead of pooled.
    ///
    /// A bursty threaded run briefly checks out one array per in-flight
    /// shard job; without a cap every array of the burst would sit idle
    /// (8KB+ each) for the rest of the process. 64 comfortably covers the
    /// steady-state working set of the sharded executor (a few arrays per
    /// worker thread) while bounding retained memory to ~0.5 MB.
    pub const DEFAULT_MAX_IDLE: usize = 64;

    /// Creates an empty pool of arrays without a dedicated zero row.
    #[must_use]
    pub fn new() -> Self {
        ArrayPool {
            zero_row: None,
            free: Mutex::new(Vec::new()),
            acquires: AtomicU64::new(0),
            releases: AtomicU64::new(0),
        }
    }

    /// Creates a pool whose arrays all reserve `row` as the dedicated
    /// all-zero row (validated eagerly on a probe array).
    ///
    /// # Errors
    ///
    /// Returns [`crate::SramError::RowOutOfRange`] if `row` is out of range.
    pub fn with_zero_row(row: usize) -> Result<Self> {
        let probe = ComputeArray::with_zero_row(row)?;
        Ok(ArrayPool {
            zero_row: Some(row),
            free: Mutex::new(vec![probe]),
            ..ArrayPool::new()
        })
    }

    /// Checks an array out of the pool, recycling a cleared one when
    /// available and constructing a fresh one otherwise. The returned
    /// handle dereferences to [`ComputeArray`] and returns the array to the
    /// pool when dropped.
    #[must_use]
    pub fn acquire(&self) -> PooledArray<'_> {
        let recycled = self.free.lock().expect("array pool poisoned").pop();
        self.acquires.fetch_add(1, Ordering::Relaxed);
        let arr = recycled.unwrap_or_else(|| self.fresh());
        PooledArray {
            arr: Some(arr),
            pool: self,
        }
    }

    /// A snapshot of the pool's lifetime checkout event counters.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            acquires: self.acquires.load(Ordering::Relaxed),
            releases: self.releases.load(Ordering::Relaxed),
        }
    }

    /// Number of idle arrays currently held by the pool.
    ///
    /// # Panics
    ///
    /// Panics if a previous user of the pool panicked while holding the lock.
    #[must_use]
    pub fn idle(&self) -> usize {
        self.free.lock().expect("array pool poisoned").len()
    }

    fn fresh(&self) -> ComputeArray {
        match self.zero_row {
            Some(row) => ComputeArray::with_zero_row(row).expect("row validated at pool creation"),
            None => ComputeArray::new(),
        }
    }

    fn release(&self, mut arr: ComputeArray) {
        // Reset outside the lock: the 8KB clear is the expensive part and
        // must not serialize concurrent releasers (a wasted reset on an
        // over-cap array that gets dropped below is harmless).
        arr.reset();
        self.releases.fetch_add(1, Ordering::Relaxed);
        let mut free = self.free.lock().expect("array pool poisoned");
        // At the retention cap the array is simply dropped.
        if free.len() < Self::DEFAULT_MAX_IDLE {
            free.push(arr);
        }
    }
}

impl Default for ArrayPool {
    fn default() -> Self {
        ArrayPool::new()
    }
}

/// A checked-out array; dereferences to [`ComputeArray`] and returns the
/// (cleared) array to its [`ArrayPool`] on drop.
#[derive(Debug)]
pub struct PooledArray<'p> {
    arr: Option<ComputeArray>,
    pool: &'p ArrayPool,
}

impl Deref for PooledArray<'_> {
    type Target = ComputeArray;
    fn deref(&self) -> &ComputeArray {
        self.arr.as_ref().expect("array present until drop")
    }
}

impl DerefMut for PooledArray<'_> {
    fn deref_mut(&mut self) -> &mut ComputeArray {
        self.arr.as_mut().expect("array present until drop")
    }
}

impl Drop for PooledArray<'_> {
    fn drop(&mut self) {
        if let Some(arr) = self.arr.take() {
            self.pool.release(arr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Operand;

    #[test]
    fn recycles_instead_of_reallocating() {
        let pool = ArrayPool::with_zero_row(255).unwrap();
        assert_eq!(pool.idle(), 1, "probe array is retained");
        {
            let _a = pool.acquire();
            let _b = pool.acquire();
            assert_eq!(pool.idle(), 0);
        }
        assert_eq!(pool.idle(), 2, "both handles returned their arrays");
        {
            let _a = pool.acquire();
            assert_eq!(pool.idle(), 1, "second array stays pooled");
        }
    }

    #[test]
    fn recycled_arrays_come_back_clean() {
        let pool = ArrayPool::with_zero_row(255).unwrap();
        let op = Operand::new(0, 16).unwrap();
        {
            let mut arr = pool.acquire();
            arr.poke_lane(7, op, 0xBEEF);
            arr.preset_tag(true);
            arr.preset_carry(true);
            let other = Operand::new(16, 16).unwrap();
            let scratch = Operand::new(32, 17).unwrap();
            arr.poke_lane(7, other, 1);
            arr.add(op, other, scratch).unwrap();
            assert!(arr.stats().compute_cycles > 0);
        }
        let arr = pool.acquire();
        assert_eq!(arr.peek_lane(7, op), 0, "cells cleared");
        assert!(!arr.tag().get(7), "tag latches cleared");
        assert!(!arr.carry().get(7), "carry latches cleared");
        assert_eq!(arr.stats().total_cycles(), 0, "stats cleared");
        assert_eq!(arr.zero_row(), Some(255), "zero row preserved");
    }

    #[test]
    fn idle_retention_is_capped() {
        let pool = ArrayPool::with_zero_row(255).unwrap();
        let cap = ArrayPool::DEFAULT_MAX_IDLE;
        {
            // A burst of concurrent checkouts past the cap...
            let _burst: Vec<_> = (0..cap + 5).map(|_| pool.acquire()).collect();
            assert_eq!(pool.idle(), 0);
        }
        // ...must not leave every array of the burst idle forever.
        assert_eq!(pool.idle(), cap, "retention capped at DEFAULT_MAX_IDLE");
        // The pool still recycles within the cap.
        {
            let _a = pool.acquire();
            assert_eq!(pool.idle(), cap - 1);
        }
        assert_eq!(pool.idle(), cap);
    }

    #[test]
    fn default_cap_bounds_bursty_threaded_runs() {
        let pool = ArrayPool::with_zero_row(255).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let pool = &pool;
                scope.spawn(move || {
                    let _burst: Vec<_> = (0..32).map(|_| pool.acquire()).collect();
                });
            }
        });
        assert!(
            pool.idle() <= ArrayPool::DEFAULT_MAX_IDLE,
            "idle {} exceeds the default cap",
            pool.idle()
        );
    }

    #[test]
    fn stats_track_checkout_and_recycle_events() {
        let pool = ArrayPool::with_zero_row(255).unwrap();
        assert_eq!(pool.stats(), PoolStats::default(), "fresh pool is silent");
        {
            let _a = pool.acquire(); // recycles the probe array
            let _b = pool.acquire(); // constructs fresh
            let expected = PoolStats {
                acquires: 2,
                releases: 0,
            };
            assert_eq!(pool.stats(), expected);
        }
        assert_eq!(pool.stats().releases, 2, "both handles released");
        // Releases past the idle cap drop the array but still count.
        let burst: Vec<_> = (0..=ArrayPool::DEFAULT_MAX_IDLE)
            .map(|_| pool.acquire())
            .collect();
        drop(burst);
        let s = pool.stats();
        assert_eq!(s.acquires, s.releases);
        assert_eq!(s.acquires, 3 + ArrayPool::DEFAULT_MAX_IDLE as u64);
    }

    #[test]
    fn stats_are_deterministic_across_thread_counts() {
        // acquires/releases depend only on the job structure, not on
        // scheduling — the property the executed pool-event checks rest
        // on.
        let totals: Vec<(u64, u64)> = [1usize, 4]
            .iter()
            .map(|&workers| {
                let pool = ArrayPool::with_zero_row(255).unwrap();
                std::thread::scope(|scope| {
                    for _ in 0..workers {
                        let pool = &pool;
                        scope.spawn(move || {
                            for _ in 0..(64 / workers) {
                                let _arr = pool.acquire();
                            }
                        });
                    }
                });
                let s = pool.stats();
                (s.acquires, s.releases)
            })
            .collect();
        assert_eq!(totals[0], (64, 64));
        assert_eq!(totals[0], totals[1]);
    }

    #[test]
    fn pool_without_zero_row_hands_out_plain_arrays() {
        let pool = ArrayPool::new();
        let arr = pool.acquire();
        assert_eq!(arr.zero_row(), None);
    }

    #[test]
    fn pool_is_shareable_across_threads() {
        let pool = ArrayPool::with_zero_row(255).unwrap();
        let op = Operand::new(0, 8).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let pool = &pool;
                scope.spawn(move || {
                    for i in 0..8 {
                        let mut arr = pool.acquire();
                        arr.poke_lane(0, op, (t + i) % 256);
                        assert_eq!(arr.peek_lane(0, op), (t + i) % 256);
                    }
                });
            }
        });
        assert!(pool.idle() >= 1);
    }
}
