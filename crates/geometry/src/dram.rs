//! DRAM stream model for filter loading and batched output dumps.
//!
//! The paper measures fill time with a C micro-benchmark that walks the
//! exact sets needing data, profiled with `VTune` to separate DRAM-bound
//! cycles (Section V). That measurement collapses to an *effective fill
//! bandwidth*; this model exposes it as a parameter calibrated so filter
//! loading lands at the paper's reported ~46% share of inference time
//! (Figure 14).

use crate::SimTime;

/// Effective-bandwidth DRAM stream model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramModel {
    /// Sustained effective bandwidth of streaming fills, bytes/second.
    ///
    /// Default 11 GB/s: a single-socket DDR4 stream through the cache-fill
    /// path with set-walking overheads, calibrated to the paper's filter
    /// loading share.
    pub bandwidth_bytes_per_sec: f64,
    /// First-access latency added per stream, seconds.
    pub latency_s: f64,
}

impl DramModel {
    /// The calibrated operating point used for all paper-figure runs.
    #[must_use]
    pub const fn paper_calibrated() -> Self {
        DramModel {
            bandwidth_bytes_per_sec: 11.0e9,
            latency_s: 80e-9,
        }
    }

    /// Time to stream `bytes` from (or to) DRAM.
    #[must_use]
    pub fn stream_time(&self, bytes: usize) -> SimTime {
        if bytes == 0 {
            return SimTime::ZERO;
        }
        SimTime::from_secs(self.latency_s + bytes as f64 / self.bandwidth_bytes_per_sec)
    }

    /// Time to dump `bytes` to DRAM and read them back (the batched-output
    /// overflow path of Section IV-E).
    #[must_use]
    pub fn round_trip_time(&self, bytes: usize) -> SimTime {
        self.stream_time(bytes) + self.stream_time(bytes)
    }
}

impl Default for DramModel {
    fn default() -> Self {
        DramModel::paper_calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_time_is_latency_plus_bandwidth() {
        let d = DramModel::paper_calibrated();
        let t = d.stream_time(11_000_000); // 11 MB at 11 GB/s = 1 ms
        assert!((t.as_millis_f64() - 1.00008).abs() < 1e-4);
        assert_eq!(d.stream_time(0), SimTime::ZERO);
    }

    #[test]
    fn round_trip_doubles() {
        let d = DramModel::paper_calibrated();
        let one = d.stream_time(1 << 20);
        let two = d.round_trip_time(1 << 20);
        assert!((two.as_secs_f64() - 2.0 * one.as_secs_f64()).abs() < 1e-15);
    }

    #[test]
    fn inception_filter_load_in_paper_ballpark() {
        // Inception v3's ~23.7 MB of 8-bit filters should take ~2.2 ms,
        // i.e. the ~46% share of the 4.72 ms inference the paper reports.
        let d = DramModel::paper_calibrated();
        let t = d.stream_time(23_700_000);
        assert!((t.as_millis_f64() - 2.15).abs() < 0.1, "got {t}");
    }
}
