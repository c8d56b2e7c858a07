//! SLO-adaptive dynamic batching: how many waiting requests the admission
//! queue hands a free slice, costed through the plan-once
//! [`BatchCostModel`].

use nc_geometry::SimTime;
use neural_cache::BatchCostModel;

/// Work-conserving SLO-aware adaptive sizing, evaluated whenever a slice is
/// free and the queue is non-empty: dispatch immediately, choosing the
/// largest batch (up to `max_batch`) whose estimated completion on this
/// slice (a `cold` slice pays the one-time filter load) still meets the
/// oldest request's latency `slo`; when even a single-image batch would
/// miss, salvage throughput with a full batch. Batch sizes grow with load
/// and shrink back when the queue drains.
///
/// `queued` requests are waiting, the overall-oldest of them arrived at
/// `oldest_arrival`, and the returned size lies in `1..=min(max_batch,
/// queued)`.
///
/// # Panics
///
/// Panics if called with an empty queue.
#[must_use]
pub fn adaptive_batch(
    now: SimTime,
    queued: usize,
    oldest_arrival: SimTime,
    cold: bool,
    slo: SimTime,
    max_batch: usize,
    cost: &BatchCostModel,
) -> usize {
    assert!(queued > 0, "policy evaluated on an empty queue");
    let cap = max_batch.max(1).min(queued);
    let wait = now - oldest_arrival.min(now);
    // Largest batch whose service on *this* slice (cold pays the filter
    // load) still meets the oldest request's SLO; service time is monotone
    // in batch size, so binary-search the feasibility boundary.
    let feasible = |b: usize| wait + cost.service_time(b, cold) <= slo;
    let mut pick = 0;
    let (mut lo, mut hi) = (1, cap);
    while lo <= hi {
        let mid = lo + (hi - lo) / 2;
        if feasible(mid) {
            pick = mid;
            lo = mid + 1;
        } else {
            hi = mid - 1;
        }
    }
    if pick == 0 {
        // Even a single image misses: salvage throughput.
        pick = cap;
    }
    pick
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_dnn::inception::inception_v3;
    use neural_cache::SystemConfig;

    fn cost() -> BatchCostModel {
        BatchCostModel::new(&SystemConfig::xeon_e5_2697_v3(), &inception_v3())
    }

    /// Base latency budget handed to every `adaptive_batch` call (the
    /// `ServeConfig::slo` stand-in).
    fn base_slo() -> SimTime {
        SimTime::from_millis(100.0)
    }

    #[test]
    fn slo_adaptive_prices_the_cold_filter_load() {
        let c = cost();
        let now = SimTime::from_secs(2.0);
        let pick = |cold: bool| adaptive_batch(now, 64, now, cold, base_slo(), 64, &c);
        let (warm, cold) = (pick(false), pick(true));
        assert!(
            cold < warm,
            "a cold slice must shrink the feasible batch: cold {cold} vs warm {warm}"
        );
        assert!(
            c.service_time(cold, true) <= base_slo(),
            "cold pick meets the SLO"
        );
    }

    #[test]
    fn slo_adaptive_grows_batches_within_the_budget() {
        let c = cost();
        let now = SimTime::from_secs(2.0);
        // Fresh queue: pick the largest batch meeting the SLO from now.
        let fresh = adaptive_batch(now, 64, now, false, base_slo(), 64, &c);
        assert!(fresh >= 1);
        assert!(c.service_time(fresh, false) <= base_slo());
        if fresh < 64 {
            assert!(
                c.service_time(fresh + 1, false) > base_slo(),
                "largest feasible"
            );
        }
        // An old queue shrinks the pick.
        let aged = now - SimTime::from_millis(60.0);
        let old_pick = adaptive_batch(now, 64, aged, false, base_slo(), 64, &c);
        assert!(old_pick <= fresh);
        // A hopeless SLO salvages throughput with the full cap.
        let tight = SimTime::from_millis(0.001);
        assert_eq!(adaptive_batch(now, 10, aged, false, tight, 4, &c), 4);
        // Queue shorter than the cap bounds the pick.
        assert!(adaptive_batch(now, 2, now, false, base_slo(), 64, &c) <= 2);
    }
}
