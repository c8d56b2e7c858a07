//! Property tests for the serving simulator's queue and scheduler:
//! request conservation, FIFO order within a priority class, and
//! byte-identical traces across repeated runs.

use nc_dnn::inception::inception_v3;
use nc_dnn::Model;
use nc_geometry::SimTime;
use nc_serve::{
    simulate, simulate_traced, simulate_with_cost, BatchPolicy, ServeConfig, ServingOutcome,
    TraceConfig, TraceEvent,
};
use nc_telemetry::{Level, Telemetry};
use neural_cache::{BatchCostModel, SystemConfig};
use proptest::prelude::*;

/// Decodes a policy from two random draws.
fn policy_from(kind: usize, size: usize) -> BatchPolicy {
    let size = size.max(1);
    match kind % 3 {
        0 => BatchPolicy::Fixed { size },
        1 => BatchPolicy::MaxWait {
            max_batch: size,
            max_wait: SimTime::from_millis(5.0 + size as f64),
        },
        _ => BatchPolicy::SloAdaptive { max_batch: size },
    }
}

/// Decodes a trace from random draws (open-loop kinds only when
/// `open_only`; closed-loop arrival order is think-time dependent, so the
/// FIFO property keys on open-loop traces).
fn trace_from(
    kind: usize,
    rate: usize,
    requests: usize,
    seed: u64,
    open_only: bool,
) -> TraceConfig {
    let requests = requests.clamp(10, 160);
    let rate = rate.clamp(50, 3000) as f64;
    match if open_only { kind % 2 } else { kind % 3 } {
        0 => TraceConfig::poisson(rate, requests, seed),
        1 => TraceConfig::bursty(rate * 0.2, rate * 2.0, 0.03, requests, seed),
        _ => TraceConfig::closed_loop(1 + requests / 16, 0.004, requests, seed),
    }
}

#[allow(clippy::too_many_arguments)] // flat proptest inputs, decoded here
fn run(
    policy_kind: usize,
    size: usize,
    trace_kind: usize,
    rate: usize,
    requests: usize,
    seed: u64,
    slices: usize,
    queue_capacity: usize,
    open_only: bool,
) -> (ServingOutcome, TraceConfig) {
    let config = ServeConfig {
        system: SystemConfig::xeon_e5_2697_v3(),
        slices: slices.clamp(1, 4),
        policy: policy_from(policy_kind, size),
        queue_capacity: queue_capacity.clamp(4, 512),
        slo: SimTime::from_millis(80.0),
    };
    let trace = trace_from(trace_kind, rate, requests, seed, open_only);
    (simulate(&config, &model(), &trace), trace)
}

fn model() -> Model {
    inception_v3()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conservation_holds_for_any_queue_shape(
        policy_kind in 0usize..3,
        size in 1usize..32,
        trace_kind in 0usize..3,
        rate in 50usize..3000,
        requests in 10usize..160,
        seed in 0u64..10_000,
        slices in 1usize..4,
        queue_capacity in 4usize..64,
    ) {
        let (out, _) = run(
            policy_kind, size, trace_kind, rate, requests, seed, slices,
            queue_capacity, false,
        );
        let s = &out.summary;
        prop_assert!(s.conservation_holds(),
            "admitted {} != completed {} + dropped {} + pending {}",
            s.admitted, s.completed, s.dropped, s.pending);
        // Drained runs leave nothing behind.
        prop_assert_eq!(s.pending, 0);
        prop_assert_eq!(s.admitted, requests.clamp(10, 160));
        prop_assert!(s.goodput_bounded(),
            "goodput {} exceeds offered {}", s.goodput_rps, s.offered_load_rps);
        prop_assert!(s.max_queue_depth <= queue_capacity.clamp(4, 512));
        // The trace agrees with the counters.
        let drops = out.trace.events.iter()
            .filter(|e| matches!(e, TraceEvent::Drop { .. })).count();
        prop_assert_eq!(drops, s.dropped);
    }

    #[test]
    fn completions_are_fifo_within_a_priority_class_on_one_slice(
        policy_kind in 0usize..3,
        size in 1usize..24,
        trace_kind in 0usize..2,
        rate in 100usize..2500,
        requests in 10usize..120,
        seed in 0u64..10_000,
    ) {
        // Open-loop traces (arrival order == id order), one slice: within
        // each priority class completions must preserve arrival order.
        let (out, _) = run(
            policy_kind, size, trace_kind, rate, requests, seed, 1, 512, true,
        );
        let mut arrived: std::collections::HashMap<u64, u8> = std::collections::HashMap::new();
        let mut last_completed: Vec<Option<u64>> = vec![None; 8];
        for e in &out.trace.events {
            match e {
                TraceEvent::Arrive { id, class, .. } => {
                    arrived.insert(*id, *class);
                }
                TraceEvent::Complete { ids, .. } => {
                    for id in ids {
                        let class = arrived[id] as usize;
                        if let Some(prev) = last_completed[class] {
                            prop_assert!(prev < *id,
                                "class {class}: {prev} completed before {id} out of order");
                        }
                        last_completed[class] = Some(*id);
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn dispatch_is_fifo_within_a_priority_class_on_any_slices(
        policy_kind in 0usize..3,
        size in 1usize..24,
        trace_kind in 0usize..2,
        rate in 100usize..2500,
        requests in 10usize..120,
        seed in 0u64..10_000,
        slices in 1usize..4,
    ) {
        let (out, trace) = run(
            policy_kind, size, trace_kind, rate, requests, seed, slices, 512, true,
        );
        // Multi-slice completions may reorder across slices, but batches
        // must leave the queue FIFO within each class.
        let mut arrived: std::collections::HashMap<u64, u8> = std::collections::HashMap::new();
        let mut last_dispatched: Vec<Option<u64>> = vec![None; trace.mix.len()];
        for e in &out.trace.events {
            match e {
                TraceEvent::Arrive { id, class, .. } => {
                    arrived.insert(*id, *class);
                }
                TraceEvent::Dispatch { ids, .. } => {
                    for id in ids {
                        let class = arrived[id] as usize;
                        if let Some(prev) = last_dispatched[class] {
                            prop_assert!(prev < *id,
                                "class {class}: {prev} dispatched before {id} out of order");
                        }
                        last_dispatched[class] = Some(*id);
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn identical_seeds_are_byte_identical(
        policy_kind in 0usize..3,
        size in 1usize..24,
        trace_kind in 0usize..3,
        rate in 100usize..2000,
        requests in 10usize..100,
        seed in 0u64..10_000,
    ) {
        let trace = trace_from(trace_kind, rate, requests, seed, false);
        let config = ServeConfig {
            system: SystemConfig::xeon_e5_2697_v3(),
            slices: 2,
            policy: policy_from(policy_kind, size),
            queue_capacity: 128,
            slo: SimTime::from_millis(80.0),
        };
        let first = simulate(&config, &model(), &trace);
        let again = simulate(&config, &model(), &trace);
        prop_assert_eq!(
            first.trace.to_log().into_bytes(),
            again.trace.to_log().into_bytes(),
            "a re-run must reproduce the serving trajectory"
        );
        prop_assert_eq!(first.summary, again.summary);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A traced simulation is trajectory-identical to the untraced one
    /// and mirrors every deterministic log event as exactly one telemetry
    /// record, with the lifecycle counters matching the summary's books.
    #[test]
    fn traced_simulation_mirrors_every_event(
        policy_kind in 0usize..3,
        size in 1usize..32,
        trace_kind in 0usize..3,
        rate in 50usize..3000,
        requests in 10usize..120,
        seed in 0u64..10_000,
        slices in 1usize..4,
        queue_capacity in 4usize..64,
    ) {
        let config = ServeConfig {
            system: SystemConfig::xeon_e5_2697_v3(),
            slices: slices.clamp(1, 4),
            policy: policy_from(policy_kind, size),
            queue_capacity: queue_capacity.clamp(4, 512),
            slo: SimTime::from_millis(80.0),
        };
        let cost = BatchCostModel::new(&config.system, &model());
        let trace = trace_from(trace_kind, rate, requests, seed, false);

        let plain = simulate_with_cost(&config, &cost, &trace);
        let tel = Telemetry::enabled(Level::Detail);
        let traced = simulate_traced(&config, &cost, &trace, &tel);

        // Pure observation: the trajectory is byte-identical.
        prop_assert_eq!(plain.trace.to_log(), traced.trace.to_log());
        prop_assert_eq!(&plain.summary, &traced.summary);

        // Exactly one telemetry record per deterministic log event.
        prop_assert_eq!(tel.record_count("serving.event"), traced.trace.events.len());
        // Detail level also spans the queue wait of every dispatched
        // request; a drained run dispatches exactly the completed set.
        prop_assert_eq!(tel.span_count("serving.request"), traced.summary.completed);
        // Lifecycle counters match the summary's books.
        let s = &traced.summary;
        prop_assert_eq!(tel.counter("serving.arrivals"), s.admitted as u64);
        prop_assert_eq!(tel.counter("serving.drops"), s.dropped as u64);
        prop_assert_eq!(tel.counter("serving.completions"), s.completed as u64);
        prop_assert_eq!(tel.counter("serving.dispatches"), s.batches as u64);
    }
}
