//! The work-sharded execution engine behind the functional executor.
//!
//! Neural Cache's defining property is massive data parallelism: thousands
//! of 8KB compute arrays execute the same bit-serial sequence in lockstep
//! (Sections IV/VI). Within one pass the arrays share **no** state — they
//! only meet at the inter-array reduction/ranging barriers — so simulating
//! them is embarrassingly shardable. This module abstracts over *how* a set
//! of independent shard jobs runs:
//!
//! - [`ExecutionEngine::Sequential`] executes jobs in index order on the
//!   calling thread (the reference backend);
//! - [`ExecutionEngine::Threaded`] fans jobs out over a scoped pool of
//!   `std::thread` workers pulling shard indices from an atomic counter.
//!
//! Both backends are **observably identical**: [`ExecutionEngine::run`]
//! always returns results in job-index order, so any deterministic
//! reduction over them (summing [`nc_sram::CycleStats`], splicing output
//! chunks) is independent of thread scheduling. No external dependencies
//! are used, consistent with the workspace's vendored-offline policy.
//!
//! The analytic timing models ([`crate::timing`], [`crate::batching`]) do
//! not dispatch through the engine: a whole Inception v3 inference prices in
//! tens of microseconds, less than spawning the workers costs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

/// Wall-clock record of one executed shard job, taken by a
/// [`ShardObserver`]: which job ran on which worker, when it started
/// (seconds since the observer's epoch) and how long it took.
///
/// This is **host wall-clock** time — the one axis in the workspace that is
/// *not* simulated — so it feeds utilization/imbalance reporting only and
/// never participates in simulated-time reconciliation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardSample {
    /// Shard job index within its `run_observed` call.
    pub job: usize,
    /// Worker index that executed the job (0 on the sequential backend).
    pub worker: usize,
    /// Job start, in seconds since the observer was created.
    pub start_s: f64,
    /// Job wall-clock duration in seconds.
    pub dur_s: f64,
}

/// Collects per-shard wall-clock timings across one or more
/// [`ExecutionEngine::run_observed`] calls, for thread-utilization and
/// load-imbalance reports.
///
/// The observer is passive: engines record into it only when one is passed,
/// so `run_observed(.., None)` stays exactly [`ExecutionEngine::run`].
/// Recording takes a mutex per completed job — acceptable for reporting
/// runs, which is why observation is opt-in rather than always-on.
#[derive(Debug)]
pub struct ShardObserver {
    t0: Instant,
    samples: Mutex<Vec<ShardSample>>,
}

impl Default for ShardObserver {
    fn default() -> Self {
        ShardObserver::new()
    }
}

impl ShardObserver {
    /// A fresh observer; its epoch (time zero) is now.
    #[must_use]
    pub fn new() -> Self {
        ShardObserver {
            t0: Instant::now(),
            samples: Mutex::new(Vec::new()),
        }
    }

    fn record(&self, job: usize, worker: usize, started: Instant, finished: Instant) {
        let sample = ShardSample {
            job,
            worker,
            start_s: started.duration_since(self.t0).as_secs_f64(),
            dur_s: finished.duration_since(started).as_secs_f64(),
        };
        self.samples
            .lock()
            .expect("shard observer poisoned")
            .push(sample);
    }

    /// Seconds elapsed since the observer's epoch.
    #[must_use]
    pub fn elapsed_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Drains and returns every sample recorded so far.
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked while holding the sample
    /// lock (poisoned mutex).
    #[must_use]
    pub fn take_samples(&self) -> Vec<ShardSample> {
        std::mem::take(&mut *self.samples.lock().expect("shard observer poisoned"))
    }
}

/// How independent shard jobs are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecutionEngine {
    /// Run every job on the calling thread, in index order.
    #[default]
    Sequential,
    /// Fan jobs out over `threads` scoped worker threads.
    Threaded {
        /// Number of worker threads (at least 2; use
        /// [`ExecutionEngine::from_threads`] to normalize).
        threads: usize,
    },
}

impl ExecutionEngine {
    /// Normalizes a thread-count knob: `0` and `1` mean [`Sequential`],
    /// anything larger a [`Threaded`] backend with that many workers.
    ///
    /// [`Sequential`]: ExecutionEngine::Sequential
    /// [`Threaded`]: ExecutionEngine::Threaded
    #[must_use]
    pub fn from_threads(threads: usize) -> Self {
        if threads <= 1 {
            ExecutionEngine::Sequential
        } else {
            ExecutionEngine::Threaded { threads }
        }
    }

    /// Number of worker threads this engine uses (1 for sequential).
    #[must_use]
    pub fn threads(&self) -> usize {
        match self {
            ExecutionEngine::Sequential => 1,
            ExecutionEngine::Threaded { threads } => (*threads).max(1),
        }
    }

    /// Whether jobs may run on more than one thread.
    #[must_use]
    pub fn is_parallel(&self) -> bool {
        self.threads() > 1
    }

    /// Runs `jobs` independent shard jobs and returns their results in job
    /// order (index `i`'s result at position `i`, regardless of backend or
    /// scheduling).
    ///
    /// `job` must be a pure function of its index with respect to the
    /// shared state it captures; the threaded backend gives no ordering
    /// guarantee *during* execution, only on the returned `Vec`.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any job (the scoped workers are joined
    /// before this returns).
    pub fn run<T, F>(&self, jobs: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_observed(jobs, job, None)
    }

    /// [`ExecutionEngine::run`] with optional per-shard wall-clock
    /// observation: when `observer` is `Some`, every executed job records a
    /// [`ShardSample`] (job index, worker index, start, duration) into it.
    /// With `observer == None` this *is* `run` — same scheduling, same
    /// results, no timing overhead.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any job (the scoped workers are joined
    /// before this returns).
    pub fn run_observed<T, F>(
        &self,
        jobs: usize,
        job: F,
        observer: Option<&ShardObserver>,
    ) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads().min(jobs);
        if workers <= 1 {
            return (0..jobs)
                .map(|i| match observer {
                    None => job(i),
                    Some(obs) => {
                        let started = Instant::now();
                        let out = job(i);
                        obs.record(i, 0, started, Instant::now());
                        out
                    }
                })
                .collect();
        }

        let next = AtomicUsize::new(0);
        // Per-worker in-flight job index, so a panicking job can be named
        // in the propagated message (usize::MAX = idle).
        let in_flight: Vec<AtomicUsize> =
            (0..workers).map(|_| AtomicUsize::new(usize::MAX)).collect();
        let mut indexed: Vec<(usize, T)> = thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let in_flight = &in_flight[w];
                    let next = &next;
                    let job = &job;
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= jobs {
                                break;
                            }
                            in_flight.store(i, Ordering::Release);
                            match observer {
                                None => local.push((i, job(i))),
                                Some(obs) => {
                                    let started = Instant::now();
                                    let out = job(i);
                                    obs.record(i, w, started, Instant::now());
                                    local.push((i, out));
                                }
                            }
                        }
                        in_flight.store(usize::MAX, Ordering::Release);
                        local
                    })
                })
                .collect();
            let mut collected = Vec::with_capacity(jobs);
            for (w, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(local) => collected.extend(local),
                    Err(payload) => {
                        let i = in_flight[w].load(Ordering::Acquire);
                        let cause = payload
                            .downcast_ref::<&str>()
                            .map(|s| (*s).to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".to_string());
                        panic!("shard worker {w} panicked on job {i}: {cause}");
                    }
                }
            }
            collected
        });
        indexed.sort_unstable_by_key(|(i, _)| *i);
        // Runtime shard-coverage check: the scheduler must run every job
        // exactly once.
        debug_assert!(
            indexed.iter().map(|(i, _)| *i).eq(0..jobs),
            "threaded scheduler dropped or duplicated a shard job"
        );
        indexed.into_iter().map(|(_, value)| value).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_threads_normalizes() {
        assert_eq!(
            ExecutionEngine::from_threads(0),
            ExecutionEngine::Sequential
        );
        assert_eq!(
            ExecutionEngine::from_threads(1),
            ExecutionEngine::Sequential
        );
        assert_eq!(
            ExecutionEngine::from_threads(4),
            ExecutionEngine::Threaded { threads: 4 }
        );
        assert_eq!(ExecutionEngine::Sequential.threads(), 1);
        assert_eq!(ExecutionEngine::Threaded { threads: 3 }.threads(), 3);
        assert!(!ExecutionEngine::Sequential.is_parallel());
        assert!(ExecutionEngine::from_threads(2).is_parallel());
    }

    #[test]
    fn results_come_back_in_job_order() {
        for engine in [
            ExecutionEngine::Sequential,
            ExecutionEngine::from_threads(4),
        ] {
            let out = engine.run(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn backends_agree_on_fallible_jobs() {
        let job = |i: usize| -> Result<usize, String> {
            if i == 7 {
                Err("seven".to_owned())
            } else {
                Ok(i)
            }
        };
        let seq: Result<Vec<_>, _> = ExecutionEngine::Sequential
            .run(10, job)
            .into_iter()
            .collect();
        let thr: Result<Vec<_>, _> = ExecutionEngine::from_threads(3)
            .run(10, job)
            .into_iter()
            .collect();
        assert_eq!(seq, thr);
        assert_eq!(seq.unwrap_err(), "seven");
    }

    #[test]
    fn zero_and_single_job_edge_cases() {
        let engine = ExecutionEngine::from_threads(8);
        assert_eq!(engine.run(0, |i| i), Vec::<usize>::new());
        assert_eq!(engine.run(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn worker_panic_names_the_failing_job() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ExecutionEngine::from_threads(2).run(4, |i| {
                assert!(i != 3, "job blew up");
                i
            })
        }));
        let payload = result.expect_err("the job panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("panic message is a formatted string");
        assert!(
            msg.contains("panicked on job 3"),
            "panic must name the failing job index: {msg}"
        );
        assert!(msg.contains("shard worker"), "message: {msg}");
        assert!(msg.contains("job blew up"), "cause preserved: {msg}");
    }

    #[test]
    fn observer_records_every_job_once_on_both_backends() {
        for engine in [
            ExecutionEngine::Sequential,
            ExecutionEngine::from_threads(4),
        ] {
            let obs = ShardObserver::new();
            let out = engine.run_observed(50, |i| i * 2, Some(&obs));
            assert_eq!(out, (0..50).map(|i| i * 2).collect::<Vec<_>>());
            let mut samples = obs.take_samples();
            assert_eq!(samples.len(), 50, "one sample per job");
            samples.sort_unstable_by_key(|s| s.job);
            for (i, s) in samples.iter().enumerate() {
                assert_eq!(s.job, i);
                assert!(s.worker < engine.threads());
                assert!(s.start_s >= 0.0 && s.dur_s >= 0.0);
            }
            assert!(obs.take_samples().is_empty(), "take drains");
            assert!(obs.elapsed_s() >= 0.0);
        }
    }

    #[test]
    fn threaded_run_uses_shared_state_safely() {
        use std::sync::atomic::AtomicU64;
        let total = AtomicU64::new(0);
        let out = ExecutionEngine::from_threads(4).run(1000, |i| {
            total.fetch_add(i as u64, Ordering::Relaxed);
            i as u64
        });
        assert_eq!(out.iter().sum::<u64>(), total.load(Ordering::Relaxed));
    }
}
