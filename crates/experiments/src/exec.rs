//! A scoped-thread parallel executor for experiment sweeps.
//!
//! Every run of the testbed is an independent, deterministic function of
//! its [`ExperimentConfig`](spdyier_core::ExperimentConfig) — no run
//! shares state with any other — so seed sweeps and HTTP/SPDY pairs are
//! embarrassingly parallel. [`Executor::run`] fans a job list across a
//! fixed pool of `std::thread::scope` workers (no extra dependencies, no
//! work stealing): workers claim job *indices* from a shared atomic
//! counter and write each output into the slot addressed by its index, so
//! the returned `Vec` is in job order regardless of which worker ran
//! what, or when. Combined with the testbed's determinism this makes the
//! parallel sweep's output **byte-identical** to the serial sweep's.
//!
//! Every library entry point that fans cells out takes the executor as
//! an argument, so the caller picks the width. The `experiments` binary
//! is the one caller of [`Executor::from_env`]: `SPDYIER_JOBS` when set
//! (a positive integer; `1` forces the serial path), otherwise
//! [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A fixed-width scoped-thread pool for independent jobs.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    jobs: usize,
}

impl Executor {
    /// An executor with exactly `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> Executor {
        Executor { jobs: jobs.max(1) }
    }

    /// An executor sized by `SPDYIER_JOBS` (when set to a positive
    /// integer) or the machine's available parallelism.
    pub fn from_env() -> Executor {
        let jobs = std::env::var("SPDYIER_JOBS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        Executor::new(jobs)
    }

    /// The pool width.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Evaluate `f(job, worker)` for every job in `0..n` and return the
    /// outputs in job order.
    ///
    /// `f` is the *whole* job: it runs on the worker that claimed the
    /// index, so whatever it reduces, checkpoints or heartbeats happens
    /// there, in completion order, and anything it does not return is
    /// dropped before that worker's next job starts — a sweep retains
    /// O(workers) raw results at any instant and O(n) only of what `f`
    /// returns. With one worker (or one job) this runs serially on the
    /// calling thread as worker 0. Otherwise workers race on an atomic
    /// counter for the next index; outputs land in index-addressed
    /// slots, so ordering — and therefore any serialization of the
    /// result — matches the serial path byte for byte.
    pub fn run<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, usize) -> R + Sync,
    {
        if self.jobs == 1 || n <= 1 {
            return (0..n).map(|i| f(i, 0)).collect();
        }
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for worker in 0..self.jobs.min(n) {
                let f = &f;
                let slots = &slots;
                let next = &next;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let out = f(i, worker);
                    *slots[i].lock().expect("result slot poisoned") = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker panicked before filling its slot")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_in_job_order() {
        let serial = Executor::new(1).run(100, |i, _| i * i);
        let parallel = Executor::new(8).run(100, |i, _| i * i);
        assert_eq!(serial, (0..100).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        assert_eq!(Executor::new(0).jobs(), 1);
        assert_eq!(Executor::new(0).run(3, |i, _| i), vec![0, 1, 2]);
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        assert_eq!(Executor::new(16).run(2, |i, _| i + 1), vec![1, 2]);
    }

    #[test]
    fn each_job_runs_once_on_a_pool_worker_and_keeps_only_its_reduction() {
        for workers in [1, 4] {
            let seen = Mutex::new(vec![0u32; 40]);
            let out = Executor::new(workers).run(40, |job, worker| {
                assert!(worker < workers);
                seen.lock().unwrap()[job] += 1;
                // The "big" per-job output is owned by the job, so the
                // executor cannot retain it: only the reduction survives.
                let raw = vec![job; 1000];
                raw.len() * raw[0]
            });
            assert_eq!(out, (0..40).map(|i| i * 1000).collect::<Vec<_>>());
            assert!(seen.lock().unwrap().iter().all(|&c| c == 1));
        }
    }
}
