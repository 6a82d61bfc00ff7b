//! Persistent FIFO worker pool.
//!
//! The figure binaries fan out with `fosm_bench::par::par_map`, which
//! spawns scoped threads per call — fine for a batch job, wasteful for
//! a daemon answering thousands of small requests. This pool keeps a
//! fixed set of **persistent** workers alive for the process lifetime.
//! They pop jobs in submission order from one `Mutex<VecDeque>` and
//! park on one condvar when it is empty. The jobs are request-grained
//! (microseconds to seconds), so one uncontended lock per job is noise.
//!
//! One rule the types cannot show: **a pool job must never wait on
//! queued work.** With every worker waiting on jobs that only a worker
//! could run, the pool deadlocks. A request job that has more work to
//! do runs it itself (see `Service::explore`). Waiting on a job that is
//! already running is fine: a batch follower waits on its leader, and
//! the leader broadcasts even if it panics.
//!
//! A job that panics does not take its worker down: the worker catches
//! the unwind and carries on, and the job's [`TaskHandle::wait`]
//! returns `Err` because its result sender was dropped unsent.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};

/// A unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The queue and the shutdown flag, under one lock so a worker checks
/// both before it parks and can never miss a push or the shutdown.
#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    /// Set once by [`WorkerPool::shutdown`]; workers drain and exit.
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    wake: Condvar,
    /// Jobs a worker has taken (finished, panicked or running), for
    /// stats.
    executed: AtomicU64,
    /// Times a worker parked with nothing to do.
    parks: AtomicU64,
}

/// Pool traffic counters, for the daemon's `stats` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads.
    pub workers: usize,
    /// Jobs taken by a worker since the pool started (finished,
    /// panicked or running): with `queue_depth`, every job submitted.
    pub executed: u64,
    /// Times a worker parked with nothing to do.
    pub parks: u64,
    /// Jobs queued but not yet taken, at stats time.
    pub queue_depth: usize,
}

/// The worker pool. Dropping it without [`WorkerPool::shutdown`]
/// shuts it down implicitly (joining all workers).
pub struct WorkerPool {
    shared: Arc<Shared>,
    worker_count: usize,
    /// Join handles, behind a lock so [`WorkerPool::shutdown`] works
    /// through the shared references a daemon holds.
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl WorkerPool {
    /// Starts `workers` persistent worker threads (at least 1).
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared::default());
        let handles = (0..workers)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fosm-serve-worker-{idx}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            worker_count: workers,
            workers: Mutex::new(handles),
        }
    }

    /// Queues `job` behind every job submitted before it and returns a
    /// handle to its result. After [`WorkerPool::shutdown`] the job is
    /// dropped unrun, so its handle's `wait` returns `Err`.
    pub fn submit<T: Send + 'static>(
        &self,
        job: impl FnOnce() -> T + Send + 'static,
    ) -> TaskHandle<T> {
        let (result, handle) = mpsc::sync_channel(1);
        let job: Job = Box::new(move || {
            // The receiver may be gone (its connection hung up); the
            // job's result then has nowhere to go.
            let _ = result.send(job());
        });
        let mut queue = self.shared.queue.lock().expect("pool queue");
        if !queue.shutdown {
            queue.jobs.push_back(job);
            self.shared.wake.notify_one();
        }
        TaskHandle { result: handle }
    }

    /// Current traffic counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.worker_count,
            executed: self.shared.executed.load(Ordering::Relaxed),
            parks: self.shared.parks.load(Ordering::Relaxed),
            queue_depth: self.shared.queue.lock().expect("pool queue").jobs.len(),
        }
    }

    /// Drains all queued work, stops the workers, and joins them.
    /// Idempotent, and callable through shared references (the daemon
    /// holds the pool in an `Arc`).
    pub fn shutdown(&self) {
        self.shared.queue.lock().expect("pool queue").shutdown = true;
        self.shared.wake.notify_all();
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("pool handles")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    shared.executed.fetch_add(1, Ordering::Relaxed);
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                shared.parks.fetch_add(1, Ordering::Relaxed);
                queue = shared.wake.wait(queue).expect("pool queue");
            }
        };
        // A panic unwinds only the job: its result sender drops unsent,
        // which is how its waiter learns of it.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

/// Handle to a [`WorkerPool::submit`] job's result.
pub struct TaskHandle<T> {
    result: mpsc::Receiver<T>,
}

impl<T> TaskHandle<T> {
    /// Blocks until the job finishes and returns its result, or `Err`
    /// when it panicked or never ran.
    pub fn wait(self) -> Result<T, mpsc::RecvError> {
        self.result.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_run_in_submission_order_and_return_results() {
        let pool = WorkerPool::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..16)
            .map(|i| {
                let order = Arc::clone(&order);
                pool.submit(move || {
                    order.lock().expect("order").push(i);
                    i * 2
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.wait().unwrap()).collect();
        assert_eq!(results, (0..16).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(*order.lock().expect("order"), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn every_job_runs_and_idle_workers_park() {
        let pool = WorkerPool::new(4);
        let handles: Vec<_> = (0..100).map(|i| pool.submit(move || i)).collect();
        let sum: u32 = handles.into_iter().map(|h| h.wait().unwrap()).sum();
        assert_eq!(sum, 4950);
        let stats = pool.stats();
        assert_eq!((stats.executed, stats.queue_depth), (100, 0));
        for _ in 0..100 {
            if pool.stats().parks >= 4 {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        panic!("idle workers must park, stats: {:?}", pool.stats());
    }

    #[test]
    fn a_panicking_job_fails_its_handle_and_the_worker_survives() {
        let pool = WorkerPool::new(1);
        let failed = pool.submit(|| -> u32 { panic!("injected job panic") });
        assert!(failed.wait().is_err(), "a panicked job has no result");
        assert_eq!(pool.submit(|| 7).wait(), Ok(7), "the one worker lives on");
        assert_eq!(pool.stats().executed, 2);
    }

    #[test]
    fn shutdown_drains_queued_work_and_joins() {
        let pool = WorkerPool::new(2);
        let handles: Vec<_> = (0..50).map(|i| pool.submit(move || i)).collect();
        pool.shutdown();
        assert!(pool.workers.lock().expect("pool handles").is_empty());
        assert!(handles.into_iter().all(|h| h.wait().is_ok()), "drained");
        assert!(pool.submit(|| 1).wait().is_err(), "no work after shutdown");
        pool.shutdown(); // idempotent
    }
}
