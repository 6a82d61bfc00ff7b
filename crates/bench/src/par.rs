//! Deterministic scoped-thread fan-out for the figure binaries.
//!
//! The figure binaries are embarrassingly parallel across benchmarks
//! and machine configurations: every unit of work is a pure function
//! of `(spec, seed, trace length, config)`. [`par_map`] fans such work
//! across a scoped thread pool (`std::thread::scope`, zero extra
//! dependencies) and returns results **in input order**, so a binary's
//! output is byte-identical to the serial run regardless of thread
//! count or scheduling.
//!
//! Thread count resolution (see [`harness::run_args`]): the
//! `--threads N` CLI flag, then the `FOSM_THREADS` environment
//! variable, then [`available_threads`].
//!
//! [`harness::run_args`]: crate::harness::run_args

use std::sync::atomic::{AtomicUsize, Ordering};

use fosm_workloads::BenchmarkSpec;

use crate::harness;

/// Number of hardware threads available to this process (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to `threads` scoped worker threads.
///
/// Work is handed out through a shared atomic index (dynamic load
/// balancing — trace simulations vary widely in cost), and results are
/// reassembled in input order before returning, so the output is
/// independent of scheduling. `threads <= 1` (or a single item) runs
/// inline with no thread machinery at all.
///
/// The caller's current observability span path is adopted by every
/// worker, so spans opened inside `f` aggregate under the fan-out
/// site (`report.table1/simulate`) exactly as the inline path would,
/// at any thread count.
///
/// # Panics
///
/// Propagates the first panic raised inside `f`.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    let parent_span = fosm_obs::current_span_path();
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let _adopt = parent_span.as_deref().map(fosm_obs::adopt_span_parent);
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        out.push((i, f(&items[i])));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(results) => results,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Fans `f` over the benchmark suite with the session's resolved
/// thread count, returning per-benchmark results in suite order.
///
/// This is the standard top loop of a figure binary:
///
/// ```no_run
/// use fosm_bench::store::ArtifactStore;
/// use fosm_bench::{harness, par};
/// use fosm_sim::MachineConfig;
///
/// let n = harness::run_args().trace_len;
/// let store = ArtifactStore::global();
/// let cpis = par::par_map_benchmarks(&fosm_workloads::BenchmarkSpec::all(), |spec| {
///     store.simulate(&MachineConfig::baseline(), spec, n, harness::SEED).cpi()
/// });
/// ```
pub fn par_map_benchmarks<R, F>(specs: &[BenchmarkSpec], f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&BenchmarkSpec) -> R + Sync,
{
    par_map(specs, harness::run_args().threads, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_at_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 128] {
            let got = par_map(&items, threads, |&x| x * x);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 8, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], 8, |&x| x + 1), vec![8]);
    }

    #[test]
    fn balances_uneven_work() {
        // Items with wildly different costs still come back in order.
        let items: Vec<usize> = (0..32).collect();
        let got = par_map(&items, 4, |&i| {
            let spin = if i % 7 == 0 { 200_000 } else { 10 };
            let mut acc = i;
            for k in 0..spin {
                acc = acc.wrapping_mul(31).wrapping_add(k);
            }
            std::hint::black_box(acc);
            i
        });
        assert_eq!(got, items);
    }

    #[test]
    fn worker_spans_nest_under_the_fanout_span() {
        // Same workload at 1 thread (inline) and many threads must
        // produce identically-pathed span aggregates.
        let items: Vec<u32> = (0..16).collect();
        for threads in [1, 6] {
            let r = fosm_obs::global();
            let before = r.snapshot().spans.get("outer.phase/work").map(|s| s.count);
            {
                let _outer = fosm_obs::span("outer.phase");
                par_map(&items, threads, |_| {
                    let _s = fosm_obs::span("work");
                });
            }
            let after = r.snapshot().spans["outer.phase/work"].count;
            assert_eq!(
                after - before.unwrap_or(0),
                items.len() as u64,
                "threads={threads}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..8).collect();
        let _ = par_map(&items, 4, |&x| {
            if x == 5 {
                panic!("deliberate");
            }
            x
        });
    }
}
