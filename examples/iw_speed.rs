//! Quick IW-kernel timing check: the streaming kernel the profiler runs
//! (`IwSweep`, through the `iw::ipc_at_window` and `iw::characteristic`
//! slice wrappers) against the cycle-stepped `iw::reference` oracle,
//! asserting bit-equal IPC (see also `cargo bench`).
//!
//! Run with `cargo run --release --example iw_speed`.

use fosm_depgraph::iw;
use fosm_isa::LatencyTable;
use fosm_trace::TraceSource;
use fosm_workloads::{BenchmarkSpec, WorkloadGenerator};
use std::time::Instant;

fn main() {
    let mut gen = WorkloadGenerator::new(&BenchmarkSpec::gzip(), 42);
    let insts: Vec<_> = (0..300_000).map(|_| gen.next_inst().unwrap()).collect();
    let lat = LatencyTable::unit();

    for w in iw::DEFAULT_WINDOW_SIZES {
        let t0 = Instant::now();
        let f = iw::ipc_at_window(&insts, w, &lat);
        let tf = t0.elapsed();
        let t0 = Instant::now();
        let s = iw::reference::ipc_at_window(&insts, w, &lat);
        let ts = t0.elapsed();
        assert_eq!(f.to_bits(), s.to_bits());
        println!(
            "w={w:>3}  new {tf:>12?}  ref {ts:>12?}  ({:.1}x)",
            ts.as_secs_f64() / tf.as_secs_f64()
        );
    }

    let t0 = Instant::now();
    let fast = iw::characteristic(&insts, &iw::DEFAULT_WINDOW_SIZES, &lat);
    let t_fast = t0.elapsed();

    let t0 = Instant::now();
    let slow: Vec<f64> = iw::DEFAULT_WINDOW_SIZES
        .iter()
        .map(|&w| iw::reference::ipc_at_window(&insts, w, &lat))
        .collect();
    let t_slow = t0.elapsed();

    for (p, s) in fast.iter().zip(&slow) {
        assert_eq!(p.ipc.to_bits(), s.to_bits(), "w={} mismatch", p.window);
    }
    println!(
        "characteristic: new {t_fast:?}  reference: {t_slow:?}  speedup: {:.1}x",
        t_slow.as_secs_f64() / t_fast.as_secs_f64()
    );
}
