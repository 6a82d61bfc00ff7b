//! Figure 5: measured IW curves vs their fitted power-law lines for the
//! three illustrative benchmarks (vortex, gzip, vpr), in log-log space,
//! with the fit quality (R²).

use fosm_bench::harness;
use fosm_bench::store::ArtifactStore;
use fosm_depgraph::iw::{self, DEFAULT_WINDOW_SIZES};
use fosm_depgraph::powerlaw;
use fosm_isa::LatencyTable;
use fosm_workloads::BenchmarkSpec;

fn main() {
    let args = harness::run_args();
    let _obs = harness::obs_session("fig05", &args);
    let n = args.trace_len;
    println!("Figure 5: linear (log-log) IW curve fit, illustrative benchmarks ({n} insts)");
    for spec in BenchmarkSpec::illustrative() {
        let trace = ArtifactStore::global().trace(&spec, n, harness::SEED);
        let insts = trace.decode();
        let points = iw::characteristic(&insts, &DEFAULT_WINDOW_SIZES, &LatencyTable::unit());
        let law = powerlaw::fit(&points).expect("IW curves are power-law-like");
        let r2 = powerlaw::r_squared(&law, &points).unwrap_or(f64::NAN);
        println!(
            "\n{}: log2(I) = {:.2}·log2(W) + {:.2}   (α={:.2}, β={:.2}, R²={:.4})",
            spec.name,
            law.beta(),
            law.alpha().log2(),
            law.alpha(),
            law.beta(),
            r2
        );
        println!(
            "{:>8} {:>10} {:>10} {:>8}",
            "W", "measured I", "fitted I", "err%"
        );
        for p in &points {
            let fit = law.predict(p.window as f64);
            println!(
                "{:>8} {:>10.3} {:>10.3} {:>7.1}%",
                p.window,
                p.ipc,
                fit,
                100.0 * (fit - p.ipc) / p.ipc
            );
        }
    }
}
