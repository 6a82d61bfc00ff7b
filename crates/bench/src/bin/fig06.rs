//! Figure 6: the IW characteristic after limiting the issue width
//! (paper shows gcc). Detailed simulation with ideal caches and
//! predictor, sweeping window size for issue widths 2/4/8 and
//! effectively-unlimited, compared against the model's saturation
//! approximation min(α·W^β / L, width).

use fosm_bench::harness;
use fosm_bench::store::ArtifactStore;
use fosm_sim::MachineConfig;
use fosm_workloads::BenchmarkSpec;

fn main() {
    let args = harness::run_args();
    let _obs = harness::obs_session("fig06", &args);
    let n = args.trace_len.min(100_000);
    let spec = BenchmarkSpec::gcc();
    let store = ArtifactStore::global();
    // Held while the simulations and the profile replay it.
    let _trace = store.trace(&spec, n, harness::SEED);
    let params = harness::params_of(&MachineConfig::baseline());
    let profile = store.profile(&params, &spec.name, &spec, n, harness::SEED);

    let windows = [2u32, 4, 8, 16, 32, 64, 128];
    let widths = [2u32, 4, 8, 32]; // 32 ≈ unlimited for these windows
    println!("Figure 6: IW characteristic with limited issue width (gcc, {n} insts)");
    println!("simulated IPC (detailed simulator, everything ideal):");
    print!("{:<10}", "width\\W");
    for w in windows {
        print!(" {w:>6}");
    }
    println!();
    for width in widths {
        let label = if width == 32 {
            "unlimited".to_string()
        } else {
            width.to_string()
        };
        print!("{label:<10}");
        for win in windows {
            let mut cfg = MachineConfig::ideal().with_width(width);
            cfg.win_size = win;
            cfg.rob_size = (4 * win).max(128);
            let report = store.simulate(&cfg, &spec, n, harness::SEED);
            print!(" {:>6.2}", report.ipc());
        }
        println!();
    }
    println!("\nmodel approximation min(alpha*W^beta / L, width):");
    print!("{:<10}", "width\\W");
    for w in windows {
        print!(" {w:>6}");
    }
    println!();
    for width in widths {
        let label = if width == 32 {
            "unlimited".to_string()
        } else {
            width.to_string()
        };
        print!("{label:<10}");
        for win in windows {
            print!(" {:>6.2}", profile.iw.steady_state_ipc(win, width));
        }
        println!();
    }
}
