//! The seeded open-loop request schedule of the `serve-mixed` workload.
//!
//! Arrivals are Poisson at a fixed rate. Each request's kind is drawn
//! from the mix (50% `model`, 40% `profile`, 10% `explore`) and its key
//! from a Zipf(1.0) distribution over the warmed hot set — except for
//! every 20th request, whose trace seed the daemon has never seen,
//! so reads of hot keys run beside writes from cold fills. Everything
//! is a pure function of the workload seed.

use fosm_serve::proto::{ExploreRequest, MachineSpec, ProfileRequest, Request};
use fosm_workloads::BenchmarkSpec;

/// Probe variants of the hot set, in the daemon's naming.
pub const PROBES: [&str; 5] = ["full", "ideal", "branch", "icache", "dcache"];

/// Every n-th request uses a never-seen trace seed (5%).
const COLD_EVERY: usize = 20;

/// SplitMix64: a small, fast, well-mixed generator whose output never
/// depends on a library version.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n.max(1)
    }

    /// A seeded Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(1.0) over `n` ranks: rank `k` (0-based) has weight `1/(k+1)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n >= 1` ranks.
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws a rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// Due time, seconds after the start of the load phase.
    pub due_s: f64,
    /// The request.
    pub request: Request,
    /// True when its trace seed is outside the warmed hot set.
    pub cold: bool,
}

/// The hot set's `(bench, probe)` keys, in a seeded order so the
/// hottest key differs between seeds.
fn hot_keys(rng: &mut Rng) -> (Vec<(String, &'static str)>, Vec<String>) {
    let benches: Vec<String> = BenchmarkSpec::all().into_iter().map(|s| s.name).collect();
    let mut keys: Vec<(String, &'static str)> = benches
        .iter()
        .flat_map(|b| PROBES.iter().map(move |&p| (b.clone(), p)))
        .collect();
    rng.shuffle(&mut keys);
    let mut explore = benches;
    rng.shuffle(&mut explore);
    (keys, explore)
}

/// The warm-up requests that fill the daemon's hot set: every
/// `(bench, probe)` profile plus every bench's explore profile.
pub fn warm_set(seed: u64, insts: u64) -> Vec<Request> {
    let benches: Vec<String> = BenchmarkSpec::all().into_iter().map(|s| s.name).collect();
    let mut out: Vec<Request> = benches
        .iter()
        .flat_map(|b| PROBES.iter().map(move |p| profile(b, p, insts, seed)))
        .collect();
    out.extend(benches.iter().map(|b| explore(b, insts, seed)));
    out
}

fn profile(bench: &str, probe: &str, insts: u64, seed: u64) -> Request {
    Request::Profile(ProfileRequest {
        bench: bench.to_string(),
        insts,
        seed,
        machine: MachineSpec::default(),
        probe: probe.to_string(),
    })
}

/// An explore request over the daemon's baseline grid (empty axes).
fn explore(bench: &str, insts: u64, seed: u64) -> Request {
    Request::Explore(ExploreRequest {
        bench: bench.to_string(),
        insts,
        seed,
        widths: Vec::new(),
        windows: Vec::new(),
        robs: Vec::new(),
        depths: Vec::new(),
        l2s: Vec::new(),
        mems: Vec::new(),
    })
}

/// The schedule of one load phase: Poisson arrivals at `rate` per
/// second for `seconds`, conditioned on their expected count — that
/// many uniformly random due times, sorted — so every seed offers the
/// same load. `phase` salts the cold seeds, so a second phase against
/// the same daemon meets keys the first left cold.
pub fn plan(seed: u64, phase: u64, rate: f64, seconds: f64, insts: u64) -> Vec<Planned> {
    let mut keys_rng = Rng::new(seed);
    let (hot, explore_hot) = hot_keys(&mut keys_rng);
    let zipf_hot = Zipf::new(hot.len());
    let zipf_explore = Zipf::new(explore_hot.len());
    let benches: Vec<String> = BenchmarkSpec::all().into_iter().map(|s| s.name).collect();

    let mut rng = Rng::new(seed ^ 0x5eed_0000_0000_0000 ^ phase.wrapping_mul(0x1000_0001));
    let mut due: Vec<f64> = (0..(rate * seconds).round() as usize)
        .map(|_| rng.next_f64() * seconds)
        .collect();
    due.sort_by(f64::total_cmp);
    let mut out = Vec::with_capacity(due.len());
    for t in due {
        // Cold requests sit at fixed positions and cycle through every
        // (bench, probe) pair, so each seed pays for the same cold work.
        let cold = out.len() % COLD_EVERY == COLD_EVERY - 1;
        let cold_idx = out.len() / COLD_EVERY;
        let kind = rng.next_f64();
        let trace_seed = if cold {
            let fresh = rng.next_u64();
            if fresh == seed {
                fresh.wrapping_add(1)
            } else {
                fresh
            }
        } else {
            seed
        };
        let request = if kind < 0.9 {
            let (bench, probe) = if cold {
                (
                    benches[cold_idx % benches.len()].clone(),
                    PROBES[(cold_idx / benches.len()) % PROBES.len()],
                )
            } else {
                hot[zipf_hot.sample(&mut rng)].clone()
            };
            let req = ProfileRequest {
                bench,
                insts,
                seed: trace_seed,
                machine: MachineSpec::default(),
                probe: probe.to_string(),
            };
            if kind < 0.5 {
                Request::Model(req)
            } else {
                Request::Profile(req)
            }
        } else {
            let bench = if cold {
                &benches[cold_idx % benches.len()]
            } else {
                &explore_hot[zipf_explore.sample(&mut rng)]
            };
            explore(bench, insts, trace_seed)
        };
        out.push(Planned {
            due_s: t,
            request,
            cold,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_schedule() {
        let a = plan(42, 0, 200.0, 5.0, 20_000);
        let b = plan(42, 0, 200.0, 5.0, 20_000);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seed_or_phase_gives_a_different_schedule() {
        let a = plan(42, 0, 200.0, 5.0, 20_000);
        assert_ne!(a, plan(43, 0, 200.0, 5.0, 20_000));
        let other_phase = plan(42, 1, 200.0, 5.0, 20_000);
        assert_ne!(a, other_phase);
        // Hot keys stay the same across phases; only cold seeds move.
        let hot_seeds = |p: &[Planned]| {
            p.iter()
                .filter(|r| !r.cold)
                .all(|r| request_seed(&r.request) == 42)
        };
        assert!(hot_seeds(&a) && hot_seeds(&other_phase));
    }

    fn request_seed(req: &Request) -> u64 {
        match req {
            Request::Profile(p) | Request::Model(p) => p.seed,
            Request::Explore(e) => e.seed,
            other => panic!("unexpected request {other:?}"),
        }
    }

    #[test]
    fn rate_mix_and_cold_share_are_as_specified() {
        let p = plan(7, 0, 200.0, 60.0, 20_000);
        assert_eq!(p.len(), 12_000);
        let n = p.len() as f64;
        assert!(p.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!(p.iter().all(|r| (0.0..60.0).contains(&r.due_s)));
        // Exponential gaps: mean 5 ms, and about e^-1 of them above it.
        let gaps: Vec<f64> = p.windows(2).map(|w| w[1].due_s - w[0].due_s).collect();
        let above = gaps.iter().filter(|&&g| g > 0.005).count() as f64 / gaps.len() as f64;
        assert!((above - (-1.0f64).exp()).abs() < 0.02, "{above}");
        let share = |f: &dyn Fn(&Planned) -> bool| p.iter().filter(|r| f(r)).count() as f64 / n;
        let model = share(&|r| matches!(r.request, Request::Model(_)));
        let profile = share(&|r| matches!(r.request, Request::Profile(_)));
        let explore = share(&|r| matches!(r.request, Request::Explore(_)));
        let cold = share(&|r| r.cold);
        assert!((model - 0.5).abs() < 0.03, "{model}");
        assert!((profile - 0.4).abs() < 0.03, "{profile}");
        assert!((explore - 0.1).abs() < 0.02, "{explore}");
        assert!((cold - 0.05).abs() < 0.01, "{cold}");
        assert!(p
            .iter()
            .filter(|r| r.cold)
            .all(|r| request_seed(&r.request) != 7));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(60);
        let mut rng = Rng::new(1);
        let mut counts = [0u32; 60];
        for _ in 0..60_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // P(rank 0) = 1 / H(60) ~ 0.213.
        let top = f64::from(counts[0]) / 60_000.0;
        assert!((top - 0.213).abs() < 0.01, "{top}");
        assert!(counts[0] > counts[1] && counts[1] > counts[9]);
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn warm_set_covers_every_hot_key() {
        let warm = warm_set(42, 20_000);
        assert_eq!(warm.len(), 12 * PROBES.len() + 12);
        let p = plan(42, 0, 200.0, 10.0, 20_000);
        for r in p.iter().filter(|r| !r.cold) {
            let covered = warm.iter().any(|w| match (w, &r.request) {
                (Request::Profile(a), Request::Profile(b) | Request::Model(b)) => {
                    a.bench == b.bench && a.probe == b.probe
                }
                (Request::Explore(a), Request::Explore(b)) => a.bench == b.bench,
                _ => false,
            });
            assert!(covered, "{:?} not warmed", r.request);
        }
    }
}
