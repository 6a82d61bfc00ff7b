//! The daemon-facing subcommands: `fosm serve`, `fosm client`,
//! `fosm loadgen`, and `fosm top`.
//!
//! `serve` runs the model-as-a-service daemon from `fosm-serve`;
//! `client` speaks its protocol (or, with `--local`, executes the same
//! request in-process through the identical `Service` code path, which
//! is what makes daemon responses byte-comparable to one-shot runs);
//! `loadgen` drives a daemon with concurrent clients and records
//! latency/throughput into `BENCH_serve.json`; `top` polls the
//! daemon's telemetry snapshot and renders the phase histograms, pool
//! counters, and flight-recorder tail as a live table.

use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use fosm_bench::disk::DiskCache;
use fosm_bench::store::ArtifactStore;
use fosm_serve::proto::{
    ExploreRequest, MachineSpec, ProfileRequest, Request, Response, ValidateRequest,
};
use fosm_serve::service::Service;

use crate::args::Parsed;

/// The daemon's artifact store: fresh, and disk-backed when
/// `FOSM_CACHE_DIR` is set (the cache-reuse contract).
fn env_store() -> Arc<ArtifactStore> {
    let store = ArtifactStore::new();
    if let Some(disk) = DiskCache::from_env() {
        store.attach_disk(Arc::new(disk));
    }
    Arc::new(store)
}

/// `fosm serve`: runs until a client sends `shutdown`. Prints
/// `listening on <addr>` (with the real port when `--addr` ends in `:0`)
/// before accepting.
pub fn serve(args: Parsed) -> Result<(), String> {
    let addr = args.flag("addr").unwrap_or("127.0.0.1:0");
    let workers: usize = args
        .get("workers")?
        .unwrap_or_else(fosm_bench::par::available_threads)
        .max(1);
    let service = Arc::new(Service::new(env_store(), workers, Duration::ZERO));
    if args.has("no-telemetry") {
        service.telemetry().set_enabled(false);
    }
    let handle =
        fosm_serve::server::start(service, addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!("listening on {}", handle.addr());
    std::io::stdout()
        .flush()
        .map_err(|e| format!("cannot flush stdout: {e}"))?;
    if let Some(path) = args.flag("port-file") {
        std::fs::write(path, handle.addr().to_string())
            .map_err(|e| format!("cannot write port file {path}: {e}"))?;
    }
    handle.join();
    println!("daemon stopped");
    Ok(())
}

/// The machine spec from the standard machine flags (same names and
/// defaults as every other subcommand).
pub(crate) fn machine_spec(args: &Parsed) -> Result<MachineSpec, String> {
    let base = MachineSpec::default();
    Ok(MachineSpec {
        width: args.get("width")?.unwrap_or(base.width),
        window: args.get("window")?.unwrap_or(base.window),
        rob: args.get("rob")?.unwrap_or(base.rob),
        depth: args.get("depth")?.unwrap_or(base.depth),
        l2: args.get("l2")?.unwrap_or(base.l2),
        mem: args.get("mem")?.unwrap_or(base.mem),
    })
}

fn profile_request(args: &Parsed) -> Result<ProfileRequest, String> {
    Ok(ProfileRequest {
        bench: args.flag("bench").unwrap_or("gzip").to_string(),
        insts: args.get("insts")?.unwrap_or(120_000u64),
        seed: args.get("seed")?.unwrap_or(42u64),
        machine: machine_spec(args)?,
        probe: args.flag("probe").unwrap_or("full").to_string(),
    })
}

/// Builds the request a `fosm client <action>` invocation describes.
fn build_request(args: &Parsed) -> Result<Request, String> {
    Ok(match args.action() {
        "ping" => Request::Ping,
        "stats" => Request::Stats,
        "telemetry" => Request::Telemetry,
        "shutdown" => Request::Shutdown,
        "profile" => Request::Profile(profile_request(args)?),
        "model" => Request::Model(profile_request(args)?),
        "validate" => Request::Validate(ValidateRequest {
            bench: args.flag("bench").unwrap_or("gzip").to_string(),
            insts: args.get("insts")?.unwrap_or(120_000u64),
            seed: args.get("seed")?.unwrap_or(42u64),
            machine: machine_spec(args)?,
        }),
        "explore" => Request::Explore(ExploreRequest {
            bench: args.flag("bench").unwrap_or("gzip").to_string(),
            insts: args.get("insts")?.unwrap_or(120_000u64),
            seed: args.get("seed")?.unwrap_or(42u64),
            // An absent axis stays empty: the daemon substitutes its
            // baseline-sweep values.
            widths: args.list("widths", vec![], str::parse)?,
            windows: args.list("windows", vec![], str::parse)?,
            robs: args.list("robs", vec![], str::parse)?,
            depths: args.list("depths", vec![], str::parse)?,
            l2s: args.list("l2s", vec![], str::parse)?,
            mems: args.list("mems", vec![], str::parse)?,
        }),
        other => unreachable!("the command table declares no client action `{other}`"),
    })
}

/// `fosm client <action>`: sends one request and prints the response
/// body. With `--local` the request runs in-process through the same
/// `Service` code the daemon runs, so the printed bytes are identical.
pub fn client(args: Parsed) -> Result<(), String> {
    let req = build_request(&args)?;
    let response = if args.has("local") {
        Service::local().execute(&req)
    } else {
        let addr = args
            .flag("addr")
            .ok_or("--addr <host:port> is required (or use --local)")?;
        fosm_serve::client::call(addr, &req)?
    };
    match response {
        Response::Ok { body } => {
            print!("{body}");
            Ok(())
        }
        Response::Err { code, message } => Err(format!("{code}: {message}")),
    }
}

/// Runs one request as a fresh `fosm client --local` subprocess — the
/// honest one-shot baseline (new process, cold in-memory store). The
/// disk cache env is scrubbed so the baseline cannot warm itself.
fn one_shot_subprocess(req: &Request) -> Result<Response, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let (action, p) = match req {
        Request::Profile(p) => ("profile", p),
        Request::Model(p) => ("model", p),
        other => return Err(format!("one-shot baseline cannot run {other:?}")),
    };
    let output = std::process::Command::new(exe)
        .args([
            "client",
            action,
            "--local",
            &format!("--bench={}", p.bench),
            &format!("--insts={}", p.insts),
            &format!("--seed={}", p.seed),
            &format!("--probe={}", p.probe),
        ])
        .env_remove("FOSM_CACHE_DIR")
        .output()
        .map_err(|e| format!("cannot spawn one-shot client: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "one-shot client failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(Response::ok(
        String::from_utf8_lossy(&output.stdout).into_owned(),
    ))
}

/// `fosm loadgen`: drives the daemon with N concurrent clients sending
/// M requests each, and records latency and throughput in the
/// criterion baseline format.
pub fn loadgen(args: Parsed) -> Result<(), String> {
    use fosm_serve::loadgen;

    let addr = args.flag("addr").ok_or("--addr <host:port> is required")?;
    let clients: usize = args.get("clients")?.unwrap_or(8usize).max(1);
    let per_client: usize = args.get("requests")?.unwrap_or(8usize).max(1);
    let insts: u64 = args.get("insts")?.unwrap_or(20_000u64);
    let seed: u64 = args.get("seed")?.unwrap_or(42u64);
    let plan = loadgen::plan(clients, per_client, insts, seed);

    let oracle_service = if args.has("verify") {
        Some(Service::local())
    } else {
        None
    };
    let oracle_fn = oracle_service
        .as_ref()
        .map(|service| move |req: &Request| service.execute(req));
    let concurrent = loadgen::run_concurrent(
        addr,
        &plan,
        oracle_fn
            .as_ref()
            .map(|f| f as &(dyn Fn(&Request) -> Response + Sync)),
    )?;

    let p50 = concurrent.percentile(50.0);
    let p99 = concurrent.percentile(99.0);
    println!(
        "concurrent: {} requests over {clients} clients in {:.3}s ({:.1} req/s{})",
        concurrent.requests,
        concurrent.wall.as_secs_f64(),
        concurrent.requests as f64 / concurrent.wall.as_secs_f64(),
        if args.has("verify") {
            ", all responses verified"
        } else {
            ""
        }
    );
    println!(
        "  latency p50 {:.1} ms, p99 {:.1} ms",
        p50.as_secs_f64() * 1e3,
        p99.as_secs_f64() * 1e3
    );
    // The bucketed view next to the exact one, so drift between the
    // shared histogram primitive and the oracle would show up right
    // here in the bench log.
    println!("  {}", concurrent.hist_summary("latency"));

    let mut entries = vec![
        ("serve/p50".to_string(), p50.as_nanos() as f64),
        ("serve/p99".to_string(), p99.as_nanos() as f64),
        ("serve/ns_per_req".to_string(), concurrent.ns_per_request()),
    ];

    if args.has("seq") {
        let sequential = loadgen::run_sequential(&plan, &one_shot_subprocess)?;
        let speedup = sequential.wall.as_secs_f64() / concurrent.wall.as_secs_f64();
        println!(
            "sequential one-shot: {} requests in {:.3}s ({:.1} req/s); speedup {speedup:.2}x",
            sequential.requests,
            sequential.wall.as_secs_f64(),
            sequential.requests as f64 / sequential.wall.as_secs_f64(),
        );
        entries.push((
            "oneshot/ns_per_req".to_string(),
            sequential.ns_per_request(),
        ));
        let min_speedup: f64 = args.get("min-speedup")?.unwrap_or(0.0f64);
        if speedup < min_speedup {
            return Err(format!(
                "daemon speedup {speedup:.2}x is below the required {min_speedup:.2}x"
            ));
        }
    }

    if let Some(path) = args.flag("out") {
        let rows: Vec<(&str, criterion::Estimate, Option<u64>)> = entries
            .iter()
            .map(|(id, ns)| (id.as_str(), criterion::Estimate::point(*ns), None))
            .collect();
        std::fs::write(path, criterion::baseline_json("serve", &rows))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("baseline written to {path}");
    }

    if let Some(baseline) = args.flag("baseline") {
        let body = std::fs::read_to_string(baseline)
            .map_err(|e| format!("cannot read baseline {baseline}: {e}"))?;
        let measured: Vec<(String, criterion::Estimate)> = entries
            .iter()
            .map(|(id, ns)| (id.clone(), criterion::Estimate::point(*ns)))
            .collect();
        let lines = criterion::check_report(&measured, &body);
        let mut regressed = false;
        for line in &lines {
            regressed |= line.starts_with("REGRESSION");
            println!("serve: {line}");
        }
        if regressed && args.has("check") {
            return Err(format!(
                "serve latency regressed beyond {:.0}% of {baseline}",
                criterion::REGRESSION_LIMIT_PCT
            ));
        }
    }
    Ok(())
}

/// Reads a number out of the shim's JSON tree (the shim keeps numeric
/// literals as text); absent or non-numeric reads as 0 so a partial
/// snapshot degrades to zeros instead of failing the render.
fn json_u64(v: Option<&serde::Value>) -> u64 {
    match v {
        Some(serde::Value::Num(text)) => text.parse().unwrap_or(0),
        _ => 0,
    }
}

/// Reads a string out of the shim's JSON tree; absent reads as `?`.
fn json_str(v: Option<&serde::Value>) -> &str {
    match v {
        Some(serde::Value::Str(text)) => text.as_str(),
        _ => "?",
    }
}

/// Renders one telemetry snapshot as the `fosm top` table. Pure
/// string-building so tests can assert on the output without a
/// terminal.
fn render_top(addr: &str, body: &str) -> Result<String, String> {
    let v: serde::Value = serde_json::from_str(body.trim_end())
        .map_err(|e| format!("daemon sent malformed telemetry JSON: {e:?}"))?;
    let mut out = String::new();
    out.push_str(&format!(
        "fosm top — {addr} (telemetry schema v{}, {} requests recorded{})\n",
        json_u64(v.get("fosm_telemetry")),
        json_u64(v.get("requests")),
        if matches!(v.get("enabled"), Some(serde::Value::Bool(false))) {
            ", TELEMETRY DISABLED"
        } else {
            ""
        },
    ));
    if let Some(pool) = v.get("pool") {
        out.push_str(&format!(
            "pool : {} workers, {} executed, {} panicked, queue depth {}\n",
            json_u64(pool.get("workers")),
            json_u64(pool.get("executed")),
            json_u64(v.get("panics")),
            json_u64(pool.get("queue_depth")),
        ));
    }
    out.push_str(&format!(
        "\n{:<32} {:>8} {:>12} {:>12} {:>12}\n",
        "histogram", "count", "p50 <=", "p99 <=", "max"
    ));
    if let Some(serde::Value::Map(hists)) = v.get("hists") {
        for (name, hist) in hists {
            out.push_str(&format!(
                "{:<32} {:>8} {:>12} {:>12} {:>12}\n",
                name,
                json_u64(hist.get("count")),
                json_u64(hist.get("p50")),
                json_u64(hist.get("p99")),
                json_u64(hist.get("max")),
            ));
        }
    }
    if let Some(flight) = v.get("flight") {
        out.push_str(&format!(
            "\nflight recorder (capacity {}, {} dropped):\n",
            json_u64(flight.get("capacity")),
            json_u64(flight.get("dropped")),
        ));
        if let Some(serde::Value::Seq(records)) = flight.get("records") {
            const TAIL: usize = 10;
            for rec in records.iter().skip(records.len().saturating_sub(TAIL)) {
                out.push_str(&format!(
                    "  #{:<6} {:<10} {:<14} total {:>8} us \
                     (queue {} + exec {} us, {} B{})\n",
                    json_u64(rec.get("seq")),
                    json_str(rec.get("kind")),
                    json_str(rec.get("outcome")),
                    json_u64(rec.get("total_us")),
                    json_u64(rec.get("queue_us")),
                    json_u64(rec.get("exec_us")),
                    json_u64(rec.get("resp_bytes")),
                    if matches!(rec.get("cache_hit"), Some(serde::Value::Bool(true))) {
                        ", cache hit"
                    } else {
                        ""
                    },
                ));
            }
        }
    }
    Ok(out)
}

/// `fosm top`: polls the daemon's `telemetry` request and renders the
/// per-kind phase histograms, pool counters, and flight-recorder
/// tail, redrawing in place until interrupted. `--once --json` is the
/// CI-friendly form: the raw body lands on stdout verbatim.
pub fn top(args: Parsed) -> Result<(), String> {
    let addr = args.flag("addr").ok_or("--addr <host:port> is required")?;
    let interval_ms: u64 = args.get("interval")?.unwrap_or(1000u64);
    let once = args.has("once");
    let json = args.has("json");
    loop {
        let body = match fosm_serve::client::call(addr, &Request::Telemetry)? {
            Response::Ok { body } => body,
            Response::Err { code, message } => return Err(format!("{code}: {message}")),
        };
        if json {
            print!("{body}");
        } else {
            let table = render_top(addr, &body)?;
            if !once {
                // ANSI clear + home, so live mode redraws in place.
                print!("\x1b[2J\x1b[H");
            }
            print!("{table}");
        }
        std::io::stdout()
            .flush()
            .map_err(|e| format!("cannot flush stdout: {e}"))?;
        if once {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(interval_ms.max(100)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_top_formats_every_section() {
        let body = r#"{"fosm_telemetry":4,"enabled":true,"requests":3,"panics":1,
            "pool":{"workers":4,"executed":7,"queue_depth":2},
            "hists":{"serve.total_us.ping":{"count":3,"sum":30,"min":8,
                     "max":12,"p50":15,"p99":15,"buckets":{"4":3}}},
            "flight":{"capacity":256,"dropped":0,"records":[
                {"seq":1,"kind":"ping","outcome":"ok","queue_us":1,
                 "exec_us":2,"respond_us":1,
                 "total_us":9,"resp_bytes":5,"cache_hit":true}]}}"#;
        let table = render_top("127.0.0.1:9", body).expect("renders");
        assert!(
            table.starts_with("fosm top — 127.0.0.1:9 (telemetry schema v4, 3 requests"),
            "{table}"
        );
        assert!(
            table.contains("pool : 4 workers, 7 executed, 1 panicked, queue depth 2\n"),
            "{table}"
        );
        assert!(
            table.contains("(queue 1 + exec 2 us, 5 B, cache hit)"),
            "{table}"
        );
        assert!(table.contains("serve.total_us.ping"), "{table}");
        assert!(
            table.contains("flight recorder (capacity 256, 0 dropped)"),
            "{table}"
        );
        assert!(table.contains("cache hit"), "{table}");
    }

    #[test]
    fn render_top_flags_disabled_telemetry_and_rejects_garbage() {
        let body = r#"{"fosm_telemetry":4,"enabled":false,"requests":0,
            "hists":{},"flight":{"capacity":256,"dropped":0,"records":[]}}"#;
        let table = render_top("a:1", body).expect("renders");
        assert!(table.contains("TELEMETRY DISABLED"), "{table}");
        assert!(render_top("a:1", "not json").is_err());
    }
}
