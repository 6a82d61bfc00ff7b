//! The TCP daemon: accept loop, per-connection framing, shutdown.
//!
//! Threading model: one accept thread and one thread per connection.
//! A connection thread decodes a request, runs it itself through
//! [`Service::admit`] — which waits for a FIFO permit, so at most
//! `--workers` requests run at once, in arrival order — and writes the
//! response frame. A slow request never stalls the accept loop, and
//! concurrency is bounded by the permits, not the connection count. A
//! request that panics is answered with an `internal` error, and the
//! connection stays open.
//!
//! Each request runs under its own `fosm_obs` scoped registry
//! (per-request span roots and counters, no cross-request bleed),
//! merged into the process-global registry when it finishes. The
//! connection thread also stamps every finished request into the
//! service's [`telemetry`](crate::telemetry) — per-kind phase
//! histograms plus a flight record — and the flight recorder is dumped
//! to stderr on connection failures and at clean shutdown.
//!
//! The accept loop joins finished connection threads as it accepts new
//! ones, so an idle daemon holds only its main and accept threads.
//! Shutdown is cooperative and complete: a `shutdown` request (or
//! [`ServerHandle::stop`]) sets the stop flag, pokes the accept loop
//! awake with a loopback connection, and [`ServerHandle::join`] then
//! joins the accept thread and every connection thread — exiting with
//! no leaked threads is part of the CI smoke contract.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::proto::{
    decode_request, encode_response, parse_len, write_frame, FrameError, Request, Response,
    HEADER_LEN,
};
use crate::service::{micros, Phases, Service};
use crate::telemetry::RequestRecord;

/// How often an idle connection read wakes up to check the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(250);

/// A running daemon.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    service: Arc<Service>,
    accept: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

/// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
/// accepting connections against `service`.
///
/// # Errors
///
/// Whatever binding the listener fails with.
pub fn start(service: Arc<Service>, addr: &str) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let conns = Arc::new(Mutex::new(Vec::new()));

    let accept = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let conns = Arc::clone(&conns);
        std::thread::Builder::new()
            .name("fosm-serve-accept".into())
            .spawn(move || accept_loop(&listener, &service, &stop, &conns, addr))
            .expect("spawn accept thread")
    };

    Ok(ServerHandle {
        addr,
        stop,
        service,
        accept: Some(accept),
        conns,
    })
}

impl ServerHandle {
    /// The bound address (with the actual port when `:0` was asked).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the daemon to stop: no new connections, existing ones
    /// drain. Returns immediately; pair with [`ServerHandle::join`].
    pub fn stop(&self) {
        request_stop(&self.stop, self.addr);
    }

    /// Blocks until the daemon has fully stopped: the accept thread
    /// and every connection thread joined.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let handles: Vec<_> = self.conns.lock().expect("server conns").drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
        // Every request is answered by now; leave the tail of the
        // traffic on stderr for post-mortems.
        if let Some(dump) = self.service.telemetry().flight_dump("clean shutdown") {
            eprint!("{dump}");
        }
    }

    /// Convenience: [`stop`](Self::stop) then [`join`](Self::join).
    pub fn stop_and_join(self) {
        self.stop();
        self.join();
    }
}

/// Sets the stop flag and pokes the accept loop awake with a loopback
/// connection so it observes the flag immediately.
fn request_stop(stop: &AtomicBool, addr: SocketAddr) {
    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect_timeout(&addr, POLL_INTERVAL);
}

fn accept_loop(
    listener: &TcpListener,
    service: &Arc<Service>,
    stop: &Arc<AtomicBool>,
    conns: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    addr: SocketAddr,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stop.load(Ordering::SeqCst) {
                    // The stream may be the shutdown poke itself;
                    // either way, no new conversations.
                    drop(stream);
                    return;
                }
                let service = Arc::clone(service);
                let stop = Arc::clone(stop);
                let handle = std::thread::Builder::new()
                    .name("fosm-serve-conn".into())
                    .spawn(move || serve_connection(stream, &service, &stop, addr))
                    .expect("spawn connection thread");
                let mut conns = conns.lock().expect("server conns");
                for done in conns.extract_if(.., |h| h.is_finished()) {
                    let _ = done.join();
                }
                conns.push(handle);
            }
            Err(_) if stop.load(Ordering::SeqCst) => return,
            Err(_) => continue,
        }
    }
}

/// What one idle-tolerant frame read produced.
enum ConnRead {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// Clean end of stream at a frame boundary.
    Closed,
    /// The stop flag went up while the connection was idle (or
    /// mid-frame during shutdown); drop the connection.
    Stopping,
    /// Framing violation or transport failure.
    Failed(FrameError),
}

/// Reads one frame with a poll-interval read timeout so an idle
/// connection notices shutdown, without ever mis-reading a slow
/// writer's frame as truncated.
fn read_frame_idle(stream: &mut TcpStream, stop: &AtomicBool) -> ConnRead {
    let mut header = [0u8; HEADER_LEN];
    match fill(stream, &mut header, stop) {
        Fill::Done => {}
        Fill::Eof(0) => return ConnRead::Closed,
        Fill::Eof(got) => {
            return ConnRead::Failed(FrameError::Truncated {
                missing: HEADER_LEN - got,
            })
        }
        Fill::Stopping => return ConnRead::Stopping,
        Fill::Failed(e) => return ConnRead::Failed(FrameError::Io(e)),
    }
    let len = match parse_len(&header) {
        Ok(len) => len,
        Err(e) => return ConnRead::Failed(e),
    };
    let mut payload = vec![0u8; len as usize];
    match fill(stream, &mut payload, stop) {
        Fill::Done => ConnRead::Frame(payload),
        Fill::Eof(got) => ConnRead::Failed(FrameError::Truncated {
            missing: payload.len() - got,
        }),
        Fill::Stopping => ConnRead::Stopping,
        Fill::Failed(e) => ConnRead::Failed(FrameError::Io(e)),
    }
}

/// Outcome of filling a buffer under the poll-interval timeout.
enum Fill {
    Done,
    /// Stream ended after this many bytes.
    Eof(usize),
    Stopping,
    Failed(std::io::Error),
}

fn fill(stream: &mut TcpStream, buf: &mut [u8], stop: &AtomicBool) -> Fill {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Fill::Eof(filled),
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return Fill::Stopping;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Fill::Failed(e),
        }
    }
    Fill::Done
}

fn serve_connection(
    mut stream: TcpStream,
    service: &Arc<Service>,
    stop: &Arc<AtomicBool>,
    addr: SocketAddr,
) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    loop {
        let payload = match read_frame_idle(&mut stream, stop) {
            ConnRead::Frame(payload) => payload,
            ConnRead::Closed | ConnRead::Stopping => return,
            ConnRead::Failed(e) => {
                // A garbage header gets a structured answer before the
                // connection closes (the remaining bytes are
                // unframeable, so it cannot stay open); a truncated or
                // broken stream has nobody left to answer.
                if let FrameError::Oversized { .. } = e {
                    let answer = Response::err("oversized-frame", e.to_string());
                    let _ = write_frame(&mut stream, &encode_response(&answer));
                }
                // An error path is exactly what the flight recorder is
                // for: leave the recent traffic on stderr.
                if let Some(dump) = service
                    .telemetry()
                    .flight_dump(&format!("connection failed: {e}"))
                {
                    eprint!("{dump}");
                }
                return;
            }
        };
        // Lifecycle zero point: the request frame is fully read.
        let received = Instant::now();
        let request = decode_request(&payload);
        let shutdown = matches!(request, Ok(Request::Shutdown));
        let (kind, response, phases) = match request {
            // Malformed JSON is an *answer*, not a disconnect: framing
            // is intact, so the connection stays usable.
            Err(why) => (
                "malformed",
                Response::err("malformed-request", why),
                Phases::default(),
            ),
            Ok(req) if shutdown => (req.kind(), service.execute(&req), Phases::default()),
            Ok(req) if stop.load(Ordering::SeqCst) => (
                req.kind(),
                Response::err("shutting-down", "daemon is shutting down"),
                Phases::default(),
            ),
            Ok(req) => {
                let (response, phases) = service.admit(req.kind(), || service.execute(&req));
                (req.kind(), response, phases)
            }
        };
        let sent = finish(&mut stream, service, kind, received, phases, &response);
        if shutdown {
            request_stop(stop, addr);
        }
        if shutdown || !sent {
            return;
        }
    }
}

/// Writes the response frame, stamps the request's telemetry record,
/// and reports whether the connection is still usable.
fn finish(
    stream: &mut TcpStream,
    service: &Arc<Service>,
    kind: &'static str,
    received: Instant,
    phases: Phases,
    response: &Response,
) -> bool {
    let payload = encode_response(response);
    let write_start = Instant::now();
    let sent = write_frame(stream, &payload).is_ok();
    let respond_us = micros(write_start.elapsed());
    let outcome = match response {
        Response::Ok { .. } => "ok".to_string(),
        Response::Err { code, .. } => code.clone(),
    };
    service.telemetry().record(RequestRecord {
        seq: 0,
        kind,
        outcome,
        queue_us: phases.queue_us,
        batch_wait_us: phases.batch_wait_us,
        exec_us: phases.exec_us,
        respond_us,
        total_us: micros(received.elapsed()),
        resp_bytes: payload.len() as u64,
        cache_hit: phases.cache_hit,
    });
    sent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use crate::proto::{MachineSpec, ProfileRequest};
    use fosm_bench::store::ArtifactStore;

    fn start_test_server() -> ServerHandle {
        let service = Arc::new(Service::new(
            Arc::new(ArtifactStore::new()),
            2,
            Duration::ZERO,
        ));
        start(service, "127.0.0.1:0").expect("bind test server")
    }

    fn profile_req() -> Request {
        Request::Profile(ProfileRequest {
            bench: "gzip".into(),
            insts: 3_000,
            seed: 7,
            machine: MachineSpec::default(),
            probe: "full".into(),
        })
    }

    #[test]
    fn ping_over_the_wire() {
        let server = start_test_server();
        let resp = client::call(&server.addr().to_string(), &Request::Ping).expect("ping");
        assert_eq!(resp, Response::ok("pong\n"));
        server.stop_and_join();
    }

    #[test]
    fn daemon_response_matches_in_process_execution() {
        let server = start_test_server();
        let over_wire = client::call(&server.addr().to_string(), &profile_req()).expect("profile");
        server.stop_and_join();
        let local =
            Service::new(Arc::new(ArtifactStore::new()), 1, Duration::ZERO).execute(&profile_req());
        assert_eq!(over_wire, local, "wire and local bodies must be identical");
    }

    #[test]
    fn finished_connection_threads_are_reaped() {
        let server = start_test_server();
        let addr = server.addr().to_string();
        for _ in 0..64 {
            let resp = client::call(&addr, &Request::Ping).expect("ping");
            assert_eq!(resp, Response::ok("pong\n"));
        }
        let live = server.conns.lock().expect("server conns").len();
        assert!(live <= 8, "{live} connection handles kept after 64 closed");
        server.stop_and_join();
    }

    #[test]
    fn malformed_json_gets_an_error_and_the_connection_survives() {
        let server = start_test_server();
        let mut conn = client::Connection::open(&server.addr().to_string()).expect("connect");
        let resp = conn.send_raw(b"this is not json").expect("raw send");
        assert!(
            matches!(&resp, Response::Err { code, .. } if code == "malformed-request"),
            "got {resp:?}"
        );
        // Same connection still answers real requests.
        let resp = conn.send(&Request::Ping).expect("ping after garbage");
        assert_eq!(resp, Response::ok("pong\n"));
        server.stop_and_join();
    }

    #[test]
    fn shutdown_request_stops_the_daemon_cleanly() {
        let server = start_test_server();
        let addr = server.addr().to_string();
        let resp = client::call(&addr, &Request::Shutdown).expect("shutdown");
        assert_eq!(resp, Response::ok("shutting down\n"));
        server.join();
        // The port no longer answers.
        assert!(client::call(&addr, &Request::Ping).is_err());
    }

    fn num(v: &serde::Value) -> u64 {
        match v {
            serde::Value::Num(raw) => raw.parse().expect("integer field"),
            other => panic!("not a number: {other:?}"),
        }
    }

    fn hist_field(v: &serde::Value, hist: &str, field: &str) -> u64 {
        let hists = v.get("hists").expect("hists section");
        let h = hists
            .get(hist)
            .unwrap_or_else(|| panic!("missing hist `{hist}`"));
        num(h.get(field).expect("hist field"))
    }

    #[test]
    fn telemetry_reconciles_phases_and_records_both_outcomes() {
        let server = start_test_server();
        let addr = server.addr().to_string();
        // One Ok profile, one structured failure, one ping.
        client::call(&addr, &profile_req()).expect("profile");
        let bad = Request::Profile(ProfileRequest {
            bench: "nope".into(),
            insts: 1_000,
            seed: 1,
            machine: MachineSpec::default(),
            probe: "full".into(),
        });
        match client::call(&addr, &bad).expect("bad profile answered") {
            Response::Err { code, .. } => assert_eq!(code, "bad-request"),
            Response::Ok { body } => panic!("unexpected success: {body}"),
        }
        client::call(&addr, &Request::Ping).expect("ping");

        let body = match client::call(&addr, &Request::Telemetry).expect("telemetry") {
            Response::Ok { body } => body,
            Response::Err { code, message } => panic!("telemetry failed {code}: {message}"),
        };
        let v: serde::Value = serde_json::from_str(body.trim_end()).expect("telemetry is JSON");
        assert_eq!(num(v.get("fosm_telemetry").expect("schema tag")), 3);

        // Phase histograms reconcile per request kind: the disjoint
        // sub-phases can never sum past the measured total.
        for (kind, expected_count) in [("profile", 2), ("ping", 1)] {
            let count = hist_field(&v, &format!("serve.total_us.{kind}"), "count");
            assert_eq!(count, expected_count, "total_us count for {kind}");
            let queue = hist_field(&v, &format!("serve.queue_us.{kind}"), "sum");
            let batch = hist_field(&v, &format!("serve.batch_wait_us.{kind}"), "sum");
            let exec = hist_field(&v, &format!("serve.exec_us.{kind}"), "sum");
            let total = hist_field(&v, &format!("serve.total_us.{kind}"), "sum");
            assert!(
                queue + batch + exec <= total,
                "{kind}: queue {queue} + batch {batch} + exec {exec} > total {total}"
            );
        }

        // The flight recorder holds both outcomes, in arrival order.
        let records = match v.get("flight").and_then(|f| f.get("records")) {
            Some(serde::Value::Seq(records)) => records.clone(),
            other => panic!("flight.records missing: {other:?}"),
        };
        let outcomes: Vec<String> = records
            .iter()
            .map(|r| match r.get("outcome") {
                Some(serde::Value::Str(s)) => s.clone(),
                other => panic!("outcome missing: {other:?}"),
            })
            .collect();
        assert!(outcomes.contains(&"ok".to_string()), "{outcomes:?}");
        assert!(
            outcomes.contains(&"bad-request".to_string()),
            "{outcomes:?}"
        );
        server.stop_and_join();
    }

    #[test]
    fn warm_model_request_skips_the_batch_window() {
        let service = Arc::new(Service::new(
            Arc::new(ArtifactStore::new()),
            2,
            Duration::from_millis(200),
        ));
        let server = start(Arc::clone(&service), "127.0.0.1:0").expect("bind test server");
        let model = Request::Model(ProfileRequest {
            bench: "gzip".into(),
            insts: 3_000,
            seed: 7,
            machine: MachineSpec::default(),
            probe: "full".into(),
        });
        let mut conn = client::Connection::open(&server.addr().to_string()).expect("connect");
        let cold = conn.send(&model).expect("cold model");
        let warm = conn.send(&model).expect("warm model");
        // The connection serves frames in order, so once the ping is
        // answered both model records have been pushed.
        conn.send(&Request::Ping).expect("ping");
        server.stop_and_join();

        let records: Vec<_> = service
            .telemetry()
            .flight()
            .records()
            .into_iter()
            .filter(|r| r.kind == "model")
            .collect();
        assert_eq!(records.len(), 2, "{records:?}");
        assert!(records[0].batch_wait_us >= 200_000, "{records:?}");
        assert!(!records[0].cache_hit, "{records:?}");
        assert_eq!(records[1].batch_wait_us, 0, "{records:?}");
        assert!(records[1].cache_hit, "{records:?}");
        let local = Service::new(Arc::new(ArtifactStore::new()), 1, Duration::ZERO).execute(&model);
        assert_eq!(cold, local);
        assert_eq!(warm, local, "warm wire body equals the in-process body");
    }

    #[test]
    fn concurrent_clients_all_get_correct_answers() {
        let server = start_test_server();
        let addr = server.addr().to_string();
        let expected = client::call(&addr, &profile_req()).expect("reference response");
        let responses: Vec<_> = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let addr = addr.clone();
                    s.spawn(move || client::call(&addr, &profile_req()).expect("profile"))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        for resp in responses {
            assert_eq!(resp, expected);
        }
        server.stop_and_join();
    }
}
