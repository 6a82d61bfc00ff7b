//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message on a connection — in either direction — is one
//! **frame**: a 4-byte big-endian `u32` length followed by exactly
//! that many bytes of UTF-8 JSON. The framing layer is deliberately
//! dumb (no versioning handshake, no compression, no multiplexing):
//! requests are answered in order on each connection, so a frame
//! boundary is also a request boundary, and a client that wants
//! concurrency opens more connections.
//!
//! ```text
//! +----------------+---------------------------+
//! | len: u32 (BE)  | payload: len bytes (JSON) |
//! +----------------+---------------------------+
//! ```
//!
//! Defensive properties, tested in `tests/proto.rs`:
//!
//! * a length above [`MAX_FRAME_LEN`] is rejected before any payload
//!   is read ([`FrameError::Oversized`]) — a garbage header cannot make
//!   the server allocate gigabytes;
//! * a stream that ends mid-header or mid-payload reads as
//!   [`FrameError::Truncated`], never a hang or a partial frame;
//! * payload bytes that are not valid JSON for the expected type
//!   decode to an error the server answers with a structured
//!   [`Response::Err`], never a panic.

use std::io::{Read, Write};

use fosm_core::params::ProcessorParams;
use serde::{Deserialize, Serialize};

/// Upper bound on a single frame's payload (8 MiB). Large enough for
/// any profile JSON this toolchain produces, small enough that a
/// malicious or corrupt length field cannot drive allocation.
pub const MAX_FRAME_LEN: u32 = 8 * 1024 * 1024;

/// Size of the frame header (the big-endian payload length).
pub const HEADER_LEN: usize = 4;

/// A failure at the framing layer (below JSON decoding).
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The header announced a payload above [`MAX_FRAME_LEN`].
    Oversized {
        /// The announced payload length.
        announced: u32,
    },
    /// The stream ended inside a header or payload.
    Truncated {
        /// Bytes the frame still owed when the stream ended.
        missing: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::Oversized { announced } => write!(
                f,
                "frame announces {announced} bytes, above the {MAX_FRAME_LEN}-byte limit"
            ),
            FrameError::Truncated { missing } => {
                write!(f, "stream ended {missing} byte(s) short of a full frame")
            }
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame. The payload must fit [`MAX_FRAME_LEN`].
///
/// # Errors
///
/// [`FrameError::Oversized`] if the payload is too large, otherwise
/// any transport error.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&len| len <= MAX_FRAME_LEN)
        .ok_or(FrameError::Oversized {
            announced: u32::try_from(payload.len()).unwrap_or(u32::MAX),
        })?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame. Returns `Ok(None)` on a clean end of stream (EOF
/// exactly at a frame boundary); an EOF anywhere inside a frame is
/// [`FrameError::Truncated`].
///
/// # Errors
///
/// See [`FrameError`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    match read_exact_or_eof(r, &mut header)? {
        0 => return Ok(None),
        HEADER_LEN => {}
        got => {
            return Err(FrameError::Truncated {
                missing: HEADER_LEN - got,
            })
        }
    }
    let len = parse_len(&header)?;
    let mut payload = vec![0u8; len as usize];
    let got = read_exact_or_eof(r, &mut payload)?;
    if got < payload.len() {
        return Err(FrameError::Truncated {
            missing: payload.len() - got,
        });
    }
    Ok(Some(payload))
}

/// Validates a frame header, returning the announced payload length.
///
/// # Errors
///
/// [`FrameError::Oversized`] when the length exceeds [`MAX_FRAME_LEN`].
pub fn parse_len(header: &[u8; HEADER_LEN]) -> Result<u32, FrameError> {
    let len = u32::from_be_bytes(*header);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized { announced: len });
    }
    Ok(len)
}

/// Fills `buf` from `r`, stopping early only at end of stream; returns
/// the number of bytes actually read.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

// ---------------------------------------------------------------------
// Message types.
// ---------------------------------------------------------------------

/// The machine configuration a request runs under. Mirrors
/// [`ProcessorParams`] minus the latency table (requests always use
/// the paper's baseline latencies, like the CLI's machine flags).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Fetch/dispatch/issue/retire width.
    pub width: u32,
    /// Issue-window entries.
    pub window: u32,
    /// Reorder-buffer entries.
    pub rob: u32,
    /// Front-end pipeline depth, cycles.
    pub depth: u32,
    /// L2 access latency, cycles.
    pub l2: u32,
    /// Main-memory latency, cycles.
    pub mem: u32,
}

impl Default for MachineSpec {
    fn default() -> Self {
        MachineSpec::from_params(&ProcessorParams::baseline())
    }
}

impl MachineSpec {
    /// The spec matching an existing parameter set.
    pub fn from_params(params: &ProcessorParams) -> Self {
        MachineSpec {
            width: params.width,
            window: params.win_size,
            rob: params.rob_size,
            depth: params.pipe_depth,
            l2: params.l2_latency,
            mem: params.mem_latency,
        }
    }

    /// The validated model parameters this spec describes.
    ///
    /// # Errors
    ///
    /// Whatever [`ProcessorParams::validate`] rejects (zero width,
    /// window larger than the ROB, …).
    pub fn to_params(&self) -> Result<ProcessorParams, String> {
        let params = ProcessorParams {
            width: self.width,
            win_size: self.window,
            rob_size: self.rob,
            pipe_depth: self.depth,
            l2_latency: self.l2,
            mem_latency: self.mem,
            latencies: ProcessorParams::baseline().latencies,
        };
        params.validate()?;
        Ok(params)
    }
}

/// Arguments shared by `profile` and `model` requests: which workload
/// to analyze, under which machine, through which probe variant.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileRequest {
    /// Built-in benchmark name (see `fosm bench-list`).
    pub bench: String,
    /// Trace length in instructions.
    pub insts: u64,
    /// Workload generator seed.
    pub seed: u64,
    /// Machine configuration.
    pub machine: MachineSpec,
    /// Probe variant: `full`, `ideal`, `branch`, `icache`, or `dcache`.
    pub probe: String,
}

/// Arguments of a `validate` request: one workload's differential
/// model-vs-simulator comparison.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValidateRequest {
    /// Built-in benchmark name.
    pub bench: String,
    /// Trace length in instructions.
    pub insts: u64,
    /// Workload generator seed.
    pub seed: u64,
    /// Machine configuration.
    pub machine: MachineSpec,
}

/// Arguments of an `explore` request: a design-space sweep over the
/// given machine-grid axes (an empty axis means the baseline sweep's
/// values for that axis).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExploreRequest {
    /// Built-in benchmark name.
    pub bench: String,
    /// Trace length in instructions.
    pub insts: u64,
    /// Workload generator seed.
    pub seed: u64,
    /// Issue-width axis.
    pub widths: Vec<u32>,
    /// Issue-window axis.
    pub windows: Vec<u32>,
    /// ROB axis.
    pub robs: Vec<u32>,
    /// Pipeline-depth axis.
    pub depths: Vec<u32>,
    /// L2-latency axis.
    pub l2s: Vec<u32>,
    /// Memory-latency axis.
    pub mems: Vec<u32>,
}

/// One request frame, client → server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness check; answers `pong`.
    Ping,
    /// Collect one probe variant's functional profile; answers the
    /// profile as pretty-printed JSON.
    Profile(ProfileRequest),
    /// Profile and evaluate the first-order model; answers the CPI
    /// stack rendering.
    Model(ProfileRequest),
    /// Differentially validate the model against the detailed
    /// simulator on one workload; answers the component table.
    Validate(ValidateRequest),
    /// Sweep the design space; answers the Pareto frontier as CSV.
    Explore(ExploreRequest),
    /// Server and store diagnostics (admission and cache traffic).
    Stats,
    /// Schema-versioned telemetry snapshot: per-kind latency phase
    /// histograms, admission traffic, and the request flight
    /// recorder, as one line of JSON (`fosm top` renders it).
    Telemetry,
    /// Ask the daemon to stop accepting work and exit cleanly.
    Shutdown,
}

impl Request {
    /// Short lifecycle label for telemetry (`serve.total_us.<kind>`
    /// histogram names and flight-recorder rows).
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Profile(_) => "profile",
            Request::Model(_) => "model",
            Request::Validate(_) => "validate",
            Request::Explore(_) => "explore",
            Request::Stats => "stats",
            Request::Telemetry => "telemetry",
            Request::Shutdown => "shutdown",
        }
    }
}

/// One response frame, server → client.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Response {
    /// The request succeeded; `body` is the rendered result and is
    /// exactly what `fosm client` prints on stdout.
    Ok {
        /// Rendered result text (JSON for `profile`, tables otherwise).
        body: String,
    },
    /// The request failed; the connection stays usable.
    Err {
        /// Stable machine-readable category (`malformed-request`,
        /// `bad-request`, `model-error`, `oversized-frame`,
        /// `shutting-down`, `internal`).
        code: String,
        /// Human-readable description.
        message: String,
    },
}

impl Response {
    /// An `Ok` response around a rendered body.
    pub fn ok(body: impl Into<String>) -> Self {
        Response::Ok { body: body.into() }
    }

    /// An `Err` response with a stable code.
    pub fn err(code: &str, message: impl Into<String>) -> Self {
        Response::Err {
            code: code.to_string(),
            message: message.into(),
        }
    }
}

/// Serializes a request for framing.
///
/// # Panics
///
/// Never for the types above (serialization of plain data cannot
/// fail in the vendored serde).
pub fn encode_request(req: &Request) -> Vec<u8> {
    serde_json::to_string(req)
        .expect("requests serialize")
        .into_bytes()
}

/// Deserializes a request frame.
///
/// # Errors
///
/// A description of why the payload is not a valid request (not
/// UTF-8, not JSON, or not this protocol's shape).
pub fn decode_request(payload: &[u8]) -> Result<Request, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("payload is not UTF-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| format!("payload is not a valid request: {e}"))
}

/// Serializes a response for framing.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    serde_json::to_string(resp)
        .expect("responses serialize")
        .into_bytes()
}

/// Deserializes a response frame.
///
/// # Errors
///
/// A description of why the payload is not a valid response.
pub fn decode_response(payload: &[u8]) -> Result<Response, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("payload is not UTF-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| format!("payload is not a valid response: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").expect("write");
        write_frame(&mut buf, b"").expect("write empty");
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).expect("frame 1").unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).expect("frame 2").unwrap(), b"");
        assert!(read_frame(&mut r).expect("clean eof").is_none());
    }

    #[test]
    fn oversized_header_is_rejected_without_reading_payload() {
        let mut buf = (MAX_FRAME_LEN + 1).to_be_bytes().to_vec();
        buf.extend_from_slice(b"should never be read");
        let mut r = buf.as_slice();
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::Oversized { announced }) if announced == MAX_FRAME_LEN + 1
        ));
    }

    #[test]
    fn truncated_header_and_payload_are_detected() {
        let mut r: &[u8] = &[0, 0];
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::Truncated { missing: 2 })
        ));
        let mut buf = Vec::new();
        write_frame(&mut buf, b"full payload").expect("write");
        buf.truncate(buf.len() - 4);
        let mut r = buf.as_slice();
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::Truncated { missing: 4 })
        ));
    }

    #[test]
    fn request_and_response_round_trip() {
        let requests = [
            Request::Ping,
            Request::Profile(ProfileRequest {
                bench: "gzip".into(),
                insts: 20_000,
                seed: 42,
                machine: MachineSpec::default(),
                probe: "full".into(),
            }),
            Request::Stats,
            Request::Telemetry,
            Request::Shutdown,
        ];
        for req in &requests {
            let decoded = decode_request(&encode_request(req)).expect("request decodes");
            assert_eq!(&decoded, req);
        }
        for resp in [
            Response::ok("pong\n"),
            Response::err("bad-request", "unknown benchmark `nope`"),
        ] {
            let decoded = decode_response(&encode_response(&resp)).expect("response decodes");
            assert_eq!(decoded, resp);
        }
    }

    #[test]
    fn malformed_json_decodes_to_an_error_not_a_panic() {
        for garbage in [
            &b"not json at all"[..],
            b"{\"Unknown\": {}}",
            b"{\"Profile\": {\"bench\": 7}}",
            b"\xff\xfe",
        ] {
            assert!(decode_request(garbage).is_err());
        }
    }

    #[test]
    fn machine_spec_round_trips_params() {
        let spec = MachineSpec::default();
        let params = spec.to_params().expect("baseline validates");
        assert_eq!(MachineSpec::from_params(&params), spec);
        let bad = MachineSpec { width: 0, ..spec };
        assert!(bad.to_params().is_err());
    }
}
