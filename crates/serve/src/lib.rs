//! Model-as-a-service daemon for the fosm toolchain.
//!
//! Everything else in this workspace is batch-shaped: one process, one
//! request, exit. That shape wastes the two most expensive artifacts in
//! the pipeline — recorded traces and functional profiles — whenever a
//! workflow issues many small model queries (interactive exploration,
//! CI matrices, parameter sweeps driven by external tools). `fosm
//! serve` keeps one process resident and makes the artifacts shared:
//!
//! * [`proto`] — the wire protocol: length-prefixed JSON frames over
//!   TCP, with structured errors for oversized, truncated, and
//!   malformed input;
//! * [`batch`] — leader–follower request batching that coalesces
//!   concurrent same-trace probe requests into one fused
//!   `profile_many` replay;
//! * [`service`] — the request handlers, shared verbatim between the
//!   daemon and the in-process `fosm client --local` path so responses
//!   are byte-identical either way, and the FIFO admission permits that
//!   bound how many requests run at once and catch a request's panic;
//! * [`server`] — the TCP accept loop, one thread per connection that
//!   runs its own requests under a permit, and graceful shutdown;
//! * [`client`] — a small blocking client used by `fosm client` and
//!   the load generator;
//! * [`loadgen`] — a closed-loop load generator recording latency
//!   percentiles and throughput into `BENCH_serve.json`;
//! * [`telemetry`] — request-lifecycle phase histograms and the
//!   bounded flight recorder behind `Request::Telemetry` / `fosm top`.
//!
//! Durability across restarts comes from `fosm-bench`'s disk-backed
//! artifact store, which persists profiles (traces are regenerated
//! from their spec, length and seed); per-request observability comes
//! from `fosm-obs` scoped registries. This crate adds no new model
//! code — it is purely a concurrency and transport layer over the
//! existing pipeline.

#![forbid(unsafe_code)]

pub mod batch;
pub mod client;
pub mod loadgen;
pub mod proto;
pub mod server;
pub mod service;
pub mod telemetry;
