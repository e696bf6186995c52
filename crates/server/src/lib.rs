//! Network serving layer over the explanation runtime.
//!
//! The crate is the paper's explanation engine turned into a service:
//! a versioned binary wire protocol ([`wire`], built on the shared
//! primitives and codecs of [`revelio_core::wire`]), one frame service
//! that owns the listener, the per-connection threads and the stop/drain
//! lifecycle ([`service`]), a backend server whose dispatch funnels
//! decoded requests into the [`revelio_runtime::Runtime`] worker pool
//! ([`server`]), and a small client library with retry/backoff
//! ([`client`]). The sharding gateway runs on the same frame service with
//! its own dispatch. Everything is `std`-only — the transport is plain
//! TCP, the codec hand-rolled and validated, the concurrency model
//! thread-per-connection over the runtime's fixed worker pool.
//!
//! ```no_run
//! use revelio_server::{Client, Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default()).unwrap();
//! let addr = server.local_addr();
//! // ... in another process or thread:
//! let mut client = Client::connect(addr).unwrap();
//! client.ping().unwrap();
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod client;
pub mod server;
pub mod service;
pub mod wire;

pub use client::{Client, ClientConfig, ClientError};
pub use server::{Server, ServerConfig, ServerStartError};
pub use service::{read_frame_cancellable, FrameLimits, FrameService, WireState, POLL_INTERVAL};
pub use wire::{
    ErrorKind, ExplainRequest, GatewayBackendStats, GatewayStats, Request, Response,
    ServedExplanation, ServerStats, WireError, WireEvent, WireEventKind, WireExplanationSummary,
    WireStoredExplanation, WireTiming, WireTrace, DEFAULT_MAX_FRAME_LEN, MAGIC, PROTOCOL_VERSION,
};
