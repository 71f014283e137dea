//! # dft-serve
//!
//! The long-running analysis daemon: testability analysis cheap enough
//! to run *during* design means never re-reading, re-compiling or
//! re-analyzing a netlist a client already loaded. This crate keeps the
//! expensive artifacts — the levelized [`dft_sim::Kernel`], the
//! implication-engine products, fault dictionaries and the incremental
//! [`dft_analyze::AnalysisCache`] — hot in a content-hash-keyed
//! [`Workspace`] of [`DesignSession`]s and answers lint / SCOAP /
//! fault-sim / PODEM / ECO requests from many concurrent clients.
//!
//! Two halves:
//!
//! * **Service core** ([`Workspace`], [`DesignSession`], [`Service`],
//!   the [`api`] request/response vocabulary and the [`codec`]): every
//!   session sits behind an `RwLock`, so read-only queries on warm
//!   artifacts run in parallel while ECO edits take the write path
//!   through [`dft_analyze::AnalysisCache::apply`] — the incremental
//!   re-levelization and dirty-cone re-solve, not a from-scratch
//!   rebuild.
//! * **Transport** ([`http`], [`client`]): a minimal HTTP/1.1 server on
//!   `std::net::TcpListener` with a worker pool, request size/time
//!   limits and graceful shutdown via `/shutdown`. The daemon holds no
//!   durable state, so external termination (SIGTERM) is always safe;
//!   in-process shutdown drains in-flight requests first.
//!
//! Telemetry has one mechanism, dft-obs: each request records a span
//! tree (transport phases, the endpoint span, artifact hit/build
//! counts) and `/stats` is the fold of those trees ([`ServeStats`]).
//!
//! The wire format is the hand-rolled, versioned `tessera-serve/1`
//! JSON codec on `dft-json` — no serde anywhere in the workspace.

#![forbid(unsafe_code)]

pub mod api;
pub mod client;
pub mod codec;
pub mod http;
pub mod service;
pub mod session;
pub mod stats;
pub mod workspace;

pub use api::{DesignInfo, EcoEdit, ErrorCode, PodemOutcome, Request, Response, ScoapSummary};
pub use client::{Client, ClientError};
pub use codec::{decode_request, decode_response, encode_request, encode_response, CodecError};
pub use http::{serve, ServerConfig, ServerHandle};
pub use service::Service;
pub use session::DesignSession;
pub use stats::ServeStats;
pub use workspace::{LoadError, Resolver, Workspace};
