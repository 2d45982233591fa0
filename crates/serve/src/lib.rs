//! `simpadv-serve`: a batched, adversarial-aware inference service.
//!
//! The paper argues for a *cheap, deployable* single-step defense; this
//! crate is the deployment half of that claim. It serves a trained
//! classifier over plain TCP/HTTP (`std::net`, no external
//! dependencies) with four production-shaped behaviors layered on the
//! existing subsystems:
//!
//! * **Dynamic batching** ([`batcher`]) — the dispatcher takes every
//!   request queued when it comes free, up to `batch_max`, and runs them
//!   as ONE forward pass; a lone request never waits for company.
//!   Eval-mode forwards are row-independent, so the batched rows are
//!   bitwise identical to single-input inference (the determinism suite
//!   asserts it).
//! * **Kept-alive connections** ([`server`], [`client`]) — a client
//!   thread keeps one connection open, each message goes out in one
//!   write, and shutdown closes every connection it accepted.
//! * **Backpressure** — a full queue rejects loudly (HTTP 503 with a
//!   typed body), never silently drops.
//! * **Hot-swap** — the server watches a
//!   [`simpadv_resilience::CheckpointStore`] directory and atomically
//!   installs newer generations at batch boundaries; generations that
//!   do not load or restore are skipped (counter
//!   `serve/generation_skipped`) at boot and on every rescan alike, and
//!   the last valid one serves.
//!
//! Requests may carry a ground-truth label and an `adversarial` flag,
//! so per-generation clean-vs-adversarial accuracy is monitored live —
//! the production mirror of Table I's offline evaluation.
//!
//! This is the one crate that may name `std::net` types (the
//! `disallowed-types` list in `clippy.toml`); everything else reaches a
//! server through [`client`].

#![expect(clippy::disallowed_types, reason = "the serving crate owns the workspace's sockets")]

pub mod batcher;
pub mod client;
pub mod error;
pub mod model;
pub mod protocol;
pub mod server;
pub mod stats;

pub use batcher::{BatchConfig, Engine, SwapReport};
pub use error::ServeError;
pub use model::{newest_servable, Scan, ServedModel};
pub use protocol::{HealthBody, PredictRequest, PredictResponse, RejectBody};
pub use server::{ServeConfig, Server};
pub use stats::{GenerationClassStats, LatencySummary, OccupancySummary, StatsSnapshot};
