//! Multi-tenant VM service: thousands of concurrent MiniML program
//! executions in one process (DESIGN.md §6i).
//!
//! The crate has four layers:
//!
//! * [`wire`] — the length-prefixed binary request/response protocol;
//! * [`server`] — acceptor, per-connection readers, the shared job
//!   queue, the fixed worker pool, and the compile-once program cache
//!   (`Arc<PreparedProgram>` keyed by mode, dispatch and source);
//! * [`client`] — a minimal blocking client for tests and smoke runs;
//! * [`load`] — the load driver: counts how every request was answered
//!   and holds executed responses to per-program uniformity (used by the
//!   `loadgen` binary and the serve tests; it holds no clock — latency
//!   and throughput are read by the repo benchmark, `benchmark/`).
//!
//! Isolation story: every request executes on a fresh `Vm`/`Rt` under
//! its own fuel, memory and wall-clock quota; only immutable compiled
//! artifacts are shared between tenants. Counters (instruction totals,
//! GC counts, copied words) are bit-identical to a standalone
//! single-threaded run of the same program — enforced by
//! [`load::check_against_standalone`] and the verify smoke leg.
//!
//! Overload story (DESIGN.md §6j): admission is bounded and sheds with
//! typed `Overloaded` responses, tenants are rate-limited by token
//! bucket (`RateLimited`), deadlines surface as engine-identical
//! `DeadlineExceeded` at the VM's safe points, drains answer queued
//! work instead of dropping it, and misbehaving connections (slowloris,
//! stalled readers, mid-frame deaths) are reaped on typed budgets.

#![forbid(unsafe_code)]

pub mod client;
pub mod load;
pub mod server;
pub mod wire;

pub use client::Client;
pub use load::{check_against_standalone, run_load, LoadProgram, LoadReport, LoadSpec};
pub use server::{DrainReport, RateLimit, Server, ServerConfig, ServerHandle};
pub use wire::{Request, Response, Status};
