//! `kgq-serve` — a long-lived, multi-client query server.
//!
//! The batch CLI re-parses its graph and serves exactly one query per
//! process. This crate is the serving layer the paper's "knowledge
//! graphs under heavy, heterogeneous query traffic" setting calls for
//! (and MillenniumDB realizes in production): one process holds **one
//! shared snapshot** — a property graph, a triple store and a
//! generation-stamped compiled-query cache — and routes RPQ, Cypher and
//! SPARQL requests from any number of TCP clients through the existing
//! engines.
//!
//! Admission control is the PR-2 governor under concurrency:
//!
//! - every request runs **governed** with an effective budget of
//!   *server caps ∧ client caps* (componentwise minimum), plus its
//!   connection's [`kgq_core::CancelToken`] so a disconnect trips
//!   in-flight work;
//! - a [`sched::FairScheduler`] rotates round-robin across connections,
//!   one request per turn, so a flooding or budget-tripping client
//!   degrades to typed exact-prefix `Partial`s without starving others;
//! - per-request and aggregate counters (requests, trips, cache hits,
//!   p50/p99 latency) are exposed by the `STATS` verb.
//!
//! See DESIGN.md §12 for the architecture and `protocol` for the wire
//! format. The `kgq serve` CLI subcommand is the entry point;
//! perfbench's `point_reads` workload is its load test.

pub mod client;
pub mod exec;
pub mod pipeline;
pub mod protocol;
pub mod sched;
pub mod server;
pub mod stats;

pub use client::{stat, Client};
pub use exec::{apply_edges, Outcome, Snapshot};
pub use protocol::{effective_budget, Caps, Request, Response, Verb};
pub use sched::FairScheduler;
pub use server::{process_thread_count, serve, serve_with_store, ServerConfig, ServerHandle};
pub use stats::ServerStats;
