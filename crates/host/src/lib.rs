//! Multi-tenant session host: thousands of concurrent sharing sessions in
//! one process.
//!
//! The paper's architecture is one Application Host per shared desktop,
//! and every crate below this one mirrors that: one `AppHost`, one encode
//! pipeline, one thread-set per session. A server consolidating thousands
//! of tenants — the SFU model applied to application sharing — cannot
//! afford any of those per-session multipliers. This crate removes all
//! three:
//!
//! * **One sharded encode cache** ([`adshare_encode::SharedEncodeCache`]):
//!   every session's pipeline looks up and inserts into the same
//!   process-wide content-addressed LRU, so the identical app tiles that
//!   thousands of same-app sessions produce encode **once per process**.
//!   Tenant namespaces in the cache key keep private (consent-gated)
//!   sessions fully isolated — same shards, zero key overlap.
//! * **One bounded worker pool** ([`adshare_encode::WorkerPool`]): every
//!   session's encode batches run on the host's threads, started with the
//!   host and ended with it, instead of on workers of their own; a batch
//!   that finds no thread idle runs inline on its caller, never blocking.
//! * **One readiness-driven event loop** ([`MultiHost`]): sessions are
//!   scheduled on a due-time heap (the generalization of netsim's
//!   `wait_readable`) and stepped only when they have pending I/O, damage,
//!   or timers. An idle session is parked at zero cost — no per-session
//!   busy threads, no guaranteed tick.
//!
//! Determinism survives hosting: the scheduling policy is a pure function
//! of each session's own state, shared-cache hits are byte-identical to
//! the fresh encode they replace (sessions share a namespace only when
//! their encode-relevant config matches), and the worker pool only changes
//! thread counts, which the encode pipeline's output ordering is already
//! independent of. `tests/host_scale.rs` pins this down: a 64-session
//! hosted run is wire-byte-identical, per session, to 64 standalone runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod host;
pub mod stats;

pub use host::{
    run_standalone, shared_namespace, CacheSharing, HostConfig, MultiHost, Workload,
    CAPTURE_INTERVAL_US,
};
pub use stats::{HostStats, HOST_STATS_SCHEMA};
