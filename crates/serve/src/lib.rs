//! # rtnn-serve
//!
//! A concurrent query-serving layer on top of the RTNN [`Index`]: many
//! small point-query requests in, large fused device launches out.
//!
//! RTNN's evaluation (and RT-kNNS Unbound after it) shows that neighbor-
//! search throughput is decided *before* the accelerator is touched — by
//! how queries are aggregated, scheduled and partitioned. The engine side
//! of that story landed with [`Index`]/`QueryPlan::Batch`: one call can
//! answer a heterogeneous batch with one shared scheduling pass and cached
//! structures. This crate supplies the missing traffic side:
//!
//! * **[`QueryService`]** — a channel-based dispatcher: any number of
//!   client threads submit [`Request`]s through a cloneable
//!   [`ServiceClient`]; the dispatcher coalesces whatever is in flight
//!   within a bounded window ([`ServeConfig::window_us`]) into a single
//!   fused `QueryPlan::Batch` per tick — merging slices with identical
//!   parameters via `QueryPlan::normalized` — executes it once, and
//!   scatters per-request responses with per-request and per-tick
//!   latency/throughput statistics ([`ServiceStats`]).
//! * **[`ShardedIndex`]** — spatial sharding: the points are split into
//!   contiguous Morton-curve ranges, one sub-index per shard, served by
//!   the `rtnn-parallel` worker pool. A router fans each query only to the
//!   shards its search sphere overlaps, and a deterministic merge
//!   (`rtnn::ShardMerge`) reassembles per-shard results into the
//!   single-index answer under the merge's conditions (below).
//! * **[`loadgen`]** — a deterministic virtual-time load harness replaying
//!   the dispatcher policy on simulated milliseconds, so offered-load
//!   sweeps (`fig_serve`) are reproducible.
//!
//! Responses are **bit-equal to direct [`Index::query`] calls** regardless
//! of arrival order, coalescing window and worker thread count. Across
//! shard counts they are bit-equal under `ShardMerge`'s conditions: KNN
//! whenever no two candidates tie exactly at the `k`-th distance, range
//! whenever the cap does not truncate. A truncating range plan returns
//! *some* `cap` in-radius neighbors by contract, and which ones depends on
//! the shard count. `tests/serve_determinism.rs` at the workspace root is
//! the stress proof, on a seeded random cloud with non-truncating caps.
//!
//! [`Index`]: rtnn::Index
//! [`Index::query`]: rtnn::Index::query

pub mod coalesce;
pub mod config;
pub mod loadgen;
pub mod request;
pub mod service;
pub mod shard;
pub mod stats;

pub use coalesce::{execute_tick, execute_tick_tuned, RequestOutcome, TickExecutor, TickOutcome};
pub use config::ServeConfig;
pub use loadgen::{
    poisson_arrivals, run_virtual, run_virtual_observed, run_virtual_recorded, LoadReport,
};
pub use request::{Request, RequestStats, Response};
pub use service::{PendingResponse, QueryService, ServiceClient};
pub use shard::{ShardTiming, ShardedIndex};
pub use stats::{percentile, ServiceStats};
