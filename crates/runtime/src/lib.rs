//! Parallel job runtime and analytics service layer over the GraphR
//! simulator stack.
//!
//! The simulator in `graphr-core` is exact but single-threaded, and each
//! `sim::run_*` call preprocesses its graph from scratch. This crate turns
//! that stack into a service:
//!
//! * Parallel scans — every job runs on the one single-node
//!   [`StreamingExecutor`], whose worker count shards each
//!   [`ScanPlan`](graphr_core::exec::ScanPlan) — dense or frontier-pruned —
//!   across its planned destination strips on a scoped worker
//!   [`pool`], mirroring the paper's inter-subgraph GE parallelism
//!   (§3.3, §5.2) on the host. Per-worker scanner state plus a
//!   deterministic plan-order metrics merge make results and time/energy
//!   reports **bit-identical** for every worker count.
//!   [`ParallelExecutor`] only names constructors for a multi-worker
//!   executor.
//! * [`session::Session`] — a long-lived, thread-safe query session: a
//!   preprocessed-graph cache keyed by *(graph id, tiling geometry,
//!   streaming order)* with hit/miss counters, so repeated queries skip
//!   the §3.4 tiler and reuse the cached plan skeleton plus the
//!   incremental planner's graph-derived index (each engine gets a
//!   fresh `Planner` stamped from it — frontier-delta re-planning
//!   without re-walking the span table); a per-job worker count
//!   ([`ExecMode`]: one worker, or the session's thread budget); batched
//!   multi-job submission; an optional out-of-core disk configuration
//!   ([`Session::with_disk`](session::Session::with_disk) /
//!   [`Job::with_disk`](job::Job::with_disk)) under which every scan's
//!   plan also prices its disk loading
//!   (plan-aware and per-iteration — see `graphr_core::outofcore`); and
//!   an optional cluster configuration
//!   ([`Session::with_cluster`](session::Session::with_cluster) /
//!   [`Job::with_cluster`](job::Job::with_cluster)) under which every
//!   scan plan is sharded by destination-strip ownership across simulated
//!   GraphR nodes of the job's execution mode, with the plan-aware
//!   property exchange charged into `Metrics::net` (see
//!   `graphr_core::multinode`); and an optional telemetry sink
//!   ([`Session::with_trace`](session::Session::with_trace) /
//!   [`Job::with_trace`](job::Job::with_trace)) collecting every run's
//!   per-iteration trace events on the simulated clock, exportable as
//!   JSONL or a Chrome/Perfetto timeline (see `graphr_core::trace`).
//! * [`serve`] — the `graphr-serve` scheduler on top of the session: a
//!   bounded FIFO query queue with admission control whose
//!   [`Server::drain`](serve::Server::drain) coalesces compatible queued
//!   traversal queries into **fused waves** — one frontier lane per
//!   query, one scan of each iteration's union plan for all of them
//!   ([`Session::submit_fused`](session::Session::submit_fused)), with
//!   per-query attribution and answers bit-identical to solo runs.
//! * [`job`] — [`JobSpec`] covers all five evaluated
//!   applications (PageRank, SpMV, BFS, SSSP, CF) plus the WCC extension;
//!   [`JobReport`] carries the functional result, the
//!   simulated time/energy, and service-level accounting (including
//!   plan-pruning and cache statistics).
//! * `graphr-run` (this crate's binary) — runs a job file end-to-end and
//!   prints the metrics reports; see the repository README for the file
//!   format.
//!
//! # Examples
//!
//! ```
//! use graphr_core::GraphRConfig;
//! use graphr_core::sim::PageRankOptions;
//! use graphr_graph::GraphHandle;
//! use graphr_graph::generators::rmat::Rmat;
//! use graphr_runtime::{Job, JobSpec, Session};
//!
//! let config = GraphRConfig::builder()
//!     .crossbar_size(4)
//!     .crossbars_per_ge(8)
//!     .num_ges(2)
//!     .build()?;
//! let session = Session::new(config);
//! let graph = GraphHandle::new("demo", Rmat::new(256, 1500).seed(7).generate());
//! let job = Job::new(graph, JobSpec::PageRank(PageRankOptions::default()));
//!
//! let cold = session.submit(&job)?;
//! let warm = session.submit(&job)?; // same tiling, served from cache
//! assert_eq!(cold.output, warm.output);
//! assert!(warm.cache_hits > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod job;
pub mod serve;
pub mod session;

pub use graphr_core::exec::pool;
pub use job::{
    ClusterChoice, DiskChoice, ExecMode, Job, JobOutput, JobReport, JobSpec, TraceChoice,
};
pub use serve::{AdmissionError, QueryResult, ServeConfig, ServeLatency, ServeStats, Server};
pub use session::{CacheStats, GraphVariant, RuntimeError, Session};

use graphr_core::exec::{Planner, StreamingExecutor};
use graphr_core::{GraphRConfig, TiledGraph};
use graphr_units::FixedSpec;

/// Constructors for a multi-worker [`StreamingExecutor`]. There is one
/// single-node executor; these only set its worker count, so every
/// constructor returns a `StreamingExecutor`.
#[derive(Debug)]
pub enum ParallelExecutor {}

impl ParallelExecutor {
    /// An executor with `threads` workers (clamped to at least 1).
    #[must_use]
    pub fn with_threads<'a>(
        tiled: &'a TiledGraph,
        config: &'a GraphRConfig,
        spec: FixedSpec,
        threads: usize,
    ) -> StreamingExecutor<'a> {
        StreamingExecutor::new(tiled, config, spec).with_threads(threads)
    }

    /// An executor with `threads` workers around a prepared incremental
    /// [`Planner`] (built from this `tiled`).
    #[must_use]
    pub fn with_planner<'a>(
        tiled: &'a TiledGraph,
        config: &'a GraphRConfig,
        spec: FixedSpec,
        planner: Planner,
        threads: usize,
    ) -> StreamingExecutor<'a> {
        StreamingExecutor::with_planner(tiled, config, spec, planner).with_threads(threads)
    }
}
