//! Accumulators for what the rounds produce: simulated-machine totals,
//! per-query simulated latencies, and the correctness tally.

use graphr_core::analyze::BottleneckReport;
use graphr_core::Metrics;
use graphr_graph::BYTES_PER_EDGE;

/// Sums over machine runs (a fused wave is one run). Every field is a
/// deterministic function of the simulated accounting, summed in round
/// order, so equal inputs give bit-equal totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub runs: u64,
    pub wall_ns: f64,
    pub energy_j: f64,
    pub compute_ns: f64,
    pub disk_ns: f64,
    pub edges_streamed: u64,
    pub subgraphs_processed: u64,
    pub subgraphs_pruned: u64,
    pub slots_skipped: u64,
    pub edges_loaded: u64,
    pub tiles_loaded: u64,
    pub delta_patches: u64,
    pub full_rebuilds: u64,
    pub units_reused: u64,
    pub units_patched: u64,
    pub bytes_loaded: u64,
    pub demand_io_ns: f64,
    pub bytes_prefetched: u64,
    pub prefetch_wasted: u64,
    pub io_segments: u64,
    pub bytes_exchanged: u64,
    pub exchanges: u64,
    pub net_ns: f64,
    pub net_overlapped_ns: f64,
}

impl Totals {
    /// Adds one machine run.
    pub fn add(&mut self, m: &Metrics) {
        let bound = BottleneckReport::classify(m);
        let ev = &m.events;
        self.runs += 1;
        self.wall_ns += bound.wall.as_nanos();
        self.energy_j += m.total_energy().as_joules();
        self.compute_ns += bound.compute.as_nanos();
        self.disk_ns += bound.disk.as_nanos();
        self.edges_streamed += ev.bytes_streamed / BYTES_PER_EDGE;
        self.subgraphs_processed += ev.subgraphs_processed;
        self.subgraphs_pruned += ev.subgraphs_pruned;
        self.slots_skipped +=
            ev.subgraphs_skipped_empty + ev.subgraphs_skipped_inactive + ev.subgraphs_pruned;
        self.edges_loaded += ev.edges_loaded;
        self.tiles_loaded += ev.tiles_loaded;
        self.delta_patches += m.plan.delta_patches;
        self.full_rebuilds += m.plan.full_rebuilds;
        self.units_reused += m.plan.units_reused;
        self.units_patched += m.plan.units_patched;
        self.bytes_loaded += m.disk.bytes_loaded;
        self.demand_io_ns += m.disk.demand_time.as_nanos();
        self.bytes_prefetched += m.disk.bytes_prefetched;
        self.prefetch_wasted += m.disk.prefetch_wasted;
        self.io_segments += m.disk.io_segments;
        self.bytes_exchanged += m.net.bytes_exchanged;
        self.exchanges += m.net.exchanges;
        self.net_ns += m.net.time.as_nanos();
        self.net_overlapped_ns += m.net.overlapped.as_nanos();
    }

    /// Adds another total (rounds are summed in order).
    pub fn merge(&mut self, o: &Totals) {
        self.runs += o.runs;
        self.wall_ns += o.wall_ns;
        self.energy_j += o.energy_j;
        self.compute_ns += o.compute_ns;
        self.disk_ns += o.disk_ns;
        self.edges_streamed += o.edges_streamed;
        self.subgraphs_processed += o.subgraphs_processed;
        self.subgraphs_pruned += o.subgraphs_pruned;
        self.slots_skipped += o.slots_skipped;
        self.edges_loaded += o.edges_loaded;
        self.tiles_loaded += o.tiles_loaded;
        self.delta_patches += o.delta_patches;
        self.full_rebuilds += o.full_rebuilds;
        self.units_reused += o.units_reused;
        self.units_patched += o.units_patched;
        self.bytes_loaded += o.bytes_loaded;
        self.demand_io_ns += o.demand_io_ns;
        self.bytes_prefetched += o.bytes_prefetched;
        self.prefetch_wasted += o.prefetch_wasted;
        self.io_segments += o.io_segments;
        self.bytes_exchanged += o.bytes_exchanged;
        self.exchanges += o.exchanges;
        self.net_ns += o.net_ns;
        self.net_overlapped_ns += o.net_overlapped_ns;
    }
}

/// `num / den`, or 0 when nothing was counted.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Exact nearest-rank percentile of `samples` (`p` in (0, 1]); 0 for an
/// empty sample.
#[must_use]
pub fn percentile<T: Copy + Ord + Default>(samples: &[T], p: f64) -> T {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile_sorted(&sorted, p)
}

/// [`percentile`] over an already sorted sample.
#[must_use]
pub fn percentile_sorted<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// What one round produced, as seen by the checker.
#[derive(Debug, Default)]
pub struct RoundResult {
    /// Queries (jobs) the round attempted.
    pub queries: u64,
    /// Of those, the ones that failed a gate.
    pub failed: u64,
    /// Descriptions of the failures.
    pub failures: Vec<String>,
    /// Simulated totals over the round's machine runs.
    pub totals: Totals,
    /// Per-query simulated latency (wait + service), nanoseconds.
    pub latency_ns: Vec<u64>,
    /// Per-query simulated queue wait, nanoseconds.
    pub wait_ns: Vec<u64>,
    /// Per-query simulated service time, nanoseconds.
    pub service_ns: Vec<u64>,
    /// Largest PageRank |rank − gold| × |V| seen in the round.
    pub pagerank_err: f64,
    /// Fused waves (two or more lanes) the round executed.
    pub fused_waves: u64,
    /// Queries that rode a fused wave.
    pub fused_queries: u64,
    /// Bytes the round's exporters rendered (host-formatted fields
    /// included, so not a deterministic count).
    pub export_bytes: u64,
}

impl RoundResult {
    /// Records a failed gate.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }
}

/// The deterministic summary of the schedule's first pass.
#[derive(Debug, Default)]
pub struct Pass {
    pub rounds: usize,
    pub queries: u64,
    pub totals: Totals,
    pub latency_ns: Vec<u64>,
    pub wait_ns: Vec<u64>,
    pub service_ns: Vec<u64>,
    pub fused_waves: u64,
    pub fused_queries: u64,
}

impl Pass {
    /// Folds in one round of the pass.
    pub fn add(&mut self, r: &RoundResult) {
        self.rounds += 1;
        self.queries += r.queries;
        self.totals.merge(&r.totals);
        self.latency_ns.extend_from_slice(&r.latency_ns);
        self.wait_ns.extend_from_slice(&r.wait_ns);
        self.service_ns.extend_from_slice(&r.service_ns);
        self.fused_waves += r.fused_waves;
        self.fused_queries += r.fused_queries;
    }
}
