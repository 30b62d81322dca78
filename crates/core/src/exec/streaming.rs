//! The streaming-apply executor.
//!
//! Two scan primitives cover all five applications:
//!
//! * [`StreamingExecutor::scan_mac`] — parallel MAC (§4.1): every wordline
//!   of a tile is driven simultaneously; bitline sums accumulate into RegO
//!   through an `add`-configured sALU. PageRank and SpMV use one input
//!   vector; collaborative filtering amortises one programming pass over
//!   `F` feature vectors.
//! * [`StreamingExecutor::scan_add_op_lanes_planned`] — parallel add-op
//!   (§4.2): active wordlines are driven one at a time (Figure 16 c3's
//!   `t = 1..4`); the row's stored weights plus the source's distance
//!   label are min-reduced into RegO by the sALU, and lowered destinations
//!   become active for the next iteration. It advances K ≥ 1 traversal
//!   lanes per scan; a solo traversal is one lane.
//!
//! Both primitives execute a [`ScanPlan`] — the ordered
//! [`PlanUnit`]s of either the dense full plan or a frontier-pruned plan
//! (see [`crate::exec::plan`]) — through [`StripScanner`]s, one per worker.
//! The worker count is the executor's only mode: one worker (the default)
//! runs every unit inline on the calling thread with one persistent
//! scanner; more workers run the units on the scoped worker pool of
//! [`crate::exec::pool`], mirroring GraphR's inter-subgraph GE
//! parallelism on the host. Units tile the destination axis disjointly, so
//! each unit writes straight into its own slice of the caller's output
//! vectors, and per-unit [`Metrics`] are merged in plan order. Results and
//! accounting are therefore bit-identical for every worker count (see
//! [`crate::exec::strip`]).
//!
//! # Timing: dense tile packing within a strip
//!
//! Under column-major streaming, everything processed while a destination
//! strip's RegO window is open reduces into the same register file, so the
//! controller is free to feed the `G × tiles_per_ge` crossbar slots with
//! the strip's *nonempty* tiles back to back, regardless of which source
//! chunk they come from — the ordered edge list of §3.4 delivers them in
//! exactly this order. Sparsity waste therefore only arises *inside* tiles
//! and at packing boundaries ("when one GE has an empty matrix but others
//! do not", §3.3). A strip with `T` nonempty tiles takes
//! `⌈T / slots⌉` GE steps; each step costs `max(program, compute)` when
//! double-buffered drivers pipeline programming against the previous
//! step's evaluation (`pipelined`, default) or their sum otherwise.
//!
//! With `skip_empty` disabled the controller degenerates to scanning every
//! aligned `C × strip_width` window — one step per source chunk, empty or
//! not — which is the ablation quantifying what sparsity-awareness buys.

use std::sync::Arc;

use crate::config::GraphRConfig;
use crate::exec::lanes::{LaneFrontier, MAX_LANES};
use crate::exec::mask::{FrontierDelta, FrontierMask};
use crate::exec::plan::{PlanSkeleton, PlanUnit, ScanPlan};
use crate::exec::planner::Planner;
use crate::exec::pool;
use crate::exec::strip::{mac_rego_capacity, StripScanner};
use crate::exec::ScanEngine;
use crate::metrics::Metrics;
use crate::outofcore::{DiskAccountant, DiskModel};
use crate::preprocess::tiler::TiledGraph;
use crate::trace::{SpanMark, TraceHandle};

/// Computes the value programmed into a crossbar cell for an edge:
/// `(weight, src, dst) → value`. This is the `processEdge`-side transform —
/// e.g. PageRank programs `r / outdegree(src)`, SSSP programs the weight.
pub type EdgeValueFn<'f> = dyn Fn(f32, u32, u32) -> f64 + Sync + 'f;

/// The streaming-apply executor over one preprocessed graph.
///
/// Reusable across iterations; every scan accumulates into the same
/// [`Metrics`], which [`ScanEngine::take_metrics`] (or
/// [`StreamingExecutor::into_metrics`]) finally yields. Runs on one worker
/// unless [`StreamingExecutor::with_threads`] says otherwise; the worker
/// count never changes results or accounting.
pub struct StreamingExecutor<'a> {
    tiled: &'a TiledGraph,
    config: &'a GraphRConfig,
    spec: graphr_units::FixedSpec,
    /// Workers a scan may use (at least 1).
    threads: usize,
    /// One scanner per worker, built on first use and kept across scans.
    scanners: Vec<StripScanner<'a>>,
    planner: Planner,
    metrics: Metrics,
    disk: Option<DiskAccountant>,
    /// Attached telemetry emitter (observation only; never feeds back
    /// into `metrics`).
    trace: Option<TraceHandle>,
    /// Where the last emitted compute span ended.
    span_mark: SpanMark,
}

impl<'a> StreamingExecutor<'a> {
    /// Creates an executor for `tiled` under `config`, quantising values to
    /// `spec` (each algorithm picks its own fixed-point format).
    #[must_use]
    pub fn new(
        tiled: &'a TiledGraph,
        config: &'a GraphRConfig,
        spec: graphr_units::FixedSpec,
    ) -> Self {
        let planner = Planner::new(tiled, Arc::new(PlanSkeleton::build(tiled)));
        Self::with_planner(tiled, config, spec, planner)
    }

    /// Creates an executor around a prepared incremental [`Planner`]
    /// (typically stamped out from a session's cached skeleton + planner
    /// index; both must come from this `tiled`).
    #[must_use]
    pub fn with_planner(
        tiled: &'a TiledGraph,
        config: &'a GraphRConfig,
        spec: graphr_units::FixedSpec,
        planner: Planner,
    ) -> Self {
        StreamingExecutor {
            tiled,
            config,
            spec,
            threads: 1,
            scanners: Vec::new(),
            planner,
            metrics: Metrics::new(),
            disk: None,
            trace: None,
            span_mark: SpanMark::default(),
        }
    }

    /// Builder: lets scans shard their planned units across up to
    /// `threads` workers (clamped to at least 1). Results, [`Metrics`] and
    /// traces are bit-identical for every worker count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Builder form of [`ScanEngine::set_disk`]: prices every scan's disk
    /// loading under `disk` (see [`crate::outofcore`]).
    #[must_use]
    pub fn with_disk(mut self, disk: DiskModel) -> Self {
        ScanEngine::set_disk(&mut self, Some(disk));
        self
    }

    /// The metrics accumulated so far.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Consumes the executor, yielding its metrics:
    /// [`ScanEngine::take_metrics`] by value.
    #[must_use]
    pub fn into_metrics(mut self) -> Metrics {
        self.take_metrics()
    }

    /// Marks the end of one algorithm iteration (bumps the counter and
    /// charges the controller's convergence check — one GE cycle), then
    /// closes the iteration's disk window: its loads overlap against its
    /// compute, never against a neighbouring iteration's.
    pub fn end_iteration(&mut self) {
        self.metrics.charge_iteration(self.config.ge_cycle());
        if let Some(trace) = &self.trace {
            trace.record_compute(&mut self.span_mark, &self.metrics);
        }
        self.commit_disk_window();
    }

    /// Closes the open disk window, if any, tracing it.
    fn commit_disk_window(&mut self) {
        if let Some(disk) = &mut self.disk {
            let window = disk.commit(&mut self.metrics);
            if let Some(trace) = &self.trace {
                trace.record_disk(&window);
            }
        }
    }

    /// One parallel-MAC pass over the whole graph: for each input vector
    /// `x` in `inputs`, computes `y[dst] = Σ_{src→dst} value(w, src, dst) ·
    /// x[src]`, returning one output vector per input. All inputs share a
    /// single tile-programming pass (K MVM evaluations per tile). Executes
    /// the dense full plan.
    pub fn scan_mac(&mut self, value: &EdgeValueFn<'_>, inputs: &[&[f64]]) -> Vec<Vec<f64>> {
        let plan = self.planner.skeleton().full_plan();
        self.scan_mac_planned(&plan, value, inputs)
    }

    /// [`StreamingExecutor::scan_mac`] over an explicit [`ScanPlan`]. A
    /// pruned plan is functionally exact only when the inputs are zero on
    /// pruned source rows (see
    /// [`PlanSkeleton::pruned_plan`](crate::exec::plan::PlanSkeleton::pruned_plan)).
    pub fn scan_mac_planned(
        &mut self,
        plan: &ScanPlan,
        value: &EdgeValueFn<'_>,
        inputs: &[&[f64]],
    ) -> Vec<Vec<f64>> {
        let n = self.tiled.num_vertices();
        let k = inputs.len();
        assert!(k > 0, "at least one input vector required");
        for x in inputs {
            assert_eq!(x.len(), n, "input vectors must have one entry per vertex");
        }
        let mut outputs = vec![vec![0.0; n]; k];
        let units = plan.units();
        let mut slices = unit_major_slices(outputs.iter_mut().map(Vec::as_mut_slice), units);
        let (tiled, config, spec) = (self.tiled, self.config, self.spec);
        pool::run_ordered(
            &mut self.scanners,
            self.threads,
            || StripScanner::new(tiled, config, spec),
            units.iter().zip(slices.chunks_mut(k)),
            |scanner, (punit, outs)| {
                let mut unit_metrics = Metrics::new();
                scanner.scan_mac_unit(punit, value, inputs, outs, &mut unit_metrics);
                unit_metrics
            },
            |unit_metrics| self.metrics.merge(&unit_metrics),
        );
        self.finish_scan(plan, mac_rego_capacity(config, tiled));
        outputs
    }

    /// One parallel-add-op pass (Figure 16 c3) advancing all K lanes of
    /// `active` over one plan — normally the union plan built from
    /// [`LaneFrontier::union`]; a solo traversal is one lane. Each planned
    /// subgraph is streamed and programmed once; union-active rows are
    /// driven once per lane holding them (every lane needs its own
    /// `dist(u)` on the constant line, so lanes serialise on the
    /// wordline), and each lane min-reduces the candidate
    /// `combine(addends[q][src], stored_weight)` into its own
    /// `frontiers[q]` buffer. Lowered destinations are recorded per lane
    /// in `updated`. Returns the per-lane row drives.
    ///
    /// `combine` is the relaxation arithmetic — `du + w` for SSSP (the
    /// crossbar row plus the constant line of Figure 16), `du + 1` for
    /// BFS, plain `du` for label propagation. Executing a pruned plan
    /// makes the iteration cost proportional to active work instead of
    /// `O(|E|)`.
    #[allow(clippy::too_many_arguments)]
    pub fn scan_add_op_lanes_planned(
        &mut self,
        plan: &ScanPlan,
        value: &EdgeValueFn<'_>,
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
        addends: &[Vec<f64>],
        active: &LaneFrontier,
        frontiers: &mut [Vec<f64>],
        updated: &mut LaneFrontier,
    ) -> u64 {
        let n = self.tiled.num_vertices();
        let k = active.num_lanes();
        assert_eq!(addends.len(), k, "one addend vector per lane required");
        assert_eq!(frontiers.len(), k, "one frontier vector per lane required");
        assert_eq!(updated.num_lanes(), k, "updated must carry the same lanes");
        assert_eq!(
            active.num_vertices(),
            n,
            "active lanes must range over every vertex"
        );
        assert_eq!(
            updated.num_vertices(),
            n,
            "updated lanes must range over every vertex"
        );
        for (q, (a, f)) in addends.iter().zip(frontiers.iter()).enumerate() {
            assert_eq!(a.len(), n, "lane {q} addend must have one entry per vertex");
            assert_eq!(
                f.len(),
                n,
                "lane {q} frontier must have one entry per vertex"
            );
        }
        let units = plan.units();
        let addend_refs: Vec<&[f64]> = addends.iter().map(Vec::as_slice).collect();
        let mut frontier_slices =
            unit_major_slices(frontiers.iter_mut().map(Vec::as_mut_slice), units);
        let (words, mut tally) = updated.split_words_mut();
        let word_slices = unit_major_slices([words], units);
        let (tiled, config, spec) = (self.tiled, self.config, self.spec);
        let mut total_rows = 0u64;
        pool::run_ordered(
            &mut self.scanners,
            self.threads,
            || StripScanner::new(tiled, config, spec),
            units
                .iter()
                .zip(frontier_slices.chunks_mut(k))
                .zip(word_slices),
            |scanner, ((punit, fronts), words)| {
                let mut fresh = [0u64; MAX_LANES];
                let mut unit_metrics = Metrics::new();
                let rows = scanner.scan_add_op_lanes_unit(
                    punit,
                    value,
                    combine,
                    &addend_refs,
                    active,
                    fronts,
                    words,
                    &mut fresh,
                    &mut unit_metrics,
                );
                let words: &[u64] = words;
                (punit.unit.dst_start, words, fresh, unit_metrics, rows)
            },
            |(dst_start, words, fresh, unit_metrics, rows)| {
                self.metrics.merge(&unit_metrics);
                total_rows += rows;
                tally.record(dst_start, words, &fresh);
            },
        );
        // Every lane keeps its own strip window open in RegO.
        self.finish_scan(plan, (k * config.strip_width()) as u64);
        total_rows
    }

    /// The tail every scan shares: the plan's pruning charges, the disk
    /// loading it implies, and the RegO capacity the scan needed.
    fn finish_scan(&mut self, plan: &ScanPlan, rego_capacity: u64) {
        self.metrics.charge_plan(plan.stats());
        if let Some(disk) = &mut self.disk {
            disk.charge_scan(self.tiled, plan, &mut self.metrics);
        }
        let events = &mut self.metrics.events;
        events.rego_capacity_required = events.rego_capacity_required.max(rego_capacity);
    }
}

/// Splits every buffer of `bufs` into the destination ranges of `units`
/// and lays the slices out unit-major: unit `u`'s slices are
/// `[u * B .. (u + 1) * B]` for `B` buffers.
///
/// Units come in plan order, which tiles the destination axis disjointly
/// and in ascending order, so `split_at_mut` alone hands out the ranges.
fn unit_major_slices<'b, T>(
    bufs: impl IntoIterator<Item = &'b mut [T]>,
    units: &[Arc<PlanUnit>],
) -> Vec<&'b mut [T]> {
    let mut rests: Vec<(&mut [T], usize)> = bufs.into_iter().map(|buf| (buf, 0)).collect();
    let mut slices = Vec::with_capacity(units.len() * rests.len());
    for punit in units {
        let (start, len) = (punit.unit.dst_start, punit.unit.dst_len);
        for (rest, offset) in &mut rests {
            if len == 0 {
                // Padding-only strip: nothing to write.
                slices.push(&mut [][..]);
                continue;
            }
            let (_, tail) = std::mem::take(rest).split_at_mut(start - *offset);
            let (mine, tail) = tail.split_at_mut(len);
            *rest = tail;
            *offset = start + len;
            slices.push(mine);
        }
    }
    slices
}

impl ScanEngine for StreamingExecutor<'_> {
    fn plan(&mut self, active: Option<&FrontierMask>) -> Arc<ScanPlan> {
        let before = self.metrics.plan;
        let plan = self
            .planner
            .plan_for(self.config, active, &mut self.metrics.plan);
        if let Some(trace) = &self.trace {
            trace.record_plan(&before, &self.metrics.plan);
        }
        plan
    }

    fn plan_with_delta(&mut self, active: &FrontierMask, delta: &FrontierDelta) -> Arc<ScanPlan> {
        let before = self.metrics.plan;
        let plan = self
            .planner
            .plan_for_delta(self.config, active, delta, &mut self.metrics.plan);
        if let Some(trace) = &self.trace {
            trace.record_plan(&before, &self.metrics.plan);
        }
        plan
    }

    fn scan_mac_planned(
        &mut self,
        plan: &ScanPlan,
        value: &EdgeValueFn<'_>,
        inputs: &[&[f64]],
    ) -> Vec<Vec<f64>> {
        StreamingExecutor::scan_mac_planned(self, plan, value, inputs)
    }

    fn scan_add_op_lanes_planned(
        &mut self,
        plan: &ScanPlan,
        value: &EdgeValueFn<'_>,
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
        addends: &[Vec<f64>],
        active: &LaneFrontier,
        frontiers: &mut [Vec<f64>],
        updated: &mut LaneFrontier,
    ) -> u64 {
        StreamingExecutor::scan_add_op_lanes_planned(
            self, plan, value, combine, addends, active, frontiers, updated,
        )
    }

    fn set_disk(&mut self, disk: Option<DiskModel>) {
        self.commit_disk_window();
        self.disk = disk.map(|model| DiskAccountant::new(model, self.metrics.elapsed));
    }

    fn set_trace(&mut self, trace: Option<TraceHandle>) {
        // Anchor the next compute span at the current state, so a handle
        // attached mid-run does not backdate a span to time zero.
        self.span_mark = SpanMark::at(&self.metrics);
        self.trace = trace;
    }

    fn trace(&self) -> Option<&TraceHandle> {
        self.trace.as_ref()
    }

    fn end_iteration(&mut self) {
        StreamingExecutor::end_iteration(self);
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn take_metrics(&mut self) -> Metrics {
        // A trailing span covers scans since the last iteration boundary
        // (e.g. CF's transposed pass, which never calls end_iteration).
        if let Some(trace) = &self.trace {
            trace.record_compute(&mut self.span_mark, &self.metrics);
        }
        self.commit_disk_window();
        if let Some(disk) = &mut self.disk {
            disk.reset();
        }
        self.span_mark = SpanMark::default();
        std::mem::take(&mut self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Fidelity, GraphRConfig, StreamingOrder};
    use graphr_graph::algorithms::spmv::spmv;
    use graphr_graph::generators::rmat::Rmat;
    use graphr_graph::EdgeList;
    use graphr_units::FixedSpec;

    fn small_config(fidelity: Fidelity) -> GraphRConfig {
        GraphRConfig::builder()
            .crossbar_size(4)
            .crossbars_per_ge(8)
            .num_ges(2)
            .fidelity(fidelity)
            .build()
            .unwrap()
    }

    fn weights_value(w: f32, _s: u32, _d: u32) -> f64 {
        f64::from(w)
    }

    #[test]
    fn mac_scan_matches_gold_spmv() {
        let g = Rmat::new(50, 300).seed(11).max_weight(4).generate();
        let cfg = small_config(Fidelity::Fast);
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let spec = FixedSpec::new(16, 8).unwrap();
        let mut exec = StreamingExecutor::new(&tiled, &cfg, spec);
        let x: Vec<f64> = (0..50).map(|i| (i % 5) as f64 * 0.25).collect();
        let y = exec.scan_mac(&weights_value, &[&x]);
        let gold = spmv(&g.to_csr(), &x);
        for (a, b) in y[0].iter().zip(&gold) {
            assert!((a - b).abs() < 1e-6, "mac {a} vs gold {b}");
        }
    }

    #[test]
    fn fast_and_analog_scans_agree() {
        let g = Rmat::new(40, 150).seed(5).max_weight(3).generate();
        let cfg_f = small_config(Fidelity::Fast);
        let cfg_a = small_config(Fidelity::Analog);
        let tiled_f = TiledGraph::preprocess(&g, &cfg_f).unwrap();
        let tiled_a = TiledGraph::preprocess(&g, &cfg_a).unwrap();
        let spec = FixedSpec::new(16, 8).unwrap();
        let x: Vec<f64> = (0..40).map(|i| (i % 3) as f64).collect();
        let mut ef = StreamingExecutor::new(&tiled_f, &cfg_f, spec);
        let mut ea = StreamingExecutor::new(&tiled_a, &cfg_a, spec);
        let yf = ef.scan_mac(&weights_value, &[&x]);
        let ya = ea.scan_mac(&weights_value, &[&x]);
        for (a, b) in yf[0].iter().zip(&ya[0]) {
            assert!((a - b).abs() < 1e-9);
        }
        // Identical event counts and therefore identical time and energy.
        let (mf, ma) = (ef.into_metrics(), ea.into_metrics());
        assert_eq!(mf.events, ma.events);
        assert_eq!(mf.elapsed, ma.elapsed);
        assert_eq!(mf.energy, ma.energy);
    }

    #[test]
    fn multi_input_mac_shares_programming() {
        let g = Rmat::new(30, 100).seed(2).generate();
        let cfg = small_config(Fidelity::Fast);
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let spec = FixedSpec::new(16, 8).unwrap();
        let x1: Vec<f64> = vec![1.0; 30];
        let x2: Vec<f64> = (0..30).map(|i| i as f64 * 0.1).collect();

        let mut e2 = StreamingExecutor::new(&tiled, &cfg, spec);
        let both = e2.scan_mac(&weights_value, &[&x1, &x2]);
        let m2 = e2.into_metrics();

        let mut e1 = StreamingExecutor::new(&tiled, &cfg, spec);
        let only1 = e1.scan_mac(&weights_value, &[&x1]);
        let m1 = e1.into_metrics();

        assert_eq!(both[0], only1[0]);
        // Programming happened once in both runs...
        assert_eq!(m2.events.edges_loaded, m1.events.edges_loaded);
        assert_eq!(m2.events.tiles_loaded, m1.events.tiles_loaded);
        // ...but the 2-input scan ran twice the MVMs.
        assert_eq!(m2.events.mvm_scans, 2 * m1.events.mvm_scans);
    }

    #[test]
    fn add_op_relaxes_like_bellman_ford_round() {
        // Path 0 →(2) 1 →(3) 2 with initial dist [0, INF, INF].
        let mut g = EdgeList::new(3);
        g.add_edge(graphr_graph::Edge::new(0, 1, 2.0)).unwrap();
        g.add_edge(graphr_graph::Edge::new(1, 2, 3.0)).unwrap();
        let cfg = small_config(Fidelity::Fast);
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let spec = FixedSpec::new(16, 0).unwrap();
        let inf = spec.max_value();
        let mut exec = StreamingExecutor::new(&tiled, &cfg, spec);

        let dist = vec![0.0, inf, inf];
        let active = FrontierMask::from_slice(&[true, false, false]);
        let mut frontier = dist.clone();
        let mut updated = FrontierMask::new(3);
        let rows = exec.scan_add_op(
            &weights_value,
            &|du, w| du + w,
            &dist,
            &active,
            &mut frontier,
            &mut updated,
        );
        assert_eq!(rows, 1);
        assert_eq!(frontier, vec![0.0, 2.0, inf]);
        assert_eq!(updated.to_vec(), vec![false, true, false]);

        // Second round from vertex 1.
        let dist = frontier.clone();
        let active = updated.clone();
        let mut updated2 = FrontierMask::new(3);
        let mut frontier2 = dist.clone();
        exec.scan_add_op(
            &weights_value,
            &|du, w| du + w,
            &dist,
            &active,
            &mut frontier2,
            &mut updated2,
        );
        assert_eq!(frontier2, vec![0.0, 2.0, 5.0]);
        assert_eq!(updated2.to_vec(), vec![false, false, true]);
    }

    #[test]
    fn add_op_skips_inactive_subgraphs() {
        let g = Rmat::new(64, 300).seed(9).generate();
        let cfg = small_config(Fidelity::Fast);
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let spec = FixedSpec::new(16, 0).unwrap();
        let inf = spec.max_value();
        let mut exec = StreamingExecutor::new(&tiled, &cfg, spec);
        let dist = vec![inf; 64];
        let active = FrontierMask::new(64); // nothing active: everything skipped
        let mut frontier = dist.clone();
        let mut updated = FrontierMask::new(64);
        let rows = exec.scan_add_op(
            &weights_value,
            &|du, w| du + w,
            &dist,
            &active,
            &mut frontier,
            &mut updated,
        );
        assert_eq!(rows, 0);
        let m = exec.into_metrics();
        assert_eq!(m.events.subgraphs_processed, 0);
        assert!(m.events.subgraphs_skipped_inactive > 0);
    }

    #[test]
    fn disabling_skip_charges_idle_windows() {
        let g = Rmat::new(64, 50).seed(3).generate();
        let cfg_skip = small_config(Fidelity::Fast);
        let cfg_noskip = GraphRConfig::builder()
            .crossbar_size(4)
            .crossbars_per_ge(8)
            .num_ges(2)
            .skip_empty(false)
            .build()
            .unwrap();
        let tiled = TiledGraph::preprocess(&g, &cfg_skip).unwrap();
        let spec = FixedSpec::new(16, 8).unwrap();
        let x = vec![1.0; 64];

        let mut es = StreamingExecutor::new(&tiled, &cfg_skip, spec);
        let ys = es.scan_mac(&weights_value, &[&x]);
        let ms = es.into_metrics();

        let tiled2 = TiledGraph::preprocess(&g, &cfg_noskip).unwrap();
        let mut en = StreamingExecutor::new(&tiled2, &cfg_noskip, spec);
        let yn = en.scan_mac(&weights_value, &[&x]);
        let mn = en.into_metrics();

        assert_eq!(ys, yn, "skipping must not change results");
        assert!(
            mn.elapsed > ms.elapsed,
            "skipping must save time: {} vs {}",
            mn.elapsed,
            ms.elapsed
        );
        assert!(mn.events.adc_conversions > ms.events.adc_conversions);
    }

    #[test]
    fn packing_beats_one_step_per_chunk() {
        // A graph whose edges spread over many chunks but few tiles per
        // chunk: packing should need far fewer steps than chunks.
        let g = Rmat::new(512, 600).seed(4).generate();
        let cfg = small_config(Fidelity::Fast);
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let spec = FixedSpec::new(16, 8).unwrap();
        let x = vec![1.0; 512];
        let mut exec = StreamingExecutor::new(&tiled, &cfg, spec);
        let _ = exec.scan_mac(&weights_value, &[&x]);
        let m = exec.into_metrics();
        // 512 vertices / 4 rows = 128 chunks per strip-pass; with 4 slots
        // per step and ~hundreds of tiles, packed steps must stay well
        // below the aligned-window count while covering all tiles.
        let slots = 2 * 2; // num_ges × tiles_per_ge
        let min_steps = m.events.tiles_loaded.div_ceil(slots);
        let cycle_ns = cfg.ge_cycle().as_nanos();
        let compute_ns = m.time_breakdown.compute.as_nanos();
        assert!(
            compute_ns >= min_steps as f64 * cycle_ns - 1e-6,
            "compute time must cover packed steps"
        );
    }

    #[test]
    fn row_major_needs_bigger_rego_and_more_writes() {
        let g = Rmat::new(64, 400).seed(7).generate();
        let col_cfg = small_config(Fidelity::Fast);
        let row_cfg = GraphRConfig::builder()
            .crossbar_size(4)
            .crossbars_per_ge(8)
            .num_ges(2)
            .order(StreamingOrder::RowMajor)
            .build()
            .unwrap();
        let spec = FixedSpec::new(16, 8).unwrap();
        let x = vec![0.5; 64];

        let tiled_c = TiledGraph::preprocess(&g, &col_cfg).unwrap();
        let mut ec = StreamingExecutor::new(&tiled_c, &col_cfg, spec);
        let yc = ec.scan_mac(&weights_value, &[&x]);
        let mc = ec.into_metrics();

        let tiled_r = TiledGraph::preprocess(&g, &row_cfg).unwrap();
        let mut er = StreamingExecutor::new(&tiled_r, &row_cfg, spec);
        let yr = er.scan_mac(&weights_value, &[&x]);
        let mr = er.into_metrics();

        assert_eq!(yc, yr, "traversal order must not change results");
        assert!(
            mr.events.register_writes > mc.events.register_writes,
            "row-major should write registers more: {} vs {}",
            mr.events.register_writes,
            mc.events.register_writes
        );
        assert!(mr.events.rego_capacity_required >= mc.events.rego_capacity_required);
        assert!(mr.elapsed > mc.elapsed, "row-major should be slower");
    }

    #[test]
    fn iteration_counter_and_controller_charge() {
        let g = Rmat::new(10, 20).seed(1).generate();
        let cfg = small_config(Fidelity::Fast);
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let mut exec = StreamingExecutor::new(&tiled, &cfg, FixedSpec::new(16, 8).unwrap());
        exec.end_iteration();
        exec.end_iteration();
        assert_eq!(exec.metrics().iterations, 2);
        assert!(exec.metrics().elapsed.as_nanos() > 0.0);
    }

    /// Worker counts the bit-identity tests sweep: the inline path, a
    /// small pool, and a pool wider than some plans.
    const WORKERS: [usize; 3] = [1, 2, 7];

    #[test]
    fn mac_is_bit_identical_for_every_worker_count() {
        let g = Rmat::new(300, 2000).seed(3).max_weight(7).generate();
        let cfg = small_config(Fidelity::Fast);
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let spec = FixedSpec::new(16, 8).unwrap();
        let x: Vec<f64> = (0..300).map(|i| (i % 11) as f64 * 0.125).collect();
        let x2: Vec<f64> = (0..300).map(|i| (i % 3) as f64).collect();

        let mut one = StreamingExecutor::new(&tiled, &cfg, spec);
        let y1 = one.scan_mac(&weights_value, &[&x, &x2]);
        let m1 = one.into_metrics();
        for threads in WORKERS {
            let mut exec = StreamingExecutor::new(&tiled, &cfg, spec).with_threads(threads);
            let y = exec.scan_mac(&weights_value, &[&x, &x2]);
            assert_eq!(y, y1, "results must be bit-identical ({threads} workers)");
            assert_eq!(exec.into_metrics(), m1, "metrics ({threads} workers)");
        }
    }

    #[test]
    fn add_op_rounds_are_bit_identical_for_every_worker_count() {
        let g = Rmat::new(200, 1200).seed(5).max_weight(9).generate();
        let cfg = small_config(Fidelity::Fast);
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let spec = FixedSpec::new(16, 0).unwrap();
        let inf = spec.max_value();
        let combine = |du: f64, w: f64| du + w;

        let run = |threads: usize| {
            let mut exec = StreamingExecutor::new(&tiled, &cfg, spec).with_threads(threads);
            let mut dist = vec![inf; 200];
            dist[0] = 0.0;
            let mut active = FrontierMask::new(200);
            active.set(0);
            let mut rows_history = Vec::new();
            while !active.is_empty() {
                let plan = exec.plan(Some(&active));
                let mut frontier = dist.clone();
                let mut updated = FrontierMask::new(200);
                rows_history.push(exec.scan_add_op_planned(
                    &plan,
                    &weights_value,
                    &combine,
                    &dist,
                    &active,
                    &mut frontier,
                    &mut updated,
                ));
                exec.end_iteration();
                dist = frontier;
                active = updated;
            }
            (dist, rows_history, exec.into_metrics())
        };

        let one = run(1);
        assert!(one.1.len() > 2, "the traversal must take several rounds");
        for threads in WORKERS {
            assert_eq!(run(threads), one, "{threads} workers");
        }
    }

    #[test]
    fn fused_lanes_are_bit_identical_for_every_worker_count() {
        use crate::sim::{run_sssp_lanes_with, LaneTraversalOptions};
        let g = Rmat::new(200, 1200).seed(5).max_weight(9).generate();
        let cfg = small_config(Fidelity::Fast);
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        for sources in [vec![0u32], vec![0, 3, 50, 199]] {
            let opts = LaneTraversalOptions::new(sources);
            let mut one = StreamingExecutor::new(&tiled, &cfg, opts.spec);
            let gold = run_sssp_lanes_with(&g, &mut one, &opts).unwrap();
            for threads in WORKERS {
                let mut exec =
                    StreamingExecutor::new(&tiled, &cfg, opts.spec).with_threads(threads);
                let run = run_sssp_lanes_with(&g, &mut exec, &opts).unwrap();
                assert_eq!(run.distances, gold.distances, "{threads} workers");
                assert_eq!(run.metrics, gold.metrics, "{threads} workers");
            }
        }
    }

    #[test]
    fn more_workers_than_planned_units() {
        let g = Rmat::new(300, 2000).seed(8).max_weight(5).generate();
        let cfg = small_config(Fidelity::Fast);
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let spec = FixedSpec::new(16, 0).unwrap();
        let inf = spec.max_value();
        let mut active = FrontierMask::new(300);
        active.set(7);

        let run = |threads: usize| {
            let mut exec = StreamingExecutor::new(&tiled, &cfg, spec).with_threads(threads);
            let plan = exec.plan(Some(&active));
            let mut dist = vec![inf; 300];
            dist[7] = 0.0;
            let mut frontier = dist.clone();
            let mut updated = FrontierMask::new(300);
            let rows = exec.scan_add_op_planned(
                &plan,
                &weights_value,
                &|du, w| du + w,
                &dist,
                &active,
                &mut frontier,
                &mut updated,
            );
            let units = plan.units().len();
            let workers = exec.scanners.len();
            (frontier, updated, rows, exec.into_metrics(), units, workers)
        };

        let one = run(1);
        let units = one.4;
        assert!(units > 0 && units < 64, "one active vertex plans few units");
        let wide = run(64);
        assert!(wide.5 <= units, "{} workers for {units} units", wide.5);
        assert_eq!(wide.0, one.0);
        assert_eq!(wide.1, one.1);
        assert_eq!(wide.2, one.2);
        assert_eq!(wide.3, one.3);
    }

    #[test]
    fn fully_pruned_plan_scans_nothing() {
        let g = Rmat::new(100, 500).seed(4).generate();
        let cfg = small_config(Fidelity::Fast);
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let spec = FixedSpec::new(16, 0).unwrap();
        let nothing = FrontierMask::new(100);
        let x = vec![0.0; 100];
        let mut gold = None;
        for threads in WORKERS {
            let mut exec = StreamingExecutor::new(&tiled, &cfg, spec).with_threads(threads);
            let plan = exec.plan(Some(&nothing));
            assert!(plan.units().is_empty());
            let y = exec.scan_mac_planned(&plan, &weights_value, &[&x]);
            assert_eq!(y, vec![vec![0.0; 100]]);
            let mut frontier = vec![1.0; 100];
            let mut updated = FrontierMask::new(100);
            let rows = exec.scan_add_op_planned(
                &plan,
                &weights_value,
                &|du, w| du + w,
                &x,
                &nothing,
                &mut frontier,
                &mut updated,
            );
            assert_eq!(rows, 0);
            assert_eq!(frontier, vec![1.0; 100]);
            assert!(updated.is_empty());
            let m = exec.into_metrics();
            assert_eq!(m.events.subgraphs_processed, 0);
            assert_eq!(
                *gold.get_or_insert_with(|| m.clone()),
                m,
                "{threads} workers"
            );
        }
    }
}
