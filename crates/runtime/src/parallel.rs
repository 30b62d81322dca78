//! The parallel scan executor: GraphR's inter-subgraph GE parallelism,
//! mapped onto host threads.
//!
//! [`ParallelExecutor`] implements [`ScanEngine`] by sharding each
//! [`ScanPlan`]'s [`PlanUnit`]s — one per planned global destination strip,
//! exactly the decomposition the serial [`StreamingExecutor`] walks — across
//! a scoped worker pool. Every worker owns a private [`StripScanner`]
//! (crossbar scratch, sALU, staging buffers) and writes into unit-local
//! output buffers, so there is no shared mutable state; per-unit [`Metrics`]
//! are merged on the calling thread in plan order at the scan barrier.
//!
//! Because each floating-point reduction happens inside one unit in one
//! deterministic order, and the merge order is fixed by the plan, results
//! **and** time/energy reports are bit-identical to the serial executor
//! consuming the same plan — regardless of thread count or scheduling. The
//! `serial_parallel` integration tests assert this for every application,
//! full and pruned plans alike.
//!
//! [`StreamingExecutor`]: graphr_core::exec::StreamingExecutor
//! [`PlanUnit`]: graphr_core::exec::PlanUnit

use std::sync::Arc;

use graphr_core::exec::lanes::LaneFrontier;
use graphr_core::exec::mask::{FrontierDelta, FrontierMask};
use graphr_core::exec::plan::{PlanSkeleton, ScanPlan};
use graphr_core::exec::planner::Planner;
use graphr_core::exec::strip::{mac_rego_capacity, StripScanner};
use graphr_core::exec::{EdgeValueFn, ScanEngine};
use graphr_core::outofcore::{DiskAccountant, DiskModel};
use graphr_core::trace::{SpanMark, TraceHandle};
use graphr_core::{GraphRConfig, Metrics, TiledGraph};
use graphr_units::FixedSpec;

use crate::pool;

/// A [`ScanEngine`] that executes scan plans on a scoped worker pool, one
/// planned destination strip at a time.
pub struct ParallelExecutor<'a> {
    tiled: &'a TiledGraph,
    config: &'a GraphRConfig,
    spec: FixedSpec,
    planner: Planner,
    threads: usize,
    metrics: Metrics,
    disk: Option<DiskAccountant>,
    /// Attached telemetry emitter (observation only; never feeds back
    /// into `metrics`).
    trace: Option<TraceHandle>,
    /// Where the last emitted compute span ended.
    span_mark: SpanMark,
}

impl<'a> ParallelExecutor<'a> {
    /// Creates an executor using all available host threads.
    #[must_use]
    pub fn new(tiled: &'a TiledGraph, config: &'a GraphRConfig, spec: FixedSpec) -> Self {
        Self::with_threads(tiled, config, spec, pool::available_threads())
    }

    /// Creates an executor with an explicit worker count (`1` degrades to
    /// the serial unit loop on the calling thread).
    #[must_use]
    pub fn with_threads(
        tiled: &'a TiledGraph,
        config: &'a GraphRConfig,
        spec: FixedSpec,
        threads: usize,
    ) -> Self {
        Self::with_skeleton(
            tiled,
            config,
            spec,
            Arc::new(PlanSkeleton::build(tiled)),
            threads,
        )
    }

    /// Creates an executor reusing an already-built plan skeleton (a
    /// session's cached one; it must have been built from this `tiled`).
    /// Builds a fresh planner index — reuse a cached one via
    /// [`ParallelExecutor::with_planner`] where available.
    #[must_use]
    pub fn with_skeleton(
        tiled: &'a TiledGraph,
        config: &'a GraphRConfig,
        spec: FixedSpec,
        skeleton: Arc<PlanSkeleton>,
        threads: usize,
    ) -> Self {
        Self::with_planner(tiled, config, spec, Planner::new(tiled, skeleton), threads)
    }

    /// Creates an executor around a prepared incremental
    /// [`Planner`] (typically stamped out from a session's cached
    /// skeleton + planner index; both must come from this `tiled`).
    #[must_use]
    pub fn with_planner(
        tiled: &'a TiledGraph,
        config: &'a GraphRConfig,
        spec: FixedSpec,
        planner: Planner,
        threads: usize,
    ) -> Self {
        ParallelExecutor {
            tiled,
            config,
            spec,
            planner,
            threads: threads.max(1),
            metrics: Metrics::new(),
            disk: None,
            trace: None,
            span_mark: SpanMark::default(),
        }
    }

    /// Builder form of [`ScanEngine::set_disk`]: prices every scan's disk
    /// loading under `disk` (see `graphr_core::outofcore`). Disk
    /// accounting runs on the calling thread through the same
    /// [`DiskAccountant`] the serial executor uses, so it stays
    /// bit-identical regardless of worker count.
    #[must_use]
    pub fn with_disk(mut self, disk: DiskModel) -> Self {
        ScanEngine::set_disk(&mut self, Some(disk));
        self
    }

    /// The worker count scans will use.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The scan units of the full plan (one per global destination strip).
    #[must_use]
    pub fn num_units(&self) -> usize {
        self.planner.skeleton().num_units()
    }

    /// Consumes the executor, yielding its metrics (closing any open disk
    /// accounting window first).
    #[must_use]
    pub fn into_metrics(mut self) -> Metrics {
        if let Some(trace) = &self.trace {
            trace.record_compute(&mut self.span_mark, &self.metrics);
        }
        if let Some(disk) = &mut self.disk {
            let window = disk.commit(&mut self.metrics);
            if let Some(trace) = &self.trace {
                trace.record_disk(&window);
            }
        }
        self.metrics
    }
}

impl ScanEngine for ParallelExecutor<'_> {
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
        let n = self.tiled.num_vertices();
        let k = inputs.len();
        assert!(k > 0, "at least one input vector required");
        for x in inputs {
            assert_eq!(x.len(), n, "input vectors must have one entry per vertex");
        }
        let width = self.config.strip_width();
        let (tiled, config, spec) = (self.tiled, self.config, self.spec);
        let punits = plan.units();

        // Fan out: one task per planned destination strip, private scanner
        // per worker, unit-local outputs.
        let per_unit = pool::run_indexed(
            punits.len(),
            self.threads,
            || StripScanner::new(tiled, config, spec),
            |scanner, idx| {
                let mut local: Vec<Vec<f64>> = vec![vec![0.0; width]; k];
                let mut metrics = Metrics::new();
                scanner.scan_mac_unit(&punits[idx], value, inputs, &mut local, &mut metrics);
                (local, metrics)
            },
        );

        // Barrier: merge metrics in plan order (deterministic — identical
        // to the serial executor), stitch disjoint output ranges.
        let mut outputs = vec![vec![0.0; n]; k];
        for (punit, (local, unit_metrics)) in punits.iter().zip(&per_unit) {
            self.metrics.merge(unit_metrics);
            let unit = &punit.unit;
            if unit.dst_len > 0 {
                for (out, buf) in outputs.iter_mut().zip(local) {
                    out[unit.dst_start..unit.dst_start + unit.dst_len]
                        .copy_from_slice(&buf[..unit.dst_len]);
                }
            }
        }
        self.metrics.charge_plan(plan.stats());
        if let Some(disk) = &mut self.disk {
            disk.charge_scan(self.tiled, plan, &mut self.metrics);
        }
        self.metrics.events.rego_capacity_required = self
            .metrics
            .events
            .rego_capacity_required
            .max(mac_rego_capacity(self.config, self.tiled));
        outputs
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
        let (tiled, config, spec) = (self.tiled, self.config, self.spec);
        let punits = plan.units();

        let per_unit = {
            let frontier_in: Vec<&[f64]> = frontiers.iter().map(Vec::as_slice).collect();
            let addend_refs: Vec<&[f64]> = addends.iter().map(Vec::as_slice).collect();
            pool::run_indexed(
                punits.len(),
                self.threads,
                || StripScanner::new(tiled, config, spec),
                |scanner, idx| {
                    let punit = &punits[idx];
                    let (ds, dl) = (punit.unit.dst_start, punit.unit.dst_len);
                    let mut locals: Vec<Vec<f64>> = frontier_in
                        .iter()
                        .map(|f| {
                            let mut local = f.get(ds..ds + dl).unwrap_or(&[]).to_vec();
                            local.resize(config.strip_width(), 0.0);
                            local
                        })
                        .collect();
                    let mut updated_local = vec![0u64; config.strip_width()];
                    let mut metrics = Metrics::new();
                    let rows = scanner.scan_add_op_lanes_unit(
                        punit,
                        value,
                        combine,
                        &addend_refs,
                        active,
                        &mut locals,
                        &mut updated_local,
                        &mut metrics,
                    );
                    (locals, updated_local, metrics, rows)
                },
            )
        };

        let mut total_rows = 0u64;
        for (punit, (locals, updated_local, unit_metrics, rows)) in punits.iter().zip(&per_unit) {
            let (ds, dl) = (punit.unit.dst_start, punit.unit.dst_len);
            self.metrics.merge(unit_metrics);
            total_rows += rows;
            if dl > 0 {
                for (frontier, local) in frontiers.iter_mut().zip(locals) {
                    frontier[ds..ds + dl].copy_from_slice(&local[..dl]);
                }
                // OR-only write-back in plan order — identical to the
                // serial scan: units tile the destination axis disjointly
                // and the scan never clears a bit, so the caller's seeded
                // bits survive.
                for (i, &word) in updated_local[..dl].iter().enumerate() {
                    if word != 0 {
                        updated.or_lanes(ds + i, word);
                    }
                }
            }
        }
        self.metrics.charge_plan(plan.stats());
        if let Some(disk) = &mut self.disk {
            disk.charge_scan(self.tiled, plan, &mut self.metrics);
        }
        // Every lane keeps its own strip window open in RegO.
        self.metrics.events.rego_capacity_required = self
            .metrics
            .events
            .rego_capacity_required
            .max((k * self.config.strip_width()) as u64);
        total_rows
    }

    fn set_disk(&mut self, disk: Option<DiskModel>) {
        if let Some(acc) = &mut self.disk {
            let window = acc.commit(&mut self.metrics);
            if let Some(trace) = &self.trace {
                trace.record_disk(&window);
            }
        }
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
        self.metrics.charge_iteration(self.config.ge_cycle());
        if let Some(trace) = &self.trace {
            trace.record_compute(&mut self.span_mark, &self.metrics);
        }
        if let Some(disk) = &mut self.disk {
            let window = disk.commit(&mut self.metrics);
            if let Some(trace) = &self.trace {
                trace.record_disk(&window);
            }
        }
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
        if let Some(disk) = &mut self.disk {
            let window = disk.commit(&mut self.metrics);
            if let Some(trace) = &self.trace {
                trace.record_disk(&window);
            }
            disk.reset();
        }
        self.span_mark = SpanMark::default();
        std::mem::take(&mut self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphr_core::exec::StreamingExecutor;
    use graphr_graph::generators::rmat::Rmat;

    fn small_config() -> GraphRConfig {
        GraphRConfig::builder()
            .crossbar_size(4)
            .crossbars_per_ge(8)
            .num_ges(2)
            .build()
            .unwrap()
    }

    #[test]
    fn parallel_mac_is_bit_identical_to_serial() {
        let g = Rmat::new(300, 2000).seed(3).max_weight(7).generate();
        let cfg = small_config();
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let spec = FixedSpec::new(16, 8).unwrap();
        let x: Vec<f64> = (0..300).map(|i| (i % 11) as f64 * 0.125).collect();
        let value = |w: f32, _: u32, _: u32| f64::from(w);

        let mut serial = StreamingExecutor::new(&tiled, &cfg, spec);
        let ys = serial.scan_mac(&value, &[&x]);
        let ms = serial.into_metrics();

        for threads in [1, 2, 7] {
            let mut par = ParallelExecutor::with_threads(&tiled, &cfg, spec, threads);
            let yp = ScanEngine::scan_mac(&mut par, &value, &[&x]);
            let mp = par.into_metrics();
            assert_eq!(ys, yp, "results must be bit-identical ({threads} threads)");
            assert_eq!(ms, mp, "metrics must be identical ({threads} threads)");
        }
    }

    #[test]
    fn parallel_add_op_is_bit_identical_to_serial() {
        let g = Rmat::new(200, 1200).seed(5).max_weight(9).generate();
        let cfg = small_config();
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        let spec = FixedSpec::new(16, 0).unwrap();
        let inf = spec.max_value();
        let value = |w: f32, _: u32, _: u32| f64::from(w);
        let combine = |du: f64, w: f64| du + w;

        let run = |exec: &mut dyn ScanEngine| {
            let mut dist = vec![inf; 200];
            dist[0] = 0.0;
            let mut active = FrontierMask::new(200);
            active.set(0);
            let mut rows_history = Vec::new();
            for _ in 0..200 {
                let mut frontier = dist.clone();
                let mut updated = FrontierMask::new(200);
                rows_history.push(exec.scan_add_op(
                    &value,
                    &combine,
                    &dist,
                    &active,
                    &mut frontier,
                    &mut updated,
                ));
                exec.end_iteration();
                dist = frontier;
                active = updated;
                if active.is_empty() {
                    break;
                }
            }
            (dist, rows_history, exec.take_metrics())
        };

        let mut serial = StreamingExecutor::new(&tiled, &cfg, spec);
        let (ds, rs, ms) = run(&mut serial);
        let mut par = ParallelExecutor::with_threads(&tiled, &cfg, spec, 4);
        let (dp, rp, mp) = run(&mut par);
        assert_eq!(ds, dp);
        assert_eq!(rs, rp);
        assert_eq!(ms, mp);
    }

    #[test]
    fn parallel_fused_lanes_are_bit_identical_to_serial() {
        use graphr_core::sim::{run_sssp_lanes_with, LaneTraversalOptions};
        let g = Rmat::new(200, 1200).seed(5).max_weight(9).generate();
        let cfg = small_config();
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        for sources in [vec![0u32], vec![0, 3, 50, 199]] {
            let opts = LaneTraversalOptions::new(sources);
            let mut serial = StreamingExecutor::new(&tiled, &cfg, opts.spec);
            let gold = run_sssp_lanes_with(&g, &mut serial, &opts).unwrap();
            for threads in [1, 4] {
                let mut par = ParallelExecutor::with_threads(&tiled, &cfg, opts.spec, threads);
                let run = run_sssp_lanes_with(&g, &mut par, &opts).unwrap();
                assert_eq!(run.distances, gold.distances, "{threads} threads");
                assert_eq!(run.metrics, gold.metrics, "{threads} threads");
            }
        }
    }
}
