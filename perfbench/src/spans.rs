//! Host-clock spans recorded from the benchmark side of each layer
//! boundary, and the [`Traced`] decorator that records them around every
//! call the `sim` drivers make into a [`ScanEngine`].
//!
//! Spans are kept in memory (one small record each) and reduced to per-name
//! self times when the run ends: a span's self time is its duration minus
//! the durations of its direct children. Every span opens and closes on the
//! driver's thread (the parallel executor's workers run inside one scan
//! call), so children never overlap and their durations simply add.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use graphr_core::exec::{
    EdgeValueFn, FrontierDelta, FrontierMask, LaneFrontier, ScanEngine, ScanPlan,
};
use graphr_core::outofcore::DiskModel;
use graphr_core::trace::TraceHandle;
use graphr_core::Metrics;

/// What a span measured. The prefix before the dot is the layer the
/// span's self time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One closed-loop round (the root of every timed span tree).
    Round,
    /// A serve round's waves replayed through decorated engines (a root
    /// outside the timed round; see the serve workload).
    Replay,
    /// `Session::tiled`: the preprocessed-graph cache (a hit in rounds).
    SessionTiled,
    /// One `sim::run_*_with` driver call.
    SimDriver,
    /// `ScanEngine::plan` / `plan_with_delta`.
    ExecPlan,
    /// `scan_mac_planned` on a node engine.
    ExecScanMac,
    /// `scan_add_op_planned` on a node engine.
    ExecScanAddOp,
    /// `scan_add_op_lanes_planned` on a node engine.
    ExecScanLanes,
    /// `end_iteration` and the final `take_metrics` window commit on a
    /// node engine (includes the out-of-core `ScanDriver`).
    ExecEndIteration,
    /// `ClusterExecutor::with_engines` (ownership assignment).
    MultinodeBuild,
    /// A scan on the cluster executor (sharding, stitching, exchange
    /// bookkeeping; the node scans are its children).
    MultinodeScan,
    /// `end_iteration` / `take_metrics` on the cluster executor.
    MultinodeEndIteration,
    /// `Server::enqueue`.
    ServeEnqueue,
    /// `Server::drain`.
    ServeDrain,
    /// `JobReport::to_json`.
    ExportReportJson,
    /// `Server::collect_stats` plus the Prometheus and JSON renderings.
    ExportStats,
}

impl Name {
    /// Every name, in declaration order (so `ALL[n.index()] == n`).
    pub const ALL: [Name; 16] = [
        Name::Round,
        Name::Replay,
        Name::SessionTiled,
        Name::SimDriver,
        Name::ExecPlan,
        Name::ExecScanMac,
        Name::ExecScanAddOp,
        Name::ExecScanLanes,
        Name::ExecEndIteration,
        Name::MultinodeBuild,
        Name::MultinodeScan,
        Name::MultinodeEndIteration,
        Name::ServeEnqueue,
        Name::ServeDrain,
        Name::ExportReportJson,
        Name::ExportStats,
    ];

    /// The span name as written to the span file.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Round => "round",
            Name::Replay => "replay",
            Name::SessionTiled => "session.tiled",
            Name::SimDriver => "sim.driver",
            Name::ExecPlan => "exec.plan",
            Name::ExecScanMac => "exec.scan_mac",
            Name::ExecScanAddOp => "exec.scan_add_op",
            Name::ExecScanLanes => "exec.scan_lanes",
            Name::ExecEndIteration => "exec.end_iteration",
            Name::MultinodeBuild => "multinode.build",
            Name::MultinodeScan => "multinode.scan",
            Name::MultinodeEndIteration => "multinode.end_iteration",
            Name::ServeEnqueue => "serve.enqueue",
            Name::ServeDrain => "serve.drain",
            Name::ExportReportJson => "export.report_json",
            Name::ExportStats => "export.stats",
        }
    }

    /// Position in [`Name::ALL`], which indexes [`Recorder::self_times`].
    pub fn index(self) -> usize {
        self as usize
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: Name,
    parent: u32,
    job: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Total self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    /// Σ (duration − direct children's durations), nanoseconds.
    pub self_ns: u64,
    /// Spans recorded under the name.
    pub calls: u64,
}

/// The in-memory span log of one traced run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    job: u32,
}

/// The recorder as the decorators share it (everything runs on one
/// thread).
pub type Shared = Rc<RefCell<Recorder>>;

impl Recorder {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn shared() -> Shared {
        Rc::new(RefCell::new(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }))
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Tags spans opened from now on with `job` (the round index).
    pub fn set_job(&mut self, job: u32) {
        self.job = job;
    }

    fn begin(&mut self, name: Name) -> u32 {
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            job: self.job,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        index
    }

    fn end(&mut self, index: u32) {
        let end_ns = self.now_ns();
        self.spans[index as usize].end_ns = end_ns;
        let closed = self.open.pop();
        assert_eq!(closed, Some(index), "spans close in LIFO order");
    }

    /// Self time and call count per name, indexed like [`Name::ALL`].
    #[must_use]
    pub fn self_times(&self) -> [SelfTime; Name::ALL.len()] {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out = [SelfTime::default(); Name::ALL.len()];
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let slot = &mut out[span.name.index()];
            slot.self_ns += (span.end_ns - span.start_ns) - children;
            slot.calls += 1;
        }
        out
    }

    /// Writes the spans of the first `jobs` rounds as CSV
    /// (`index,name,parent,job,start_ns,end_ns`; parent −1 marks a root).
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating or writing the file.
    pub fn write_csv(&self, path: &std::path::Path, jobs: u32) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index,name,parent,job,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            if s.job >= jobs {
                continue;
            }
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{i},{},{parent},{},{},{}",
                s.name.as_str(),
                s.job,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(rec: &Shared, name: Name, f: impl FnOnce() -> T) -> T {
    let index = rec.borrow_mut().begin(name);
    let out = f();
    rec.borrow_mut().end(index);
    out
}

/// Which engine a [`Traced`] decorator wraps; it decides the layer its
/// spans are charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A single-node engine (serial or parallel executor), or one node of
    /// a cluster: scans and window commits are `exec`.
    Node,
    /// The cluster executor: it plans globally (`exec.plan`), while its
    /// scans and window commits are `multinode` spans whose children are
    /// the node engines' `exec` spans.
    Cluster,
}

/// A [`ScanEngine`] decorator that forwards every call unchanged and
/// records a span around the ones that do work.
pub struct Traced<'a> {
    inner: Box<dyn ScanEngine + 'a>,
    rec: Shared,
    role: Role,
}

impl<'a> Traced<'a> {
    /// Wraps `inner`, recording into `rec`.
    #[must_use]
    pub fn new(inner: Box<dyn ScanEngine + 'a>, rec: &Shared, role: Role) -> Self {
        Traced {
            inner,
            rec: Rc::clone(rec),
            role,
        }
    }

    fn scan_name(&self, node: Name) -> Name {
        match self.role {
            Role::Node => node,
            Role::Cluster => Name::MultinodeScan,
        }
    }

    fn commit_name(&self) -> Name {
        match self.role {
            Role::Node => Name::ExecEndIteration,
            Role::Cluster => Name::MultinodeEndIteration,
        }
    }
}

impl ScanEngine for Traced<'_> {
    fn plan(&mut self, active: Option<&FrontierMask>) -> Arc<ScanPlan> {
        span(&self.rec, Name::ExecPlan, || self.inner.plan(active))
    }

    fn plan_with_delta(&mut self, active: &FrontierMask, delta: &FrontierDelta) -> Arc<ScanPlan> {
        span(&self.rec, Name::ExecPlan, || {
            self.inner.plan_with_delta(active, delta)
        })
    }

    fn scan_mac_planned(
        &mut self,
        plan: &ScanPlan,
        value: &EdgeValueFn<'_>,
        inputs: &[&[f64]],
    ) -> Vec<Vec<f64>> {
        let name = self.scan_name(Name::ExecScanMac);
        span(&self.rec, name, || {
            self.inner.scan_mac_planned(plan, value, inputs)
        })
    }

    fn scan_add_op_planned(
        &mut self,
        plan: &ScanPlan,
        value: &EdgeValueFn<'_>,
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
        addend: &[f64],
        active: &FrontierMask,
        frontier: &mut [f64],
        updated: &mut FrontierMask,
    ) -> u64 {
        let name = self.scan_name(Name::ExecScanAddOp);
        span(&self.rec, name, || {
            self.inner
                .scan_add_op_planned(plan, value, combine, addend, active, frontier, updated)
        })
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
        let name = self.scan_name(Name::ExecScanLanes);
        span(&self.rec, name, || {
            self.inner.scan_add_op_lanes_planned(
                plan, value, combine, addends, active, frontiers, updated,
            )
        })
    }

    fn scan_mac(&mut self, value: &EdgeValueFn<'_>, inputs: &[&[f64]]) -> Vec<Vec<f64>> {
        let name = self.scan_name(Name::ExecScanMac);
        span(&self.rec, name, || self.inner.scan_mac(value, inputs))
    }

    fn scan_add_op(
        &mut self,
        value: &EdgeValueFn<'_>,
        combine: &(dyn Fn(f64, f64) -> f64 + Sync),
        addend: &[f64],
        active: &FrontierMask,
        frontier: &mut [f64],
        updated: &mut FrontierMask,
    ) -> u64 {
        let name = self.scan_name(Name::ExecScanAddOp);
        span(&self.rec, name, || {
            self.inner
                .scan_add_op(value, combine, addend, active, frontier, updated)
        })
    }

    fn set_disk(&mut self, disk: Option<DiskModel>) {
        self.inner.set_disk(disk);
    }

    fn set_trace(&mut self, trace: Option<TraceHandle>) {
        self.inner.set_trace(trace);
    }

    fn trace(&self) -> Option<&TraceHandle> {
        self.inner.trace()
    }

    fn end_iteration(&mut self) {
        let name = self.commit_name();
        span(&self.rec, name, || self.inner.end_iteration());
    }

    fn metrics(&self) -> &Metrics {
        self.inner.metrics()
    }

    fn take_metrics(&mut self) -> Metrics {
        let name = self.commit_name();
        span(&self.rec, name, || self.inner.take_metrics())
    }
}
