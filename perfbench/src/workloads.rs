//! The three workloads: seeded inputs, the closed-loop round each one
//! runs through the public service API, the traced variant of that round,
//! and the gold check of every answer.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use graphr_core::analyze::BottleneckReport;
use graphr_core::exec::{PlanSkeleton, Planner, PlannerIndex, ScanEngine, StreamingExecutor};
use graphr_core::multinode::{ClusterExecutor, MultiNodeConfig, OwnerPolicy};
use graphr_core::outofcore::DiskModel;
use graphr_core::sim::{
    run_bfs_lanes_with, run_bfs_with, run_pagerank_with, run_spmv_with, run_sssp_lanes_with,
    run_sssp_with, run_wcc_lanes_with, run_wcc_with, LaneTraversalOptions, PageRankOptions,
    SpmvOptions, TraversalOptions,
};
use graphr_core::stats::StatsRegistry;
use graphr_core::{GraphRConfig, Metrics, TiledGraph};
use graphr_graph::algorithms::bfs::bfs;
use graphr_graph::algorithms::pagerank::{pagerank, PageRankParams};
use graphr_graph::algorithms::spmv::spmv_vertex_program;
use graphr_graph::algorithms::sssp::dijkstra;
use graphr_graph::algorithms::wcc::wcc;
use graphr_graph::generators::rmat::Rmat;
use graphr_graph::generators::structured::grid;
use graphr_graph::{Csr, Edge, EdgeList, GraphHandle};
use graphr_runtime::{
    ExecMode, GraphVariant, Job, JobOutput, JobSpec, ParallelExecutor, QueryResult, ServeConfig,
    Server, Session,
};
use graphr_units::FixedSpec;

use crate::spans::{span, Name, Role, Shared, Traced};
use crate::tally::RoundResult;

/// Worker threads every session may use (the benchmark host has two
/// cores).
pub const THREADS: usize = 2;

/// Host time spent in the set-up steps, nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// Generating the workload's graphs and query schedule.
    pub generate_ns: u64,
    /// Cold `Session::tiled` calls (tiler, plan skeleton, planner index).
    pub tile_ns: u64,
}

/// A closed-loop workload. The harness times [`Workload::run`] or
/// [`Workload::run_traced`] and calls [`Workload::check`] outside the
/// timed region.
pub trait Workload {
    /// What a round hands to the checker.
    type Out;
    /// Computes the gold answer of every query in the schedule.
    fn compute_gold(&mut self);
    /// Builds what the traced rounds need besides the session's cache.
    fn prepare_trace(&mut self);
    /// Rounds in one pass of the seeded schedule.
    fn pass_len(&self) -> usize;
    /// Runs round `i` through the public service API.
    fn run(&mut self, i: usize) -> Self::Out;
    /// Runs round `i` with a span around every layer boundary.
    fn run_traced(&mut self, i: usize, rec: &Shared) -> Self::Out;
    /// Checks round `i`'s answers against gold and collects its simulated
    /// accounting. In a traced run (`rec` set) the serve workload also
    /// replays the round's waves through decorated engines here.
    fn check(&mut self, i: usize, out: Self::Out, rec: Option<&Shared>) -> RoundResult;
    /// The session, for cache statistics.
    fn session(&self) -> &Session;
}

// ------------------------------------------------------------ inputs

/// SplitMix64: the benchmark's own seeded generator for weights, sources
/// and query mixes.
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of workload seed `seed`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One query of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Query {
    Bfs(u32),
    Sssp(u32),
    Wcc,
    PageRank { iterations: usize },
    Spmv,
}

impl Query {
    fn spec(self) -> JobSpec {
        let traversal = |source| TraversalOptions {
            source,
            ..TraversalOptions::default()
        };
        match self {
            Query::Bfs(s) => JobSpec::Bfs(traversal(s)),
            Query::Sssp(s) => JobSpec::Sssp(traversal(s)),
            Query::Wcc => JobSpec::Wcc,
            Query::PageRank { iterations } => JobSpec::PageRank(PageRankOptions {
                max_iterations: iterations,
                tolerance: 0.0,
                ..PageRankOptions::default()
            }),
            Query::Spmv => JobSpec::Spmv(SpmvOptions::default()),
        }
    }

    fn job(self, handle: &GraphHandle, mode: ExecMode) -> Job {
        Job::new(handle.clone(), self.spec()).with_mode(mode)
    }

    /// The tiling and label format `Session::submit` uses for the query.
    fn variant_and_spec(self) -> (GraphVariant, FixedSpec) {
        match self.spec() {
            JobSpec::PageRank(o) => (GraphVariant::Forward, o.matrix_spec),
            JobSpec::Spmv(o) => (GraphVariant::Forward, o.matrix_spec),
            JobSpec::Bfs(o) | JobSpec::Sssp(o) => (GraphVariant::Forward, o.spec),
            JobSpec::Wcc | JobSpec::Cf(_) => (
                GraphVariant::Symmetrised,
                FixedSpec::new(16, 0).expect("Q16.0 is valid"),
            ),
        }
    }
}

// -------------------------------------------------------------- gold

/// A gold answer: exact answers are kept as a hash of their bits, the
/// tolerance-checked ones as the full vector.
#[derive(Debug, Clone)]
enum Gold {
    Exact(u64),
    PageRank(Arc<Vec<f64>>),
    Spmv(Arc<Vec<f64>>),
}

fn hash_distances(d: &[Option<f64>]) -> u64 {
    let mut h = DefaultHasher::new();
    for x in d {
        x.map_or(u64::MAX, f64::to_bits).hash(&mut h);
    }
    h.finish()
}

fn hash_labels(labels: &[u32]) -> u64 {
    let mut h = DefaultHasher::new();
    labels.hash(&mut h);
    h.finish()
}

/// Gold answers of a schedule's distinct queries on one graph.
struct GoldBook {
    answers: HashMap<Query, Gold>,
}

impl GoldBook {
    fn compute<'q>(graph: &EdgeList, queries: impl Iterator<Item = &'q Query>) -> Self {
        let csr = graph.to_csr();
        let mut answers = HashMap::new();
        for &q in queries {
            answers
                .entry(q)
                .or_insert_with(|| gold_answer(graph, &csr, q));
        }
        GoldBook { answers }
    }

    /// Checks one answer, returning what disagreed. A PageRank answer's
    /// scaled error is folded into `pagerank_err`, pass or fail.
    fn check(
        &self,
        q: Query,
        output: &JobOutput,
        graph: &EdgeList,
        pagerank_err: &mut f64,
    ) -> Result<(), String> {
        let gold = self
            .answers
            .get(&q)
            .ok_or_else(|| format!("{q:?}: no gold answer"))?;
        let n = graph.num_vertices();
        match (gold, output) {
            (Gold::Exact(h), JobOutput::Traversal(run)) => {
                if hash_distances(&run.distances) == *h {
                    Ok(())
                } else {
                    Err(first_difference(graph, q, output))
                }
            }
            (Gold::Exact(h), JobOutput::Wcc(run)) => {
                if hash_labels(&run.labels) == *h {
                    Ok(())
                } else {
                    Err(first_difference(graph, q, output))
                }
            }
            (Gold::PageRank(ranks), JobOutput::Scalar(run)) => {
                // The repository's line (tests/correctness.rs): per-vertex
                // error below 0.5 on ranks scaled by |V|.
                let err = run
                    .values
                    .iter()
                    .zip(ranks.iter())
                    .map(|(a, b)| (a - b).abs() * n as f64)
                    .fold(0.0, f64::max);
                *pagerank_err = pagerank_err.max(err);
                if run.values.len() == n && err < 0.5 {
                    Ok(())
                } else {
                    Err(format!("{q:?}: scaled rank error {err} (limit 0.5)"))
                }
            }
            (Gold::Spmv(gold), JobOutput::Scalar(run)) => {
                // The repository's line: 0.02 + 2% of the gold value, with
                // Q8.8 saturation above 127.
                let bad = run
                    .values
                    .iter()
                    .zip(gold.iter())
                    .position(|(a, b)| !((a - b).abs() < 0.02 + b.abs() * 0.02 || *b > 127.0));
                match bad {
                    None if run.values.len() == n => Ok(()),
                    None => Err(format!(
                        "{q:?}: {} values for {n} vertices",
                        run.values.len()
                    )),
                    Some(v) => Err(format!(
                        "{q:?}: vertex {v} = {} vs gold {}",
                        run.values[v], gold[v]
                    )),
                }
            }
            _ => Err(format!("{q:?}: unexpected output kind")),
        }
    }
}

fn gold_answer(graph: &EdgeList, csr: &Csr, q: Query) -> Gold {
    match q {
        Query::Bfs(s) => Gold::Exact(hash_distances(&bfs_gold(csr, s))),
        Query::Sssp(s) => Gold::Exact(hash_distances(&dijkstra(csr, s).distances)),
        Query::Wcc => Gold::Exact(hash_labels(&wcc(graph).labels)),
        Query::PageRank { iterations } => Gold::PageRank(Arc::new(
            pagerank(
                csr,
                &PageRankParams {
                    max_iterations: iterations,
                    tolerance: 0.0,
                    ..PageRankParams::default()
                },
            )
            .ranks,
        )),
        Query::Spmv => Gold::Spmv(Arc::new(spmv_vertex_program(
            csr,
            &vec![1.0; graph.num_vertices()],
        ))),
    }
}

fn bfs_gold(csr: &Csr, source: u32) -> Vec<Option<f64>> {
    bfs(csr, source)
        .levels
        .iter()
        .map(|l| l.map(f64::from))
        .collect()
}

/// Recomputes an exact gold answer to name the first vertex that differs.
fn first_difference(graph: &EdgeList, q: Query, output: &JobOutput) -> String {
    let csr = graph.to_csr();
    let (got, want): (Vec<String>, Vec<String>) = match (q, output) {
        (Query::Bfs(s), JobOutput::Traversal(run)) => (
            run.distances.iter().map(|d| format!("{d:?}")).collect(),
            bfs_gold(&csr, s).iter().map(|d| format!("{d:?}")).collect(),
        ),
        (Query::Sssp(s), JobOutput::Traversal(run)) => (
            run.distances.iter().map(|d| format!("{d:?}")).collect(),
            dijkstra(&csr, s)
                .distances
                .iter()
                .map(|d| format!("{d:?}"))
                .collect(),
        ),
        (Query::Wcc, JobOutput::Wcc(run)) => (
            run.labels.iter().map(u32::to_string).collect(),
            wcc(graph).labels.iter().map(u32::to_string).collect(),
        ),
        _ => return format!("{q:?}: unexpected output kind"),
    };
    match got.iter().zip(&want).position(|(a, b)| a != b) {
        Some(v) => format!("{q:?}: vertex {v} = {} vs gold {}", got[v], want[v]),
        None => format!("{q:?}: {} answers vs {} gold", got.len(), want.len()),
    }
}

/// The gate every report passes: `Metrics::validate` plus the gold check.
fn gate(
    gold: &GoldBook,
    graph: &EdgeList,
    q: Query,
    output: &JobOutput,
    res: &mut RoundResult,
) -> bool {
    if let Err(e) = output.metrics().validate() {
        res.fail(format!("{q:?}: Metrics::validate: {e}"));
        return false;
    }
    match gold.check(q, output, graph, &mut res.pagerank_err) {
        Ok(()) => true,
        Err(e) => {
            res.fail(e);
            false
        }
    }
}

// ------------------------------------------------ traced engines

/// The session's cache entry for one graph variant, rebuilt on the
/// benchmark side for the traced rounds: the plan skeleton comes from the
/// session, the planner index is built once from the cached tiling (the
/// session does not expose its own).
struct Prepared {
    skeleton: Arc<PlanSkeleton>,
    index: Arc<PlannerIndex>,
}

impl Prepared {
    fn new(session: &Session, handle: &GraphHandle, variant: GraphVariant) -> Self {
        let config = session.config();
        let tiled = session
            .tiled(handle, variant, config)
            .expect("the workload graph tiles");
        Prepared {
            skeleton: session
                .plan_skeleton(handle, variant, config)
                .expect("the workload graph tiles"),
            index: Arc::new(PlannerIndex::build(&tiled)),
        }
    }

    fn planner(&self) -> Planner {
        Planner::with_index(Arc::clone(&self.skeleton), Arc::clone(&self.index))
    }
}

/// Builds the engine `Session::submit` would build for a job, with every
/// engine wrapped in a [`Traced`] decorator.
fn traced_engine<'a>(
    session: &'a Session,
    tiled: &'a TiledGraph,
    prepared: &Prepared,
    mode: ExecMode,
    spec: FixedSpec,
    rec: &Shared,
) -> Traced<'a> {
    let config = session.config();
    let threads = session.threads();
    let node = |rec: &Shared| -> Box<dyn ScanEngine + 'a> {
        let inner: Box<dyn ScanEngine + 'a> = match mode {
            ExecMode::Serial => Box::new(StreamingExecutor::with_planner(
                tiled,
                config,
                spec,
                prepared.planner(),
            )),
            ExecMode::Parallel => Box::new(ParallelExecutor::with_planner(
                tiled,
                config,
                spec,
                prepared.planner(),
                threads,
            )),
        };
        Box::new(Traced::new(inner, rec, Role::Node))
    };
    let mut engine = match session.cluster() {
        Some(&cluster) => {
            let exec = span(rec, Name::MultinodeBuild, || {
                ClusterExecutor::with_engines(tiled, config, cluster, prepared.planner(), |_| {
                    node(rec)
                })
            });
            Traced::new(Box::new(exec), rec, Role::Cluster)
        }
        None => Traced::new(node(rec), rec, Role::Node),
    };
    engine.set_disk(session.disk().copied());
    engine
}

/// Runs one query through `sim::run_*_with` on a traced engine, as
/// `Session::submit` runs it.
fn traced_solo(
    session: &Session,
    handle: &GraphHandle,
    prepared: &Prepared,
    q: Query,
    mode: ExecMode,
    rec: &Shared,
) -> Result<JobOutput, String> {
    let (variant, spec) = q.variant_and_spec();
    let tiled = span(rec, Name::SessionTiled, || {
        session.tiled(handle, variant, session.config())
    })
    .map_err(|e| e.to_string())?;
    let mut engine = traced_engine(session, &tiled, prepared, mode, spec, rec);
    let graph = handle.graph();
    span(rec, Name::SimDriver, || match &q.spec() {
        JobSpec::Bfs(o) => run_bfs_with(graph, &mut engine, o).map(JobOutput::Traversal),
        JobSpec::Sssp(o) => run_sssp_with(graph, &mut engine, o).map(JobOutput::Traversal),
        JobSpec::Wcc => run_wcc_with(graph, &mut engine).map(JobOutput::Wcc),
        JobSpec::PageRank(o) => run_pagerank_with(graph, &mut engine, o).map(JobOutput::Scalar),
        JobSpec::Spmv(o) => run_spmv_with(graph, &mut engine, o).map(JobOutput::Scalar),
        JobSpec::Cf(_) => unreachable!("no workload schedules CF"),
    })
    .map_err(|e| e.to_string())
}

// ------------------------------------------ traverse_ooc, rank_cluster

/// A workload whose rounds are solo `Session::submit` calls.
pub struct SubmitLoop {
    session: Session,
    handle: GraphHandle,
    mode: ExecMode,
    rounds: Vec<Vec<(Query, Job)>>,
    gold: Option<GoldBook>,
    prepared: Option<Prepared>,
}

/// Rounds in one `traverse_ooc` pass; each round is a BFS and an SSSP
/// from one seeded source.
pub const TRAVERSE_PASS: usize = 96;
/// R-MAT quadrant probabilities of the `rank_cluster` and `serve_mixed`
/// graphs. Milder than Graph500's (0.57, 0.19, 0.19): on those hubs the
/// 16-bit PageRank registers miss the repository's accuracy line.
pub const RANK_SKEW: (f64, f64, f64) = (0.45, 0.22, 0.22);

/// Rounds in one `rank_cluster` pass; each round is a PageRank and an
/// SpMV job.
pub const RANK_PASS: usize = 2;

impl SubmitLoop {
    /// `traverse_ooc`: BFS + SSSP from seeded sources on a 240×240 grid
    /// with seeded weights 1–16, serial mode, one node, `nvme-seg-pipe`.
    #[must_use]
    pub fn traverse(seed: u64, times: &mut SetupTimes) -> Self {
        const SIDE: usize = 240;
        let t = Instant::now();
        let mut rng = Rng::new(seed, 1);
        let edges = grid(SIDE, SIDE)
            .into_edges()
            .into_iter()
            .map(|e| Edge::new(e.src, e.dst, (1 + rng.below(16)) as f32))
            .collect();
        let graph = EdgeList::from_edges(SIDE * SIDE, edges).expect("grid edges are in range");
        let handle = GraphHandle::new(format!("grid{SIDE}-w16-s{seed}"), graph);
        // Sources in the upper-left quadrant: the grid's edges point right
        // and down, so every traversal reaches at least a quarter of it.
        // Stratified: one source per cell of a 12 × 8 lattice over the
        // quadrant, so every seed covers it evenly.
        let mut rng = Rng::new(seed, 2);
        let (cell_r, cell_c) = (SIDE / 2 / 12, SIDE / 2 / 8);
        let rounds = (0..TRAVERSE_PASS)
            .map(|k| {
                let r = (k / 8) * cell_r + rng.below(cell_r as u64) as usize;
                let c = (k % 8) * cell_c + rng.below(cell_c as u64) as usize;
                let s = (r * SIDE + c) as u32;
                vec![Query::Bfs(s), Query::Sssp(s)]
            })
            .collect();
        times.generate_ns = elapsed_ns(t);
        let session = Session::new(GraphRConfig::default())
            .with_threads(THREADS)
            .with_disk(DiskModel::by_name("nvme-seg-pipe").expect("a known disk model"));
        Self::build(session, handle, ExecMode::Serial, rounds, times)
    }

    /// `rank_cluster`: PageRank (20 iterations, tolerance 0) and SpMV on a
    /// seeded R-MAT graph, parallel mode on a 4-node PCIe cluster with
    /// degree-weighted ownership, in-core.
    #[must_use]
    pub fn rank(seed: u64, times: &mut SetupTimes) -> Self {
        Self::rank_on(seed, RANK_SKEW, times)
    }

    /// `rank_cluster` on a Graph500-skewed R-MAT graph: reproduces the
    /// PageRank accuracy defect (see `perfbench/README.md`); not a
    /// benchmark workload, since its gate fails on current code.
    #[must_use]
    pub fn rank_graph500(seed: u64, times: &mut SetupTimes) -> Self {
        Self::rank_on(seed, (0.57, 0.19, 0.19), times)
    }

    fn rank_on(seed: u64, (a, b, c): (f64, f64, f64), times: &mut SetupTimes) -> Self {
        let t = Instant::now();
        // The seed also draws the vertex count, in whole 8-vertex strips:
        // a dense scan's simulated time follows the number of strips, so a
        // fixed size would give every seed the same simulated time.
        let mut rng = Rng::new(seed, 1);
        let n = 8_192 - 8 * rng.below(32) as usize;
        let graph = Rmat::new(n, 16 * n)
            .skew(a, b, c)
            .seed(rng.next_u64())
            .generate();
        let handle = GraphHandle::new(format!("rmat{n}-d16-s{seed}"), graph);
        let rounds = vec![vec![Query::PageRank { iterations: 20 }, Query::Spmv]; RANK_PASS];
        times.generate_ns = elapsed_ns(t);
        let session = Session::new(GraphRConfig::default())
            .with_threads(THREADS)
            .with_cluster(MultiNodeConfig::pcie_cluster(4).with_owner(OwnerPolicy::DegreeWeighted));
        Self::build(session, handle, ExecMode::Parallel, rounds, times)
    }

    fn build(
        session: Session,
        handle: GraphHandle,
        mode: ExecMode,
        queries: Vec<Vec<Query>>,
        times: &mut SetupTimes,
    ) -> Self {
        let t = Instant::now();
        warm(&session, &handle, queries.iter().flatten());
        times.tile_ns = elapsed_ns(t);
        let rounds = queries
            .into_iter()
            .map(|qs| qs.into_iter().map(|q| (q, q.job(&handle, mode))).collect())
            .collect();
        SubmitLoop {
            session,
            handle,
            mode,
            rounds,
            gold: None,
            prepared: None,
        }
    }
}

/// Warms the session cache for every graph variant the queries use.
fn warm<'q>(session: &Session, handle: &GraphHandle, queries: impl Iterator<Item = &'q Query>) {
    let mut variants: Vec<GraphVariant> = Vec::new();
    for q in queries {
        let v = q.variant_and_spec().0;
        if !variants.contains(&v) {
            variants.push(v);
        }
    }
    for v in variants {
        session
            .tiled(handle, v, session.config())
            .expect("the workload graph tiles");
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).expect("set-up lasts under 584 years")
}

impl Workload for SubmitLoop {
    type Out = Vec<Result<JobOutput, String>>;

    fn compute_gold(&mut self) {
        self.gold = Some(GoldBook::compute(
            self.handle.graph(),
            self.rounds.iter().flatten().map(|(q, _)| q),
        ));
    }

    fn prepare_trace(&mut self) {
        // Every query of these two workloads reads the forward tiling.
        self.prepared = Some(Prepared::new(
            &self.session,
            &self.handle,
            GraphVariant::Forward,
        ));
    }

    fn pass_len(&self) -> usize {
        self.rounds.len()
    }

    fn run(&mut self, i: usize) -> Self::Out {
        self.rounds[i]
            .iter()
            .map(|(_, job)| {
                self.session
                    .submit(job)
                    .map(|report| report.output)
                    .map_err(|e| e.to_string())
            })
            .collect()
    }

    fn run_traced(&mut self, i: usize, rec: &Shared) -> Self::Out {
        let prepared = self.prepared.as_ref().expect("prepare_trace ran");
        self.rounds[i]
            .iter()
            .map(|&(q, _)| traced_solo(&self.session, &self.handle, prepared, q, self.mode, rec))
            .collect()
    }

    fn check(&mut self, i: usize, out: Self::Out, _rec: Option<&Shared>) -> RoundResult {
        let gold = self.gold.as_ref().expect("compute_gold ran");
        let graph = self.handle.graph();
        let mut res = RoundResult::default();
        for ((q, _), output) in self.rounds[i].iter().zip(out) {
            res.queries += 1;
            match output {
                Err(e) => res.fail(format!("{q:?}: {e}")),
                Ok(output) => {
                    let m = output.metrics();
                    res.totals.add(m);
                    // Closed loop of solo jobs: nothing queues, so the
                    // simulated latency is the job's effective wall (its
                    // disk or cluster composition included).
                    let ns = wall_ns(m);
                    res.latency_ns.push(ns);
                    res.service_ns.push(ns);
                    res.wait_ns.push(0);
                    gate(gold, graph, *q, &output, &mut res);
                }
            }
        }
        res
    }

    fn session(&self) -> &Session {
        &self.session
    }
}

/// A run's effective simulated wall in whole nanoseconds, rounded as the
/// serve layer rounds its clock.
fn wall_ns(m: &Metrics) -> u64 {
    BottleneckReport::classify(m)
        .wall
        .as_nanos()
        .max(0.0)
        .round() as u64
}

// ------------------------------------------------------- serve_mixed

/// Rounds in one `serve_mixed` pass: three of each batch size 16..=32
/// (mean 24), so a pass holds 1,224 queries and the p99 has ten samples
/// beyond it.
pub const SERVE_PASS: usize = 51;

/// Fisher–Yates shuffle driven by the workload's generator.
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// `serve_mixed`: seeded query batches through one `Server`.
pub struct ServeLoop {
    session: Session,
    server: Server,
    handle: GraphHandle,
    rounds: Vec<Vec<(Query, Job)>>,
    gold: Option<GoldBook>,
    forward: Option<Prepared>,
    symmetrised: Option<Prepared>,
}

/// What a serve round hands to the checker.
pub struct ServeOut {
    admitted: Vec<bool>,
    results: Vec<QueryResult>,
    export_bytes: u64,
}

impl ServeLoop {
    /// Mostly BFS/SSSP from random sources, with occasional WCC and short
    /// PageRank, on a seeded weighted R-MAT graph.
    #[must_use]
    pub fn new(seed: u64, times: &mut SetupTimes) -> Self {
        let t = Instant::now();
        let (a, b, c) = RANK_SKEW;
        let graph = Rmat::new(8_192, 65_536)
            .skew(a, b, c)
            .seed(Rng::new(seed, 1).next_u64())
            .max_weight(16)
            .generate();
        // Sources with at least one out-edge, so every traversal does work.
        let sources: Vec<u32> = graph
            .out_degrees()
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d > 0)
            .map(|(v, _)| v as u32)
            .collect();
        let handle = GraphHandle::new(format!("rmat8k-w16-s{seed}"), graph);
        // The pass's batch sizes and query kinds are fixed decks that the
        // seed shuffles: every pass holds each size 16..=32 three times and
        // the same number of each kind, so seeds differ in order, sources
        // and graph, not in how much of each kind they ask for.
        let mut rng = Rng::new(seed, 2);
        let mut sizes: Vec<usize> = (0..SERVE_PASS).map(|k| 16 + k % 17).collect();
        shuffle(&mut sizes, &mut rng);
        let total: usize = sizes.iter().sum();
        let (wcc, pr) = (total / 20, total / 20);
        let bfs = (total - wcc - pr) / 2;
        let mut kinds: Vec<u8> = [(0u8, bfs), (1, total - wcc - pr - bfs), (2, wcc), (3, pr)]
            .into_iter()
            .flat_map(|(kind, count)| std::iter::repeat_n(kind, count))
            .collect();
        shuffle(&mut kinds, &mut rng);
        let mut kinds = kinds.into_iter();
        let queries: Vec<Vec<Query>> = sizes
            .iter()
            .map(|&batch| {
                (0..batch)
                    .map(|_| {
                        let s = sources[rng.below(sources.len() as u64) as usize];
                        match kinds.next().expect("one kind per query") {
                            0 => Query::Bfs(s),
                            1 => Query::Sssp(s),
                            2 => Query::Wcc,
                            _ => Query::PageRank { iterations: 5 },
                        }
                    })
                    .collect()
            })
            .collect();
        times.generate_ns = elapsed_ns(t);
        let session = Session::new(GraphRConfig::default()).with_threads(THREADS);
        let t = Instant::now();
        warm(&session, &handle, queries.iter().flatten());
        times.tile_ns = elapsed_ns(t);
        let rounds = queries
            .into_iter()
            .map(|qs| {
                qs.into_iter()
                    .map(|q| (q, q.job(&handle, ExecMode::Parallel)))
                    .collect()
            })
            .collect();
        ServeLoop {
            session,
            server: Server::new(ServeConfig::default()),
            handle,
            rounds,
            gold: None,
            forward: None,
            symmetrised: None,
        }
    }

    /// Replays one drained wave through decorated engines and checks that
    /// it reproduces the drained accounting bit for bit.
    fn replay_wave(&self, members: &[(Query, &QueryResult)], rec: &Shared, res: &mut RoundResult) {
        let (q0, _) = members[0];
        let (variant, spec) = q0.variant_and_spec();
        let prepared = match variant {
            GraphVariant::Symmetrised => self.symmetrised.as_ref(),
            _ => self.forward.as_ref(),
        }
        .expect("prepare_trace ran");
        if members.len() == 1 {
            let replay = traced_solo(
                &self.session,
                &self.handle,
                prepared,
                q0,
                ExecMode::Parallel,
                rec,
            );
            let drained = members[0].1.report.as_ref().map(|r| r.output.metrics());
            if let (Ok(a), Ok(b)) = (&replay, drained) {
                if a.metrics() != b {
                    res.fail(format!(
                        "{q0:?}: replayed metrics differ from the drained run"
                    ));
                }
            }
            return;
        }
        let tiled = span(rec, Name::SessionTiled, || {
            self.session
                .tiled(&self.handle, variant, self.session.config())
        })
        .expect("the workload graph tiles");
        let mut engine = traced_engine(
            &self.session,
            &tiled,
            prepared,
            ExecMode::Parallel,
            spec,
            rec,
        );
        let graph = self.handle.graph();
        let sources = || {
            members
                .iter()
                .map(|(q, _)| match q {
                    Query::Bfs(s) | Query::Sssp(s) => *s,
                    _ => unreachable!("a wave is homogeneous"),
                })
                .collect()
        };
        let metrics = span(rec, Name::SimDriver, || match q0 {
            Query::Bfs(_) => {
                run_bfs_lanes_with(graph, &mut engine, &LaneTraversalOptions::new(sources()))
                    .map(|r| r.metrics)
            }
            Query::Sssp(_) => {
                run_sssp_lanes_with(graph, &mut engine, &LaneTraversalOptions::new(sources()))
                    .map(|r| r.metrics)
            }
            Query::Wcc => run_wcc_lanes_with(graph, &mut engine, members.len()).map(|r| r.metrics),
            _ => unreachable!("only traversals fuse"),
        });
        let Ok(shared) = metrics else {
            res.fail(format!("{q0:?}: fused replay failed"));
            return;
        };
        for (k, (q, r)) in members.iter().enumerate() {
            let mut lane = shared.clone();
            lane.lanes = vec![shared.lanes[k]];
            if let Ok(report) = &r.report {
                if report.output.metrics() != &lane {
                    res.fail(format!(
                        "{q:?}: replayed lane metrics differ from the drained wave"
                    ));
                }
            }
        }
    }
}

impl Workload for ServeLoop {
    type Out = ServeOut;

    fn compute_gold(&mut self) {
        self.gold = Some(GoldBook::compute(
            self.handle.graph(),
            self.rounds.iter().flatten().map(|(q, _)| q),
        ));
    }

    fn prepare_trace(&mut self) {
        self.forward = Some(Prepared::new(
            &self.session,
            &self.handle,
            GraphVariant::Forward,
        ));
        self.symmetrised = Some(Prepared::new(
            &self.session,
            &self.handle,
            GraphVariant::Symmetrised,
        ));
    }

    fn pass_len(&self) -> usize {
        self.rounds.len()
    }

    fn run(&mut self, i: usize) -> Self::Out {
        let admitted = self.rounds[i]
            .iter()
            .map(|(_, job)| self.server.enqueue(job.clone()).is_ok())
            .collect();
        let results = self.server.drain(&self.session);
        let mut export_bytes = 0;
        for r in &results {
            if let Ok(report) = &r.report {
                export_bytes += report.to_json().len() as u64;
            }
        }
        let mut registry = StatsRegistry::new();
        self.server.collect_stats(&mut registry);
        export_bytes += (registry.render_prometheus().len() + registry.to_json().len()) as u64;
        ServeOut {
            admitted,
            results,
            export_bytes,
        }
    }

    fn run_traced(&mut self, i: usize, rec: &Shared) -> Self::Out {
        let admitted = self.rounds[i]
            .iter()
            .map(|(_, job)| {
                span(rec, Name::ServeEnqueue, || self.server.enqueue(job.clone())).is_ok()
            })
            .collect();
        let results = span(rec, Name::ServeDrain, || self.server.drain(&self.session));
        let mut export_bytes = 0;
        for r in &results {
            if let Ok(report) = &r.report {
                export_bytes += span(rec, Name::ExportReportJson, || report.to_json()).len() as u64;
            }
        }
        export_bytes += span(rec, Name::ExportStats, || {
            let mut registry = StatsRegistry::new();
            self.server.collect_stats(&mut registry);
            (registry.render_prometheus().len() + registry.to_json().len()) as u64
        });
        ServeOut {
            admitted,
            results,
            export_bytes,
        }
    }

    fn check(&mut self, i: usize, out: Self::Out, rec: Option<&Shared>) -> RoundResult {
        let gold = self.gold.as_ref().expect("compute_gold ran");
        let graph = self.handle.graph();
        let mut res = RoundResult {
            export_bytes: out.export_bytes,
            ..RoundResult::default()
        };
        let mut results = out.results.iter();
        // Admitted queries come back in submission order; group them by
        // the wave that executed them.
        let mut waves: BTreeMap<u64, Vec<(Query, &QueryResult)>> = BTreeMap::new();
        for (&(q, _), &ok) in self.rounds[i].iter().zip(&out.admitted) {
            res.queries += 1;
            if !ok {
                res.fail(format!("{q:?}: refused admission"));
                continue;
            }
            let r = results.next().expect("one result per admitted query");
            match &r.report {
                Err(e) => res.fail(format!("{q:?}: {e}")),
                Ok(report) => {
                    if gate(gold, graph, q, &report.output, &mut res) {
                        res.latency_ns.push(r.latency_ns);
                        res.wait_ns.push(r.wait_ns);
                        res.service_ns.push(r.service_ns);
                    }
                }
            }
            waves.entry(r.wave).or_default().push((q, r));
        }
        for w in waves.values() {
            if let Ok(report) = &w[0].1.report {
                res.totals.add(report.output.metrics());
            }
            if w.len() > 1 {
                res.fused_waves += 1;
                res.fused_queries += w.len() as u64;
            }
            if let Some(rec) = rec {
                span(rec, Name::Replay, || self.replay_wave(w, rec, &mut res));
            }
        }
        res
    }

    fn session(&self) -> &Session {
        &self.session
    }
}
