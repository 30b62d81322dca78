//! Regression net for MAC-pattern (PageRank, SpMV, CF) accounting.
//!
//! Every run below is rendered as text — the result values as their
//! exact bit patterns, every simulated [`Metrics`] field and the trace
//! JSONL with its host-measured `host_*` fields stripped — and
//! byte-compared against a committed fixture. The matrix covers a
//! weighted R-MAT with parallel edges and a grid whose vertex count is
//! not a multiple of the crossbar size; the serial engine, three workers,
//! and one- and four-node clusters (degree-weighted ownership); and
//! column-major streaming, row-major streaming, and forced scanning of
//! empty windows. CF scans several input vectors per tile programming.
//!
//! The fixture pins the MAC accounting independently of how the tile
//! kernels are implemented: a changed byte means the program changed
//! what it computes or charges, and the program is what gets fixed.

mod common;

use std::fmt::Write as _;
use std::sync::Arc;

use graphr_repro::core::exec::{ScanEngine, StreamingExecutor};
use graphr_repro::core::multinode::{ClusterExecutor, MultiNodeConfig, OwnerPolicy};
use graphr_repro::core::sim::{
    cf_config_for, run_cf_with, run_pagerank_with, run_spmv_with, CfMatrix, CfOptions,
    PageRankOptions, SpmvOptions,
};
use graphr_repro::core::trace::{TraceHandle, TraceSink};
use graphr_repro::core::{GraphRConfig, Metrics, StreamingOrder, TiledGraph};
use graphr_repro::graph::generators::rmat::Rmat;
use graphr_repro::graph::generators::structured::grid;
use graphr_repro::graph::{Edge, EdgeList};
use graphr_repro::units::FixedSpec;

use common::{render_metrics, strip_host_fields};

const FIXTURE: &str = include_str!("fixtures/mac_accounting.txt");

const ENGINES: [&str; 4] = ["serial", "threads3", "cluster1", "cluster4-degree"];
const CONFIGS: [&str; 3] = ["column-major", "row-major", "no-skip"];

/// Crossbar size 4 so a 7×9 grid (63 vertices) leaves a partial strip.
fn config(kind: &str) -> GraphRConfig {
    let builder = GraphRConfig::builder()
        .crossbar_size(4)
        .crossbars_per_ge(8)
        .num_ges(2);
    match kind {
        "column-major" => builder,
        "row-major" => builder.order(StreamingOrder::RowMajor),
        "no-skip" => builder.skip_empty(false),
        _ => unreachable!("unknown config {kind}"),
    }
    .build()
    .expect("valid test geometry")
}

fn make_engine<'a>(
    kind: &str,
    tiled: &'a TiledGraph,
    config: &'a GraphRConfig,
    spec: FixedSpec,
    sink: &Arc<TraceSink>,
) -> Box<dyn ScanEngine + 'a> {
    let mut engine: Box<dyn ScanEngine + 'a> = match kind {
        "serial" => Box::new(StreamingExecutor::new(tiled, config, spec)),
        "threads3" => Box::new(StreamingExecutor::new(tiled, config, spec).with_threads(3)),
        "cluster1" => Box::new(ClusterExecutor::new(
            tiled,
            config,
            spec,
            MultiNodeConfig::pcie_cluster(1),
        )),
        "cluster4-degree" => Box::new(ClusterExecutor::new(
            tiled,
            config,
            spec,
            MultiNodeConfig::pcie_cluster(4).with_owner(OwnerPolicy::DegreeWeighted),
        )),
        _ => unreachable!("unknown engine {kind}"),
    };
    engine.set_trace(Some(TraceHandle::new(Arc::clone(sink))));
    engine
}

fn render_values(out: &mut String, label: &str, values: &[f64]) {
    let _ = write!(out, "{label}");
    for v in values {
        let _ = write!(out, " {:016x}", v.to_bits());
    }
    out.push('\n');
}

fn render_run(out: &mut String, metrics: &Metrics, sink: &TraceSink) {
    render_metrics(out, metrics);
    for line in sink.to_jsonl().lines() {
        out.push_str(&strip_host_fields(line));
        out.push('\n');
    }
}

/// The bipartite ratings view of `graph` for CF: edge `(s, d)` becomes
/// user `s mod users` rating item `d mod items`, so parallel edges stay
/// parallel ratings.
fn ratings_view(graph: &EdgeList) -> (EdgeList, usize, usize) {
    let n = graph.num_vertices();
    let users = n / 2;
    let items = n - users;
    let edges = graph
        .iter()
        .map(|e| {
            Edge::new(
                e.src % users as u32,
                (users + e.dst as usize % items) as u32,
                e.weight,
            )
        })
        .collect();
    let ratings = EdgeList::from_edges(n, edges).expect("projection stays in range");
    (ratings, users, items)
}

fn render_graph(out: &mut String, graph_name: &str, graph: &EdgeList) {
    let n = graph.num_vertices();
    let pagerank = PageRankOptions {
        max_iterations: 4,
        ..PageRankOptions::default()
    };
    // Zeros in the input exercise the kernels' zero-input skip.
    let spmv = SpmvOptions {
        input: Some((0..n).map(|v| (v % 7) as f64 * 0.75).collect()),
        ..SpmvOptions::default()
    };
    let cf = CfOptions {
        features: 3,
        epochs: 2,
        ..CfOptions::default()
    };
    let (ratings, users, items) = ratings_view(graph);
    for config_name in CONFIGS {
        let config = config(config_name);
        let cf_config = cf_config_for(&config).expect("CF geometry");
        let tiled = TiledGraph::preprocess(graph, &config).expect("graph tiles");
        let tiled_r = TiledGraph::preprocess(&ratings, &cf_config).expect("ratings tile");
        let tiled_t =
            TiledGraph::preprocess(&ratings.transposed(), &cf_config).expect("transpose tiles");
        for engine in ENGINES {
            let _ = writeln!(out, "== pagerank {graph_name} {config_name} {engine}");
            let sink = TraceSink::shared();
            let mut exec = make_engine(engine, &tiled, &config, pagerank.matrix_spec, &sink);
            let run = run_pagerank_with(graph, exec.as_mut(), &pagerank).expect("pagerank runs");
            let _ = writeln!(out, "converged {}", run.converged);
            render_values(out, "ranks", &run.values);
            render_run(out, &run.metrics, &sink);

            let _ = writeln!(out, "== spmv {graph_name} {config_name} {engine}");
            let sink = TraceSink::shared();
            let mut exec = make_engine(engine, &tiled, &config, spmv.matrix_spec, &sink);
            let run = run_spmv_with(graph, exec.as_mut(), &spmv).expect("spmv runs");
            render_values(out, "values", &run.values);
            render_run(out, &run.metrics, &sink);

            let _ = writeln!(out, "== cf {graph_name} {config_name} {engine}");
            let sink = TraceSink::shared();
            let run = run_cf_with(&ratings, users, items, &cf_config, &cf, &mut |matrix| {
                let tiles = match matrix {
                    CfMatrix::Ratings => &tiled_r,
                    CfMatrix::Transposed => &tiled_t,
                };
                make_engine(engine, tiles, &cf_config, cf.spec, &sink)
            })
            .expect("cf runs");
            render_values(out, "rmse", &run.rmse_history);
            render_run(out, &run.metrics, &sink);
        }
    }
}

/// The whole matrix, rendered.
fn render() -> String {
    let rmat = Rmat::new(60, 240).seed(7).max_weight(9).generate();
    let mut cells: Vec<(u32, u32)> = rmat.iter().map(|e| (e.src, e.dst)).collect();
    cells.sort_unstable();
    assert!(
        cells.windows(2).any(|w| w[0] == w[1]),
        "the R-MAT must carry parallel edges"
    );
    let grid = grid(7, 9);
    assert_ne!(
        grid.num_vertices() % config("column-major").crossbar_size,
        0,
        "the grid must leave a partial crossbar"
    );
    let mut out = String::new();
    render_graph(&mut out, "rmat", &rmat);
    render_graph(&mut out, "grid7x9", &grid);
    out
}

/// PageRank, SpMV and CF results, `Metrics` and traces are
/// byte-identical to the committed fixture.
#[test]
fn mac_runs_match_the_committed_fixture() {
    let rendered = render();
    if rendered != FIXTURE {
        let first_diff = rendered
            .lines()
            .zip(FIXTURE.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| rendered.lines().count().min(FIXTURE.lines().count()));
        panic!(
            "MAC accounting drifted from the fixture at line {}:\n  got:      {:?}\n  expected: {:?}\n({} rendered lines vs {} fixture lines)",
            first_diff + 1,
            rendered.lines().nth(first_diff),
            FIXTURE.lines().nth(first_diff),
            rendered.lines().count(),
            FIXTURE.lines().count(),
        );
    }
}
