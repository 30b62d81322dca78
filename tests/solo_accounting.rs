//! Regression net for solo (single-query) BFS, SSSP and WCC accounting.
//!
//! Every run below is rendered as text — the result vector, every
//! simulated [`Metrics`] field (floating-point values as their exact bit
//! patterns) and the trace JSONL with its host-measured `host_*` fields
//! stripped — and byte-compared against a committed fixture. The matrix
//! covers a weighted R-MAT and a grid whose vertex count is not a
//! multiple of the crossbar size, on the serial engine, the parallel
//! engine, and one- and four-node clusters (degree-weighted ownership),
//! each in-core and under the pipelined segment-granular NVMe model.
//!
//! The fixture pins the solo accounting independently of how the drivers
//! are implemented: a changed byte means the program changed what it
//! computes or charges, and the program is what gets fixed.

mod common;

use std::fmt::Write as _;
use std::sync::Arc;

use graphr_repro::core::exec::{ScanEngine, StreamingExecutor};
use graphr_repro::core::multinode::{ClusterExecutor, MultiNodeConfig, OwnerPolicy};
use graphr_repro::core::outofcore::DiskModel;
use graphr_repro::core::sim::{
    run_bfs_with, run_sssp_with, run_wcc_with, symmetrised, TraversalOptions,
};
use graphr_repro::core::trace::{TraceHandle, TraceSink};
use graphr_repro::core::{GraphRConfig, TiledGraph};
use graphr_repro::graph::generators::rmat::Rmat;
use graphr_repro::graph::generators::structured::grid;
use graphr_repro::graph::EdgeList;
use graphr_repro::runtime::ParallelExecutor;
use graphr_repro::units::FixedSpec;

use common::{render_metrics, strip_host_fields};

const FIXTURE: &str = include_str!("fixtures/solo_accounting.txt");

/// Crossbar size 4 so a 7×9 grid (63 vertices) leaves a partial strip.
fn config() -> GraphRConfig {
    GraphRConfig::builder()
        .crossbar_size(4)
        .crossbars_per_ge(8)
        .num_ges(2)
        .build()
        .expect("valid test geometry")
}

const ENGINES: [&str; 4] = ["serial", "parallel", "cluster1", "cluster4-degree"];
const DISKS: [&str; 2] = ["none", "nvme-seg-pipe"];

fn make_engine<'a>(
    kind: &str,
    tiled: &'a TiledGraph,
    config: &'a GraphRConfig,
    spec: FixedSpec,
) -> Box<dyn ScanEngine + 'a> {
    match kind {
        "serial" => Box::new(StreamingExecutor::new(tiled, config, spec)),
        "parallel" => Box::new(ParallelExecutor::with_threads(tiled, config, spec, 3)),
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
    }
}

fn render_graph(out: &mut String, graph_name: &str, graph: &EdgeList, sym_tiled: &TiledGraph) {
    let config = config();
    let tiled = TiledGraph::preprocess(graph, &config).expect("graph tiles");
    let spec = FixedSpec::new(16, 0).expect("Q16.0 is valid");
    let opts = TraversalOptions {
        source: 1,
        ..TraversalOptions::default()
    };
    for app in ["bfs", "sssp", "wcc"] {
        for engine in ENGINES {
            for disk in DISKS {
                let tiles = if app == "wcc" { sym_tiled } else { &tiled };
                let mut exec = make_engine(engine, tiles, &config, spec);
                exec.set_disk(DiskModel::by_name(disk));
                let sink = TraceSink::shared();
                exec.set_trace(Some(TraceHandle::new(Arc::clone(&sink))));
                let _ = writeln!(out, "== {app} {graph_name} {engine} disk={disk}");
                let metrics = match app {
                    "bfs" | "sssp" => {
                        let run = if app == "bfs" {
                            run_bfs_with(graph, exec.as_mut(), &opts)
                        } else {
                            run_sssp_with(graph, exec.as_mut(), &opts)
                        }
                        .expect("traversal runs");
                        let _ = writeln!(out, "distances {:?}", run.distances);
                        run.metrics
                    }
                    _ => {
                        let run = run_wcc_with(graph, exec.as_mut()).expect("wcc runs");
                        let _ = writeln!(
                            out,
                            "labels {:?} components {}",
                            run.labels, run.num_components
                        );
                        run.metrics
                    }
                };
                render_metrics(out, &metrics);
                for line in sink.to_jsonl().lines() {
                    out.push_str(&strip_host_fields(line));
                    out.push('\n');
                }
            }
        }
    }
}

/// The whole matrix, rendered.
fn render() -> String {
    let config = config();
    let graphs = [
        ("rmat", Rmat::new(60, 240).seed(7).max_weight(9).generate()),
        ("grid7x9", grid(7, 9)),
    ];
    assert_ne!(
        graphs[1].1.num_vertices() % config.crossbar_size,
        0,
        "the grid must leave a partial crossbar"
    );
    let mut out = String::new();
    for (name, graph) in &graphs {
        let sym = symmetrised(graph);
        let sym_tiled = TiledGraph::preprocess(&sym, &config).expect("symmetrised tiles");
        render_graph(&mut out, name, graph, &sym_tiled);
    }
    out
}

#[test]
fn host_fields_are_stripped_from_trace_lines() {
    assert_eq!(
        strip_host_fields(r#"{"a":1,"host_plan_ns":12.5,"b":{"c":2,"host_time_ns":3}}"#),
        r#"{"a":1,"b":{"c":2}}"#
    );
}

/// Solo BFS/SSSP/WCC results, `Metrics` and traces are byte-identical
/// to the committed fixture.
#[test]
fn solo_runs_match_the_committed_fixture() {
    let rendered = render();
    if rendered != FIXTURE {
        let first_diff = rendered
            .lines()
            .zip(FIXTURE.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| rendered.lines().count().min(FIXTURE.lines().count()));
        panic!(
            "solo accounting drifted from the fixture at line {}:\n  got:      {:?}\n  expected: {:?}\n({} rendered lines vs {} fixture lines)",
            first_diff + 1,
            rendered.lines().nth(first_diff),
            FIXTURE.lines().nth(first_diff),
            rendered.lines().count(),
            FIXTURE.lines().count(),
        );
    }
}
