//! Cross-stack correctness: the gold references, the CPU software
//! substrate, and the GraphR accelerator simulation (in both fidelities)
//! must agree on every evaluated application — the reproduction's central
//! functional claim.

use graphr_repro::core::exec::StreamingExecutor;
use graphr_repro::core::sim::{
    run_bfs, run_cf, run_pagerank, run_spmv, run_sssp, run_sssp_lanes, CfOptions,
    LaneTraversalOptions, PageRankOptions, SpmvOptions, TraversalOptions,
};
use graphr_repro::core::{Fidelity, GraphRConfig, Metrics, TiledGraph};
use graphr_repro::graph::algorithms::bfs::bfs;
use graphr_repro::graph::algorithms::pagerank::{pagerank, PageRankParams};
use graphr_repro::graph::algorithms::spmv::spmv_vertex_program;
use graphr_repro::graph::algorithms::sssp::{bellman_ford, dijkstra};
use graphr_repro::graph::generators::bipartite::RatingMatrix;
use graphr_repro::graph::generators::rmat::Rmat;
use graphr_repro::graph::EdgeList;
use graphr_repro::gridgraph::engine::{CfSettings, GridEngine, PageRankSettings};

fn test_graphs() -> Vec<(&'static str, EdgeList)> {
    vec![
        (
            "rmat-small",
            Rmat::new(120, 700)
                .seed(11)
                .max_weight(16)
                .self_loops(false)
                .generate(),
        ),
        (
            "rmat-skewed",
            Rmat::new(300, 1500)
                .seed(23)
                .max_weight(32)
                .self_loops(false)
                .generate(),
        ),
        (
            "uniform",
            Rmat::new(200, 900)
                .skew(0.25, 0.25, 0.25)
                .seed(5)
                .max_weight(8)
                .generate(),
        ),
    ]
}

fn config(fidelity: Fidelity) -> GraphRConfig {
    GraphRConfig::builder()
        .crossbar_size(8)
        .crossbars_per_ge(16)
        .num_ges(4)
        .fidelity(fidelity)
        .build()
        .expect("valid test configuration")
}

#[test]
fn bfs_exact_across_all_stacks() {
    for (name, g) in test_graphs() {
        let csr = g.to_csr();
        let gold: Vec<Option<f64>> = bfs(&csr, 0)
            .levels
            .iter()
            .map(|l| l.map(f64::from))
            .collect();
        let sw = GridEngine::new(&g, 4).bfs(0);
        assert_eq!(sw.distances, gold, "gridgraph BFS diverged on {name}");
        for fidelity in [Fidelity::Fast, Fidelity::Analog] {
            let hw =
                run_bfs(&g, &config(fidelity), &TraversalOptions::default()).expect("valid run");
            assert_eq!(
                hw.distances, gold,
                "GraphR {fidelity:?} BFS diverged on {name}"
            );
        }
    }
}

#[test]
fn sssp_exact_across_all_stacks() {
    for (name, g) in test_graphs() {
        let csr = g.to_csr();
        let gold = dijkstra(&csr, 0);
        let also_gold = bellman_ford(&csr, 0);
        assert_eq!(gold.distances, also_gold.distances, "gold oracles disagree");
        let sw = GridEngine::new(&g, 3).sssp(0);
        assert_eq!(
            sw.distances, gold.distances,
            "gridgraph SSSP diverged on {name}"
        );
        for fidelity in [Fidelity::Fast, Fidelity::Analog] {
            let hw =
                run_sssp(&g, &config(fidelity), &TraversalOptions::default()).expect("valid run");
            assert_eq!(
                hw.distances, gold.distances,
                "GraphR {fidelity:?} SSSP diverged on {name}"
            );
        }
    }
}

#[test]
fn pagerank_agrees_within_quantisation() {
    for (name, g) in test_graphs() {
        let gold = pagerank(
            &g.to_csr(),
            &PageRankParams {
                max_iterations: 20,
                tolerance: 0.0,
                ..PageRankParams::default()
            },
        );
        let sw = GridEngine::new(&g, 4).pagerank(&PageRankSettings {
            max_iterations: 20,
            tolerance: 0.0,
            ..PageRankSettings::default()
        });
        for (a, b) in sw.values.iter().zip(&gold.ranks) {
            assert!((a - b).abs() < 1e-12, "gridgraph PR diverged on {name}");
        }
        let hw = run_pagerank(
            &g,
            &config(Fidelity::Fast),
            &PageRankOptions {
                max_iterations: 20,
                tolerance: 0.0,
                ..PageRankOptions::default()
            },
        )
        .expect("valid run");
        // Quantised ranks: mass approximately preserved, per-vertex error
        // bounded by the register resolution (1/64 on n-scaled ranks).
        let mass: f64 = hw.values.iter().sum();
        assert!((mass - 1.0).abs() < 0.05, "mass {mass} drifted on {name}");
        let n = g.num_vertices() as f64;
        for (v, (a, b)) in hw.values.iter().zip(&gold.ranks).enumerate() {
            let err_scaled = (a - b).abs() * n;
            assert!(
                err_scaled < 0.5,
                "vertex {v} scaled error {err_scaled} too large on {name}"
            );
        }
    }
}

#[test]
fn spmv_matches_quantised_gold() {
    for (name, g) in test_graphs() {
        let opts = SpmvOptions::default();
        let hw = run_spmv(&g, &config(Fidelity::Fast), &opts).expect("valid run");
        let gold = spmv_vertex_program(&g.to_csr(), &vec![1.0; g.num_vertices()]);
        let sw = GridEngine::new(&g, 4).spmv(None);
        for ((a, b), c) in hw.values.iter().zip(&gold).zip(&sw.values) {
            assert!((b - c).abs() < 1e-9, "software engines disagree on {name}");
            // Hardware: Q8.8 on matrix values and outputs.
            let tolerance = 0.02 + b.abs() * 0.02;
            assert!(
                (a - b).abs() < tolerance || *b > 127.0,
                "spmv {a} vs {b} on {name}"
            );
        }
    }
}

#[test]
fn cf_reduces_rmse_on_both_engines() {
    let m = RatingMatrix::new(80, 30, 2000).seed(9).generate();
    let sw = GridEngine::new(m.graph(), 4).cf(
        80,
        30,
        &CfSettings {
            features: 8,
            epochs: 6,
            ..CfSettings::default()
        },
    );
    assert!(
        sw.rmse_history.last().unwrap() < &(sw.rmse_history[0] * 0.9),
        "software CF failed to learn: {:?}",
        sw.rmse_history
    );
    let hw = run_cf(
        m.graph(),
        80,
        30,
        &config(Fidelity::Fast),
        &CfOptions {
            features: 8,
            epochs: 6,
            ..CfOptions::default()
        },
    )
    .expect("valid run");
    assert!(
        hw.rmse_history.last().unwrap() < &hw.rmse_history[0],
        "accelerator CF failed to learn: {:?}",
        hw.rmse_history
    );
}

#[test]
fn analog_and_fast_fidelities_agree_end_to_end() {
    fn assert_same_accounting(what: &str, fast: &Metrics, analog: &Metrics) {
        assert_eq!(fast.events, analog.events, "{what}: events");
        assert_eq!(fast.elapsed, analog.elapsed, "{what}: elapsed");
        assert_eq!(fast.energy, analog.energy, "{what}: energy");
    }
    fn assert_close(what: &str, fast: &[f64], analog: &[f64]) {
        assert_eq!(fast.len(), analog.len(), "{what}: lengths");
        for (a, b) in fast.iter().zip(analog) {
            assert!(
                (a - b).abs() < 1e-12,
                "{what}: fidelities diverged: {a} vs {b}"
            );
        }
    }

    let g = Rmat::new(150, 800)
        .seed(3)
        .max_weight(8)
        .self_loops(false)
        .generate();
    let opts = PageRankOptions {
        max_iterations: 10,
        tolerance: 0.0,
        ..PageRankOptions::default()
    };
    let fast = run_pagerank(&g, &config(Fidelity::Fast), &opts).expect("valid run");
    let analog = run_pagerank(&g, &config(Fidelity::Analog), &opts).expect("valid run");
    assert_close("pagerank", &fast.values, &analog.values);
    assert_same_accounting("pagerank", &fast.metrics, &analog.metrics);

    // A dense multigraph with self-loops: many cells hold several parallel
    // edges, merged by Sum for MAC scans and by Min for add-op scans.
    let multi = Rmat::new(40, 700).seed(8).max_weight(6).generate();
    let mut cells: Vec<(u32, u32)> = multi.iter().map(|e| (e.src, e.dst)).collect();
    cells.sort_unstable();
    assert!(cells.windows(2).filter(|w| w[0] == w[1]).count() > 50);

    // One-input SpMV and a 3-input scan (as CF runs per feature) over
    // the duplicate cells.
    let spmv = SpmvOptions {
        input: Some((0..40).map(|v| f64::from(v % 5) * 0.5).collect()),
        ..SpmvOptions::default()
    };
    let fast = run_spmv(&multi, &config(Fidelity::Fast), &spmv).expect("valid run");
    let analog = run_spmv(&multi, &config(Fidelity::Analog), &spmv).expect("valid run");
    assert_close("spmv", &fast.values, &analog.values);
    assert_same_accounting("spmv", &fast.metrics, &analog.metrics);

    let inputs: Vec<Vec<f64>> = (0..3)
        .map(|k| (0..40).map(|v| f64::from((v + k) % 4) * 0.25).collect())
        .collect();
    let input_refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
    let spec = SpmvOptions::default().matrix_spec;
    let scan = |fidelity| {
        let cfg = config(fidelity);
        let tiled = TiledGraph::preprocess(&multi, &cfg).expect("valid geometry");
        let mut exec = StreamingExecutor::new(&tiled, &cfg, spec);
        let y = exec.scan_mac(&|w, _, _| f64::from(w) * 0.125, &input_refs);
        (y, exec.into_metrics())
    };
    let (fast_y, fast_m) = scan(Fidelity::Fast);
    let (analog_y, analog_m) = scan(Fidelity::Analog);
    for (f, a) in fast_y.iter().zip(&analog_y) {
        assert_close("3-input scan", f, a);
    }
    assert_same_accounting("3-input scan", &fast_m, &analog_m);

    // SSSP solo and as a 3-lane fused wave, on the parallel-edge graph.
    let traversal = TraversalOptions {
        source: 1,
        ..TraversalOptions::default()
    };
    let fast = run_sssp(&multi, &config(Fidelity::Fast), &traversal).expect("valid run");
    let analog = run_sssp(&multi, &config(Fidelity::Analog), &traversal).expect("valid run");
    assert_eq!(fast.distances, analog.distances, "sssp distances");
    assert_same_accounting("sssp", &fast.metrics, &analog.metrics);

    let lanes = LaneTraversalOptions::new(vec![1, 7, 30]);
    let fast = run_sssp_lanes(&multi, &config(Fidelity::Fast), &lanes).expect("valid run");
    let analog = run_sssp_lanes(&multi, &config(Fidelity::Analog), &lanes).expect("valid run");
    assert_eq!(fast.distances, analog.distances, "fused sssp distances");
    assert_same_accounting("fused sssp", &fast.metrics, &analog.metrics);
}

#[test]
fn multigraph_parallel_edges_handled_consistently() {
    // Duplicate edges: MAC algorithms sum them, add-op algorithms keep the
    // cheapest — matching what the gold references compute.
    let mut g = EdgeList::new(4);
    for (s, d, w) in [(0u32, 1u32, 5.0f32), (0, 1, 2.0), (1, 2, 3.0), (2, 3, 1.0)] {
        g.add_edge(graphr_repro::graph::Edge::new(s, d, w)).unwrap();
    }
    let gold = dijkstra(&g.to_csr(), 0);
    let hw =
        run_sssp(&g, &config(Fidelity::Fast), &TraversalOptions::default()).expect("valid run");
    assert_eq!(hw.distances, gold.distances);
    assert_eq!(hw.distances[1], Some(2.0), "min parallel edge must win");

    let gold_spmv = spmv_vertex_program(&g.to_csr(), &[1.0; 4]);
    let hw_spmv =
        run_spmv(&g, &config(Fidelity::Fast), &SpmvOptions::default()).expect("valid run");
    for (a, b) in hw_spmv.values.iter().zip(&gold_spmv) {
        assert!((a - b).abs() < 0.05, "{a} vs {b}");
    }
}

#[test]
fn multi_block_out_of_core_execution_is_correct() {
    // Force the out-of-core path: a block size far below the vertex count
    // splits the matrix into a grid of blocks processed in the §3.4
    // column-major disk order. Results must be identical to single-block.
    let g = Rmat::new(700, 4000)
        .seed(31)
        .max_weight(8)
        .self_loops(false)
        .generate();
    let small_node = GraphRConfig::builder()
        .crossbar_size(4)
        .crossbars_per_ge(8)
        .num_ges(2)
        .block_vertices(128) // strip width 16 → 128 is a valid multiple
        .build()
        .expect("valid");
    let tiled = graphr_repro::core::TiledGraph::preprocess(&g, &small_node).expect("tile");
    assert!(tiled.blocks().len() >= 25, "must exercise many blocks");

    // BFS and SSSP stay exact across the block boundary handling.
    let gold = dijkstra(&g.to_csr(), 0);
    let hw = run_sssp(&g, &small_node, &TraversalOptions::default()).expect("run");
    assert_eq!(hw.distances, gold.distances);

    // PageRank matches the same algorithm on a single-block node.
    let single = GraphRConfig::builder()
        .crossbar_size(4)
        .crossbars_per_ge(8)
        .num_ges(2)
        .build()
        .expect("valid");
    let opts = PageRankOptions {
        max_iterations: 8,
        tolerance: 0.0,
        ..PageRankOptions::default()
    };
    let multi = run_pagerank(&g, &small_node, &opts).expect("run");
    let one = run_pagerank(&g, &single, &opts).expect("run");
    assert_eq!(multi.values, one.values, "blocking must not change results");
}

#[test]
fn wcc_extension_matches_union_find_across_stacks() {
    use graphr_repro::core::sim::run_wcc;
    use graphr_repro::graph::algorithms::wcc::wcc;
    for (name, g) in test_graphs() {
        let gold = wcc(&g);
        let hw = run_wcc(&g, &config(Fidelity::Fast)).expect("run");
        assert_eq!(hw.labels, gold.labels, "WCC labels diverged on {name}");
        assert_eq!(hw.num_components, gold.num_components);
    }
}
