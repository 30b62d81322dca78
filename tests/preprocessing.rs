//! Integration tests of the §3.4 preprocessing through the public API:
//! the Figure 12 worked geometry, edge-conservation round trips, and the
//! ordering properties the streaming-apply executor relies on — among
//! them the entry order the fast-fidelity scan kernels consume directly.

use graphr_repro::core::preprocess::tiler::{Block, Strip};
use graphr_repro::core::preprocess::{Subgraph, Tile, TileEntry, TileOrder};
use graphr_repro::core::{GraphRConfig, TiledGraph};
use graphr_repro::graph::generators::rmat::Rmat;
use graphr_repro::graph::generators::structured::figure5;
use graphr_repro::graph::{Edge, EdgeList};
use graphr_repro::units::{BitSlicer, FixedSpec};
use proptest::prelude::*;

/// The Figure 12 node: C=4, N=2, G=2, B=32 with single-slice 4-bit data.
fn figure12_config() -> GraphRConfig {
    GraphRConfig::builder()
        .crossbar_size(4)
        .crossbars_per_ge(2)
        .num_ges(2)
        .spec(FixedSpec::new(5, 0).expect("valid spec"))
        .slicer(BitSlicer::new(4, 1).expect("valid slicer"))
        .block_vertices(32)
        .build()
        .expect("figure-12 geometry is valid")
}

#[test]
fn figure12_worked_example_counts() {
    // 64 vertices → 2×2 blocks; each block: 2 strips × 8 chunks = 16
    // subgraphs of 4×16 positions — exactly the paper's walkthrough.
    let order = TileOrder::new(64, 4, 16, 32).expect("valid geometry");
    assert_eq!(order.num_blocks(), 4);
    assert_eq!(order.subgraphs_per_block(), 16);
    assert_eq!(order.positions_per_subgraph(), 64);
    // Block traversal order B(0,0)→B(1,0)→B(0,1)→B(1,1).
    assert!(order.global_id(0, 0) < order.global_id(32, 0));
    assert!(order.global_id(32, 0) < order.global_id(0, 32));
    assert!(order.global_id(0, 32) < order.global_id(32, 32));
}

#[test]
fn figure5_graph_preprocesses_losslessly() {
    let g = figure5();
    let tiled = TiledGraph::preprocess(&g, &figure12_config()).expect("valid geometry");
    assert_eq!(tiled.total_edges(), 25);
    // Reconstruct every edge from tile coordinates.
    let mut rebuilt = Vec::new();
    for block in tiled.blocks() {
        for strip in &block.strips {
            for sg in &strip.subgraphs {
                let src0 = tiled.subgraph_src_start(block, sg);
                for tile in &sg.tiles {
                    for e in &tile.entries {
                        rebuilt.push((
                            (src0 + e.row as usize) as u32,
                            tiled.tile_dst(block, strip, tile, e.col) as u32,
                        ));
                    }
                }
            }
        }
    }
    rebuilt.sort_unstable();
    let mut expected: Vec<(u32, u32)> = g.iter().map(|e| (e.src, e.dst)).collect();
    expected.sort_unstable();
    assert_eq!(rebuilt, expected);
}

#[test]
fn default_node_tiles_real_sized_graph() {
    let g = Rmat::new(10_000, 80_000).seed(1).generate();
    let config = GraphRConfig::default();
    let tiled = TiledGraph::preprocess(&g, &config).expect("valid geometry");
    assert_eq!(tiled.total_edges(), 80_000);
    assert!(tiled.nonempty_tiles() <= 80_000);
    assert!(tiled.nonempty_subgraphs() <= tiled.total_subgraph_slots());
    // 10 K vertices pad to 3 strips of the 4096-wide window.
    assert_eq!(tiled.order().padded_vertices(), 12288);
}

#[test]
fn ordering_is_disk_sequential() {
    // Walking the tiled structure in executor order must visit edges in
    // nondecreasing global-order-ID — the §3.4 guarantee that block loads
    // are strictly sequential.
    let g = Rmat::new(80, 500).seed(4).generate();
    let config = figure12_config();
    let tiled = TiledGraph::preprocess(&g, &config).expect("valid geometry");
    let order = *tiled.order();
    let mut last = 0u64;
    for block in tiled.blocks() {
        for strip in &block.strips {
            for sg in &strip.subgraphs {
                let src0 = tiled.subgraph_src_start(block, sg);
                // Per subgraph, take the smallest-ID edge; across the walk
                // those must be nondecreasing.
                let min_id = sg
                    .tiles
                    .iter()
                    .flat_map(|t| {
                        t.entries.iter().map(|e| {
                            order.global_id(
                                src0 + e.row as usize,
                                tiled.tile_dst(block, strip, t, e.col),
                            )
                        })
                    })
                    .min()
                    .expect("nonempty subgraph");
                assert!(min_id >= last, "subgraph order regressed");
                last = min_id;
            }
        }
    }
}

#[test]
fn empty_graph_tiles_and_scans() {
    // No edges at all: the tiler must produce a consistent (all-empty)
    // structure whose strip units still cover the destination axis, and a
    // scan over it must return zeros without charging any subgraph work.
    let g = graphr_repro::graph::EdgeList::new(10);
    let config = figure12_config();
    let tiled = TiledGraph::preprocess(&g, &config).expect("empty graph tiles");
    assert_eq!(tiled.total_edges(), 0);
    assert_eq!(tiled.nonempty_subgraphs(), 0);
    let units = graphr_repro::core::exec::strip_units(&tiled);
    assert_eq!(units.iter().map(|u| u.dst_len).sum::<usize>(), 10);
    let mut exec = graphr_repro::core::exec::StreamingExecutor::new(
        &tiled,
        &config,
        FixedSpec::new(16, 8).expect("valid spec"),
    );
    let x = vec![1.0; 10];
    let y = exec.scan_mac(&|w, _, _| f64::from(w), &[&x]);
    assert_eq!(y[0], vec![0.0; 10]);
    assert_eq!(exec.metrics().events.subgraphs_processed, 0);
}

#[test]
fn single_vertex_graph_tiles_and_scans() {
    // One vertex, optionally a self-loop: the smallest possible strip.
    let mut g = graphr_repro::graph::EdgeList::new(1);
    g.add_edge(graphr_repro::graph::Edge::new(0, 0, 3.0))
        .expect("in range");
    let config = figure12_config();
    let tiled = TiledGraph::preprocess(&g, &config).expect("single vertex tiles");
    assert_eq!(tiled.total_edges(), 1);
    assert_eq!(tiled.nonempty_subgraphs(), 1);
    let units = graphr_repro::core::exec::strip_units(&tiled);
    // Only the first unit covers a real vertex; padding units carry none.
    assert_eq!(units[0].dst_len, 1);
    assert!(units[1..].iter().all(|u| u.dst_len == 0));
    let mut exec = graphr_repro::core::exec::StreamingExecutor::new(
        &tiled,
        &config,
        FixedSpec::new(16, 8).expect("valid spec"),
    );
    let y = exec.scan_mac(&|w, _, _| f64::from(w), &[&[2.0][..]]);
    assert_eq!(y[0], vec![6.0]);
}

#[test]
fn non_multiple_strip_width_boundaries_hold() {
    // Vertex counts straddling the strip width (16 here): the final
    // partial strip is exactly where the runtime's sharding boundaries
    // sit, so the scan must stay lossless there.
    let config = figure12_config();
    for n in [15usize, 17, 31, 33, 47] {
        let g = Rmat::new(n, 6 * n).seed(n as u64).max_weight(5).generate();
        let tiled = TiledGraph::preprocess(&g, &config).expect("valid geometry");
        let units = graphr_repro::core::exec::strip_units(&tiled);
        // Units partition [0, n): disjoint, ordered, complete.
        let mut next = 0usize;
        for u in &units {
            if u.dst_len > 0 {
                assert_eq!(u.dst_start, next, "gap before unit at n={n}");
                next = u.dst_start + u.dst_len;
            }
        }
        assert_eq!(next, n, "units must cover all {n} vertices");
        // A MAC scan equals the gold SpMV despite the partial strip.
        let mut exec = graphr_repro::core::exec::StreamingExecutor::new(
            &tiled,
            &config,
            FixedSpec::new(16, 8).expect("valid spec"),
        );
        let x: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
        let y = exec.scan_mac(&|w, _, _| f64::from(w), &[&x]);
        let gold = graphr_repro::graph::algorithms::spmv::spmv(&g.to_csr(), &x);
        for (a, b) in y[0].iter().zip(&gold) {
            assert!((a - b).abs() < 1e-6, "n={n}: {a} vs {b}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn preprocessing_conserves_edges(
        n in 1usize..200,
        m in 0usize..600,
        seed in 0u64..25,
    ) {
        let g = Rmat::new(n, m).seed(seed).generate();
        let tiled = TiledGraph::preprocess(&g, &figure12_config()).unwrap();
        let total: usize = tiled
            .blocks()
            .iter()
            .flat_map(|b| &b.strips)
            .flat_map(|s| &s.subgraphs)
            .flat_map(|sg| &sg.tiles)
            .map(|t| t.entries.len())
            .sum();
        prop_assert_eq!(total, m);
    }

    #[test]
    fn padding_never_creates_edges(extra in 1usize..40) {
        // A graph whose vertex count is deliberately not a multiple of
        // anything: padding must not invent or lose edges.
        let n = 32 + extra;
        let g = Rmat::new(n, 100).seed(extra as u64).generate();
        let tiled = TiledGraph::preprocess(&g, &figure12_config()).unwrap();
        prop_assert_eq!(tiled.total_edges(), 100);
        prop_assert!(tiled.order().padded_vertices() >= n);
        prop_assert_eq!(tiled.order().padded_vertices() % 32, 0);
    }
}

/// A straightforward tiler kept as the reference: a stable sort by
/// global order ID, then a linear search for each edge's tile and a
/// final `(ge, slot)` sort. Returns the blocks and the nonempty subgraph
/// and tile counts.
fn reference_tiling(graph: &EdgeList, config: &GraphRConfig) -> (Vec<Block>, usize, usize) {
    let c = config.crossbar_size;
    let block_size = config.effective_block_vertices(graph.num_vertices());
    let order = TileOrder::new(
        graph.num_vertices().max(1),
        c,
        config.strip_width(),
        block_size,
    )
    .expect("valid geometry");
    let edges = graph.edges();
    let mut sorted: Vec<usize> = (0..edges.len()).collect();
    sorted.sort_by_key(|&i| order.global_id(edges[i].src as usize, edges[i].dst as usize));
    let per_side = order.blocks_per_side();
    let mut blocks: Vec<Block> = (0..order.num_blocks())
        .map(|bidx| Block {
            bi: (bidx % per_side) as u32,
            bj: (bidx / per_side) as u32,
            strips: (0..order.strips_per_block())
                .map(|s| Strip {
                    strip: s as u32,
                    subgraphs: Vec::new(),
                })
                .collect(),
        })
        .collect();
    let tiles_per_ge = config.tiles_per_ge();
    let (mut subgraphs, mut tiles) = (0, 0);
    for i in sorted {
        let e = &edges[i];
        let co = order.coords(e.src as usize, e.dst as usize);
        let strip = &mut blocks[co.block as usize].strips[co.strip as usize];
        if strip
            .subgraphs
            .last()
            .is_none_or(|sg| u64::from(sg.chunk) != co.chunk)
        {
            strip.subgraphs.push(Subgraph {
                chunk: co.chunk as u32,
                tiles: Vec::new(),
                edges: 0,
            });
            subgraphs += 1;
        }
        let sg = strip.subgraphs.last_mut().expect("just pushed");
        sg.edges += 1;
        let tile_index = co.sub_col as usize / c;
        let (ge, slot) = (
            (tile_index / tiles_per_ge) as u32,
            (tile_index % tiles_per_ge) as u32,
        );
        let entry = TileEntry {
            row: co.sub_row as u8,
            col: (co.sub_col as usize % c) as u8,
            weight: e.weight,
        };
        match sg.tiles.iter_mut().find(|t| t.ge == ge && t.slot == slot) {
            Some(t) => t.entries.push(entry),
            None => {
                sg.tiles.push(Tile {
                    ge,
                    slot,
                    entries: vec![entry],
                });
                tiles += 1;
            }
        }
    }
    for sg in blocks
        .iter_mut()
        .flat_map(|b| &mut b.strips)
        .flat_map(|s| &mut s.subgraphs)
    {
        sg.tiles.sort_by_key(|t| (t.ge, t.slot));
    }
    (blocks, subgraphs, tiles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On multigraphs with parallel edges and self-loops, the tiler equals
    /// the reference tiler, and every tile holds its entries
    /// `(col, row)`-ascending with each cell's parallel edges adjacent and
    /// in input order; tiles are `(ge, slot)`-ascending.
    #[test]
    fn tiler_matches_reference_and_orders_entries_for_the_kernels(
        n in 1usize..80,
        raw in proptest::collection::vec((0u32..10_000, 0u32..10_000, 1u32..6), 0..400),
        doubled in 0usize..4,
    ) {
        let n32 = n as u32;
        let mut edges = Vec::new();
        for (k, &(a, b, w)) in raw.iter().enumerate() {
            // Every few edges are repeated with another weight, so parallel
            // edges are common even on larger vertex counts.
            let (src, dst) = (a % n32, if k % 5 == 0 { a % n32 } else { b % n32 });
            edges.push(Edge::new(src, dst, w as f32));
            if k % 4 == doubled {
                edges.push(Edge::new(src, dst, (w + 3) as f32));
            }
        }
        // Input-order tag per edge: weights are made unique so the
        // in-run order is observable.
        for (k, e) in edges.iter_mut().enumerate() {
            e.weight += k as f32 * 8.0;
        }
        let graph = EdgeList::from_edges(n, edges).unwrap();
        for config in [figure12_config(), GraphRConfig::default()] {
            let tiled = TiledGraph::preprocess(&graph, &config).unwrap();
            let (blocks, subgraphs, tiles) = reference_tiling(&graph, &config);
            prop_assert_eq!(tiled.blocks(), &blocks[..]);
            prop_assert_eq!(tiled.nonempty_subgraphs(), subgraphs);
            prop_assert_eq!(tiled.nonempty_tiles(), tiles);
            for sg in tiled.blocks().iter().flat_map(|b| &b.strips).flat_map(|s| &s.subgraphs) {
                for pair in sg.tiles.windows(2) {
                    prop_assert!((pair[0].ge, pair[0].slot) < (pair[1].ge, pair[1].slot));
                }
                for tile in &sg.tiles {
                    for pair in tile.entries.windows(2) {
                        let (a, b) = (&pair[0], &pair[1]);
                        prop_assert!((a.col, a.row) <= (b.col, b.row));
                        if (a.col, a.row) == (b.col, b.row) {
                            // Unique, input-ordered weights: a same-cell
                            // run keeps input order.
                            prop_assert!(a.weight < b.weight);
                        }
                    }
                }
            }
        }
    }
}
