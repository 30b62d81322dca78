//! The tiler: applies [`TileOrder`] to a concrete edge list, producing the
//! hierarchical structure the streaming-apply executor walks.
//!
//! The structure is exactly the §3.4 ordered edge list, materialised:
//! blocks in column-major order, destination strips within a block, source
//! chunks (subgraphs) within a strip — keeping only *nonempty* subgraphs,
//! which is what lets GraphR skip work (§3.3) — and within a subgraph the
//! edges grouped by the logical crossbar tile that will hold them.
//!
//! Entry-order guarantee: a subgraph's tiles are `(ge, slot)`-ascending,
//! and a tile's entries `(col, row)`-ascending with the parallel edges of
//! one cell adjacent and in input order. The scan kernels rely on it to
//! merge each cell's edges in one pass with no staging.

use graphr_graph::EdgeList;
use serde::{Deserialize, Serialize};

use crate::config::{ConfigError, GraphRConfig};
use crate::preprocess::order::TileOrder;

/// One edge placed inside a crossbar tile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TileEntry {
    /// Wordline within the tile (`0..C`).
    pub row: u8,
    /// Bitline within the tile (`0..C`).
    pub col: u8,
    /// Edge weight.
    pub weight: f32,
}

/// One nonempty logical crossbar tile of a subgraph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tile {
    /// Graph engine owning the tile.
    pub ge: u32,
    /// Tile slot within the GE (`0..tiles_per_ge`).
    pub slot: u32,
    /// The edges in the tile, `(col, row)`-ascending (column-major, the
    /// §3.4 order within a subgraph). Parallel edges on one cell are
    /// adjacent and in input order; the scan kernels merge each such run
    /// into the cell's single stored value.
    pub entries: Vec<TileEntry>,
}

/// One nonempty subgraph: a `C × strip_width` window of the adjacency
/// matrix, split across GEs/tiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Subgraph {
    /// Source chunk index within the block.
    pub chunk: u32,
    /// Nonempty tiles, ordered by `(ge, slot)`.
    pub tiles: Vec<Tile>,
    /// Total edges in the subgraph.
    pub edges: u32,
}

impl Subgraph {
    /// First source vertex of the subgraph (given its block's row origin).
    #[must_use]
    pub fn src_start(&self, block_row_origin: usize, crossbar_size: usize) -> usize {
        block_row_origin + self.chunk as usize * crossbar_size
    }
}

/// One destination strip of a block, holding its nonempty subgraphs in
/// chunk order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Strip {
    /// Strip index within the block.
    pub strip: u32,
    /// Nonempty subgraphs, in ascending chunk order.
    pub subgraphs: Vec<Subgraph>,
}

/// One nonempty subgraph's place in the §3.4 streamed order, seen from the
/// source side: which source vertices it covers and where its edges sit in
/// the ordered edge list.
///
/// Spans are the entries of the [`SourceRangeIndex`]; the plan layer
/// intersects their source ranges with an active-vertex mask to decide
/// which subgraphs a scan must stream at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubgraphSpan {
    /// Column-major block index (position in [`TiledGraph::blocks`]).
    pub block: u32,
    /// Strip index within the block.
    pub strip: u32,
    /// Position within the strip's `subgraphs` vector.
    pub position: u32,
    /// First source vertex the subgraph covers.
    pub src_start: u32,
    /// Real (unpadded) source vertices covered — the crossbar row count,
    /// clamped at the graph's vertex count.
    pub src_len: u32,
    /// Offset of the subgraph's first edge in the §3.4 streamed order.
    pub edge_offset: u64,
    /// Edges in the subgraph.
    pub edges: u32,
}

impl SubgraphSpan {
    /// Whether any covered source vertex is active under `mask`
    /// (word-level — the span never reads individual bits).
    #[must_use]
    pub fn intersects(&self, mask: &crate::exec::mask::FrontierMask) -> bool {
        let lo = self.src_start as usize;
        mask.any_in_range(lo, lo + self.src_len as usize)
    }
}

/// Per-block-row index of which source ranges hold edges — built once at
/// tiling time, alongside the blocks themselves.
///
/// `rows()[bi]` lists block row `bi`'s nonempty subgraphs as
/// [`SubgraphSpan`]s in streamed order, each carrying its source-vertex
/// range and its edge offset into the ordered edge list. This is what lets
/// a scan plan restrict the walk to block rows that contain at least one
/// active source *before* streaming anything: the controller seeks straight
/// to the planned spans' offsets instead of scanning edges past the GEs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SourceRangeIndex {
    rows: Vec<Vec<SubgraphSpan>>,
}

impl SourceRangeIndex {
    /// The spans of each block row, outer-indexed by `bi`.
    #[must_use]
    pub fn rows(&self) -> &[Vec<SubgraphSpan>] {
        &self.rows
    }

    /// Spans of one block row.
    ///
    /// # Panics
    ///
    /// Panics if `bi` is not a valid block-row index.
    #[must_use]
    pub fn row(&self, bi: usize) -> &[SubgraphSpan] {
        &self.rows[bi]
    }
}

/// One out-of-core block of the adjacency matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Block {
    /// Block row coordinate (source side).
    pub bi: u32,
    /// Block column coordinate (destination side).
    pub bj: u32,
    /// All strips of the block (possibly with zero subgraphs), in order.
    pub strips: Vec<Strip>,
}

/// A graph preprocessed into GraphR's streaming order.
///
/// # Examples
///
/// ```
/// use graphr_core::{GraphRConfig, TiledGraph};
/// use graphr_graph::generators::structured::figure5;
///
/// let config = GraphRConfig::builder()
///     .crossbar_size(4)
///     .crossbars_per_ge(2)
///     .num_ges(2)
///     .spec(graphr_units::FixedSpec::new(5, 0)?)
///     .slicer(graphr_units::BitSlicer::new(4, 1)?)
///     .build()?;
/// let tiled = TiledGraph::preprocess(&figure5(), &config)?;
/// assert_eq!(tiled.total_edges(), 25);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TiledGraph {
    order: TileOrder,
    num_vertices: usize,
    crossbar_size: usize,
    tiles_per_ge: usize,
    num_ges: usize,
    /// Blocks in column-major order; empty blocks keep their slot so the
    /// executor's disk-order walk stays trivial.
    blocks: Vec<Block>,
    /// Source-side index over the blocks, built once here.
    source_index: SourceRangeIndex,
    total_edges: usize,
    nonempty_subgraphs: usize,
    nonempty_tiles: usize,
}

impl TiledGraph {
    /// Preprocesses `graph` for `config` — the software step of Figure 9,
    /// performed once.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration's geometry is
    /// inconsistent (see [`TileOrder::new`]).
    pub fn preprocess(graph: &EdgeList, config: &GraphRConfig) -> Result<Self, ConfigError> {
        let c = config.crossbar_size;
        let strip_width = config.strip_width();
        let block_size = config.effective_block_vertices(graph.num_vertices());
        let order = TileOrder::new(graph.num_vertices().max(1), c, strip_width, block_size)?;

        // Sort edges by global order ID — the §3.4 preprocessing. Each ID
        // is computed once; ties break on the input index, so parallel
        // edges keep their input order (a stable sort by ID).
        let edges = graph.edges();
        let mut keyed: Vec<(u64, u32)> = edges
            .iter()
            .enumerate()
            .map(|(idx, e)| (order.global_id(e.src as usize, e.dst as usize), idx as u32))
            .collect();
        keyed.sort_unstable();
        // Only the order is kept: the 16-byte pairs are freed before the
        // blocks are built.
        let sorted: Vec<u32> = keyed.iter().map(|&(_, idx)| idx).collect();
        drop(keyed);

        let per_side = order.blocks_per_side();
        let strips_per_block = order.strips_per_block();
        let mut blocks: Vec<Block> = (0..order.num_blocks())
            .map(|bidx| Block {
                bi: (bidx % per_side) as u32,
                bj: (bidx / per_side) as u32,
                strips: (0..strips_per_block)
                    .map(|s| Strip {
                        strip: s as u32,
                        subgraphs: Vec::new(),
                    })
                    .collect(),
            })
            .collect();

        let tiles_per_ge = config.tiles_per_ge();
        let mut nonempty_subgraphs = 0usize;
        let mut nonempty_tiles = 0usize;
        for &idx in &sorted {
            let e = &edges[idx as usize];
            let co = order.coords(e.src as usize, e.dst as usize);
            let block = &mut blocks[co.block as usize];
            let strip = &mut block.strips[co.strip as usize];
            // Edges arrive sorted, so the current subgraph is the last one.
            let need_new = strip
                .subgraphs
                .last()
                .is_none_or(|sg| u64::from(sg.chunk) != co.chunk);
            if need_new {
                strip.subgraphs.push(Subgraph {
                    chunk: co.chunk as u32,
                    tiles: Vec::new(),
                    edges: 0,
                });
                nonempty_subgraphs += 1;
            }
            let sg = strip.subgraphs.last_mut().expect("just pushed");
            sg.edges += 1;
            let tile_index = (co.sub_col as usize) / c;
            let ge = (tile_index / tiles_per_ge) as u32;
            let slot = (tile_index % tiles_per_ge) as u32;
            let entry = TileEntry {
                row: co.sub_row as u8,
                col: (co.sub_col as usize % c) as u8,
                weight: e.weight,
            };
            // Edges arrive `sub_col`-ascending, so a subgraph's tiles are
            // created in `(ge, slot)` order and the current tile is the
            // last one.
            match sg.tiles.last_mut().filter(|t| t.ge == ge && t.slot == slot) {
                Some(t) => t.entries.push(entry),
                None => {
                    sg.tiles.push(Tile {
                        ge,
                        slot,
                        entries: vec![entry],
                    });
                    nonempty_tiles += 1;
                }
            }
        }
        let source_index = build_source_index(&blocks, &order, c, per_side, graph.num_vertices());
        Ok(TiledGraph {
            order,
            num_vertices: graph.num_vertices(),
            crossbar_size: c,
            tiles_per_ge,
            num_ges: config.num_ges,
            blocks,
            source_index,
            total_edges: graph.num_edges(),
            nonempty_subgraphs,
            nonempty_tiles,
        })
    }

    /// The ordering geometry in use.
    #[must_use]
    pub fn order(&self) -> &TileOrder {
        &self.order
    }

    /// The per-block-row source-range index (built at tiling time).
    #[must_use]
    pub fn source_index(&self) -> &SourceRangeIndex {
        &self.source_index
    }

    /// Original (unpadded) vertex count.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// The blocks in column-major (disk) order.
    #[must_use]
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Total edges across all tiles.
    #[must_use]
    pub fn total_edges(&self) -> usize {
        self.total_edges
    }

    /// Number of subgraphs containing at least one edge.
    #[must_use]
    pub fn nonempty_subgraphs(&self) -> usize {
        self.nonempty_subgraphs
    }

    /// Number of logical crossbar tiles containing at least one edge.
    #[must_use]
    pub fn nonempty_tiles(&self) -> usize {
        self.nonempty_tiles
    }

    /// Total subgraph slots (empty included) — the denominator of the
    /// §3.3 skipping benefit.
    #[must_use]
    pub fn total_subgraph_slots(&self) -> usize {
        self.order.num_blocks() * self.order.subgraphs_per_block()
    }

    /// First destination vertex of `strip` in `block`.
    #[must_use]
    pub fn strip_dst_start(&self, block: &Block, strip: &Strip) -> usize {
        block.bj as usize * self.order.block_size()
            + strip.strip as usize * self.order.strip_width()
    }

    /// First source vertex of `subgraph` in `block`.
    #[must_use]
    pub fn subgraph_src_start(&self, block: &Block, subgraph: &Subgraph) -> usize {
        block.bi as usize * self.order.block_size() + subgraph.chunk as usize * self.crossbar_size
    }

    /// Global destination vertex of a tile-local column.
    #[must_use]
    pub fn tile_dst(&self, block: &Block, strip: &Strip, tile: &Tile, col: u8) -> usize {
        self.strip_dst_start(block, strip)
            + (tile.ge as usize * self.tiles_per_ge + tile.slot as usize) * self.crossbar_size
            + col as usize
    }
}

/// Walks the blocks in streamed (disk) order, recording every nonempty
/// subgraph's source range and edge offset under its block row.
fn build_source_index(
    blocks: &[Block],
    order: &TileOrder,
    crossbar_size: usize,
    per_side: usize,
    num_vertices: usize,
) -> SourceRangeIndex {
    let mut rows: Vec<Vec<SubgraphSpan>> = vec![Vec::new(); per_side];
    let mut edge_offset = 0u64;
    for (bidx, block) in blocks.iter().enumerate() {
        let row_origin = block.bi as usize * order.block_size();
        for strip in &block.strips {
            for (position, sg) in strip.subgraphs.iter().enumerate() {
                let src_start = sg.src_start(row_origin, crossbar_size);
                let src_len = crossbar_size.min(num_vertices.saturating_sub(src_start));
                rows[block.bi as usize].push(SubgraphSpan {
                    block: bidx as u32,
                    strip: strip.strip,
                    position: position as u32,
                    src_start: src_start as u32,
                    src_len: src_len as u32,
                    edge_offset,
                    edges: sg.edges,
                });
                edge_offset += u64::from(sg.edges);
            }
        }
    }
    SourceRangeIndex { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphr_graph::generators::rmat::Rmat;
    use graphr_graph::generators::structured::figure5;
    use graphr_units::{BitSlicer, FixedSpec};
    use proptest::prelude::*;

    fn small_config() -> GraphRConfig {
        // Figure 12 geometry: C=4, N=2, G=2 → strip width 16, block 32.
        GraphRConfig::builder()
            .crossbar_size(4)
            .crossbars_per_ge(2)
            .num_ges(2)
            .spec(FixedSpec::new(5, 0).unwrap())
            .slicer(BitSlicer::new(4, 1).unwrap())
            .block_vertices(32)
            .build()
            .unwrap()
    }

    #[test]
    fn figure5_graph_tiles_completely() {
        let g = figure5();
        let tiled = TiledGraph::preprocess(&g, &small_config()).unwrap();
        assert_eq!(tiled.total_edges(), 25);
        // 8 vertices < one 32-vertex block → single block.
        assert_eq!(tiled.blocks().len(), 1);
        let edges_seen: u32 = tiled.blocks()[0]
            .strips
            .iter()
            .flat_map(|s| &s.subgraphs)
            .map(|sg| sg.edges)
            .sum();
        assert_eq!(edges_seen, 25);
    }

    #[test]
    fn tile_coordinates_reconstruct_original_edges() {
        let g = Rmat::new(60, 300).seed(7).max_weight(9).generate();
        let tiled = TiledGraph::preprocess(&g, &small_config()).unwrap();
        let mut reconstructed: Vec<(u32, u32, f32)> = Vec::new();
        for block in tiled.blocks() {
            for strip in &block.strips {
                for sg in &strip.subgraphs {
                    let src0 = tiled.subgraph_src_start(block, sg);
                    for tile in &sg.tiles {
                        for e in &tile.entries {
                            let src = src0 + e.row as usize;
                            let dst = tiled.tile_dst(block, strip, tile, e.col);
                            reconstructed.push((src as u32, dst as u32, e.weight));
                        }
                    }
                }
            }
        }
        let mut expected: Vec<(u32, u32, f32)> =
            g.iter().map(|e| (e.src, e.dst, e.weight)).collect();
        reconstructed.sort_by(|a, b| a.partial_cmp(b).unwrap());
        expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(reconstructed, expected);
    }

    #[test]
    fn subgraphs_are_in_chunk_order_and_nonempty() {
        let g = Rmat::new(64, 400).seed(3).generate();
        let tiled = TiledGraph::preprocess(&g, &small_config()).unwrap();
        for block in tiled.blocks() {
            for strip in &block.strips {
                let chunks: Vec<u32> = strip.subgraphs.iter().map(|s| s.chunk).collect();
                let mut sorted = chunks.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(chunks, sorted, "chunks must be ascending and unique");
                for sg in &strip.subgraphs {
                    assert!(sg.edges > 0);
                    assert!(!sg.tiles.is_empty());
                    for t in &sg.tiles {
                        assert!(!t.entries.is_empty());
                    }
                }
            }
        }
    }

    #[test]
    fn skipping_statistics_are_consistent() {
        let g = Rmat::new(64, 100).seed(5).generate();
        let tiled = TiledGraph::preprocess(&g, &small_config()).unwrap();
        assert!(tiled.nonempty_subgraphs() <= tiled.total_subgraph_slots());
        assert!(tiled.nonempty_tiles() >= tiled.nonempty_subgraphs());
        assert!(tiled.nonempty_tiles() <= tiled.total_edges());
        // 64 vertices / block 32 → 2×2 blocks of 16 subgraphs.
        assert_eq!(tiled.total_subgraph_slots(), 64);
    }

    #[test]
    fn default_config_single_block() {
        let g = Rmat::new(500, 2000).seed(2).generate();
        let cfg = GraphRConfig::default();
        let tiled = TiledGraph::preprocess(&g, &cfg).unwrap();
        // 500 vertices pad to one 4096-strip-width block.
        assert_eq!(tiled.blocks().len(), 1);
        assert_eq!(tiled.order().padded_vertices(), 4096);
        assert_eq!(tiled.total_edges(), 2000);
    }

    #[test]
    fn empty_graph_has_no_subgraphs() {
        let g = EdgeList::new(10);
        let tiled = TiledGraph::preprocess(&g, &small_config()).unwrap();
        assert_eq!(tiled.nonempty_subgraphs(), 0);
        assert_eq!(tiled.total_edges(), 0);
    }

    proptest! {
        #[test]
        fn every_edge_lands_in_exactly_one_tile(
            n in 1usize..100,
            m in 0usize..400,
            seed in 0u64..20,
        ) {
            let g = Rmat::new(n, m).seed(seed).generate();
            let tiled = TiledGraph::preprocess(&g, &small_config()).unwrap();
            let total: usize = tiled
                .blocks()
                .iter()
                .flat_map(|b| &b.strips)
                .flat_map(|s| &s.subgraphs)
                .flat_map(|sg| &sg.tiles)
                .map(|t| t.entries.len())
                .sum();
            prop_assert_eq!(total, m);
            let by_counter: u32 = tiled
                .blocks()
                .iter()
                .flat_map(|b| &b.strips)
                .flat_map(|s| &s.subgraphs)
                .map(|sg| sg.edges)
                .sum();
            prop_assert_eq!(by_counter as usize, m);
        }
    }
}
