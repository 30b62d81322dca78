//! Crossbar cells and the analog staging tile.
//!
//! The tiler stores a tile's entries column-major — `(col, row)`
//! ascending — with the parallel edges of one cell adjacent and in input
//! order. [`cell_runs`] splits a tile into those runs and
//! [`MergeRule::merge_run`] folds each run into the one value its cell
//! stores: this pair is the single cell-merge implementation, shared by
//! the fast-fidelity scan kernels (which consume the merged cells
//! directly, see [`crate::exec::strip`]) and by [`TileCompute`].
//!
//! [`TileCompute`] stages a tile for [`Fidelity::Analog`]: values flow
//! through the full `graphr-reram` datapath (per-slice bitline sums, ADC,
//! shift-and-add, programming noise). The executor reuses one per scanner
//! for every tile of every subgraph (hardware parallelism affects
//! *timing*, which the executor accounts separately; functionally the
//! tiles are independent). With ideal ADC and ideal programming the
//! analog datapath is bit-identical to the fast kernels' direct
//! fixed-point arithmetic — a property the test suite pins down.
//!
//! [`Fidelity::Analog`]: crate::config::Fidelity::Analog

use graphr_reram::{ArrayConfig, MatrixArray};
use graphr_units::FixedSpec;
use serde::{Deserialize, Serialize};

use crate::config::GraphRConfig;
use crate::preprocess::tiler::TileEntry;

/// How parallel edges that land on the same crossbar cell combine. A cell
/// stores one conductance, so preprocessing must pick a semantic: `Sum` is
/// the adjacency-matrix reading used by the MAC algorithms, `Min` keeps the
/// cheapest parallel edge for the add-op (shortest-path) algorithms —
/// matching what the gold references compute on multigraphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum MergeRule {
    /// Parallel edges add (MAC pattern).
    #[default]
    Sum,
    /// Parallel edges keep the minimum (add-op pattern).
    Min,
}

impl MergeRule {
    /// Combines an existing cell value with a newly arriving one.
    #[must_use]
    pub fn combine(self, existing: f64, incoming: f64) -> f64 {
        match self {
            MergeRule::Sum => existing + incoming,
            MergeRule::Min => existing.min(incoming),
        }
    }

    /// Folds the values of one cell's parallel edges, in entry order, into
    /// the raw (pre-quantisation) value the cell stores.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    #[must_use]
    pub fn merge_run(self, values: impl IntoIterator<Item = f64>) -> f64 {
        let mut values = values.into_iter();
        let first = values.next().expect("a cell run holds at least one edge");
        values.fold(first, |cell, v| self.combine(cell, v))
    }
}

/// Splits a tile's entries into runs that share one cell, in stored
/// order. Relies on the tiler's entry order, which keeps parallel edges
/// adjacent; each run is one crossbar cell.
pub fn cell_runs(entries: &[TileEntry]) -> impl Iterator<Item = &[TileEntry]> {
    entries.chunk_by(|a, b| a.row == b.row && a.col == b.col)
}

/// A reusable analog staging tile.
#[derive(Debug, Clone)]
pub struct TileCompute {
    size: usize,
    /// The ganged crossbar model.
    array: MatrixArray,
    /// Raw (pre-quantisation) cell values of the loaded tile, row-major.
    dense: Vec<f64>,
}

impl TileCompute {
    /// Creates a staging tile for `config`'s geometry and analog
    /// parameters, using `spec` for value quantisation (algorithms choose
    /// their own format — Q1.15 for PageRank probabilities, Q16.0 for
    /// BFS/SSSP distances).
    #[must_use]
    pub fn new(config: &GraphRConfig, spec: FixedSpec) -> Self {
        let size = config.crossbar_size;
        let array_config = ArrayConfig {
            rows: size,
            cols: size,
            spec,
            slicer: config.slicer,
            sign_mode: config.sign_mode,
            adc: config.adc,
            noise: config.noise,
        };
        TileCompute {
            size,
            array: MatrixArray::new(array_config),
            dense: vec![0.0; size * size],
        }
    }

    /// Loads a tile: `entries` give positions in the tiler's order,
    /// `values` the real-valued matrix entries (same order). Unmentioned
    /// cells are zero. Parallel edges landing on the same cell merge under
    /// `merge` *before* quantisation — a crossbar cell holds exactly one
    /// conductance, so the preprocessing combines multigraph edges
    /// ([`MergeRule::Sum`] is the adjacency-matrix semantic for MAC
    /// algorithms; [`MergeRule::Min`] keeps the shortest parallel edge for
    /// add-op algorithms).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != entries.len()`, on out-of-range
    /// coordinates, or (in unsigned mode) on negative values.
    pub fn load(&mut self, entries: &[TileEntry], values: &[f64], merge: MergeRule) {
        assert_eq!(entries.len(), values.len(), "one value required per entry");
        self.dense.fill(0.0);
        let mut offset = 0;
        for run in cell_runs(entries) {
            let cell = &run[0];
            let raw = merge.merge_run(values[offset..offset + run.len()].iter().copied());
            self.dense[cell.row as usize * self.size + cell.col as usize] = raw;
            offset += run.len();
        }
        self.array
            .program_dense(&self.dense)
            .expect("tile entries fit the array");
    }

    /// Parallel-MAC evaluation: `y[col] = Σ_row stored[row][col] · x[row]`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the tile size.
    #[must_use]
    pub fn mac(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.size, "input must have C entries");
        self.array.mvm(x)
    }

    /// Row-select read (the add-op primitive, §4.2): the stored values of
    /// wordline `row`, with zero meaning "no edge".
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[must_use]
    pub fn row(&self, row: usize) -> Vec<f64> {
        assert!(row < self.size, "row {row} out of range");
        let mut onehot = vec![0.0; self.size];
        onehot[row] = 1.0;
        self.array.mvm(&onehot)
    }

    /// Entries read from `row` as `(col, value)` pairs, skipping exact
    /// zeros.
    #[must_use]
    pub fn row_entries(&self, row: usize) -> Vec<(usize, f64)> {
        self.row(row)
            .into_iter()
            .enumerate()
            .filter(|&(_, v)| v != 0.0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Fidelity, GraphRConfig};

    fn entries(list: &[(u8, u8, f64)]) -> (Vec<TileEntry>, Vec<f64>) {
        let e = list
            .iter()
            .map(|&(row, col, _)| TileEntry {
                row,
                col,
                weight: 0.0,
            })
            .collect();
        let v = list.iter().map(|&(_, _, v)| v).collect();
        (e, v)
    }

    fn analog(spec: FixedSpec) -> TileCompute {
        let config = GraphRConfig::builder()
            .fidelity(Fidelity::Analog)
            .build()
            .unwrap();
        TileCompute::new(&config, spec)
    }

    #[test]
    fn cell_runs_group_parallel_edges_and_merge_in_entry_order() {
        // Tiler order: (col, row) ascending, parallel edges adjacent.
        let (e, v) = entries(&[
            (1, 0, 2.0),
            (1, 0, 3.0),
            (0, 2, 5.0),
            (3, 2, 1.0),
            (3, 2, 4.0),
        ]);
        let runs: Vec<usize> = cell_runs(&e).map(<[TileEntry]>::len).collect();
        assert_eq!(runs, vec![2, 1, 2]);
        let mut offset = 0;
        let mut merged = Vec::new();
        for run in cell_runs(&e) {
            let values = &v[offset..offset + run.len()];
            merged.push((
                MergeRule::Sum.merge_run(values.iter().copied()),
                MergeRule::Min.merge_run(values.iter().copied()),
            ));
            offset += run.len();
        }
        assert_eq!(merged, vec![(5.0, 2.0), (5.0, 5.0), (5.0, 1.0)]);
    }

    #[test]
    fn analog_matches_quantised_fixed_point_when_ideal() {
        let (e, v) = entries(&[
            (0, 0, 1.5),
            (7, 0, 0.125),
            (3, 3, 2.0),
            (0, 7, 0.25),
            (7, 7, 3.75),
        ]);
        let spec = FixedSpec::paper_default();
        let mut tile = analog(spec);
        tile.load(&e, &v, MergeRule::Sum);
        let x: Vec<f64> = (0..8).map(|i| 0.5 + i as f64 * 0.25).collect();
        let mut expected = vec![0.0; 8];
        for (cell, &raw) in e.iter().zip(&v) {
            expected[cell.col as usize] += spec.quantize_value(raw) * x[cell.row as usize];
        }
        for (a, b) in tile.mac(&x).iter().zip(&expected) {
            assert!((a - b).abs() < 1e-9, "analog {a} vs fixed point {b}");
        }
        for (cell, &raw) in e.iter().zip(&v) {
            let read = tile.row(cell.row as usize)[cell.col as usize];
            assert!((read - spec.quantize_value(raw)).abs() < 1e-9);
        }
    }

    #[test]
    fn parallel_edges_merge_before_programming() {
        let (e, v) = entries(&[(2, 1, 3.0), (2, 1, 4.0)]);
        let spec = FixedSpec::new(16, 0).unwrap();
        let mut tile = analog(spec);
        tile.load(&e, &v, MergeRule::Sum);
        assert_eq!(tile.row_entries(2), vec![(1, 7.0)]);
        tile.load(&e, &v, MergeRule::Min);
        assert_eq!(tile.row_entries(2), vec![(1, 3.0)]);
    }

    #[test]
    fn row_entries_report_sparse_content() {
        let (e, v) = entries(&[(2, 1, 3.0), (2, 6, 5.0)]);
        let mut tile = analog(FixedSpec::new(16, 0).unwrap());
        tile.load(&e, &v, MergeRule::Sum);
        assert_eq!(tile.row_entries(2), vec![(1, 3.0), (6, 5.0)]);
        assert!(tile.row_entries(0).is_empty());
    }

    #[test]
    fn reload_clears_previous_tile() {
        let mut tile = analog(FixedSpec::paper_default());
        let (e1, v1) = entries(&[(0, 0, 1.0)]);
        tile.load(&e1, &v1, MergeRule::Sum);
        let (e2, v2) = entries(&[(5, 5, 2.0)]);
        tile.load(&e2, &v2, MergeRule::Sum);
        assert!(tile.row_entries(0).is_empty(), "old entry must be gone");
        assert_eq!(tile.row_entries(5), vec![(5, 2.0)]);
    }

    #[test]
    fn integer_spec_keeps_distances_exact() {
        let (e, v) = entries(&[(0, 0, 1234.0), (1, 1, 64.0)]);
        let mut tile = analog(FixedSpec::new(16, 0).unwrap());
        tile.load(&e, &v, MergeRule::Sum);
        assert_eq!(tile.row(0)[0], 1234.0);
        assert_eq!(tile.row(1)[1], 64.0);
    }

    #[test]
    #[should_panic(expected = "one value required")]
    fn mismatched_values_panic() {
        let mut tile = analog(FixedSpec::paper_default());
        let (e, _) = entries(&[(0, 0, 1.0)]);
        tile.load(&e, &[], MergeRule::Sum);
    }
}
