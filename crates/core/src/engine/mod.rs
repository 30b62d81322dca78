//! Graph engine components (paper Figure 8).
//!
//! A GE is a mesh of ReRAM crossbars (with their drivers and sample-and-hold
//! stages) feeding a shared ADC, a shift-and-add unit, a simple ALU (sALU),
//! and the RegI/RegO register files. The crossbar datapath lives in
//! `graphr-reram`; this module adds the pieces around it:
//!
//! * [`tile::cell_runs`] and [`tile::MergeRule`] — the one cell-merge
//!   rule for parallel edges, and [`tile::TileCompute`], the analog
//!   staging tile (full crossbar emulation; the fast fidelity scans
//!   merged cells directly),
//! * [`salu::SAlu`] — the configurable reduction unit (`add` for PageRank,
//!   `min` for BFS/SSSP; Figure 15),
//! * [`registers::RegFile`] — RegI/RegO with access counting, whose sizes
//!   drive the §3.3 column-major vs row-major argument.

pub mod registers;
pub mod salu;
pub mod tile;

pub use registers::RegFile;
pub use salu::{ReduceOp, SAlu};
pub use tile::{cell_runs, MergeRule, TileCompute};
