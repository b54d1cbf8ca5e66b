//! Sparse-matrix substrate for the `pilut` workspace.
//!
//! The SC'97 paper builds on SPARSKIT-style compressed sparse row kernels;
//! this crate provides that substrate from scratch:
//!
//! * [`CsrMatrix`] — compressed sparse row storage with the kernels the
//!   factorization and solver layers need (SpMV, transpose, permutation,
//!   row norms, pattern queries),
//! * [`BcsrMatrix`] — block CSR with small dense tiles and per-tile
//!   occupancy masks (lossless CSR round trip), feeding the blocked
//!   factorization's dense micro-kernels,
//! * [`tile`] — the `b × b` dense tile micro-kernels (rank-k update, small
//!   LU, tile-inverse application, panel solves),
//! * [`CooMatrix`] — a coordinate-format builder,
//! * [`WorkRow`] — the full-length working row with a companion nonzero
//!   pointer list used by the ILUT elimination loop (paper §2.1), and
//!   [`LanedRow`] — its width-generalised core whose positions hold dense
//!   tiles for the blocked elimination,
//! * [`gen`] — synthetic problem generators standing in for the paper's
//!   G40 and TORSO matrices (see DESIGN.md §4),
//! * [`io`] — Matrix Market coordinate-format reader/writer,
//! * [`Permutation`] — row/column reorderings and their inverses,
//! * [`rng`] — a seeded SplitMix64 generator so the workspace carries no
//!   external `rand` dependency and builds fully offline.

pub mod bcsr;
pub mod coo;
pub mod csr;
pub mod gen;
pub mod io;
pub mod permute;
pub mod rng;
pub mod stats;
pub mod tile;
pub mod vec_ops;
pub mod workrow;

pub use bcsr::BcsrMatrix;
pub use coo::CooMatrix;
pub use csr::{CsrLayoutError, CsrMatrix};
pub use permute::Permutation;
pub use rng::SplitMix64;
pub use stats::MatrixStats;
pub use workrow::{LanedRow, WorkRow};
