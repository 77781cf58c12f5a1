//! Sparse matrix substrate for the AWB-GCN reproduction.
//!
//! This crate provides the storage formats and reference kernels that both
//! the software GCN model ([`awb-gcn-model`]) and the accelerator simulator
//! ([`awb-accel`]) are built on:
//!
//! * [`DenseMatrix`] — row-major dense `f32` matrix.
//! * [`Coo`] — coordinate (triplet) format, the usual construction format.
//! * [`Csr`] — compressed sparse row.
//! * [`Csc`] — compressed sparse column, the accelerator's native format
//!   (paper Fig. 4: `Val` / `Row ID` / `Col Ptr` arrays).
//! * [`spmm`] — reference multiply kernels used as functional ground truth.
//! * [`ops_count`] — multiply-accumulate operation counting for the
//!   execution-order analysis of the paper's Table 2.
//! * [`profile`] — nnz-pattern statistics (density, row-nnz distributions,
//!   imbalance metrics, block heatmaps) backing Table 1 and Figs. 1/13.
//! * [`partition`] — nnz-balanced column sharding (plus zero-rebuild
//!   `col_range`/`row_range` slicing on the formats) for graphs bigger
//!   than one device.
//! * [`store`] — chunked on-disk column store (`by_column` chunks with a
//!   JSON manifest) so graphs bigger than host memory stream in bounded
//!   column windows.
//! * [`json`] — the small JSON reader behind the store manifest and the
//!   bench record files.
//!
//! # Example
//!
//! ```
//! use awb_sparse::{Coo, Csc, DenseMatrix, spmm};
//!
//! # fn main() -> Result<(), awb_sparse::SparseError> {
//! let mut a = Coo::new(3, 3);
//! a.push(0, 1, 2.0)?;
//! a.push(2, 0, 1.0)?;
//! let a: Csc = a.to_csc();
//! let b = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.5, 1.0], &[0.0, 2.0]])?;
//! let c = spmm::csc_times_dense(&a, &b)?;
//! assert_eq!(c.get(0, 1), 2.0); // 2.0 * b[1,1]
//! # Ok(())
//! # }
//! ```
//!
//! [`awb-gcn-model`]: https://example.invalid/awb-gcn-repro
//! [`awb-accel`]: https://example.invalid/awb-gcn-repro

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coo;
mod csc;
mod csr;
mod dense;
mod error;
pub mod io;
pub mod json;
pub mod ops_count;
pub mod partition;
pub mod profile;
pub mod spmm;
pub mod store;

pub use coo::Coo;
pub use csc::Csc;
pub use csr::Csr;
pub use dense::DenseMatrix;
pub use error::SparseError;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, SparseError>;
