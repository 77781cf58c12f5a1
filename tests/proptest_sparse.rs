//! Property-based tests on the sparse-matrix substrate: format round-trips
//! and kernel equivalence against the dense ground truth.

use awb_gcn_repro::sparse::store::SparseStore;
use awb_gcn_repro::sparse::{profile, spmm, Coo, DenseMatrix};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A unique on-disk scratch directory per proptest case (cases run
/// concurrently across test threads and repeatedly within one).
fn store_scratch_dir() -> std::path::PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "awb-proptest-store-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed),
    ))
}

/// Strategy: a random sparse matrix as (rows, cols, triplets).
fn coo_strategy(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = Coo> {
    (1..max_dim, 1..max_dim).prop_flat_map(move |(rows, cols)| {
        proptest::collection::vec((0..rows, 0..cols, -8i32..8), 0..max_nnz).prop_map(
            move |entries| {
                let mut coo = Coo::new(rows, cols);
                for (r, c, v) in entries {
                    // Quantized values keep float sums exact across kernels.
                    coo.push(r, c, v as f32).unwrap();
                }
                coo
            },
        )
    })
}

fn dense_strategy(rows: usize, cols: usize) -> impl Strategy<Value = DenseMatrix> {
    proptest::collection::vec(-8i32..8, rows * cols).prop_map(move |v| {
        DenseMatrix::from_vec(rows, cols, v.into_iter().map(|x| x as f32).collect()).unwrap()
    })
}

proptest! {
    // 128 cases keeps this suite in the hundreds of milliseconds; CI
    // additionally caps every proptest suite via the PROPTEST_CASES
    // environment variable (a cap, never a raise — see vendor/proptest).
    // Known-tricky seeds are pinned in proptest-regressions/tests/.
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn csr_roundtrip_preserves_dense(coo in coo_strategy(24, 64)) {
        let dense = coo.to_dense();
        prop_assert_eq!(coo.to_csr().to_dense(), dense);
    }

    #[test]
    fn csc_roundtrip_preserves_dense(coo in coo_strategy(24, 64)) {
        let dense = coo.to_dense();
        prop_assert_eq!(coo.to_csc().to_dense(), dense);
    }

    #[test]
    fn csr_csc_cross_conversion(coo in coo_strategy(24, 64)) {
        let csr = coo.to_csr();
        prop_assert_eq!(csr.to_csc().to_csr(), csr.clone());
        let csc = coo.to_csc();
        prop_assert_eq!(csc.to_csr().to_csc(), csc);
    }

    #[test]
    fn nnz_counts_agree(coo in coo_strategy(24, 64)) {
        let dense = coo.to_dense();
        let csr = coo.to_csr();
        let csc = coo.to_csc();
        prop_assert_eq!(csr.nnz(), dense.nnz());
        prop_assert_eq!(csc.nnz(), dense.nnz());
        prop_assert_eq!(
            csr.row_nnz_counts().iter().sum::<usize>(),
            csr.nnz()
        );
        prop_assert_eq!(csc.row_nnz_counts(), csr.row_nnz_counts());
    }

    #[test]
    fn transpose_involution(coo in coo_strategy(16, 48)) {
        let csr = coo.to_csr();
        prop_assert_eq!(csr.transpose().transpose(), csr);
    }

    #[test]
    fn spmm_kernels_agree_with_dense_matmul(
        coo in coo_strategy(12, 32),
        cols in 1usize..6,
        seed in 0u64..1000,
    ) {
        let a_dense = coo.to_dense();
        // Derive a deterministic small dense B.
        let b = {
            let n = coo.cols() * cols;
            let data: Vec<f32> = (0..n)
                .map(|i| (((i as u64 * 2654435761 + seed) >> 7) % 9) as f32 - 4.0)
                .collect();
            DenseMatrix::from_vec(coo.cols(), cols, data).unwrap()
        };
        let expect = a_dense.matmul(&b).unwrap();
        let via_csc = spmm::csc_times_dense(&coo.to_csc(), &b).unwrap();
        let via_csr = spmm::csr_times_dense(&coo.to_csr(), &b).unwrap();
        prop_assert!(via_csc.approx_eq(&expect, 1e-3));
        prop_assert!(via_csr.approx_eq(&expect, 1e-3));
    }

    /// The blocked accumulate kernel must be *bit-identical* to the scalar
    /// column kernel — not approximately equal — because every bit-identity
    /// pin in the repo (sharded merge, replay, golden CLI) rides on it.
    /// B deliberately mixes negative zeros and exactly-cancelling pairs so
    /// the all-lanes-zero skip and the ±0.0 no-op argument both get hit,
    /// and the width range straddles multiples and non-multiples of the
    /// 8/4-lane dispatch.
    #[test]
    fn blocked_spmm_bit_identical_to_scalar(
        coo in coo_strategy(20, 96),
        width in 1usize..20,
        seed in 0u64..1000,
    ) {
        let a = coo.to_csc();
        let b = {
            let n = coo.cols() * width;
            let data: Vec<f32> = (0..n)
                .map(|i| {
                    let h = (i as u64).wrapping_mul(2654435761).wrapping_add(seed) >> 6;
                    match h % 8 {
                        0 => 0.0,
                        1 => -0.0,
                        v => (v as f32) - 4.5,
                    }
                })
                .collect();
            DenseMatrix::from_vec(coo.cols(), width, data).unwrap()
        };
        let scalar = spmm::csc_times_dense(&a, &b).unwrap();
        let blocked = spmm::csc_times_dense_blocked(&a, &b).unwrap();
        // Compare bit patterns, not f32 semantics: -0.0 == +0.0 would
        // mask a sign-of-zero divergence.
        let scalar_bits: Vec<u32> = scalar.into_vec().iter().map(|v| v.to_bits()).collect();
        let blocked_bits: Vec<u32> = blocked.into_vec().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(blocked_bits, scalar_bits);
    }

    #[test]
    fn spgemm_agrees_with_dense(
        a in coo_strategy(10, 24),
        b_seed in 0u64..100,
    ) {
        // Square B with same dim as a.cols() so shapes always chain.
        let k = a.cols();
        let mut b = Coo::new(k, k);
        for i in 0..k {
            let j = ((i as u64 * 7 + b_seed) % k as u64) as usize;
            b.push(i, j, ((b_seed % 5) as f32) - 2.0).unwrap();
        }
        let expect = a.to_dense().matmul(&b.to_dense()).unwrap();
        let got = spmm::csr_times_csr(&a.to_csr(), &b.to_csr()).unwrap();
        prop_assert!(got.approx_eq(&expect, 1e-3));
    }

    #[test]
    fn mac_count_equals_reference_work(
        coo in coo_strategy(12, 32),
        b in (1usize..5).prop_flat_map(|c| dense_strategy(32, c)),
    ) {
        prop_assume!(coo.cols() <= b.rows());
        // Pad A's column count up to b.rows() by reinterpreting: easier to
        // just rebuild a COO with cols == b.rows().
        let mut a = Coo::new(coo.rows(), b.rows());
        for (r, c, v) in coo.iter() {
            a.push(r, c, v).unwrap();
        }
        let a = a.to_csc();
        // The MAC count must equal the number of (nnz(A col j), b(j,k)!=0)
        // pairings, computed independently here.
        let mut manual = 0usize;
        for k in 0..b.cols() {
            for j in 0..a.cols() {
                if b.get(j, k) != 0.0 {
                    manual += a.col_nnz(j);
                }
            }
        }
        prop_assert_eq!(spmm::csc_times_dense_macs(&a, &b).unwrap(), manual);
    }

    #[test]
    fn gini_bounded_and_ordered(counts in proptest::collection::vec(0usize..100, 1..200)) {
        let g = profile::gini_coefficient(&counts);
        prop_assert!((0.0..=1.0).contains(&g), "gini {g}");
        // Perfectly even distribution of the same total has lower-or-equal
        // Gini.
        let total: usize = counts.iter().sum();
        let even = vec![total / counts.len().max(1); counts.len()];
        prop_assert!(profile::gini_coefficient(&even) <= g + 1e-9);
    }

    #[test]
    fn histogram_conserves_rows(coo in coo_strategy(32, 128)) {
        let csr = coo.to_csr();
        let hist = profile::RowNnzHistogram::of(&csr);
        prop_assert_eq!(hist.bins.iter().sum::<usize>(), csr.rows());
    }

    #[test]
    fn heatmap_conserves_nnz(coo in coo_strategy(32, 128), grid in 1usize..8) {
        let csr = coo.to_csr();
        let map = profile::BlockHeatmap::of(&csr, grid);
        prop_assert_eq!(map.counts.iter().sum::<usize>(), csr.nnz());
    }

    #[test]
    fn matrix_market_roundtrip(coo in coo_strategy(24, 64)) {
        use awb_gcn_repro::sparse::io::{read_matrix_market, write_matrix_market};
        // Deduplicate via CSR first: matrix market has one entry per cell.
        let canonical = coo.to_csr().to_coo();
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &canonical).unwrap();
        let back = read_matrix_market(buf.as_slice()).unwrap();
        prop_assert_eq!(back.shape(), canonical.shape());
        prop_assert_eq!(back.to_dense(), canonical.to_dense());
    }

    /// `ColumnPartitioner::by_shards` always tiles the column space
    /// contiguously — every column in exactly one shard, no empty shards,
    /// shard count clamped to the column count, nnz conserved.
    #[test]
    fn partitioner_by_shards_covers_every_column_once(
        coo in coo_strategy(32, 160),
        k in 1usize..10,
    ) {
        use awb_gcn_repro::sparse::partition::ColumnPartitioner;
        let a = coo.to_csc();
        let shards = ColumnPartitioner::by_shards(k).partition(&a);
        prop_assert_eq!(shards.len(), k.min(a.cols()));
        let mut cursor = 0usize;
        for s in &shards {
            prop_assert_eq!(s.cols.start, cursor, "gap or overlap");
            prop_assert!(!s.cols.is_empty());
            cursor = s.cols.end;
            // Profile consistency against the actual slice.
            let slice = s.slice(&a);
            prop_assert_eq!(slice.nnz(), s.nnz);
            prop_assert_eq!(slice.shape(), (a.rows(), s.n_cols()));
        }
        prop_assert_eq!(cursor, a.cols());
        prop_assert_eq!(shards.iter().map(|s| s.nnz).sum::<usize>(), a.nnz());
    }

    /// `ColumnPartitioner::by_max_nnz` never exceeds the budget (whenever
    /// the budget admits the heaviest single column — columns are the
    /// indivisible unit) while still covering every column exactly once.
    #[test]
    fn partitioner_by_max_nnz_respects_budget(
        coo in coo_strategy(32, 160),
        slack in 0usize..40,
    ) {
        use awb_gcn_repro::sparse::partition::ColumnPartitioner;
        let a = coo.to_csc();
        let heaviest = (0..a.cols()).map(|c| a.col_nnz(c)).max().unwrap_or(0);
        let budget = heaviest.max(1) + slack;
        let shards = ColumnPartitioner::by_max_nnz(budget).partition(&a);
        let mut cursor = 0usize;
        for s in &shards {
            prop_assert_eq!(s.cols.start, cursor);
            cursor = s.cols.end;
            prop_assert!(s.nnz <= budget, "shard {:?} holds {} > budget {}", s.cols, s.nnz, budget);
        }
        prop_assert_eq!(cursor, a.cols());
        prop_assert_eq!(shards.iter().map(|s| s.nnz).sum::<usize>(), a.nnz());
    }

    /// Slicing round-trip: concatenating the triplets of `col_range` cuts
    /// (with rebased column indices) reproduces the original matrix, and
    /// `Csr::row_range` mirrors it on rows.
    #[test]
    fn range_slices_reassemble(coo in coo_strategy(24, 96), cut_num in 0usize..100) {
        let csc = coo.to_csc();
        let cut = if csc.cols() == 0 { 0 } else { cut_num % (csc.cols() + 1) };
        let left = csc.col_range(0..cut);
        let right = csc.col_range(cut..csc.cols());
        let mut merged: Vec<(usize, usize, f32)> = left.iter().collect();
        merged.extend(right.iter().map(|(r, c, v)| (r, c + cut, v)));
        prop_assert_eq!(merged, csc.iter().collect::<Vec<_>>());

        let csr = coo.to_csr();
        let cut = if csr.rows() == 0 { 0 } else { cut_num % (csr.rows() + 1) };
        let top = csr.row_range(0..cut);
        let bottom = csr.row_range(cut..csr.rows());
        let mut merged: Vec<(usize, usize, f32)> = top.iter().collect();
        merged.extend(bottom.iter().map(|(r, c, v)| (r + cut, c, v)));
        prop_assert_eq!(merged, csr.iter().collect::<Vec<_>>());
    }

    /// Chunked on-disk store round-trip (DESIGN.md §13): writing any
    /// matrix and reading it back — whole, or reassembled from random
    /// column-range cuts — is *bit-identical*, the manifest's per-chunk
    /// nnz agrees with the data, and a reopen revalidates to the same
    /// matrix. Tiny `chunk_nnz` values force multi-chunk layouts even on
    /// small cases.
    #[test]
    fn sparse_store_roundtrip_is_bit_identical(
        coo in coo_strategy(24, 96),
        chunk_nnz in 1usize..32,
        cut_num in 0usize..100,
    ) {
        let csc = coo.to_csc();
        let dir = store_scratch_dir();
        let store = SparseStore::write_with_chunk_nnz(&dir, &csc, chunk_nnz).unwrap();

        // Whole-matrix read.
        prop_assert_eq!(store.read_csc().unwrap(), csc.clone());

        // Manifest bookkeeping agrees with the data it indexes.
        prop_assert_eq!(store.nnz(), csc.nnz());
        prop_assert_eq!(store.col_ptr(), csc.col_ptr());
        prop_assert_eq!(
            store.column_chunks().iter().map(|c| c.nnz).sum::<usize>(),
            csc.nnz()
        );
        prop_assert_eq!(store.range_nnz(0..store.cols()), csc.nnz());

        // A random column cut reassembles the original exactly.
        let cut = if csc.cols() == 0 { 0 } else { cut_num % (csc.cols() + 1) };
        let left = store.read_col_range(0..cut).unwrap();
        let right = store.read_col_range(cut..csc.cols()).unwrap();
        let mut merged: Vec<(usize, usize, f32)> = left.iter().collect();
        merged.extend(right.iter().map(|(r, c, v)| (r, c + cut, v)));
        prop_assert_eq!(merged, csc.iter().collect::<Vec<_>>());

        // Reopen revalidates the manifest/chunks and reads the same bits.
        let reopened = SparseStore::open(&dir).unwrap();
        prop_assert_eq!(reopened.read_csc().unwrap(), csc);
        std::fs::remove_dir_all(&dir).ok();
    }
}
