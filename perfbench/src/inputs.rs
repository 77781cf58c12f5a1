//! Seeded input generation. Graphs and weights come from fixed seeds so
//! every run serves the same model; the workload seed drives only the
//! requests (feature matrices and arrival order). The program sees only
//! these generated inputs.

use awb_datasets::rng::Pcg64;
use awb_datasets::{AliasTable, DatasetSpec, GeneratedDataset};
use awb_gcn_model::GcnInput;
use awb_sparse::Csr;

/// Seed of every graph the workloads serve (requests use the CLI seed).
pub const GRAPH_SEED: u64 = 20_200_417;

/// SplitMix64 finaliser: decorrelates the (seed, stream, index) triples
/// that name each generated request.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn rng(seed: u64) -> Pcg64 {
    Pcg64::seed_from_u64(seed)
}

/// The graph of `spec` with its model weights, from the fixed graph seed
/// (offset by `graph_index` so tenants get distinct graphs).
pub fn graph(spec: &DatasetSpec, graph_index: u64) -> GcnInput {
    let data = GeneratedDataset::generate(spec, GRAPH_SEED + graph_index)
        .expect("dataset generation is infallible for the paper specs");
    GcnInput::from_dataset(&data).expect("generated datasets assemble into a GCN input")
}

/// A request feature matrix `X1` (`spec.nodes × spec.f1`) with the
/// statistics of the dataset generator: Poisson row lengths around
/// `f1 · x1_density`, distinct sorted columns, values in `[0.1, 1.0)`.
pub fn features(spec: &DatasetSpec, seed: u64) -> Csr {
    let (n, f1) = (spec.nodes, spec.f1);
    let mean = f1 as f64 * spec.x1_density;
    let mut rng = rng(seed);
    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.push(0usize);
    let mut col_idx: Vec<u32> = Vec::new();
    let mut values: Vec<f32> = Vec::new();
    let mut used = vec![false; f1];
    let mut row: Vec<u32> = Vec::new();
    for _ in 0..n {
        let k = rng.next_poisson(mean).min(f1);
        row.clear();
        while row.len() < k {
            let c = rng.next_below(f1 as u64) as u32;
            if !used[c as usize] {
                used[c as usize] = true;
                row.push(c);
            }
        }
        row.sort_unstable();
        for &c in &row {
            used[c as usize] = false;
            col_idx.push(c);
            values.push(0.1 + 0.9 * rng.next_f32());
        }
        row_ptr.push(col_idx.len());
    }
    Csr::from_parts(n, f1, row_ptr, col_idx, values).expect("generated CSR parts are consistent")
}

/// Zipf(`s`) sampler over ranks `0..n` (rank 0 most popular).
pub fn zipf(n: usize, s: f64) -> AliasTable {
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
    AliasTable::new(&weights)
}
