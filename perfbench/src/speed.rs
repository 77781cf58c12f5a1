//! Host-speed calibration.
//!
//! The benchmark shares its machine, whose speed drifts by tens of percent
//! over minutes. A fixed slice of benchmark-owned work (none of it the
//! program's code) is timed about every 100 ms through the run, outside the
//! timed calls. The slice has two parts, timed apart: a cache-resident
//! compute part (xorshift steps, a least-loaded pick between neighbours in
//! a 1024-entry table, an integer division) and a sparse part (a
//! matrix-vector product over a random 40000-row CSR matrix with 10 entries
//! a row, about 3.7 MB). The slice time is the geometric mean of the two.
//! Over twelve alternating 12 s runs of `fresh-pubmed`, `sharded-pubmed`
//! and `skew-nell`, with a trial version of the sparse part timed on every
//! third slice, this mean tracked the drift of a request more closely
//! than either part alone: the runs' scaled median latencies varied with a
//! coefficient of variation of 0.017, 0.023 and 0.032, against 0.030,
//! 0.034 and 0.064 with the compute part alone. An 8 MB random-access
//! kernel, a streaming sum and a two-thread variant tracked it less well.
//!
//! A host time is reported scaled by `REFERENCE_SLICE_MS / slice time`:
//! the time it would have taken on a host where one slice takes the
//! reference time. End-to-end samples use the median slice within a second
//! of the sample, since the machine's speed changes within a run;
//! per-layer totals use the run's median.

use crate::metrics::median;
use std::time::{Duration, Instant};

/// Slice time of the host the reference speed was taken on (2 vCPUs of a
/// shared x86-64 VM, in its faster phases).
pub const REFERENCE_SLICE_MS: f64 = 3.0;

const TABLE_LEN: usize = 1024;
const SLICE_STEPS: usize = 600_000;
const SPARSE_ROWS: usize = 40_000;
const SPARSE_NNZ: usize = 400_000;
const SPARSE_PASSES: usize = 4;
const INTERVAL: Duration = Duration::from_millis(100);
/// Slices within this distance of a sample give its local speed.
const WINDOW: Duration = Duration::from_secs(1);
/// A sample's local speed uses at least this many of the nearest slices.
const MIN_SLICES: usize = 3;

pub struct Speed {
    table: Vec<u32>,
    state: u64,
    /// The sparse part's CSR matrix, its input vector and its output,
    /// recomputed from the same input on every pass.
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
    x: Vec<f32>,
    y: Vec<f32>,
    /// When each slice ended, and how long it took.
    slices: Vec<(Instant, f64)>,
}

impl Speed {
    pub fn new() -> Self {
        let mut h = 0x1234_5678_9abc_def0u64;
        let col_idx = (0..SPARSE_NNZ)
            .map(|_| {
                h ^= h << 13;
                h ^= h >> 7;
                h ^= h << 17;
                (h % SPARSE_ROWS as u64) as u32
            })
            .collect();
        let mut speed = Speed {
            table: (0..TABLE_LEN as u32).collect(),
            state: 0x9e37_79b9_7f4a_7c15,
            row_ptr: (0..=SPARSE_ROWS)
                .map(|r| (r * SPARSE_NNZ / SPARSE_ROWS) as u32)
                .collect(),
            col_idx,
            values: (0..SPARSE_NNZ).map(|e| (e % 7) as f32 * 0.1).collect(),
            x: (0..SPARSE_ROWS).map(|r| (r % 5) as f32).collect(),
            y: vec![0.0; SPARSE_ROWS],
            slices: Vec::new(),
        };
        speed.sample();
        speed
    }

    /// Times one slice: both parts, back to back.
    pub fn sample(&mut self) {
        let mask = TABLE_LEN - 1;
        let mut x = self.state;
        let mut acc = 0u64;
        let start = Instant::now();
        for _ in 0..SLICE_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (i, j) = (x as usize & mask, (x as usize + 1) & mask);
            let k = if self.table[i] < self.table[j] { i } else { j };
            self.table[k] = self.table[k].wrapping_add((x as u32 & 15) + 1);
            acc = acc.wrapping_add(u64::from(self.table[k]) / ((x & 3) + 1));
        }
        let compute_ms = start.elapsed().as_secs_f64() * 1e3;
        self.state = x ^ std::hint::black_box(acc);

        let start = Instant::now();
        for _ in 0..SPARSE_PASSES {
            for (r, out) in self.y.iter_mut().enumerate() {
                let entries = self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize;
                *out = entries
                    .map(|e| self.values[e] * self.x[self.col_idx[e] as usize])
                    .sum();
            }
            std::hint::black_box(&mut self.y);
        }
        let sparse_ms = start.elapsed().as_secs_f64() * 1e3;
        self.slices
            .push((Instant::now(), (compute_ms * sparse_ms).sqrt()));
    }

    /// Times a slice when the last one is more than an interval old.
    pub fn tick(&mut self) {
        if self
            .slices
            .last()
            .is_none_or(|(end, _)| end.elapsed() >= INTERVAL)
        {
            self.sample();
        }
    }

    pub fn slices(&self) -> usize {
        self.slices.len()
    }

    pub fn median_slice_ms(&self) -> f64 {
        median(&self.slices.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// Multiplier that takes a host time measured anywhere in this run to
    /// the reference speed.
    pub fn factor(&self) -> f64 {
        REFERENCE_SLICE_MS / self.median_slice_ms()
    }

    /// Multiplier for a host time measured around `at`.
    pub fn factor_at(&self, at: Instant) -> f64 {
        let distance = |end: Instant| {
            if end > at {
                end - at
            } else {
                at - end
            }
        };
        let mut near: Vec<(Duration, f64)> = self
            .slices
            .iter()
            .map(|&(end, ms)| (distance(end), ms))
            .collect();
        near.sort_by_key(|s| s.0);
        let keep = near
            .iter()
            .filter(|(d, _)| *d <= WINDOW)
            .count()
            .max(MIN_SLICES);
        let ms: Vec<f64> = near.iter().take(keep).map(|s| s.1).collect();
        REFERENCE_SLICE_MS / median(&ms)
    }

    /// Scales host-time samples, each taken around its instant.
    pub fn scale(&self, samples: &[(Instant, f64)]) -> Vec<f64> {
        samples
            .iter()
            .map(|&(at, value)| value * self.factor_at(at))
            .collect()
    }
}
