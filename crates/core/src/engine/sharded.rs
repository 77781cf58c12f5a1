//! Column-sharded execution: one rebalanced PE array per column shard, for
//! graphs whose adjacency does not fit a single device — or a single host.
//!
//! `A × B = Σ_s A[:, lo_s..hi_s] × B[lo_s..hi_s, :]`: each contiguous
//! column shard of the sparse operand is an independent sub-multiply that
//! runs on its own simulated accelerator — its own row→PE map, auto-tuner,
//! and replay cache, so a skewed shard converges to its own distribution
//! instead of inheriting a global compromise (`DESIGN.md` §7).
//!
//! One engine → plan → session stack ([`ShardedEngine`] →
//! [`ShardedPlan`] → [`ShardedSession`]) runs every shard pipeline. It is
//! generic over a [`ShardSource`] that says where the shard slices come
//! from:
//!
//! * [`Resident`] — every slice in memory, cut nnz-balanced from the first
//!   operand by a
//!   [`ColumnPartitioner`](awb_sparse::partition::ColumnPartitioner);
//!   shards execute concurrently on the [`exec`](crate::exec) substrate.
//!   A policy that resolves to one shard yields the *whole-operand cut*:
//!   one shard over every column that keeps no slice and hands its member
//!   the pass's own `A` and `B` by reference — the paper's single device,
//!   with no copy, and a merge that is the identity.
//! * [`Stored`] — slices read from a chunked on-disk [`SparseStore`],
//!   cut chunk-aligned from its manifest alone (no values loaded) and
//!   executed **sequentially** with a bounded working set: while shard `i`
//!   simulates and accumulates, shard `i+1`'s chunks are prefetched, and
//!   shard `i`'s slice is dropped after its rounds. Peak resident sparse
//!   bytes therefore stay within roughly two shards — the
//!   `--host-mem-budget` knob — however large the stored graph is
//!   (`DESIGN.md` §13).
//!
//! # Timing per member, numerics once per pass
//!
//! Members simulate **timing only**, by construction: rebalancing decides
//! which PE runs a MAC, never what it computes, so a member engine or
//! session returns just its shard's [`SpmmStats`]. The pass computes the
//! product once, in the same global-order column stream the unsharded
//! engines use, so sharded outputs are **bit-identical** to unsharded runs
//! — summing collapsed f32 shard partials would regroup the per-row
//! addition chains and drift in the last ulp. A physical multi-device
//! merge unit achieves the same determinism by accumulating shard partial
//! products in stream order; the simulator realizes that pinned order
//! directly:
//!
//! * a resident pass runs [`compute_columns`] on the whole operand, the
//!   one numerics kernel every timing engine uses;
//! * a stored pass never holds all of `A`, so its shards feed block
//!   accumulators that persist across shards (one per output block,
//!   drained once after the last shard). For every block, shards are
//!   visited in ascending column order and columns within a shard in
//!   ascending order, so the per-block reduction replays
//!   `csc_accumulate_block`'s global ascending-`j` stream — the same
//!   skip-if-all-zero rule, the same `csc_axpy_block` calls, the same
//!   final `drain_block_into`.
//!
//! Every member draws its simulator scratch from the pipeline's one
//! [`ScratchArena`], which also holds the output and the accumulators.
//!
//! # Stats semantics
//!
//! Shards are separate devices and the merge of round `k` completes when
//! the slowest shard finishes round `k` (the merge itself is pipelined
//! behind shard execution). Merged per-round cycles are therefore the
//! **max** over shards (the critical path); tasks/busy/stalls **sum**; the
//! PE count is the **total** across shard devices, so merged utilization is
//! `Σ busy / (critical-path cycles × total PEs)` — idle devices waiting on
//! the slowest shard honestly depress it. Shards whose stats report fewer
//! rounds than the longest shard are padded with empty (all-zero) rounds,
//! so unequal per-shard round counts merge without panic or truncation.
//! [`ShardedOutcome`] keeps the per-shard stats alongside the merged view
//! and exposes the critical-path/sum cycle aggregates directly.
//!
//! A stored pass additionally reports [`StreamStats`]: I/O traffic, the
//! peak resident slice bytes actually observed, and how much prefetch
//! wall-time overlapped compute. Prefetch runs as a second `par_map` task;
//! when the caller is itself inside an `exec` worker (nested parallelism
//! runs inline) the pass degrades to synchronous fetches — still correct,
//! just with `overlap_s = 0`, and accounted honestly as such.

use crate::config::AccelConfig;
use crate::engine::arena::{ArenaStats, ScratchArena};
use crate::engine::steady::{block_spans, compute_columns, structure_fingerprint};
use crate::engine::{check_shapes, FastEngine, SpmmEngine, SpmmOutcome, TunedPlan};
use crate::error::AccelError;
use crate::exec;
use crate::stats::{RoundStats, SpmmStats};
use awb_sparse::partition::ColumnPartitioner;
use awb_sparse::spmm::{csc_axpy_block, drain_block_into};
use awb_sparse::store::{SparseStore, StoreError};
use awb_sparse::{Csc, DenseMatrix};
use std::borrow::Cow;
use std::fmt::Debug;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Result of one sharded SPMM: the merged (critical-path) outcome plus
/// each shard's own statistics.
#[derive(Debug, Clone)]
pub struct ShardedOutcome {
    /// Merged view: output `C` (bit-identical to an unsharded run) and
    /// critical-path statistics over the total PE count.
    pub outcome: SpmmOutcome,
    /// Per-shard statistics, in shard (ascending column) order.
    pub per_shard: Vec<SpmmStats>,
    /// The pass's streaming statistics (`Some` for a [`Stored`] source).
    pub stream: Option<StreamStats>,
}

impl ShardedOutcome {
    /// End-to-end cycles on the critical path (per round, the slowest
    /// shard; rounds sequential). This is what the merged stats report.
    pub fn critical_path_cycles(&self) -> u64 {
        self.outcome.stats.total_cycles()
    }

    /// Total cycles summed over all shard devices — the aggregate machine
    /// time burned, the denominator that makes utilization honest.
    pub fn sum_cycles(&self) -> u64 {
        self.per_shard.iter().map(|s| s.total_cycles()).sum()
    }
}

/// I/O, residency, and overlap statistics of one streaming pass.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StreamStats {
    /// Column shards the pass streamed through.
    pub shards: usize,
    /// Peak bytes of sparse slices resident at once (current shard plus
    /// the prefetched next shard, at their largest).
    pub resident_peak_bytes: usize,
    /// Compressed bytes read from the store across the pass.
    pub io_bytes: u64,
    /// Wall seconds spent in per-shard simulate + accumulate.
    pub compute_s: f64,
    /// Wall seconds spent reading shard slices from the store.
    pub prefetch_s: f64,
    /// Wall seconds during which a prefetch ran concurrently with
    /// compute (per shard step: `min(compute wall, prefetch wall)`; 0
    /// when the pass ran inside an `exec` worker and fetched inline).
    pub overlap_s: f64,
}

impl StreamStats {
    /// Fraction of compute wall-time that had a prefetch running
    /// alongside it (0 when there was no compute).
    pub fn overlap_fraction(&self) -> f64 {
        if self.compute_s > 0.0 {
            (self.overlap_s / self.compute_s).min(1.0)
        } else {
            0.0
        }
    }
}

/// Maps a store failure into the accelerator's typed ingest error (bad
/// input is a typed rejection, never a panic mid-stream).
pub(crate) fn store_err(e: StoreError) -> AccelError {
    AccelError::InvalidInput(format!("sparse store: {e}"))
}

/// Merges per-shard SPMM statistics into the critical-path view (see the
/// module docs for the exact semantics).
fn merge_stats(label: &str, per_shard: &[SpmmStats]) -> SpmmStats {
    let n_pes: usize = per_shard.iter().map(|s| s.n_pes).sum();
    // Shards may report unequal round counts (e.g. per-shard tuning that
    // converged at different columns, or a degenerate empty shard): merge
    // over the *max*, padding exhausted shards with an empty round —
    // their device is idle, so it contributes nothing but a 0 to the
    // min-busy floor. Sizing from the first shard instead would panic on
    // a longer shard or silently drop its trailing rounds.
    let n_rounds = per_shard.iter().map(|s| s.rounds.len()).max().unwrap_or(0);
    let empty = RoundStats {
        cycles: 0,
        tasks: 0,
        busy_cycles: 0,
        max_pe_busy: 0,
        min_pe_busy: 0,
        max_queue_depth: 0,
        raw_stalls: 0,
        tuning_active: false,
    };
    let mut rounds = Vec::with_capacity(n_rounds);
    for r in 0..n_rounds {
        let mut merged = RoundStats {
            min_pe_busy: u64::MAX,
            ..empty
        };
        for s in per_shard {
            let rs = s.rounds.get(r).unwrap_or(&empty);
            merged.cycles = merged.cycles.max(rs.cycles);
            merged.tasks += rs.tasks;
            merged.busy_cycles += rs.busy_cycles;
            merged.max_pe_busy = merged.max_pe_busy.max(rs.max_pe_busy);
            merged.min_pe_busy = merged.min_pe_busy.min(rs.min_pe_busy);
            merged.max_queue_depth = merged.max_queue_depth.max(rs.max_queue_depth);
            merged.raw_stalls += rs.raw_stalls;
            merged.tuning_active |= rs.tuning_active;
        }
        if merged.min_pe_busy == u64::MAX {
            merged.min_pe_busy = 0;
        }
        rounds.push(merged);
    }
    // Per-PE queue high-water marks concatenate across shard devices, so
    // the area model's total-TQ-slots sum spans the whole deployment.
    let queue_high_water = per_shard
        .iter()
        .flat_map(|s| s.queue_high_water.iter().copied())
        .collect();
    SpmmStats {
        label: label.to_owned(),
        n_pes,
        rounds,
        queue_high_water,
    }
}

/// One column shard: its range of the full operand, its non-zeros, what
/// the source keeps of its slice, and its device — a tuning-live member
/// engine inside a [`ShardedEngine`], a frozen [`TunedPlan`] inside a
/// [`ShardedPlan`].
#[derive(Debug, Clone)]
pub struct Shard<S: ShardSource = Resident, D = TunedPlan> {
    cols: Range<usize>,
    nnz: usize,
    slice: S::Slice,
    device: D,
}

impl<S: ShardSource, D> Shard<S, D> {
    /// Non-zeros in the shard.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The shard's rows of the dense operand: `b` itself for a shard over
    /// every column, a copy of its row range otherwise.
    fn rows_of<'b>(&self, b: &'b DenseMatrix) -> Cow<'b, DenseMatrix> {
        if self.cols == (0..b.rows()) {
            Cow::Borrowed(b)
        } else {
            Cow::Owned(b.row_range(self.cols.clone()))
        }
    }

    /// The same shard on another device (freezing swaps each member
    /// engine for its plan; the slice handle is shared, not re-copied).
    fn on<E>(&self, device: E) -> Shard<S, E> {
        Shard {
            cols: self.cols.clone(),
            nnz: self.nnz,
            slice: self.slice.clone(),
            device,
        }
    }
}

/// One request's inputs to [`ShardSource::execute`].
#[derive(Debug, Clone, Copy)]
pub struct Pass<'a> {
    a: &'a Csc,
    b: &'a DenseMatrix,
    label: &'a str,
    /// The pipeline's pool, for the output and the accumulators.
    arena: &'a ScratchArena,
    /// Host worker threads; `None` defers to [`exec::num_threads`].
    threads: Option<usize>,
}

/// Simulates the timing of one shard on its device, given the shard's
/// column slice and the matching rows of `B`.
pub type RunOne<'a, D> =
    dyn Fn(&D, &Csc, &DenseMatrix) -> Result<SpmmStats, AccelError> + Sync + 'a;

/// Where a shard pipeline's column slices come from. The engine, plan and
/// session are written once over this trait; a source supplies only what
/// differs between holding every slice in memory ([`Resident`]) and
/// reading each from an on-disk store per pass ([`Stored`]).
pub trait ShardSource: Debug + Clone + Send + Sync + Sized {
    /// What a shard keeps of its column slice between passes.
    type Slice: Debug + Clone + Send + Sync;

    /// Checks `a` against the bound operand ([`AccelError::InvalidConfig`]
    /// if it is not). A source that cuts lazily binds to the first operand
    /// it sees and returns the shard cuts.
    fn bind(&mut self, a: &Csc) -> Result<Option<Vec<Shard<Self, ()>>>, AccelError>;

    /// Checks that `a` is the operand this source serves
    /// ([`AccelError::InvalidConfig`] if not). `trusted` skips an `O(nnz)`
    /// structure re-hash, for callers that own the operand.
    fn check(&self, a: &Csc, trusted: bool) -> Result<(), AccelError>;

    /// Heap bytes one shard's kept slice holds resident.
    fn slice_bytes(slice: &Self::Slice) -> u64;

    /// Materializes one shard's column slice of the operand `a`
    /// ([`AccelError::InvalidInput`] when a store read fails).
    fn load<'s, D>(
        &self,
        a: &'s Csc,
        shard: &'s Shard<Self, D>,
    ) -> Result<Cow<'s, Csc>, AccelError>;

    /// Executes one request: `run_one` on every shard's device, the
    /// pinned-order numerics once, and the merged statistics. Fails with
    /// the first shard error or store read failure.
    fn execute<D: Sync>(
        &self,
        shards: &[Shard<Self, D>],
        pass: Pass<'_>,
        run_one: &RunOne<'_, D>,
    ) -> Result<ShardedOutcome, AccelError>;
}

/// Every shard's column slice held in memory, `Arc`-shared between the
/// engine and the plans it freezes. Shards are cut from the first operand
/// and bound to its exact sparsity structure; they run concurrently. When
/// the partitioner resolves to one shard (`is_single`, `O(1)`) the cut is
/// the whole operand and keeps no slice at all.
#[derive(Debug, Clone)]
pub struct Resident {
    partitioner: ColumnPartitioner,
    /// Rows, columns, nnz and structure fingerprint of the bound operand.
    operand: Option<(usize, usize, usize, u64)>,
}

fn operand_of(a: &Csc) -> (usize, usize, usize, u64) {
    (a.rows(), a.cols(), a.nnz(), structure_fingerprint(a))
}

impl ShardSource for Resident {
    /// `None` for the whole-operand cut, which reads the pass's own `A`.
    type Slice = Option<Arc<Csc>>;

    fn bind(&mut self, a: &Csc) -> Result<Option<Vec<Shard<Self, ()>>>, AccelError> {
        if self.operand.is_some() {
            return self.check(a, false).map(|()| None);
        }
        self.operand = Some(operand_of(a));
        // `is_single` also covers a 0-column operand, for which the
        // partitioner returns no shards.
        if self.partitioner.is_single(a) {
            return Ok(Some(vec![Shard {
                cols: 0..a.cols(),
                nnz: a.nnz(),
                slice: None,
                device: (),
            }]));
        }
        let cuts = self
            .partitioner
            .partition(a)
            .into_iter()
            .map(|shard| Shard {
                slice: Some(Arc::new(shard.slice(a))),
                cols: shard.cols,
                nnz: shard.nnz,
                device: (),
            })
            .collect();
        Ok(Some(cuts))
    }

    fn check(&self, a: &Csc, trusted: bool) -> Result<(), AccelError> {
        let operand = self.operand.expect("checked only once bound to an operand");
        if a.rows() != operand.0 {
            return Err(AccelError::InvalidConfig(format!(
                "sharded plan tuned for {} rows used with {} rows",
                operand.0,
                a.rows()
            )));
        }
        let have = if trusted { operand } else { operand_of(a) };
        if have != operand {
            return Err(AccelError::InvalidConfig(format!(
                "operand structure fingerprint {:#018x} does not match the shards' {:#018x} \
                 (shard slices are valid for exactly one sparsity structure)",
                have.3, operand.3
            )));
        }
        Ok(())
    }

    fn slice_bytes(slice: &Option<Arc<Csc>>) -> u64 {
        slice.as_ref().map_or(0, |s| s.heap_bytes() as u64)
    }

    fn load<'s, D>(
        &self,
        a: &'s Csc,
        shard: &'s Shard<Self, D>,
    ) -> Result<Cow<'s, Csc>, AccelError> {
        Ok(Cow::Borrowed(shard.slice.as_deref().unwrap_or(a)))
    }

    fn execute<D: Sync>(
        &self,
        shards: &[Shard<Self, D>],
        pass: Pass<'_>,
        run_one: &RunOne<'_, D>,
    ) -> Result<ShardedOutcome, AccelError> {
        let Pass { a, b, arena, .. } = pass;
        let threads = pass.threads.unwrap_or_else(exec::num_threads);
        // One shard runs inline, so its member keeps every worker.
        let per_shard = exec::par_map_threads(threads, shards, |shard| {
            let slice = self.load(a, shard)?;
            run_one(&shard.device, &slice, &shard.rows_of(b))
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedOutcome {
            outcome: SpmmOutcome {
                c: compute_columns(a, b, threads, arena),
                stats: merge_stats(pass.label, &per_shard),
            },
            per_shard,
            stream: None,
        })
    }
}

/// Shard slices read from a chunked on-disk [`SparseStore`] on every pass,
/// at most two resident at a time (see the module docs). Shards are cut
/// chunk-aligned from the manifest so that two consecutive slices fit the
/// host budget together.
#[derive(Debug, Clone)]
pub struct Stored {
    store: Arc<SparseStore>,
    host_budget: usize,
}

/// Plans chunk-aligned shards for `store` so that two consecutive shard
/// slices fit the host budget together (double buffering: compute on one
/// while prefetching the other).
fn plan_stream_shards(store: &SparseStore, host_budget: usize) -> Vec<Shard<Stored, ()>> {
    let per_shard = (host_budget / 2).max(1);
    let cut = |cols: Range<usize>, nnz: usize| Shard {
        cols,
        nnz,
        slice: (),
        device: (),
    };
    let mut cuts: Vec<_> = ColumnPartitioner::by_resident_bytes(per_shard)
        .partition_chunks(store.rows(), store.column_chunks())
        .into_iter()
        .map(|s| cut(s.cols, s.nnz))
        .collect();
    if cuts.is_empty() {
        // Degenerate 0-column store: keep one empty shard so a pass still
        // produces a (rows × k) output and well-formed stats.
        cuts.push(cut(0..store.cols(), 0));
    }
    cuts
}

/// Compressed bytes the store reads to materialize this column range
/// (shards are chunk-aligned, so overlapping chunks are read exactly
/// once and this sum is exact).
fn range_disk_bytes(store: &SparseStore, range: &Range<usize>) -> u64 {
    store
        .column_chunks()
        .iter()
        .filter(|c| c.lines.start < range.end && c.lines.end > range.start)
        .map(|c| c.disk_bytes)
        .sum()
}

/// One step's task in the two-lane overlap pipeline.
#[derive(Debug, Clone, Copy)]
enum Lane {
    Compute,
    Prefetch,
}

/// A lane's result: the shard's timing stats or the next shard's slice,
/// each with its wall time.
enum LaneOut {
    Computed(Result<SpmmStats, AccelError>, f64),
    Fetched(Result<Csc, StoreError>, f64),
}

impl ShardSource for Stored {
    type Slice = ();

    fn bind(&mut self, a: &Csc) -> Result<Option<Vec<Shard<Self, ()>>>, AccelError> {
        self.check(a, false).map(|()| None)
    }

    /// Checks dimensions, nnz, and full `Col Ptr` equality against the
    /// store's resident pointer — `O(cols)`, cheap enough for every run,
    /// so `trusted` changes nothing. A forged operand with identical
    /// structure but different values would go undetected here, which is
    /// the same trust model as `TunedPlan`'s values-free fingerprint.
    fn check(&self, a: &Csc, _trusted: bool) -> Result<(), AccelError> {
        let store = &self.store;
        if a.rows() != store.rows()
            || a.cols() != store.cols()
            || a.nnz() != store.nnz()
            || a.col_ptr() != store.col_ptr()
        {
            return Err(AccelError::InvalidConfig(format!(
                "operand ({}x{}, {} nnz) is not the matrix stored at {} ({}x{}, {} nnz) — \
                 streaming plans are valid for exactly the stored operand",
                a.rows(),
                a.cols(),
                a.nnz(),
                store.dir().display(),
                store.rows(),
                store.cols(),
                store.nnz()
            )));
        }
        Ok(())
    }

    fn slice_bytes(_slice: &()) -> u64 {
        0
    }

    fn load<'s, D>(
        &self,
        _a: &'s Csc,
        shard: &'s Shard<Self, D>,
    ) -> Result<Cow<'s, Csc>, AccelError> {
        let slice = self.store.read_col_range(shard.cols.clone());
        slice.map(Cow::Owned).map_err(store_err)
    }

    /// Sequential shards, prefetch overlapped with compute, pinned-order
    /// numerics into persistent block accumulators drained after the last
    /// shard.
    fn execute<D: Sync>(
        &self,
        shards: &[Shard<Self, D>],
        pass: Pass<'_>,
        run_one: &RunOne<'_, D>,
    ) -> Result<ShardedOutcome, AccelError> {
        let Pass { b, arena, .. } = pass;
        let store = &self.store;
        let rows = store.rows();
        let mut c = DenseMatrix::from_vec(rows, b.cols(), arena.take_f32(rows * b.cols()))
            .expect("arena buffer sized to the output matrix");
        let spans = block_spans(b.cols());
        // Persistent per-block accumulators: unlike `compute_columns`,
        // which re-scans a resident operand per block, each block
        // accumulates every shard's contribution and is drained exactly
        // once at the end. The mutex is uncontended (only the compute lane
        // touches it); it exists because the lane closure must be
        // `Fn + Sync`.
        let accs = Mutex::new(
            spans
                .iter()
                .map(|&(_, width)| arena.checkout_f32(rows * width))
                .collect::<Vec<_>>(),
        );

        // Two lanes whenever more than one worker is in play — configured
        // explicitly or ambient — because the prefetch lane blocks on file
        // I/O, which overlaps with compute even on one core. Nested
        // `par_map` runs inline inside an exec worker, so overlap is only
        // claimed when this pass genuinely runs its lanes on separate
        // threads.
        let workers = pass.threads.unwrap_or_else(exec::num_threads);
        let lanes = if workers > 1 && !exec::in_worker() {
            2
        } else {
            1
        };
        let mut stats = StreamStats {
            shards: shards.len(),
            ..StreamStats::default()
        };
        let mut per_shard: Vec<SpmmStats> = Vec::with_capacity(shards.len());

        // The first fetch has nothing to overlap with.
        let t0 = Instant::now();
        let mut cur = store
            .read_col_range(shards[0].cols.clone())
            .map_err(store_err)?;
        stats.prefetch_s += t0.elapsed().as_secs_f64();
        stats.io_bytes += range_disk_bytes(store, &shards[0].cols);
        stats.resident_peak_bytes = cur.heap_bytes();

        for (s, shard) in shards.iter().enumerate() {
            let range = &shard.cols;
            let next = shards.get(s + 1).map(|n| n.cols.clone());
            let tasks: Vec<Lane> = if next.is_some() {
                vec![Lane::Compute, Lane::Prefetch]
            } else {
                vec![Lane::Compute]
            };
            let cur_ref = &cur;
            let accs_ref = &accs;
            let next_ref = &next;
            let outs = exec::par_map_threads(lanes, &tasks, |lane| match lane {
                Lane::Compute => {
                    let t0 = Instant::now();
                    let timed = run_one(&shard.device, cur_ref, &shard.rows_of(b)).map(|stats| {
                        // Numerics: ascending global column order within
                        // each block (shards ascending, `j` ascending
                        // inside the shard), the pinned reduction stream.
                        let mut accs = accs_ref.lock().unwrap_or_else(PoisonError::into_inner);
                        for (bi, &(k0, width)) in spans.iter().enumerate() {
                            let acc = &mut accs[bi];
                            for j in 0..cur_ref.cols() {
                                let scales = &b.row(range.start + j)[k0..k0 + width];
                                if scales.iter().all(|&s| s == 0.0) {
                                    continue;
                                }
                                csc_axpy_block(cur_ref, j, scales, acc);
                            }
                        }
                        stats
                    });
                    LaneOut::Computed(timed, t0.elapsed().as_secs_f64())
                }
                Lane::Prefetch => {
                    let t0 = Instant::now();
                    let fetched = store
                        .read_col_range(next_ref.clone().expect("prefetch lane only with next"));
                    LaneOut::Fetched(fetched, t0.elapsed().as_secs_f64())
                }
            });

            let mut fetched_next: Option<Csc> = None;
            let mut compute_wall = 0.0f64;
            let mut prefetch_wall: Option<f64> = None;
            for out in outs {
                match out {
                    LaneOut::Computed(r, wall) => {
                        per_shard.push(r?);
                        compute_wall = wall;
                    }
                    LaneOut::Fetched(r, wall) => {
                        fetched_next = Some(r.map_err(store_err)?);
                        prefetch_wall = Some(wall);
                    }
                }
            }
            stats.compute_s += compute_wall;
            if let Some(wall) = prefetch_wall {
                stats.prefetch_s += wall;
                if lanes > 1 {
                    stats.overlap_s += compute_wall.min(wall);
                }
            }
            match fetched_next {
                Some(next_slice) => {
                    stats.io_bytes += range_disk_bytes(store, next.as_ref().expect("fetched"));
                    // Both buffers were resident while the prefetch completed.
                    stats.resident_peak_bytes = stats
                        .resident_peak_bytes
                        .max(cur.heap_bytes() + next_slice.heap_bytes());
                    cur = next_slice; // previous shard's slice drops here
                }
                None => {
                    stats.resident_peak_bytes = stats.resident_peak_bytes.max(cur.heap_bytes());
                }
            }
        }

        let mut accs = accs.into_inner().unwrap_or_else(PoisonError::into_inner);
        for (&(k0, width), acc) in spans.iter().zip(accs.iter_mut()) {
            drain_block_into(&mut c, k0, width, acc);
        }

        Ok(ShardedOutcome {
            outcome: SpmmOutcome {
                c,
                stats: merge_stats(pass.label, &per_shard),
            },
            per_shard,
            stream: Some(stats),
        })
    }
}

/// [`ShardedEngine`] over a [`Stored`] source: out-of-core execution.
pub type StreamingEngine = ShardedEngine<Stored>;

/// [`ShardedPlan`] over a [`Stored`] source.
pub type StreamedPlan = ShardedPlan<Stored>;

fn new_arena(config: &AccelConfig) -> Arc<ScratchArena> {
    Arc::new(if config.scratch_reuse {
        ScratchArena::new()
    } else {
        ScratchArena::disabled()
    })
}

/// Poison-recovering lock on a member engine. Sound for the same reason
/// as `ReplayCache`: a member's replayable state (frozen map + memoized
/// timings) is only ever mutated in complete, deterministic units, so the
/// post-panic state a recovering lock observes is a consistent prefix of
/// finished rounds — an isolated request's panic must not brick the other
/// tenants' shard engines.
fn lock(engine: &Mutex<FastEngine>) -> MutexGuard<'_, FastEngine> {
    engine.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A tuning-live shard engine: the multi-device analogue of
/// [`FastEngine`]. Each shard owns a timing-only `FastEngine` whose
/// auto-tuner converges on that shard's own density profile. Freeze via
/// [`freeze_plan`](ShardedEngine::freeze_plan) into a shareable
/// [`ShardedPlan`].
///
/// A resident engine cuts its shards with the configuration's
/// aggregation-side [`ShardPolicy`](crate::ShardPolicy) (or an explicit
/// partitioner via [`with_partitioner`](ShardedEngine::with_partitioner)
/// — how the combination phase shards each layer's feature matrix). A
/// stored engine ([`from_store`](ShardedEngine::from_store)) cuts them
/// from the store's manifest. Unlike `FastEngine` (which only pins the row
/// count), either is bound to the exact operand it was cut for: reusing
/// it with a structurally different operand is rejected.
#[derive(Debug)]
pub struct ShardedEngine<S: ShardSource = Resident> {
    config: AccelConfig,
    source: S,
    shards: Vec<Shard<S, Mutex<FastEngine>>>,
    /// The pipeline's one scratch pool — the output, the accumulators
    /// and every member's simulator scratch; shared into the frozen plan.
    arena: Arc<ScratchArena>,
    /// The last run's streaming statistics.
    stream: Option<StreamStats>,
}

impl ShardedEngine {
    /// Creates an engine; shards are cut from the first operand it runs,
    /// using the configuration's aggregation-side policy
    /// ([`AccelConfig::partitioner`]).
    pub fn new(config: AccelConfig) -> Self {
        let partitioner = config.partitioner();
        ShardedEngine::with_partitioner(config, partitioner)
    }

    /// Creates an engine that cuts shards with an explicit partitioner
    /// instead of the configuration's aggregation-side policy — e.g.
    /// [`AccelConfig::combination_partitioner`] for the `X × W` phase.
    pub fn with_partitioner(config: AccelConfig, partitioner: ColumnPartitioner) -> Self {
        let source = Resident {
            partitioner,
            operand: None,
        };
        ShardedEngine::from_source(config, source, Vec::new())
    }
}

impl ShardedEngine<Stored> {
    /// Builds a streaming engine over an already-opened store. Shard cuts
    /// are planned from the manifest's per-chunk nnz profiles alone —
    /// `O(chunks)`, no values loaded — such that two consecutive shard
    /// slices together stay within `host_budget` bytes (chunk granularity
    /// permitting: a single chunk larger than half the budget still
    /// becomes its own shard).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] if `host_budget == 0`.
    pub fn from_store(
        config: AccelConfig,
        store: Arc<SparseStore>,
        host_budget: usize,
    ) -> Result<Self, AccelError> {
        if host_budget == 0 {
            return Err(AccelError::InvalidConfig(
                "host memory budget must be >= 1 byte".into(),
            ));
        }
        let cuts = plan_stream_shards(&store, host_budget);
        let source = Stored { store, host_budget };
        Ok(ShardedEngine::from_source(config, source, cuts))
    }

    /// Opens the store at `dir` (full ingest validation) and builds a
    /// streaming engine over it.
    ///
    /// # Errors
    ///
    /// [`AccelError::InvalidInput`] when the store is missing or corrupt;
    /// [`AccelError::InvalidConfig`] if `host_budget == 0`.
    pub fn open(
        config: AccelConfig,
        dir: impl AsRef<std::path::Path>,
        host_budget: usize,
    ) -> Result<Self, AccelError> {
        let store = SparseStore::open(dir).map_err(store_err)?;
        ShardedEngine::from_store(config, Arc::new(store), host_budget)
    }
}

impl<S: ShardSource> ShardedEngine<S> {
    fn from_source(config: AccelConfig, source: S, cuts: Vec<Shard<S, ()>>) -> Self {
        let mut engine = ShardedEngine {
            arena: new_arena(&config),
            config,
            source,
            shards: Vec::new(),
            stream: None,
        };
        engine.install(&cuts);
        engine
    }

    /// Gives every cut its own timing-only member engine, drawing its
    /// scratch from the pipeline's arena.
    fn install(&mut self, cuts: &[Shard<S, ()>]) {
        self.shards = cuts
            .iter()
            .map(|cut| {
                let mut engine = FastEngine::new(self.config.clone());
                engine.set_arena(Arc::clone(&self.arena));
                cut.on(Mutex::new(engine))
            })
            .collect();
    }

    fn bind(&mut self, a: &Csc) -> Result<(), AccelError> {
        if let Some(cuts) = self.source.bind(a)? {
            self.install(&cuts);
        }
        Ok(())
    }

    fn sum_members(&self, count: impl Fn(&FastEngine) -> u64) -> u64 {
        self.shards.iter().map(|s| count(&lock(&s.device))).sum()
    }

    /// Replaces the pipeline's scratch arena, for the engine and every
    /// member — lets an owner (e.g. `GcnRunner`) share one pool across
    /// phases instead of holding one per engine.
    pub fn set_arena(&mut self, arena: Arc<ScratchArena>) {
        for shard in &self.shards {
            lock(&shard.device).set_arena(Arc::clone(&arena));
        }
        self.arena = arena;
    }

    /// Allocation/reuse counters of the pipeline's one arena.
    pub fn scratch_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// Number of shards (0 before a resident engine's first run).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Rows exchanged by remote switching so far, summed over shard
    /// engines.
    pub fn total_switches(&self) -> u64 {
        self.sum_members(FastEngine::total_switches)
    }

    /// Replay-cache hits summed over shard engines.
    pub fn replay_hits(&self) -> u64 {
        self.sum_members(FastEngine::replay_hits)
    }

    /// Replay-cache misses summed over shard engines.
    pub fn replay_misses(&self) -> u64 {
        self.sum_members(FastEngine::replay_misses)
    }

    /// Runs one sharded SPMM, returning the merged outcome plus per-shard
    /// statistics.
    ///
    /// # Errors
    ///
    /// Shape errors, [`AccelError::InvalidConfig`] when the engine was cut
    /// for a different operand, or [`AccelError::InvalidInput`] when a
    /// store read fails.
    pub fn run_detailed(
        &mut self,
        a: &Csc,
        b: &DenseMatrix,
        label: &str,
    ) -> Result<ShardedOutcome, AccelError> {
        check_shapes(a, b)?;
        self.bind(a)?;
        let pass = Pass {
            a,
            b,
            label,
            arena: &self.arena,
            threads: self.config.threads,
        };
        let outcome = self
            .source
            .execute(&self.shards, pass, &|engine, slice, b| {
                lock(engine).simulate(slice, b, label)
            })?;
        self.stream = outcome.stream;
        Ok(outcome)
    }

    /// Freezes every shard engine's tuning state into a shareable
    /// [`ShardedPlan`] (one [`FastEngine::freeze_plan`] per member).
    /// Stored slices are re-read one at a time, so freezing obeys the same
    /// memory bound as running.
    ///
    /// # Errors
    ///
    /// [`AccelError::InvalidConfig`] when `a` is not the operand the
    /// engine was cut for; [`AccelError::InvalidInput`] if a store read
    /// fails.
    pub fn freeze_plan(&mut self, a: &Csc) -> Result<ShardedPlan<S>, AccelError> {
        self.bind(a)?;
        let shards = self
            .shards
            .iter()
            .map(|shard| {
                let slice = self.source.load(a, shard)?;
                let plan = lock(&shard.device).freeze_plan(&slice)?;
                Ok(shard.on(plan))
            })
            .collect::<Result<_, AccelError>>()?;
        Ok(ShardedPlan {
            config: self.config.clone(),
            source: self.source.clone(),
            shards,
            arena: Arc::clone(&self.arena),
        })
    }
}

impl<S: ShardSource> SpmmEngine for ShardedEngine<S> {
    fn run(&mut self, a: &Csc, b: &DenseMatrix, label: &str) -> Result<SpmmOutcome, AccelError> {
        self.run_detailed(a, b, label).map(|s| s.outcome)
    }

    fn config(&self) -> &AccelConfig {
        &self.config
    }

    fn stream_stats(&self) -> Option<StreamStats> {
        self.stream
    }
}

/// Frozen sharded tuning state: one [`TunedPlan`] per column shard plus
/// the source bound to the planned operand (a whole-operand plan holds
/// exactly one, for the single device); produced by
/// [`ShardedEngine::freeze_plan`], executed via
/// [`session`](ShardedPlan::session). `Sync` for the same reason plans
/// are: shard maps are immutable, shard replay caches are monotone.
#[derive(Debug, Clone)]
pub struct ShardedPlan<S: ShardSource = Resident> {
    config: AccelConfig,
    source: S,
    shards: Vec<Shard<S>>,
    /// The pipeline's one scratch pool — the output, the accumulators and
    /// every member plan's simulator scratch — shared (`Arc`) with the
    /// engine that froze the plan and across plan clones. Deliberately
    /// excluded from [`memory_bytes`](Self::memory_bytes): retention is
    /// transient scratch bounded by the worker count, observable via
    /// [`scratch_stats`](Self::scratch_stats).
    arena: Arc<ScratchArena>,
}

impl<S: ShardSource> ShardedPlan<S> {
    fn sum_plans(&self, count: impl Fn(&TunedPlan) -> u64) -> u64 {
        self.shards.iter().map(|s| count(&s.device)).sum()
    }

    /// The configuration the plan was tuned under.
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The frozen shards, in ascending column order.
    pub fn shards(&self) -> &[Shard<S>] {
        &self.shards
    }

    /// True when `a` is the operand this plan was cut for.
    pub fn matches(&self, a: &Csc) -> bool {
        self.source.check(a, false).is_ok()
    }

    /// Auto-tuning rounds spent before freezing, summed over shards.
    pub fn tuning_rounds(&self) -> usize {
        self.sum_plans(|p| p.tuning_rounds() as u64) as usize
    }

    /// Rows exchanged by remote switching during warm-up, summed over
    /// shards.
    pub fn total_switches(&self) -> u64 {
        self.sum_plans(TunedPlan::total_switches)
    }

    /// Replay hits summed over shard caches.
    pub fn replay_hits(&self) -> u64 {
        self.sum_plans(TunedPlan::replay_hits)
    }

    /// Replay misses summed over shard caches.
    pub fn replay_misses(&self) -> u64 {
        self.sum_plans(TunedPlan::replay_misses)
    }

    /// Allocation/reuse counters of the pipeline's one arena. `created`
    /// stable across warm requests ⇔ serving is allocation-free in steady
    /// state.
    pub fn scratch_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// The pipeline's arena (crate-internal: `GcnPlan` unifies its layer
    /// scratch with it).
    pub(crate) fn arena(&self) -> &Arc<ScratchArena> {
        &self.arena
    }

    /// Estimated heap bytes resident across all shards: each frozen
    /// per-shard [`TunedPlan`] (row map + replay cache) plus, for resident
    /// multi-shard cuts, the column-slice copy of the operand. The
    /// whole-operand cut keeps no slice, and a stored operand is *not*
    /// resident, which is the point.
    pub fn memory_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| S::slice_bytes(&s.slice) + s.device.memory_bytes())
            .sum()
    }

    /// Opens a per-request execution session against this plan.
    pub fn session(&self) -> ShardedSession<'_, S> {
        ShardedSession {
            plan: self,
            trusted: false,
            threads: self.config.threads,
            stream: None,
        }
    }

    /// A session that skips the per-run O(nnz) fingerprint re-hash (for
    /// callers that own the exact operand, e.g. `GcnPlan`).
    pub(crate) fn session_trusted(&self) -> ShardedSession<'_, S> {
        ShardedSession {
            trusted: true,
            ..self.session()
        }
    }
}

impl ShardedPlan {
    /// The sole member plan of a whole-operand plan (the single device);
    /// `None` for a multi-shard cut.
    pub(crate) fn whole_plan(&self) -> Option<&TunedPlan> {
        match self.shards.as_slice() {
            [shard] if shard.slice.is_none() => Some(&shard.device),
            _ => None,
        }
    }
}

impl ShardedPlan<Stored> {
    /// The backing store.
    pub fn store(&self) -> &SparseStore {
        &self.source.store
    }

    /// The host-memory budget in bytes the shard plan was sized for.
    pub fn host_budget(&self) -> usize {
        self.source.host_budget
    }
}

/// A cheap per-request executor over a shared [`ShardedPlan`] — the
/// sharded analogue of [`SpmmSession`](crate::SpmmSession). Every shard
/// round runs under its frozen map (no tuning, ever), with the source's
/// execution body, and the merged output is pinned bit-identical to the
/// unsharded path.
#[derive(Debug, Clone)]
pub struct ShardedSession<'p, S: ShardSource = Resident> {
    plan: &'p ShardedPlan<S>,
    trusted: bool,
    threads: Option<usize>,
    /// The last `run`'s streaming statistics.
    stream: Option<StreamStats>,
}

impl<'p, S: ShardSource> ShardedSession<'p, S> {
    /// The plan this session executes against.
    pub fn plan(&self) -> &'p ShardedPlan<S> {
        self.plan
    }

    /// Overrides the worker-thread count for this session (`None`
    /// restores the [`exec::num_threads`] default). Results are
    /// bit-identical at any setting.
    pub fn set_threads(&mut self, threads: Option<usize>) {
        self.threads = threads;
    }

    /// Runs one request, returning the merged outcome plus per-shard
    /// statistics.
    ///
    /// # Errors
    ///
    /// Shape errors, [`AccelError::InvalidConfig`] when the operand is not
    /// the one the plan was cut for, or [`AccelError::InvalidInput`] when
    /// a store read fails.
    pub fn run_detailed(
        &self,
        a: &Csc,
        b: &DenseMatrix,
        label: &str,
    ) -> Result<ShardedOutcome, AccelError> {
        check_shapes(a, b)?;
        let plan = self.plan;
        plan.source.check(a, self.trusted)?;
        let threads = self.threads;
        let pass = Pass {
            a,
            b,
            label,
            arena: &plan.arena,
            threads,
        };
        plan.source.execute(
            &plan.shards,
            pass,
            &|shard_plan: &TunedPlan, slice, b_slice| {
                // Trusted: the slice is the one the shard plan was frozen
                // from.
                let mut session = shard_plan.session_trusted();
                session.set_threads(threads);
                session.simulate(slice, b_slice, label)
            },
        )
    }
}

impl<S: ShardSource> SpmmEngine for ShardedSession<'_, S> {
    fn run(&mut self, a: &Csc, b: &DenseMatrix, label: &str) -> Result<SpmmOutcome, AccelError> {
        let detailed = self.run_detailed(a, b, label)?;
        self.stream = detailed.stream;
        Ok(detailed.outcome)
    }

    fn config(&self) -> &AccelConfig {
        &self.plan.config
    }

    /// This session's own last pass: concurrent sessions on one plan never
    /// see each other's figures.
    fn stream_stats(&self) -> Option<StreamStats> {
        self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Design, ShardPolicy};
    use awb_sparse::{spmm, Coo};

    fn skewed(n: usize, heavy_nnz: usize) -> Csc {
        let mut coo = Coo::new(n, n);
        for c in 0..heavy_nnz.min(n) {
            coo.push(0, c, 1.0).unwrap();
            coo.push(1, (c + 1) % n, 0.5).unwrap();
        }
        for r in 2..n {
            coo.push(r, (r * 7) % n, 1.0).unwrap();
        }
        coo.to_csc()
    }

    fn dense(rows: usize, cols: usize) -> DenseMatrix {
        let data: Vec<f32> = (0..rows * cols).map(|i| ((i % 7) as f32) - 3.0).collect();
        DenseMatrix::from_vec(rows, cols, data).unwrap()
    }

    fn config(n_pes: usize, shards: usize) -> AccelConfig {
        let mut builder = AccelConfig::builder();
        builder.n_pes(n_pes).shards(ShardPolicy::Fixed(shards));
        Design::LocalPlusRemote { hop: 1 }.apply(builder.build().unwrap())
    }

    #[test]
    fn sharded_output_matches_unsharded_bitwise() {
        let a = skewed(96, 60);
        let b = dense(96, 10);
        let mut unsharded = FastEngine::new(config(8, 1));
        let reference = unsharded.run(&a, &b, "t").unwrap();
        for shards in [1, 2, 3, 4, 7] {
            let mut engine = ShardedEngine::new(config(8, shards));
            let out = engine.run(&a, &b, "t").unwrap();
            assert_eq!(out.c, reference.c, "{shards} shards");
            let expect = spmm::csc_times_dense(&a, &b).unwrap();
            assert!(out.c.approx_eq(&expect, 1e-4));
        }
    }

    #[test]
    fn single_shard_stats_match_unsharded() {
        // One shard = one device: the merged view degenerates to exactly
        // the unsharded engine's stats.
        let a = skewed(64, 40);
        let b = dense(64, 6);
        let mut unsharded = FastEngine::new(config(8, 1));
        let reference = unsharded.run(&a, &b, "t").unwrap();
        let mut engine = ShardedEngine::new(config(8, 1));
        let out = engine.run(&a, &b, "t").unwrap();
        assert_eq!(out.stats, reference.stats);
        assert_eq!(out.c, reference.c);
    }

    #[test]
    fn stats_views_and_conservation() {
        let a = skewed(96, 60);
        let b = dense(96, 8);
        let mut engine = ShardedEngine::new(config(8, 4));
        let out = engine.run_detailed(&a, &b, "t").unwrap();
        assert_eq!(out.per_shard.len(), 4);
        assert_eq!(engine.shard_count(), 4);
        // Total PEs across shard devices; tasks conserved across shards.
        assert_eq!(out.outcome.stats.n_pes, 4 * 8);
        assert_eq!(
            out.outcome.stats.total_tasks(),
            spmm::csc_times_dense_macs(&a, &b).unwrap() as u64
        );
        // Critical path is the max per round; the sum view is over devices.
        assert!(out.critical_path_cycles() <= out.sum_cycles());
        let per_shard_max: u64 = (0..b.cols())
            .map(|r| {
                out.per_shard
                    .iter()
                    .map(|s| s.rounds[r].cycles)
                    .max()
                    .unwrap()
            })
            .sum();
        assert_eq!(out.critical_path_cycles(), per_shard_max);
        let util = out.outcome.stats.utilization();
        assert!(util > 0.0 && util <= 1.0);
        assert_eq!(out.outcome.stats.queue_high_water.len(), 4 * 8);
    }

    #[test]
    fn frozen_plan_requests_are_bit_identical_and_tune_free() {
        let a = skewed(128, 90);
        let warmup = dense(128, 8);
        let b = dense(128, 5);
        let mut engine = ShardedEngine::new(config(8, 3));
        let cold = engine.run(&a, &warmup, "warmup").unwrap();
        let plan = engine.freeze_plan(&a).unwrap();
        assert_eq!(plan.shard_count(), 3);
        assert!(plan.matches(&a));
        assert!(plan.tuning_rounds() > 0);
        let served = plan.session().run_detailed(&a, &b, "req").unwrap();
        for s in &served.per_shard {
            assert_eq!(s.tuning_rounds(), 0);
        }
        // Same request through the unsharded reference path: bit-identical.
        let mut reference = FastEngine::new(config(8, 1));
        reference.run(&a, &warmup, "warmup").unwrap();
        let expect = reference.run(&a, &b, "req").unwrap();
        assert_eq!(served.outcome.c, expect.c);
        let _ = cold;
        // Replay counters aggregate over shard caches.
        let hits = plan.replay_hits();
        plan.session().run_detailed(&a, &b, "req").unwrap();
        assert!(plan.replay_hits() > hits);
    }

    #[test]
    fn engine_and_plan_reject_foreign_operands() {
        let a = skewed(64, 40);
        let b = dense(64, 4);
        let mut engine = ShardedEngine::new(config(8, 2));
        engine.run(&a, &b, "t").unwrap();
        let other = skewed(64, 20); // same shape, different structure
        assert!(matches!(
            engine.run(&other, &b, "t"),
            Err(AccelError::InvalidConfig(_))
        ));
        let plan = engine.freeze_plan(&a).unwrap();
        assert!(!plan.matches(&other));
        assert!(matches!(
            plan.session().run_detailed(&other, &b, "t"),
            Err(AccelError::InvalidConfig(_))
        ));
    }

    #[test]
    fn memory_budget_policy_keeps_shards_on_chip() {
        let a = skewed(64, 48); // 2*48 + 62 = 158 nnz
        let b = dense(64, 4);
        let mut cfg = Design::Baseline.apply(
            AccelConfig::builder()
                .n_pes(8)
                .shards(ShardPolicy::MemoryBudget)
                .build()
                .unwrap(),
        );
        // Budget of 64 nnz per shard: the full operand would be off-chip,
        // every shard fits.
        cfg.memory = awb_hw::MemoryModel {
            on_chip_bytes: 64 * awb_hw::BYTES_PER_NNZ,
            off_chip_bytes_per_cycle: 64.0,
        };
        assert!(!cfg.memory.fits_on_chip(a.nnz()));
        let mut engine = ShardedEngine::new(cfg.clone());
        let out = engine.run_detailed(&a, &b, "t").unwrap();
        assert!(engine.shard_count() >= 3, "{} shards", engine.shard_count());
        // Every shard operand fits the budget, so shard replay caches are
        // live (an off-chip operand would bypass them).
        assert!(engine.replay_hits() + engine.replay_misses() > 0);
        // And the output still matches the unsharded reference bitwise.
        let mut unsharded_cfg = cfg;
        unsharded_cfg.shards = ShardPolicy::Single;
        let reference = FastEngine::new(unsharded_cfg).run(&a, &b, "t").unwrap();
        assert_eq!(out.outcome.c, reference.c);
    }

    /// Regression: `merge_stats` used to size the merged round vector from
    /// the *first* shard and index every other shard at that length —
    /// shards with more rounds panicked, shards with fewer were silently
    /// truncated. Deliberately unequal convergence (3/1/0 rounds) must
    /// merge over the max, padding exhausted shards with empty rounds.
    #[test]
    fn merge_stats_handles_unequal_per_shard_round_counts() {
        let round = |cycles: u64, tasks: u64| RoundStats {
            cycles,
            tasks,
            busy_cycles: tasks,
            max_pe_busy: tasks,
            min_pe_busy: 1,
            max_queue_depth: 2,
            raw_stalls: 0,
            tuning_active: false,
        };
        let stats = |rounds: Vec<RoundStats>| SpmmStats {
            label: "s".into(),
            n_pes: 4,
            rounds,
            queue_high_water: vec![2; 4],
        };
        let short_first = [
            stats(vec![round(10, 8)]),
            stats(vec![round(7, 4), round(9, 4), round(30, 4)]),
            stats(Vec::new()),
        ];
        let merged = merge_stats("m", &short_first);
        assert_eq!(merged.rounds.len(), 3, "max round count, not the first");
        assert_eq!(merged.n_pes, 12);
        // Round 0 merges all three shards; rounds 1/2 only the long one.
        assert_eq!(merged.rounds[0].cycles, 10);
        assert_eq!(merged.rounds[0].tasks, 12);
        assert_eq!(merged.rounds[1].cycles, 9);
        assert_eq!(merged.rounds[2].cycles, 30);
        assert_eq!(merged.rounds[2].tasks, 4);
        // Padded (idle) shard devices floor the min-busy at 0.
        assert_eq!(merged.rounds[1].min_pe_busy, 0);
        // No trailing round is dropped whichever shard comes first.
        let long_first = [short_first[1].clone(), short_first[0].clone()];
        let merged2 = merge_stats("m", &long_first);
        assert_eq!(merged2.rounds.len(), 3);
        assert_eq!(merged2.total_cycles(), 10 + 9 + 30);
        assert_eq!(merged2.total_tasks(), 8 + 12);
    }

    /// Shard members run only the timing pass; their stats must be exactly
    /// what a full `run` of a fresh engine reports on the same shard
    /// inputs.
    #[test]
    fn values_free_members_match_values_carrying_timing() {
        let a = skewed(96, 60);
        let b = dense(96, 8);
        let cfg = config(8, 3);
        let mut engine = ShardedEngine::new(cfg.clone());
        let out = engine.run_detailed(&a, &b, "t").unwrap();
        // Re-run every shard slice on a values-carrying FastEngine:
        // per-shard stats (ascending column order) must match bit for bit.
        for (i, shard) in cfg.partitioner().partition(&a).iter().enumerate() {
            let a_slice = shard.slice(&a);
            let b_slice = b.row_range(shard.cols.clone());
            let mut carrying = FastEngine::new(cfg.clone());
            let reference = carrying.run(&a_slice, &b_slice, "t").unwrap();
            assert_eq!(
                out.per_shard[i], reference.stats,
                "shard {i} (cols {:?}) timing diverged under values-free execution",
                shard.cols
            );
        }
    }

    #[test]
    fn with_partitioner_overrides_config_policy() {
        // Config says unsharded; an explicit partitioner still cuts 3
        // shards (the combination phase's construction path).
        let a = skewed(96, 60);
        let b = dense(96, 6);
        let cfg = config(8, 1);
        let mut engine =
            ShardedEngine::with_partitioner(cfg.clone(), ColumnPartitioner::by_shards(3));
        let out = engine.run_detailed(&a, &b, "t").unwrap();
        assert_eq!(engine.shard_count(), 3);
        assert_eq!(out.outcome.stats.n_pes, 3 * 8);
        let reference = FastEngine::new(cfg).run(&a, &b, "t").unwrap();
        assert_eq!(out.outcome.c, reference.c);
    }

    mod stored {
        use super::*;
        use std::path::PathBuf;

        fn temp_dir(tag: &str) -> PathBuf {
            let dir = std::env::temp_dir().join(format!(
                "awb-stream-test-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        }

        /// A power-law-ish matrix: a few heavy columns, light tail.
        fn skewed(n: usize) -> Csc {
            let mut coo = Coo::new(n, n);
            for c in 0..6.min(n) {
                for r in 0..n / 2 {
                    coo.push((r * 3 + c) % n, c, ((r % 7) as f32) - 2.5)
                        .unwrap();
                }
            }
            for c in 6..n {
                coo.push(c % n, c, 0.5 * (c % 5) as f32 - 1.0).unwrap();
                coo.push((c * 7 + 1) % n, c, 1.25).unwrap();
            }
            coo.to_csc()
        }

        fn bits(c: &DenseMatrix) -> Vec<u32> {
            c.as_slice().iter().map(|v| v.to_bits()).collect()
        }

        /// Writes `a` to a fresh store and returns a streaming engine whose
        /// budget forces several shards.
        fn streamed(
            tag: &str,
            a: &Csc,
            budget: usize,
        ) -> (PathBuf, Arc<SparseStore>, StreamingEngine) {
            let dir = temp_dir(tag);
            let store =
                Arc::new(SparseStore::write_with_chunk_nnz(&dir, a, 16).expect("store write"));
            let engine = StreamingEngine::from_store(config(8, 1), Arc::clone(&store), budget)
                .expect("streaming engine");
            (dir, store, engine)
        }

        #[test]
        fn streamed_run_is_bit_identical_to_resident_run() {
            let a = skewed(96);
            let b = dense(96, 10);
            let budget = a.heap_bytes() / 3;
            let (dir, _store, mut streaming) = streamed("bitident", &a, budget);
            assert!(streaming.shard_count() > 1, "budget must force sharding");
            let streamed_out = streaming.run(&a, &b, "t").unwrap();
            let resident_out = FastEngine::new(config(8, 1)).run(&a, &b, "t").unwrap();
            assert_eq!(bits(&streamed_out.c), bits(&resident_out.c));
            // Work is conserved across the shard merge.
            assert_eq!(
                streamed_out.stats.total_tasks(),
                resident_out.stats.total_tasks()
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn resident_peak_stays_under_budget_and_io_is_counted() {
            let a = skewed(128);
            let budget = a.heap_bytes() / 2;
            let (dir, store, mut streaming) = streamed("budget", &a, budget);
            let b = dense(128, 8);
            streaming.run(&a, &b, "t").unwrap();
            let stream = streaming
                .stream_stats()
                .expect("a stored pass reports stream stats");
            assert!(stream.shards > 1);
            assert!(
                stream.resident_peak_bytes < a.heap_bytes(),
                "peak {} vs whole matrix {}",
                stream.resident_peak_bytes,
                a.heap_bytes()
            );
            assert!(
                stream.resident_peak_bytes <= budget,
                "peak {} exceeds budget {budget}",
                stream.resident_peak_bytes
            );
            assert_eq!(stream.io_bytes, store.column_disk_bytes());
            assert!(stream.compute_s > 0.0);
            assert!(stream.prefetch_s > 0.0);
            assert!(stream.overlap_fraction() >= 0.0 && stream.overlap_fraction() <= 1.0);
            std::fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn streamed_plan_sessions_match_the_frozen_engine() {
            let a = skewed(96);
            let warmup = dense(96, 8);
            let budget = a.heap_bytes() / 3;
            let (dir, _store, mut streaming) = streamed("plan", &a, budget);
            streaming.run(&a, &warmup, "warmup").unwrap();
            let plan = streaming.freeze_plan(&a).unwrap();
            assert!(plan.matches(&a));
            assert_eq!(plan.shard_count(), streaming.shard_count());
            assert!(plan.memory_bytes() > 0);
            // The frozen engine's next run and a session must agree exactly.
            let b = dense(96, 5);
            let from_engine = streaming.run(&a, &b, "req").unwrap();
            let mut session = plan.session();
            let from_session = session.run(&a, &b, "req").unwrap();
            assert_eq!(bits(&from_engine.c), bits(&from_session.c));
            assert_eq!(from_engine.stats, from_session.stats);
            // And both match the resident reference.
            let resident = FastEngine::new(config(8, 1)).run(&a, &b, "req").unwrap();
            assert_eq!(bits(&from_session.c), bits(&resident.c));
            // Session stream stats land on the session.
            let stream = session.stream_stats().expect("stored session stats");
            assert!(stream.shards > 1);
            std::fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn operand_mismatch_is_rejected() {
            let a = skewed(64);
            let (dir, _store, mut streaming) = streamed("mismatch", &a, a.heap_bytes() / 2);
            // Same shape, different structure.
            let mut coo = Coo::new(64, 64);
            for c in 0..64 {
                coo.push((c * 5 + 2) % 64, c, 1.0).unwrap();
            }
            let other = coo.to_csc();
            let b = dense(64, 3);
            assert!(matches!(
                streaming.run(&other, &b, "t"),
                Err(AccelError::InvalidConfig(_))
            ));
            streaming.run(&a, &b, "t").unwrap();
            let plan = streaming.freeze_plan(&a).unwrap();
            assert!(!plan.matches(&other));
            assert!(matches!(
                plan.session().run(&other, &b, "t"),
                Err(AccelError::InvalidConfig(_))
            ));
            std::fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn zero_budget_is_a_typed_error() {
            let a = skewed(32);
            let dir = temp_dir("zero");
            let store = Arc::new(SparseStore::write_with_chunk_nnz(&dir, &a, 8).unwrap());
            assert!(matches!(
                StreamingEngine::from_store(config(4, 1), store, 0),
                Err(AccelError::InvalidConfig(_))
            ));
            std::fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn missing_store_is_invalid_input() {
            let dir = temp_dir("absent");
            assert!(matches!(
                StreamingEngine::open(config(4, 1), &dir, 1 << 20),
                Err(AccelError::InvalidInput(_))
            ));
        }

        /// Every member, tuning-live or frozen, draws from the pipeline's
        /// one pool, so the engine's and the plan's `scratch_stats` are
        /// that pool's figures, counted once however many shards there are.
        #[test]
        fn scratch_stats_count_the_one_shared_pool_once() {
            let a = skewed(96);
            let b = dense(96, 8);
            let (dir, _store, mut streaming) = streamed("pool", &a, a.heap_bytes() / 3);
            streaming.run(&a, &b, "warmup").unwrap();
            let plan = streaming.freeze_plan(&a).unwrap();
            plan.session().run(&a, &b, "req").unwrap();
            assert!(plan.shard_count() > 1, "budget must force sharding");
            let pool = plan.arena().stats();
            assert!(pool.created > 0);
            assert_eq!(plan.scratch_stats(), pool);
            assert_eq!(streaming.scratch_stats(), pool);
            for shard in plan.shards() {
                assert_eq!(shard.device.scratch_stats(), pool);
            }
            for shard in &streaming.shards {
                assert_eq!(lock(&shard.device).scratch_stats(), pool);
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn repeated_runs_replay_and_stay_identical() {
            let a = skewed(96);
            let b = dense(96, 6);
            let (dir, _store, mut streaming) = streamed("replay", &a, a.heap_bytes() / 3);
            let first = streaming.run(&a, &b, "t").unwrap();
            let second = streaming.run(&a, &b, "t").unwrap();
            assert_eq!(bits(&first.c), bits(&second.c));
            assert_eq!(first.stats.rounds.len(), second.stats.rounds.len());
            // Re-read slices are bit-identical, so the per-shard replay caches
            // stay valid across passes and keep serving hits (misses may still
            // trickle where a shard's pattern set exceeds the on-chip cache).
            let hits_after_second = streaming.replay_hits();
            let third = streaming.run(&a, &b, "t").unwrap();
            assert_eq!(bits(&second.c), bits(&third.c));
            assert!(streaming.replay_hits() > hits_after_second);
            std::fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn degenerate_empty_store_still_runs() {
            let a = Csc::empty(8, 0);
            let dir = temp_dir("empty");
            let store = Arc::new(SparseStore::write(&dir, &a).unwrap());
            let mut engine = StreamingEngine::from_store(config(4, 1), store, 1024).unwrap();
            let b = DenseMatrix::zeros(0, 3);
            let out = engine.run(&a, &b, "t").unwrap();
            assert_eq!(out.c.shape(), (8, 3));
            assert!(out.c.as_slice().iter().all(|&v| v == 0.0));
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
