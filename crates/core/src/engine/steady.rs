//! Shared steady-state round machinery: the queue-dynamics round model,
//! the replay cache, the frozen-map timing executor, and the one numerics
//! kernel.
//!
//! Everything here is the *per-round* half of the fast engine, factored
//! out so that two callers can share it byte-for-byte:
//!
//! * [`FastEngine`](super::FastEngine) — after its auto-tuner freezes, it
//!   simulates the remaining rounds through [`execute_steady`],
//! * [`SpmmSession`](super::SpmmSession) — a per-request executor over a
//!   shared [`TunedPlan`](super::TunedPlan), where *every* round is
//!   steady-state.
//!
//! Rounds are timing only: rebalancing decides which PE runs a MAC, never
//! what it computes, so no round touches a value. Each SPMM's product is
//! computed once, by [`compute_columns`], whoever simulated its timing.
//!
//! [`ReplayCache`] is interior-mutable (`RwLock` + atomic counters) so a
//! plan can be shared (`&TunedPlan`) across concurrently executing
//! sessions: all sessions read and warm one cache. Timings are pure
//! functions of the round's non-zero pattern under the frozen map, so
//! concurrent insertion of the same key writes the same value and results
//! stay bit-identical regardless of interleaving (only the hit/miss
//! *counters* can differ between schedules, since two sessions racing on
//! an uncached pattern both count a miss).

use crate::config::{AccelConfig, StallMode};
use crate::engine::arena::ScratchArena;
use crate::exec;
use crate::rebalance::local::LocalSharing;
use crate::stats::RoundStats;
use awb_sparse::spmm::{csc_accumulate_block, drain_block_into, ACC_BLOCK_LANES};
use awb_sparse::{Csc, DenseMatrix};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Replay-cache entry cap. GCN workloads need a handful of patterns (most
/// rounds are fully dense in `b[:, k]`); an operand producing thousands of
/// distinct patterns gains nothing from memoization, so past the cap fresh
/// timings are kept for the current call only instead of growing the
/// cache's footprint without bound.
pub(crate) const REPLAY_CACHE_CAP: usize = 1024;

/// Memoized timing of one simulated round (cycles exclude the round-0
/// SPMMeM fill, which is charged at use).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RoundTiming {
    /// Barrier cycles (`max_completion`), without any fill charge.
    pub cycles: u64,
    /// MAC tasks executed.
    pub tasks: u64,
    /// Busiest PE's executed-task count.
    pub max_pe_busy: u64,
    /// Least-busy PE's executed-task count.
    pub min_pe_busy: u64,
    /// Largest queue occupancy on any PE.
    pub max_queue_depth: usize,
    /// RaW-hazard stall cycles.
    pub raw_stalls: u64,
    /// Per-PE queue high-water marks (merged into the SPMM-level vector
    /// for steady-state rounds).
    pub queue_high_water: Vec<u32>,
}

impl RoundTiming {
    pub(crate) fn to_stats(&self, cycles: u64, tuning_active: bool) -> RoundStats {
        RoundStats {
            cycles,
            tasks: self.tasks,
            busy_cycles: self.tasks,
            max_pe_busy: self.max_pe_busy,
            min_pe_busy: self.min_pe_busy,
            max_queue_depth: self.max_queue_depth,
            raw_stalls: self.raw_stalls,
            tuning_active,
        }
    }
}

/// Result of simulating one round: the memoizable timing plus the
/// owner-attributed load profile the auto-tuner consumes.
pub(crate) struct SimRound {
    pub timing: RoundTiming,
    pub owner_busy: Vec<u64>,
}

/// Fixed per-run simulation parameters shared by every round.
#[derive(Clone, Copy)]
pub(crate) struct SimParams {
    pub n_pes: usize,
    pub lat: u64,
    pub bandwidth: u64,
    pub stall_mode: StallMode,
    pub sharing: Option<LocalSharing>,
}

/// The memory-model quantities of one sparse operand under one config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemoryParams {
    /// Distributor delivery rate (tasks advance `1/bandwidth` per cycle).
    pub bandwidth: u64,
    /// Whether SPMMeM holds the operand on chip.
    pub on_chip: bool,
    /// One-time fill charge for an on-chip operand (charged to round 0).
    pub fill_cycles: u64,
}

impl MemoryParams {
    pub(crate) fn for_operand(config: &AccelConfig, nnz: usize) -> MemoryParams {
        MemoryParams {
            bandwidth: config.memory.delivery_rate_limit(nnz, config.n_pes).max(1) as u64,
            on_chip: config.memory.fits_on_chip(nnz),
            fill_cycles: config.memory.fill_cycles(nnz),
        }
    }
}

/// Simulates the queue dynamics of one round: the tasks of sparse columns
/// `pattern` (ascending, the non-zero `b(j, k)` positions) streamed in CSC
/// order against the given frozen-or-current row map. Timing only — the
/// numerics are [`compute_columns`]'s.
pub(crate) fn simulate_round(
    a: &Csc,
    pattern: &[u32],
    pe_of_row: &[u32],
    p: SimParams,
    mut row_tasks: Option<&mut [u32]>,
    arena: &ScratchArena,
) -> SimRound {
    let n_pes = p.n_pes;
    let lat = p.lat;
    let bandwidth = p.bandwidth;

    // Per-PE and per-row scratch, checked out (zeroed) from the plan's
    // arena — only the vectors that stay internal to the round.
    // `owner_busy` and the queue high-water marks are *moved out* in the
    // return value, so they must own their allocations.
    let mut pending = arena.checkout_u32(n_pes);
    let mut sim_u64 = arena.checkout_u64(3 * n_pes + a.rows());
    let (last_seen, rest) = sim_u64.split_at_mut(n_pes);
    let (issue_until, rest) = rest.split_at_mut(n_pes);
    // `ready` is the per-row half (the big one on graph-sized operands).
    let (busy, ready) = rest.split_at_mut(n_pes);
    // Owner-attributed load: the distributor counts every task against
    // the PE that *owns* its row, before any local-sharing diversion.
    // The PESM profiles on this view — under sharing, executed-load
    // plateaus across a hot neighbourhood and would hide which PE's
    // rows cause the overload (see DESIGN.md, remote switching).
    let mut owner_busy = vec![0u64; n_pes];
    let mut max_q = vec![0u32; n_pes];

    let a_row_idx = a.row_idx();
    let a_col_ptr = a.col_ptr();

    let mut t: u64 = 0;
    let mut max_completion: u64 = 0;
    let mut raw_stalls: u64 = 0;

    for &j in pattern {
        let j = j as usize;
        for &row_id in &a_row_idx[a_col_ptr[j]..a_col_ptr[j + 1]] {
            let row = row_id as usize;
            let arrival = t / bandwidth;
            let owner = pe_of_row[row];
            owner_busy[owner as usize] += 1;
            let dest = match p.sharing {
                Some(sharing) => sharing.choose(owner, |q| {
                    let pe = q as usize;
                    (pending[pe] as u64).saturating_sub(arrival - last_seen[pe]) as usize
                }),
                None => owner,
            } as usize;

            // Commit the enqueue: lazily drain, then push.
            let drained = arrival - last_seen[dest];
            pending[dest] = (pending[dest] as u64).saturating_sub(drained) as u32 + 1;
            last_seen[dest] = arrival;
            if pending[dest] > max_q[dest] {
                max_q[dest] = pending[dest];
            }

            // Serial issue with RaW scoreboard. In `Park` mode the
            // stall buffer + accumulator forwarding hide the hazard
            // (the PE keeps issuing; we only count the event) — the
            // paper's design, without which a Nell hub row would
            // serialize at T cycles per non-zero and dwarf the
            // reported latencies. `Block` models the naive
            // head-of-line serialization as an ablation.
            let start = (issue_until[dest] + 1).max(arrival);
            let r_ready = ready[row];
            let (issue_cycle, complete) = if r_ready > start {
                raw_stalls += r_ready - start;
                match p.stall_mode {
                    StallMode::Block => (r_ready, r_ready + lat),
                    StallMode::Park => (start, start + lat),
                }
            } else {
                (start, start + lat)
            };
            issue_until[dest] = issue_cycle;
            ready[row] = complete;
            busy[dest] += 1;
            if complete > max_completion {
                max_completion = complete;
            }

            if let Some(rt) = row_tasks.as_deref_mut() {
                rt[row] += 1;
            }
            t += 1;
        }
    }

    SimRound {
        timing: RoundTiming {
            cycles: max_completion,
            tasks: t,
            max_pe_busy: busy.iter().copied().max().unwrap_or(0),
            min_pe_busy: busy.iter().copied().min().unwrap_or(0),
            max_queue_depth: max_q.iter().copied().max().unwrap_or(0) as usize,
            raw_stalls,
            queue_high_water: max_q,
        },
        owner_busy,
    }
}

/// The non-zero positions of `b[:, k]` (ascending) — one round's worth of
/// dense-operand input to the timing model, which never reads the values
/// (timing is a pure function of the pattern).
pub(crate) fn column_pattern_cols(b: &DenseMatrix, k: usize) -> Vec<u32> {
    (0..b.rows())
        .filter(|&j| b.get(j, k) != 0.0)
        .map(|j| j as u32)
        .collect()
}

/// The `(k0, width)` column blocks covering `0..cols` in
/// [`ACC_BLOCK_LANES`]-wide steps (narrower final block for widths not
/// divisible by the lane count).
pub(crate) fn block_spans(cols: usize) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut k0 = 0;
    while k0 < cols {
        let width = ACC_BLOCK_LANES.min(cols - k0);
        spans.push((k0, width));
        k0 += width;
    }
    spans
}

/// Computes `C = A × B` — the numerics of one whole SPMM, and the only
/// place the timing engines' products come from. Column *blocks* fan out
/// on the [`exec`] substrate through the shared blocked-accumulate kernel,
/// whose pinned ascending-`j` reduction order keeps the result
/// bit-identical to the per-column scalar reference
/// (`csc_accumulate_block`). The output and the per-worker accumulators
/// are drawn from `arena`.
pub(crate) fn compute_columns(
    a: &Csc,
    b: &DenseMatrix,
    threads: usize,
    arena: &ScratchArena,
) -> DenseMatrix {
    let n_rows = a.rows();
    let mut c = DenseMatrix::from_vec(n_rows, b.cols(), arena.take_f32(n_rows * b.cols()))
        .expect("arena buffer sized to the output matrix");
    let blocks = block_spans(b.cols());
    let accs = exec::par_map_threads(threads, &blocks, |&(k0, width)| {
        let mut acc = arena.checkout_f32(n_rows * width);
        csc_accumulate_block(a, b, k0, width, &mut acc);
        acc
    });
    for (&(k0, width), mut acc) in blocks.iter().zip(accs) {
        drain_block_into(&mut c, k0, width, &mut acc);
    }
    c
}

/// FNV-1a over the operand's sparsity structure (shape, column pointers,
/// row indices). Values are excluded on purpose: timing never depends on
/// them, only the numerics — which are recomputed every run.
pub(crate) fn structure_fingerprint(a: &Csc) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(a.rows() as u64);
    mix(a.cols() as u64);
    mix(a.nnz() as u64);
    for &p in a.col_ptr() {
        mix(p as u64);
    }
    for &i in a.row_idx() {
        mix(i as u64);
    }
    h
}

/// The steady-state replay cache: memoized round timings keyed by the
/// round's non-zero column pattern, guarded by the operand's structure
/// fingerprint (see module docs for the sharing model).
#[derive(Debug, Default)]
pub(crate) struct ReplayCache {
    timings: RwLock<HashMap<Vec<u32>, RoundTiming>>,
    /// Structure fingerprint the cached timings describe (None = empty).
    fingerprint: Mutex<Option<u64>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Clone for ReplayCache {
    /// Snapshots the cache contents; the hit/miss counters restart at zero
    /// (they count activity *on this instance*, e.g. a freshly extracted
    /// plan's serving traffic).
    fn clone(&self) -> Self {
        ReplayCache {
            timings: RwLock::new(self.read_timings().clone()),
            fingerprint: Mutex::new(*self.lock_fingerprint()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl ReplayCache {
    pub(crate) fn new() -> Self {
        ReplayCache::default()
    }

    /// Poison-recovering read lock on the timing map.
    ///
    /// A worker that panics while holding a guard (e.g. a fault-injected
    /// request on a shared cached plan) poisons the `RwLock`; recovering
    /// via `into_inner` is sound here because the map only ever holds
    /// *complete* key→value pairs of deterministic timings — inserts are
    /// single `HashMap::insert` calls, and timings are pure functions of
    /// their key — so the post-panic state is always a consistent prefix
    /// of completed work, never a torn entry.
    fn read_timings(&self) -> RwLockReadGuard<'_, HashMap<Vec<u32>, RoundTiming>> {
        self.timings.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Poison-recovering write lock (see [`ReplayCache::read_timings`]).
    fn write_timings(&self) -> RwLockWriteGuard<'_, HashMap<Vec<u32>, RoundTiming>> {
        self.timings.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Poison-recovering lock on the guarding fingerprint: the value is a
    /// plain `Option<u64>` written atomically, so recovery is trivially
    /// sound.
    fn lock_fingerprint(&self) -> MutexGuard<'_, Option<u64>> {
        self.fingerprint
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Ensures the cache describes the operand with fingerprint `fp`,
    /// clearing stale timings from a structurally different operand.
    pub(crate) fn guard(&self, fp: u64) {
        let mut current = self.lock_fingerprint();
        if *current != Some(fp) {
            self.write_timings().clear();
            *current = Some(fp);
        }
    }

    /// Drops all cached timings and the fingerprint.
    pub(crate) fn clear(&self) {
        self.write_timings().clear();
        *self.lock_fingerprint() = None;
    }

    /// Rounds served from the cache.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Rounds that had to be simulated and were then memoized.
    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cached distinct patterns.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.read_timings().len()
    }

    /// Approximate heap bytes held by the memoized timings: per entry, the
    /// key's pattern (`u32` per non-zero position), the per-PE queue
    /// high-water vector (`u32` per PE), and the fixed `RoundTiming`
    /// scalars. An estimate for plan-cache memory budgeting, not an
    /// allocator-exact figure.
    pub(crate) fn approx_bytes(&self) -> usize {
        let timings = self.read_timings();
        timings
            .iter()
            .map(|(key, timing)| {
                (key.len() + timing.queue_high_water.len()) * std::mem::size_of::<u32>()
                    + std::mem::size_of::<RoundTiming>()
            })
            .sum()
    }
}

/// Inputs of one steady-state (frozen-map) execution span.
pub(crate) struct SteadySpan<'a> {
    pub a: &'a Csc,
    pub b: &'a DenseMatrix,
    /// First column index of the span (columns `start..b.cols()` run).
    pub start: usize,
    pub pe_of_row: &'a [u32],
    pub params: SimParams,
    pub memory: MemoryParams,
    pub threads: usize,
    /// `None` disables replay (straight simulation of every round).
    pub cache: Option<&'a ReplayCache>,
    /// Scratch pool for the simulator buffers (the pipeline's arena).
    pub arena: &'a ScratchArena,
}

/// Simulates the timing of columns `start..b.cols()` under a frozen row
/// map: repeated patterns replay from the cache and fresh patterns are
/// simulated in parallel on the [`exec`] substrate. Appends to `rounds`
/// and merges per-PE queue high-water marks. Timing only — the product is
/// [`compute_columns`]'s.
pub(crate) fn execute_steady(
    span: SteadySpan<'_>,
    rounds: &mut Vec<RoundStats>,
    queue_high_water: &mut [u32],
) {
    let b = span.b;
    if span.start >= b.cols() {
        return;
    }
    let patterns: Vec<Vec<u32>> = (span.start..b.cols())
        .map(|k| column_pattern_cols(b, k))
        .collect();

    let timings: Vec<RoundTiming> = match span.cache {
        Some(cache) => {
            // First occurrence of an uncached pattern is a miss and is
            // simulated (in parallel across distinct patterns); every
            // other round replays.
            let mut to_sim: Vec<Vec<u32>> = Vec::new();
            {
                let cached = cache.read_timings();
                let mut queued: HashSet<&[u32]> = HashSet::new();
                for cols in &patterns {
                    if !cached.contains_key(cols.as_slice()) && queued.insert(cols.as_slice()) {
                        to_sim.push(cols.clone());
                    }
                }
            }
            cache
                .misses
                .fetch_add(to_sim.len() as u64, Ordering::Relaxed);
            cache
                .hits
                .fetch_add((patterns.len() - to_sim.len()) as u64, Ordering::Relaxed);
            let fresh = exec::par_map_threads(span.threads, &to_sim, |cols| {
                simulate_round(span.a, cols, span.pe_of_row, span.params, None, span.arena).timing
            });
            // Promote fresh timings into the shared cache up to the size
            // cap; past it (an all-distinct-patterns operand that would
            // never replay anyway) they only serve this call, bounding
            // the cache's memory. Timings are deterministic per key, so
            // a concurrent session inserting the same key writes the
            // same value.
            let mut overflow: HashMap<Vec<u32>, RoundTiming> = HashMap::new();
            {
                let mut cached = cache.write_timings();
                for (key, timing) in to_sim.into_iter().zip(fresh) {
                    if cached.len() < REPLAY_CACHE_CAP || cached.contains_key(&key) {
                        cached.insert(key, timing);
                    } else {
                        overflow.insert(key, timing);
                    }
                }
            }
            let cached = cache.read_timings();
            patterns
                .iter()
                .map(|cols| {
                    cached
                        .get(cols.as_slice())
                        .or_else(|| overflow.get(cols.as_slice()))
                        .expect("simulated above")
                        .clone()
                })
                .collect()
        }
        None => exec::par_map_threads(span.threads, &patterns, |cols| {
            simulate_round(span.a, cols, span.pe_of_row, span.params, None, span.arena).timing
        }),
    };

    for (i, timing) in timings.iter().enumerate() {
        let k = span.start + i;
        // TQ sizing (the area model's input) uses steady-state rounds
        // only: the converged configuration is what production TQs are
        // provisioned for, exactly as the paper's §5.2 depth figures
        // (tuning-phase overflow is absorbed by backpressure).
        for (hw, &q) in queue_high_water.iter_mut().zip(&timing.queue_high_water) {
            *hw = (*hw).max(q);
        }
        // An on-chip operand pays its SPMMeM fill once (charged to round
        // 0); an off-chip operand's per-round streaming cost is already
        // captured by the throttled arrival rate.
        let fill = if k == 0 && span.memory.on_chip && timing.tasks > 0 {
            span.memory.fill_cycles
        } else {
            0
        };
        rounds.push(timing.to_stats(timing.cycles + fill, false));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(cycles: u64) -> RoundTiming {
        RoundTiming {
            cycles,
            tasks: 3,
            max_pe_busy: 2,
            min_pe_busy: 1,
            max_queue_depth: 4,
            raw_stalls: 0,
            queue_high_water: vec![1, 2],
        }
    }

    /// Poison both ReplayCache locks with a deliberate mid-guard panic and
    /// prove every operation still works afterwards — a panicked session
    /// must never brick a shared cached plan.
    #[test]
    fn poisoned_locks_recover_with_contents_intact() {
        let cache = ReplayCache::new();
        cache.guard(7);
        cache.write_timings().insert(vec![0, 1, 2], timing(42));

        std::thread::scope(|scope| {
            let h = scope.spawn(|| {
                let _write = cache.timings.write().unwrap();
                panic!("deliberate poison");
            });
            assert!(h.join().is_err());
            let h = scope.spawn(|| {
                let _lock = cache.fingerprint.lock().unwrap();
                panic!("deliberate poison");
            });
            assert!(h.join().is_err());
        });
        assert!(cache.timings.is_poisoned());
        assert!(cache.fingerprint.is_poisoned());

        // Reads recover and see the pre-panic entry (inserts are atomic:
        // complete key→value pairs only).
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.read_timings().get([0, 1, 2].as_slice()),
            Some(&timing(42))
        );
        assert!(cache.approx_bytes() > 0);

        // A matching guard keeps the entry; the clone snapshots it.
        cache.guard(7);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.clone().len(), 1);

        // Writes recover too: re-guard to a new fingerprint, then clear.
        cache.guard(8);
        assert_eq!(cache.len(), 0);
        cache.write_timings().insert(vec![5], timing(9));
        cache.clear();
        assert_eq!(cache.len(), 0);
    }
}
