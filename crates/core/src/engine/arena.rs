//! Plan-owned scratch arenas: pooled, reusable buffers for the steady-state
//! hot path.
//!
//! Every `SpmmSession`/request used to allocate its accumulator, output,
//! and simulator-queue scratch fresh; under multi-tenant serving that puts
//! an allocator round-trip on every round of every request. A
//! [`ScratchArena`] is a small typed pool owned by the long-lived plan
//! objects ([`TunedPlan`](super::TunedPlan), [`ShardedPlan`](super::ShardedPlan),
//! `GcnPlan`) and shared (`Arc`) with the engines that execute against
//! them: sessions *check out* zeroed buffers for a round or block and the
//! RAII guard returns them on drop, so once the arena is warm the
//! steady-state accumulate path performs no fresh heap allocation
//! (asserted by `tests/scratch_arena.rs` via [`ArenaStats::created`]).
//!
//! # Safety and determinism
//!
//! A checkout is an owned, exclusively borrowed buffer — two concurrent
//! `par_map` workers can never alias the same scratch, because each `pop`
//! under the pool's mutex hands the `Vec` to exactly one guard (no
//! slicing of a shared arena region is involved). Buffers are zeroed at
//! checkout (`clear` + `resize`, a memset without a malloc), so a dirty
//! buffer returned by one round can never leak values into a later one;
//! numerics are therefore bit-identical with the arena on, off
//! ([`ScratchArena::disabled`]), warm, or cold.
//!
//! # One pool per shard pipeline
//!
//! A shard pipeline owns one arena and hands it to every member: the
//! members' timing passes draw only the small per-round simulator
//! vectors, and the pass's one numerics call draws the output and the
//! accumulator (`f32`) scratch. Pools grow to the workload's *concurrent*
//! high-water mark, not its total request count, and the pool cap
//! ([`MAX_POOLED`] buffers per type) bounds worst-case retention.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Per-type cap on retained buffers. Concurrent checkouts are bounded by
/// the worker-thread count (nested `par_map` runs inline), so a pool past
/// this size can only mean leaked one-shot buffers — discard instead.
const MAX_POOLED: usize = 64;

/// One typed buffer pool (interior-mutable so the arena can be shared as
/// `&ScratchArena` across `par_map` workers).
#[derive(Debug, Default)]
struct Pool<T> {
    buffers: Mutex<Vec<Vec<T>>>,
    /// Checkouts that had to allocate (empty pool, or a recycled buffer's
    /// capacity was short and `resize` grew it).
    created: AtomicU64,
    /// Checkouts served entirely from pooled capacity.
    reused: AtomicU64,
}

impl<T: Copy + Default> Pool<T> {
    /// Poison-recovering lock: the pool only ever holds whole buffers
    /// (push/pop are atomic `Vec` operations), so post-panic state is
    /// always consistent — same soundness argument as `ReplayCache`.
    fn lock(&self) -> MutexGuard<'_, Vec<Vec<T>>> {
        self.buffers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hands out a zeroed buffer of exactly `len` elements.
    fn take(&self, len: usize, pooling: bool) -> Vec<T> {
        if len == 0 {
            // A zero-len checkout (e.g. an empty output matrix) must be
            // free: no pool traffic, no counter movement.
            return Vec::new();
        }
        // Best-fit-by-scan, newest first: if *any* pooled buffer has the
        // capacity, the checkout is allocation-free — popping the top
        // blindly would let an unlucky interleaving of concurrent workers
        // pair a small buffer with a big checkout and re-allocate forever.
        // Short pooled buffers are left in place for later small checkouts
        // instead of being ratcheted up. O(pool ≤ MAX_POOLED) scan, noise
        // next to the memset below.
        let recycled = if pooling {
            let mut pool = self.lock();
            pool.iter()
                .rposition(|b| b.capacity() >= len)
                .map(|i| pool.swap_remove(i))
        } else {
            None
        };
        let mut buf = match recycled {
            Some(b) => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                b
            }
            None => {
                self.created.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        };
        buf.clear();
        buf.resize(len, T::default());
        buf
    }

    /// Returns a buffer to the pool (dropped when pooling is off, the
    /// buffer never allocated, or the pool is at [`MAX_POOLED`]).
    fn put(&self, buf: Vec<T>, pooling: bool) {
        if !pooling || buf.capacity() == 0 {
            return;
        }
        let mut pool = self.lock();
        if pool.len() < MAX_POOLED {
            pool.push(buf);
        }
    }

    fn stats_into(&self, stats: &mut ArenaStats) {
        stats.created += self.created.load(Ordering::Relaxed);
        stats.reused += self.reused.load(Ordering::Relaxed);
        let pool = self.lock();
        stats.pooled += pool.len();
        stats.pooled_bytes += pool
            .iter()
            .map(|b| b.capacity() * std::mem::size_of::<T>())
            .sum::<usize>();
    }
}

/// Counters and retention of a [`ScratchArena`] (all pools summed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Checkouts that performed a heap allocation (cold pool or capacity
    /// growth). Stable across requests ⇔ the warm path is allocation-free.
    pub created: u64,
    /// Checkouts served entirely from pooled capacity.
    pub reused: u64,
    /// Buffers currently retained, across all typed pools.
    pub pooled: usize,
    /// Heap bytes currently retained, across all typed pools.
    pub pooled_bytes: usize,
}

impl ArenaStats {
    /// Sums another arena's counters/retention into this one — for
    /// aggregating the pools of several plans (e.g. a service's cache).
    pub fn absorb(&mut self, other: ArenaStats) {
        self.created += other.created;
        self.reused += other.reused;
        self.pooled += other.pooled;
        self.pooled_bytes += other.pooled_bytes;
    }
}

/// A typed scratch-buffer pool shared by the sessions and engines that
/// execute against one plan (see the module docs).
#[derive(Debug)]
pub struct ScratchArena {
    pooling: bool,
    f32s: Pool<f32>,
    u32s: Pool<u32>,
    u64s: Pool<u64>,
}

impl Default for ScratchArena {
    fn default() -> Self {
        ScratchArena::new()
    }
}

impl ScratchArena {
    /// A pooling arena: checked-in buffers are retained for reuse.
    pub fn new() -> Self {
        ScratchArena {
            pooling: true,
            f32s: Pool::default(),
            u32s: Pool::default(),
            u64s: Pool::default(),
        }
    }

    /// A pass-through arena (`AccelConfig::scratch_reuse = false`): every
    /// checkout allocates fresh and every return is dropped — the exact
    /// pre-arena allocation behaviour, kept as the A/B baseline.
    pub fn disabled() -> Self {
        ScratchArena {
            pooling: false,
            ..ScratchArena::new()
        }
    }

    /// Whether returned buffers are retained for reuse.
    pub fn is_pooling(&self) -> bool {
        self.pooling
    }

    /// Checks out a zeroed `f32` buffer of exactly `len` elements; the
    /// guard returns it to the pool on drop.
    pub fn checkout_f32(&self, len: usize) -> Scratch<'_, f32> {
        Scratch {
            pool: &self.f32s,
            pooling: self.pooling,
            buf: self.f32s.take(len, self.pooling),
        }
    }

    /// Checks out a zeroed `u32` buffer (see [`checkout_f32`](Self::checkout_f32)).
    pub fn checkout_u32(&self, len: usize) -> Scratch<'_, u32> {
        Scratch {
            pool: &self.u32s,
            pooling: self.pooling,
            buf: self.u32s.take(len, self.pooling),
        }
    }

    /// Checks out a zeroed `u64` buffer (see [`checkout_f32`](Self::checkout_f32)).
    pub fn checkout_u64(&self, len: usize) -> Scratch<'_, u64> {
        Scratch {
            pool: &self.u64s,
            pooling: self.pooling,
            buf: self.u64s.take(len, self.pooling),
        }
    }

    /// Takes a zeroed `f32` buffer as an owned `Vec` — for buffers that
    /// outlive the arena borrow (an output matrix handed to the caller).
    /// Pair with [`recycle_f32`](Self::recycle_f32) when the buffer comes
    /// back (e.g. a consumed inter-layer intermediate).
    pub fn take_f32(&self, len: usize) -> Vec<f32> {
        self.f32s.take(len, self.pooling)
    }

    /// Returns an owned buffer (from [`take_f32`](Self::take_f32), or any
    /// `Vec<f32>` being retired) to the pool.
    pub fn recycle_f32(&self, buf: Vec<f32>) {
        self.f32s.put(buf, self.pooling);
    }

    /// Allocation/reuse counters and current retention, summed over the
    /// typed pools.
    pub fn stats(&self) -> ArenaStats {
        let mut stats = ArenaStats::default();
        self.f32s.stats_into(&mut stats);
        self.u32s.stats_into(&mut stats);
        self.u64s.stats_into(&mut stats);
        stats
    }
}

/// RAII checkout of one arena buffer: derefs to a slice, returns the
/// buffer to its pool on drop. Exclusively owned — no two live guards
/// ever view the same memory.
#[derive(Debug)]
pub struct Scratch<'a, T: Copy + Default> {
    pool: &'a Pool<T>,
    pooling: bool,
    buf: Vec<T>,
}

impl<T: Copy + Default> std::ops::Deref for Scratch<'_, T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.buf
    }
}

impl<T: Copy + Default> std::ops::DerefMut for Scratch<'_, T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf
    }
}

impl<T: Copy + Default> Drop for Scratch<'_, T> {
    fn drop(&mut self) {
        self.pool.put(std::mem::take(&mut self.buf), self.pooling);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_is_zeroed_even_after_dirty_return() {
        let arena = ScratchArena::new();
        {
            let mut s = arena.checkout_f32(8);
            s.iter_mut().for_each(|v| *v = -3.5);
        }
        let s = arena.checkout_f32(8);
        assert!(s.iter().all(|&v| v.to_bits() == 0), "must be +0.0");
    }

    #[test]
    fn warm_checkouts_do_not_allocate() {
        let arena = ScratchArena::new();
        drop(arena.checkout_f32(100));
        drop(arena.checkout_u64(50));
        let created = arena.stats().created;
        for _ in 0..10 {
            drop(arena.checkout_f32(100));
            drop(arena.checkout_u64(50));
        }
        let stats = arena.stats();
        assert_eq!(stats.created, created, "warm path must not allocate");
        assert_eq!(stats.reused, 20);
        assert_eq!(stats.pooled, 2);
    }

    #[test]
    fn growth_counts_as_allocation() {
        let arena = ScratchArena::new();
        drop(arena.checkout_f32(10));
        let created = arena.stats().created;
        drop(arena.checkout_f32(1000)); // no fitting buffer -> fresh alloc
        assert_eq!(arena.stats().created, created + 1);
        drop(arena.checkout_f32(1000)); // pooled capacity now fits
        assert_eq!(arena.stats().created, created + 1);
        // The short buffer was left in place, not ratcheted up: a small
        // checkout reuses it rather than allocating.
        assert_eq!(arena.stats().pooled, 2);
        drop(arena.checkout_f32(10));
        assert_eq!(arena.stats().created, created + 1);
    }

    #[test]
    fn best_fit_survives_interleaved_sizes() {
        // A small and a large buffer both pooled: a large checkout must
        // find the large one whatever the stack order says.
        let arena = ScratchArena::new();
        let small = arena.checkout_f32(8);
        let large = arena.checkout_f32(4096);
        drop(large); // returned first → deeper in the stack...
        drop(small); // ...small on top
        let created = arena.stats().created;
        for _ in 0..8 {
            let l = arena.checkout_f32(4096);
            let s = arena.checkout_f32(8);
            drop(l);
            drop(s);
        }
        assert_eq!(arena.stats().created, created, "fit scan missed a buffer");
    }

    #[test]
    fn disabled_arena_pools_nothing() {
        let arena = ScratchArena::disabled();
        assert!(!arena.is_pooling());
        drop(arena.checkout_f32(16));
        drop(arena.checkout_f32(16));
        let stats = arena.stats();
        assert_eq!(stats.created, 2);
        assert_eq!(stats.reused, 0);
        assert_eq!(stats.pooled, 0);
        assert_eq!(stats.pooled_bytes, 0);
    }

    #[test]
    fn take_and_recycle_round_trip() {
        let arena = ScratchArena::new();
        let v = arena.take_f32(32);
        assert!(v.iter().all(|&x| x == 0.0));
        arena.recycle_f32(v);
        let before = arena.stats().created;
        let v = arena.take_f32(32);
        assert_eq!(arena.stats().created, before, "recycled capacity reused");
        arena.recycle_f32(v);
    }

    #[test]
    fn zero_length_checkouts_are_free() {
        let arena = ScratchArena::new();
        drop(arena.checkout_f32(0));
        let stats = arena.stats();
        // A zero-len take never touches the pool or the counters.
        assert_eq!(stats.created, 0);
        assert_eq!(stats.pooled, 0);
        assert_eq!(stats.pooled_bytes, 0);
    }

    #[test]
    fn pool_cap_bounds_retention() {
        let arena = ScratchArena::new();
        let many: Vec<_> = (0..MAX_POOLED + 10)
            .map(|_| arena.checkout_f32(4))
            .collect();
        drop(many);
        assert_eq!(arena.stats().pooled, MAX_POOLED);
    }

    #[test]
    fn concurrent_checkouts_never_alias() {
        // Each worker writes its own signature, yields, and re-verifies:
        // if two guards ever shared memory the signature would be torn.
        let arena = ScratchArena::new();
        let items: Vec<u32> = (0..256).collect();
        let ok = crate::exec::par_map_threads(8, &items, |&i| {
            let mut s = arena.checkout_f32(64);
            for (p, v) in s.iter_mut().enumerate() {
                *v = (i as f32) * 1000.0 + p as f32;
            }
            std::thread::yield_now();
            s.iter()
                .enumerate()
                .all(|(p, &v)| v == (i as f32) * 1000.0 + p as f32)
        });
        assert!(ok.into_iter().all(|b| b));
    }
}
