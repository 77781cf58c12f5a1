//! SPMM engine implementations and the plan/execute split.
//!
//! Two engines simulate the same architecture at different fidelity/cost
//! points:
//!
//! * [`FastEngine`] — O(1)-per-task queue-dynamics model; used for
//!   dataset-scale sweeps (millions to billions of MAC tasks),
//! * [`DetailedEngine`] — cycle-stepped simulation wiring the real
//!   `awb-hw` components (task queues, Omega network, MAC pipeline with
//!   RaW scoreboard); used for component-level studies and to validate the
//!   fast engine.
//!
//! Both implement [`SpmmEngine`]: an engine instance embodies one piece of
//! hardware *tuned to one sparse matrix* — running it again (e.g. `A` in
//! layer 2 after layer 1) reuses the auto-tuned row map, exactly the reuse
//! the paper's auto-tuning paradigm is about.
//!
//! That reuse is made first-class by the plan/execute split: a warm-up
//! (`run`) followed by `freeze_plan` produces a frozen, shareable
//! [`TunedPlan`] (row map + replay cache + structure fingerprint +
//! config), and cheap per-request [`SpmmSession`]s execute against
//! `&TunedPlan` — so N requests on one graph pay tuning once and hit the
//! replay cache from request 1. See `DESIGN.md` §6.
//!
//! `FastEngine` and `SpmmSession` simulate timing only: rebalancing
//! decides which PE runs a MAC, never what it computes, so their rounds
//! read only the non-zero pattern of `B`. Each SPMM's product is computed
//! once, by the pinned-order blocked kernel `steady::compute_columns`:
//! their `run` is the timing pass plus that one call, and a shard pass
//! runs its members' timing passes plus that one call. `DetailedEngine`
//! keeps its own component-accurate numerics, because it is the
//! reference.
//!
//! The GCN runner drives every SPMM through one shard pipeline
//! ([`ShardedEngine`] → [`ShardedPlan`] → [`ShardedSession`]): one
//! `FastEngine`/session per column shard, written once over a
//! [`ShardSource`] with two implementations. [`Resident`] holds every
//! shard slice in memory and serves both GCN phases: `A × (XW)` under
//! `AccelConfig.shards`, each layer's `X × W` under
//! `AccelConfig.combination_shards`. A policy that resolves to one shard
//! is the whole-operand cut — the paper's single device: one member over
//! the pass's own operands, no slice copy, an identity merge. Every member
//! draws its scratch from the pipeline's one arena.
//! [`Stored`] reads the slices from a chunked on-disk store two at a time
//! (compute on one, prefetch the next), so peak resident sparse bytes stay
//! under a host-memory budget while outputs remain bit-identical. See
//! `DESIGN.md` §7/§8/§13.

pub(crate) mod arena;
mod detailed;
mod fast;
mod plan;
mod sharded;
pub(crate) mod steady;

pub use arena::{ArenaStats, Scratch, ScratchArena};
pub use detailed::{DetailedEngine, TdqMode};
pub use fast::FastEngine;
pub use plan::{SpmmSession, TunedPlan};
pub(crate) use sharded::store_err;
pub use sharded::{
    Resident, Shard, ShardSource, ShardedEngine, ShardedOutcome, ShardedPlan, ShardedSession,
    Stored, StreamStats, StreamedPlan, StreamingEngine,
};

use crate::config::AccelConfig;
use crate::error::AccelError;
use crate::stats::SpmmStats;
use awb_sparse::{Csc, DenseMatrix};

/// Result of simulating one SPMM: the functional product and the cycle
/// statistics.
#[derive(Debug, Clone)]
pub struct SpmmOutcome {
    /// The computed `C = A × B`.
    pub c: DenseMatrix,
    /// Cycle/utilization statistics.
    pub stats: SpmmStats,
}

/// A simulated SPMM engine (one per sparse operand).
pub trait SpmmEngine {
    /// Simulates `C = A × B`, streaming `B` column by column.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Shape`] on operand shape mismatch and
    /// [`AccelError::InvalidConfig`] when the engine is reused with a
    /// sparse operand of a different row count than it was tuned for.
    fn run(&mut self, a: &Csc, b: &DenseMatrix, label: &str) -> Result<SpmmOutcome, AccelError>;

    /// The engine's configuration.
    fn config(&self) -> &AccelConfig;

    /// Streaming statistics of the engine's last run: `Some` only when it
    /// streamed its sparse operand from an on-disk store.
    fn stream_stats(&self) -> Option<StreamStats> {
        None
    }
}

pub(crate) fn check_shapes(a: &Csc, b: &DenseMatrix) -> Result<(), AccelError> {
    if a.cols() != b.rows() {
        return Err(AccelError::Shape(
            awb_sparse::SparseError::DimensionMismatch {
                left: a.shape(),
                right: b.shape(),
                op: "spmm_engine",
            },
        ));
    }
    Ok(())
}
