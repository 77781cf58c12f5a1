//! Calibrated analytical cost model behind [`StrategyPolicy::Auto`].
//!
//! The paper's thesis is that workload structure, measured at run time,
//! should drive execution strategy. This module closes that loop one level
//! up from the rebalancer: instead of hand-picking the design point and
//! shard counts per run, [`select`] scores every candidate configuration
//! against the input's sparsity profile and freezes the predicted-fastest
//! one into the plan that `GcnRunner::prepare` builds.
//!
//! The model has two independent parts:
//!
//! * **Cycle terms** (architectural, host-independent). A round of one
//!   SPMM costs the busiest PE's task count after the design point's
//!   rebalancing smooths it — the raw per-PE maximum for `Base`, the
//!   busiest hop-window average under local sharing, and near the mean
//!   (a small residual above it) once remote switching converges — or the
//!   off-chip delivery floor `nnz / bandwidth` when the operand does not
//!   fit the [`MemoryModel`]'s on-chip budget, whichever is larger.
//!   Column-sharding an operand `s` ways divides both the per-PE load and
//!   the per-shard nnz by `s` (the shard critical path), which is exactly
//!   why sharding only wins when it lifts the delivery floor: candidates
//!   on each shard axis are the *memory-feasible* counts, so a graph that
//!   fits one device is never split across phantom devices for a free
//!   predicted speedup.
//! * **A host calibration** (measured once per process). A handful of
//!   timed [`csc_times_dense_blocked`](spmm::csc_times_dense_blocked)
//!   probe calls yield `secs_per_mac`, which converts the candidate's MAC
//!   volume (discounted when the configuration enables replay, whose cache
//!   skips re-simulating repeated column patterns) into a
//!   predicted wall time — the tie-breaker among candidates with equal
//!   predicted cycles, and the "predicted" half of the
//!   predicted-vs-measured line in `PrepareReport`.
//!
//! Auto only *selects among existing kernels*: the execution order is the
//! implemented `A × (X × W)` schedule, and the pinned ascending-`j`
//! reduction order is untouched, so an Auto run is bit-identical to
//! hand-specifying the same configuration.

use crate::config::{AccelConfig, Design, ShardPolicy, StrategyPolicy};
use awb_gcn_model::GcnInput;
use awb_hw::{MemoryModel, BYTES_PER_NNZ};
use awb_sparse::profile::{col_nnz_stats, workload_stats, NnzStats};
use awb_sparse::{spmm, Coo, DenseMatrix};
use std::sync::OnceLock;

/// Fixed per-round launch/sync overhead in cycles (distributor restart +
/// column broadcast). Keeps every prediction strictly positive.
const ROUND_OVERHEAD: f64 = 8.0;

/// Fraction of the post-local-sharing imbalance that survives remote
/// switching once the auto-tuner converges (switching chases the residual
/// but never fully erases it within the tracking window).
const RS_RESIDUAL: f64 = 0.15;

/// Per-phase cycle penalty for remote switching on operands that re-tune
/// every request (the per-layer `X × W` engines are fresh each request, so
/// their tuning rounds land on the warm path, unlike the frozen `A` plan).
const RS_TUNE_CYCLES: f64 = 16.0;

/// Fraction of simulation work left after the replay cache deduplicates
/// repeated column patterns (dense `B` operands repeat heavily).
const REPLAY_MISS_FACTOR: f64 = 0.1;

/// Relative tolerance under which two cycle predictions count as tied and
/// the wall-time prediction breaks the tie.
const CYCLE_TIE_EPS: f64 = 1e-6;

/// The host calibration: measured cost of one MAC on this machine's warm
/// kernel path, from a few timed
/// [`csc_times_dense_blocked`](spmm::csc_times_dense_blocked) probe runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Seconds per multiply-accumulate on the blocked kernel (best of the
    /// probe runs, floored at 1 fs so downstream products stay positive).
    pub secs_per_mac: f64,
    /// Wall time of the best probe run, in seconds.
    pub probe_wall_s: f64,
    /// MACs executed by one probe run.
    pub probe_macs: u64,
    /// Measured sequential read bandwidth of the host's temp filesystem
    /// in bytes/second (best of a few timed 1 MiB re-reads — warm-cache,
    /// so an optimistic bound, which is all the warn-only I/O term
    /// needs). Falls back to 2 GB/s when probing fails.
    pub read_bytes_per_s: f64,
}

/// Read-bandwidth fallback when the I/O probe cannot run (read-only or
/// full temp dir): 2 GB/s, a mid-range NVMe figure.
const FALLBACK_READ_BW: f64 = 2.0e9;

/// Times a few 1 MiB reads of a just-written temp file; `None` when the
/// temp dir is unusable.
fn probe_read_bandwidth() -> Option<f64> {
    let path = std::env::temp_dir().join(format!("awb-io-probe-{}", std::process::id()));
    let payload = vec![0xA5u8; 1 << 20];
    std::fs::write(&path, &payload).ok()?;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = std::time::Instant::now();
        let data = std::fs::read(&path).ok()?;
        best = best.min(start.elapsed().as_secs_f64());
        std::hint::black_box(data);
    }
    let _ = std::fs::remove_file(&path);
    Some((payload.len() as f64 / best.max(1e-9)).max(1.0))
}

/// Runs (once per process) and returns the host micro-probe: a small
/// deterministic synthetic operand through
/// [`csc_times_dense_blocked`](spmm::csc_times_dense_blocked),
/// timed over a few repetitions. Cached in a `OnceLock`, so every prepare
/// after the first reads it for free.
pub fn host_calibration() -> &'static Calibration {
    static CALIBRATION: OnceLock<Calibration> = OnceLock::new();
    CALIBRATION.get_or_init(|| {
        // 256 columns x 8 nnz each, dense B with 16 columns: 32768 MACs —
        // big enough to dwarf timer noise, small enough to be invisible in
        // prepare latency.
        let (n, per_col, b_cols) = (256usize, 8usize, 16usize);
        let mut coo = Coo::new(n, n);
        for c in 0..n {
            for k in 0..per_col {
                let r = (c * 7 + k * 31) % n;
                // Duplicate (r, c) pushes coalesce in to_csc; the pattern
                // above never collides for per_col < 9.
                coo.push(r, c, 1.0 + (k as f32) * 0.5).expect("in bounds");
            }
        }
        let a = coo.to_csc();
        let b = DenseMatrix::from_vec(
            n,
            b_cols,
            (0..n * b_cols).map(|i| ((i % 7) as f32) - 3.0).collect(),
        )
        .expect("probe B well-formed");
        let probe_macs = (a.nnz() * b_cols) as u64;
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let start = std::time::Instant::now();
            let out = spmm::csc_times_dense_blocked(&a, &b).expect("probe SPMM");
            best = best.min(start.elapsed().as_secs_f64());
            std::hint::black_box(out);
        }
        let secs_per_mac = (best / probe_macs as f64).max(1e-15);
        Calibration {
            secs_per_mac,
            probe_wall_s: best,
            probe_macs,
            read_bytes_per_s: probe_read_bandwidth().unwrap_or(FALLBACK_READ_BW),
        }
    })
}

/// The sparsity-structure inputs the model scores against, computed once
/// per graph (an `O(n + nnz)` scan) and shared across every candidate —
/// and, via `GcnRunner::prepare_profiled`, across every `DesignSweep`
/// point on the same input.
#[derive(Debug, Clone)]
pub struct CostProfile {
    n: usize,
    a_nnz: usize,
    a_row_nnz: Vec<usize>,
    a_row_stats: NnzStats,
    a_col_stats: NnzStats,
    x1_nnz: usize,
    x1_cols: usize,
    x1_row_nnz: Vec<usize>,
    x1_row_stats: NnzStats,
    /// `(f_in, f_out)` per layer, from the weight shapes.
    layer_dims: Vec<(usize, usize)>,
}

impl CostProfile {
    /// Profiles `input`: row-nnz vectors and summary stats for `A` and
    /// `X1`, column-side stats for `A`, and layer dimensions.
    pub fn of_input(input: &GcnInput) -> Self {
        let a_row_nnz = input.a_norm.row_nnz_counts();
        let x1_row_nnz = input.x1.row_nnz_counts();
        CostProfile {
            n: input.a_norm.rows(),
            a_nnz: input.a_norm.nnz(),
            a_row_stats: workload_stats(&a_row_nnz),
            a_col_stats: col_nnz_stats(&input.a_norm_csc),
            x1_nnz: input.x1.nnz(),
            x1_cols: input.x1.cols(),
            x1_row_stats: workload_stats(&x1_row_nnz),
            layer_dims: input.weights.iter().map(|w| w.shape()).collect(),
            a_row_nnz,
            x1_row_nnz,
        }
    }

    /// Node count (rows/cols of `A`).
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// Row-nnz summary of the adjacency (the accumulation-side skew the
    /// rebalancer fights).
    pub fn a_row_stats(&self) -> &NnzStats {
        &self.a_row_stats
    }

    /// Column-nnz summary of the adjacency (the delivery-side view).
    pub fn a_col_stats(&self) -> &NnzStats {
        &self.a_col_stats
    }

    /// Row-nnz summary of the layer-1 feature matrix.
    pub fn x1_row_stats(&self) -> &NnzStats {
        &self.x1_row_stats
    }

    /// `(f_in, f_out)` per layer.
    pub fn layer_dims(&self) -> &[(usize, usize)] {
        &self.layer_dims
    }
}

/// Per-layer forecast attached to the winning candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerForecast {
    /// Predicted `X × W` cycles.
    pub xw_cycles: f64,
    /// Predicted `A × (XW)` cycles.
    pub a_xw_cycles: f64,
    /// MAC volume of the `A × (X × W)` schedule.
    pub a_xw_macs: u64,
}

/// Host I/O forecast attached to an [`AutoDecision`] when the
/// configuration streams `A` from an on-disk store
/// ([`AccelConfig::store`]). **Warn-only**: the term is added to the
/// winner's wall prediction *after* selection and is identical for every
/// candidate (the store and pass count are properties of the input, not
/// of the candidate knobs), so it never changes the ranking — and with no
/// store configured it does not exist at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoForecast {
    /// Estimated bytes streamed from the store per full pass over `A`
    /// (raw chunk payloads: values + indices + column pointer).
    pub bytes_per_pass: u64,
    /// Streaming passes per warm request — one per layer's `A × (XW)`.
    pub passes: u64,
    /// Calibrated host read bandwidth the conversion used (bytes/s).
    pub read_bytes_per_s: f64,
    /// Predicted store-read seconds per warm request.
    pub read_s: f64,
}

/// The frozen outcome of Auto selection: the winning knobs, the model's
/// predictions for them, and the per-layer breakdown. `apply` turns it
/// into the concrete `Manual` configuration the plan executes.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoDecision {
    /// Winning design point.
    pub design: Design,
    /// Winning aggregation-side shard policy (resolved to a concrete
    /// count; `Single` when the adjacency fits one device).
    pub shards: ShardPolicy,
    /// Winning combination-side shard policy (`MemoryBudget` when some
    /// layer's feature matrix overflows on-chip memory, else `Single`).
    pub combination_shards: ShardPolicy,
    /// Predicted end-to-end warm-path cycles for the winner.
    pub predicted_cycles: f64,
    /// Predicted host wall seconds for one warm request (MAC volume times
    /// the host calibration, discounted when the base configuration
    /// enables replay).
    pub predicted_wall_s: f64,
    /// Per-layer cycle/MAC forecast for the winner.
    pub layers: Vec<LayerForecast>,
    /// How many candidate configurations were scored.
    pub candidates_scored: usize,
    /// True when this decision was re-scored against the unsharded
    /// candidate set after a degraded sharded prepare (DESIGN.md §10's
    /// fallback rung) — the sharded predictions above would be stale.
    pub rescored_unsharded: bool,
    /// The warn-only host I/O forecast, when the configuration streams
    /// `A` from a store; `None` (and nothing changes anywhere in the
    /// scoring) for resident configurations.
    pub io: Option<IoForecast>,
}

impl AutoDecision {
    /// One-line human label of the chosen configuration, e.g.
    /// `"LS2+RS | A unsharded | X unsharded"`.
    pub fn label(&self) -> String {
        format!(
            "{} | A {} | X {}",
            self.design.label(),
            self.shards.label(),
            self.combination_shards.label(),
        )
    }

    /// The concrete configuration the decision resolves to: `base` with
    /// the winning design and shards applied and the strategy set back
    /// to [`StrategyPolicy::Manual`] — running it hand-specified is
    /// bit-identical to the Auto run (and re-preparing it never
    /// re-resolves).
    pub fn apply(&self, base: &AccelConfig) -> AccelConfig {
        let mut config = self.design.apply(base.clone());
        config.shards = self.shards;
        config.combination_shards = self.combination_shards;
        config.strategy = StrategyPolicy::Manual;
        config
    }

    /// Stable FNV-1a hash of the resolved choice, mixed into the serving
    /// plan-cache key so plans prepared under different Auto resolutions
    /// (e.g. before/after a memory-model change) never alias.
    pub fn choice_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.label().bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// `(local_hop, remote_switching)` a design point resolves to.
fn design_knobs(design: Design) -> (usize, bool) {
    match design {
        Design::Baseline | Design::EieLike => (0, false),
        Design::LocalSharing { hop } => (hop, false),
        Design::LocalPlusRemote { hop } => (hop, true),
    }
}

/// Folds per-row workloads into per-PE loads under the block mapping
/// (row `r` belongs to PE `r * n_pes / n`).
fn pe_loads(row_loads: &[usize], n_pes: usize) -> Vec<f64> {
    let n_pes = n_pes.max(1);
    let n = row_loads.len().max(1);
    let mut loads = vec![0.0f64; n_pes];
    for (r, &c) in row_loads.iter().enumerate() {
        loads[r * n_pes / n] += c as f64;
    }
    loads
}

/// The busiest PE's effective load after the design point's rebalancing:
/// raw max for `Base`, busiest hop-window average under local sharing
/// (work can only spread within the window), and mean plus a small
/// residual once remote switching converges.
fn effective_max(loads: &[f64], hop: usize, remote: bool) -> f64 {
    if loads.is_empty() {
        return 0.0;
    }
    let mean = loads.iter().sum::<f64>() / loads.len() as f64;
    let smoothed = if hop == 0 {
        loads.iter().copied().fold(0.0, f64::max)
    } else {
        let mut busiest = 0.0f64;
        for p in 0..loads.len() {
            let lo = p.saturating_sub(hop);
            let hi = (p + hop).min(loads.len() - 1);
            let window = loads[lo..=hi].iter().sum::<f64>() / (hi - lo + 1) as f64;
            busiest = busiest.max(window);
        }
        busiest.max(mean)
    };
    if remote {
        mean + (smoothed - mean) * RS_RESIDUAL
    } else {
        smoothed
    }
}

/// Predicted cycles for one SPMM phase: `rounds` rounds of the larger of
/// the busiest-PE load and the memory delivery floor, plus the one-time
/// operand fill. `shards` divides both the per-PE load and the per-shard
/// nnz (shard devices run in parallel; the prediction is their critical
/// path, matching how `ShardedEngine` accounts cycles).
fn phase_cycles(
    eff_max: f64,
    nnz: usize,
    rounds: usize,
    shards: usize,
    n_pes: usize,
    memory: &MemoryModel,
) -> f64 {
    let s = shards.max(1) as f64;
    let shard_nnz = (nnz as f64 / s).ceil() as usize;
    let bandwidth = memory.delivery_rate_limit(shard_nnz, n_pes.max(1)).max(1) as f64;
    let round = (eff_max / s).max(shard_nnz as f64 / bandwidth) + ROUND_OVERHEAD;
    rounds.max(1) as f64 * round + memory.fill_cycles(shard_nnz) as f64
}

/// Predicted cycles for one unsharded SPMM on an idealized (unbounded)
/// memory: the model's public single-phase form, exposed for property
/// tests and exploration. Finite, strictly positive, and monotone
/// non-decreasing in any row's nnz at fixed shape.
///
/// # Example
///
/// ```
/// use awb_accel::cost::predict_spmm_cycles;
/// use awb_accel::Design;
///
/// let skewed = predict_spmm_cycles(&[100, 1, 1, 1], 4, 16, Design::Baseline);
/// let balanced = predict_spmm_cycles(&[26, 26, 26, 26], 4, 16, Design::Baseline);
/// assert!(skewed > balanced);
/// let rebalanced = predict_spmm_cycles(&[100, 1, 1, 1], 4, 16, Design::LocalPlusRemote { hop: 1 });
/// assert!(rebalanced < skewed);
/// ```
pub fn predict_spmm_cycles(
    row_loads: &[usize],
    n_pes: usize,
    rounds: usize,
    design: Design,
) -> f64 {
    let (hop, remote) = design_knobs(design);
    let loads = pe_loads(row_loads, n_pes);
    let eff = effective_max(&loads, hop, remote);
    let nnz: usize = row_loads.iter().sum();
    phase_cycles(eff, nnz, rounds, 1, n_pes, &MemoryModel::unbounded())
}

/// Combines the two phase predictions of one layer under the configured
/// inter-SPMM pipelining (overlap bounded below by the longer stage plus
/// one round of the shorter, matching `pipeline_two_stage`'s bounds).
fn combine_layer(xw: f64, a_xw: f64, rounds: usize, pipelined: bool) -> f64 {
    if pipelined {
        xw.max(a_xw) + xw.min(a_xw) / rounds.max(1) as f64
    } else {
        xw + a_xw
    }
}

/// Memory-feasible shard counts for an operand of `nnz` non-zeros over
/// `cols` columns: just `[1]` when it fits on chip (sharding is a
/// capacity mechanism — splitting a resident operand across phantom
/// devices is never a real speedup), else the unsharded fallback plus the
/// minimal fitting count and one finer cut for the model to arbitrate.
fn shard_candidates(memory: &MemoryModel, nnz: usize, cols: usize) -> Vec<usize> {
    if memory.fits_on_chip(nnz) {
        return vec![1];
    }
    let budget = (memory.on_chip_bytes / BYTES_PER_NNZ).max(1);
    let need = nnz.div_ceil(budget).clamp(1, cols.max(1));
    let mut candidates = vec![1, need, (need + 1).min(cols.max(1))];
    candidates.sort_unstable();
    candidates.dedup();
    candidates
}

/// Scores one candidate; returns `(total_cycles, wall_s, per-layer)`.
#[allow(clippy::too_many_arguments)]
fn score_candidate(
    config: &AccelConfig,
    profile: &CostProfile,
    eff_a: f64,
    eff_x1: f64,
    a_shards: usize,
    x_policy: ShardPolicy,
    replay: bool,
    remote: bool,
    secs_per_mac: f64,
) -> (f64, f64, Vec<LayerForecast>) {
    let n_pes = config.n_pes;
    let memory = &config.memory;
    let x_budget_nnz = (memory.on_chip_bytes / BYTES_PER_NNZ).max(1);
    let mut total_cycles = 0.0;
    let mut total_macs = 0u64;
    let mut layers = Vec::with_capacity(profile.layer_dims.len());
    for (l, &(f_in, f_out)) in profile.layer_dims.iter().enumerate() {
        // X operand: the sparse X1 on layer 1, ReLU-dense features after.
        let (x_nnz, x_cols, x_eff) = if l == 0 {
            (profile.x1_nnz, profile.x1_cols, eff_x1)
        } else {
            let nnz = profile.n * f_in;
            // Uniform rows: every design's effective max is the mean.
            (nnz, f_in, nnz as f64 / n_pes.max(1) as f64)
        };
        let x_shards = match x_policy {
            ShardPolicy::MemoryBudget => x_nnz.div_ceil(x_budget_nnz).clamp(1, x_cols.max(1)),
            ShardPolicy::Fixed(s) => s.max(1),
            ShardPolicy::Single => 1,
        };
        let mut xw_cycles = phase_cycles(x_eff, x_nnz, f_out, x_shards, n_pes, memory);
        if remote {
            // Per-layer X engines are fresh each request: their remote
            // switching re-tunes on the warm path, unlike the frozen A plan.
            xw_cycles += RS_TUNE_CYCLES;
        }
        let a_xw_cycles = phase_cycles(eff_a, profile.a_nnz, f_out, a_shards, n_pes, memory);
        total_cycles += combine_layer(xw_cycles, a_xw_cycles, f_out, config.pipeline_spmms);

        let a_xw_macs = (x_nnz as u64 + profile.a_nnz as u64) * f_out as u64;
        total_macs += a_xw_macs;
        layers.push(LayerForecast {
            xw_cycles,
            a_xw_cycles,
            a_xw_macs,
        });
    }
    // Host wall: the numeric MAC work always runs; the simulation side is
    // replay-discounted because dense B columns repeat their nnz patterns.
    let sim_factor = if replay { REPLAY_MISS_FACTOR } else { 1.0 };
    let wall_s = secs_per_mac * total_macs as f64 * (1.0 + sim_factor);
    (total_cycles, wall_s, layers)
}

/// Predicted warm-path cycles for one *concrete* configuration — the same
/// score [`select`] would assign it as a candidate. Lets sweeps and tools
/// put the model's prediction next to each measured point without
/// enumerating the candidate space.
pub fn predict_config_cycles(config: &AccelConfig, profile: &CostProfile) -> f64 {
    let n_pes = config.n_pes;
    let remote = config.remote_switching;
    let a_pe = pe_loads(&profile.a_row_nnz, n_pes);
    let x1_pe = pe_loads(&profile.x1_row_nnz, n_pes);
    let eff_a = effective_max(&a_pe, config.local_hop, remote);
    let eff_x1 = effective_max(&x1_pe, config.local_hop, remote);
    let a_shards = match config.shards {
        ShardPolicy::Single => 1,
        ShardPolicy::Fixed(s) => s.max(1),
        ShardPolicy::MemoryBudget => {
            let budget = (config.memory.on_chip_bytes / BYTES_PER_NNZ).max(1);
            profile.a_nnz.div_ceil(budget).clamp(1, profile.n.max(1))
        }
    };
    let (cycles, _, _) = score_candidate(
        config,
        profile,
        eff_a,
        eff_x1,
        a_shards,
        config.combination_shards,
        config.replay,
        remote,
        host_calibration().secs_per_mac,
    );
    cycles
}

/// Scores the full candidate space for `config` against `profile` and
/// returns the winner. Deterministic for a given profile and config
/// (the host calibration scales every wall prediction equally, so the
/// ranking is host-independent). Infallible: the candidate space always
/// contains at least the baseline design, unsharded.
pub fn select(config: &AccelConfig, profile: &CostProfile) -> AutoDecision {
    select_constrained(config, profile, true)
}

/// [`select`] restricted to the unsharded candidate set — the re-scoring
/// path after a degraded sharded prepare (the sharded candidates' plans
/// can no longer be built, so keeping their predictions would be stale).
/// The returned decision has
/// [`rescored_unsharded`](AutoDecision::rescored_unsharded) set.
pub fn select_unsharded(config: &AccelConfig, profile: &CostProfile) -> AutoDecision {
    let mut decision = select_constrained(config, profile, false);
    decision.rescored_unsharded = true;
    decision
}

fn select_constrained(
    config: &AccelConfig,
    profile: &CostProfile,
    allow_sharded: bool,
) -> AutoDecision {
    let n_pes = config.n_pes;
    let secs_per_mac = host_calibration().secs_per_mac;
    let a_pe = pe_loads(&profile.a_row_nnz, n_pes);
    let x1_pe = pe_loads(&profile.x1_row_nnz, n_pes);

    // Design candidates: the paper's five-way lineup (hops that fit the
    // PE count). EIE-like is a reference datapath, not a strategy.
    let designs: Vec<(Design, f64, f64)> = Design::paper_lineup(1)
        .into_iter()
        .filter(|d| design_knobs(*d).0 < n_pes)
        .map(|d| {
            let (hop, remote) = design_knobs(d);
            (
                d,
                effective_max(&a_pe, hop, remote),
                effective_max(&x1_pe, hop, remote),
            )
        })
        .collect();

    let a_shard_options: Vec<usize> = if allow_sharded {
        shard_candidates(&config.memory, profile.a_nnz, profile.n)
    } else {
        vec![1]
    };
    // Combination axis: binary — unsharded, or the per-layer memory-derived
    // split when some layer's feature matrix overflows on-chip memory.
    let x_overflows = allow_sharded
        && profile
            .layer_dims
            .iter()
            .enumerate()
            .any(|(l, &(f_in, _))| {
                let nnz = if l == 0 {
                    profile.x1_nnz
                } else {
                    profile.n * f_in
                };
                !config.memory.fits_on_chip(nnz)
            });
    let x_options: Vec<ShardPolicy> = if x_overflows {
        vec![ShardPolicy::Single, ShardPolicy::MemoryBudget]
    } else {
        vec![ShardPolicy::Single]
    };

    let mut best: Option<AutoDecision> = None;
    let mut candidates_scored = 0usize;
    for &(design, eff_a, eff_x1) in &designs {
        let (_, remote) = design_knobs(design);
        for &a_shards in &a_shard_options {
            for &x_policy in &x_options {
                let (cycles, wall_s, layers) = score_candidate(
                    config,
                    profile,
                    eff_a,
                    eff_x1,
                    a_shards,
                    x_policy,
                    config.replay,
                    remote,
                    secs_per_mac,
                );
                candidates_scored += 1;
                let wins = match &best {
                    None => true,
                    Some(b) => {
                        let tie = (cycles - b.predicted_cycles).abs()
                            <= CYCLE_TIE_EPS * b.predicted_cycles.max(1.0);
                        (cycles < b.predicted_cycles && !tie)
                            || (tie && wall_s < b.predicted_wall_s)
                    }
                };
                if wins {
                    best = Some(AutoDecision {
                        design,
                        shards: if a_shards == 1 {
                            ShardPolicy::Single
                        } else {
                            ShardPolicy::Fixed(a_shards)
                        },
                        combination_shards: x_policy,
                        predicted_cycles: cycles,
                        predicted_wall_s: wall_s,
                        layers,
                        candidates_scored: 0,
                        rescored_unsharded: false,
                        io: None,
                    });
                }
            }
        }
    }
    let mut decision = best.expect("candidate space is never empty");
    decision.candidates_scored = candidates_scored;
    // Warn-only I/O term: applied to the already-chosen winner, identical
    // for any candidate it could have been, absent without a store — so
    // the resident ranking is provably untouched.
    decision.io = io_forecast(config, profile);
    if let Some(io) = &decision.io {
        decision.predicted_wall_s += io.read_s;
    }
    decision
}

/// Estimates the streaming I/O of one warm request when `config` names a
/// store: one pass over `A`'s chunk payloads (values + indices + column
/// pointer, the raw sizes — compression only shrinks them) per layer,
/// converted through the calibrated read bandwidth.
fn io_forecast(config: &AccelConfig, profile: &CostProfile) -> Option<IoForecast> {
    config.store.as_ref()?;
    let bytes_per_pass = (profile.a_nnz * (size_of::<u32>() + size_of::<f32>())
        + (profile.n + 1) * size_of::<u64>()) as u64;
    let passes = profile.layer_dims.len().max(1) as u64;
    let read_bytes_per_s = host_calibration().read_bytes_per_s.max(1.0);
    Some(IoForecast {
        bytes_per_pass,
        passes,
        read_bytes_per_s,
        read_s: (bytes_per_pass * passes) as f64 / read_bytes_per_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use awb_datasets::{DatasetSpec, GeneratedDataset};
    use awb_sparse::Coo;

    fn profile_for(nodes: usize, seed: u64) -> CostProfile {
        let data =
            GeneratedDataset::generate(&DatasetSpec::cora().with_nodes(nodes), seed).unwrap();
        CostProfile::of_input(&GcnInput::from_dataset(&data).unwrap())
    }

    #[test]
    fn calibration_is_positive_and_cached() {
        let c1 = host_calibration();
        let c2 = host_calibration();
        assert!(std::ptr::eq(c1, c2), "OnceLock must cache the probe");
        assert!(c1.secs_per_mac > 0.0 && c1.secs_per_mac.is_finite());
        assert!(c1.probe_macs > 0);
        assert!(c1.read_bytes_per_s >= 1.0 && c1.read_bytes_per_s.is_finite());
    }

    #[test]
    fn io_term_is_absent_without_a_store_and_ranking_neutral_with_one() {
        let profile = profile_for(192, 7);
        let resident = AccelConfig::builder().n_pes(32).build().unwrap();
        let resident_decision = select(&resident, &profile);
        assert_eq!(resident_decision.io, None);

        let streamed = AccelConfig::builder()
            .n_pes(32)
            .store(Some("graphs/test.store".into()))
            .build()
            .unwrap();
        let streamed_decision = select(&streamed, &profile);
        // Same knobs win — the I/O term never reorders candidates…
        assert_eq!(streamed_decision.design, resident_decision.design);
        assert_eq!(streamed_decision.shards, resident_decision.shards);
        assert_eq!(
            streamed_decision.combination_shards,
            resident_decision.combination_shards
        );
        assert_eq!(
            streamed_decision.predicted_cycles,
            resident_decision.predicted_cycles
        );
        // …it only annotates the winner's wall prediction.
        let io = streamed_decision.io.expect("store configured");
        assert!(io.bytes_per_pass > 0);
        assert_eq!(io.passes, profile.layer_dims().len() as u64);
        assert!(io.read_s > 0.0 && io.read_s.is_finite());
        let expected = resident_decision.predicted_wall_s + io.read_s;
        assert!((streamed_decision.predicted_wall_s - expected).abs() <= 1e-12 * expected);
    }

    #[test]
    fn predictions_finite_positive_and_design_ordered() {
        let loads = vec![40usize, 1, 1, 1, 1, 1, 1, 1];
        let base = predict_spmm_cycles(&loads, 8, 16, Design::Baseline);
        let ls = predict_spmm_cycles(&loads, 8, 16, Design::LocalSharing { hop: 1 });
        let rs = predict_spmm_cycles(&loads, 8, 16, Design::LocalPlusRemote { hop: 1 });
        for v in [base, ls, rs] {
            assert!(v.is_finite() && v > 0.0);
        }
        // Rebalancing can only help a skewed workload, and more of it more.
        assert!(ls < base);
        assert!(rs < ls);
    }

    #[test]
    fn prediction_monotone_in_nnz() {
        let mut loads = vec![3usize; 32];
        let before = predict_spmm_cycles(&loads, 8, 8, Design::LocalPlusRemote { hop: 2 });
        loads[5] += 10;
        let after = predict_spmm_cycles(&loads, 8, 8, Design::LocalPlusRemote { hop: 2 });
        assert!(after >= before);
    }

    #[test]
    fn select_prefers_rebalancing_on_skewed_graph() {
        // Nell-like clustering: heavy hub rows on a few PEs.
        let data = GeneratedDataset::generate(&DatasetSpec::nell().with_nodes(256), 8).unwrap();
        let profile = CostProfile::of_input(&GcnInput::from_dataset(&data).unwrap());
        let config = AccelConfig::builder().n_pes(64).build().unwrap();
        let decision = select(&config, &profile);
        assert!(
            decision.design != Design::Baseline,
            "skewed graph must not pick Base: {}",
            decision.label()
        );
        assert!(decision.predicted_cycles > 0.0);
        assert!(decision.predicted_wall_s > 0.0);
        // Five paper designs × one shard count × one combination policy.
        assert_eq!(decision.candidates_scored, 5);
        assert_eq!(decision.layers.len(), 2);
        // Fits on chip: no phantom shard devices.
        assert_eq!(decision.shards, ShardPolicy::Single);
        assert_eq!(decision.combination_shards, ShardPolicy::Single);
    }

    #[test]
    fn select_shards_only_when_memory_bound() {
        let profile = profile_for(256, 9);
        let mut config = AccelConfig::builder().n_pes(32).build().unwrap();
        config.memory = awb_hw::MemoryModel {
            // A tiny on-chip budget: the adjacency cannot fit one device.
            on_chip_bytes: 64 * awb_hw::BYTES_PER_NNZ,
            off_chip_bytes_per_cycle: 16.0,
        };
        let decision = select(&config, &profile);
        assert!(
            matches!(decision.shards, ShardPolicy::Fixed(s) if s > 1),
            "memory-bound adjacency must shard: {}",
            decision.label()
        );
        // The unsharded re-score is forced back onto one device and must
        // predict slower (the delivery floor binds).
        let rescored = select_unsharded(&config, &profile);
        assert!(rescored.rescored_unsharded);
        assert_eq!(rescored.shards, ShardPolicy::Single);
        assert_eq!(rescored.combination_shards, ShardPolicy::Single);
        assert!(rescored.predicted_cycles > decision.predicted_cycles);
    }

    #[test]
    fn apply_freezes_choice_into_manual_config() {
        let profile = profile_for(192, 4);
        let base = AccelConfig::builder()
            .n_pes(32)
            .strategy(StrategyPolicy::Auto)
            .build()
            .unwrap();
        let decision = select(&base, &profile);
        let resolved = decision.apply(&base);
        assert_eq!(resolved.strategy, StrategyPolicy::Manual);
        assert_eq!(resolved.shards, decision.shards);
        assert_eq!(resolved.combination_shards, decision.combination_shards);
        assert_eq!(resolved.replay, base.replay);
        let (hop, remote) = design_knobs(decision.design);
        assert_eq!(resolved.local_hop, hop);
        assert_eq!(resolved.remote_switching, remote);
    }

    #[test]
    fn choice_hash_distinguishes_choices() {
        let profile = profile_for(192, 4);
        let config = AccelConfig::builder().n_pes(32).build().unwrap();
        let d = select(&config, &profile);
        let mut other = d.clone();
        other.combination_shards = match other.combination_shards {
            ShardPolicy::Single => ShardPolicy::MemoryBudget,
            _ => ShardPolicy::Single,
        };
        assert_ne!(d.choice_hash(), other.choice_hash());
        assert_eq!(d.choice_hash(), select(&config, &profile).choice_hash());
    }

    #[test]
    fn forecast_counts_a_xw_macs() {
        let n = 32;
        let mut a = Coo::new(n, n);
        for i in 0..n {
            a.push(i, (i + 1) % n, 1.0).unwrap();
        }
        let mut x = Coo::new(n, 8);
        for i in 0..n {
            for c in 0..8 {
                x.push(i, c, 1.0).unwrap();
            }
        }
        let w1 = DenseMatrix::from_vec(8, 4, vec![1.0; 32]).unwrap();
        let input = GcnInput::from_parts(a.to_csr(), x.to_csr(), vec![w1]).unwrap();
        let profile = CostProfile::of_input(&input);
        let config = AccelConfig::builder().n_pes(8).build().unwrap();
        let decision = select(&config, &profile);
        // (x_nnz + a_nnz) * f_out = (256 + 32) * 4.
        assert_eq!(decision.layers[0].a_xw_macs, (256 + 32) * 4);
    }

    #[test]
    fn empty_pe_load_fold_is_safe() {
        assert_eq!(pe_loads(&[], 4), vec![0.0; 4]);
        assert_eq!(effective_max(&[], 2, true), 0.0);
        let cycles = predict_spmm_cycles(&[], 4, 4, Design::Baseline);
        assert!(cycles > 0.0, "round overhead keeps predictions positive");
    }
}
