//! Integration tests for the plan-owned scratch arenas (ISSUE 8): the
//! steady-state accumulate path must be allocation-free once warm, scratch
//! must never alias across concurrent workers, and turning pooling off
//! (`scratch_reuse = false`) must change nothing but the allocation count.

use awb_gcn_repro::accel::{
    par_map_threads, AccelConfig, Design, FastEngine, GcnRunner, ShardPolicy, SpmmEngine,
};
use awb_gcn_repro::datasets::{DatasetSpec, GeneratedDataset};
use awb_gcn_repro::gcn::GcnInput;
use awb_gcn_repro::sparse::DenseMatrix;

fn input(nodes: usize, seed: u64) -> GcnInput {
    let data = GeneratedDataset::generate(&DatasetSpec::cora().with_nodes(nodes), seed).unwrap();
    GcnInput::from_dataset(&data).unwrap()
}

fn config(n_pes: usize) -> AccelConfig {
    Design::LocalPlusRemote { hop: 1 }.apply(AccelConfig::builder().n_pes(n_pes).build().unwrap())
}

/// The acceptance criterion of ISSUE 8's tentpole: once the arena is warm,
/// a serving loop that recycles each consumed response performs **zero**
/// heap allocation on the accumulate path — `ArenaStats::created` counts
/// every checkout that had to allocate, so exact stability across a batch
/// is the assertion.
#[test]
fn warm_plan_requests_allocate_nothing() {
    let input = input(192, 21);
    let (plan, warmup) = GcnRunner::new(config(32)).prepare(&input).unwrap();
    // The prepare warm-up's escaped outputs never returned; hand one back
    // and run a couple of requests so every pool reaches its high-water
    // mark before measuring.
    plan.recycle_output(warmup.output);
    for _ in 0..2 {
        let out = plan.run(&input.x1).unwrap();
        plan.recycle_output(out.output);
    }
    let warm = plan.scratch_stats();
    assert!(warm.created > 0, "warm-up must have grown the pools");
    assert!(warm.pooled > 0, "buffers must be parked between requests");
    for request in 0..5 {
        let out = plan.run(&input.x1).unwrap();
        plan.recycle_output(out.output);
        let now = plan.scratch_stats();
        assert_eq!(
            now.created, warm.created,
            "request {request} allocated on the warm path"
        );
        assert!(
            now.reused > warm.reused,
            "request {request} bypassed the pool"
        );
    }
}

/// Same assertion across the sharded plan path: member sessions simulate
/// timing only, drawing their simulator scratch from the pipeline's one
/// pool, which also serves the pinned global-order kernel.
#[test]
fn warm_sharded_plan_requests_allocate_nothing() {
    let input = input(192, 22);
    let mut cfg = config(16);
    cfg.shards = ShardPolicy::Fixed(3);
    let (plan, warmup) = GcnRunner::new(cfg).prepare(&input).unwrap();
    plan.recycle_output(warmup.output);
    for _ in 0..2 {
        let out = plan.run(&input.x1).unwrap();
        plan.recycle_output(out.output);
    }
    let warm = plan.scratch_stats();
    for request in 0..4 {
        let out = plan.run(&input.x1).unwrap();
        plan.recycle_output(out.output);
        let now = plan.scratch_stats();
        assert_eq!(
            now.created, warm.created,
            "sharded request {request} allocated on the warm path"
        );
    }
    assert!(plan.scratch_stats().reused > warm.reused);
}

/// Without recycling, the only steady-state allocation left is the one
/// output matrix per request that the caller keeps.
#[test]
fn unrecycled_requests_allocate_at_most_the_escaping_output() {
    let input = input(160, 26);
    let (plan, _) = GcnRunner::new(config(16)).prepare(&input).unwrap();
    for _ in 0..2 {
        plan.run(&input.x1).unwrap();
    }
    let warm = plan.scratch_stats();
    let batch = 4;
    for _ in 0..batch {
        plan.run(&input.x1).unwrap();
    }
    let grown = plan.scratch_stats().created - warm.created;
    assert!(
        grown <= batch,
        "{grown} allocations over {batch} requests — scratch is leaking past the pool"
    );
}

/// `scratch_reuse = false` is the A/B baseline: outputs bit-identical,
/// pools empty, nothing ever reused.
#[test]
fn disabled_arena_is_bit_identical_and_pools_nothing() {
    let input = input(160, 23);
    let (pooled, _) = GcnRunner::new(config(16)).prepare(&input).unwrap();
    let mut off = config(16);
    off.scratch_reuse = false;
    let (raw, _) = GcnRunner::new(off).prepare(&input).unwrap();
    let a = pooled.run(&input.x1).unwrap();
    let b = raw.run(&input.x1).unwrap();
    assert_eq!(a.output, b.output, "pooling must not change numerics");
    assert_eq!(a.stats, b.stats, "pooling must not change timing");
    let stats = raw.scratch_stats();
    assert_eq!(stats.pooled, 0, "disabled arena must retain nothing");
    assert_eq!(stats.pooled_bytes, 0);
    assert_eq!(stats.reused, 0);
}

/// Concurrent sessions over one shared plan draw from one shared arena;
/// outputs must stay bit-identical to the serial run — if two workers ever
/// aliased a scratch buffer, the accumulators would tear.
#[test]
fn concurrent_sessions_share_the_arena_without_aliasing() {
    let input = input(192, 24);
    let (plan, _) = GcnRunner::new(config(32)).prepare(&input).unwrap();
    let reference = plan.run(&input.x1).unwrap();
    let requests: Vec<usize> = (0..16).collect();
    let outputs = par_map_threads(8, &requests, |_| plan.run(&input.x1).unwrap().output);
    for (i, out) in outputs.iter().enumerate() {
        assert_eq!(out, &reference.output, "request {i} diverged");
    }
}

/// The engine-level arena survives `freeze_plan`: the plan inherits the
/// pool the warm-up grew, so session request 1 already reuses.
#[test]
fn frozen_plan_inherits_engine_arena() {
    let input = input(128, 25);
    let a_csc = &input.a_norm_csc;
    let b = DenseMatrix::from_vec(
        a_csc.cols(),
        8,
        (0..a_csc.cols() * 8).map(|i| (i % 5) as f32).collect(),
    )
    .unwrap();
    let mut engine = FastEngine::new(config(16));
    engine.run(a_csc, &b, "warmup").unwrap();
    let warmed = engine.scratch_stats();
    assert!(warmed.pooled > 0);
    let plan = engine.freeze_plan(a_csc).unwrap();
    assert_eq!(plan.scratch_stats(), warmed, "freeze must share, not copy");
    let mut session = plan.session();
    let outcome = session.run(a_csc, &b, "req").unwrap();
    plan.recycle_output(outcome.c);
    let after = plan.scratch_stats();
    assert!(
        after.reused > warmed.reused,
        "session must draw from the inherited pool"
    );
}
