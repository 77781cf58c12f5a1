//! Bench smoke: a quick, CI-friendly engine-throughput measurement that
//! writes a machine-readable `BENCH_engine.json`, seeding the repository's
//! perf trajectory (each PR's CI run leaves a comparable record).
//!
//! Runs the fast engine on the Cora adjacency (the `kernels` bench's
//! `fast_engine` workload) for the baseline and Design-D points, both with
//! the steady-state replay cache and with it disabled, and records tasks,
//! wall-clock, and tasks/second. A shard axis (schema 3) additionally
//! records the Design-D point executed across 2/4/8 nnz-balanced column
//! shards (`ShardedEngine`), so the trajectory tracks multi-device
//! throughput alongside the single-device records (which carry
//! `"shards": 1`). A combination-shard axis (schema 4) records the
//! Design-D point on the `X × W` workload (the Cora feature matrix times
//! a dense weight block) across 2/4/8 shards; every record carries both
//! `"shards"` and `"xw_shards"`. A serving record (schema 5, `"workload":
//! "serve"`) measures the multi-tenant front-end end to end: a
//! `GcnService` batch on a warm plan cache, recording requests/second
//! plus p50/p95/p99 queue-wait and execute latency and the plan-cache
//! hit/miss counters. A second serving record (schema 6, `"workload":
//! "serve_isolated"`) drives the same warm batch through the
//! fault-tolerant path (`serve_isolated`: per-request `catch_unwind`
//! isolation and the fault hooks) with injection *disabled* — comparing
//! it against the plain serve record gates the "fault hooks are
//! zero-cost when off" requirement. Schema 7 adds the raw-kernel axis:
//! two `"workload": "kernel"` records time the scalar vs blocked
//! (`csc_times_dense_blocked`) accumulate kernels on the Pubmed-shaped
//! operand and report a `"gflops"` MAC rate (2 FLOPs per MAC over
//! `csc_times_dense_macs`), and a `"workload": "serve_arena_off"`
//! record re-runs the warm serving batch with `scratch_reuse` disabled —
//! the per-request-allocation A/B for the plan-owned scratch arenas.
//! Schema 8 adds the strategy axis: every record carries a `"policy"`
//! field (`"manual"` for the hand-specified records), and a `"workload":
//! "auto"` record resolves `StrategyPolicy::Auto` on Cora, measures its
//! warm-path cycles, sweeps the paper lineup post hoc, and records the
//! machine-independent `"auto_best_ratio"` (auto warm cycles over the
//! post-hoc best point's) — gated warn-only when it exceeds 1.10.
//! An out-of-core record (schema 9, `"workload"`: `"streamed"`) runs the
//! Design-D point on Pubmed from a chunked on-disk store under a host
//! budget a third of the resident adjacency, recording resident-peak
//! bytes, exact store-read bytes, and the prefetch overlap fraction —
//! warn-only in the compare gate like the other end-to-end records.
//! Every record carries `"workload"` (`"spmm"` for the engine records)
//! and the compare gate matches on (workload, design, replay, shards,
//! xw_shards); `"spmm"` and `"kernel"` records gate hard (`"kernel"`
//! records normalize by their own run's scalar rate, so the gated
//! quantity is the blocked/scalar speedup ratio), serve and auto records
//! are excluded from the machine-speed geomean and only *warn* on
//! throughput, p95, or ratio drift (end-to-end wall-clock is noisier
//! than the kernel records).
//!
//! Usage:
//!   cargo run --release -p awb_bench --example bench_smoke [-- --out PATH]
//!   cargo run --release -p awb_bench --example bench_smoke -- --check PATH
//!   cargo run --release -p awb_bench --example bench_smoke -- --compare FRESH BASELINE
//!
//! `--check` re-reads a previously written file and fails (non-zero exit)
//! if it is malformed: not syntactically valid JSON, or missing the
//! required record fields. `--compare` diffs a freshly written record
//! against the committed baseline, failing on a > 20% throughput
//! regression in any matched (design, replay) record and warning (only)
//! on replay hit-rate drift. CI runs write-then-check-then-compare.

use awb_accel::{
    exec, AccelConfig, Design, DesignSweep, FastEngine, GcnRunner, GcnService, LatencyPercentiles,
    ShardPolicy, ShardedEngine, SpmmEngine, StrategyPolicy,
};
use awb_bench::BENCH_SEED;
use awb_datasets::{DatasetSpec, GeneratedDataset};
use awb_gcn_model::GcnInput;
use awb_sparse::json::Json;
use awb_sparse::{spmm, Csc, DenseMatrix};
use std::time::Instant;

const DEFAULT_PATH: &str = "BENCH_engine.json";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--check") => {
            let path = args.get(1).map(String::as_str).unwrap_or(DEFAULT_PATH);
            check(path);
        }
        Some("--compare") => {
            let fresh = args.get(1).map(String::as_str).unwrap_or(DEFAULT_PATH);
            let baseline = args.get(2).map(String::as_str).unwrap_or(DEFAULT_PATH);
            compare(fresh, baseline);
        }
        Some("--out") => {
            let path = args.get(1).map(String::as_str).unwrap_or(DEFAULT_PATH);
            write_bench(path);
        }
        None => write_bench(DEFAULT_PATH),
        Some(other) => {
            eprintln!("unknown argument {other}; use --out PATH or --check PATH");
            std::process::exit(2);
        }
    }
}

/// Engines the smoke protocol can measure: any [`SpmmEngine`] exposing
/// its replay counters.
trait SmokeEngine: SpmmEngine {
    fn counters(&self) -> (u64, u64);
}

impl SmokeEngine for FastEngine {
    fn counters(&self) -> (u64, u64) {
        (self.replay_hits(), self.replay_misses())
    }
}

impl SmokeEngine for ShardedEngine {
    fn counters(&self) -> (u64, u64) {
        (self.replay_hits(), self.replay_misses())
    }
}

/// One measured point (the fields every record serializes).
struct Measured {
    tasks: u64,
    wall_s: f64,
    hits: u64,
    misses: u64,
}

/// The measurement protocol shared by every record: warm once (dataset
/// faults, allocator), then keep the best of three timed fresh-engine
/// runs — a single ms-scale sample is noisy enough (scheduler
/// contention) to destabilize the CI compare gate; best-of is robust to
/// slow outliers.
fn best_of_three<E: SmokeEngine>(make: impl Fn() -> E, a: &Csc, b: &DenseMatrix) -> Measured {
    make().run(a, b, "warmup").unwrap();
    let mut m = Measured {
        tasks: 0,
        wall_s: f64::MAX,
        hits: 0,
        misses: 0,
    };
    for _ in 0..3 {
        let mut engine = make();
        let start = Instant::now();
        let out = engine.run(a, b, "smoke").unwrap();
        m.wall_s = m.wall_s.min(start.elapsed().as_secs_f64().max(1e-9));
        m.tasks = out.stats.total_tasks();
        (m.hits, m.misses) = engine.counters();
    }
    m
}

/// The engine record template (schema 5): both shard axes plus the
/// workload discriminator in every record; schema 8 stamps the strategy
/// policy (these records all hand-specify their configuration).
fn record(design: Design, replay: bool, shards: usize, xw_shards: usize, m: &Measured) -> String {
    format!(
        "    {{\"dataset\": \"cora\", \"design\": \"{}\", \"replay\": {replay}, \
         \"shards\": {shards}, \"xw_shards\": {xw_shards}, \"workload\": \"spmm\", \
         \"policy\": \"manual\", \"n_pes\": 1024, \"tasks\": {}, \
         \"wall_s\": {:.6}, \"tasks_per_s\": {:.1}, \"replay_hits\": {}, \"replay_misses\": {}}}",
        design.label(),
        m.tasks,
        m.wall_s,
        m.tasks as f64 / m.wall_s,
        m.hits,
        m.misses
    )
}

/// Shared setup for the serving records: the Cora graph plus an 8-request
/// feature stream on a warmed `GcnService`. `scratch_reuse` selects the
/// arena-on/arena-off A/B (schema 7).
fn serve_fixture(scratch_reuse: bool) -> (GcnInput, Vec<awb_sparse::Csr>, GcnService) {
    let design = Design::LocalPlusRemote { hop: 2 };
    let data = GeneratedDataset::generate(&DatasetSpec::cora(), BENCH_SEED).expect("dataset");
    let input = GcnInput::from_dataset(&data).expect("gcn input");
    let config = design.apply(
        AccelConfig::builder()
            .n_pes(1024)
            .scratch_reuse(scratch_reuse)
            .build()
            .unwrap(),
    );
    let requests: Vec<_> = (0..8)
        .map(|i| {
            if i == 0 {
                input.x1.clone()
            } else {
                GeneratedDataset::with_adjacency(
                    &data.spec,
                    data.adjacency.clone(),
                    BENCH_SEED + i as u64,
                )
                .expect("request features")
                .features
            }
        })
        .collect();
    let service = GcnService::new(config);
    (input, requests, service)
}

/// Serializes a serving measurement under its workload discriminator.
#[allow(clippy::too_many_arguments)]
fn serve_json(
    workload: &str,
    tasks: usize,
    wall_s: f64,
    wait: &LatencyPercentiles,
    exec_p: &LatencyPercentiles,
    hits: u64,
    misses: u64,
) -> String {
    format!(
        "    {{\"dataset\": \"cora\", \"design\": \"{}\", \"replay\": true, \
         \"shards\": 1, \"xw_shards\": 1, \"workload\": \"{workload}\", \
         \"policy\": \"manual\", \"n_pes\": 1024, \
         \"tasks\": {tasks}, \"wall_s\": {wall_s:.6}, \"tasks_per_s\": {:.1}, \
         \"p50_wait_ms\": {:.3}, \"p95_wait_ms\": {:.3}, \"p99_wait_ms\": {:.3}, \
         \"p50_exec_ms\": {:.3}, \"p95_exec_ms\": {:.3}, \"p99_exec_ms\": {:.3}, \
         \"cache_hits\": {hits}, \"cache_misses\": {misses}}}",
        Design::LocalPlusRemote { hop: 2 }.label(),
        tasks as f64 / wall_s,
        wait.p50 * 1e3,
        wait.p95 * 1e3,
        wait.p99 * 1e3,
        exec_p.p50 * 1e3,
        exec_p.p95 * 1e3,
        exec_p.p99 * 1e3,
    )
}

/// The serving record (schema 5): the multi-tenant front-end measured end
/// to end on a warm plan cache. `tasks` is the request count and
/// `tasks_per_s` is requests/second; the percentile fields are
/// milliseconds. The schema-7 `"serve_arena_off"` twin runs the identical
/// batch with `scratch_reuse` disabled — the gap between the two records
/// is the end-to-end cost of per-request scratch allocation.
fn serve_record(workload: &str, scratch_reuse: bool) -> String {
    let (input, requests, mut service) = serve_fixture(scratch_reuse);
    // Warm batch pays the prepare (the cache miss); the timed batch runs
    // on a warm cache — the steady serving state the record tracks.
    service.serve_graph(&input, &requests).expect("warm batch");
    let start = Instant::now();
    let batch = service.serve_graph(&input, &requests).expect("timed batch");
    let wall_s = start.elapsed().as_secs_f64().max(1e-9);
    let wait = batch.queue_wait_percentiles();
    let exec_p = batch.execute_percentiles();
    let stats = service.cache_stats();
    serve_json(
        workload,
        batch.requests.len(),
        wall_s,
        &wait,
        &exec_p,
        stats.hits,
        stats.misses,
    )
}

/// The fault-tolerant serving record (schema 6): the identical warm batch
/// driven through `serve_isolated` — per-request `catch_unwind` isolation,
/// ingest validation, and the fault hooks all present but with injection
/// *disabled*. Comparing its requests/second against the `"serve"` record
/// measures the cost of the fault-tolerance layer when off (required:
/// within noise).
fn serve_isolated_record() -> String {
    let (input, requests, mut service) = serve_fixture(true);
    service.prepare("cora", &input).expect("prepare");
    service
        .serve_isolated("cora", &requests)
        .expect("warm batch");
    let start = Instant::now();
    let batch = service
        .serve_isolated("cora", &requests)
        .expect("timed batch");
    let wall_s = start.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(
        batch.failed_count(),
        0,
        "no faults are armed: every slot must complete"
    );
    let wait = LatencyPercentiles::from_samples(batch.completed().map(|r| r.queue_wait_s));
    let exec_p = LatencyPercentiles::from_samples(batch.completed().map(|r| r.wall_s));
    let tasks = batch.results.len();
    let stats = service.cache_stats();
    serve_json(
        "serve_isolated",
        tasks,
        wall_s,
        &wait,
        &exec_p,
        stats.hits,
        stats.misses,
    )
}

/// The raw-kernel records (schema 7): scalar vs blocked accumulate on the
/// Pubmed-shaped operand — the tentpole speedup the trajectory tracks.
/// `tasks` is the MAC count, `"gflops"` the MAC rate at 2 FLOPs per MAC
/// (multiply + accumulate); the `"design"` field names the kernel.
fn kernel_records() -> Vec<String> {
    let data = GeneratedDataset::generate(&DatasetSpec::pubmed(), BENCH_SEED).expect("dataset");
    let a = data.adjacency.to_csc();
    let b = DenseMatrix::from_vec(
        a.cols(),
        16,
        (0..a.cols() * 16)
            .map(|i| ((i % 11) as f32) - 5.0)
            .collect(),
    )
    .expect("dense B");
    let macs = spmm::csc_times_dense_macs(&a, &b).expect("mac count") as u64;
    let time3 = |kernel: &dyn Fn() -> DenseMatrix| -> f64 {
        std::hint::black_box(kernel());
        let mut best = f64::MAX;
        for _ in 0..5 {
            let start = Instant::now();
            let out = kernel();
            best = best.min(start.elapsed().as_secs_f64().max(1e-9));
            std::hint::black_box(&out);
        }
        best
    };
    let emit = |kernel: &str, wall_s: f64| -> String {
        format!(
            "    {{\"dataset\": \"pubmed\", \"design\": \"{kernel}\", \"replay\": false, \
             \"shards\": 1, \"xw_shards\": 1, \"workload\": \"kernel\", \
             \"policy\": \"manual\", \"n_pes\": 1, \
             \"tasks\": {macs}, \"wall_s\": {wall_s:.6}, \"tasks_per_s\": {:.1}, \
             \"gflops\": {:.3}}}",
            macs as f64 / wall_s,
            2.0 * macs as f64 / wall_s / 1e9,
        )
    };
    vec![
        emit(
            "scalar",
            time3(&|| spmm::csc_times_dense(&a, &b).expect("scalar kernel")),
        ),
        emit(
            "blocked",
            time3(&|| spmm::csc_times_dense_blocked(&a, &b).expect("blocked kernel")),
        ),
    ]
}

/// The Auto-strategy record (schema 8): resolve `StrategyPolicy::Auto` on
/// Cora, measure the chosen plan's warm-path cycles, sweep the paper
/// lineup post hoc at the same PE count, and record auto-vs-best as the
/// machine-independent cycle ratio `"auto_best_ratio"` (compare warns —
/// never fails — when it exceeds the 1.10 honesty bound).
fn auto_record() -> String {
    let data = GeneratedDataset::generate(&DatasetSpec::cora(), BENCH_SEED).expect("dataset");
    let input = GcnInput::from_dataset(&data).expect("gcn input");
    let base = AccelConfig::builder().n_pes(1024).build().expect("config");
    let points = DesignSweep::new()
        .pe_counts(vec![base.n_pes])
        .base_config(base.clone())
        .run(&input)
        .expect("post-hoc sweep");
    let best = points
        .iter()
        .map(|p| p.warm_cycles)
        .min()
        .expect("sweep points")
        .max(1);
    let mut auto_cfg = base;
    auto_cfg.strategy = StrategyPolicy::Auto;
    let decision = GcnRunner::new(auto_cfg.clone())
        .resolve_strategy(&input)
        .expect("auto decision");
    let (plan, _) = GcnRunner::new(auto_cfg).prepare(&input).expect("prepare");
    let start = Instant::now();
    let warm = plan.run_input(&input).expect("warm run");
    let wall_s = start.elapsed().as_secs_f64().max(1e-9);
    let cycles = warm.stats.total_cycles();
    format!(
        "    {{\"dataset\": \"cora\", \"design\": \"auto\", \"replay\": true, \
         \"shards\": 1, \"xw_shards\": 1, \"workload\": \"auto\", \"policy\": \"auto\", \
         \"n_pes\": 1024, \"tasks\": {cycles}, \"wall_s\": {wall_s:.6}, \
         \"tasks_per_s\": {:.1}, \"chosen\": \"{}\", \"predicted_cycles\": {:.1}, \
         \"auto_best_ratio\": {:.4}}}",
        cycles as f64 / wall_s,
        decision.label(),
        decision.predicted_cycles,
        cycles as f64 / best as f64,
    )
}

/// The out-of-core record (schema 9): the Design-D point on Pubmed
/// streamed from a chunked on-disk store, best-of-three cold runs under a
/// host budget a third of the resident adjacency (so the pipeline must
/// shard). Residency and overlap ride along; the compare gate treats the
/// `"streamed"` workload warn-only like the other end-to-end records.
fn streamed_record() -> String {
    let design = Design::LocalPlusRemote { hop: 2 };
    let data = GeneratedDataset::generate(&DatasetSpec::pubmed(), BENCH_SEED).expect("dataset");
    let input = GcnInput::from_dataset(&data).expect("gcn input");
    let budget = (input.a_norm_csc.heap_bytes() / 3).max(1);
    let dir = std::env::temp_dir().join(format!("awb-bench-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // Two host workers so the prefetch lane genuinely runs beside compute
    // (file I/O blocks off-CPU, so this overlaps even on one core).
    let mut builder = AccelConfig::builder();
    builder.n_pes(1024).threads(Some(2));
    let mut config = design.apply(builder.build().expect("config"));
    config.store = Some(dir.clone());
    config.host_mem_budget = Some(budget);
    let runner = GcnRunner::new(config);
    // First run writes the store; the timed runs below stream it.
    runner.run(&input).expect("store ingest");
    let mut wall_s = f64::MAX;
    let mut last = None;
    for _ in 0..3 {
        let start = Instant::now();
        let out = runner.run(&input).expect("streamed run");
        wall_s = wall_s.min(start.elapsed().as_secs_f64().max(1e-9));
        last = Some(out);
    }
    let out = last.expect("measured runs");
    let stream = out.stream.expect("streamed stats");
    let cycles = out.stats.total_cycles();
    std::fs::remove_dir_all(&dir).ok();
    format!(
        "    {{\"dataset\": \"pubmed\", \"design\": \"{}\", \"replay\": true, \
         \"shards\": {}, \"xw_shards\": 1, \"workload\": \"streamed\", \
         \"policy\": \"manual\", \"n_pes\": 1024, \"tasks\": {cycles}, \
         \"wall_s\": {wall_s:.6}, \"tasks_per_s\": {:.1}, \
         \"resident_peak_bytes\": {}, \"io_bytes\": {}, \"overlap_fraction\": {:.4}}}",
        design.label(),
        stream.shards,
        cycles as f64 / wall_s,
        stream.resident_peak_bytes,
        stream.io_bytes,
        stream.overlap_fraction(),
    )
}

fn write_bench(path: &str) {
    let data = GeneratedDataset::generate(&DatasetSpec::cora(), BENCH_SEED).expect("dataset");
    let a = data.adjacency.to_csc();
    let b = DenseMatrix::from_vec(
        a.cols(),
        16,
        (0..a.cols() * 16).map(|i| (i % 7) as f32 + 1.0).collect(),
    )
    .expect("dense B");

    let mut records: Vec<String> = Vec::new();
    for design in [Design::Baseline, Design::LocalPlusRemote { hop: 2 }] {
        for replay in [true, false] {
            let config = design.apply(AccelConfig::builder().n_pes(1024).build().unwrap());
            let m = best_of_three(
                || {
                    let mut engine = FastEngine::new(config.clone());
                    engine.set_replay_enabled(replay);
                    engine
                },
                &a,
                &b,
            );
            records.push(record(design, replay, 1, 1, &m));
        }
    }

    // Shard-scalability axis: the Design-D point across 2/4/8 nnz-balanced
    // column shards, one ShardedEngine device set per record (the 1-shard
    // point is the single-device Design-D record above).
    let design = Design::LocalPlusRemote { hop: 2 };
    for shards in [2usize, 4, 8] {
        let mut builder = AccelConfig::builder();
        builder.n_pes(1024).shards(ShardPolicy::Fixed(shards));
        let config = design.apply(builder.build().expect("valid config"));
        let m = best_of_three(|| ShardedEngine::new(config.clone()), &a, &b);
        records.push(record(design, true, shards, 1, &m));
    }

    // Combination-shard axis (schema 4): the Design-D point on the X×W
    // workload — the Cora feature matrix times a dense weight block —
    // across 2/4/8 nnz-balanced column shards of X. No 1-shard X×W record
    // is written: its key (shards=1, xw_shards=1) already names the A×B
    // single-device records, and unsharded X×W runs the same FastEngine
    // path those records gate — so these records track the *sharded*
    // X×W trajectory, not a speedup ratio within the file.
    let x1 = data.features.to_csc();
    let w = DenseMatrix::from_vec(
        x1.cols(),
        16,
        (0..x1.cols() * 16).map(|i| (i % 5) as f32 + 1.0).collect(),
    )
    .expect("dense W");
    for xw_shards in [2usize, 4, 8] {
        let mut builder = AccelConfig::builder();
        builder
            .n_pes(1024)
            .combination_shards(ShardPolicy::Fixed(xw_shards));
        let config = design.apply(builder.build().expect("valid config"));
        let partitioner = config.combination_partitioner();
        let m = best_of_three(
            || ShardedEngine::with_partitioner(config.clone(), partitioner),
            &x1,
            &w,
        );
        records.push(record(design, true, 1, xw_shards, &m));
    }

    // Raw-kernel axis (schema 7): scalar vs blocked accumulate MAC rates
    // on the Pubmed-shaped operand.
    records.extend(kernel_records());

    // Serving axis (schema 5): the multi-tenant front-end on a warm plan
    // cache — end-to-end requests/second plus latency percentiles.
    records.push(serve_record("serve", true));

    // Arena A/B (schema 7): the same warm batch with scratch pooling off.
    records.push(serve_record("serve_arena_off", false));

    // Fault-tolerance axis (schema 6): the same warm batch through the
    // isolated path with injection disabled — the zero-cost-off gate.
    records.push(serve_isolated_record());

    // Strategy axis (schema 8): Auto's pick vs the post-hoc best sweep
    // point, as a machine-independent warm-cycle ratio.
    records.push(auto_record());

    // Out-of-core axis (schema 9): the streamed Design-D point with
    // residency and prefetch-overlap accounting.
    records.push(streamed_record());

    let json = format!(
        "{{\n  \"schema\": 9,\n  \"bench\": \"engine_throughput\",\n  \"quick\": true,\n  \
         \"threads\": {},\n  \"records\": [\n{}\n  ]\n}}\n",
        exec::num_threads(),
        records.join(",\n")
    );
    std::fs::write(path, &json).expect("write BENCH_engine.json");
    println!("wrote {path}:\n{json}");
}

/// Reads and parses a bench file, exiting non-zero (with `what` as the
/// failing step) when it cannot be read or is not valid JSON.
fn read_bench(path: &str, what: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("BENCH {what} failed: cannot read {path}: {e}");
        std::process::exit(1);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("BENCH {what} failed: {path} is not valid JSON: {e}");
        std::process::exit(1);
    })
}

fn check(path: &str) {
    let doc = read_bench(path, "check");
    let records = doc.get("records").and_then(Json::as_array).unwrap_or(&[]);
    let missing = ["bench", "records"]
        .into_iter()
        .find(|field| doc.get(field).is_none())
        .or_else(|| {
            [
                "dataset",
                "design",
                "shards",
                "xw_shards",
                "workload",
                "tasks",
                "wall_s",
                "tasks_per_s",
                "p95_exec_ms",
                "gflops",
                "policy",
                "auto_best_ratio",
                "resident_peak_bytes",
                "overlap_fraction",
            ]
            .into_iter()
            .find(|field| !records.iter().any(|r| r.get(field).is_some()))
        });
    if let Some(field) = missing {
        eprintln!("BENCH check failed: {path} lacks required field \"{field}\"");
        std::process::exit(1);
    }
    println!("{path}: ok");
}

/// One parsed bench record (the fields `--compare` consumes).
#[derive(Debug, Clone, PartialEq)]
struct Record {
    design: String,
    replay: bool,
    /// Aggregation-side column-shard devices (1 for records predating
    /// schema 3).
    shards: u64,
    /// Combination-side (X×W) column-shard devices (1 for records
    /// predating schema 4).
    xw_shards: u64,
    /// `"spmm"` for the engine records, `"serve"` for the end-to-end
    /// serving record (`"spmm"` for records predating schema 5).
    workload: String,
    tasks_per_s: f64,
    /// Hit rate `hits / (hits + misses)`, None when the record predates
    /// schema 2 or no steady-state round consulted the cache.
    hit_rate: Option<f64>,
    /// p95 execute latency in ms, serve records only (schema 5).
    p95_exec_ms: Option<f64>,
    /// Auto warm cycles over the post-hoc best sweep point's, `"auto"`
    /// records only (schema 8). Machine-independent; warned on, never
    /// gated.
    auto_best_ratio: Option<f64>,
}

/// Extracts the engine/serve/kernel records of a parsed bench file.
fn parse_records(doc: &Json, path: &str) -> Vec<Record> {
    let mut records = Vec::new();
    let all = doc.get("records").and_then(Json::as_array).unwrap_or(&[]);
    for rec in all.iter().filter(|r| r.get("dataset").is_some()) {
        let num = |key: &str| rec.get(key).and_then(Json::as_f64);
        let count = |key: &str| rec.get(key).and_then(Json::as_u64).unwrap_or(1);
        let (Some(design), Some(replay), Some(tasks_per_s)) = (
            rec.get("design").and_then(Json::as_str),
            rec.get("replay").and_then(Json::as_bool),
            num("tasks_per_s"),
        ) else {
            eprintln!("BENCH compare: skipping unparsable record in {path}: {rec:?}");
            continue;
        };
        let hit_rate = match (num("replay_hits"), num("replay_misses")) {
            (Some(h), Some(m)) if h + m > 0.0 => Some(h / (h + m)),
            _ => None,
        };
        records.push(Record {
            design: design.to_string(),
            replay,
            shards: count("shards"),
            xw_shards: count("xw_shards"),
            workload: rec
                .get("workload")
                .and_then(Json::as_str)
                .unwrap_or("spmm")
                .to_string(),
            tasks_per_s,
            hit_rate,
            p95_exec_ms: num("p95_exec_ms"),
            auto_best_ratio: num("auto_best_ratio"),
        });
    }
    records
}

/// Relative throughput drop that fails the comparison.
const REGRESSION_THRESHOLD: f64 = 0.20;
/// Absolute hit-rate drift that triggers the (warn-only) notice.
const HIT_RATE_DRIFT: f64 = 0.01;
/// Normalized p95-execute-latency growth (serve records) that triggers
/// the warn-only notice.
const P95_DRIFT_RATIO: f64 = 1.5;
/// Auto-vs-post-hoc-best warm-cycle ratio (auto records) beyond which the
/// warn-only honesty notice fires — mirrors the `auto_strategy` test's
/// 10% bound.
const AUTO_RATIO_BOUND: f64 = 1.10;

/// Geometric mean of the *engine* (`"spmm"`) records' throughputs — the
/// run's "machine speed" scalar used to normalize before gating. Serve
/// and raw-kernel records are excluded: their requests/second and MAC
/// rates live on different scales than engine tasks/second and would
/// skew the normalizer.
fn geomean_tps(records: &[Record]) -> f64 {
    let spmm: Vec<f64> = records
        .iter()
        .filter(|r| r.workload == "spmm")
        .map(|r| r.tasks_per_s.max(1e-9).ln())
        .collect();
    if spmm.is_empty() {
        return 1.0;
    }
    (spmm.iter().sum::<f64>() / spmm.len() as f64).exp()
}

/// The run's scalar-kernel MAC rate — the normalizer for the raw-kernel
/// records. Kernel wall-clock does not covary with the engine records'
/// (they time different code at a different moment of the process), so
/// normalizing the blocked record by its *own run's* scalar record
/// cancels machine speed exactly: the gated quantity is the blocked/scalar
/// speedup ratio, the invariant the records exist to protect. Falls back
/// to the spmm geomean for files predating schema 7.
fn kernel_norm(records: &[Record], fallback: f64) -> f64 {
    records
        .iter()
        .find(|r| r.workload == "kernel" && r.design == "scalar")
        .map(|r| r.tasks_per_s.max(1e-9))
        .unwrap_or(fallback)
}

/// Diffs `fresh` against `baseline`: exits non-zero when any matched
/// (design, replay, shards, xw_shards) record lost more than 20%
/// *normalized* throughput.
///
/// Each record's tasks/s is divided by its own run's geometric-mean
/// tasks/s before comparing, so a uniformly faster/slower machine (the
/// committed baseline comes from a different host than the CI runner)
/// cancels out and the gate measures the code's relative performance
/// profile, not the hardware. The blind spot — a perfectly uniform
/// slowdown across every record — is indistinguishable from a slower
/// machine by construction; absolute drops are still printed and warned
/// about. Hit-rate drift also only warns (wall-clock is noisy, hit
/// counts are not — a drift means caching behaviour itself changed).
fn compare(fresh_path: &str, baseline_path: &str) {
    let fresh = parse_records(&read_bench(fresh_path, "compare"), fresh_path);
    let baseline = parse_records(&read_bench(baseline_path, "compare"), baseline_path);
    if fresh.is_empty() || baseline.is_empty() {
        eprintln!("BENCH compare failed: no records ({fresh_path} / {baseline_path})");
        std::process::exit(1);
    }
    let fresh_mean = geomean_tps(&fresh);
    let base_mean = geomean_tps(&baseline);
    let fresh_kernel = kernel_norm(&fresh, fresh_mean);
    let base_kernel = kernel_norm(&baseline, base_mean);
    println!(
        "machine-speed normalizer (geomean tasks/s): baseline {base_mean:.1}, fresh {fresh_mean:.1}"
    );
    let mut regressions = 0usize;
    let mut matched = 0usize;
    for base in &baseline {
        let Some(now) = fresh.iter().find(|r| {
            r.design == base.design
                && r.replay == base.replay
                && r.shards == base.shards
                && r.xw_shards == base.xw_shards
                && r.workload == base.workload
        }) else {
            eprintln!(
                "BENCH compare: baseline record ({}, replay={}, shards={}, xw_shards={}, \
                 workload={}) missing from fresh run (warn)",
                base.design, base.replay, base.shards, base.xw_shards, base.workload
            );
            continue;
        };
        matched += 1;
        let abs_ratio = now.tasks_per_s / base.tasks_per_s.max(1e-9);
        let (now_norm, base_norm) = if base.workload == "kernel" {
            (fresh_kernel, base_kernel)
        } else {
            (fresh_mean, base_mean)
        };
        let norm_ratio = (now.tasks_per_s / now_norm) / (base.tasks_per_s / base_norm).max(1e-9);
        // Serve records warn instead of failing: end-to-end wall-clock
        // (queueing, threading) is far noisier than the engine and raw
        // kernel records the hard gate is tuned for.
        let gated = matches!(base.workload.as_str(), "spmm" | "kernel");
        let verdict = if norm_ratio < 1.0 - REGRESSION_THRESHOLD {
            if gated {
                regressions += 1;
                "REGRESSION"
            } else {
                "regression (warn-only: serve)"
            }
        } else {
            "ok"
        };
        println!(
            "{:<10} {:<5} replay={:<5} shards={} xw={} {:>14.1} -> {:>14.1} tasks/s \
             (abs {:+.1}%, normalized {:+.1}%) {verdict}",
            base.design,
            base.workload,
            base.replay,
            base.shards,
            base.xw_shards,
            base.tasks_per_s,
            now.tasks_per_s,
            (abs_ratio - 1.0) * 100.0,
            (norm_ratio - 1.0) * 100.0
        );
        if let (Some(b), Some(n)) = (base.p95_exec_ms, now.p95_exec_ms) {
            // Normalize by machine speed like throughput (latency scales
            // inversely with speed).
            let p95_ratio = (n * fresh_mean) / (b * base_mean).max(1e-9);
            if p95_ratio > P95_DRIFT_RATIO {
                eprintln!(
                    "BENCH compare warning: ({}, workload={}) p95 execute latency grew \
                     {b:.3} -> {n:.3} ms ({:.2}x normalized)",
                    base.design, base.workload, p95_ratio
                );
            }
        }
        if abs_ratio < 1.0 - REGRESSION_THRESHOLD && verdict == "ok" {
            eprintln!(
                "BENCH compare warning: ({}, replay={}) absolute throughput dropped {:.1}% \
                 (machine-speed difference or uniform slowdown; normalized gate passed)",
                base.design,
                base.replay,
                (1.0 - abs_ratio) * 100.0
            );
        }
        if let (Some(b), Some(n)) = (base.hit_rate, now.hit_rate) {
            if (b - n).abs() > HIT_RATE_DRIFT {
                eprintln!(
                    "BENCH compare warning: ({}, replay={}) hit rate drifted {:.3} -> {:.3}",
                    base.design, base.replay, b, n
                );
            }
        }
    }
    // The honesty notice rides the fresh run alone (cycle counts are
    // machine-independent, so no baseline is needed): warn — never fail —
    // when Auto's pick trails the post-hoc best by more than the bound.
    for rec in &fresh {
        if let Some(ratio) = rec.auto_best_ratio {
            if ratio > AUTO_RATIO_BOUND {
                eprintln!(
                    "BENCH compare warning: auto strategy warm cycles are {ratio:.3}x the \
                     post-hoc best sweep point (bound {AUTO_RATIO_BOUND:.2})"
                );
            }
        }
    }
    if matched == 0 {
        eprintln!("BENCH compare failed: no matching records between the two files");
        std::process::exit(1);
    }
    if regressions > 0 {
        eprintln!(
            "BENCH compare failed: {regressions} record(s) regressed by more than {:.0}% \
             after machine-speed normalization",
            REGRESSION_THRESHOLD * 100.0
        );
        std::process::exit(1);
    }
    println!("{fresh_path} vs {baseline_path}: {matched} records compared, no regression");
}
