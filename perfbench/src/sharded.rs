//! `sharded-pubmed`: every request sends one X1 through two plans of the
//! same Pubmed graph — a resident plan sharded four ways on A and four ways
//! on X×W, run on one thread, and a plan that streams A from an on-disk
//! store under a host budget of a third of the resident adjacency, run on
//! two threads so its prefetch lane overlaps compute. The pair's outputs
//! must match bit for bit.
//!
//! The resident plan runs its shards on one thread because the speed
//! calibration is single-threaded: with two, a busy neighbour on the second
//! core slowed the scaled request time by about a sixth, unseen by the
//! calibration, and ten runs of the same code spread past the bound. The
//! streamed plan's second lane mostly waits on reads and moved it by 1%.

use crate::heap;
use crate::inputs::{features, graph, mix};
use crate::metrics::{mean, median, Metrics};
use crate::replay::same_bits;
use crate::run::{check_output, sample_since, values, Args, Client, Layers, CHECK_EVERY};
use crate::speed::Speed;
use crate::trace::Tracer;
use awb_accel::{AccelConfig, Design, GcnPlan, GcnRunner, ShardPolicy};
use awb_datasets::DatasetSpec;
use awb_sparse::store::SparseStore;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-up prepares two Pubmed plans and writes a store, so it repeats
/// fewer times than the single-plan workloads.
const SETUP_REPEATS: usize = 3;
const SHARDS: usize = 4;
/// Two lanes: compute and prefetch.
const STREAMED_THREADS: usize = 2;
/// Requests the exact figures cover (see `Client::cycles`).
const EXACT_REQUESTS: u64 = 16;
const PAPER_UTIL_PCT: f64 = 96.0;

/// Removes the store directories when the run ends, whatever the outcome.
struct Stores(Vec<PathBuf>);

impl Stores {
    fn fresh(&mut self, root: &Path) -> PathBuf {
        let dir = root.join(format!("store-{}-{}", std::process::id(), self.0.len()));
        std::fs::remove_dir_all(&dir).ok();
        self.0.push(dir.clone());
        dir
    }
}

impl Drop for Stores {
    fn drop(&mut self) {
        for dir in &self.0 {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

pub fn run(
    args: &Args,
    work_dir: &Path,
    tracer: &mut Tracer,
    speed: &mut Speed,
    m: &mut Metrics,
) -> Result<Client, Box<dyn Error>> {
    let spec = DatasetSpec::pubmed();
    let input = graph(&spec, 0);
    let design = Design::LocalPlusRemote { hop: 2 };
    let mut builder = AccelConfig::builder();
    builder.n_pes(1024).threads(Some(1));
    let base = builder.build()?;
    let mut resident_config = design.apply(base.clone());
    resident_config.shards = ShardPolicy::Fixed(SHARDS);
    resident_config.combination_shards = ShardPolicy::Fixed(SHARDS);
    let mut streamed_config = design.apply(base.clone());
    streamed_config.threads = Some(STREAMED_THREADS);
    streamed_config.host_mem_budget = Some(input.a_norm_csc.heap_bytes() / 3);

    // Set-up: both plans, the streamed one ingesting into an empty store.
    let mut stores = Stores(Vec::new());
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        speed.sample();
        streamed_config.store = Some(stores.fresh(work_dir));
        let start = Instant::now();
        let (resident, resident_warmup) =
            GcnRunner::new(resident_config.clone()).prepare(&input)?;
        let (streamed, _) = GcnRunner::new(streamed_config.clone()).prepare(&input)?;
        setup_s.push(sample_since(start).0);
        prepared = Some((resident, resident_warmup, streamed));
    }
    speed.sample();
    let (resident, resident_warmup, streamed) = prepared.expect("SETUP_REPEATS > 0");
    if tracer.enabled() {
        // Store ingest alone: the write the streamed prepare made, with
        // the chunk size it chose, into fresh directories.
        let chunk_nnz = streamed
            .streamed_plan()
            .expect("a store-configured prepare streams A")
            .store()
            .chunk_target_nnz();
        let mut ingest_s = Vec::with_capacity(SETUP_REPEATS);
        for _ in 0..SETUP_REPEATS {
            let dir = stores.fresh(work_dir);
            let start = Instant::now();
            SparseStore::write_with_chunk_nnz(&dir, &input.a_norm_csc, chunk_nnz)?;
            ingest_s.push(start.elapsed().as_secs_f64());
        }
        m.set("store.ingest_ms", median(&ingest_s) * 1e3);
    }

    let plans: [&GcnPlan; 2] = [&resident, &streamed];
    let arena_created = || -> u64 { plans.iter().map(|p| p.scratch_stats().created).sum() };
    // The unsharded, resident, single-device Baseline path.
    let (reference, _) =
        heap::excluding(|| GcnRunner::new(Design::Baseline.apply(base)).prepare(&input))?;
    let mut client = Client::default();
    let mut layers = Layers::default();
    let (mut io_bytes, mut resident_peak, mut overlap) = (0u64, 0usize, Vec::new());
    let mut i = 0u64;
    let deadline = args.deadline();
    while Instant::now() < deadline || i < EXACT_REQUESTS {
        let x1 = features(&spec, mix(args.seed, 1, i));
        speed.tick();
        let arena_before = arena_created();
        let start = Instant::now();
        let pair = resident.run(&x1).and_then(|r| Ok((r, streamed.run(&x1)?)));
        let (timed, latency_s) = sample_since(start);
        client.timed.push(timed);
        client.arena_created += arena_created() - arena_before;
        client.attempted += 1;
        let (r, s) = match pair {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("request {i}: {e}");
                client.failed += 1;
                i += 1;
                continue;
            }
        };
        if !same_bits(&r.output, &s.output) {
            eprintln!("request {i}: resident and streamed outputs differ");
            client.failed += 1;
        }
        client.completed += 1;
        client.latency_ms.push((timed.0, latency_s * 1e3));
        let exact = i < EXACT_REQUESTS;
        if exact {
            client.cycles += r.stats.total_cycles() + s.stats.total_cycles();
            client.cycles_requests += 1;
        }
        if let Some(stream) = &s.stream {
            io_bytes += stream.io_bytes;
            resident_peak = resident_peak.max(stream.resident_peak_bytes);
            overlap.push(stream.overlap_fraction());
        }
        if tracer.enabled() {
            layers.requests += 1;
            layers.exact_requests += exact as u64;
            for (plan, served) in [(&resident, &r), (&streamed, &s)] {
                if !layers.replay_request(plan, &x1, served, tracer, i, exact)? {
                    eprintln!("request {i}: traced replay differs from the served outcome");
                    client.failed += 1;
                }
            }
        }
        if i.is_multiple_of(CHECK_EVERY) {
            client.failed += check_output(&reference, &input, &x1, &r, i == 0)?;
        }
        i += 1;
    }

    let util = resident_warmup.stats.avg_utilization() * 100.0;
    client.end_to_end(m, speed, &setup_s, (util - PAPER_UTIL_PCT).abs());
    m.set(
        "rebalance.tuning_rounds",
        plans.iter().map(|p| p.tuning_rounds() as f64).sum(),
    );
    m.set(
        "rebalance.switches",
        plans.iter().map(|p| p.total_switches() as f64).sum(),
    );
    m.set(
        "streaming.io_bytes_per_req",
        io_bytes as f64 / client.completed.max(1) as f64,
    );
    m.set("streaming.resident_peak_bytes", resident_peak as f64);
    m.set("streaming.overlap_fraction", mean(&overlap));
    if tracer.enabled() {
        layers.per_layer(m, tracer, &values(&client.latency_ms));
    }
    Ok(client)
}
