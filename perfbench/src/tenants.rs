//! `tenants-zipf`: a dozen small Cora/Citeseer-shaped tenant graphs under
//! `StrategyPolicy::Auto`, behind a bounded admission queue and a plan
//! cache whose budget holds fewer plans than there are tenants.
//!
//! One closed-loop client sends bursts: it admits each request with
//! `enqueue` (draining early when the queue is full, then retrying) and
//! ends the burst with `drain_isolated`. Tenants and the
//! X1 within a tenant's small hot set are both drawn Zipf-skewed, so
//! exact repeats occur.
//!
//! The drain runs on one thread: with two, the workload's host times moved
//! by over a quarter between runs on a shared two-vCPU host (a burst waits
//! for its slower worker, which the one-thread speed calibration does not
//! see), more than any bound the benchmark can set.

use crate::heap;
use crate::inputs::{features, graph, mix, rng, zipf};
use crate::metrics::{mean, ratio, Metrics};
use crate::run::{
    check_output, sample_since, values, Args, Client, Layers, CHECK_EVERY, SETUP_REPEATS,
};
use crate::speed::Speed;
use crate::trace::Tracer;
use awb_accel::{
    validate_ingest, AccelConfig, AccelError, Design, GcnPlan, GcnRunOutcome, GcnRunner,
    GcnService, IsolatedBatch, ServeOptions, StrategyPolicy,
};
use awb_datasets::DatasetSpec;
use awb_gcn_model::GcnInput;
use std::error::Error;
use std::time::Instant;

const TENANTS: usize = 12;
const HOT_SET: usize = 16;
const N_PES: usize = 256;
const QUEUE_DEPTH: usize = 4;
const MAX_BURST: u64 = 8;
/// Requests the exact figures cover (see `Client::cycles`).
const EXACT_REQUESTS: u64 = 1024;
/// About 45% of the tenant set's plan bytes, so LRU eviction runs.
const CACHE_BUDGET_BYTES: u64 = 1_250_000;

struct Tenant {
    spec: DatasetSpec,
    input: GcnInput,
    /// Paper Fig. 14 Design-D utilisation of the dataset it is shaped on, %.
    paper_util_pct: f64,
}

fn tenants() -> Vec<Tenant> {
    (0..TENANTS)
        .map(|t| {
            let (spec, paper_util_pct) = if t % 2 == 0 {
                (DatasetSpec::cora(), 90.0)
            } else {
                (DatasetSpec::citeseer(), 89.0)
            };
            let spec = spec.scaled([0.25, 0.375, 0.5][(t / 2) % 3]);
            let input = graph(&spec, 1 + t as u64);
            Tenant {
                spec,
                input,
                paper_util_pct,
            }
        })
        .collect()
}

/// One admitted request, in queue order.
struct Pending {
    id: u64,
    tenant: usize,
    slot: u64,
    admitted_at: Instant,
    admit_s: f64,
}

fn request_x1(args: &Args, tenants: &[Tenant], tenant: usize, slot: u64) -> awb_sparse::Csr {
    features(
        &tenants[tenant].spec,
        mix(args.seed, 2 + tenant as u64, slot),
    )
}

pub fn run(
    args: &Args,
    tracer: &mut Tracer,
    speed: &mut Speed,
    m: &mut Metrics,
) -> Result<Client, Box<dyn Error>> {
    let tenants = tenants();
    let mut builder = AccelConfig::builder();
    builder
        .n_pes(N_PES)
        .threads(Some(1))
        .strategy(StrategyPolicy::Auto);
    let config = builder.build()?;
    let options = ServeOptions {
        queue_depth: QUEUE_DEPTH,
        cache_budget_bytes: Some(CACHE_BUDGET_BYTES),
        deadline: None,
    };

    // Set-up: an empty service warmed by one request per tenant, least
    // popular first, so the hottest tenants end up resident.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut warmed = None;
    for _ in 0..SETUP_REPEATS {
        speed.sample();
        let start = Instant::now();
        let mut service = GcnService::with_options(config.clone(), options)?;
        let mut failed = 0;
        for tenant in tenants.iter().rev() {
            if service.queue_len() == QUEUE_DEPTH {
                failed += service.drain_isolated().failed_count();
            }
            service.enqueue(&tenant.input, tenant.input.x1.clone())?;
        }
        failed += service.drain_isolated().failed_count();
        setup_s.push(sample_since(start).0);
        if failed > 0 {
            return Err("set-up warm requests failed".into());
        }
        warmed = Some(service);
    }
    speed.sample();
    let mut service = warmed.expect("SETUP_REPEATS > 0");

    // One cold prepare per tenant, outside every timed call: its warm-up
    // gives the fidelity and tuning figures, and the traced replay runs
    // against its plan.
    let cold: Vec<(GcnPlan, GcnRunOutcome)> = heap::excluding(|| {
        tenants
            .iter()
            .map(|t| GcnRunner::new(config.clone()).prepare(&t.input))
            .collect::<Result<_, _>>()
    })?;

    // Each tenant's single-device Baseline path, for the output check.
    let mut manual = AccelConfig::builder();
    manual.n_pes(N_PES).threads(Some(1));
    let reference_config = Design::Baseline.apply(manual.build()?);
    let references: Vec<GcnPlan> = heap::excluding(|| {
        tenants
            .iter()
            .map(|t| {
                let (plan, _) = GcnRunner::new(reference_config.clone()).prepare(&t.input)?;
                Ok::<_, AccelError>(plan)
            })
            .collect::<Result<_, _>>()
    })?;

    let tenant_pick = zipf(TENANTS, 1.1);
    let slot_pick = zipf(HOT_SET, 1.0);
    let mut arrivals = rng(mix(args.seed, 1, 0));
    let mut client = Client::default();
    let mut layers = Layers::default();
    let (mut admit_hit_ms, mut admit_miss_ms) = (Vec::new(), Vec::new());
    // Plan-cache hits, misses, evictions and QueueFull refusals over the
    // first EXACT_REQUESTS requests.
    let (mut hits, mut misses, mut evictions, mut queue_full) = (0u64, 0u64, 0u64, 0u64);
    let mut next_id = 0u64;
    let deadline = args.deadline();
    while Instant::now() < deadline || next_id < EXACT_REQUESTS {
        speed.tick();
        let burst = 1 + arrivals.next_below(MAX_BURST);
        let mut pending: Vec<Pending> = Vec::new();
        let mut batches: Vec<IsolatedBatch> = Vec::new();
        for _ in 0..burst {
            let tenant = tenant_pick.sample(&mut arrivals);
            let slot = slot_pick.sample(&mut arrivals) as u64;
            let x1 = request_x1(args, &tenants, tenant, slot);
            let input = &tenants[tenant].input;
            let id = next_id;
            next_id += 1;
            client.attempted += 1;
            if tracer.enabled() {
                tracer.span("serve.validate", id, None, || validate_ingest(input))?;
                tracer.span("cost.resolve", id, None, || {
                    GcnRunner::new(config.clone()).resolve_strategy(input)
                });
            }
            let exact = id < EXACT_REQUESTS;
            let before = service.cache_stats();
            let mut first_attempt = Some(x1.clone());
            let span = tracer.open("serve.admit", id, None);
            let start = Instant::now();
            let admitted = loop {
                let attempt = first_attempt.take().unwrap_or_else(|| x1.clone());
                match service.enqueue(input, attempt) {
                    Ok(_) => break Ok(()),
                    Err(AccelError::QueueFull { .. }) => {
                        queue_full += exact as u64;
                        let arena_before = service.scratch_stats().created;
                        batches.push(service.drain_isolated());
                        client.arena_created += service.scratch_stats().created - arena_before;
                    }
                    Err(e) => break Err(e),
                }
            };
            let (timed, admit_s) = sample_since(start);
            tracer.close(span);
            client.timed.push(timed);
            let after = service.cache_stats();
            if exact {
                hits += after.hits - before.hits;
                misses += after.misses - before.misses;
                evictions += after.evictions - before.evictions;
            }
            match admitted {
                Ok(()) => {
                    if after.hits > before.hits {
                        admit_hit_ms.push(admit_s * 1e3);
                    } else {
                        admit_miss_ms.push(admit_s * 1e3);
                    }
                    pending.push(Pending {
                        id,
                        tenant,
                        slot,
                        admitted_at: timed.0,
                        admit_s,
                    });
                }
                Err(e) => {
                    eprintln!("request {id}: {e}");
                    client.failed += 1;
                }
            }
        }
        let arena_before = service.scratch_stats().created;
        let span = tracer.open("serve.drain", next_id, None);
        let start = Instant::now();
        batches.push(service.drain_isolated());
        client.timed.push(sample_since(start).0);
        tracer.close(span);
        client.arena_created += service.scratch_stats().created - arena_before;

        // Batches return results in admission order, so they line up with
        // `pending` front to back.
        let results = batches.into_iter().flat_map(|b| b.results);
        for (p, result) in pending.into_iter().zip(results) {
            let req = match result {
                Ok(req) => req,
                Err(e) => {
                    eprintln!("request {}: {e}", p.id);
                    client.failed += 1;
                    continue;
                }
            };
            client.completed += 1;
            let at = p.admitted_at;
            client
                .latency_ms
                .push((at, (p.admit_s + req.queue_wait_s + req.wall_s) * 1e3));
            client.queue_wait_ms.push((at, req.queue_wait_s * 1e3));
            client.exec_ms.push((at, req.wall_s * 1e3));
            let exact = p.id < EXACT_REQUESTS;
            if exact {
                client.cycles += req.outcome.stats.total_cycles();
                client.cycles_requests += 1;
            }
            let x1 = request_x1(args, &tenants, p.tenant, p.slot);
            if tracer.enabled() {
                layers.requests += 1;
                layers.exact_requests += exact as u64;
                let plan = &cold[p.tenant].0;
                if !layers.replay_request(plan, &x1, &req.outcome, tracer, p.id, exact)? {
                    eprintln!(
                        "request {}: traced replay differs from the served outcome",
                        p.id
                    );
                    client.failed += 1;
                }
            }
            if p.id.is_multiple_of(CHECK_EVERY) {
                let (reference, input) = (&references[p.tenant], &tenants[p.tenant].input);
                client.failed += check_output(reference, input, &x1, &req.outcome, p.id == 0)?;
            }
        }
    }

    let gaps: Vec<f64> = cold
        .iter()
        .zip(&tenants)
        .map(|((_, warmup), t)| (warmup.stats.avg_utilization() * 100.0 - t.paper_util_pct).abs())
        .collect();
    let rounds: Vec<f64> = cold.iter().map(|(p, _)| p.tuning_rounds() as f64).collect();
    let switches: Vec<f64> = cold
        .iter()
        .map(|(p, _)| p.total_switches() as f64)
        .collect();
    client.end_to_end(m, speed, &setup_s, mean(&gaps));
    m.set("rebalance.tuning_rounds", mean(&rounds));
    m.set("rebalance.switches", mean(&switches));
    let exact_attempts = EXACT_REQUESTS as f64;
    m.set(
        "serve.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    m.set("serve.evictions", evictions as f64 / exact_attempts);
    m.set("serve.queue_full", queue_full as f64 / exact_attempts);
    m.set("serve.admit_hit_ms", mean(&admit_hit_ms));
    m.set("serve.admit_miss_ms", mean(&admit_miss_ms));
    if tracer.enabled() {
        let per_request = |name: &str| tracer.total_ms(name) / client.attempted.max(1) as f64;
        m.set("serve.validate_ms", per_request("serve.validate"));
        m.set("cost.resolve_ms", per_request("cost.resolve"));
        layers.per_layer(m, tracer, &values(&client.exec_ms));
    }
    Ok(client)
}
