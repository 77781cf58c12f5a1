//! `fresh-pubmed` and `skew-nell`: one prepared graph, one thread, and a
//! never-seen X1 per request, each sent as its own `serve_isolated` call.

use crate::heap;
use crate::inputs::{features, graph, mix};
use crate::metrics::Metrics;
use crate::run::{
    check_output, sample_since, values, Args, Client, Layers, CHECK_EVERY, SETUP_REPEATS,
};
use crate::speed::Speed;
use crate::trace::Tracer;
use awb_accel::{AccelConfig, Design, GcnRunner, GcnService};
use awb_datasets::DatasetSpec;
use std::error::Error;
use std::time::Instant;

/// Requests the exact figures cover (see `Client::cycles`).
const EXACT_REQUESTS: u64 = 24;

pub struct SingleGraph {
    pub name: &'static str,
    pub spec: DatasetSpec,
    pub n_pes: usize,
    pub design: Design,
    /// The paper's Fig. 14 Design-D PE utilisation for this dataset, %.
    pub paper_util_pct: f64,
}

pub fn run(
    w: &SingleGraph,
    args: &Args,
    tracer: &mut Tracer,
    speed: &mut Speed,
    m: &mut Metrics,
) -> Result<Client, Box<dyn Error>> {
    let input = graph(&w.spec, 0);
    let mut builder = AccelConfig::builder();
    builder.n_pes(w.n_pes).threads(Some(1));
    let base = builder.build()?;
    let config = w.design.apply(base.clone());

    // Set-up: generated graph -> a service ready to serve it.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        speed.sample();
        let start = Instant::now();
        let mut service = GcnService::new(config.clone());
        let report = service.prepare(w.name, &input)?;
        setup_s.push(sample_since(start).0);
        prepared = Some((service, report));
    }
    speed.sample();
    let (service, report) = prepared.expect("SETUP_REPEATS > 0");
    let plan = service.plan(w.name).expect("prepared above");

    let (reference, _) =
        heap::excluding(|| GcnRunner::new(Design::Baseline.apply(base)).prepare(&input))?;
    let mut client = Client::default();
    let mut layers = Layers::default();
    let mut i = 0u64;
    let deadline = args.deadline();
    while Instant::now() < deadline || i < EXACT_REQUESTS {
        let x1 = features(&w.spec, mix(args.seed, 1, i));
        speed.tick();
        let arena_before = service.scratch_stats().created;
        let start = Instant::now();
        let batch = service.serve_isolated(w.name, std::slice::from_ref(&x1))?;
        let (timed, latency_s) = sample_since(start);
        client.timed.push(timed);
        client.arena_created += service.scratch_stats().created - arena_before;
        client.attempted += 1;
        match batch.results.into_iter().next() {
            Some(Ok(req)) => {
                client.completed += 1;
                client.latency_ms.push((timed.0, latency_s * 1e3));
                client.queue_wait_ms.push((timed.0, req.queue_wait_s * 1e3));
                client.exec_ms.push((timed.0, req.wall_s * 1e3));
                let exact = i < EXACT_REQUESTS;
                if exact {
                    client.cycles += req.outcome.stats.total_cycles();
                    client.cycles_requests += 1;
                }
                if tracer.enabled() {
                    layers.requests += 1;
                    layers.exact_requests += exact as u64;
                    if !layers.replay_request(plan, &x1, &req.outcome, tracer, i, exact)? {
                        eprintln!("request {i}: traced replay differs from the served outcome");
                        client.failed += 1;
                    }
                }
                if i.is_multiple_of(CHECK_EVERY) {
                    client.failed += check_output(&reference, &input, &x1, &req.outcome, i == 0)?;
                }
            }
            _ => client.failed += 1,
        }
        i += 1;
    }

    let util = report.warmup.stats.avg_utilization() * 100.0;
    client.end_to_end(m, speed, &setup_s, (util - w.paper_util_pct).abs());
    m.set("rebalance.tuning_rounds", report.tuning_rounds as f64);
    m.set("rebalance.switches", report.total_switches as f64);
    if tracer.enabled() {
        layers.per_layer(m, tracer, &values(&client.latency_ms));
    }
    Ok(client)
}
