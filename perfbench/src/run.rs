//! Bookkeeping every workload shares: the client's record of the timed
//! phase, the traced run's per-layer totals, and the metrics both yield.

use crate::heap;
use crate::metrics::{median, peak_rss_mb, percentile, ratio, Metrics};
use crate::replay::same_bits;
use crate::replay::{kernel_alone, replay, KernelWork, Replayed};
use crate::speed::Speed;
use crate::trace::Tracer;
use awb_accel::{verify_against_reference, AccelError, GcnPlan, GcnRunOutcome, SpmmStats};
use awb_gcn_model::GcnInput;
use awb_sparse::Csr;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How many times set-up runs; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Every `CHECK_EVERY`-th request's output is compared with the
/// single-device reference path, outside the timed calls.
pub const CHECK_EVERY: u64 = 16;

/// Absolute tolerance against the `awb_gcn_model` software reference.
pub const REFERENCE_TOL: f32 = 1e-3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// End of the measured phase, which starts now and lasts `seconds`
    /// of wall time (request generation, checks and replays included).
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// Checks a served outcome bit for bit against `reference` (a plan on the
/// single-device Baseline path) run on the same X1, and, when `model` is
/// set, against the `awb_gcn_model` software reference within
/// `REFERENCE_TOL`. Returns the number of failed checks. Its memory does
/// not count towards `peak_heap_mb`.
pub fn check_output(
    reference: &GcnPlan,
    input: &GcnInput,
    x1: &Csr,
    served: &GcnRunOutcome,
    model: bool,
) -> Result<u64, AccelError> {
    heap::excluding(|| check(reference, input, x1, served, model))
}

fn check(
    reference: &GcnPlan,
    input: &GcnInput,
    x1: &Csr,
    served: &GcnRunOutcome,
    model: bool,
) -> Result<u64, AccelError> {
    let mut failed = 0;
    if !same_bits(&reference.run(x1)?.output, &served.output) {
        eprintln!("output differs from the single-device reference path");
        failed += 1;
    }
    if model {
        let request_input = GcnInput {
            x1: x1.clone(),
            ..input.clone()
        };
        if let Err(e) = verify_against_reference(&request_input, served, REFERENCE_TOL) {
            eprintln!("{e}");
            failed += 1;
        }
    }
    Ok(failed)
}

/// A host-time sample: the instant it was taken around, and its value.
pub type Sample = (Instant, f64);

/// Times the call that started at `start`: returns the sample, stamped
/// with the call's midpoint, and its duration in seconds.
pub fn sample_since(start: Instant) -> (Sample, f64) {
    let elapsed = start.elapsed();
    (
        (start + elapsed / 2, elapsed.as_secs_f64()),
        elapsed.as_secs_f64(),
    )
}

/// The client's record of the timed phase (closed loop, one client).
/// Host times are kept raw with their instants and scaled to the
/// reference host speed when the metrics are made.
#[derive(Debug, Default)]
pub struct Client {
    pub attempted: u64,
    pub failed: u64,
    pub completed: u64,
    /// The timed calls, in seconds: request generation, output checks and
    /// traced replays run outside them.
    pub timed: Vec<Sample>,
    pub latency_ms: Vec<Sample>,
    pub queue_wait_ms: Vec<Sample>,
    pub exec_ms: Vec<Sample>,
    /// Simulated cycles summed over the workload's first `EXACT_REQUESTS`
    /// requests only. The measured phase runs past its deadline until that
    /// many were attempted, so the mean is a function of the seed alone.
    pub cycles: u64,
    pub cycles_requests: u64,
    /// Scratch buffers the plans' arenas created while serving.
    pub arena_created: u64,
}

pub fn values(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.1).collect()
}

impl Client {
    pub fn timed_s(&self) -> f64 {
        self.timed.iter().map(|s| s.1).sum()
    }

    pub fn end_to_end(&self, m: &mut Metrics, speed: &Speed, setup_s: &[Sample], util_gap_pp: f64) {
        let latency_ms = speed.scale(&self.latency_ms);
        let deciles: Vec<String> = (1..10)
            .map(|d| format!("{:.2}", percentile(&latency_ms, d as f64 / 10.0)))
            .collect();
        eprintln!("latency deciles (ms, scaled): {}", deciles.join(" "));
        let timed_s: f64 = speed.scale(&self.timed).iter().sum();
        m.set("setup_s", median(&speed.scale(setup_s)));
        m.set("req_p50_ms", median(&latency_ms));
        m.set("req_p75_ms", percentile(&latency_ms, 0.75));
        m.set("req_per_s", ratio(self.completed as f64, timed_s));
        m.set(
            "sim_cycles_per_req",
            ratio(self.cycles as f64, self.cycles_requests as f64),
        );
        m.set("util_gap_pp", util_gap_pp);
        m.set("peak_heap_mb", heap::peak_mb());
        m.set("process.peak_rss_mb", peak_rss_mb());
        m.set(
            "ok_frac",
            ratio((self.attempted - self.failed) as f64, self.attempted as f64),
        );
        // Per-layer figures stay raw here; the traced run scales them all
        // with the run's factor.
        m.set(
            "client.req_p90_ms",
            percentile(&values(&self.latency_ms), 0.9),
        );
        let (queue_wait_ms, exec_ms) = (values(&self.queue_wait_ms), values(&self.exec_ms));
        m.set("serve.queue_wait_p50_ms", median(&queue_wait_ms));
        m.set("serve.queue_wait_p90_ms", percentile(&queue_wait_ms, 0.9));
        m.set("serve.exec_p50_ms", median(&exec_ms));
        m.set(
            "engine.arena_created_per_req",
            ratio(self.arena_created as f64, self.completed as f64),
        );
    }
}

/// Totals over the traced run's replays. Stage times cover every replay;
/// counts, simulated figures and the kernel-alone measurement cover only
/// the replays of the workload's first `EXACT_REQUESTS` requests, so the
/// counts repeat exactly for a seed.
#[derive(Debug, Default)]
pub struct Layers {
    /// Client requests replayed (a `sharded-pubmed` pair counts once).
    pub requests: u64,
    /// Of those, the ones whose counts are kept.
    pub exact_requests: u64,
    xw_tasks: u64,
    axw_tasks: u64,
    xw_cycles: u64,
    axw_cycles: u64,
    xw_busy: u64,
    xw_slots: u64,
    axw_busy: u64,
    axw_slots: u64,
    xw_hits: u64,
    xw_misses: u64,
    axw_hits: u64,
    axw_misses: u64,
    kernel: KernelWork,
}

fn absorb(stats: &SpmmStats, tasks: &mut u64, cycles: &mut u64, busy: &mut u64, slots: &mut u64) {
    *tasks += stats.total_tasks();
    *cycles += stats.total_cycles();
    *busy += stats.total_busy();
    *slots += stats.total_cycles() * stats.n_pes as u64;
}

impl Layers {
    /// Replays `x1` on `plan` layer by layer under spans and, for an exact
    /// request, times the bare X×W kernel on the same operands. Returns whether the replay
    /// reproduced `served` bit for bit, simulated statistics included.
    pub fn replay_request(
        &mut self,
        plan: &GcnPlan,
        x1: &Csr,
        served: &GcnRunOutcome,
        tracer: &mut Tracer,
        request: u64,
        exact: bool,
    ) -> Result<bool, AccelError> {
        heap::excluding(|| self.replay_and_compare(plan, x1, served, tracer, request, exact))
    }

    fn replay_and_compare(
        &mut self,
        plan: &GcnPlan,
        x1: &Csr,
        served: &GcnRunOutcome,
        tracer: &mut Tracer,
        request: u64,
        exact: bool,
    ) -> Result<bool, AccelError> {
        let (hits, misses) = (plan.replay_hits(), plan.replay_misses());
        let replayed: Replayed = replay(plan, x1, tracer, request)?;
        if !exact {
            return Ok(replayed.matches(served));
        }
        let kernel = kernel_alone(&replayed.x_operands, plan.weights(), tracer, request)?;
        self.kernel.seconds += kernel.seconds;
        self.kernel.macs += kernel.macs;
        self.kernel.bytes += kernel.bytes;
        self.axw_hits += plan.replay_hits() - hits;
        self.axw_misses += plan.replay_misses() - misses;
        self.xw_hits += replayed.xw_replay.0;
        self.xw_misses += replayed.xw_replay.1;
        for s in &replayed.xw {
            absorb(
                s,
                &mut self.xw_tasks,
                &mut self.xw_cycles,
                &mut self.xw_busy,
                &mut self.xw_slots,
            );
        }
        for s in &replayed.a_xw {
            absorb(
                s,
                &mut self.axw_tasks,
                &mut self.axw_cycles,
                &mut self.axw_busy,
                &mut self.axw_slots,
            );
        }
        Ok(replayed.matches(served))
    }

    /// The replay-derived per-layer metrics. `served_ms` are the same
    /// requests' untraced latencies, for the tracing overhead.
    pub fn per_layer(&self, m: &mut Metrics, tracer: &Tracer, served_ms: &[f64]) {
        let n = self.requests.max(1) as f64;
        let per_req = |names: &[&str]| names.iter().map(|s| tracer.total_ms(s)).sum::<f64>() / n;
        let exact_n = self.exact_requests.max(1) as f64;
        m.set("sparse.x1_to_csc_ms", per_req(&["sparse.x1_to_csc"]));
        m.set("sparse.hop_to_csc_ms", per_req(&["sparse.hop_to_csc"]));
        m.set("sparse.relu_ms", per_req(&["sparse.relu"]));
        m.set("sparse.xw_kernel_ms", self.kernel.seconds * 1e3 / exact_n);
        m.set(
            "sparse.xw_gflops",
            ratio(2.0 * self.kernel.macs as f64, self.kernel.seconds) / 1e9,
        );
        m.set("sparse.xw_kernel_macs", self.kernel.macs as f64 / exact_n);
        m.set("sparse.xw_kernel_bytes", self.kernel.bytes as f64 / exact_n);
        let xw_ms = per_req(&["engine.xw", "sharded.xw"]);
        let axw_ms = per_req(&["engine.axw", "sharded.axw", "streaming.axw"]);
        m.set("engine.xw_ms", xw_ms);
        m.set("engine.xw_tasks", self.xw_tasks as f64 / exact_n);
        m.set(
            "engine.xw_ns_per_task",
            ratio(xw_ms * 1e6, self.xw_tasks as f64 / exact_n),
        );
        m.set(
            "engine.xw_replay_hit_ratio",
            ratio(self.xw_hits as f64, (self.xw_hits + self.xw_misses) as f64),
        );
        m.set("engine.axw_ms", axw_ms);
        m.set("engine.axw_tasks", self.axw_tasks as f64 / exact_n);
        m.set(
            "engine.axw_ns_per_task",
            ratio(axw_ms * 1e6, self.axw_tasks as f64 / exact_n),
        );
        m.set(
            "engine.axw_replay_hit_ratio",
            ratio(
                self.axw_hits as f64,
                (self.axw_hits + self.axw_misses) as f64,
            ),
        );
        m.set("sharded.xw_ms", per_req(&["sharded.xw"]));
        m.set("sharded.axw_ms", per_req(&["sharded.axw"]));
        m.set("streaming.axw_ms", per_req(&["streaming.axw"]));
        m.set("sim.xw_cycles", self.xw_cycles as f64 / exact_n);
        m.set("sim.axw_cycles", self.axw_cycles as f64 / exact_n);
        m.set(
            "sim.xw_util",
            ratio(self.xw_busy as f64, self.xw_slots as f64),
        );
        m.set(
            "sim.axw_util",
            ratio(self.axw_busy as f64, self.axw_slots as f64),
        );
        m.set("gcn_run.request_ms", per_req(&["gcn_run.request"]));
        m.set("gcn_run.coverage", tracer.coverage("gcn_run.request"));
        // Per client request, the replayed time next to the served time.
        let mut replayed_ms: BTreeMap<u64, f64> = BTreeMap::new();
        for span in tracer
            .spans()
            .iter()
            .filter(|s| s.name == "gcn_run.request")
        {
            *replayed_ms.entry(span.request).or_default() += span.dur_ns() as f64 / 1e6;
        }
        let replayed_ms: Vec<f64> = replayed_ms.into_values().collect();
        m.set(
            "trace.overhead_ms",
            median(&replayed_ms) - median(served_ms),
        );
    }
}
