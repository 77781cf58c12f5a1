//! The traced run's layer-by-layer replay of one request.
//!
//! It makes the same public calls `GcnPlan::run` makes, in the same order,
//! with a span around each: `Csr::to_csc` for X1, a fresh `FastEngine` (or
//! `ShardedEngine` under a combination shard policy) for each layer's X×W,
//! a session on the plan's frozen A-side plan for A×(XW), then
//! `DenseMatrix::relu_in_place` and `DenseMatrix::to_csc` between layers.
//! The caller checks the result against the served outcome bit for bit.

use crate::trace::Tracer;
use awb_accel::{
    AccelError, FastEngine, GcnPlan, GcnRunOutcome, ShardPolicy, ShardedEngine, SpmmEngine,
    SpmmStats,
};
use awb_sparse::spmm::{csc_times_dense_blocked, csc_times_dense_macs};
use awb_sparse::{Csc, Csr, DenseMatrix};
use std::time::Instant;

pub struct Replayed {
    pub output: DenseMatrix,
    pub xw: Vec<SpmmStats>,
    pub a_xw: Vec<SpmmStats>,
    /// Replay-cache hits and misses of the per-layer X×W engines.
    pub xw_replay: (u64, u64),
    /// Each layer's X operand in CSC, for the kernel-alone measurement.
    pub x_operands: Vec<Csc>,
}

impl Replayed {
    /// True when the replay reproduced `served` exactly: output bits and
    /// every per-SPMM simulated statistic.
    pub fn matches(&self, served: &GcnRunOutcome) -> bool {
        same_bits(&self.output, &served.output)
            && served.stats.layers.len() == self.xw.len()
            && served
                .stats
                .layers
                .iter()
                .zip(self.xw.iter().zip(&self.a_xw))
                .all(|(layer, (xw, a_xw))| layer.xw == *xw && layer.a_xw == *a_xw)
    }
}

pub fn same_bits(a: &DenseMatrix, b: &DenseMatrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A session on the plan's frozen A-side plan, with the span name its
/// A×(XW) calls are recorded under.
fn open_session(plan: &GcnPlan) -> (&'static str, Box<dyn SpmmEngine + '_>) {
    if let Some(p) = plan.plan_a() {
        ("engine.axw", Box::new(p.session()))
    } else if let Some(p) = plan.sharded_plan() {
        ("sharded.axw", Box::new(p.session()))
    } else {
        let p = plan
            .streamed_plan()
            .expect("a GcnPlan holds a single, sharded or streamed A-side plan");
        ("streaming.axw", Box::new(p.session()))
    }
}

/// Replays one request on `plan` under a `gcn_run.request` span.
pub fn replay(
    plan: &GcnPlan,
    x1: &Csr,
    tracer: &mut Tracer,
    request: u64,
) -> Result<Replayed, AccelError> {
    let config = plan.config();
    let n_layers = plan.layers();
    let root = tracer.open("gcn_run.request", request, None);
    let mut x_csc = tracer.span("sparse.x1_to_csc", request, root, || x1.to_csc());
    let (axw_span, mut session) =
        tracer.span("engine.session_open", request, root, || open_session(plan));
    let mut out = Replayed {
        output: DenseMatrix::zeros(0, 0),
        xw: Vec::with_capacity(n_layers),
        a_xw: Vec::with_capacity(n_layers),
        xw_replay: (0, 0),
        x_operands: Vec::with_capacity(n_layers),
    };
    for (l, w) in plan.weights().iter().enumerate() {
        let x_sharded = config.combination_shards != ShardPolicy::Single
            && !config.combination_partitioner().is_single(&x_csc);
        let xw_span = if x_sharded { "sharded.xw" } else { "engine.xw" };
        let (xw, hits, misses) = tracer.span(xw_span, request, root, || {
            let label = format!("L{}:X*W", l + 1);
            if x_sharded {
                let mut engine = ShardedEngine::with_partitioner(
                    config.clone(),
                    config.combination_partitioner(),
                );
                let xw = engine.run(&x_csc, w, &label);
                (xw, engine.replay_hits(), engine.replay_misses())
            } else {
                let mut engine = FastEngine::new(config.clone());
                let xw = engine.run(&x_csc, w, &label);
                (xw, engine.replay_hits(), engine.replay_misses())
            }
        });
        let xw = xw?;
        out.xw_replay.0 += hits;
        out.xw_replay.1 += misses;
        let a_xw = tracer.span(axw_span, request, root, || {
            session.run(plan.graph(), &xw.c, &format!("L{}:A*(XW)", l + 1))
        })?;
        out.xw.push(xw.stats);
        out.a_xw.push(a_xw.stats);
        let mut x_next = a_xw.c;
        let x_hop = if l + 1 < n_layers {
            tracer.span("sparse.relu", request, root, || x_next.relu_in_place());
            Some(tracer.span("sparse.hop_to_csc", request, root, || x_next.to_csc()))
        } else {
            None
        };
        out.x_operands.push(std::mem::replace(
            &mut x_csc,
            x_hop.unwrap_or_else(|| Csc::empty(0, 0)),
        ));
        out.output = x_next;
    }
    drop(session);
    tracer.close(root);
    Ok(out)
}

/// Kernel-alone work of one request: the blocked accumulate kernel on
/// each layer's X×W operands, outside the request span.
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelWork {
    pub seconds: f64,
    pub macs: u64,
    pub bytes: u64,
}

pub fn kernel_alone(
    x_operands: &[Csc],
    weights: &[DenseMatrix],
    tracer: &mut Tracer,
    request: u64,
) -> Result<KernelWork, AccelError> {
    let mut work = KernelWork::default();
    for (x, w) in x_operands.iter().zip(weights) {
        let macs = csc_times_dense_macs(x, w).map_err(AccelError::Shape)?;
        let start = Instant::now();
        let c = tracer
            .span("sparse.xw_kernel", request, None, || {
                csc_times_dense_blocked(x, std::hint::black_box(w))
            })
            .map_err(AccelError::Shape)?;
        work.seconds += start.elapsed().as_secs_f64();
        std::hint::black_box(&c);
        work.macs += macs as u64;
        work.bytes += (x.heap_bytes() + w.heap_bytes() + c.heap_bytes()) as u64;
    }
    Ok(work)
}
