//! The repository benchmark: drives the AWB-GCN simulator through its
//! public entry points on one workload and prints every metric by name,
//! with its unit. The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fresh-pubmed --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` also replays every request layer by layer under spans and
//! reports the per-layer metrics instead. See `perfbench/README.md`.

mod heap;
mod inputs;
mod metrics;
mod replay;
mod run;
mod sharded;
mod single;
mod speed;
mod tenants;
mod trace;

use awb_accel::Design;
use awb_datasets::DatasetSpec;
use metrics::{Metrics, END_TO_END, PER_LAYER};
use run::Args;
use speed::Speed;
use std::path::Path;
use std::process::ExitCode;
use trace::Tracer;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

const WORKLOADS: [&str; 4] = [
    "fresh-pubmed",
    "skew-nell",
    "tenants-zipf",
    "sharded-pubmed",
];

/// Where traces and the streamed workload's stores go, relative to the
/// directory the benchmark runs from.
const WORK_DIR: &str = ".perfbench_out";

const USAGE: &str =
    "usage: awb_perfbench --workload <fresh-pubmed|skew-nell|tenants-zipf|sharded-pubmed> \
                     [--seed N] [--seconds N] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown or missing --workload `{}`", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut metrics = Metrics::with_names(if args.trace { PER_LAYER } else { END_TO_END });
    let mut tracer = Tracer::new(args.trace);
    let mut speed = Speed::new();
    heap::set_base();
    let work_dir = Path::new(WORK_DIR);
    let outcome = match args.workload.as_str() {
        "fresh-pubmed" => single::run(
            &single::SingleGraph {
                name: "pubmed",
                spec: DatasetSpec::pubmed(),
                n_pes: 1024,
                design: Design::LocalPlusRemote { hop: 2 },
                paper_util_pct: 96.0,
            },
            &args,
            &mut tracer,
            &mut speed,
            &mut metrics,
        ),
        // Nell at 1/8 scale on 128 PEs keeps the paper's rows per PE.
        "skew-nell" => single::run(
            &single::SingleGraph {
                name: "nell",
                spec: DatasetSpec::nell().scaled(0.125),
                n_pes: 128,
                design: Design::LocalPlusRemote { hop: 3 },
                paper_util_pct: 77.0,
            },
            &args,
            &mut tracer,
            &mut speed,
            &mut metrics,
        ),
        "tenants-zipf" => tenants::run(&args, &mut tracer, &mut speed, &mut metrics),
        _ => sharded::run(&args, work_dir, &mut tracer, &mut speed, &mut metrics),
    };
    let client = match outcome {
        Ok(client) => client,
        Err(e) => {
            eprintln!("error: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    eprintln!(
        "{} seed {}: {} requests attempted, {} completed, {} failed, {:.2} s timed",
        args.workload,
        args.seed,
        client.attempted,
        client.completed,
        client.failed,
        client.timed_s()
    );
    if tracer.enabled() {
        eprintln!("{}", tracer.table(client.completed));
        let path = work_dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    eprintln!(
        "host speed: calibration slice median {:.3} ms over {} slices (reference {} ms), \
         run factor {:.4}",
        speed.median_slice_ms(),
        speed.slices(),
        speed::REFERENCE_SLICE_MS,
        speed.factor()
    );
    // End-to-end host times were scaled sample by sample; per-layer
    // totals take the run's factor.
    if args.trace {
        metrics.scale_host_time(speed.factor());
    }
    metrics.print_table();
    let correct = client.failed == 0 && client.attempted > 0;
    println!("{}", metrics.json(correct, client.attempted, client.failed));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
