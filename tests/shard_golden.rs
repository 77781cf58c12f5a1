//! Golden pin of the shard pipeline's simulated statistics.
//!
//! The other shard suites compare two execution paths against each other
//! (sharded vs unsharded, engine vs session). This one pins absolute
//! values: an FNV-1a hash over every `RoundStats` field, each SPMM's PE
//! count and queue high-water marks, the plan's tuning rounds, switches
//! and `memory_bytes()`, and the output bits. It covers the warm-up and
//! two served requests on a Cora-shaped graph under single-device,
//! aggregation-sharded, combination-sharded and store-streamed
//! configurations, so a refactor of the shard layers that shifts any
//! simulated figure fails here by name.

use awb_gcn_repro::accel::{AccelConfig, Design, GcnRunOutcome, GcnRunner, ShardPolicy};
use awb_gcn_repro::datasets::{GeneratedDataset, PaperDataset};
use awb_gcn_repro::gcn::GcnInput;

/// FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn outcome(&mut self, outcome: &GcnRunOutcome) {
        for spmm in outcome.stats.spmms() {
            self.word(spmm.n_pes as u64);
            self.word(spmm.tuning_rounds() as u64);
            self.word(spmm.rounds.len() as u64);
            for r in &spmm.rounds {
                self.word(r.cycles);
                self.word(r.tasks);
                self.word(r.busy_cycles);
                self.word(r.max_pe_busy);
                self.word(r.min_pe_busy);
                self.word(r.max_queue_depth as u64);
                self.word(r.raw_stalls);
                self.word(u64::from(r.tuning_active));
            }
            self.word(spmm.queue_high_water.len() as u64);
            for &q in &spmm.queue_high_water {
                self.word(q as u64);
            }
        }
        for v in outcome.output.as_slice() {
            self.word(u64::from(v.to_bits()));
        }
    }
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "awb-golden-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id(),
    ))
}

/// Prepares `config` on `input`, serves `requests`, and hashes the
/// warm-up, every served outcome, and the plan's counters.
fn digest(config: AccelConfig, input: &GcnInput, requests: &[&GcnInput]) -> u64 {
    let (plan, warmup) = GcnRunner::new(config).prepare(input).unwrap();
    let mut h = Fnv::new();
    h.outcome(&warmup);
    for request in requests {
        h.outcome(&plan.run(&request.x1).unwrap());
    }
    h.word(plan.tuning_rounds() as u64);
    h.word(plan.total_switches());
    h.word(plan.memory_bytes());
    h.0
}

#[test]
fn shard_pipeline_stats_match_golden_hashes() {
    let spec = PaperDataset::Cora.spec().scaled(0.1);
    let input = GcnInput::from_dataset(&GeneratedDataset::generate(&spec, 41).unwrap()).unwrap();
    // A second request: same shape, different features.
    let other = GcnInput::from_dataset(&GeneratedDataset::generate(&spec, 42).unwrap()).unwrap();
    let requests = [&input, &other];
    let base =
        Design::LocalPlusRemote { hop: 2 }.apply(AccelConfig::builder().n_pes(64).build().unwrap());

    let with = |edit: &dyn Fn(&mut AccelConfig)| {
        let mut config = base.clone();
        edit(&mut config);
        config
    };
    let dir = scratch_dir("store");
    std::fs::remove_dir_all(&dir).ok();
    let cases: [(&str, AccelConfig, u64); 5] = [
        (
            "single",
            with(&|c| c.shards = ShardPolicy::Single),
            0x4abb_70db_f70f_436e,
        ),
        (
            "fixed-2",
            with(&|c| c.shards = ShardPolicy::Fixed(2)),
            0xb8cd_e807_267f_bf73,
        ),
        (
            "fixed-4",
            with(&|c| c.shards = ShardPolicy::Fixed(4)),
            0x9cd2_3d79_639f_0ca6,
        ),
        (
            "combination-3",
            with(&|c| c.combination_shards = ShardPolicy::Fixed(3)),
            0x9147_fd3f_5ca0_552e,
        ),
        (
            "store",
            with(&|c| {
                c.store = Some(dir.clone());
                c.host_mem_budget = Some(input.a_norm_csc.heap_bytes() / 3);
            }),
            0xe711_238a_c2d0_37dc,
        ),
    ];
    let mut failures = Vec::new();
    for (name, config, golden) in cases {
        let got = digest(config, &input, &requests);
        if got != golden {
            failures.push(format!("{name}: got {got:#018x}, golden {golden:#018x}"));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
