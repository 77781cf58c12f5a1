//! Metric collection and the result line.

/// Percentile `q` in `[0, 1]` by linear interpolation between the closest
/// ranks of the sorted samples (0 for no samples).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("req_p50_ms", "ms"),
    ("req_p75_ms", "ms"),
    ("req_per_s", "1/s"),
    ("sim_cycles_per_req", "cycles"),
    ("util_gap_pp", "pp"),
    ("peak_heap_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// The per-layer metrics every traced run reports. A metric whose layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sparse.x1_to_csc_ms", "ms"),
    ("sparse.hop_to_csc_ms", "ms"),
    ("sparse.relu_ms", "ms"),
    ("sparse.xw_kernel_ms", "ms"),
    ("sparse.xw_gflops", "GFLOP/s"),
    ("sparse.xw_kernel_macs", "count"),
    ("sparse.xw_kernel_bytes", "bytes"),
    ("engine.xw_ms", "ms"),
    ("engine.xw_tasks", "count"),
    ("engine.xw_ns_per_task", "ns"),
    ("engine.xw_replay_hit_ratio", "ratio"),
    ("engine.axw_ms", "ms"),
    ("engine.axw_tasks", "count"),
    ("engine.axw_ns_per_task", "ns"),
    ("engine.axw_replay_hit_ratio", "ratio"),
    ("engine.arena_created_per_req", "count"),
    ("rebalance.tuning_rounds", "count"),
    ("rebalance.switches", "count"),
    ("sim.xw_cycles", "cycles"),
    ("sim.axw_cycles", "cycles"),
    ("sim.xw_util", "ratio"),
    ("sim.axw_util", "ratio"),
    ("gcn_run.request_ms", "ms"),
    ("gcn_run.coverage", "ratio"),
    ("cost.resolve_ms", "ms"),
    ("serve.admit_hit_ms", "ms"),
    ("serve.admit_miss_ms", "ms"),
    ("serve.validate_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p90_ms", "ms"),
    ("serve.exec_p50_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.evictions", "1/req"),
    ("serve.queue_full", "1/req"),
    ("sharded.xw_ms", "ms"),
    ("sharded.axw_ms", "ms"),
    ("streaming.axw_ms", "ms"),
    ("streaming.io_bytes_per_req", "bytes"),
    ("streaming.resident_peak_bytes", "bytes"),
    ("streaming.overlap_fraction", "ratio"),
    ("store.ingest_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("process.peak_rss_mb", "MB"),
    ("client.req_p90_ms", "ms"),
];

/// Named metrics in a fixed order, each with its unit.
#[derive(Debug)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Every metric of `names`, all reading 0 until set.
    pub fn with_names(names: &[(&'static str, &'static str)]) -> Self {
        Metrics {
            entries: names
                .iter()
                .map(|&(name, unit)| (name, 0.0, unit))
                .collect(),
        }
    }

    /// Sets a metric of this run; names outside the run's set are ignored,
    /// so a workload may compute both sets and report one.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric `{name}`"
        );
        if let Some(entry) = self.entries.iter_mut().find(|(n, _, _)| *n == name) {
            entry.1 = value;
        }
    }

    /// Scales the host-time metrics by `factor` and host rates by its
    /// inverse; counts, ratios, sizes and simulated figures stay as measured.
    pub fn scale_host_time(&mut self, factor: f64) {
        for (_, value, unit) in &mut self.entries {
            match *unit {
                "s" | "ms" | "ns" => *value *= factor,
                "1/s" | "GFLOP/s" => *value /= factor,
                _ => {}
            }
        }
    }

    pub fn print_table(&self) {
        for (name, value, unit) in &self.entries {
            eprintln!("  {name:<32} {value:>16.6} {unit}");
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}
