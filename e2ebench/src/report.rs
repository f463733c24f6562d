//! The metric catalogue, the result line, and small statistics helpers.

use std::collections::BTreeMap;

/// End-to-end metrics: printed with `--trace 0`, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("trials_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("makespan_ratio", "ratio"),
];

/// Per-layer metrics: printed with `--trace 1`, on every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fail_frac", "ratio"),
    ("dag.parse_ms", "ms"),
    ("dag.parse_ns_per_task", "ns"),
    ("dag.release_ms", "ms"),
    ("core.decompose_ms", "ms"),
    ("core.sched_ms", "ms"),
    ("core.decide_ns", "ns"),
    ("core.empty_decide_frac", "ratio"),
    ("sim.run_ms", "ms"),
    ("sim.engine_self_ms", "ms"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.decide_per_event", "ratio"),
    ("sim.events_per_batch", "ratio"),
    ("sim.peak_ready", "count"),
    ("sim.validate_ms", "ms"),
    ("sim.metrics_ms", "ms"),
    ("time.rational_fallbacks", "count"),
    ("time.fallback_frac", "ratio"),
    ("faults.trial_ms", "ms"),
    ("faults.task_failures", "count"),
    ("faults.wasted_frac", "ratio"),
    ("supervise.overhead_ms", "ms"),
    ("supervise.journal_append_ms", "ms"),
    ("supervise.journal_sync_ms", "ms"),
    ("supervise.journal_bytes", "B"),
    ("supervise.replay_ms", "ms"),
    ("exec.parallel_eff", "ratio"),
    ("serve.frame_bytes", "B"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.service_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.journal_commit_ms", "ms"),
    ("serve.bounce_frac", "ratio"),
    ("serve.gen_late_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("cli.analyze_ms", "ms"),
    ("cli.schedule_ms", "ms"),
    ("trace.span_coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Operations attempted and failed in one run, plus the failure notes
/// (printed to stderr so a failing run says why).
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one operation; `Err` marks it failed with the reason.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(note) = outcome {
            self.fail(note);
        }
    }

    /// Marks an already-counted operation as failed.
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(note);
        }
    }

    pub fn fail_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Checks a condition, naming what differed when it does not hold.
pub fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Metric values by name; [`emit`] attaches units from the catalogue.
pub type Values = BTreeMap<&'static str, f64>;

/// Prints the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, with every metric of `catalogue` present.
pub fn emit(tally: &Tally, catalogue: &[(&'static str, &'static str)], values: &Values) -> String {
    let mut metrics = Vec::new();
    for &(name, unit) in catalogue {
        let value = values
            .get(name)
            .copied()
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        metrics.join(", ")
    )
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The `q`-quantile (nearest rank) of `values`; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
