//! Metric names, summary statistics and the one-line JSON result.

use std::collections::BTreeMap;

/// Skeleton depths reported one by one (`d0` … `d5`).
pub const DEPTHS: usize = 6;

/// End-to-end metrics, printed on every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("learn_t1_s", "s"),
    ("learn_t2_s", "s"),
    ("shd", "edges"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
    ("infer_rt_p50_ms", "ms"),
    ("infer_rt_p99_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("learn_rt_ms", "ms"),
    ("fit_rt_ms", "ms"),
];

/// Per-layer metrics, printed on every workload with tracing on. A layer
/// the workload does not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| m.push((name, unit));
    add("data.state_freq_ms".into(), "ms");
    add("data.index_build_ms".into(), "ms");
    add("stats.ci_tests".into(), "count");
    add("stats.fill_s".into(), "s");
    add("stats.test_s".into(), "s");
    add("stats.fill_ns_per_test".into(), "ns");
    add("stats.bitmap_pick_frac".into(), "fraction");
    add("core.skeleton_s.t1".into(), "s");
    add("core.skeleton_s.t2".into(), "s");
    add("core.orient_ms".into(), "ms");
    for d in 0..DEPTHS {
        add(format!("core.depth.d{d}_ms.t1"), "ms");
        add(format!("core.depth.d{d}_ms.t2"), "ms");
        add(format!("core.deletion_ratio.d{d}"), "fraction");
    }
    add("parallel.speedup_t2".into(), "ratio");
    for d in 0..DEPTHS {
        add(format!("parallel.depth.d{d}.speedup_t2"), "ratio");
    }
    add("parallel.jobs.wait_ms".into(), "ms");
    add("score.search_s.t1".into(), "s");
    add("score.search_s.t2".into(), "s");
    add("score.iterations".into(), "count");
    add("score.moves_evaluated".into(), "count");
    add("score.moves_carried".into(), "count");
    add("score.cache_hits".into(), "count");
    add("score.cache_misses".into(), "count");
    add("score.cache_hit_ratio".into(), "fraction");
    add("score.local_score_us".into(), "us");
    add("network.fit_ms".into(), "ms");
    add("network.jt_build_ms".into(), "ms");
    add("network.posteriors64_ms".into(), "ms");
    add("network.messages_reused_ratio".into(), "fraction");
    add("serve.put_rt_ms".into(), "ms");
    add("serve.wire_overhead_ms".into(), "ms");
    add("serve.bytes_per_query".into(), "bytes");
    add("serve.busy_rejections".into(), "count");
    add("obs.trace_overhead_frac".into(), "fraction");
    add("obs.learn_unattributed_ms".into(), "ms");
    add("obs.cycle_unattributed_ms".into(), "ms");
    m
}

/// Measured values plus the operation tally behind `attempted`/`failed`.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Record a metric value (the last write wins).
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Count one operation; a failed check is reported on stderr and
    /// counted as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// The JSON result line: every end-to-end metric when untraced, every
    /// per-layer metric when traced.
    ///
    /// # Panics
    /// Panics if an end-to-end metric was never measured — the workload
    /// code must set each one.
    pub fn into_json(mut self, traced: bool) -> String {
        let ok_frac = if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        };
        self.set("ok_frac", ok_frac);
        let names: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = match self.values.get(name) {
                    Some(v) => *v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Current value of a registry counter (0 if never touched).
pub fn counter(snap: &fastbn_obs::Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// `(count, sum)` of a registry histogram (zeros if never touched).
pub fn histogram(snap: &fastbn_obs::Snapshot, name: &str) -> (u64, u64) {
    snap.histograms
        .iter()
        .find(|h| h.name == name)
        .map_or((0, 0), |h| (h.count, h.sum))
}
