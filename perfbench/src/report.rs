//! What a workload run hands back, and the result line built from it.

use crate::check::ClockSig;
use crate::host::HostWindow;
use crate::quiet::{ms, Quiet};
use crate::stats::median;
use crate::trace::Span;
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, printed with `--trace 0`. The latency tail is only
/// written to the run's diagnostics: on a shared two-core machine it varies
/// between runs more than any bound a metric may have.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("req_per_s", "1/s"),
    ("device_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1`. A workload that does not
/// exercise a layer (the `serve.*` metrics outside `serve-mixed`) reports
/// 0 for it.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("core.partition.host_ms", "ms"),
    ("core.schedule.host_ms", "ms"),
    ("core.launch.host_ms", "ms"),
    ("core.gather.host_ms", "ms"),
    ("core.partition.device_ms", "ms"),
    ("core.schedule.device_ms", "ms"),
    ("core.launch.device_ms", "ms"),
    ("core.gather.device_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("core.partitions", "count"),
    ("core.bundles", "count"),
    ("core.structures", "count"),
    ("core.warm_ms", "ms"),
    ("optix.node_visits", "count"),
    ("optix.prim_tests", "count"),
    ("optix.is_calls", "count"),
    ("optix.useful_is_ratio", "ratio"),
    ("gpusim.total_cycles", "cycles"),
    ("gpusim.simt_efficiency", "ratio"),
    ("gpusim.l1_hit_rate", "ratio"),
    ("gpusim.l2_hit_rate", "ratio"),
    ("gpusim.mem_stall_cycles", "cycles"),
    ("gpusim.host_ns_per_node_visit", "ns"),
    ("bvh.build_ms", "ms"),
    ("bvh.traverse_ms", "ms"),
    ("sim.accounting_ms", "ms"),
    ("serve.ticks", "count"),
    ("serve.requests_per_tick", "count"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.busy_frac", "ratio"),
    ("serve.wait_ms_p50", "ms"),
    ("serve.shard_skew", "ratio"),
    ("serve.fanout_ms", "ms"),
    ("host.cpu_ms", "ms"),
    ("host.parallelism", "ratio"),
    ("host.steal_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// The `serve.*` per-layer metrics, 0 on workloads without a service.
pub fn without_service(layers: &mut BTreeMap<&'static str, f64>) {
    for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.starts_with("serve.")) {
        layers.insert(name, 0.0);
    }
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and the ones that failed or answered wrongly.
    pub attempted: u64,
    pub failed: u64,
    /// Each repeated set-up, from generated inputs to the first answer.
    pub setups: Vec<(Instant, Instant)>,
    /// Each untraced operation, from its call (or submit) to its answer.
    pub ops: Vec<(Instant, Instant)>,
    /// Operations completed in the measured window, traced ones included.
    pub ops_done: u64,
    /// Simulated device ms per operation.
    pub device_ms: f64,
    /// Simulated-clock signatures that must repeat on every run of the
    /// same seed and binary.
    pub exact: Vec<ClockSig>,
    /// Host usage over the measured window.
    pub host: HostWindow,
    /// Per-layer metrics (traced run only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Noise and composition diagnostics, written beside the metrics.
    pub notes: Vec<(&'static str, String)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn end_to_end(&self, quiet: &Quiet, peak_rss_mb: f64) -> [(&'static str, f64); 5] {
        [
            ("setup_s", median(&quiet.setup_s)),
            ("op_ms_p50", median(&quiet.op_ms)),
            ("req_per_s", quiet.req_per_s),
            ("device_ms", self.device_ms),
            ("peak_rss_mb", peak_rss_mb),
        ]
    }

    /// Host wall ms of the untraced operations.
    pub fn op_ms(&self) -> Vec<f64> {
        self.ops.iter().map(ms).collect()
    }
}

/// A JSON number, or `null` for a value JSON cannot hold.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
