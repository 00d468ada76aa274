//! Per-layer numbers shared by every workload: the `rtnn` pipeline stages,
//! the `rtnn-optix`/`rtnn-gpusim` launch counters, and plain `rtnn-bvh`
//! build and traversal timed without the simulator.

use crate::stats::{mean, median};
use crate::trace::Span;
use rtnn::{SearchResults, StageKind};
use rtnn_bvh::{build_point_bvh, BuildParams, TraversalControl};
use rtnn_math::{Ray, Vec3};
use rtnn_parallel::par_map_slice;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const STAGES: [(StageKind, &str, &str); 4] = [
    (
        StageKind::Partition,
        "core.partition.host_ms",
        "core.partition.device_ms",
    ),
    (
        StageKind::Schedule,
        "core.schedule.host_ms",
        "core.schedule.device_ms",
    ),
    (
        StageKind::Launch,
        "core.launch.host_ms",
        "core.launch.device_ms",
    ),
    (
        StageKind::Gather,
        "core.gather.host_ms",
        "core.gather.device_ms",
    ),
];

/// What one pipeline execution reported, with the host wall of the call
/// that produced it.
#[derive(Debug, Clone)]
pub struct ExecSample {
    wall_ms: f64,
    host_ms: [f64; 4],
    device_ms: [f64; 4],
    partitions: f64,
    bundles: f64,
    node_visits: f64,
    prim_tests: f64,
    is_calls: f64,
    neighbors: f64,
    total_cycles: f64,
    simt_efficiency: f64,
    l1_hit_rate: f64,
    l2_hit_rate: f64,
    mem_stall_cycles: f64,
}

impl ExecSample {
    pub fn new(res: &SearchResults, wall_ms: f64) -> Self {
        let stage = |k| res.trace.stage(k);
        let m = &res.search_metrics;
        ExecSample {
            wall_ms,
            host_ms: STAGES.map(|(k, _, _)| stage(k).host_ms),
            device_ms: STAGES.map(|(k, _, _)| stage(k).device_ms),
            partitions: res.num_partitions as f64,
            bundles: res.num_bundles as f64,
            node_visits: m.node_visits as f64,
            prim_tests: m.prim_tests as f64,
            is_calls: m.is_calls as f64,
            neighbors: res.total_neighbors() as f64,
            total_cycles: m.kernel.total_cycles,
            simt_efficiency: m.kernel.simt_efficiency,
            l1_hit_rate: m.kernel.memory.l1_hit_rate(),
            l2_hit_rate: m.kernel.memory.l2_hit_rate(),
            mem_stall_cycles: m.kernel.mem_stall_cycles,
        }
    }

    pub fn launch_host_ms(&self) -> f64 {
        self.host_ms[2]
    }
}

/// Fold executions into the `core.*`, `optix.*` and `gpusim.*` metrics:
/// host times as medians per execution, simulated counts as means (the
/// launch counters are those of the search launches).
pub fn pipeline_layers(samples: &[ExecSample], layers: &mut BTreeMap<&'static str, f64>) {
    let col = |f: &dyn Fn(&ExecSample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    for (i, (_, host, device)) in STAGES.iter().enumerate() {
        layers.insert(host, median(&col(&|s| s.host_ms[i])));
        layers.insert(device, mean(&col(&|s| s.device_ms[i])));
    }
    layers.insert(
        "core.unattributed_ms",
        median(&col(&|s| s.wall_ms - s.host_ms.iter().sum::<f64>())),
    );
    layers.insert("core.partitions", mean(&col(&|s| s.partitions)));
    layers.insert("core.bundles", mean(&col(&|s| s.bundles)));
    let node_visits = mean(&col(&|s| s.node_visits));
    let is_calls = mean(&col(&|s| s.is_calls));
    layers.insert("optix.node_visits", node_visits);
    layers.insert("optix.prim_tests", mean(&col(&|s| s.prim_tests)));
    layers.insert("optix.is_calls", is_calls);
    layers.insert(
        "optix.useful_is_ratio",
        ratio(mean(&col(&|s| s.neighbors)), is_calls),
    );
    layers.insert("gpusim.total_cycles", mean(&col(&|s| s.total_cycles)));
    layers.insert("gpusim.simt_efficiency", mean(&col(&|s| s.simt_efficiency)));
    layers.insert("gpusim.l1_hit_rate", mean(&col(&|s| s.l1_hit_rate)));
    layers.insert("gpusim.l2_hit_rate", mean(&col(&|s| s.l2_hit_rate)));
    layers.insert(
        "gpusim.mem_stall_cycles",
        mean(&col(&|s| s.mem_stall_cycles)),
    );
    layers.insert(
        "gpusim.host_ns_per_node_visit",
        ratio(median(&col(&|s| s.launch_host_ms())) * 1e6, node_visits),
    );
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One traversal probe: a query point, its search radius and result cap
/// (`usize::MAX` for k-NN, which never terminates early).
pub type Probe = (Vec3, f32, usize);

/// Median host ms of `build_point_bvh` at `radius` and of a plain
/// `Bvh::traverse` of every probe with a sphere-test callback (parallel on
/// the worker pool, no simulator), over `reps` repetitions. Each timed call
/// leaves a span under `request`.
pub fn bvh_layers(
    points: &[Vec3],
    radius: f32,
    probes: &[Probe],
    reps: usize,
    request: u64,
    spans: &mut Vec<Span>,
) -> (f64, f64) {
    let mut build_ms = Vec::new();
    let mut traverse_ms = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        let bvh = build_point_bvh(points, radius, BuildParams::default());
        let t1 = Instant::now();
        let hits: Vec<u64> = par_map_slice(probes, |&(q, r, cap)| {
            let r2 = r * r;
            let mut found = 0usize;
            bvh.traverse(&Ray::point_probe(q), |id| {
                if q.distance_squared(points[id as usize]) < r2 {
                    found += 1;
                    if found >= cap {
                        return TraversalControl::Terminate;
                    }
                }
                TraversalControl::Continue
            });
            found as u64
        });
        let t2 = Instant::now();
        black_box(hits.iter().sum::<u64>());
        let build = Span::new("bvh.build_point_bvh", request, t0, t1)
            .attr("points", points.len() as f64)
            .attr("radius", radius as f64);
        let traverse = Span::new("bvh.traverse", request, t1, t2).attr("rays", probes.len() as f64);
        build_ms.push(build.ms());
        traverse_ms.push(traverse.ms());
        spans.push(build);
        spans.push(traverse);
    }
    (median(&build_ms), median(&traverse_ms))
}
