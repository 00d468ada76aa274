//! `kitti-knn`: k-NN (k = 16) over KITTI-1M at 1/10 scale on a warm
//! `Index`. One operation is one full-batch `Index::query` of 25k queries.
//!
//! Structures are cached after set-up, so Launch dominates host wall: the
//! workload exposes traversal and simulator accounting while BVH build and
//! partitioning cost almost nothing.

use crate::check::{knn_mismatches, ClockLog, SplitMix};
use crate::host::HostMark;
use crate::layers::{bvh_layers, pipeline_layers, ExecSample, Probe};
use crate::report::{without_service, Outcome};
use crate::stats::median;
use crate::trace::Span;
use crate::RunConfig;
use rtnn::{EngineConfig, GpusimBackend, Index, QueryPlan};
use rtnn_baselines::BruteForceBackend;
use rtnn_data::{Dataset, DatasetName};
use rtnn_gpusim::Device;
use std::hint::black_box;
use std::time::Instant;

const K: usize = 16;
const SETUPS: usize = 5;
const MIN_OPS: usize = 20;
/// Queries per operation compared against the oracle.
const CHECKED_PER_OP: usize = 32;

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let cloud = Dataset {
        seed: cfg.seed,
        ..Dataset::scaled(DatasetName::Kitti1M, 10)
    }
    .generate();
    let queries = cloud.queries_subsampled(4);
    let points = cloud.points;
    // The LiDAR cloud is close to a surface, so 1/10 of the points keeps
    // the neighbor count at radius 1 when the radius grows by sqrt(10).
    let r = 10f32.sqrt();
    let plan = QueryPlan::knn(r, K);
    let mut out = Outcome::default();
    let mut request = 0u64;

    let mut warm_ms = Vec::new();
    let mut index = None;
    for _ in 0..SETUPS {
        drop(index.take());
        let t0 = Instant::now();
        let mut idx = Index::build(&backend, &points[..], EngineConfig::default());
        let t1 = Instant::now();
        idx.warm(&plan)
            .map_err(|e| format!("Index::warm failed: {e:?}"))?;
        let t2 = Instant::now();
        let first = idx
            .query(&queries, &plan)
            .map_err(|e| format!("first Index::query failed: {e:?}"))?;
        let t3 = Instant::now();
        black_box(&first);
        out.setups.push((t0, t3));
        warm_ms.push(t2.duration_since(t1).as_secs_f64() * 1e3);
        if cfg.trace {
            let root = Span::new("setup", request, t0, t3);
            out.spans.extend([
                Span::new("index.build", request, t0, t1).child_of(root.id),
                Span::new("index.warm", request, t1, t2).child_of(root.id),
                Span::new("index.query", request, t2, t3).child_of(root.id),
                root,
            ]);
        }
        request += 1;
        index = Some(idx);
    }
    let mut index = index.expect("at least one set-up ran");

    let mut rng = SplitMix::new(cfg.seed ^ 0x006b_6974_7469);
    let mut checks: Vec<(Vec<usize>, Vec<Vec<u32>>)> = Vec::new();
    let mut clock = ClockLog::new(1);
    let mut traced_ms = Vec::new();
    let mut execs = Vec::new();
    let mark = HostMark::now()?;
    let start = Instant::now();
    while out.attempted < MIN_OPS as u64 || start.elapsed() < cfg.seconds {
        let traced = cfg.trace && out.attempted % 2 == 1;
        out.attempted += 1;
        let t0 = Instant::now();
        let res = index.query(&queries, &plan);
        let t1 = Instant::now();
        let res = match res {
            Ok(res) => res,
            Err(e) => {
                eprintln!("kitti-knn: Index::query failed: {e:?}");
                out.failed += 1;
                continue;
            }
        };
        out.ops_done += 1;
        let ms = t1.duration_since(t0).as_secs_f64() * 1e3;
        if traced {
            traced_ms.push(ms);
            execs.push(ExecSample::new(&res, ms));
            out.spans.push(
                Span::new("index.query", request, t0, t1)
                    .attr("queries", queries.len() as f64)
                    .attr("device_ms", res.total_time_ms()),
            );
        } else {
            out.ops.push((t0, t1));
        }
        request += 1;
        // The same batch on a warm index: every operation must repeat the
        // simulated clock.
        if !clock.record(0, &res) {
            out.failed += 1;
        }
        let picked = rng.sample(queries.len(), CHECKED_PER_OP);
        let got = picked.iter().map(|&i| res.neighbors[i].clone()).collect();
        checks.push((picked, got));
    }
    out.host = crate::host::HostWindow::between(&mark, &HostMark::now()?);

    out.device_ms = clock.device_ms();
    out.exact = clock.signatures();
    clock.notes(&mut out.notes);

    let bf = BruteForceBackend::new(&device);
    let mut oracle = Index::build(&bf, &points[..], EngineConfig::default());
    for (picked, got) in &checks {
        let qs: Vec<_> = picked.iter().map(|&i| queries[i]).collect();
        if knn_mismatches(&mut oracle, &qs, got, r, K)? > 0 {
            out.failed += 1;
        }
    }

    if cfg.trace {
        let untraced_ms = median(&out.op_ms());
        let layers = &mut out.layers;
        pipeline_layers(&execs, layers);
        layers.insert("core.structures", index.cached_structures() as f64);
        layers.insert("core.warm_ms", median(&warm_ms));
        let probes: Vec<Probe> = queries.iter().map(|&q| (q, r, usize::MAX)).collect();
        let (build_ms, traverse_ms) = bvh_layers(&points, r, &probes, 3, request, &mut out.spans);
        layers.insert("bvh.build_ms", build_ms);
        layers.insert("bvh.traverse_ms", traverse_ms);
        layers.insert(
            "sim.accounting_ms",
            layers["core.launch.host_ms"] - traverse_ms,
        );
        without_service(layers);
        layers.insert(
            "trace.overhead_pct",
            (median(&traced_ms) / untraced_ms - 1.0) * 100.0,
        );
    }
    Ok(out)
}
