//! `nbody-drift`: NBody-9M at 1/100 scale under an orbital drift. One
//! operation is one frame: `Index::build`, `warm`, then a capped range
//! query (cap 32) for every 16th point.
//!
//! This is the write-beside-read workload: structure build and range
//! termination dominate, so a Launch-only gain shows less here than on
//! `kitti-knn`. The frames are stepped before any timer starts and cycled,
//! so the work per frame is fixed and the simulated clock repeats frame by
//! frame.

use crate::check::{range_mismatches, ClockLog, SplitMix};
use crate::host::{HostMark, HostWindow};
use crate::layers::{bvh_layers, pipeline_layers, ExecSample, Probe};
use crate::report::{without_service, Outcome};
use crate::stats::{mean, median};
use crate::trace::Span;
use crate::RunConfig;
use rtnn::{EngineConfig, GpusimBackend, Index, QueryPlan, SearchResults};
use rtnn_baselines::BruteForceBackend;
use rtnn_data::{Dataset, DatasetName, DriftModel, DriftScene};
use rtnn_gpusim::Device;
use rtnn_math::Vec3;
use std::time::Instant;

const FRAMES: usize = 32;
const CAP: usize = 32;
const QUERY_STRIDE: usize = 16;
const SETUPS: usize = 9;
/// Enough frames for p90 to keep ten samples beyond it.
const MIN_OPS: usize = 110;
const CHECKED_PER_OP: usize = 8;

/// One frame's calls and the instants between them: before build, after
/// build, after warm, after query, after the index is dropped.
struct Frame {
    res: SearchResults,
    at: [Instant; 5],
    structures: usize,
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64() * 1e3
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let cloud = Dataset {
        seed: cfg.seed,
        ..Dataset::scaled(DatasetName::NBody9M, 100)
    }
    .generate();
    // A volume cloud: 1/100 of the points keeps the neighbor count of
    // radius 5 when the radius grows by the cube root of 100.
    let r = 5.0 * 100f32.cbrt();
    let plan = QueryPlan::range(r, CAP);
    let mut scene = DriftScene::new(
        &cloud,
        DriftModel::NBodyOrbit { angular_step: 0.01 },
        cfg.seed,
    );
    let frames: Vec<Vec<Vec3>> = (0..FRAMES)
        .map(|f| {
            if f > 0 {
                scene.step();
            }
            scene.live_points()
        })
        .collect();
    let queries: Vec<Vec<Vec3>> = frames
        .iter()
        .map(|p| p.iter().copied().step_by(QUERY_STRIDE).collect())
        .collect();

    let run_frame = |f: usize| -> Result<Frame, String> {
        let t0 = Instant::now();
        let mut index = Index::build(&backend, &frames[f][..], EngineConfig::default());
        let t1 = Instant::now();
        index
            .warm(&plan)
            .map_err(|e| format!("Index::warm failed: {e:?}"))?;
        let t2 = Instant::now();
        let res = index
            .query(&queries[f], &plan)
            .map_err(|e| format!("Index::query failed: {e:?}"))?;
        let t3 = Instant::now();
        let structures = index.cached_structures();
        drop(index);
        Ok(Frame {
            res,
            at: [t0, t1, t2, t3, Instant::now()],
            structures,
        })
    };
    let frame_spans = |frame: &Frame, request: u64| -> [Span; 4] {
        let [t0, t1, t2, t3, t4] = frame.at;
        let root = Span::new("frame", request, t0, t4);
        [
            Span::new("index.build", request, t0, t1).child_of(root.id),
            Span::new("index.warm", request, t1, t2).child_of(root.id),
            Span::new("index.query", request, t2, t3)
                .child_of(root.id)
                .attr("queries", frame.res.neighbors.len() as f64)
                .attr("device_ms", frame.res.total_time_ms()),
            root,
        ]
    };

    let mut out = Outcome::default();
    let mut request = 0u64;
    for _ in 0..SETUPS {
        let frame = run_frame(0)?;
        out.setups.push((frame.at[0], frame.at[3]));
        if cfg.trace {
            out.spans.extend(frame_spans(&frame, request));
        }
        request += 1;
    }

    let mut rng = SplitMix::new(cfg.seed ^ 0x006e_626f_6479);
    let mut checks: Vec<(usize, Vec<usize>, Vec<Vec<u32>>)> = Vec::new();
    let mut clock = ClockLog::new(FRAMES);
    let mut traced_ms = Vec::new();
    let mut execs = Vec::new();
    let mut warm_ms = Vec::new();
    let mut structures = Vec::new();
    let mark = HostMark::now()?;
    let start = Instant::now();
    let mut op = 0usize;
    while op < MIN_OPS || start.elapsed() < cfg.seconds {
        let f = op % FRAMES;
        let traced = cfg.trace && op % 2 == 1;
        op += 1;
        out.attempted += 1;
        let frame = match run_frame(f) {
            Ok(frame) => frame,
            Err(e) => {
                eprintln!("nbody-drift: frame {f}: {e}");
                out.failed += 1;
                continue;
            }
        };
        out.ops_done += 1;
        let [t0, _, t2, t3, t4] = frame.at;
        if traced {
            traced_ms.push(ms(t0, t4));
            execs.push(ExecSample::new(&frame.res, ms(t2, t3)));
            warm_ms.push(ms(frame.at[1], t2));
            structures.push(frame.structures as f64);
            out.spans.extend(frame_spans(&frame, request));
        } else {
            out.ops.push((t0, t4));
        }
        request += 1;
        if !clock.record(f, &frame.res) {
            out.failed += 1;
        }
        let picked = rng.sample(queries[f].len(), CHECKED_PER_OP);
        let got = picked
            .iter()
            .map(|&i| frame.res.neighbors[i].clone())
            .collect();
        checks.push((f, picked, got));
    }
    out.host = HostWindow::between(&mark, &HostMark::now()?);

    // Every frame ran at least once (MIN_OPS >= FRAMES); later passes over
    // a frame must repeat its simulated clock.
    out.device_ms = clock.device_ms();
    out.exact = clock.signatures();
    clock.notes(&mut out.notes);

    let bf = BruteForceBackend::new(&device);
    for (f, points) in frames.iter().enumerate() {
        let mut oracle = Index::build(&bf, &points[..], EngineConfig::default());
        for (_, picked, got) in checks.iter().filter(|c| c.0 == f) {
            let qs: Vec<Vec3> = picked.iter().map(|&i| queries[f][i]).collect();
            if range_mismatches(&mut oracle, &qs, got, r, CAP)? > 0 {
                out.failed += 1;
            }
        }
    }
    out.notes
        .push(("frames_cycled", format!("{}", op as f64 / FRAMES as f64)));

    if cfg.trace {
        let untraced_ms = median(&out.op_ms());
        let layers = &mut out.layers;
        pipeline_layers(&execs, layers);
        layers.insert("core.structures", mean(&structures));
        layers.insert("core.warm_ms", median(&warm_ms));
        let probes: Vec<Probe> = queries[0].iter().map(|&q| (q, r, CAP)).collect();
        let (build_ms, traverse_ms) =
            bvh_layers(&frames[0], r, &probes, 5, request, &mut out.spans);
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
