//! Streaming DBSCAN — density clustering maintained across the frames of a
//! drifting scene (the RT-DBSCAN workload on the streaming subsystem).
//!
//! Three particle blobs sit in a noisy field. Frame by frame one blob
//! drifts toward another while stragglers join and leave the scene; a
//! persistent [`rtnn_dynamic::DynamicIndex`] serves the ε-neighborhood
//! queries and an [`rtnn_analytics::StreamingDbscan`] splices only the
//! *changed* points into its cached adjacency — yet every frame's labels
//! are verified bit-equal to clustering the frame from scratch with the
//! O(n²) oracle. Midway through the drift the two blobs merge into one
//! cluster, which the per-frame counts make visible.
//!
//! Run with:
//! ```text
//! cargo run --release --example cluster_stream
//! ```

use rtnn::{EngineConfig, SearchParams};
use rtnn_analytics::stream::FrameChange;
use rtnn_analytics::{Dbscan, StreamingDbscan};
use rtnn_baselines::dbscan_oracle;
use rtnn_dynamic::DynamicIndex;
use rtnn_gpusim::Device;
use rtnn_math::Vec3;
use rtnn_telemetry::{Telemetry, TelemetryLevel};

/// Tiny deterministic generator (xorshift) so the example needs no RNG
/// crate and produces the same scene on every run.
struct Rng(u64);

impl Rng {
    fn next_f32(&mut self) -> f32 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 40) as f32 / (1u64 << 24) as f32
    }

    fn in_cube(&mut self, center: Vec3, half: f32) -> Vec3 {
        Vec3::new(
            center.x + (self.next_f32() * 2.0 - 1.0) * half,
            center.y + (self.next_f32() * 2.0 - 1.0) * half,
            center.z + (self.next_f32() * 2.0 - 1.0) * half,
        )
    }
}

fn main() {
    // Scene: three dense blobs plus sparse background noise.
    let mut rng = Rng(0xC1D5_7EA4);
    let blob_centers = [
        Vec3::new(0.0, 0.0, 0.0),
        Vec3::new(6.0, 0.0, 0.0),
        Vec3::new(0.0, 7.0, 0.0),
    ];
    let blob_size = 500usize;
    let mut points: Vec<Vec3> = Vec::new();
    for &c in &blob_centers {
        for _ in 0..blob_size {
            points.push(rng.in_cube(c, 0.9));
        }
    }
    for _ in 0..150 {
        points.push(rng.in_cube(Vec3::new(3.0, 3.5, 0.0), 8.0));
    }
    let eps = 0.35f32;
    let min_pts = 5usize;
    println!(
        "scene: {} points (3 blobs of {blob_size} + noise), eps = {eps}, min_pts = {min_pts}",
        points.len()
    );

    let device = Device::rtx_2080();
    let params = SearchParams::range(eps, 64);
    let mut index = DynamicIndex::with_points(&device, EngineConfig::default(), params, &points);
    let mut stream = StreamingDbscan::new(Dbscan::new(eps, min_pts));

    // Record the run in a private always-on telemetry sink so the example
    // can print a snapshot (the global `RTNN_TELEMETRY` knob gates the
    // default sink instead).
    let sink = Telemetry::new(TelemetryLevel::Full);
    Telemetry::scoped(&sink, || {
        let frames = 6;
        for frame in 0..frames {
            // Drift: blob 1 (handles blob_size..2*blob_size) slides toward
            // blob 0; a few stragglers join near blob 2 and noise points
            // retire. Everything is reported to the streaming clusterer as
            // a FrameChange of stable handles.
            let mut change = FrameChange::default();
            if frame > 0 {
                for h in blob_size as u32..(2 * blob_size) as u32 {
                    let p = points[h as usize] - Vec3::new(1.0, 0.0, 0.0);
                    points[h as usize] = p;
                    index.move_point(h, p);
                    change.moved.push(h);
                }
                for _ in 0..10 {
                    let p = rng.in_cube(blob_centers[2], 0.9);
                    let handle = index.insert(p);
                    assert_eq!(handle as usize, points.len());
                    points.push(p);
                    change.inserted.push(handle);
                }
                let retire = (3 * blob_size + frame) as u32; // a noise point
                index.remove(retire);
                change.removed.push(retire);
            }

            let result = stream
                .relabel(&mut index, &change)
                .expect("relabel fits the device");
            let c = &result.clustering;
            println!(
                "frame {frame}: {} clusters, {} noise, requeried {}/{} points",
                c.num_clusters, c.num_noise, result.requeried, result.alive
            );

            // Verify: the incrementally maintained labels must be
            // bit-equal to clustering this frame's live points from
            // scratch with the brute-force oracle. Labels are compared in
            // compact space via the smallest-translated-member relabel.
            let frame_view = index.as_index().expect("frame view");
            let live: Vec<Vec3> = frame_view.index.points().to_vec();
            let handles: Vec<u32> = frame_view.handles.to_vec();
            let mut compact_of = vec![u32::MAX; c.labels.len()];
            for (i, &h) in handles.iter().enumerate() {
                compact_of[h as usize] = i as u32;
            }
            let translated = c.labels_as(&compact_of);
            let engine: Vec<Option<u32>> =
                handles.iter().map(|&h| translated[h as usize]).collect();
            let oracle = dbscan_oracle(&live, eps, min_pts);
            assert_eq!(engine, oracle, "frame {frame} disagrees with the oracle");
        }
    });

    // The drifting blob ends on top of blob 0: the final frame has one
    // cluster fewer than the first.
    println!("\ntelemetry snapshot of the run:");
    let snapshot = sink.snapshot();
    for (name, value) in &snapshot.metrics.counters {
        if name.starts_with("analytics.") {
            println!("  counter {name} = {value}");
        }
    }
    for span in snapshot.spans_named("analytics.dbscan.relabel") {
        println!(
            "  span {} [{:.2} ms] attrs {:?}",
            span.name,
            span.duration_ms(),
            span.attrs
        );
    }
    println!("streaming DBSCAN example finished ✓");
}
