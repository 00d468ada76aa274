//! `fig_dynamic`: amortized per-frame cost of the streaming subsystem.
//!
//! This figure has no counterpart in the paper — it evaluates the
//! `rtnn-dynamic` extension. A fluid block settles over many frames
//! (the SPH drift model) and the same frame sequence is served three ways:
//!
//! * **rebuild/frame** — `RebuildPolicy::always_rebuild()`, the batch
//!   engine's behaviour bolted onto a loop (the baseline the paper's cost
//!   model implicitly assumes);
//! * **refit-only** — `RebuildPolicy::never_rebuild()`, structure quality
//!   degrades unchecked;
//! * **policy** — the cost-model-driven default that refits until the
//!   predicted traversal penalty exceeds the rebuild premium.
//!
//! Reported per strategy: amortized simulated milliseconds per frame
//! (structure + total), rebuild/refit counts, final SAH quality ratio, and
//! amortized *host* milliseconds per frame — the wall-clock cost of running
//! the index on this machine, which is what a deployment pays.

use crate::report::{fmt_ms, FigureReport, Table};
use crate::scale::ExperimentScale;
use rtnn::{EngineConfig, SearchParams};
use rtnn_data::dynamics::{DriftModel, DriftScene};
use rtnn_data::uniform::{self, UniformParams};
use rtnn_dynamic::{DynamicIndex, RebuildPolicy};
use rtnn_gpusim::Device;

/// Outcome of one strategy's run over the frame sequence.
struct StrategyRun {
    label: &'static str,
    sim_total_ms_per_frame: f64,
    sim_structure_ms_per_frame: f64,
    host_ms_per_frame: f64,
    host_structure_ms_per_frame: f64,
    rebuilds: u64,
    refits: u64,
    final_quality: f64,
}

#[allow(clippy::too_many_arguments)]
fn run_strategy(
    label: &'static str,
    device: &Device,
    params: SearchParams,
    policy: RebuildPolicy,
    initial: &rtnn_data::PointCloud,
    model: DriftModel,
    frames: usize,
    query_stride: usize,
) -> StrategyRun {
    let mut scene = DriftScene::new(initial, model, 0xF1D0);
    let mut index = DynamicIndex::with_policy(device, EngineConfig::default(), params, policy);
    for &p in &initial.points {
        index.insert(p);
    }
    let host_start = std::time::Instant::now();
    let mut final_quality = 1.0;
    let mut host_structure_ms = 0.0;
    for _ in 0..frames {
        let update = scene.step();
        for &slot in &update.removed {
            index.remove(slot);
        }
        for &slot in &update.inserted {
            index.insert(scene.position(slot).expect("inserted slot is live"));
        }
        for &slot in &update.moved {
            index.move_point(slot, scene.position(slot).expect("moved slot is live"));
        }
        let queries: Vec<_> = scene
            .live_points()
            .into_iter()
            .step_by(query_stride)
            .collect();
        let frame = index
            .search(&queries)
            .expect("dynamic frame fits the device");
        final_quality = frame.quality_ratio;
        host_structure_ms += frame.host_structure_ms;
    }
    let host_ms = host_start.elapsed().as_secs_f64() * 1e3;
    let m = index.frame_metrics();
    StrategyRun {
        label,
        sim_total_ms_per_frame: m.amortized_frame_ms(),
        sim_structure_ms_per_frame: m.amortized_structure_ms(),
        host_ms_per_frame: host_ms / frames as f64,
        host_structure_ms_per_frame: host_structure_ms / frames as f64,
        rebuilds: m.rebuilds,
        refits: m.refits,
        final_quality,
    }
}

/// Run the dynamic-scene experiment.
pub fn run(scale: &ExperimentScale) -> FigureReport {
    let mut report = FigureReport::new(
        "Figure D (extension): amortized per-frame cost of refit vs rebuild vs policy",
    );
    let device = Device::rtx_2080();

    // A settling fluid block, sized from the scale knob (the paper-scale
    // anchor is a 2M-particle fluid).
    let num_points = (2_000_000 / scale.dataset_divisor).max(1_500);
    let frames = 16usize;
    let initial = uniform::generate(&UniformParams {
        num_points,
        seed: 0xD1F7,
        ..Default::default()
    });
    let side = initial.bounds().longest_extent();
    let radius = side * (8.0 / num_points as f32).cbrt(); // ~8 neighbors
    let params = SearchParams::range(radius, 64);
    let model = DriftModel::SphSettle {
        compression: 0.996,
        jitter: 0.002 * side,
    };

    // Query an eighth of the cloud per round (streaming rounds query the
    // active subset, not the whole map): with the full cloud as queries the
    // per-frame host time is almost entirely traversal, identical across
    // strategies, and wall-clock noise swamps the structure-cost difference
    // this figure exists to measure.
    let stride = scale.query_stride(num_points).max(8);
    let runs = [
        run_strategy(
            "rebuild/frame",
            &device,
            params,
            RebuildPolicy::always_rebuild(),
            &initial,
            model,
            frames,
            stride,
        ),
        run_strategy(
            "refit-only",
            &device,
            params,
            RebuildPolicy::never_rebuild(),
            &initial,
            model,
            frames,
            stride,
        ),
        run_strategy(
            "policy",
            &device,
            params,
            RebuildPolicy::adaptive(),
            &initial,
            model,
            frames,
            stride,
        ),
    ];

    let mut table = Table::new(
        format!(
            "{} drifting particles, {frames} frames (SPH settle), r = {radius:.3}",
            num_points
        ),
        &[
            "strategy",
            "sim ms/frame",
            "structure ms/frame",
            "host ms/frame",
            "host structure ms/frame",
            "rebuilds",
            "refits",
            "final quality",
        ],
    );
    for r in &runs {
        table.push_row(vec![
            r.label.to_string(),
            fmt_ms(r.sim_total_ms_per_frame),
            fmt_ms(r.sim_structure_ms_per_frame),
            fmt_ms(r.host_ms_per_frame),
            fmt_ms(r.host_structure_ms_per_frame),
            r.rebuilds.to_string(),
            r.refits.to_string(),
            format!("{:.3}", r.final_quality),
        ]);
    }
    report.tables.push(table);

    let rebuild = &runs[0];
    let policy = &runs[2];
    report.headline_metric("policy_sim_ms_per_frame", policy.sim_total_ms_per_frame);
    report.headline_metric("rebuild_sim_ms_per_frame", rebuild.sim_total_ms_per_frame);
    report.headline_metric("policy_host_ms_per_frame", policy.host_ms_per_frame);
    report.headline_metric("rebuild_host_ms_per_frame", rebuild.host_ms_per_frame);
    report.headline_metric(
        "policy_host_structure_ms_per_frame",
        policy.host_structure_ms_per_frame,
    );
    report.headline_metric(
        "rebuild_host_structure_ms_per_frame",
        rebuild.host_structure_ms_per_frame,
    );
    report.headline_metric(
        "policy_structure_savings_factor",
        rebuild.sim_structure_ms_per_frame / policy.sim_structure_ms_per_frame.max(1e-12),
    );
    report.headline_metric("policy_rebuilds", policy.rebuilds as f64);
    report.notes.push(format!(
        "policy amortized host cost {:.2} ms/frame vs rebuild-every-frame {:.2} ms/frame \
         (structure-maintenance host cost {:.3} vs {:.3} ms/frame, {:.2}x); \
         simulated structure cost {:.4} vs {:.4} ms/frame; policy rebuilt {} of {frames} frames",
        policy.host_ms_per_frame,
        rebuild.host_ms_per_frame,
        policy.host_structure_ms_per_frame,
        rebuild.host_structure_ms_per_frame,
        rebuild.host_structure_ms_per_frame / policy.host_structure_ms_per_frame.max(1e-12),
        policy.sim_structure_ms_per_frame,
        rebuild.sim_structure_ms_per_frame,
        policy.rebuilds,
    ));
    report.notes.push(
        "refit-only shows the failure mode the policy guards against: zero rebuilds but \
         unbounded quality drift on adversarial motion (mild here — settling is refit-friendly)"
            .into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_beats_rebuild_every_frame_on_amortized_cost() {
        let report = run(&ExperimentScale::smoke_test());
        let metric = |name: &str| -> f64 {
            report
                .headline
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing headline metric {name}"))
                .1
        };
        // Simulated structure cost: the policy must amortize builds away.
        assert!(metric("policy_structure_savings_factor") > 1.0);
        // Host-side structure maintenance must also be cheaper (measured
        // directly, so this is robust to traversal wall-clock noise).
        assert!(
            metric("policy_host_structure_ms_per_frame")
                < metric("rebuild_host_structure_ms_per_frame"),
            "policy host structure {} vs rebuild {}",
            metric("policy_host_structure_ms_per_frame"),
            metric("rebuild_host_structure_ms_per_frame")
        );
        // The policy must rebuild strictly fewer times than there are frames.
        assert!(metric("policy_rebuilds") < 16.0);
        // Simulated end-to-end amortized cost must not regress.
        assert!(
            metric("policy_sim_ms_per_frame") <= metric("rebuild_sim_ms_per_frame") * 1.001,
            "policy {} vs rebuild {}",
            metric("policy_sim_ms_per_frame"),
            metric("rebuild_sim_ms_per_frame")
        );
        assert_eq!(report.tables.len(), 1);
        assert_eq!(report.tables[0].rows.len(), 3);
    }
}
