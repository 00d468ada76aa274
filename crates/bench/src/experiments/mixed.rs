//! `fig_mixed`: amortized cost of heterogeneous plans on one `Index`.
//!
//! This figure has no counterpart in the paper — it evaluates the
//! Index/QueryPlan API redesign. A mixed query workload (3 radii × 2 query
//! kinds, the shape RT-kNNS-style KNN services and RT-DBSCAN-style epsilon
//! clustering put on the same scene) is served two ways:
//!
//! * **one index, one batch** — a single persistent `Index` answers a
//!   heterogeneous `QueryPlan::Batch` in one call: one shared scheduling
//!   traversal pass, one megacell grid, and one acceleration structure per
//!   *distinct* AABB width, all cached;
//! * **six indexes** — one freshly built single-plan `Index` per
//!   `(radius, kind)` configuration, each paying its own global structure
//!   build, its own grid, and its own scheduling pass.
//!
//! Reported: total and per-plan amortized simulated milliseconds, host
//! wall-clock milliseconds, and structure builds — plus the speedup factor
//! `six indexes / one index` that `results/summary.json` tracks across PRs.

use crate::report::{fmt_ms, fmt_speedup, FigureReport, Table};
use crate::scale::ExperimentScale;
use rtnn::{EngineConfig, GpusimBackend, Index, PlanSlice, QueryPlan};
use rtnn_data::uniform::{self, UniformParams};
use rtnn_gpusim::Device;
use rtnn_math::Vec3;

/// The mixed workload: per slice, a plan plus the query ids it covers.
fn build_slices(radii: [f32; 3], k: usize, cap: usize, num_queries: usize) -> Vec<PlanSlice> {
    let mut slices: Vec<PlanSlice> = (0..6)
        .map(|s| {
            let r = radii[s % 3];
            let plan = if s < 3 {
                QueryPlan::knn(r, k)
            } else {
                QueryPlan::range(r, cap)
            };
            PlanSlice::new(plan, Vec::new())
        })
        .collect();
    for q in 0..num_queries as u32 {
        slices[q as usize % 6].query_ids.push(q);
    }
    slices
}

/// Run the mixed-plan experiment.
pub fn run(scale: &ExperimentScale) -> FigureReport {
    let mut report = FigureReport::new(
        "Figure M (extension): heterogeneous plans on one Index vs per-plan engines",
    );
    let device = Device::rtx_2080();

    let num_points = (2_000_000 / scale.dataset_divisor).max(2_000);
    let cloud = uniform::generate(&UniformParams {
        num_points,
        seed: 0x4D49_5845, // "MIXE"
        ..Default::default()
    });
    let points = cloud.points;
    let stride = scale.query_stride(points.len()).max(4);
    let queries: Vec<Vec3> = points.iter().step_by(stride).copied().collect();

    // Three radii around the ~8-neighbor density anchor, two query kinds.
    let side = rtnn_math::Aabb::from_points(&points).longest_extent();
    let base_r = side * (8.0 / num_points as f32).cbrt();
    let radii = [base_r * 0.75, base_r, base_r * 1.5];
    let (k, cap) = (8usize, 32usize);
    let slices = build_slices(radii, k, cap, queries.len());

    // One index, one heterogeneous batch.
    let backend = GpusimBackend::new(&device);
    let mut index = Index::build(&backend, &points[..], EngineConfig::default());
    let host_start = std::time::Instant::now();
    let batch_results = index
        .query(&queries, &QueryPlan::Batch(slices.clone()))
        .expect("mixed batch fits the device");
    let batch_host_ms = host_start.elapsed().as_secs_f64() * 1e3;
    let batch_sim_ms = batch_results.total_time_ms();
    let batch_structures = index.cached_structures();

    // Six separately built indexes, each answering one plan.
    let mut engines_sim_ms = 0.0;
    let mut engines_bvh_ms = 0.0;
    let host_start = std::time::Instant::now();
    for slice in &slices {
        let slice_queries: Vec<Vec3> = slice
            .query_ids
            .iter()
            .map(|&q| queries[q as usize])
            .collect();
        let results = Index::build(&backend, &points[..], EngineConfig::default())
            .query(&slice_queries, &slice.plan)
            .expect("per-plan index fits the device");
        engines_sim_ms += results.total_time_ms();
        engines_bvh_ms += results.breakdown.bvh_ms;
    }
    let engines_host_ms = host_start.elapsed().as_secs_f64() * 1e3;

    let num_plans = slices.len() as f64;
    let sim_speedup = engines_sim_ms / batch_sim_ms.max(1e-12);
    let host_speedup = engines_host_ms / batch_host_ms.max(1e-12);

    let mut table = Table::new(
        format!(
            "{} points, {} queries across 6 plans (3 radii x 2 kinds, K={k}, cap={cap})",
            points.len(),
            queries.len()
        ),
        &[
            "strategy",
            "sim ms total",
            "sim ms/plan",
            "BVH ms",
            "host ms total",
            "host ms/plan",
        ],
    );
    table.push_row(vec![
        "one Index, one batch".into(),
        fmt_ms(batch_sim_ms),
        fmt_ms(batch_sim_ms / num_plans),
        fmt_ms(batch_results.breakdown.bvh_ms),
        fmt_ms(batch_host_ms),
        fmt_ms(batch_host_ms / num_plans),
    ]);
    table.push_row(vec![
        "six single-plan indexes".into(),
        fmt_ms(engines_sim_ms),
        fmt_ms(engines_sim_ms / num_plans),
        fmt_ms(engines_bvh_ms),
        fmt_ms(engines_host_ms),
        fmt_ms(engines_host_ms / num_plans),
    ]);
    report.tables.push(table);

    report.headline_metric("mixed_sim_speedup", sim_speedup);
    report.headline_metric("mixed_host_speedup", host_speedup);
    report.headline_metric("batch_sim_ms_per_plan", batch_sim_ms / num_plans);
    report.headline_metric("engines_sim_ms_per_plan", engines_sim_ms / num_plans);
    report.headline_metric("batch_bvh_ms", batch_results.breakdown.bvh_ms);
    report.headline_metric("engines_bvh_ms", engines_bvh_ms);
    report.headline_metric("batch_cached_structures", batch_structures as f64);
    report.notes.push(format!(
        "one Index answering the heterogeneous batch costs {:.2} ms simulated \
         ({:.2} ms/plan) vs {:.2} ms ({:.2} ms/plan) for six single-plan indexes — \
         {} amortized; structure-build time {:.2} ms vs {:.2} ms \
         ({} cached structures serve all 6 plans, and later batches on the \
         same index pay zero build)",
        batch_sim_ms,
        batch_sim_ms / num_plans,
        engines_sim_ms,
        engines_sim_ms / num_plans,
        fmt_speedup(sim_speedup),
        batch_results.breakdown.bvh_ms,
        engines_bvh_ms,
        batch_structures,
    ));
    report.notes.push(
        "the batch shares one first-hit scheduling pass and one megacell grid; \
         the six indexes each pay their own global build, grid and scheduling pass"
            .into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_index_beats_six_engines_on_amortized_cost() {
        let report = run(&ExperimentScale::smoke_test());
        let metric = |name: &str| -> f64 {
            report
                .headline
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing headline metric {name}"))
                .1
        };
        // The acceptance criterion of the API redesign: a heterogeneous
        // batch on one Index beats rebuilding per-plan engines on simulated
        // amortized cost.
        assert!(
            metric("mixed_sim_speedup") > 1.0,
            "batch should be cheaper, got speedup {}",
            metric("mixed_sim_speedup")
        );
        // Structure work is where the win comes from.
        assert!(metric("batch_bvh_ms") < metric("engines_bvh_ms"));
        // 3 distinct radii + the shared scheduling width bound the number
        // of cached structures from below.
        assert!(metric("batch_cached_structures") >= 3.0);
        assert_eq!(report.tables.len(), 1);
        assert_eq!(report.tables[0].rows.len(), 2);
    }
}
