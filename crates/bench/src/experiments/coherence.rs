//! Figures 5 and 6: the effect of ray coherence.
//!
//! The paper assigns queries uniformly to the cells of a 3D grid and
//! compares two query-to-ray mappings: raster-scan order of the grid cells
//! (adjacent rays are spatially close) and random order. Figure 5 plots
//! search time against the number of queries for both mappings; Figure 6
//! reports the L1/L2 hit rates and the SM occupancy that explain the gap.

use crate::report::{fmt_ms, FigureReport, Table};
use crate::scale::ExperimentScale;
use crate::workloads::{characterization_workload, DEFAULT_K};
use rtnn::{raster_order, EngineConfig, GpusimBackend, Index, OptLevel, QueryPlan, StageOverrides};
use rtnn_gpusim::Device;
use rtnn_math::Vec3;
use rtnn_optix::LaunchMetrics;

/// Deterministically scramble a permutation (the "random order" mapping).
fn scramble(order: &[u32]) -> Vec<u32> {
    let n = order.len();
    let mut out = order.to_vec();
    if n < 2 {
        return out;
    }
    let mut state = 0x12345678u64;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        out.swap(i, j);
    }
    out
}

/// One run: NoOpt search (so the engine does not re-schedule the queries)
/// over `queries` presented in the given order.
fn run_ordered(
    device: &Device,
    points: &[Vec3],
    queries: &[Vec3],
    radius: f32,
) -> (f64, LaunchMetrics) {
    let backend = GpusimBackend::new(device);
    let results = Index::build(&backend, points, EngineConfig::default())
        .query_with(
            queries,
            &QueryPlan::knn(radius, DEFAULT_K),
            StageOverrides::for_level(OptLevel::NoOpt),
        )
        .expect("coherence workload fits the device");
    (results.breakdown.search_ms, results.search_metrics)
}

/// The Figure 6 note on L1 hit rates: whether raster order raised it over
/// random order, as the paper reports, lowered it, or left it unchanged.
/// The rates are compared at the 0.1% precision the note prints.
fn l1_note(ordered: f64, random: f64) -> String {
    let tenths = |rate: f64| (rate * 1000.0).round();
    let verdict = match tenths(ordered).partial_cmp(&tenths(random)) {
        Some(std::cmp::Ordering::Greater) => "the paper reports the same direction",
        Some(std::cmp::Ordering::Less) => {
            "the opposite of the paper, which reports a higher rate for raster order"
        }
        _ => "no difference, where the paper reports a higher rate for raster order",
    };
    format!(
        "ordered queries achieve {:.1}% L1 hit rate vs {:.1}% for random order; {verdict} (Fig. 6)",
        ordered * 100.0,
        random * 100.0
    )
}

/// Run the Figure 5 + Figure 6 experiment.
pub fn run(scale: &ExperimentScale) -> FigureReport {
    let mut report =
        FigureReport::new("Figures 5 and 6: ray coherence (ordered vs random queries)");
    let device = Device::rtx_2080_ti();
    let workload = characterization_workload(scale);
    let radius = workload.radius;

    let mut fig5 = Table::new(
        "Figure 5: search time vs number of queries",
        &[
            "queries",
            "raster-order time",
            "random-order time",
            "random / raster",
        ],
    );
    let mut fig6 = Table::new(
        "Figure 6: cache hit rate and SM occupancy",
        &["order", "L1 hit %", "L2 hit %", "SM occupancy %"],
    );

    // Sweep the query count the way the x-axis of Figure 5 does.
    let fractions = [0.1, 0.25, 0.5, 1.0];
    let mut last: Option<(LaunchMetrics, LaunchMetrics)> = None;
    for f in fractions {
        let n = ((workload.queries.len() as f64 * f) as usize).max(64);
        let queries: Vec<Vec3> = workload.queries.iter().take(n).copied().collect();
        let raster = raster_order(&queries, 64).expect("non-zero raster grid");
        let random = scramble(&raster);
        let ordered_queries: Vec<Vec3> = raster.iter().map(|&i| queries[i as usize]).collect();
        let random_queries: Vec<Vec3> = random.iter().map(|&i| queries[i as usize]).collect();
        let (t_ord, m_ord) = run_ordered(&device, &workload.points, &ordered_queries, radius);
        let (t_rand, m_rand) = run_ordered(&device, &workload.points, &random_queries, radius);
        fig5.push_row(vec![
            n.to_string(),
            fmt_ms(t_ord),
            fmt_ms(t_rand),
            format!("{:.2}x", t_rand / t_ord.max(1e-12)),
        ]);
        last = Some((m_ord, m_rand));
    }

    if let Some((ord, rand)) = last {
        for (label, m) in [("raster", &ord), ("random", &rand)] {
            fig6.push_row(vec![
                label.to_string(),
                format!("{:.1}", m.kernel.memory.l1_hit_rate() * 100.0),
                format!("{:.1}", m.kernel.memory.l2_hit_rate() * 100.0),
                format!("{:.1}", m.kernel.simt_efficiency * 100.0),
            ]);
        }
        report.notes.push(l1_note(
            ord.kernel.memory.l1_hit_rate(),
            rand.kernel.memory.l1_hit_rate(),
        ));
        report.headline_metric(
            "ordered_vs_random_time_factor",
            rand.time_ms() / ord.time_ms().max(1e-12),
        );
        report.headline_metric("ordered_l1_hit_rate", ord.kernel.memory.l1_hit_rate());
        report.headline_metric("random_l1_hit_rate", rand.kernel.memory.l1_hit_rate());
    }

    report.tables.push(fig5);
    report.tables.push(fig6);
    report.notes.push(
        "paper: random-order search is consistently ~4-5x slower than raster order (Fig. 5)".into(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_both_tables() {
        let report = run(&ExperimentScale::smoke_test());
        assert_eq!(report.tables.len(), 2);
        assert_eq!(report.tables[0].rows.len(), 4);
        assert_eq!(report.tables[1].rows.len(), 2);
    }

    #[test]
    fn random_vs_raster_ratios_stay_in_a_sane_band_at_smoke_scale() {
        // With only a few hundred queries (smoke scale) both orders fit in
        // the caches and warp load-balance noise dominates, so the ratio
        // hovers around 1 and can dip slightly below it. The paper's ≥1
        // claim is exercised at realistic scale by the fig05 binary (see
        // EXPERIMENTS.md); here we only guard against the model producing
        // nonsensical ratios.
        let report = run(&ExperimentScale::smoke_test());
        let ratios: Vec<f64> = report.tables[0]
            .rows
            .iter()
            .map(|row| row[3].trim_end_matches('x').parse().unwrap())
            .collect();
        for (i, ratio) in ratios.iter().enumerate() {
            assert!(
                (0.5..=100.0).contains(ratio),
                "implausible random/raster ratio at row {i}: {ratios:?}"
            );
        }
    }

    #[test]
    fn l1_note_follows_the_measured_rates() {
        assert!(l1_note(0.036, 0.0).ends_with("the paper reports the same direction (Fig. 6)"));
        assert!(l1_note(0.01, 0.02).contains("; the opposite of the paper"));
        assert!(l1_note(0.0, 0.0).contains("vs 0.0% for random order; no difference"));
        // Rates that print the same are no difference either.
        assert!(l1_note(0.03601, 0.03599).contains("; no difference"));
    }

    #[test]
    fn scramble_is_a_permutation() {
        let order: Vec<u32> = (0..100).collect();
        let mut s = scramble(&order);
        assert_ne!(s, order);
        s.sort();
        assert_eq!(s, order);
    }
}
