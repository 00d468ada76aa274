//! Extension figure: per-stage time shares of the staged execution
//! pipeline, and the cost of toggling exactly one stage.
//!
//! The refactored core executes every plan as `Partition` → `Schedule` →
//! `Launch` → `Gather` with a per-stage meter ([`rtnn::PipelineTrace`]).
//! This experiment reports, per dataset and search mode:
//!
//! * the simulated time share of each stage (the staged sibling of the
//!   Figure 12 component breakdown), and
//! * the end-to-end cost of disabling exactly one stage through
//!   [`rtnn::StageOverrides`] — the first-class single-stage ablation the
//!   `OptLevel` ladder could only approximate cumulatively.

use crate::report::{fmt_ms, headline_slug, FigureReport, Table};
use crate::scale::ExperimentScale;
use crate::workloads::{Workload, DEFAULT_K};
use rtnn::{
    EngineConfig, GpusimBackend, Index, QueryPlan, SearchMode, SearchParams, SearchResults,
    StageKind, StageOverrides,
};
use rtnn_data::DatasetName;
use rtnn_gpusim::Device;

/// The stage with the largest share and that share (the first on ties).
fn dominant_stage(shares: &[(&'static str, f64)]) -> (&'static str, f64) {
    shares.iter().copied().fold(
        ("", f64::NEG_INFINITY),
        |best, s| if s.1 > best.1 { s } else { best },
    )
}

/// One cold-index run (structure builds included, matching Figure 12's
/// accounting) with the given per-call stage overrides.
fn run_once(
    device: &Device,
    workload: &Workload,
    mode: SearchMode,
    overrides: StageOverrides<'_>,
) -> SearchResults {
    let params = SearchParams {
        radius: workload.radius,
        k: DEFAULT_K,
        mode,
    };
    let backend = GpusimBackend::new(device);
    let mut index = Index::build(&backend, &workload.points[..], EngineConfig::default());
    index
        .query_with(
            &workload.queries,
            &QueryPlan::from_params(params),
            overrides,
        )
        .expect("stage workload fits the device")
}

/// Run the per-stage experiment.
pub fn run(scale: &ExperimentScale) -> FigureReport {
    let mut report =
        FigureReport::new("Figure P (extension): per-stage time shares of the execution pipeline");
    let device = Device::rtx_2080();

    for dataset in [DatasetName::Kitti12M, DatasetName::NBody9M] {
        let workload = Workload::for_dataset(dataset, scale);
        let slug = headline_slug(&workload.name);

        let mut shares = Table::new(
            format!(
                "Per-stage simulated time, {} on {}",
                workload.name,
                device.config().name
            ),
            &[
                "stage",
                "KNN time",
                "KNN share",
                "range time",
                "range share",
            ],
        );
        let knn = run_once(&device, &workload, SearchMode::Knn, StageOverrides::none());
        let range = run_once(
            &device,
            &workload,
            SearchMode::Range,
            StageOverrides::none(),
        );
        let knn_shares = knn.trace.device_fractions();
        let range_shares = range.trace.device_fractions();
        for (slot, kind) in StageKind::ALL.into_iter().enumerate() {
            let k_share = knn_shares[slot].1;
            let r_share = range_shares[slot].1;
            shares.push_row(vec![
                kind.label().to_string(),
                fmt_ms(knn.trace.stage(kind).device_ms),
                format!("{:.1}%", k_share * 100.0),
                fmt_ms(range.trace.stage(kind).device_ms),
                format!("{:.1}%", r_share * 100.0),
            ]);
            report.headline_metric(
                format!("{slug}_knn_share_{}", kind.label().to_lowercase()),
                k_share,
            );
            report.headline_metric(
                format!("{slug}_range_share_{}", kind.label().to_lowercase()),
                r_share,
            );
        }
        report.tables.push(shares);
        let (knn_stage, knn_share) = dominant_stage(&knn_shares);
        let (range_stage, range_share) = dominant_stage(&range_shares);
        report.notes.push(format!(
            "{}: {knn_stage} dominates KNN ({:.1}% of simulated time), {range_stage} dominates range ({:.1}%)",
            workload.name,
            knn_share * 100.0,
            range_share * 100.0
        ));

        // Toggle exactly one stage per call on an otherwise fully-optimised
        // engine — what StageOverrides adds over the cumulative OptLevels.
        let mut toggles = Table::new(
            format!("Single-stage toggles, {}", workload.name),
            &["configuration", "KNN time", "vs full"],
        );
        let variants: [(&str, StageOverrides<'static>); 3] = [
            ("full pipeline", StageOverrides::none()),
            ("reordering off", StageOverrides::without_reordering()),
            ("partitioning off", StageOverrides::without_partitioning()),
        ];
        let mut times = Vec::new();
        for (label, overrides) in variants {
            let results = run_once(&device, &workload, SearchMode::Knn, overrides);
            times.push((label, results.total_time_ms()));
        }
        let full = times[0].1.max(1e-12);
        for (label, t) in &times {
            toggles.push_row(vec![
                label.to_string(),
                fmt_ms(*t),
                format!("{:.2}x", t / full),
            ]);
        }
        report.headline_metric(format!("{slug}_knn_reorder_off_cost"), times[1].1 / full);
        report.headline_metric(format!("{slug}_knn_partition_off_cost"), times[2].1 / full);
        report.tables.push(toggles);

        // The metering invariant: every simulated millisecond outside the
        // Data slot is accounted to exactly one stage.
        let accounted = knn.trace.device_total_ms();
        let expected = knn.breakdown.total_ms() - knn.breakdown.data_ms;
        report.notes.push(format!(
            "{}: stage meters account {:.4} ms of {:.4} ms non-transfer simulated time (no double billing)",
            workload.name, accounted, expected
        ));

        // Regression watch (tracked by rtnn-trend under a stable name):
        // the full pipeline *loses* to NoOpt on the non-uniform NBody
        // range workload — the gap the adaptive tuner (fig_auto) exists
        // to recover. Keeping the ratio as a named headline here, in the
        // CI smoke figure, means a drift in either direction shows up in
        // every trend diff.
        if dataset == DatasetName::NBody9M {
            let noopt = run_once(
                &device,
                &workload,
                SearchMode::Range,
                StageOverrides::for_level(rtnn::OptLevel::NoOpt),
            );
            let full = run_once(
                &device,
                &workload,
                SearchMode::Range,
                StageOverrides::for_level(rtnn::OptLevel::Full),
            );
            report.headline_metric(
                "regression_watch_nbody_9m_range_full_speedup_vs_noopt",
                noopt.total_time_ms() / full.total_time_ms().max(1e-12),
            );
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_reports_all_stages_and_toggles() {
        let report = run(&ExperimentScale::smoke_test());
        assert_eq!(report.tables.len(), 4, "2 datasets x (shares + toggles)");
        for t in report.tables.iter().step_by(2) {
            assert_eq!(t.rows.len(), 4, "one row per stage in {}", t.title);
        }
        for t in report.tables.iter().skip(1).step_by(2) {
            assert_eq!(t.rows.len(), 3, "three toggle variants in {}", t.title);
        }
        // Headlines cover every stage share for both modes plus the toggle
        // costs, for both datasets — plus the NBody range regression watch.
        assert_eq!(report.headline.len(), 2 * (4 + 4 + 2) + 1);
        assert!(report.headline.iter().any(|(n, v)| n
            == "regression_watch_nbody_9m_range_full_speedup_vs_noopt"
            && *v > 0.0));
        // Each dataset's note names the stage with the largest measured
        // share in its table, per mode.
        let dominant_notes: Vec<&String> = report
            .notes
            .iter()
            .filter(|n| n.contains(" dominates "))
            .collect();
        assert_eq!(dominant_notes.len(), 2, "one note per dataset");
        for (table, note) in report.tables.iter().step_by(2).zip(dominant_notes) {
            for (column, mode) in [(2, "KNN"), (4, "range")] {
                let share = |row: &Vec<String>| -> f64 {
                    row[column].trim_end_matches('%').parse().unwrap()
                };
                let top = table.rows.iter().map(share).fold(f64::MIN, f64::max);
                assert!(
                    table
                        .rows
                        .iter()
                        .filter(|row| share(row) == top)
                        .any(|row| note.contains(&format!("{} dominates {mode}", row[0]))),
                    "{note:?} must name the stage with the largest {mode} share in {}",
                    table.title
                );
            }
        }
    }

    #[test]
    fn stage_shares_sum_to_one() {
        let report = run(&ExperimentScale::smoke_test());
        for mode in ["knn", "range"] {
            let sum: f64 = report
                .headline
                .iter()
                .filter(|(name, _)| name.contains(&format!("_{mode}_share_")))
                .map(|(_, v)| v)
                .sum();
            // Two datasets, each summing to ~1.
            assert!(
                (sum - 2.0).abs() < 1e-6,
                "{mode} stage shares must sum to 1 per dataset, got total {sum}"
            );
        }
    }
}
