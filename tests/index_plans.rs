//! Acceptance tests for the Index/QueryPlan API:
//!
//! * `Index::query` with per-call plans is **bit-equal** to the former
//!   single-plan engine for all plan kinds × optimisation levels, pinned by
//!   golden checksums that engine recorded;
//! * repeated plans on one index amortise every structure build away;
//! * plan validation happens at query time with typed errors naming the
//!   offending field;
//! * a heterogeneous batch answers several plans in one call and matches
//!   the corresponding single-plan results.

mod common;

use common::{fresh_search_at, seeded_cloud};
use rtnn::pipeline::{IdentitySchedule, MegacellPartition, SinglePartition};
use rtnn::{
    AdoptedScene, Backend, EngineConfig, GpusimBackend, Index, LaunchMetrics, MegacellCache,
    MegacellGrid, OptLevel, PlanError, PlanSlice, QueryPlan, SearchError, SearchParams,
    SearchResults, StageKind, StageOverrides,
};
use rtnn_bvh::BuildParams;
use rtnn_dynamic::DynamicIndex;
use rtnn_gpusim::Device;
use rtnn_math::{Aabb, Vec3};

/// FNV-1a offset basis: the fingerprint of no results.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `results` into an order-sensitive FNV-1a `hash`: every neighbor id
/// (with the list lengths), `num_partitions`, `num_bundles`, the bits of
/// each `TimeBreakdown` slot, and the integer counters of both
/// `LaunchMetrics`. The kernels' floating-point cycle sums are not covered:
/// when the goldens were recorded, their last bits depended on the host
/// thread count.
fn fingerprint(mut hash: u64, results: &SearchResults) -> u64 {
    let mut put = |v: u64| {
        for byte in v.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    put(results.neighbors.len() as u64);
    for ids in &results.neighbors {
        put(ids.len() as u64);
        ids.iter().for_each(|&id| put(u64::from(id)));
    }
    put(results.num_partitions as u64);
    put(results.num_bundles as u64);
    let b = &results.breakdown;
    for ms in [b.data_ms, b.opt_ms, b.bvh_ms, b.fs_ms, b.search_ms] {
        put(ms.to_bits());
    }
    for m in [&results.search_metrics, &results.fs_metrics] {
        let LaunchMetrics {
            kernel,
            active_rays,
            node_visits,
            prim_tests,
            is_calls,
            terminated_rays,
            hit_rays,
        } = m;
        for count in [
            *active_rays,
            *node_visits,
            *prim_tests,
            *is_calls,
            *terminated_rays,
            *hit_rays,
            kernel.warps,
            kernel.threads,
        ] {
            put(count);
        }
    }
    hash
}

fn assert_golden(name: &str, hash: u64, golden: u64) {
    assert_eq!(
        hash, golden,
        "{name}: results drifted from the recorded golden (got {hash:#018X}); \
         update it only for an intentional change to results or simulated metrics"
    );
}

fn grid_points(n_per_axis: usize, spacing: f32) -> Vec<Vec3> {
    let mut pts = Vec::new();
    for x in 0..n_per_axis {
        for y in 0..n_per_axis {
            for z in 0..n_per_axis {
                pts.push(Vec3::new(x as f32, y as f32, z as f32) * spacing);
            }
        }
    }
    pts
}

/// Fingerprint of the 12 cases below as the former single-plan engine
/// answered them (a fresh structure store per search).
const GOLDEN_SEEDED_CLOUD: u64 = 0xF6A5_A466_0CDA_740A;

#[test]
fn index_is_bit_equal_to_legacy_engine_for_all_plans_and_opt_levels() {
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let points = seeded_cloud(2500, 0xA11CE);
    let mut queries: Vec<Vec3> = points.iter().step_by(7).copied().collect();
    queries.push(Vec3::new(-50.0, -50.0, -50.0)); // outside the cloud
    let mut hash = FNV_OFFSET;
    for params in [
        SearchParams::knn(5.0, 8),
        SearchParams::range(4.0, 64),
        SearchParams::range(2.0, 5), // cap-truncating: order must match too
    ] {
        for opt in OptLevel::all() {
            let plan = QueryPlan::from_params(params);
            let rung = StageOverrides::for_level(opt);
            let mut index = Index::build(&backend, &points[..], EngineConfig::default());
            let first = index.query_with(&queries, &plan, rung).unwrap();
            hash = fingerprint(hash, &first);
            // A repeat pays no structure builds and returns identical
            // results.
            let again = index.query_with(&queries, &plan, rung).unwrap();
            assert_eq!(again.neighbors, first.neighbors);
            assert_eq!(
                again.breakdown.bvh_ms, 0.0,
                "{params:?} {opt:?}: warm index must not rebuild structures"
            );
        }
    }
    assert_golden("seeded cloud", hash, GOLDEN_SEEDED_CLOUD);
}

/// Fingerprint of the 8 cases below as the former single-plan engine
/// answered them.
const GOLDEN_REGULAR_GRID: u64 = 0x02EF_88AA_C3FC_978B;

#[test]
fn index_on_a_regular_grid_matches_the_legacy_engine_golden() {
    // A lattice has exact distance ties, so this pins the tie order too.
    let device = Device::rtx_2080();
    let points = grid_points(7, 0.7);
    let queries: Vec<Vec3> = points.iter().step_by(3).copied().collect();
    let mut hash = FNV_OFFSET;
    for params in [SearchParams::knn(1.4, 7), SearchParams::range(1.1, 64)] {
        for opt in OptLevel::all() {
            let config = EngineConfig::default();
            let results = fresh_search_at(&device, config, opt, params, &points, &queries);
            hash = fingerprint(hash, &results);
        }
    }
    assert_golden("regular grid", hash, GOLDEN_REGULAR_GRID);
}

/// Fingerprint of the 8 cases below as the former engine's caller-prepared
/// path answered them: a caller-built global structure, megacell grid and
/// per-query cache, with 0.01 ms of maintenance charged to the search.
const GOLDEN_ADOPTED_SCENE: u64 = 0xAA2A_EE40_3F8C_261D;

#[test]
fn adopted_scene_matches_a_fresh_index_and_charges_structure_time() {
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let points = grid_points(7, 0.8);
    let queries: Vec<Vec3> = points.iter().step_by(2).copied().collect();
    let mut hash = FNV_OFFSET;
    for params in [SearchParams::knn(1.5, 6), SearchParams::range(1.5, 64)] {
        for opt in OptLevel::all() {
            let config = EngineConfig::default();
            let rung = StageOverrides::for_level(opt);
            let fresh = fresh_search_at(&device, config, opt, params, &points, &queries);

            let width = 2.0 * params.radius * config.approx.aabb_width_factor();
            let accel = backend
                .build(&points, width, BuildParams::default())
                .unwrap();
            let grid = MegacellGrid::build(&points, config.grid_max_cells).unwrap();
            let mut cache = MegacellCache::new(queries.len());
            let mut index = Index::adopt(
                &backend,
                &points,
                config,
                AdoptedScene {
                    accel: &accel,
                    grid: Some(&grid),
                    dirty_region: Aabb::EMPTY,
                    cache: Some(&mut cache),
                    cache_params: None,
                },
            );
            index.charge_structure_ms(0.01);
            let adopted = index
                .query_with(&queries, &QueryPlan::from_params(params), rung)
                .unwrap();
            hash = fingerprint(hash, &adopted);
            assert_eq!(
                adopted.neighbors, fresh.neighbors,
                "{params:?} {opt:?}: an adopted scene must answer bit-identically"
            );
            // The caller-supplied maintenance cost replaces the build time
            // of the global structure.
            assert!(adopted.breakdown.bvh_ms >= 0.01);
            assert!(adopted.breakdown.bvh_ms < fresh.breakdown.bvh_ms);
        }
    }
    assert_golden("adopted scene", hash, GOLDEN_ADOPTED_SCENE);
}

#[test]
fn one_index_serves_heterogeneous_plans_cheaper_than_new_engines() {
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let points = seeded_cloud(4000, 0x5EED);
    let queries: Vec<Vec3> = points.iter().step_by(5).copied().collect();
    let plans = [
        QueryPlan::knn(4.0, 8),
        QueryPlan::knn(6.0, 16),
        QueryPlan::range(3.0, 32),
        QueryPlan::range(4.0, 64),
    ];

    let mut index = Index::build(&backend, &points[..], EngineConfig::default());
    let mut index_total = 0.0;
    for plan in &plans {
        index_total += index.query(&queries, plan).unwrap().total_time_ms();
    }

    let mut engines_total = 0.0;
    for plan in &plans {
        engines_total += Index::build(&backend, &points[..], EngineConfig::default())
            .query(&queries, plan)
            .unwrap()
            .total_time_ms();
    }
    assert!(
        index_total < engines_total,
        "one index ({index_total:.3} ms) must beat per-plan engines ({engines_total:.3} ms)"
    );
}

#[test]
fn batch_results_match_single_plan_results_on_the_same_index() {
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let points = seeded_cloud(2000, 0xBA7C4);
    let queries: Vec<Vec3> = points.iter().step_by(4).copied().collect();
    let n = queries.len() as u32;
    let thirds = [
        (0..n / 3).collect::<Vec<u32>>(),
        (n / 3..2 * n / 3).collect(),
        (2 * n / 3..n).collect(),
    ];
    let plans = [
        QueryPlan::knn(3.0, 4),
        QueryPlan::knn(5.5, 12),
        QueryPlan::range(4.5, 100_000),
    ];
    let batch = QueryPlan::Batch(
        plans
            .iter()
            .cloned()
            .zip(thirds.iter().cloned())
            .map(|(plan, ids)| PlanSlice::new(plan, ids))
            .collect(),
    );

    let mut index = Index::build(&backend, &points[..], EngineConfig::default());
    let combined = index.query(&queries, &batch).unwrap();
    for (plan, ids) in plans.iter().zip(&thirds) {
        let single = index.query(&queries, plan).unwrap();
        for &qid in ids {
            let (mut a, mut b) = (
                combined.neighbors[qid as usize].clone(),
                single.neighbors[qid as usize].clone(),
            );
            if matches!(plan, QueryPlan::Range { .. }) {
                a.sort_unstable();
                b.sort_unstable();
            }
            assert_eq!(a, b, "slice {plan:?}, query {qid}");
        }
    }
    // The batch shares one scheduling pass over all covered queries.
    assert_eq!(combined.fs_metrics.active_rays, n as u64);
}

/// The `StageOverrides` ladder must be bit-equal to the `OptLevel` ladder:
/// disabling a stage per call on a fully-optimised engine produces exactly
/// the results (and counters, and simulated breakdown) of the engine level
/// that never had the stage — the overrides subsume the `OptLevel`
/// plumbing.
#[test]
fn stage_overrides_are_bit_equal_to_the_opt_level_ladder() {
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let points = seeded_cloud(2500, 0x57A6E5);
    let queries: Vec<Vec3> = points.iter().step_by(6).copied().collect();

    let ladder: [(OptLevel, StageOverrides<'static>); 4] = [
        (
            OptLevel::NoOpt,
            StageOverrides {
                schedule: Some(&IdentitySchedule),
                partition: Some(&SinglePartition),
                ..StageOverrides::default()
            },
        ),
        (OptLevel::Sched, StageOverrides::without_partitioning()),
        (
            OptLevel::SchedPartition,
            StageOverrides {
                partition: Some(&MegacellPartition { bundle: false }),
                ..StageOverrides::default()
            },
        ),
        (OptLevel::Full, StageOverrides::none()),
    ];

    for plan in [QueryPlan::knn(5.0, 8), QueryPlan::range(4.0, 64)] {
        for (opt, overrides) in ladder {
            let mut levelled = Index::build(&backend, &points[..], EngineConfig::default());
            let expected = levelled
                .query_with(&queries, &plan, StageOverrides::for_level(opt))
                .unwrap();

            let mut full = Index::build(&backend, &points[..], EngineConfig::default());
            let got = full.query_with(&queries, &plan, overrides).unwrap();

            assert_eq!(
                got.neighbors, expected.neighbors,
                "{plan:?} {opt:?}: override ladder must be bit-equal"
            );
            assert_eq!(
                got.num_partitions, expected.num_partitions,
                "{plan:?} {opt:?}"
            );
            assert_eq!(got.num_bundles, expected.num_bundles, "{plan:?} {opt:?}");
            assert_eq!(
                got.breakdown, expected.breakdown,
                "{plan:?} {opt:?}: simulated breakdown must match exactly"
            );
        }
    }

    // And no overrides at all is literally `query`.
    let plan = QueryPlan::knn(5.0, 8);
    let mut a = Index::build(&backend, &points[..], EngineConfig::default());
    let mut b = Index::build(&backend, &points[..], EngineConfig::default());
    let via_query = a.query(&queries, &plan).unwrap();
    let via_with = b
        .query_with(&queries, &plan, StageOverrides::none())
        .unwrap();
    assert_eq!(via_query.neighbors, via_with.neighbors);
    assert_eq!(via_query.breakdown, via_with.breakdown);
}

/// Satellite contract of the per-stage metering: the sum of the
/// `StageTiming` entries equals the simulated non-transfer total of the
/// existing breakdown — every millisecond lands in exactly one stage, and
/// the sort kernel (charged inside the shared batch schedule) is never
/// double-billed.
#[test]
fn stage_timings_sum_to_the_launch_metrics_totals() {
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let points = seeded_cloud(3000, 0x7141465);
    let queries: Vec<Vec3> = points.iter().step_by(5).copied().collect();
    let n = queries.len() as u32;
    let plans = [
        QueryPlan::knn(5.0, 8),
        QueryPlan::range(4.0, 64),
        QueryPlan::Batch(vec![
            PlanSlice::new(QueryPlan::knn(4.0, 6), (0..n / 2).collect()),
            PlanSlice::new(QueryPlan::range(5.5, 64), (n / 2..n).collect()),
        ]),
    ];
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);

    for opt in OptLevel::all() {
        for plan in &plans {
            let mut index = Index::build(&backend, &points[..], EngineConfig::default());
            let results = index
                .query_with(&queries, plan, StageOverrides::for_level(opt))
                .unwrap();
            let b = &results.breakdown;
            let trace = &results.trace;

            // Every simulated ms outside the Data slot is in exactly one
            // stage.
            assert!(
                close(trace.device_total_ms(), b.total_ms() - b.data_ms),
                "{opt:?} {plan:?}: stages account {} ms, breakdown has {} ms",
                trace.device_total_ms(),
                b.total_ms() - b.data_ms
            );
            // Schedule + Partition together are the Opt + FS components —
            // the sort kernel is billed once (to Schedule), the megacell
            // kernel once (to Partition).
            let sched = trace.stage(StageKind::Schedule).device_ms;
            let part = trace.stage(StageKind::Partition).device_ms;
            assert!(
                close(sched + part, b.opt_ms + b.fs_ms),
                "{opt:?} {plan:?}: schedule {sched} + partition {part} vs opt {} + fs {}",
                b.opt_ms,
                b.fs_ms
            );
            // Launch owns structures + search traversals.
            assert!(
                close(
                    trace.stage(StageKind::Launch).device_ms,
                    b.bvh_ms + b.search_ms
                ),
                "{opt:?} {plan:?}: launch slot must equal BVH + Search"
            );
            // Gather is host-side only.
            assert_eq!(trace.stage(StageKind::Gather).device_ms, 0.0);
            if !queries.is_empty() {
                assert!(
                    trace.stage(StageKind::Gather).invocations > 0,
                    "{opt:?} {plan:?}: gather must have run"
                );
            }
        }
    }
}

#[test]
fn plan_validation_is_typed_and_names_the_field() {
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let points = seeded_cloud(100, 3);
    let mut index = Index::build(&backend, &points[..], EngineConfig::default());
    let queries = vec![Vec3::ZERO];

    let cases: Vec<(QueryPlan, PlanError)> = vec![
        (
            QueryPlan::knn(0.0, 4),
            PlanError::InvalidRadius {
                field: "Knn.r",
                value: 0.0,
            },
        ),
        (
            QueryPlan::knn(1.0, 0),
            PlanError::ZeroNeighborCount { field: "Knn.k" },
        ),
        (
            QueryPlan::range(-3.0, 8),
            PlanError::InvalidRadius {
                field: "Range.r",
                value: -3.0,
            },
        ),
        (QueryPlan::Batch(Vec::new()), PlanError::EmptyBatch),
        (
            QueryPlan::Batch(vec![PlanSlice::new(QueryPlan::knn(1.0, 2), vec![7])]),
            PlanError::QueryIdOutOfRange {
                slice: 0,
                query_id: 7,
                num_queries: 1,
            },
        ),
    ];
    for (plan, expected) in cases {
        let err = index.query(&queries, &plan).unwrap_err();
        assert_eq!(err, SearchError::InvalidPlan(expected.clone()));
        // Every error message names the offending field or structure.
        let msg = err.to_string();
        assert!(
            msg.contains("invalid configuration"),
            "missing error prefix: {msg}"
        );
    }

    // The one entry point that takes raw `SearchParams` reports the same
    // typed errors.
    let mut dynamic = DynamicIndex::with_points(
        &device,
        EngineConfig::default(),
        SearchParams::range(1.0, 0),
        &points,
    );
    assert_eq!(
        dynamic.search(&queries).unwrap_err(),
        SearchError::InvalidPlan(PlanError::ZeroNeighborCount {
            field: "SearchParams.k"
        })
    );
}
