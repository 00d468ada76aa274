//! Cross-backend equivalence suite: for every plan kind × optimisation
//! level, the ray-tracing backends (`GpusimBackend::new` and the opaque
//! `GpusimBackend::opaque` shim) must agree with the exhaustive
//! `BruteForceBackend` oracle on seeded clouds — bit-equal for KNN (whose
//! distance-sorted output erases traversal-order differences) and set-equal
//! for range search (whose within-radius *order* is traversal-defined, so an
//! uncapped comparison is order-normalised).
//!
//! Also proves the `Backend` trait stays object-safe: every backend in the
//! suite is driven through a `Box<dyn Backend>`.

mod common;

use common::{all_backends, seeded_cloud};
use rtnn::{
    Backend, EngineConfig, GpusimBackend, Index, OptLevel, PlanError, PlanSlice, QueryPlan,
    SearchError, StageOverrides,
};
use rtnn_baselines::BruteForceBackend;
use rtnn_gpusim::Device;
use rtnn_math::Vec3;
use rtnn_serve::ShardedIndex;

/// A seeded random cloud (no grid degeneracies, so float distance ties —
/// the one thing that could legitimately differ between candidate visit
/// orders — do not occur).
fn queries_for(points: &[Vec3]) -> Vec<Vec3> {
    let mut queries: Vec<Vec3> = points.iter().step_by(9).copied().collect();
    // A few queries outside the cloud exercise the out-of-grid paths.
    queries.push(Vec3::new(-100.0, -100.0, -100.0));
    queries.push(Vec3::new(500.0, 0.0, 12.0));
    queries
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

/// Run one plan on one backend through a trait object (object safety is
/// part of what this suite proves).
fn run_plan(
    backend: &dyn Backend,
    points: &[Vec3],
    queries: &[Vec3],
    opt: OptLevel,
    plan: &QueryPlan,
) -> Vec<Vec<u32>> {
    let mut index = Index::build(backend, points, EngineConfig::default());
    index
        .query_with(queries, plan, StageOverrides::for_level(opt))
        .expect("equivalence workload fits the device")
        .neighbors
}

#[test]
fn all_backends_agree_for_every_plan_kind_and_opt_level() {
    let device = Device::rtx_2080();
    let points = seeded_cloud(3000, 0xBEEF);
    let queries = queries_for(&points);
    let n = queries.len() as u32;

    let knn = QueryPlan::knn(6.0, 8);
    // Cap far above any in-radius count, so the range sets are complete.
    let range = QueryPlan::range(5.0, 100_000);
    let batch = QueryPlan::Batch(vec![
        PlanSlice::new(QueryPlan::knn(4.0, 5), (0..n / 2).collect()),
        PlanSlice::new(QueryPlan::range(7.0, 100_000), (n / 2..n).collect()),
    ]);

    let rt_backends: Vec<(&str, Box<dyn Backend + '_>)> = vec![
        ("gpusim", Box::new(GpusimBackend::new(&device))),
        ("optix-shim", Box::new(GpusimBackend::opaque(&device))),
    ];
    let oracle: Box<dyn Backend + '_> = Box::new(BruteForceBackend::new(&device));

    for opt in OptLevel::all() {
        // KNN: bit-equal (same sets, same distance-sorted order).
        let oracle_knn = run_plan(oracle.as_ref(), &points, &queries, opt, &knn);
        for (name, backend) in &rt_backends {
            let got = run_plan(backend.as_ref(), &points, &queries, opt, &knn);
            assert_eq!(
                got, oracle_knn,
                "{name} vs oracle, {opt:?}: KNN results must be bit-equal"
            );
        }

        // Range: set-equal against the oracle (order is traversal-defined);
        // the two RT backends must agree bit-for-bit with each other.
        let oracle_range = run_plan(oracle.as_ref(), &points, &queries, opt, &range);
        let rt_range: Vec<Vec<Vec<u32>>> = rt_backends
            .iter()
            .map(|(_, b)| run_plan(b.as_ref(), &points, &queries, opt, &range))
            .collect();
        assert_eq!(
            rt_range[0], rt_range[1],
            "{opt:?}: the two RT backends must agree bit-for-bit on range search"
        );
        for (qi, oracle_ids) in oracle_range.iter().enumerate() {
            assert_eq!(
                sorted(rt_range[0][qi].clone()),
                sorted(oracle_ids.clone()),
                "{opt:?} query {qi}: range sets must match the oracle"
            );
        }

        // Heterogeneous batch: per-slice, same contracts as above.
        let oracle_batch = run_plan(oracle.as_ref(), &points, &queries, opt, &batch);
        for (name, backend) in &rt_backends {
            let got = run_plan(backend.as_ref(), &points, &queries, opt, &batch);
            for qi in 0..(n / 2) as usize {
                assert_eq!(
                    got[qi], oracle_batch[qi],
                    "{name} vs oracle, {opt:?}: batch KNN slice, query {qi}"
                );
            }
            for qi in (n / 2) as usize..n as usize {
                assert_eq!(
                    sorted(got[qi].clone()),
                    sorted(oracle_batch[qi].clone()),
                    "{name} vs oracle, {opt:?}: batch range slice, query {qi}"
                );
            }
        }
    }
}

#[test]
fn boxed_backends_are_interchangeable_at_runtime() {
    // The constructor takes `&dyn Backend`: the same call site serves any
    // implementation picked at runtime.
    let device = Device::rtx_2080();
    let points = seeded_cloud(800, 0x0B57AC1E);
    let queries: Vec<Vec3> = points.iter().step_by(13).copied().collect();
    let backends: Vec<Box<dyn Backend + '_>> = vec![
        Box::new(GpusimBackend::new(&device)),
        Box::new(GpusimBackend::opaque(&device)),
        Box::new(BruteForceBackend::new(&device)),
    ];
    let mut all = Vec::new();
    for backend in &backends {
        assert!(!backend.name().is_empty());
        let mut index = Index::build(backend.as_ref(), &points[..], EngineConfig::default());
        all.push(
            index
                .query(&queries, &QueryPlan::knn(5.0, 4))
                .unwrap()
                .neighbors,
        );
    }
    assert_eq!(all[0], all[1]);
    assert_eq!(all[0], all[2]);
}

#[test]
fn stage_overrides_preserve_backend_equivalence() {
    // Disabling a pipeline stage per call must not change *what* any
    // backend computes — the staged execution only moves work around. Every
    // backend (driven through a `Box<dyn Backend>`, including the oracle,
    // which executes the same pipeline with exhaustive launches) must agree
    // bit-for-bit on KNN under every single-stage toggle, and the toggles
    // must match the untoggled results.
    let device = Device::rtx_2080();
    let points = seeded_cloud(1500, 0x0DDBA11);
    let queries = queries_for(&points);
    let plan = QueryPlan::knn(6.0, 8);
    let backends = all_backends(&device);
    let toggles = [
        ("none", StageOverrides::none()),
        ("no-reorder", StageOverrides::without_reordering()),
        ("no-partition", StageOverrides::without_partitioning()),
    ];

    let mut reference: Option<Vec<Vec<u32>>> = None;
    for (backend_name, backend) in &backends {
        for (toggle_name, overrides) in toggles {
            let mut index = Index::build(backend.as_ref(), &points[..], EngineConfig::default());
            let got = index
                .query_with(&queries, &plan, overrides)
                .expect("override workload fits the device")
                .neighbors;
            match &reference {
                None => reference = Some(got),
                Some(expected) => assert_eq!(
                    &got, expected,
                    "{backend_name}/{toggle_name}: stage toggles must not change KNN results"
                ),
            }
        }
    }
}

#[test]
fn oracle_matches_the_reference_brute_force_scan() {
    // The oracle backend and the verification module's scan must agree —
    // they are independent implementations of the same ground truth.
    let device = Device::rtx_2080();
    let points = seeded_cloud(1200, 0x0C0FFEE);
    let queries: Vec<Vec3> = points.iter().step_by(31).copied().collect();
    let oracle: Box<dyn Backend + '_> = Box::new(BruteForceBackend::new(&device));
    let got = run_plan(
        oracle.as_ref(),
        &points,
        &queries,
        OptLevel::Full,
        &QueryPlan::knn(8.0, 6),
    );
    for (qi, q) in queries.iter().enumerate() {
        assert_eq!(got[qi], rtnn::verify::brute_force_knn(&points, *q, 8.0, 6));
    }
}

#[test]
fn non_finite_queries_are_rejected_with_their_index_on_every_backend() {
    // A NaN or infinite query coordinate has no neighbors to report: every
    // backend fails the call with a typed error naming the query, instead
    // of reaching the traversal kernels.
    let device = Device::rtx_2080();
    let points: Vec<Vec3> = (0..100)
        .map(|i| Vec3::new((i % 10) as f32, (i / 10) as f32, 0.0))
        .collect();
    // Off-lattice queries: no distance ties at the 4th neighbor.
    let good = vec![Vec3::new(1.13, 0.91, 0.07), Vec3::new(4.62, 3.31, 0.0)];
    let plan = QueryPlan::knn(1.5, 4);
    let backends = all_backends(&device);
    let mut reference: Option<Vec<Vec<u32>>> = None;
    for (name, backend) in &backends {
        let mut index = Index::build(backend.as_ref(), &points[..], EngineConfig::default());
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let queries = [good[0], Vec3::new(0.0, bad, 0.0), good[1]];
            for call in [&plan, &QueryPlan::range(1.5, 8)] {
                assert_eq!(
                    index.query(&queries, call).unwrap_err(),
                    SearchError::InvalidPlan(PlanError::NonFiniteQuery { query: 1 }),
                    "{name}: {bad} in a {} call",
                    call.kind_label()
                );
            }
        }
        // The finite queries alone still agree on every backend.
        let got = index.query(&good, &plan).unwrap().neighbors;
        assert_eq!(&got, reference.get_or_insert_with(|| got.clone()), "{name}");
    }
}

#[test]
fn non_finite_points_are_rejected_with_their_index_on_every_backend() {
    // One non-finite point leaves the scene without finite bounds: the
    // megacell grid used to collapse to a single partition for the whole
    // index, silently. Every call on such an index now fails with a typed
    // error naming the caller's point index, on every backend and through
    // a sharded index too.
    let device = Device::rtx_2080();
    let cloud = seeded_cloud(500, 0x0DD_F00D);
    let plans = [QueryPlan::knn(20.0, 4), QueryPlan::range(20.0, 64)];
    let backends = all_backends(&device);
    for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
        let mut points = cloud.clone();
        points[123] = Vec3::new(50.0, bad, 50.0);
        let want = SearchError::InvalidPlan(PlanError::NonFinitePoint { point: 123 });
        for (name, backend) in &backends {
            let mut index = Index::build(backend.as_ref(), &points[..], EngineConfig::default());
            for plan in &plans {
                let what = format!("{name}: {bad} in a {} call", plan.kind_label());
                assert_eq!(index.warm(plan).unwrap_err(), want, "{what}");
                assert_eq!(index.query(&cloud, plan).unwrap_err(), want, "{what}");
            }
            for shards in [1, 2, 5] {
                let mut sharded =
                    ShardedIndex::build(backend.as_ref(), &points, EngineConfig::default(), shards);
                for plan in &plans {
                    let what = format!("{name}, {shards} shards: {bad}");
                    assert_eq!(sharded.warm(plan).unwrap_err(), want, "{what}");
                    assert_eq!(sharded.query(&cloud, plan).unwrap_err(), want, "{what}");
                }
            }
        }
    }
    // The same cloud without the bad point partitions as usual.
    let backend = GpusimBackend::new(&device);
    let mut index = Index::build(&backend, &cloud[..], EngineConfig::default());
    let knn = index.query(&cloud, &plans[0]).unwrap();
    assert!(knn.num_partitions > 1, "{} partitions", knn.num_partitions);
}
