//! Helpers shared by the integration tests.

// Every test binary compiles this module but uses only some helpers.
#![allow(dead_code)]

use rtnn::{
    Backend, EngineConfig, GpusimBackend, Index, OptLevel, QueryPlan, SearchParams, SearchResults,
    StageOverrides,
};
use rtnn_baselines::BruteForceBackend;
use rtnn_data::uniform::{self, UniformParams};
use rtnn_gpusim::Device;
use rtnn_math::Vec3;

/// A seeded uniform cloud in the default bounds: full-mantissa
/// coordinates, so no exact distance ties.
pub fn seeded_cloud(n: usize, seed: u64) -> Vec<Vec3> {
    uniform::generate(&UniformParams {
        num_points: n,
        seed,
        ..Default::default()
    })
    .points
}

/// The execution backends every equivalence suite compares: gpusim, the
/// opaque OptiX shim and the brute-force oracle.
pub fn all_backends(device: &Device) -> Vec<(&'static str, Box<dyn Backend + '_>)> {
    vec![
        ("gpusim", Box::new(GpusimBackend::new(device))),
        ("optix-shim", Box::new(GpusimBackend::opaque(device))),
        ("brute-force", Box::new(BruteForceBackend::new(device))),
    ]
}

/// Answer `params` for `queries` on a freshly built [`Index`] over
/// `points`: every structure is built from scratch and charged to this one
/// call.
pub fn fresh_search(
    device: &Device,
    config: EngineConfig,
    params: SearchParams,
    points: &[Vec3],
    queries: &[Vec3],
) -> SearchResults {
    let backend = GpusimBackend::new(device);
    Index::build(&backend, points, config)
        .query(queries, &QueryPlan::from_params(params))
        .unwrap()
}

/// [`fresh_search`] at one ladder rung ([`StageOverrides::for_level`]).
pub fn fresh_search_at(
    device: &Device,
    config: EngineConfig,
    level: OptLevel,
    params: SearchParams,
    points: &[Vec3],
    queries: &[Vec3],
) -> SearchResults {
    let backend = GpusimBackend::new(device);
    Index::build(&backend, points, config)
        .query_with(
            queries,
            &QueryPlan::from_params(params),
            StageOverrides::for_level(level),
        )
        .unwrap()
}
