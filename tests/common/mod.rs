//! Helpers shared by the integration tests.

use rtnn::{EngineConfig, GpusimBackend, Index, QueryPlan, SearchParams, SearchResults};
use rtnn_gpusim::Device;
use rtnn_math::Vec3;

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
