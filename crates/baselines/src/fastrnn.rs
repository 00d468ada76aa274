//! FastRNN: the RT-core neighbor search *without* RTNN's optimisations.
//!
//! Evangelou et al. (JCGT 2021) also map neighbor search onto the RT cores,
//! but without query scheduling, partitioning or bundling; the paper uses it
//! as the "unoptimised ray-tracing-accelerated" baseline (65× slower than
//! RTNN on KNN). That is exactly the `NoOpt` rung of the `rtnn` engine —
//! an `Index` queried with `StageOverrides::for_level(OptLevel::NoOpt)` —
//! so this baseline is a thin wrapper, and the comparison in Figure 11/13
//! is apples-to-apples by construction.

use crate::common::{Baseline, BaselineRun, SearchRequest};
use rtnn::{EngineConfig, GpusimBackend, Index, OptLevel, QueryPlan, StageOverrides};
use rtnn_gpusim::Device;
use rtnn_math::Vec3;

/// The FastRNN baseline (KNN only, like the original).
#[derive(Debug, Clone, Copy, Default)]
pub struct FastRnn;

impl Baseline for FastRnn {
    fn name(&self) -> &'static str {
        "FastRNN"
    }

    fn range_search(
        &self,
        _device: &Device,
        _points: &[Vec3],
        _queries: &[Vec3],
        _request: SearchRequest,
    ) -> Option<BaselineRun> {
        // The original FastRNN targets KNN search only (Section 6.1).
        None
    }

    fn knn_search(
        &self,
        device: &Device,
        points: &[Vec3],
        queries: &[Vec3],
        request: SearchRequest,
    ) -> Option<BaselineRun> {
        let backend = GpusimBackend::new(device);
        let mut index = Index::build(&backend, points, EngineConfig::default());
        let results = index
            .query_with(
                queries,
                &QueryPlan::knn(request.radius, request.k),
                StageOverrides::for_level(OptLevel::NoOpt),
            )
            .ok()?;
        Some(BaselineRun {
            neighbors: results.neighbors,
            build_ms: results.breakdown.bvh_ms,
            search_ms: results.breakdown.search_ms
                + results.breakdown.fs_ms
                + results.breakdown.opt_ms,
            data_ms: results.breakdown.data_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtnn::verify::check_all;
    use rtnn::SearchParams;

    fn cloud() -> Vec<Vec3> {
        (0..600)
            .map(|i| {
                let f = i as f32;
                Vec3::new((f * 0.737) % 7.0, (f * 0.311) % 7.0, (f * 0.553) % 7.0)
            })
            .collect()
    }

    #[test]
    fn knn_matches_the_oracle() {
        let device = Device::rtx_2080();
        let points = cloud();
        let queries: Vec<Vec3> = points.iter().step_by(19).copied().collect();
        let request = SearchRequest::new(1.2, 5);
        let run = FastRnn
            .knn_search(&device, &points, &queries, request)
            .unwrap();
        check_all(
            &points,
            &queries,
            &SearchParams::knn(1.2, 5),
            &run.neighbors,
        )
        .unwrap_or_else(|(q, e)| panic!("query {q}: {e}"));
        assert!(run.build_ms > 0.0);
        assert!(run.search_ms > 0.0);
    }

    #[test]
    fn range_is_unsupported() {
        let device = Device::rtx_2080();
        assert!(FastRnn
            .range_search(&device, &cloud(), &[Vec3::ZERO], SearchRequest::new(1.0, 4))
            .is_none());
    }

    #[test]
    fn fastrnn_is_slower_than_fully_optimised_rtnn_on_dense_clouds() {
        // The headline contrast of the paper, at small scale: same device,
        // same queries, optimisations off vs on.
        let device = Device::rtx_2080();
        let points: Vec<Vec3> = (0..6000)
            .map(|i| {
                let f = i as f32;
                Vec3::new((f * 0.17) % 5.0, (f * 0.29) % 5.0, (f * 0.41) % 5.0)
            })
            .collect();
        let queries = points.clone();
        let request = SearchRequest::new(2.5, 8);
        let fastrnn = FastRnn
            .knn_search(&device, &points, &queries, request)
            .unwrap();
        let backend = GpusimBackend::new(&device);
        let rtnn_full = Index::build(&backend, &points[..], EngineConfig::default())
            .query(&queries, &QueryPlan::knn(2.0, 8))
            .unwrap();
        assert!(
            rtnn_full.breakdown.total_ms() < fastrnn.total_ms(),
            "RTNN {} ms vs FastRNN {} ms",
            rtnn_full.breakdown.total_ms(),
            fastrnn.total_ms()
        );
    }
}
