//! Whole-`LaunchMetrics` golden: every field of a launch's metrics —
//! including the kernel's floating-point cycle sums, SIMT efficiency,
//! simulated time and every cache counter — is pinned bit-for-bit for the
//! four launch kinds RTNN issues (k-NN, cap-terminating range, uncapped
//! range and the first-hit scheduling pass), on a seeded cloud and on a
//! grid of co-located points, at 1 and 2 host threads.
//!
//! The per-launch metrics are what the simulator's accounting produces, so
//! this golden is the contract any change to traversal or accounting must
//! keep: results and simulated numbers stay bit-identical.

mod common;

use common::seeded_cloud;
use rtnn::shaders::{FirstHitProgram, KnnHeap, KnnProgram, QueryIndexing, RangeProgram};
use rtnn::{EngineConfig, GpusimBackend, Index, LaunchMetrics, QueryPlan, SearchParams};
use rtnn_bvh::BuildParams;
use rtnn_gpusim::cache::CacheStats;
use rtnn_gpusim::{Device, IsShaderKind, KernelMetrics, MemoryStats};
use rtnn_math::Vec3;
use rtnn_optix::{Gas, Pipeline};

/// An order-sensitive FNV-1a hash.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn put(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn put_ids(&mut self, ids: &[u32]) {
        self.put(ids.len() as u64);
        ids.iter().for_each(|&id| self.put(u64::from(id)));
    }

    /// Every field of `m`, floats as their bit patterns. The destructuring
    /// is exhaustive, so a field added to any of these structs fails to
    /// compile here until it is hashed too.
    fn put_metrics(&mut self, m: &LaunchMetrics) {
        let LaunchMetrics {
            kernel,
            active_rays,
            node_visits,
            prim_tests,
            is_calls,
            terminated_rays,
            hit_rays,
        } = m;
        let KernelMetrics {
            time_ms,
            total_cycles,
            critical_path_cycles,
            warps,
            threads,
            rt_core_cycles,
            sm_cycles,
            mem_stall_cycles,
            simt_efficiency,
            memory,
        } = kernel;
        let MemoryStats {
            l1,
            l2,
            dram_accesses,
        } = memory;
        for count in [
            *active_rays,
            *node_visits,
            *prim_tests,
            *is_calls,
            *terminated_rays,
            *hit_rays,
            *warps,
            *threads,
            *dram_accesses,
        ] {
            self.put(count);
        }
        for cycles in [
            *time_ms,
            *total_cycles,
            *critical_path_cycles,
            *rt_core_cycles,
            *sm_cycles,
            *mem_stall_cycles,
            *simt_efficiency,
        ] {
            self.put(cycles.to_bits());
        }
        for CacheStats { accesses, hits } in [l1, l2] {
            self.put(*accesses);
            self.put(*hits);
        }
    }
}

/// A 10×10×10 lattice with every point stored twice: co-located points
/// make exact distance ties and duplicate leaf entries.
fn colocated_grid() -> Vec<Vec3> {
    let mut pts = Vec::new();
    for x in 0..10 {
        for y in 0..10 {
            for z in 0..10 {
                let p = Vec3::new(x as f32, y as f32, z as f32) * 1.5;
                pts.push(p);
                pts.push(p);
            }
        }
    }
    pts
}

/// Queries: every third point (so several warps share subtrees), a
/// scrambled copy of the same points (so warps diverge), and two probes
/// outside the cloud's bounds.
fn queries_for(points: &[Vec3]) -> Vec<Vec3> {
    let mut qs: Vec<Vec3> = points.iter().step_by(3).copied().collect();
    let n = qs.len();
    let scrambled: Vec<Vec3> = (0..n).map(|i| qs[(i * 7919) % n]).collect();
    qs.extend(scrambled);
    qs.push(Vec3::new(-500.0, -500.0, -500.0));
    qs.push(Vec3::new(1e4, 0.0, 0.0));
    qs
}

/// Hash the four launch kinds on `points` at search radius `radius`.
fn hash_launches(hash: &mut Fnv, device: &Device, points: &[Vec3], radius: f32) {
    let gas = Gas::build_from_points(device, points, radius, BuildParams::default()).unwrap();
    let queries = queries_for(points);
    let n = queries.len();
    let pipeline = Pipeline::new(device);
    let indexing = QueryIndexing::Identity;

    let knn = KnnProgram {
        points,
        queries: &queries,
        indexing,
        radius,
        k: 8,
    };
    let launch = pipeline.launch(&gas, n, &knn, IsShaderKind::Knn);
    for heap in launch.payloads {
        hash.put_ids(&KnnHeap::into_sorted_ids(heap));
    }
    hash.put_metrics(&launch.metrics);

    for (cap, sphere_test) in [(5, true), (usize::MAX, true), (usize::MAX, false)] {
        let range = RangeProgram {
            points,
            queries: &queries,
            indexing,
            radius,
            k: cap,
            sphere_test,
        };
        let kind = if sphere_test {
            IsShaderKind::RangeSphereTest
        } else {
            IsShaderKind::RangeNoSphereTest
        };
        let launch = pipeline.launch(&gas, n, &range, kind);
        for ids in &launch.payloads {
            hash.put_ids(ids);
        }
        hash.put_metrics(&launch.metrics);
    }

    let first_hit = FirstHitProgram {
        queries: &queries,
        indexing,
    };
    let launch = pipeline.launch(&gas, n, &first_hit, IsShaderKind::RangeNoSphereTest);
    launch
        .payloads
        .iter()
        .for_each(|&hit| hash.put(u64::from(hit)));
    hash.put_metrics(&launch.metrics);
}

/// The whole golden: direct launches on both scenes, then the partitioned,
/// scheduled launches of a fresh `Index` (mapped launch indices).
fn golden_hash(device: &Device) -> u64 {
    let mut hash = Fnv::new();
    let cloud = seeded_cloud(3000, 0x5EED_0016);
    hash_launches(&mut hash, device, &cloud, 4.0);
    let grid = colocated_grid();
    hash_launches(&mut hash, device, &grid, 2.0);

    let backend = GpusimBackend::new(device);
    let queries = queries_for(&cloud);
    for params in [SearchParams::knn(5.0, 8), SearchParams::range(4.0, 16)] {
        let results = Index::build(&backend, &cloud[..], EngineConfig::default())
            .query(&queries, &QueryPlan::from_params(params))
            .unwrap();
        hash.put_metrics(&results.search_metrics);
        hash.put_metrics(&results.fs_metrics);
    }
    hash.0
}

/// A change to traversal or accounting that keeps results and simulated
/// metrics must reproduce this unedited.
const GOLDEN_LAUNCH_METRICS: u64 = 0x413E_7324_5D3C_50DF;

#[test]
fn whole_launch_metrics_are_pinned_at_one_and_two_threads() {
    let device = Device::rtx_2080();
    let one = rtnn_parallel::with_thread_count(1, || golden_hash(&device));
    let two = rtnn_parallel::with_thread_count(2, || golden_hash(&device));
    assert_eq!(one, two, "launch metrics depend on the host thread count");
    assert_eq!(
        one, GOLDEN_LAUNCH_METRICS,
        "launch metrics drifted from the recorded golden (got {one:#018X}); \
         update it only for an intentional change to simulated metrics"
    );
}
