//! The launch path: map launch indices to rays, group 32 consecutive rays
//! into a warp, traverse the GAS for every ray, run the shaders, and charge
//! the work to the simulated device.
//!
//! The warp grouping matters: the paper's Section 3.2.1 observes that
//! "OptiX groups every 32 adjacent rays generated in the RG shader into a
//! warp", so adjacent launch indices that correspond to spatially distant
//! queries diverge. The query-scheduling optimisation exists precisely to
//! exploit this grouping, and the simulator reproduces it: a warp's RT-core
//! time is driven by the *union* of the BVH nodes its rays visit, its
//! shader time by the IS calls of all its lanes, and its memory traffic by
//! the distinct cache lines it touches.
//!
//! The union is built while the rays traverse: the traversal visitors add
//! each node index and leaf slot to the warp's distinct lists the first
//! time its membership bit is set, so charging needs no sort. Each host
//! thread reuses its bits, stack and buffers for every warp it simulates,
//! so the accounting allocates nothing per ray or per warp.

use crate::gas::{Gas, NODE_BYTES, PRIM_BYTES};
use crate::shader::{IsVerdict, RayProgram};
use rtnn_bvh::TraversalControl;
use rtnn_gpusim::kernel::{BVH_NODES_BASE, BVH_PRIMS_BASE};
use rtnn_gpusim::{Device, IsShaderKind, KernelMetrics};
use serde::{Deserialize, Serialize};
use std::cell::Cell;

/// Aggregate counters for one launch, merging device metrics with the
/// ray-tracing-specific counters the paper's figures plot.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LaunchMetrics {
    /// Device-level metrics (simulated time, cycles, caches, occupancy).
    pub kernel: KernelMetrics,
    /// Number of rays that produced a ray in the RG shader.
    pub active_rays: u64,
    /// Total BVH node visits summed over rays (the paper's "tree traversals").
    pub node_visits: u64,
    /// Total primitive-AABB tests inside leaves.
    pub prim_tests: u64,
    /// Total IS shader invocations (Figure 8's y-axis).
    pub is_calls: u64,
    /// Rays that were terminated early by the IS/AH shader.
    pub terminated_rays: u64,
    /// Rays for which at least one intersection was accepted (CH shader ran).
    pub hit_rays: u64,
}

impl LaunchMetrics {
    /// Merge another launch executed back-to-back with this one.
    pub fn merge_sequential(&mut self, other: &LaunchMetrics) {
        self.kernel.merge_sequential(&other.kernel);
        self.active_rays += other.active_rays;
        self.node_visits += other.node_visits;
        self.prim_tests += other.prim_tests;
        self.is_calls += other.is_calls;
        self.terminated_rays += other.terminated_rays;
        self.hit_rays += other.hit_rays;
    }

    /// Simulated launch time in milliseconds.
    pub fn time_ms(&self) -> f64 {
        self.kernel.time_ms
    }
}

/// The result of one pipeline launch: the final per-ray payloads (indexed by
/// launch index) and the launch metrics.
#[derive(Debug, Clone)]
pub struct LaunchResult<P> {
    /// Final payload of every launch index (default-initialised for masked
    /// lanes).
    pub payloads: Vec<P>,
    /// Simulated execution metrics.
    pub metrics: LaunchMetrics,
}

/// Distinct ids in first-insertion order, with one membership bit per
/// possible id. Only listed ids have their bit set, so clearing costs the
/// list's length, not the id range.
#[derive(Debug, Default)]
struct IdSet {
    bits: Vec<u64>,
    ids: Vec<u32>,
}

impl IdSet {
    /// Make room for ids below `n`.
    fn fit(&mut self, n: usize) {
        self.bits.resize(self.bits.len().max(n.div_ceil(64)), 0);
    }

    #[inline]
    fn insert(&mut self, id: u32) {
        let (word, bit) = (&mut self.bits[id as usize / 64], 1u64 << (id % 64));
        if *word & bit == 0 {
            *word |= bit;
            self.ids.push(id);
        }
    }

    fn clear(&mut self) {
        for &id in &self.ids {
            self.bits[id as usize / 64] = 0;
        }
        self.ids.clear();
    }
}

/// Per-thread buffers of the launch path, reused across rays and warps:
/// the traversal stack, the warp's distinct node indices and leaf slots,
/// and their addresses.
#[derive(Debug, Default)]
struct WarpScratch {
    stack: Vec<u32>,
    nodes: IdSet,
    slots: IdSet,
    addresses: Vec<u64>,
}

thread_local! {
    static SCRATCH: Cell<WarpScratch> = Cell::default();
}

/// A ray-casting pipeline bound to a device.
#[derive(Debug, Clone)]
pub struct Pipeline<'d> {
    device: &'d Device,
}

impl<'d> Pipeline<'d> {
    /// Create a pipeline on `device`.
    pub fn new(device: &'d Device) -> Self {
        Pipeline { device }
    }

    /// The device this pipeline launches on.
    pub fn device(&self) -> &Device {
        self.device
    }

    /// Launch `num_rays` rays of `program` against `gas`.
    ///
    /// `is_kind` selects the simulated cost of each IS invocation (range
    /// with/without sphere test, or KNN) — see
    /// [`rtnn_gpusim::CostModel`].
    pub fn launch<P: RayProgram>(
        &self,
        gas: &Gas,
        num_rays: usize,
        program: &P,
        is_kind: IsShaderKind,
    ) -> LaunchResult<P::Payload> {
        let bvh = gas.bvh();
        let warp_size = self.device.config().warp_size as f64;

        let (outputs, kernel) = self.device.run_warps(num_rays, |range, shard| {
            // Taken for the warp and put back after it, so a program that
            // re-enters `launch` from a shader starts from fresh scratch.
            let mut scratch = SCRATCH.with(Cell::take);
            scratch.nodes.fit(bvh.nodes.len());
            scratch.slots.fit(bvh.prim_indices.len());
            // Per ray: its payload, work counters and whether it hit; `None`
            // for a lane the RG shader masked.
            let mut warp_results = Vec::with_capacity(range.len());
            let mut sum_lane_nodes = 0u64;
            let mut sum_lane_is = 0u64;

            for launch_index in range.clone() {
                let Some((ray, mut payload)) = program.ray_gen(launch_index as u32) else {
                    warp_results.push(None);
                    continue;
                };
                let mut hit = false;
                let stats = bvh.traverse_with(
                    &ray,
                    &mut scratch.stack,
                    |n| scratch.nodes.insert(n),
                    |s| scratch.slots.insert(s),
                    |prim_id| match program.intersection(launch_index as u32, prim_id, &mut payload)
                    {
                        IsVerdict::Ignore => TraversalControl::Continue,
                        IsVerdict::Accept => {
                            hit = true;
                            TraversalControl::Continue
                        }
                        IsVerdict::AcceptAndTerminate => {
                            hit = true;
                            TraversalControl::Terminate
                        }
                    },
                );
                if hit {
                    program.closest_hit(launch_index as u32, &mut payload);
                } else {
                    program.miss(launch_index as u32, &mut payload);
                }
                sum_lane_nodes += stats.nodes_visited;
                sum_lane_is += stats.is_calls;
                warp_results.push(Some((payload, stats, hit)));
            }

            // RT-core work: one node test per distinct node, one AABB test per
            // distinct primitive slot the warp scanned. Traversal of a node
            // shared by several rays in the warp is broadcast, so it is
            // charged once.
            let (nodes, slots) = (&scratch.nodes.ids, &scratch.slots.ids);
            shard.charge_rt_node_tests(nodes.len() as f64);
            shard.charge_rt_prim_tests(slots.len() as f64);
            // SM shader work: IS invocations interrupt hardware traversal at
            // lane-specific points, so they are only partially SIMT-parallel;
            // every lane's IS calls are charged, packed `is_simt_width` wide.
            let is_width = shard.cost().is_simt_width.max(1.0);
            shard.charge_is_calls(sum_lane_is as f64 / is_width, is_kind);

            // Memory traffic: BVH nodes and primitive records the warp read.
            // Their order does not matter: the shard coalesces them into
            // sorted distinct cache lines.
            let addresses = &mut scratch.addresses;
            addresses.clear();
            for (ids, base, bytes) in [
                (nodes, BVH_NODES_BASE, NODE_BYTES),
                (slots, BVH_PRIMS_BASE, PRIM_BYTES),
            ] {
                addresses.extend(ids.iter().map(|&id| base + id as u64 * bytes));
            }
            shard.access_warp_memory(addresses);

            // SIMT efficiency: useful lane-work over issued warp-work.
            let issued = (nodes.len() as f64).max(1e-9) * warp_size;
            shard.note_simt_work(sum_lane_nodes as f64, issued);

            scratch.nodes.clear();
            scratch.slots.clear();
            SCRATCH.with(|cell| cell.set(scratch));
            warp_results
        });

        let mut metrics = LaunchMetrics {
            kernel,
            ..Default::default()
        };
        let mut payloads = Vec::with_capacity(outputs.len());
        for out in outputs {
            let Some((payload, stats, hit)) = out else {
                payloads.push(P::Payload::default());
                continue;
            };
            metrics.active_rays += 1;
            metrics.node_visits += stats.nodes_visited;
            metrics.prim_tests += stats.prim_tests;
            metrics.is_calls += stats.is_calls;
            metrics.terminated_rays += stats.terminated as u64;
            metrics.hit_rays += hit as u64;
            payloads.push(payload);
        }
        LaunchResult { payloads, metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtnn_bvh::BuildParams;
    use rtnn_math::{Ray, Vec3};

    /// The unoptimised RTNN range-search shader from Listing 1, specialised
    /// for tests: payload is the list of neighbor ids, capped at `k`.
    struct RangeProgram {
        queries: Vec<Vec3>,
        points: Vec<Vec3>,
        radius: f32,
        k: usize,
    }

    impl RayProgram for RangeProgram {
        type Payload = Vec<u32>;
        fn ray_gen(&self, launch_index: u32) -> Option<(Ray, Vec<u32>)> {
            self.queries
                .get(launch_index as usize)
                .map(|&q| (Ray::point_probe(q), Vec::new()))
        }
        fn intersection(
            &self,
            launch_index: u32,
            prim_id: u32,
            payload: &mut Vec<u32>,
        ) -> IsVerdict {
            let q = self.queries[launch_index as usize];
            let p = self.points[prim_id as usize];
            if q.distance_squared(p) < self.radius * self.radius {
                payload.push(prim_id);
                if payload.len() >= self.k {
                    IsVerdict::AcceptAndTerminate
                } else {
                    IsVerdict::Accept
                }
            } else {
                IsVerdict::Ignore
            }
        }
    }

    fn cloud() -> Vec<Vec3> {
        let mut pts = Vec::new();
        for x in 0..8 {
            for y in 0..8 {
                for z in 0..8 {
                    pts.push(Vec3::new(x as f32, y as f32, z as f32));
                }
            }
        }
        pts
    }

    fn brute_force_range(points: &[Vec3], q: Vec3, r: f32) -> Vec<u32> {
        let mut out: Vec<u32> = points
            .iter()
            .enumerate()
            .filter(|(_, &p)| q.distance_squared(p) < r * r)
            .map(|(i, _)| i as u32)
            .collect();
        out.sort();
        out
    }

    #[test]
    fn launch_produces_correct_neighbor_sets() {
        let device = Device::rtx_2080();
        let points = cloud();
        let radius = 1.1;
        let gas = Gas::build_from_points(&device, &points, radius, BuildParams::default()).unwrap();
        let queries: Vec<Vec3> = vec![
            Vec3::new(3.5, 3.5, 3.5),
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(7.2, 6.9, 7.1),
        ];
        let program = RangeProgram {
            queries: queries.clone(),
            points: points.clone(),
            radius,
            k: 1000,
        };
        let pipeline = Pipeline::new(&device);
        let result = pipeline.launch(&gas, queries.len(), &program, IsShaderKind::RangeSphereTest);
        for (qi, q) in queries.iter().enumerate() {
            let mut got = result.payloads[qi].clone();
            got.sort();
            assert_eq!(got, brute_force_range(&points, *q, radius), "query {qi}");
        }
        assert_eq!(result.metrics.active_rays, 3);
        assert!(result.metrics.is_calls >= result.metrics.hit_rays);
        assert!(result.metrics.time_ms() > 0.0);
    }

    #[test]
    fn termination_caps_the_neighbor_count() {
        let device = Device::rtx_2080();
        let points = cloud();
        let radius = 2.5;
        let gas = Gas::build_from_points(&device, &points, radius, BuildParams::default()).unwrap();
        let queries = vec![Vec3::new(4.0, 4.0, 4.0)];
        let program = RangeProgram {
            queries,
            points,
            radius,
            k: 5,
        };
        let result =
            Pipeline::new(&device).launch(&gas, 1, &program, IsShaderKind::RangeSphereTest);
        assert_eq!(result.payloads[0].len(), 5);
        assert_eq!(result.metrics.terminated_rays, 1);
    }

    #[test]
    fn masked_lanes_do_no_work() {
        let device = Device::rtx_2080();
        let points = cloud();
        let gas = Gas::build_from_points(&device, &points, 1.0, BuildParams::default()).unwrap();
        struct MaskedProgram;
        impl RayProgram for MaskedProgram {
            type Payload = u32;
            fn ray_gen(&self, _: u32) -> Option<(Ray, u32)> {
                None
            }
            fn intersection(&self, _: u32, _: u32, _: &mut u32) -> IsVerdict {
                IsVerdict::Ignore
            }
        }
        let result =
            Pipeline::new(&device).launch(&gas, 100, &MaskedProgram, IsShaderKind::RangeSphereTest);
        assert_eq!(result.metrics.active_rays, 0);
        assert_eq!(result.metrics.is_calls, 0);
        assert_eq!(result.metrics.node_visits, 0);
        assert_eq!(result.payloads.len(), 100);
    }

    #[test]
    fn miss_and_closest_hit_dispatch() {
        let device = Device::rtx_2080();
        let points = vec![Vec3::ZERO];
        let gas = Gas::build_from_points(&device, &points, 0.5, BuildParams::default()).unwrap();
        /// Payload records which terminal shader ran.
        struct TerminalProgram;
        impl RayProgram for TerminalProgram {
            type Payload = (bool, bool); // (closest_hit_ran, miss_ran)
            fn ray_gen(&self, launch_index: u32) -> Option<(Ray, (bool, bool))> {
                let q = if launch_index == 0 {
                    Vec3::ZERO
                } else {
                    Vec3::new(100.0, 0.0, 0.0)
                };
                Some((Ray::point_probe(q), (false, false)))
            }
            fn intersection(&self, _: u32, _: u32, _: &mut (bool, bool)) -> IsVerdict {
                IsVerdict::Accept
            }
            fn closest_hit(&self, _: u32, payload: &mut (bool, bool)) {
                payload.0 = true;
            }
            fn miss(&self, _: u32, payload: &mut (bool, bool)) {
                payload.1 = true;
            }
        }
        let result =
            Pipeline::new(&device).launch(&gas, 2, &TerminalProgram, IsShaderKind::RangeSphereTest);
        assert_eq!(result.payloads[0], (true, false));
        assert_eq!(result.payloads[1], (false, true));
        assert_eq!(result.metrics.hit_rays, 1);
    }

    #[test]
    fn coherent_launch_is_not_slower_than_scrambled_launch() {
        // The Figure 5 effect at pipeline level: same set of queries, same
        // total work, different launch-index order.
        let device = Device::rtx_2080();
        let points = cloud();
        let radius = 1.2;
        let gas = Gas::build_from_points(&device, &points, radius, BuildParams::default()).unwrap();
        // Queries on a fine grid, in raster order.
        let mut queries = Vec::new();
        for x in 0..16 {
            for y in 0..16 {
                for z in 0..4 {
                    queries.push(Vec3::new(x as f32 * 0.5, y as f32 * 0.5, z as f32 * 2.0));
                }
            }
        }
        let n = queries.len();
        let mut scrambled = queries.clone();
        // Deterministic scramble.
        for i in 0..n {
            let j = (i * 2654435761) % n;
            scrambled.swap(i, j);
        }
        let run = |qs: Vec<Vec3>| {
            let program = RangeProgram {
                queries: qs,
                points: points.clone(),
                radius,
                k: 1000,
            };
            Pipeline::new(&device)
                .launch(&gas, n, &program, IsShaderKind::RangeSphereTest)
                .metrics
        };
        let ordered = run(queries);
        let shuffled = run(scrambled);
        // Same total algorithmic work...
        assert_eq!(ordered.is_calls, shuffled.is_calls);
        // ...but the ordered launch is at least as fast and at least as
        // cache-friendly.
        assert!(ordered.kernel.time_ms <= shuffled.kernel.time_ms);
        assert!(ordered.kernel.simt_efficiency >= shuffled.kernel.simt_efficiency);
    }

    /// A range program whose IS shader, when `inner` is set, first runs a
    /// whole launch of another program against another structure and
    /// checks it against that launch run on its own: a shader re-entering
    /// `launch` from inside a warp.
    struct NestingProgram<'a> {
        outer: RangeProgram,
        inner: Option<(&'a Gas, &'a RangeProgram, &'a LaunchResult<Vec<u32>>)>,
        device: &'a Device,
    }

    impl RayProgram for NestingProgram<'_> {
        type Payload = Vec<u32>;
        fn ray_gen(&self, launch_index: u32) -> Option<(Ray, Vec<u32>)> {
            self.outer.ray_gen(launch_index)
        }
        fn intersection(
            &self,
            launch_index: u32,
            prim_id: u32,
            payload: &mut Vec<u32>,
        ) -> IsVerdict {
            if let Some((gas, program, alone)) = self.inner {
                let nested = Pipeline::new(self.device).launch(
                    gas,
                    program.queries.len(),
                    program,
                    IsShaderKind::RangeSphereTest,
                );
                assert_eq!(nested.metrics, alone.metrics);
                assert_eq!(nested.payloads, alone.payloads);
            }
            self.outer.intersection(launch_index, prim_id, payload)
        }
    }

    #[test]
    fn a_launch_from_inside_a_shader_leaves_the_outer_launch_unchanged() {
        let device = Device::rtx_2080();
        let points = cloud();
        let radius = 1.1;
        let gas = Gas::build_from_points(&device, &points, radius, BuildParams::default()).unwrap();
        // The inner structure is larger, so the nested launch needs more
        // footprint bits than the outer one.
        let inner_points: Vec<Vec3> = (0..1500)
            .map(|i| Vec3::new((i % 15) as f32, ((i / 15) % 10) as f32, (i / 150) as f32) * 0.7)
            .collect();
        let inner_gas =
            Gas::build_from_points(&device, &inner_points, 0.8, BuildParams::default()).unwrap();
        let inner = RangeProgram {
            queries: inner_points.iter().step_by(40).copied().collect(),
            points: inner_points.clone(),
            radius: 0.8,
            k: 1000,
        };
        let outer = || RangeProgram {
            queries: (0..70)
                .map(|i| Vec3::new((i % 7) as f32 * 1.1, (i / 7) as f32 * 0.7, 3.3))
                .collect(),
            points: points.clone(),
            radius,
            k: 1000,
        };
        for threads in [1, 2] {
            rtnn_parallel::with_thread_count(threads, || {
                let launch = |program: &NestingProgram| {
                    Pipeline::new(&device).launch(&gas, 70, program, IsShaderKind::RangeSphereTest)
                };
                let alone = Pipeline::new(&device).launch(
                    &inner_gas,
                    inner.queries.len(),
                    &inner,
                    IsShaderKind::RangeSphereTest,
                );
                let plain = launch(&NestingProgram {
                    outer: outer(),
                    inner: None,
                    device: &device,
                });
                let nesting = launch(&NestingProgram {
                    outer: outer(),
                    inner: Some((&inner_gas, &inner, &alone)),
                    device: &device,
                });
                assert!(plain.metrics.is_calls > 0);
                assert_eq!(nesting.metrics, plain.metrics, "{threads} threads");
                assert_eq!(nesting.payloads, plain.payloads, "{threads} threads");
            });
        }
    }
}
