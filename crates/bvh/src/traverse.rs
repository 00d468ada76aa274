//! Stack-based BVH traversal with OptiX intersection semantics.
//!
//! Traversal visits every node whose AABB intersects the ray (Conditions 1
//! and 2 of the paper); at leaves, each primitive AABB is tested against the
//! ray and, on a hit, the caller-supplied callback — the IS shader in OptiX
//! terms — is invoked with the primitive id. The callback can terminate the
//! ray (the AH shader's `optixTerminateRay`, used by RTNN when `K`
//! neighbors have been found).
//!
//! There is one traversal core, [`Bvh::traverse_with`]. Besides the hit
//! callback it takes a caller-owned stack, so a caller tracing many rays
//! allocates none per ray, and two visitors: one told every node index the
//! ray tests and one told every leaf slot it scans, in visit order. The GPU
//! simulator's visitors mark those ids into the warp's memory footprint as
//! the ray goes. [`Bvh::traverse`] is the core with its own stack and no
//! visitors: it counts work (node visits, primitive tests) for correctness
//! tests and CPU oracles.

use crate::node::{Bvh, NodeKind};
use rtnn_math::Ray;

/// Hit-callback verdict after a primitive hit (the IS/AH shader return).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraversalControl {
    /// Keep traversing.
    Continue,
    /// Terminate this ray immediately (AH shader termination).
    Terminate,
}

/// Per-ray work counters produced by a traversal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// BVH nodes whose AABB was tested against the ray (internal + leaf).
    pub nodes_visited: u64,
    /// Leaf nodes entered.
    pub leaves_visited: u64,
    /// Primitive AABBs tested against the ray inside leaves.
    pub prim_tests: u64,
    /// Primitive AABB tests that hit, i.e. IS shader invocations.
    pub is_calls: u64,
    /// Whether the hit callback terminated the ray early.
    pub terminated: bool,
}

impl TraversalStats {
    /// Accumulate another ray's stats into this one.
    pub fn merge(&mut self, other: &TraversalStats) {
        self.nodes_visited += other.nodes_visited;
        self.leaves_visited += other.leaves_visited;
        self.prim_tests += other.prim_tests;
        self.is_calls += other.is_calls;
        self.terminated |= other.terminated;
    }
}

impl Bvh {
    /// Traverse the BVH with `ray`, invoking `on_hit(prim_id)` for every
    /// primitive whose AABB the ray intersects. Returns work counters.
    pub fn traverse<F>(&self, ray: &Ray, on_hit: F) -> TraversalStats
    where
        F: FnMut(u32) -> TraversalControl,
    {
        self.traverse_with(ray, &mut Vec::with_capacity(64), |_| {}, |_| {}, on_hit)
    }

    /// The traversal core: as [`Bvh::traverse`], on the caller's `stack`
    /// (cleared first; its capacity is kept), calling `on_node` with every
    /// index into [`Bvh::nodes`] whose AABB the ray tests and `on_slot` with
    /// every leaf slot (index into [`Bvh::prim_indices`]) whose primitive it
    /// tests, in visit order.
    pub fn traverse_with<N, S, F>(
        &self,
        ray: &Ray,
        stack: &mut Vec<u32>,
        mut on_node: N,
        mut on_slot: S,
        mut on_hit: F,
    ) -> TraversalStats
    where
        N: FnMut(u32),
        S: FnMut(u32),
        F: FnMut(u32) -> TraversalControl,
    {
        let mut stats = TraversalStats::default();
        stack.clear();
        if self.nodes.is_empty() {
            return stats;
        }
        stack.push(0);
        'rays: while let Some(node_idx) = stack.pop() {
            let node = &self.nodes[node_idx as usize];
            stats.nodes_visited += 1;
            on_node(node_idx);
            if !node.aabb.intersects_ray(ray) {
                continue;
            }
            match node.kind {
                NodeKind::Internal { left, right } => {
                    stack.push(right);
                    stack.push(left);
                }
                NodeKind::Leaf { start, count } => {
                    stats.leaves_visited += 1;
                    for slot in start..start + count {
                        let prim_id = self.prim_indices[slot as usize];
                        stats.prim_tests += 1;
                        on_slot(slot);
                        if self.prim_aabbs[prim_id as usize].intersects_ray(ray) {
                            stats.is_calls += 1;
                            if on_hit(prim_id) == TraversalControl::Terminate {
                                stats.terminated = true;
                                break 'rays;
                            }
                        }
                    }
                }
            }
        }
        stats
    }

    /// Collect every primitive id whose AABB contains `query` (i.e. would
    /// trigger the IS shader for a point-probe ray from `query`). Reference
    /// helper used by tests and by the first-hit scheduling pass oracle.
    pub fn primitives_containing(&self, query: rtnn_math::Vec3) -> Vec<u32> {
        let mut out = Vec::new();
        self.traverse(&Ray::point_probe(query), |pid| {
            out.push(pid);
            TraversalControl::Continue
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_point_bvh, BuildParams};
    use rtnn_math::{Aabb, Vec3};

    fn sample_points() -> Vec<Vec3> {
        let mut pts = Vec::new();
        for x in 0..5 {
            for y in 0..5 {
                for z in 0..5 {
                    pts.push(Vec3::new(x as f32, y as f32, z as f32));
                }
            }
        }
        pts
    }

    #[test]
    fn empty_bvh_traversal_is_a_noop() {
        let bvh = Bvh::empty();
        let stats = bvh.traverse(&Ray::point_probe(Vec3::ZERO), |_| {
            TraversalControl::Continue
        });
        assert_eq!(stats, TraversalStats::default());
    }

    #[test]
    fn traversal_finds_exactly_the_enclosing_aabbs() {
        let points = sample_points();
        let radius = 0.9;
        let bvh = build_point_bvh(&points, radius, BuildParams::default());
        let query = Vec3::new(1.2, 2.1, 3.3);
        let mut hits = bvh.primitives_containing(query);
        hits.sort();
        // Brute-force expectation: points whose width-2r cube contains query.
        let mut expected: Vec<u32> = points
            .iter()
            .enumerate()
            .filter(|(_, &p)| Aabb::cube(p, 2.0 * radius).contains_point(query))
            .map(|(i, _)| i as u32)
            .collect();
        expected.sort();
        assert_eq!(hits, expected);
        assert!(!expected.is_empty());
    }

    #[test]
    fn early_termination_stops_the_ray() {
        let points = sample_points();
        let bvh = build_point_bvh(&points, 2.0, BuildParams::default());
        let query = Vec3::new(2.0, 2.0, 2.0);
        let mut count = 0;
        let stats = bvh.traverse(&Ray::point_probe(query), |_| {
            count += 1;
            if count == 3 {
                TraversalControl::Terminate
            } else {
                TraversalControl::Continue
            }
        });
        assert_eq!(count, 3);
        assert!(stats.terminated);
        assert_eq!(stats.is_calls, 3);
        // Without termination there are far more than 3 enclosing AABBs.
        assert!(bvh.primitives_containing(query).len() > 3);
    }

    #[test]
    fn stats_relationships_hold() {
        let points = sample_points();
        let bvh = build_point_bvh(&points, 0.7, BuildParams::default());
        let stats = bvh.traverse(&Ray::point_probe(Vec3::new(2.5, 2.5, 2.5)), |_| {
            TraversalControl::Continue
        });
        assert!(stats.nodes_visited >= stats.leaves_visited);
        assert!(stats.prim_tests >= stats.is_calls);
        assert!(!stats.terminated);
    }

    #[test]
    fn visitor_records_every_visited_node() {
        let points = sample_points();
        let bvh = build_point_bvh(&points, 0.7, BuildParams::default());
        let probe = Ray::point_probe(Vec3::new(2.5, 2.5, 2.5));
        let mut stack = Vec::new();
        let (mut nodes, mut slots) = (Vec::new(), Vec::new());
        let stats = bvh.traverse_with(
            &probe,
            &mut stack,
            |n| nodes.push(n),
            |s| slots.push(s),
            |_| TraversalControl::Continue,
        );
        assert_eq!(nodes.len() as u64, stats.nodes_visited);
        assert_eq!(slots.len() as u64, stats.prim_tests);
        assert_eq!(nodes[0], 0, "traversal starts at the root");
        // Observing the traversal does not change it.
        assert_eq!(stats, bvh.traverse(&probe, |_| TraversalControl::Continue));
        // A ray terminated at its first hit leaves unvisited siblings on the
        // stack; reusing that stack starts from the root regardless.
        let terminate = |_| TraversalControl::Terminate;
        bvh.traverse_with(&probe, &mut stack, |_| {}, |_| {}, terminate);
        assert!(!stack.is_empty());
        let mut nodes2 = Vec::new();
        let stats2 = bvh.traverse_with(
            &Ray::point_probe(Vec3::new(-10.0, 0.0, 0.0)),
            &mut stack,
            |n| nodes2.push(n),
            |_| {},
            |_| TraversalControl::Continue,
        );
        assert_eq!(nodes2.len() as u64, stats2.nodes_visited);
        assert_eq!(nodes2, [0]);
        assert_eq!(stats2.is_calls, 0);
    }

    #[test]
    fn far_away_query_visits_only_the_root() {
        let points = sample_points();
        let bvh = build_point_bvh(&points, 0.5, BuildParams::default());
        let stats = bvh.traverse(&Ray::point_probe(Vec3::new(1000.0, 1000.0, 1000.0)), |_| {
            TraversalControl::Continue
        });
        assert_eq!(stats.nodes_visited, 1);
        assert_eq!(stats.is_calls, 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = TraversalStats {
            nodes_visited: 1,
            leaves_visited: 1,
            prim_tests: 2,
            is_calls: 1,
            terminated: false,
        };
        let b = TraversalStats {
            nodes_visited: 3,
            leaves_visited: 1,
            prim_tests: 4,
            is_calls: 2,
            terminated: true,
        };
        a.merge(&b);
        assert_eq!(a.nodes_visited, 4);
        assert_eq!(a.prim_tests, 6);
        assert_eq!(a.is_calls, 3);
        assert!(a.terminated);
    }

    #[test]
    fn coherent_queries_share_traversal_paths() {
        // Two nearby queries touch mostly the same nodes; two distant queries
        // do not. This is the microscopic fact behind Observation 1.
        let points = sample_points();
        let bvh = build_point_bvh(&points, 0.9, BuildParams::default());
        let trace_of = |q: Vec3| {
            let mut nodes = std::collections::HashSet::new();
            let probe = Ray::point_probe(q);
            bvh.traverse_with(
                &probe,
                &mut Vec::new(),
                |n| {
                    nodes.insert(n);
                },
                |_| {},
                |_| TraversalControl::Continue,
            );
            nodes
        };
        let a = trace_of(Vec3::new(1.0, 1.0, 1.0));
        let b = trace_of(Vec3::new(1.1, 1.05, 0.95));
        let c = trace_of(Vec3::new(3.9, 3.9, 3.9));
        let overlap = |x: &std::collections::HashSet<u32>, y: &std::collections::HashSet<u32>| {
            x.intersection(y).count() as f64 / x.union(y).count().max(1) as f64
        };
        assert!(overlap(&a, &b) > overlap(&a, &c));
    }
}
