//! Friends-of-friends galaxy clustering on the N-body-like dataset — the
//! cosmology workload of the paper's evaluation (the Millennium-simulation
//! trace). Two galaxies belong to the same group if they are within a
//! linking length of each other; the groups are the connected components of
//! the fixed-radius neighbor graph, which RTNN computes.
//!
//! This version is a multi-frame simulation: the galaxies differentially
//! rotate (inner shells orbit faster) and the friends-of-friends catalog is
//! recomputed every frame on a persistent [`rtnn_dynamic::DynamicIndex`].
//! Frames that only move points refit the BVH in place; the cost-model
//! policy rebuilds once the shear has degraded the frozen topology enough
//! that a fresh build is predicted to pay for itself.
//!
//! Run with:
//! ```text
//! cargo run --release --example nbody_clustering
//! ```

use rtnn::{EngineConfig, QueryPlan, SearchParams};
use rtnn_data::dynamics::{DriftModel, DriftScene};
use rtnn_data::nbody::{self, NBodyParams};
use rtnn_dynamic::{DynamicIndex, StructureAction};
use rtnn_gpusim::Device;

/// Union-find with path compression.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }
    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }
    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra as usize] = rb;
        }
    }
}

fn main() {
    let cloud = nbody::generate(&NBodyParams {
        num_points: 30_000,
        ..Default::default()
    });
    println!(
        "N-body trace: {} galaxies in a {:.0} Mpc/h box",
        cloud.len(),
        500.0
    );

    // Linking length: a fraction of the mean inter-particle spacing.
    let box_volume = 500.0f32.powi(3);
    let mean_spacing = (box_volume / cloud.len() as f32).cbrt();
    let linking_length = 0.3 * mean_spacing;
    println!("mean spacing {mean_spacing:.2}, linking length {linking_length:.2}");

    let device = Device::rtx_2080();
    let params = SearchParams::range(linking_length, 64);
    let mut index =
        DynamicIndex::with_points(&device, EngineConfig::default(), params, &cloud.points);
    let mut scene = DriftScene::new(
        &cloud,
        DriftModel::NBodyOrbit { angular_step: 0.02 },
        0x5EED,
    );

    let frames = 6;
    let mut first_largest = 0usize;
    for frame in 0..frames {
        let points = scene.live_points();
        let result = index
            .search(&points)
            .expect("friends-of-friends neighbor search");

        // Connected components = friends-of-friends groups.
        let mut uf = UnionFind::new(points.len());
        for (i, neigh) in result.results.neighbors.iter().enumerate() {
            for &j in neigh {
                uf.union(i as u32, j);
            }
        }
        let mut group_sizes = std::collections::HashMap::new();
        for i in 0..points.len() as u32 {
            *group_sizes.entry(uf.find(i)).or_insert(0usize) += 1;
        }
        let mut sizes: Vec<usize> = group_sizes.values().copied().collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let groups_ge_5 = sizes.iter().filter(|&&s| s >= 5).count();
        let action = match result.action {
            StructureAction::Rebuilt => "rebuild",
            StructureAction::Refit => "refit",
            StructureAction::Reused => "reuse",
        };
        println!(
            "frame {frame}: {} groups ({groups_ge_5} with ≥5 members, largest {}), \
             {} edges, {action} (quality {:.3}), simulated {:.2} ms",
            sizes.len(),
            sizes[0],
            result.results.total_neighbors(),
            result.quality_ratio,
            result.results.total_time_ms(),
        );

        // A hierarchically clustered distribution must keep producing rich
        // groups and many isolated field galaxies, every frame — rigid-ish
        // rotation shears the cloud but does not destroy its clustering.
        assert!(sizes[0] >= 10, "expected at least one rich cluster");
        assert!(sizes.len() > 100, "expected many separate groups");
        if frame == 0 {
            first_largest = sizes[0];
        }

        // Advance the orbital shear and feed the motion to the index.
        let update = scene.step();
        for &slot in &update.moved {
            index.move_point(slot, scene.position(slot).unwrap());
        }
    }

    // After the last frame, answer a heterogeneous probe through the
    // per-frame Index view: a KNN plan at a different radius than the FoF
    // linking length, reusing the structures the streaming index maintains.
    let centres = scene.live_points();
    let probe_queries: Vec<_> = centres.iter().step_by(97).copied().collect();
    let mut view = index.as_index().expect("frame view");
    let knn = view
        .query(&probe_queries, &QueryPlan::knn(2.0 * mean_spacing, 8))
        .expect("density probe");
    drop(view);
    for (qi, q) in probe_queries.iter().enumerate() {
        for &h in &knn.neighbors[qi] {
            let p = index.position(h).expect("live handle");
            assert!(q.distance(p) < 2.0 * mean_spacing);
        }
    }
    println!(
        "density probe via Index view: {} links over {} probes at r = {:.2}",
        knn.total_neighbors(),
        probe_queries.len(),
        2.0 * mean_spacing
    );

    let m = index.frame_metrics();
    println!(
        "{} frames: {} rebuilds, {} refits; amortized {:.2} ms/frame (structure {:.3} ms/frame)",
        m.frames,
        m.rebuilds,
        m.refits,
        m.amortized_frame_ms(),
        m.amortized_structure_ms(),
    );
    assert!(
        m.rebuilds < m.frames,
        "orbital shear must not force a rebuild every frame"
    );
    assert!(first_largest >= 10);
    println!("friends-of-friends clustering finished ✓");
}
