//! Streaming DBSCAN: cluster maintenance across
//! [`DynamicIndex`] frames.
//!
//! A drifting scene (SPH settling, N-body orbits, LiDAR churn) changes
//! only a fraction of its points per frame, and an ε-neighborhood can only
//! change if one of its members moved, appeared, or vanished. The
//! maintainer exploits exactly that symmetry:
//!
//! * the ε-adjacency of every live point is cached in *stable handle*
//!   space across frames;
//! * per frame, every changed handle (moved / inserted / removed) is
//!   dropped from all cached lists, and fresh neighborhoods are queried
//!   **only** at the new positions of moved / inserted points — each hit
//!   `p` of such a point `m` regains `m` in its list (`p ∈ N(m) ⇔
//!   m ∈ N(p)`: the strict radius predicate is symmetric);
//! * the cheap host-side reduce (union-find + smallest-member labels) then
//!   reruns over the full cached adjacency.
//!
//! The spliced adjacency is *set-equal* to what querying every live point
//! from scratch would return, and the reduce is order-invariant, so the
//! per-frame labels are **bit-equal to from-scratch clustering** — the
//! saving is the fraction of points re-queried, which
//! [`FrameClustering::requeried`] reports and `fig_analytics` measures.
//!
//! [`DynamicIndex`]: rtnn_dynamic::DynamicIndex

use crate::dbscan::{cluster_adjacency, Clustering, Dbscan};
use rtnn::SearchError;
use rtnn_dynamic::DynamicIndex;
use rtnn_math::Vec3;
use rtnn_telemetry::Telemetry;

/// The stable handles a frame changed, after the mutations were applied to
/// the [`DynamicIndex`]. Handles listed in `removed` must already be
/// removed from the index; `moved` / `inserted` handles must be live.
#[derive(Debug, Clone, Default)]
pub struct FrameChange {
    /// Handles whose position changed this frame.
    pub moved: Vec<u32>,
    /// Handles inserted this frame.
    pub inserted: Vec<u32>,
    /// Handles removed this frame.
    pub removed: Vec<u32>,
}

/// One frame's clustering plus the incremental-work accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameClustering {
    /// The frame's clustering in stable-handle space: `labels[h]` is the
    /// cluster of handle `h` (`None` for noise and dead handles), labels
    /// canonicalized to the smallest member handle.
    pub clustering: Clustering,
    /// How many points were re-queried this frame (`== alive` for a full
    /// reclustering, typically far fewer for a relabel).
    pub requeried: usize,
    /// Number of live points this frame.
    pub alive: usize,
}

/// Incremental DBSCAN over a dynamic scene (see the module docs).
#[derive(Debug, Clone)]
pub struct StreamingDbscan {
    params: Dbscan,
    /// Cached ε-adjacency per handle (empty for dead handles).
    adjacency: Vec<Vec<u32>>,
    /// Live mask per handle, rebuilt from the frame view every update.
    alive: Vec<bool>,
    /// Handles that have been seeded at least once; a live handle that was
    /// never announced via `inserted` (e.g. the scene was populated before
    /// the first update) is auto-seeded so its cache entry exists.
    known: Vec<bool>,
}

impl StreamingDbscan {
    /// A maintainer with no cached state; the first
    /// [`relabel`](Self::relabel) seeds every live point.
    pub fn new(params: Dbscan) -> Self {
        StreamingDbscan {
            params,
            adjacency: Vec::new(),
            alive: Vec::new(),
            known: Vec::new(),
        }
    }

    /// The clustering parameters.
    pub fn params(&self) -> &Dbscan {
        &self.params
    }

    /// Incrementally relabel after `change` was applied to `index`:
    /// splice the cached adjacency and re-query only the affected points,
    /// then rerun the reduce. Bit-equal to [`recluster`](Self::recluster)
    /// on the same frame.
    pub fn relabel(
        &mut self,
        index: &mut DynamicIndex,
        change: &FrameChange,
    ) -> Result<FrameClustering, SearchError> {
        self.update(index, Some(change))
    }

    /// Recluster the frame from scratch (every live point re-queried); the
    /// cached adjacency is replaced wholesale. The streaming oracle — and
    /// the recovery path when a frame's change list is unavailable.
    pub fn recluster(&mut self, index: &mut DynamicIndex) -> Result<FrameClustering, SearchError> {
        self.update(index, None)
    }

    fn update(
        &mut self,
        index: &mut DynamicIndex,
        change: Option<&FrameChange>,
    ) -> Result<FrameClustering, SearchError> {
        let tel = Telemetry::current();
        let mut span = tel.as_ref().map(|t| {
            t.span(if change.is_some() {
                "analytics.dbscan.relabel"
            } else {
                "analytics.dbscan.recluster"
            })
        });

        let mut frame = index.as_index()?;
        let positions: Vec<Vec3> = frame.index.points().to_vec();
        let handles: Vec<u32> = frame.handles.to_vec();

        // Grow the handle space to cover this frame's ids.
        let max_handle = handles
            .iter()
            .chain(change.iter().flat_map(|c| {
                c.moved
                    .iter()
                    .chain(c.inserted.iter())
                    .chain(c.removed.iter())
            }))
            .copied()
            .max();
        let cap = self
            .adjacency
            .len()
            .max(max_handle.map_or(0, |m| m as usize + 1));
        self.adjacency.resize_with(cap, Vec::new);
        self.alive.resize(cap, false);
        self.known.resize(cap, false);

        // Live mask and handle → compact translation for this frame.
        self.alive.fill(false);
        let mut compact_of: Vec<u32> = vec![u32::MAX; cap];
        for (ci, &h) in handles.iter().enumerate() {
            self.alive[h as usize] = true;
            compact_of[h as usize] = ci as u32;
        }

        // Which handles to re-query, and which to drop from cached lists.
        let mut seed_mask = vec![false; cap];
        let mut changed = vec![false; cap];
        match change {
            Some(change) => {
                for &h in change.moved.iter().chain(&change.inserted) {
                    if self.alive[h as usize] {
                        seed_mask[h as usize] = true;
                    }
                    changed[h as usize] = true;
                }
                for &h in &change.removed {
                    changed[h as usize] = true;
                    self.adjacency[h as usize].clear();
                }
                // Auto-seed live points this maintainer has never queried.
                for &h in &handles {
                    if !self.known[h as usize] && !seed_mask[h as usize] {
                        seed_mask[h as usize] = true;
                        changed[h as usize] = true;
                    }
                }
            }
            None => {
                for &h in &handles {
                    seed_mask[h as usize] = true;
                    changed[h as usize] = true;
                }
                for (h, adj) in self.adjacency.iter_mut().enumerate() {
                    if !self.alive[h] {
                        adj.clear();
                    }
                }
            }
        }
        let seeds: Vec<u32> = (0..cap as u32).filter(|&h| seed_mask[h as usize]).collect();

        // Drop every changed handle from every cached list; the seed pass
        // below re-adds the ones still in range.
        for &h in &handles {
            self.adjacency[h as usize].retain(|&x| !changed[x as usize]);
        }

        // Fresh neighborhoods at the seed positions only (batched range
        // queries through the frame's Index view, compact ids translated
        // back to handles).
        let seed_positions: Vec<Vec3> = seeds
            .iter()
            .map(|&h| positions[compact_of[h as usize] as usize])
            .collect();
        let hit_lists = self
            .params
            .neighborhoods(&seed_positions, &mut frame.index)?;
        for (&m, hits) in seeds.iter().zip(&hit_lists) {
            self.adjacency[m as usize] = hits.iter().map(|&c| handles[c as usize]).collect();
        }
        // Symmetric splice: every non-seed hit of seed `m` regains `m`.
        for &m in &seeds {
            let neighbors = std::mem::take(&mut self.adjacency[m as usize]);
            for &p in &neighbors {
                if !seed_mask[p as usize] {
                    self.adjacency[p as usize].push(m);
                }
            }
            self.adjacency[m as usize] = neighbors;
        }
        for &h in &handles {
            self.known[h as usize] = true;
        }

        let clustering = cluster_adjacency(
            &self.adjacency,
            Some(self.alive.as_slice()),
            self.params.min_pts,
        );
        if let Some(t) = &tel {
            t.counter_add("analytics.dbscan.stream.frames", 1);
            t.counter_add("analytics.dbscan.stream.requeried", seeds.len() as u64);
        }
        if let Some(span) = span.as_mut() {
            span.attr("alive", handles.len() as f64)
                .attr("requeried", seeds.len() as f64)
                .attr("clusters", clustering.num_clusters as f64);
        }
        Ok(FrameClustering {
            clustering,
            requeried: seeds.len(),
            alive: handles.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtnn::{EngineConfig, SearchParams};
    use rtnn_gpusim::Device;

    fn params() -> SearchParams {
        SearchParams::range(0.9, 64)
    }

    /// Deterministic pseudo-random walk for a handful of points.
    fn jitter(step: u64, h: u32) -> Vec3 {
        let mix = |a: u64| {
            let x = a
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(0xD1B54A32D192ED03);
            ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let s = step.wrapping_mul(31).wrapping_add(h as u64);
        Vec3::new(mix(s), mix(s ^ 0xABCD), mix(s ^ 0x1234)) * 0.4
    }

    #[test]
    fn relabel_matches_recluster_across_moves_inserts_and_removes() {
        let device = Device::rtx_2080();
        let mut inc_index = DynamicIndex::new(&device, EngineConfig::default(), params());
        let mut full_index = DynamicIndex::new(&device, EngineConfig::default(), params());
        let params = Dbscan::new(0.9, 3);
        let mut inc = StreamingDbscan::new(params);
        let mut full = StreamingDbscan::new(params);

        // Seed frame: a grid of points.
        let mut handles = Vec::new();
        let mut inserted = Vec::new();
        for i in 0..30u32 {
            let p = Vec3::new((i % 6) as f32 * 0.7, (i / 6) as f32 * 0.7, 0.0);
            let h = inc_index.insert(p);
            assert_eq!(h, full_index.insert(p));
            handles.push(h);
            inserted.push(h);
        }
        let change = FrameChange {
            inserted,
            ..Default::default()
        };
        let a = inc.relabel(&mut inc_index, &change).unwrap();
        let b = full.recluster(&mut full_index).unwrap();
        assert_eq!(a.clustering, b.clustering);
        assert_eq!(a.requeried, a.alive, "first frame seeds everything");

        // Drift frames: move a rotating third, drop one, add one.
        for step in 1..6u64 {
            let mut change = FrameChange::default();
            for (i, &h) in handles.iter().enumerate() {
                if inc_index.position(h).is_none() {
                    continue;
                }
                if (i as u64 + step).is_multiple_of(3) {
                    let p = inc_index.position(h).unwrap() + jitter(step, h);
                    inc_index.move_point(h, p);
                    full_index.move_point(h, p);
                    change.moved.push(h);
                }
            }
            if let Some(&victim) = handles.get((step as usize * 7) % handles.len()) {
                if inc_index.position(victim).is_some() {
                    inc_index.remove(victim);
                    full_index.remove(victim);
                    change.removed.push(victim);
                }
            }
            let p = Vec3::new(step as f32 * 0.3, -0.5, 0.2);
            let h = inc_index.insert(p);
            assert_eq!(h, full_index.insert(p));
            handles.push(h);
            change.inserted.push(h);

            let a = inc.relabel(&mut inc_index, &change).unwrap();
            let b = full.recluster(&mut full_index).unwrap();
            assert_eq!(a.clustering, b.clustering, "step {step}");
            assert_eq!(a.alive, b.alive);
            assert!(
                a.requeried < a.alive,
                "step {step}: relabel must re-query a strict subset ({} of {})",
                a.requeried,
                a.alive
            );
        }
    }

    #[test]
    fn unannounced_points_are_auto_seeded() {
        let device = Device::rtx_2080();
        let mut index = DynamicIndex::new(&device, EngineConfig::default(), params());
        for i in 0..8 {
            index.insert(Vec3::new(i as f32 * 0.5, 0.0, 0.0));
        }
        // relabel with an empty change on a never-seen scene must still
        // produce correct labels (everything auto-seeded).
        let mut inc = StreamingDbscan::new(Dbscan::new(0.6, 2));
        let a = inc.relabel(&mut index, &FrameChange::default()).unwrap();
        assert_eq!(a.requeried, 8);
        let mut full = StreamingDbscan::new(Dbscan::new(0.6, 2));
        let b = full.recluster(&mut index).unwrap();
        assert_eq!(a.clustering, b.clustering);
        assert_eq!(a.clustering.num_clusters, 1);
    }
}
