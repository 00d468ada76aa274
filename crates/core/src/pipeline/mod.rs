//! The staged execution pipeline: `Partition` → `Schedule` → `Launch` →
//! `Gather` as explicit, individually swappable and metered stages.
//!
//! Historically the three techniques the paper composes — coherence-driven
//! query reordering (Section 4), megacell partitioning (Section 5.1) and
//! cost-model bundling (Section 5.2) — were interleaved inline inside
//! `Index::query`. This module lifts them into one reusable core:
//!
//! ```text
//!            ┌───────────┐   ┌───────────┐   ┌──────────┐   ┌──────────┐
//!  queries ─▶│ Schedule  │──▶│ Partition │──▶│  Launch  │──▶│  Gather  │─▶ results
//!            │ (FS pass +│   │ (megacell │   │ (per-    │   │ (scatter │
//!            │  Morton   │   │  kernel + │   │ partition│   │  payloads│
//!            │  sort)    │   │  bundling)│   │  BVH +   │   │  by query│
//!            └───────────┘   └───────────┘   │ traverse)│   │  id)     │
//!                IR: QuerySchedule   │       └──────────┘   └──────────┘
//!                          IR: PartitionedQueries   IR: LaunchSet   IR: GatheredHits
//! ```
//!
//! Note the *driver order*: the coherence schedule runs before the
//! partition kernel, exactly as in the paper's implementation — the
//! megacell kernel is launched over the *scheduled* query order, so its
//! warp-level simulated cost (and the within-partition launch order) are
//! identical to the historical monolith. The stage list is still the
//! paper's component order `Partition → Schedule → Launch → Gather` when
//! read as "what exists": partitions are a property of the query set, the
//! schedule a property of the launch.
//!
//! Every caller executes through this one entry point:
//!
//! * [`Index::query`](crate::Index::query) (and the heterogeneous batch
//!   path, which runs one shared `Schedule` pass and then the per-slice
//!   stages);
//! * `rtnn-dynamic`'s `DynamicIndex` frames (through `Index::adopt`);
//! * `rtnn-serve`'s `ShardedIndex` (the pipeline per shard, then the shared
//!   [`ShardMerge`](crate::ShardMerge) gather).
//!
//! ## Swapping stages
//!
//! Each stage sits behind a small trait ([`ScheduleStage`],
//! [`PartitionStage`], [`LaunchStage`], [`GatherStage`]); a
//! [`StageOverrides`] passed to
//! [`Index::query_with`](crate::Index::query_with) replaces any of them for
//! one call. This subsumes the [`OptLevel`] plumbing — the
//! levels are just preset stage selections:
//!
//! | `OptLevel` | Schedule | Partition |
//! |---|---|---|
//! | `NoOpt` | [`IdentitySchedule`] | [`SinglePartition`] |
//! | `Sched` | [`CoherenceSchedule`] | [`SinglePartition`] |
//! | `SchedPartition` | [`CoherenceSchedule`] | [`MegacellPartition`]`{bundle: false}` |
//! | `Full` | [`CoherenceSchedule`] | [`MegacellPartition`]`{bundle: true}` |
//!
//! so an ablation can toggle exactly one stage
//! ([`StageOverrides::without_reordering`],
//! [`StageOverrides::without_partitioning`]) without touching the others.
//!
//! ## Metering
//!
//! The driver wraps every stage call in a [`StageTiming`] meter; the
//! roll-up ([`PipelineTrace`], carried on every [`SearchResults`] as its
//! `trace` field) accounts every simulated millisecond outside host↔device
//! transfers to exactly one stage — see [`timing`] for the invariant the
//! tests pin.

pub mod ir;
pub mod stages;
pub mod timing;

pub use ir::{GatheredHits, LaunchRecord, LaunchSet, PartitionedQueries, QuerySchedule};
pub use stages::{
    CoherenceSchedule, GatherStage, IdentitySchedule, LaunchCx, LaunchStage, MegacellPartition,
    PartitionCx, PartitionStage, ScatterGather, ScheduleCx, ScheduleStage, SearchLaunch,
    SinglePartition,
};
pub use timing::{PipelineTrace, StageKind, StageTiming};

use crate::backend::Backend;
use crate::index::{AccelStore, EngineConfig, SceneRefs};
use crate::megacell::MegacellGrid;
use crate::partition::MegacellCache;
use crate::plan::SearchError;
use crate::result::{SearchParams, SearchResults, TimeBreakdown};
use rtnn_gpusim::kernel::point_cloud_bytes;
use rtnn_math::{Aabb, Vec3};
use rtnn_optix::LaunchMetrics;
use rtnn_telemetry::Telemetry;
use std::time::Instant;

static COHERENCE_SCHEDULE: CoherenceSchedule = CoherenceSchedule;
static IDENTITY_SCHEDULE: IdentitySchedule = IdentitySchedule;
static MEGACELL_BUNDLED: MegacellPartition = MegacellPartition { bundle: true };
static MEGACELL_UNBUNDLED: MegacellPartition = MegacellPartition { bundle: false };
static SINGLE_PARTITION: SinglePartition = SinglePartition;
static SEARCH_LAUNCH: SearchLaunch = SearchLaunch;
static SCATTER_GATHER: ScatterGather = ScatterGather;

/// Which of the paper's optimisations are enabled — the five configurations
/// compared in Figure 13 (the `Oracle` variant is an exhaustive search over
/// these configurations and lives in the bench harness). Each level is a
/// preset stage selection (see the module docs and
/// [`StageOverrides::for_level`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum OptLevel {
    /// The basic mapping only (Section 3.1); equivalent to the FastRNN
    /// baseline for KNN.
    NoOpt,
    /// Plus spatially-ordered query scheduling (Section 4).
    Sched,
    /// Plus query partitioning with one BVH per partition (Section 5.1).
    SchedPartition,
    /// Plus partition bundling with the analytical cost model (Section 5.2).
    /// The default.
    #[default]
    Full,
}

impl OptLevel {
    /// All levels in ascending order (used by the ablation bench).
    pub fn all() -> [OptLevel; 4] {
        [
            OptLevel::NoOpt,
            OptLevel::Sched,
            OptLevel::SchedPartition,
            OptLevel::Full,
        ]
    }

    /// Label used in figures and reports.
    pub fn label(&self) -> &'static str {
        match self {
            OptLevel::NoOpt => "NoOpt",
            OptLevel::Sched => "Sched.",
            OptLevel::SchedPartition => "Sched.+Partition",
            OptLevel::Full => "Sched.+Partition+Bundle",
        }
    }

    pub(crate) fn scheduling(&self) -> bool {
        *self >= OptLevel::Sched
    }

    pub(crate) fn partitioning(&self) -> bool {
        *self >= OptLevel::SchedPartition
    }

    pub(crate) fn bundling(&self) -> bool {
        *self >= OptLevel::Full
    }
}

/// Per-call stage replacements for one pipeline execution (see the module
/// docs). `None` slots fall back to the defaults the engine's
/// [`OptLevel`] selects.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageOverrides<'o> {
    /// Replace the `Schedule` stage.
    pub schedule: Option<&'o dyn ScheduleStage>,
    /// Replace the `Partition` stage.
    pub partition: Option<&'o dyn PartitionStage>,
    /// Replace the `Launch` stage.
    pub launch: Option<&'o dyn LaunchStage>,
    /// Replace the `Gather` stage.
    pub gather: Option<&'o dyn GatherStage>,
}

impl std::fmt::Debug for dyn ScheduleStage + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ScheduleStage")
    }
}
impl std::fmt::Debug for dyn PartitionStage + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PartitionStage")
    }
}
impl std::fmt::Debug for dyn LaunchStage + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("LaunchStage")
    }
}
impl std::fmt::Debug for dyn GatherStage + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("GatherStage")
    }
}

impl StageOverrides<'static> {
    /// No overrides: the engine's optimisation level picks every stage.
    pub fn none() -> Self {
        StageOverrides::default()
    }

    /// Disable coherence reordering for this call (an [`IdentitySchedule`]
    /// regardless of the optimisation level), leaving every other stage at
    /// its default.
    pub fn without_reordering() -> Self {
        StageOverrides {
            schedule: Some(&IDENTITY_SCHEDULE),
            ..StageOverrides::default()
        }
    }

    /// Disable megacell partitioning (and with it bundling) for this call
    /// (a [`SinglePartition`] regardless of the optimisation level),
    /// leaving every other stage at its default.
    pub fn without_partitioning() -> Self {
        StageOverrides {
            partition: Some(&SINGLE_PARTITION),
            ..StageOverrides::default()
        }
    }

    /// The fully pinned override set equivalent to a static [`OptLevel`]:
    /// all four slots filled with exactly the stages that level resolves
    /// to, so the call's behaviour no longer depends on the engine's
    /// configured level. This is the [`AutoTuner`](crate::AutoTuner)'s arm
    /// ladder — results are bit-equal to running an engine configured at
    /// `level`, because the same stage objects execute.
    pub fn for_level(level: OptLevel) -> Self {
        StageOverrides {
            schedule: Some(if level.scheduling() {
                &COHERENCE_SCHEDULE
            } else {
                &IDENTITY_SCHEDULE
            }),
            partition: Some(if level.partitioning() {
                if level.bundling() {
                    &MEGACELL_BUNDLED
                } else {
                    &MEGACELL_UNBUNDLED
                }
            } else {
                &SINGLE_PARTITION
            }),
            launch: Some(&SEARCH_LAUNCH),
            gather: Some(&SCATTER_GATHER),
        }
    }
}

impl StageOverrides<'_> {
    /// True when no slot is overridden (every stage falls back to the
    /// engine's optimisation level) — the condition under which an
    /// auto-tuning index is free to substitute its own decision.
    pub fn is_empty(&self) -> bool {
        self.schedule.is_none()
            && self.partition.is_none()
            && self.launch.is_none()
            && self.gather.is_none()
    }
}

/// The reusable execution core: a backend, an engine configuration and a
/// set of stage selections. Constructed per call (it is two references and
/// four optional references); a plan's parameters are executed through it.
///
/// All public entry points — `Index::query`, the dynamic frames, the
/// sharded server — bottom out here.
pub struct ExecutionPipeline<'r> {
    backend: &'r dyn Backend,
    config: &'r EngineConfig,
    overrides: StageOverrides<'r>,
}

impl<'r> ExecutionPipeline<'r> {
    /// A pipeline with per-call stage replacements.
    pub(crate) fn with_overrides(
        backend: &'r dyn Backend,
        config: &'r EngineConfig,
        overrides: StageOverrides<'r>,
    ) -> Self {
        ExecutionPipeline {
            backend,
            config,
            overrides,
        }
    }

    /// The `Schedule` stage this execution uses: the override, else the
    /// level's default.
    pub(crate) fn schedule_stage(&self) -> &'r dyn ScheduleStage {
        self.overrides
            .schedule
            .unwrap_or(if self.config.opt.scheduling() {
                &COHERENCE_SCHEDULE
            } else {
                &IDENTITY_SCHEDULE
            })
    }

    /// The `Partition` stage this execution uses: the override, else the
    /// level's default. Exposed so the driver paths can provision the
    /// megacell grid exactly when the resolved stage wants it.
    pub(crate) fn partition_stage(&self) -> &'r dyn PartitionStage {
        self.overrides
            .partition
            .unwrap_or(if self.config.opt.partitioning() {
                if self.config.opt.bundling() {
                    &MEGACELL_BUNDLED
                } else {
                    &MEGACELL_UNBUNDLED
                }
            } else {
                &SINGLE_PARTITION
            })
    }

    fn launch_stage(&self) -> &'r dyn LaunchStage {
        self.overrides.launch.unwrap_or(&SEARCH_LAUNCH)
    }

    fn gather_stage(&self) -> &'r dyn GatherStage {
        self.overrides.gather.unwrap_or(&SCATTER_GATHER)
    }

    /// Execute one single-plan search end to end: driver setup (transfer
    /// accounting, global structure), then `Schedule` →
    /// [`execute_ordered`](Self::execute_ordered). Bit-equal to the
    /// historical monolithic `Index::query` for every optimisation level.
    pub(crate) fn execute(
        &self,
        params: SearchParams,
        points: &[Vec3],
        queries: &[Vec3],
        store: &mut AccelStore<'_>,
        scene: SceneRefs<'_>,
    ) -> Result<SearchResults, SearchError> {
        params.validate()?;
        self.config.validate()?;
        let device = self.backend.device();

        let mut breakdown = TimeBreakdown::default();
        let mut search_metrics = LaunchMetrics::default();
        let mut trace = PipelineTrace::default();

        // Driver setup (not a stage): data transfer — points + queries in,
        // result ids out.
        let footprint = point_cloud_bytes(points.len(), queries.len(), params.k);
        device.check_allocation(footprint)?;
        breakdown.data_ms = device.transfer_h2d_ms((points.len() + queries.len()) as u64 * 12)
            + device.transfer_d2h_ms(queries.len() as u64 * params.k as u64 * 4);

        if queries.is_empty() {
            return Ok(SearchResults {
                neighbors: Vec::new(),
                breakdown,
                search_metrics,
                fs_metrics: LaunchMetrics::default(),
                num_partitions: 0,
                num_bundles: 0,
                trace,
            });
        }
        let mut gathered = GatheredHits::empty(queries.len());
        if points.is_empty() {
            return Ok(SearchResults {
                neighbors: gathered.neighbors,
                breakdown,
                search_metrics,
                fs_metrics: LaunchMetrics::default(),
                num_partitions: 0,
                num_bundles: 0,
                trace,
            });
        }

        let tel = Telemetry::current();

        // Global structure: traversed by the coherence pass and by every
        // full-width partition. Structure availability (builds plus any
        // caller-side maintenance) is billed to the Launch stage.
        let host = Instant::now();
        let mut ensure_span = tel.as_ref().map(|t| t.span("accel.ensure"));
        let full_width = 2.0 * params.radius * self.config.approx.aabb_width_factor();
        let (gid, built_ms) = store.ensure(self.backend, points, full_width, self.config.build)?;
        debug_assert_eq!(store.accel_ref(gid).num_primitives(), points.len());
        breakdown.bvh_ms += built_ms + scene.structure_ms;
        let structure_device_ms = built_ms + scene.structure_ms;
        let structure_host_ms = host_ms_since(host);
        trace.charge(StageKind::Launch, structure_device_ms, structure_host_ms);
        if let Some(span) = ensure_span.as_mut() {
            span.attr("device_ms", structure_device_ms)
                .attr("primitives", points.len() as f64)
                .attr_wall("host_ms", structure_host_ms);
        }
        drop(ensure_span);

        // Schedule stage.
        let host = Instant::now();
        let mut stage_span = tel
            .as_ref()
            .map(|t| t.span(StageKind::Schedule.span_name()));
        let ids: Vec<u32> = (0..queries.len() as u32).collect();
        let schedule = self.schedule_stage().schedule(&ScheduleCx {
            backend: self.backend,
            accel: Some(store.accel_ref(gid)),
            points,
            queries,
            query_ids: &ids,
        });
        if self.overrides.schedule.is_some() {
            assert_schedule_covers(&schedule.order, &ids, queries.len());
        }
        breakdown.fs_ms += schedule.fs_metrics.time_ms();
        breakdown.opt_ms += schedule.sort_metrics.time_ms;
        let schedule_device_ms = schedule.fs_metrics.time_ms() + schedule.sort_metrics.time_ms;
        let schedule_host_ms = host_ms_since(host);
        trace.charge(StageKind::Schedule, schedule_device_ms, schedule_host_ms);
        if let Some(t) = &tel {
            t.observe(StageKind::Schedule.device_histogram(), schedule_device_ms);
        }
        if let Some(span) = stage_span.as_mut() {
            span.attr("device_ms", schedule_device_ms)
                .attr("queries", queries.len() as f64)
                .attr("invocations", 1.0)
                .attr_wall("host_ms", schedule_host_ms);
        }
        drop(stage_span);
        let fs_metrics = schedule.fs_metrics.clone();

        let (num_partitions, num_bundles) = self.execute_ordered(
            params,
            points,
            queries,
            &schedule.order,
            store,
            gid,
            scene.grid,
            &scene.dirty_region,
            scene.cache,
            &mut gathered,
            &mut breakdown,
            &mut search_metrics,
            &mut trace,
        )?;

        Ok(SearchResults {
            neighbors: gathered.neighbors,
            breakdown,
            search_metrics,
            fs_metrics,
            num_partitions,
            num_bundles,
            trace,
        })
    }

    /// Run the `Partition` → `Launch` → `Gather` stages for one already
    /// scheduled query order (one plan, or one slice of a batch that shared
    /// its `Schedule` pass). Returns `(num_partitions, num_bundles)`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn execute_ordered(
        &self,
        params: SearchParams,
        points: &[Vec3],
        queries: &[Vec3],
        order: &[u32],
        store: &mut AccelStore<'_>,
        global: usize,
        grid: Option<&MegacellGrid>,
        dirty_region: &Aabb,
        cache: Option<&mut MegacellCache>,
        out: &mut GatheredHits,
        breakdown: &mut TimeBreakdown,
        search_metrics: &mut LaunchMetrics,
        trace: &mut PipelineTrace,
    ) -> Result<(usize, usize), SearchError> {
        let tel = Telemetry::current();

        // Partition stage.
        let host = Instant::now();
        let mut stage_span = tel
            .as_ref()
            .map(|t| t.span(StageKind::Partition.span_name()));
        let parts = self.partition_stage().partition(PartitionCx {
            backend: self.backend,
            config: self.config,
            params,
            points,
            queries,
            order,
            grid,
            dirty_region,
            cache,
        });
        breakdown.opt_ms += parts.opt_metrics.time_ms;
        let partition_device_ms = parts.opt_metrics.time_ms;
        let partition_host_ms = host_ms_since(host);
        trace.charge(StageKind::Partition, partition_device_ms, partition_host_ms);
        if let Some(t) = &tel {
            t.observe(StageKind::Partition.device_histogram(), partition_device_ms);
        }
        if let Some(span) = stage_span.as_mut() {
            span.attr("device_ms", partition_device_ms)
                .attr("partitions", parts.num_partitions as f64)
                .attr("bundles", parts.num_bundles as f64)
                .attr("invocations", 1.0)
                .attr_wall("host_ms", partition_host_ms);
        }
        drop(stage_span);

        // Launch stage.
        let host = Instant::now();
        let mut stage_span = tel.as_ref().map(|t| t.span(StageKind::Launch.span_name()));
        let bvh_before = breakdown.bvh_ms;
        let search_before = breakdown.search_ms;
        let launches = {
            let mut cx = LaunchCx {
                backend: self.backend,
                config: self.config,
                params,
                points,
                queries,
                store,
                global,
                breakdown,
                search_metrics,
            };
            self.launch_stage().launch(&mut cx, &parts)?
        };
        let launch_device_ms =
            (breakdown.bvh_ms - bvh_before) + (breakdown.search_ms - search_before);
        let launch_host_ms = host_ms_since(host);
        trace.charge(StageKind::Launch, launch_device_ms, launch_host_ms);
        if let Some(t) = &tel {
            t.observe(StageKind::Launch.device_histogram(), launch_device_ms);
        }
        if let Some(span) = stage_span.as_mut() {
            span.attr("device_ms", launch_device_ms)
                .attr("invocations", 1.0)
                .attr_wall("host_ms", launch_host_ms);
        }
        drop(stage_span);

        // Gather stage.
        let host = Instant::now();
        let mut stage_span = tel.as_ref().map(|t| t.span(StageKind::Gather.span_name()));
        self.gather_stage().gather(&parts, launches, out);
        let gather_host_ms = host_ms_since(host);
        trace.charge(StageKind::Gather, 0.0, gather_host_ms);
        if let Some(t) = &tel {
            t.observe(StageKind::Gather.device_histogram(), 0.0);
        }
        if let Some(span) = stage_span.as_mut() {
            span.attr("device_ms", 0.0)
                .attr("invocations", 1.0)
                .attr_wall("host_ms", gather_host_ms);
        }
        drop(stage_span);

        Ok((parts.num_partitions, parts.num_bundles))
    }
}

/// Host wall-clock milliseconds since `start` (stage-meter helper).
pub(crate) fn host_ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Enforce the [`ScheduleStage`] output contract for *overriding* stages:
/// the returned order must be a permutation of the launched ids. The
/// provided stages satisfy this by construction; a custom stage that drops,
/// duplicates or invents ids gets a contract-naming panic here instead of
/// an opaque index error (or silently empty results) downstream.
pub(crate) fn assert_schedule_covers(order: &[u32], launched: &[u32], num_queries: usize) {
    assert_eq!(
        order.len(),
        launched.len(),
        "ScheduleStage contract violation: the schedule must order exactly the launched \
         queries (returned {}, launched {})",
        order.len(),
        launched.len()
    );
    let mut expected = vec![false; num_queries];
    for &q in launched {
        expected[q as usize] = true;
    }
    let mut seen = vec![false; num_queries];
    for &q in order {
        assert!(
            (q as usize) < num_queries && expected[q as usize],
            "ScheduleStage contract violation: the schedule order contains query id {q}, \
             which is not in the launched set"
        );
        assert!(
            !seen[q as usize],
            "ScheduleStage contract violation: query id {q} appears twice in the schedule order"
        );
        seen[q as usize] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::assert_schedule_covers;

    #[test]
    fn permutations_of_the_launched_set_pass() {
        assert_schedule_covers(&[2, 0, 1], &[0, 1, 2], 3);
        assert_schedule_covers(&[5, 1], &[1, 5], 8);
        assert_schedule_covers(&[], &[], 0);
    }

    #[test]
    #[should_panic(expected = "ScheduleStage contract violation")]
    fn dropped_ids_are_rejected() {
        assert_schedule_covers(&[0, 1], &[0, 1, 2], 3);
    }

    #[test]
    #[should_panic(expected = "not in the launched set")]
    fn invented_ids_are_rejected() {
        assert_schedule_covers(&[0, 7, 2], &[0, 1, 2], 3);
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn duplicated_ids_are_rejected() {
        assert_schedule_covers(&[0, 1, 1], &[0, 1, 2], 3);
    }
}
