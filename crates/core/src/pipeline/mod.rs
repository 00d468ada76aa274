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
//! [`PartitionStage`], [`LaunchStage`], [`GatherStage`]). A
//! [`StageOverrides`] passed to
//! [`Index::query_with`](crate::Index::query_with) is the one way to choose
//! stages: it replaces any of them for one call, and every slot left
//! `None` falls back to the full pipeline ([`CoherenceSchedule`],
//! [`MegacellPartition`]`{bundle: true}`, [`SearchLaunch`],
//! [`ScatterGather`]). An [`OptLevel`] is only the name of one of the
//! paper's four ladder presets, which [`StageOverrides::for_level`] pins:
//!
//! | `OptLevel` | Schedule | Partition |
//! |---|---|---|
//! | `NoOpt` | [`IdentitySchedule`] | [`SinglePartition`] |
//! | `Sched` | [`CoherenceSchedule`] | [`SinglePartition`] |
//! | `SchedPartition` | [`CoherenceSchedule`] | [`MegacellPartition`]`{bundle: false}` |
//! | `Full` | [`CoherenceSchedule`] | [`MegacellPartition`]`{bundle: true}` |
//!
//! so an ablation runs a rung with `query_with(q, plan,
//! StageOverrides::for_level(level))`, or toggles exactly one stage
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

use crate::backend::{AccelRef, Backend};
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

/// The name of one rung of the paper's Figure 13 ladder (the `Oracle`
/// variant is an exhaustive search over these rungs and lives in the bench
/// harness): the [`AutoTuner`](crate::AutoTuner)'s arm id and the figure
/// label. A rung selects nothing by itself; [`StageOverrides::for_level`]
/// turns it into the stages it names (see the module docs).
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
    /// The default, and what a call with no overrides runs.
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
}

/// Per-call stage replacements for one pipeline execution (see the module
/// docs). `None` slots fall back to the full pipeline.
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

/// `Debug` for the stage trait objects (prints the trait name), so
/// [`StageOverrides`] can derive it.
macro_rules! debug_by_trait_name {
    ($($stage:ident),*) => {$(
        impl std::fmt::Debug for dyn $stage + '_ {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(stringify!($stage))
            }
        }
    )*};
}
debug_by_trait_name!(ScheduleStage, PartitionStage, LaunchStage, GatherStage);

impl StageOverrides<'static> {
    /// No overrides: every stage is the full pipeline's.
    pub fn none() -> Self {
        StageOverrides::default()
    }

    /// Disable coherence reordering for this call (an
    /// [`IdentitySchedule`]), leaving every other stage at its default.
    pub fn without_reordering() -> Self {
        StageOverrides {
            schedule: Some(&IDENTITY_SCHEDULE),
            ..StageOverrides::default()
        }
    }

    /// Disable megacell partitioning (and with it bundling) for this call
    /// (a [`SinglePartition`]), leaving every other stage at its default.
    pub fn without_partitioning() -> Self {
        StageOverrides {
            partition: Some(&SINGLE_PARTITION),
            ..StageOverrides::default()
        }
    }

    /// The fully pinned override set of one ladder rung: all four slots
    /// filled with the stages the module-docs table names for `level`.
    /// This is the [`AutoTuner`](crate::AutoTuner)'s arm ladder and how a
    /// figure runs a rung; `for_level(OptLevel::Full)` runs exactly the
    /// stages an empty override set falls back to.
    pub fn for_level(level: OptLevel) -> Self {
        let (schedule, partition): (&dyn ScheduleStage, &dyn PartitionStage) = match level {
            OptLevel::NoOpt => (&IDENTITY_SCHEDULE, &SINGLE_PARTITION),
            OptLevel::Sched => (&COHERENCE_SCHEDULE, &SINGLE_PARTITION),
            OptLevel::SchedPartition => (&COHERENCE_SCHEDULE, &MEGACELL_UNBUNDLED),
            OptLevel::Full => (&COHERENCE_SCHEDULE, &MEGACELL_BUNDLED),
        };
        StageOverrides {
            schedule: Some(schedule),
            partition: Some(partition),
            launch: Some(&SEARCH_LAUNCH),
            gather: Some(&SCATTER_GATHER),
        }
    }
}

impl<'o> StageOverrides<'o> {
    /// True when no slot is overridden (every stage falls back to the full
    /// pipeline) — the condition under which an index holding a tuner is
    /// free to substitute its own decision.
    pub fn is_empty(&self) -> bool {
        self.schedule.is_none()
            && self.partition.is_none()
            && self.launch.is_none()
            && self.gather.is_none()
    }

    /// The `Schedule` stage this selection runs: the override, else
    /// [`CoherenceSchedule`].
    pub(crate) fn schedule_stage(&self) -> &'o dyn ScheduleStage {
        self.schedule.unwrap_or(&COHERENCE_SCHEDULE)
    }

    /// The `Partition` stage this selection runs: the override, else
    /// [`MegacellPartition`]`{bundle: true}`. Callers that keep megacell
    /// state across calls ask its [`PartitionStage::wants_grid`].
    pub fn partition_stage(&self) -> &'o dyn PartitionStage {
        self.partition.unwrap_or(&MEGACELL_BUNDLED)
    }
}

/// The reusable execution core: a backend, an engine configuration and a
/// set of stage selections. Constructed per call (it is two references and
/// four optional references); a plan's parameters are executed through it.
///
/// All public entry points — `Index::query`, the dynamic frames, the
/// sharded server — bottom out here.
pub struct ExecutionPipeline<'r> {
    pub(crate) backend: &'r dyn Backend,
    pub(crate) config: &'r EngineConfig,
    pub(crate) overrides: StageOverrides<'r>,
}

impl<'r> ExecutionPipeline<'r> {
    /// Get the structure for `width` (building and caching it on a miss)
    /// and bill the build plus `extra_ms` of caller-side maintenance to the
    /// `BVH` slot and the Launch stage — the metered `accel.ensure` every
    /// driver path runs. Returns the store id.
    pub(crate) fn ensure_metered(
        &self,
        store: &mut AccelStore<'_>,
        points: &[Vec3],
        width: f32,
        extra_ms: f64,
        breakdown: &mut TimeBreakdown,
        trace: &mut PipelineTrace,
    ) -> Result<usize, SearchError> {
        let tel = Telemetry::current();
        let host = Instant::now();
        let mut span = tel.as_ref().map(|t| t.span("accel.ensure"));
        let (id, built_ms) = store.ensure(self.backend, points, width, self.config.build)?;
        let device_ms = built_ms + extra_ms;
        breakdown.bvh_ms += device_ms;
        let host_ms = host_ms_since(host);
        trace.charge(StageKind::Launch, device_ms, host_ms);
        if let Some(span) = span.as_mut() {
            span.attr("device_ms", device_ms)
                .attr("primitives", points.len() as f64)
                .attr_wall("host_ms", host_ms);
        }
        Ok(id)
    }

    /// The metered `Schedule` stage over `ids`: every query of a single
    /// plan, or every query a batch covers (one shared pass).
    pub(crate) fn schedule_metered(
        &self,
        accel: Option<AccelRef<'_>>,
        points: &[Vec3],
        queries: &[Vec3],
        ids: &[u32],
        breakdown: &mut TimeBreakdown,
        trace: &mut PipelineTrace,
    ) -> QuerySchedule {
        let metered = meter_stage(trace, StageKind::Schedule, || {
            let schedule = self.overrides.schedule_stage().schedule(&ScheduleCx {
                backend: self.backend,
                accel,
                points,
                queries,
                query_ids: ids,
            });
            if self.overrides.schedule.is_some() {
                assert_schedule_covers(&schedule.order, ids, queries.len());
            }
            breakdown.fs_ms += schedule.fs_metrics.time_ms();
            breakdown.opt_ms += schedule.sort_metrics.time_ms;
            let device_ms = schedule.fs_metrics.time_ms() + schedule.sort_metrics.time_ms;
            Ok((schedule, device_ms, vec![("queries", ids.len() as f64)]))
        });
        metered.expect("scheduling is infallible")
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

        if queries.is_empty() || points.is_empty() {
            return Ok(empty_results(queries.len(), breakdown, trace));
        }
        let mut gathered = GatheredHits::empty(queries.len());

        // Global structure: traversed by the coherence pass and by every
        // full-width partition. Structure availability (builds plus any
        // caller-side maintenance) is billed to the Launch stage.
        let full_width = 2.0 * params.radius * self.config.approx.aabb_width_factor();
        let gid = self.ensure_metered(
            store,
            points,
            full_width,
            scene.structure_ms,
            &mut breakdown,
            &mut trace,
        )?;
        debug_assert_eq!(store.accel_ref(gid).num_primitives(), points.len());

        let ids: Vec<u32> = (0..queries.len() as u32).collect();
        let schedule = self.schedule_metered(
            Some(store.accel_ref(gid)),
            points,
            queries,
            &ids,
            &mut breakdown,
            &mut trace,
        );
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
        let parts = meter_stage(trace, StageKind::Partition, || {
            let parts = self.overrides.partition_stage().partition(PartitionCx {
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
            let device_ms = parts.opt_metrics.time_ms;
            let attrs = vec![
                ("partitions", parts.num_partitions as f64),
                ("bundles", parts.num_bundles as f64),
            ];
            Ok((parts, device_ms, attrs))
        })?;

        let launches = meter_stage(trace, StageKind::Launch, || {
            let bvh_before = breakdown.bvh_ms;
            let search_before = breakdown.search_ms;
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
            let launch = self.overrides.launch.unwrap_or(&SEARCH_LAUNCH);
            let launches = launch.launch(&mut cx, &parts)?;
            let device_ms = (breakdown.bvh_ms - bvh_before) + (breakdown.search_ms - search_before);
            Ok((launches, device_ms, Vec::new()))
        })?;

        meter_stage(trace, StageKind::Gather, || {
            let gather = self.overrides.gather.unwrap_or(&SCATTER_GATHER);
            gather.gather(&parts, launches, out);
            Ok(((), 0.0, Vec::new()))
        })?;

        Ok((parts.num_partitions, parts.num_bundles))
    }
}

/// Meter one stage call: time `run` on the host under the stage's span,
/// then charge the device ms it reports to `kind` on the trace, the stage
/// histogram and the span (`attrs` follow `device_ms`). A failed call is
/// not charged.
fn meter_stage<T>(
    trace: &mut PipelineTrace,
    kind: StageKind,
    run: impl FnOnce() -> Result<(T, f64, Vec<(&'static str, f64)>), SearchError>,
) -> Result<T, SearchError> {
    let tel = Telemetry::current();
    let host = Instant::now();
    let mut span = tel.as_ref().map(|t| t.span(kind.span_name()));
    let (out, device_ms, attrs) = run()?;
    let host_ms = host_ms_since(host);
    trace.charge(kind, device_ms, host_ms);
    if let Some(t) = &tel {
        t.observe(kind.device_histogram(), device_ms);
    }
    if let Some(span) = span.as_mut() {
        span.attr("device_ms", device_ms);
        for (key, value) in attrs {
            span.attr(key, value);
        }
        span.attr("invocations", 1.0).attr_wall("host_ms", host_ms);
    }
    Ok(out)
}

/// The results of a call that launched nothing: empty neighbor lists for
/// `num_queries` queries, with whatever driver setup was already billed.
pub(crate) fn empty_results(
    num_queries: usize,
    breakdown: TimeBreakdown,
    trace: PipelineTrace,
) -> SearchResults {
    SearchResults {
        neighbors: vec![Vec::new(); num_queries],
        breakdown,
        trace,
        ..SearchResults::default()
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
