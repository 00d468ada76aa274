//! The persistent [`Index`]: build the scene-side state once, answer many
//! typed [`QueryPlan`]s against it.
//!
//! Scene-side state and per-query parameters are split, so a new radius
//! or K never means a new engine or a redundant structure rebuild:
//!
//! * [`Index`] — built once from points (or adopted from a streaming
//!   `DynamicIndex`), owning the acceleration structures (one per AABB
//!   width, built lazily and cached), the megacell grid and the per-query
//!   caches;
//! * [`QueryPlan`] — passed per call to [`Index::query`], validated at
//!   query time with typed [`PlanError`]s.
//!
//! Engine-wide settings that are *not* per-query (KNN AABB rule,
//! approximation mode, grid budget, BVH build knobs) live in
//! [`EngineConfig`]. Which pipeline stages run is chosen per call with
//! [`StageOverrides`] ([`Index::query_with`]), or per call by an
//! [`AutoTuner`] the index holds ([`Index::enable_auto`]).
//!
//! ```
//! use rtnn::{EngineConfig, GpusimBackend, Index, QueryPlan};
//! use rtnn_gpusim::Device;
//! use rtnn_math::Vec3;
//!
//! let device = Device::rtx_2080();
//! let backend = GpusimBackend::new(&device);
//! let points: Vec<Vec3> = (0..1000)
//!     .map(|i| Vec3::new((i % 10) as f32, ((i / 10) % 10) as f32, (i / 100) as f32))
//!     .collect();
//!
//! let mut index = Index::build(&backend, &points[..], EngineConfig::default());
//! let knn = index.query(&points, &QueryPlan::knn(1.5, 8)).unwrap();
//! let rng = index.query(&points, &QueryPlan::range(0.9, 32)).unwrap();
//! assert_eq!(knn.neighbors.len(), points.len());
//! assert_eq!(rng.neighbors.len(), points.len());
//! // The second query reused the index's cached grid; only structures for
//! // new AABB widths were built.
//! assert!(index.cached_structures() >= 1);
//! ```

use crate::approx::ApproxMode;
use crate::autotune::{AutoTuner, TunerDecision};
use crate::backend::{Accel, AccelRef, Backend};
use crate::cost_model::CostCoefficients;
use crate::megacell::MegacellGrid;
use crate::partition::{KnnAabbRule, MegacellCache};
use crate::pipeline::{
    empty_results, host_ms_since, ExecutionPipeline, GatheredHits, OptLevel, PipelineTrace,
    StageKind, StageOverrides,
};
use crate::plan::{validate_queries, PlanError, QueryPlan, SearchError};
use crate::result::{SearchParams, SearchResults, TimeBreakdown};
use rtnn_bvh::BuildParams;
use rtnn_gpusim::kernel::point_cloud_bytes;
use rtnn_math::{Aabb, Vec3};
use rtnn_optix::LaunchMetrics;
use rtnn_parallel::par_map_collect;
use rtnn_telemetry::{ProfileSample, Telemetry};
use std::borrow::Cow;
use std::time::Instant;

/// Engine-wide settings, shared by every plan an [`Index`] serves.
/// Per-query parameters (radius, K, variant) live in the [`QueryPlan`], and
/// the pipeline stages in the per-call [`StageOverrides`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// BVH builder configuration.
    pub build: BuildParams,
    /// How KNN partition AABB widths are derived (default: guaranteed-exact).
    pub knn_rule: KnnAabbRule,
    /// Approximation mode (default: exact).
    pub approx: ApproxMode,
    /// Grid-resolution budget for the megacell pass (stands in for the GPU
    /// memory cap the paper mentions). Must be at least 1.
    pub grid_max_cells: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            build: BuildParams::default(),
            knn_rule: KnnAabbRule::default(),
            approx: ApproxMode::default(),
            grid_max_cells: 1 << 21,
        }
    }
}

impl EngineConfig {
    /// Set the BVH build parameters.
    pub fn with_build(mut self, build: BuildParams) -> Self {
        self.build = build;
        self
    }

    /// Set the KNN AABB rule.
    pub fn with_knn_rule(mut self, rule: KnnAabbRule) -> Self {
        self.knn_rule = rule;
        self
    }

    /// Set the approximation mode.
    pub fn with_approx(mut self, approx: ApproxMode) -> Self {
        self.approx = approx;
        self
    }

    /// Set the megacell grid budget. A budget of 0 is rejected with
    /// [`PlanError::ZeroGridBudget`] by [`Self::validate`], which every
    /// query and warm-up runs.
    pub fn with_grid_max_cells(mut self, cells: usize) -> Self {
        self.grid_max_cells = cells;
        self
    }

    /// Validate the engine-wide knobs (approximation parameters, grid
    /// budget); run automatically at query time.
    pub fn validate(&self) -> Result<(), PlanError> {
        self.approx.validate()?;
        if self.grid_max_cells == 0 {
            return Err(PlanError::ZeroGridBudget);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Structure cache
// ---------------------------------------------------------------------------

enum StoreEntry<'a> {
    Owned(Accel),
    Shared(&'a Accel),
}

impl<'a> StoreEntry<'a> {
    fn accel(&self) -> &Accel {
        match self {
            StoreEntry::Owned(a) => a,
            StoreEntry::Shared(a) => a,
        }
    }

    fn aabb_width_bits(&self) -> u32 {
        self.accel().aabb_width().to_bits()
    }
}

/// A width-keyed cache of acceleration structures: the index's global
/// structure per plan radius plus the per-partition structures, owned or
/// adopted (borrowed from a streaming index).
pub(crate) struct AccelStore<'a> {
    entries: Vec<StoreEntry<'a>>,
}

impl<'a> AccelStore<'a> {
    pub(crate) fn new() -> Self {
        AccelStore {
            entries: Vec::new(),
        }
    }

    /// Adopt a caller-owned structure (hit by width like any other entry).
    pub(crate) fn adopt(&mut self, accel: &'a Accel) {
        self.entries.push(StoreEntry::Shared(accel));
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn accel_ref(&self, id: usize) -> AccelRef<'_> {
        self.entries[id].accel().as_ref()
    }

    /// The entry id of the cached structure for `aabb_width`, if any.
    fn find(&self, aabb_width: f32) -> Option<usize> {
        let key = aabb_width.to_bits();
        self.entries.iter().position(|e| e.aabb_width_bits() == key)
    }

    /// Get the structure for `aabb_width`, building (and charging) it on a
    /// miss. Returns the entry id and the simulated build cost incurred by
    /// *this* call (0 on a hit — that is the amortisation the index
    /// provides).
    pub(crate) fn ensure(
        &mut self,
        backend: &dyn Backend,
        points: &[Vec3],
        aabb_width: f32,
        build: BuildParams,
    ) -> Result<(usize, f64), SearchError> {
        if let Some(id) = self.find(aabb_width) {
            return Ok((id, 0.0));
        }
        let accel = backend
            .build(points, aabb_width, build)
            .map_err(SearchError::OutOfDeviceMemory)?;
        let build_ms = accel.build_time_ms();
        self.entries.push(StoreEntry::Owned(accel));
        Ok((self.entries.len() - 1, build_ms))
    }

    /// Get the structure for every width in `aabb_widths`, building the
    /// missing ones *concurrently* on the worker pool (a `Backend` is
    /// `Sync`, so independent widths build in parallel). Returns the entry
    /// id of each requested width, in request order, and the total
    /// simulated build cost incurred — 0 when every width was already
    /// cached. Duplicate widths are deduplicated by bit pattern; entry
    /// order matches the first occurrence of each missing width, so cache
    /// ids stay deterministic regardless of thread count.
    pub(crate) fn ensure_many(
        &mut self,
        backend: &dyn Backend,
        points: &[Vec3],
        aabb_widths: &[f32],
        build: BuildParams,
    ) -> Result<(Vec<usize>, f64), SearchError> {
        let mut missing: Vec<f32> = Vec::new();
        for &w in aabb_widths {
            if self.find(w).is_none() && !missing.iter().any(|m| m.to_bits() == w.to_bits()) {
                missing.push(w);
            }
        }
        let built = par_map_collect(missing.len(), |i| backend.build(points, missing[i], build));
        let mut total_ms = 0.0;
        for accel in built {
            let accel = accel.map_err(SearchError::OutOfDeviceMemory)?;
            total_ms += accel.build_time_ms();
            self.entries.push(StoreEntry::Owned(accel));
        }
        let ids = aabb_widths
            .iter()
            .map(|&w| self.find(w).expect("every width is cached above"))
            .collect();
        Ok((ids, total_ms))
    }
}

// ---------------------------------------------------------------------------
// Index
// ---------------------------------------------------------------------------

enum GridSlot<'a> {
    Unbuilt,
    Owned(Option<MegacellGrid>),
    Shared(&'a MegacellGrid),
}

fn grid_for<'s, 'a>(
    slot: &'s mut GridSlot<'a>,
    points: &[Vec3],
    budget: usize,
) -> Option<&'s MegacellGrid> {
    if let GridSlot::Unbuilt = slot {
        *slot = GridSlot::Owned(MegacellGrid::build(points, budget));
    }
    match slot {
        GridSlot::Shared(g) => Some(g),
        GridSlot::Owned(opt) => opt.as_ref(),
        GridSlot::Unbuilt => unreachable!("built above"),
    }
}

/// Scene state adopted by [`Index::adopt`] from a caller that maintains it
/// across frames (the streaming `DynamicIndex`).
pub struct AdoptedScene<'a> {
    /// The global structure over the current point positions.
    pub accel: &'a Accel,
    /// Megacell grid over the current positions (`None` falls back to a
    /// lazily built grid).
    pub grid: Option<&'a MegacellGrid>,
    /// Bounds of grid cells whose population changed since `cache` entries
    /// were written ([`Aabb::EMPTY`] when none did).
    pub dirty_region: Aabb,
    /// Per-query megacell cache, updated in place across frames.
    pub cache: Option<&'a mut MegacellCache>,
    /// The search parameters the adopted cache serves (`None`: any). Plans
    /// with different parameters *bypass* the cache instead of wiping the
    /// owner's warm entries — megacell results depend on `(radius, k)`.
    pub cache_params: Option<SearchParams>,
}

/// A persistent neighbor-search index: scene-side state built once, typed
/// [`QueryPlan`]s answered per call (see module docs).
pub struct Index<'a> {
    backend: &'a dyn Backend,
    config: EngineConfig,
    points: Cow<'a, [Vec3]>,
    store: AccelStore<'a>,
    grid: GridSlot<'a>,
    cache: Option<&'a mut MegacellCache>,
    cache_params: Option<SearchParams>,
    dirty_region: Aabb,
    pending_structure_ms: f64,
    /// Installed by [`Index::enable_auto`] or [`Index::set_tuner`]; while
    /// present, every call without explicit overrides is tuned.
    tuner: Option<AutoTuner>,
    /// The most recent auto-tuning decision, `None` until one was made.
    last_decision: Option<TunerDecision>,
}

impl<'a> Index<'a> {
    /// Build an index over `points` on `backend`. Structures are built
    /// lazily — each AABB width the plans demand is built on first use and
    /// cached — so construction is cheap; validation happens at
    /// [`query`](Self::query) time.
    pub fn build(
        backend: &'a dyn Backend,
        points: impl Into<Cow<'a, [Vec3]>>,
        config: EngineConfig,
    ) -> Self {
        Index {
            backend,
            config,
            points: points.into(),
            store: AccelStore::new(),
            grid: GridSlot::Unbuilt,
            cache: None,
            cache_params: None,
            dirty_region: Aabb::EMPTY,
            pending_structure_ms: 0.0,
            tuner: None,
            last_decision: None,
        }
    }

    /// Adopt scene state maintained by a caller across query rounds (the
    /// streaming contract): the caller guarantees `scene.accel` covers
    /// `points` at their current positions and that a supplied grid was
    /// built/refreshed over them.
    pub fn adopt(
        backend: &'a dyn Backend,
        points: &'a [Vec3],
        config: EngineConfig,
        scene: AdoptedScene<'a>,
    ) -> Self {
        let mut index = Index::build(backend, points, config);
        index.store.adopt(scene.accel);
        if let Some(g) = scene.grid {
            index.grid = GridSlot::Shared(g);
        }
        index.cache = scene.cache;
        index.cache_params = scene.cache_params;
        index.dirty_region = scene.dirty_region;
        index
    }

    /// The points the index was built over.
    pub fn points(&self) -> &[Vec3] {
        &self.points
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The engine-wide configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The execution backend.
    pub fn backend(&self) -> &dyn Backend {
        self.backend
    }

    /// Number of acceleration structures currently cached (owned +
    /// adopted) — grows with the distinct AABB widths the plans demand.
    pub fn cached_structures(&self) -> usize {
        self.store.len()
    }

    /// Charge `ms` of caller-side structure maintenance (refit / rebuild
    /// time) to the next query's `BVH` breakdown slot — the streaming
    /// contract a `DynamicIndex` frame uses.
    pub fn charge_structure_ms(&mut self, ms: f64) {
        self.pending_structure_ms += ms;
    }

    /// Hold an [`AutoTuner`] seeded with `seed`: from now on it picks the
    /// [`OptLevel`] rung of every call made without explicit
    /// [`StageOverrides`] — cost model (calibrated for the backend's device)
    /// first, measured per-stage timings after. An armed ambient profiler's
    /// snapshot warm-starts it as measurements of [`OptLevel::Full`], the
    /// stages an untuned call runs.
    pub fn enable_auto(&mut self, seed: u64) {
        let mut tuner = AutoTuner::new(seed)
            .with_cost_model(CostCoefficients::calibrate(self.backend.device()));
        if let Some(snapshot) = Telemetry::current().and_then(|t| t.profile_snapshot()) {
            tuner.absorb_profile(&snapshot, OptLevel::Full);
        }
        self.tuner = Some(tuner);
    }

    /// Install pre-seeded tuner state (e.g. warmed from a persisted
    /// [`ProfileSnapshot`](rtnn_telemetry::ProfileSnapshot) via
    /// [`AutoTuner::absorb_profile`]) as is.
    pub fn set_tuner(&mut self, tuner: AutoTuner) {
        self.tuner = Some(tuner);
    }

    /// The tuner the index holds, if any.
    pub fn tuner(&self) -> Option<&AutoTuner> {
        self.tuner.as_ref()
    }

    /// The tuner's most recent decision on this index (`None` until a
    /// tuned query succeeded).
    pub fn last_decision(&self) -> Option<TunerDecision> {
        self.last_decision
    }

    /// Pre-build every structure (and the megacell grid) that `plan` would
    /// demand, without running any queries — the cold-start path a serving
    /// layer runs before the first request lands. Distinct AABB widths
    /// build *concurrently* on the worker pool.
    ///
    /// Returns the simulated build cost incurred by this call (0 when
    /// everything was already cached). The cost is also carried forward
    /// into the next query's `BVH` breakdown slot — warming is part of the
    /// scene's structure cost, not free work.
    pub fn warm(&mut self, plan: &QueryPlan) -> Result<f64, SearchError> {
        self.config.validate()?;
        let cfg = self.config;
        let plan = plan.normalized();
        // Id-coverage checks wait for query time (warm has no queries).
        match plan.as_ref() {
            QueryPlan::Batch(slices) if slices.is_empty() => {
                return Err(PlanError::EmptyBatch.into())
            }
            QueryPlan::Batch(slices) => slices.iter().try_for_each(|s| s.plan.validate(0))?,
            single => single.validate(0)?,
        }
        // Warm-up provisions what the default (full) pipeline demands: the
        // coherence schedule's widest structure, one structure per slice
        // width, and the megacell grid.
        let factor = cfg.approx.aabb_width_factor();
        let mut widths = vec![2.0 * plan.max_radius() * factor];
        widths.extend(plan.slices(0).iter().map(|(p, _)| 2.0 * p.radius * factor));
        if self.points.is_empty() {
            return Ok(0.0);
        }
        let (_, built_ms) =
            self.store
                .ensure_many(self.backend, &self.points, &widths, cfg.build)?;
        grid_for(&mut self.grid, &self.points, cfg.grid_max_cells);
        self.pending_structure_ms += built_ms;
        Ok(built_ms)
    }

    /// Answer `plan` for `queries` against the indexed points.
    ///
    /// The plan is normalized ([`QueryPlan::normalized`]: nested batches
    /// flattened, same-parameter slices merged) and then validated
    /// ([`PlanError`] names the offending field), and so are the queries
    /// ([`validate_queries`]: a NaN or infinite coordinate fails the call).
    ///
    /// Every plan runs through one driver as its `(params, query ids)`
    /// slices ([`QueryPlan::slices`]): a `Knn` or `Range` plan is one slice
    /// over every query, and a [`QueryPlan::Batch`] answers heterogeneous
    /// plans in one call. Per call the driver bills transfers and any
    /// pending structure cost ([`warm`](Self::warm),
    /// [`charge_structure_ms`](Self::charge_structure_ms)), builds every
    /// missing structure width concurrently, runs one `Schedule` pass over
    /// every covered query, and then `Partition` → `Launch` → `Gather` per
    /// slice, all sharing the cached structures and megacell grid.
    pub fn query(
        &mut self,
        queries: &[Vec3],
        plan: &QueryPlan,
    ) -> Result<SearchResults, SearchError> {
        self.query_with(queries, plan, StageOverrides::default())
    }

    /// [`query`](Self::query) with per-call [`StageOverrides`]: replace or
    /// disable individual pipeline stages for this one call (e.g.
    /// [`StageOverrides::without_reordering`], or
    /// [`StageOverrides::for_level`] for one rung of the paper's ladder).
    /// The overrides apply to every slice of the plan. A held tuner
    /// ([`Self::enable_auto`]) decides exactly the calls whose `overrides`
    /// are empty. See the [`pipeline`](crate::pipeline) docs.
    pub fn query_with(
        &mut self,
        queries: &[Vec3],
        plan: &QueryPlan,
        overrides: StageOverrides<'_>,
    ) -> Result<SearchResults, SearchError> {
        // Unbounded-range sentinels resolve to this scene's point count (the
        // largest result a range query can produce) before any result-buffer
        // sizing; plans without the sentinel pass through untouched.
        let plan = plan.resolve_caps(self.points.len());
        let plan = plan.normalized();
        plan.validate(queries.len())?;
        validate_queries(queries)?;
        let kind = plan.as_ref().kind_label();
        let tel = Telemetry::current();
        let mut query_span = tel.as_ref().map(|t| {
            t.span(match kind {
                "knn" => "index.query.knn",
                "range" => "index.query.range",
                _ => "index.query.batch",
            })
        });
        if let Some(t) = &tel {
            t.counter_add("index.queries", 1);
            t.counter_add("index.query_points", queries.len() as u64);
        }
        let result = match self.tuner.take_if(|_| overrides.is_empty()) {
            Some(mut tuner) => {
                let (points, backend) = (self.points.len(), self.backend.name());
                let (decision, result) = tuner.run(kind, points, backend, queries.len(), |o| {
                    self.execute(queries, &plan, o)
                });
                self.tuner = Some(tuner);
                if result.is_ok() {
                    self.last_decision = Some(decision);
                }
                result
            }
            None => self.execute(queries, &plan, overrides),
        };
        if let (Some(span), Ok(results)) = (query_span.as_mut(), result.as_ref()) {
            span.attr("queries", queries.len() as f64)
                .attr("points", self.points.len() as f64)
                .attr("device_ms", results.trace.device_total_ms())
                .attr("partitions", results.num_partitions as f64);
        }
        if let (Some(t), Ok(results)) = (tel.as_ref(), result.as_ref()) {
            if t.profiler_enabled() {
                t.profile(&ProfileSample {
                    plan_kind: kind,
                    points: self.points.len(),
                    backend: self.backend.name(),
                    queries: queries.len() as u64,
                    stages: &results.trace.stage_device_ms(),
                });
            }
        }
        result
    }

    /// The one execution driver: a validated, normalized plan runs as its
    /// `(params, query ids)` slices under `overrides` — driver setup
    /// (transfers, structures), one shared `Schedule` stage over every
    /// covered query (against the widest structure any slice needs), then
    /// the per-slice `Partition` → `Launch` → `Gather` stages, all hitting
    /// the same structure store and grid.
    ///
    /// An adopted megacell cache is keyed to one `(radius, k)` pair, so it
    /// goes to the call, with the adopted dirty region, only when `plan` is
    /// a single plan whose params match `cache_params` (reading its entries
    /// under other params would be wrong, wiping them would cost the owner
    /// its warm state). Batches and other plans grow their megacells fresh
    /// against the shared grid; the adopting owner keeps resupplying the
    /// dirty region until a matching call absorbs it into the cache.
    fn execute(
        &mut self,
        queries: &[Vec3],
        plan: &QueryPlan,
        overrides: StageOverrides<'_>,
    ) -> Result<SearchResults, SearchError> {
        self.config.validate()?;
        let backend = self.backend;
        let cfg = self.config;
        let device = backend.device();
        let pipeline = ExecutionPipeline {
            backend,
            config: &cfg,
            overrides,
        };
        let mut slices = plan.slices(queries.len());

        // Driver setup (not a stage): data transfer — points + queries in,
        // result ids out.
        let max_k = slices.iter().map(|(p, _)| p.k).max().unwrap_or(1);
        let footprint = point_cloud_bytes(self.points.len(), queries.len(), max_k);
        device.check_allocation(footprint)?;
        let result_bytes: u64 = slices
            .iter()
            .map(|(p, ids)| ids.len() as u64 * p.k as u64 * 4)
            .sum();
        let mut breakdown = TimeBreakdown {
            data_ms: device.transfer_h2d_ms((self.points.len() + queries.len()) as u64 * 12)
                + device.transfer_d2h_ms(result_bytes),
            ..TimeBreakdown::default()
        };
        let mut trace = PipelineTrace::default();
        slices.retain(|(_, ids)| !ids.is_empty());
        let launches_nothing = slices.is_empty() || self.points.is_empty();

        // Structures, billed to the `BVH` slot and the Launch stage as one
        // metered `accel.ensure`: the pending caller-side cost (billed even
        // when nothing launches), then every width the call traverses — the
        // widest shared scheduling structure (when the resolved stage
        // traverses one; an identity schedule bills nothing, exactly like
        // the `NoOpt` rung) plus one per slice, the missing ones built
        // concurrently on the worker pool.
        let factor = cfg.approx.aabb_width_factor();
        let shared_width = overrides
            .schedule_stage()
            .needs_structure()
            .then(|| 2.0 * plan.max_radius() * factor);
        let mut widths: Vec<f32> = shared_width.into_iter().collect();
        widths.extend(slices.iter().map(|(p, _)| 2.0 * p.radius * factor));
        let tel = Telemetry::current();
        let host = Instant::now();
        let mut span = tel.as_ref().map(|t| t.span("accel.ensure"));
        let pending_ms = std::mem::take(&mut self.pending_structure_ms);
        let (ids, built_ms) = if launches_nothing {
            (Vec::new(), 0.0)
        } else {
            self.store
                .ensure_many(backend, &self.points, &widths, cfg.build)?
        };
        let structure_ms = pending_ms + built_ms;
        breakdown.bvh_ms += structure_ms;
        let host_ms = host_ms_since(host);
        trace.charge(StageKind::Launch, structure_ms, host_ms);
        if let Some(span) = span.as_mut() {
            span.attr("device_ms", structure_ms)
                .attr("primitives", self.points.len() as f64)
                .attr("widths", widths.len() as f64)
                .attr_wall("host_ms", host_ms);
        }
        drop(span);
        if launches_nothing {
            return Ok(empty_results(queries.len(), breakdown, trace));
        }
        let (shared, slice_structures) = match shared_width {
            Some(_) => (Some(ids[0]), &ids[1..]),
            None => (None, &ids[..]),
        };

        // Shared `Schedule` stage (Section 4, once per call): one order over
        // every covered query, split back into per-slice orders (each
        // slice's order is the scheduled order filtered to its ids —
        // identical to sorting the slice by the shared keys).
        let covered: Vec<u32> = slices
            .iter()
            .flat_map(|(_, ids)| ids.iter().copied())
            .collect();
        let schedule = pipeline.schedule_metered(
            shared.map(|id| self.store.accel_ref(id)),
            &self.points,
            queries,
            &covered,
            &mut breakdown,
            &mut trace,
        );
        let fs_metrics = schedule.fs_metrics.clone();
        let mut slice_of: Vec<usize> = vec![usize::MAX; queries.len()];
        for (si, (_, ids)) in slices.iter().enumerate() {
            for &qid in ids.iter() {
                slice_of[qid as usize] = si;
            }
        }
        let mut orders: Vec<Vec<u32>> = slices
            .iter()
            .map(|(_, ids)| Vec::with_capacity(ids.len()))
            .collect();
        for &qid in &schedule.order {
            orders[slice_of[qid as usize]].push(qid);
        }

        // Per-slice `Partition` → `Launch` → `Gather` over the shared store
        // and grid. The persistent grid is provisioned exactly when the
        // *resolved* partition stage wants it — a per-call override can both
        // skip the grid (partitioning disabled for this call) and build it.
        let grid = if overrides.partition_stage().wants_grid() {
            grid_for(&mut self.grid, &self.points, cfg.grid_max_cells)
        } else {
            None
        };
        let mut cache = match plan.params() {
            Some(params) if self.cache_params.is_none_or(|cp| cp == params) => self
                .cache
                .as_deref_mut()
                .map(|cache| (cache, self.dirty_region)),
            _ => None,
        };
        let mut gathered = GatheredHits::empty(queries.len());
        let mut search_metrics = LaunchMetrics::default();
        let mut num_partitions = 0;
        let mut num_bundles = 0;
        for (((params, _), order), &global) in slices.iter().zip(&orders).zip(slice_structures) {
            let (p, b) = pipeline.execute_ordered(
                *params,
                &self.points,
                queries,
                order,
                &mut self.store,
                global,
                grid,
                cache.take(),
                &mut gathered,
                &mut breakdown,
                &mut search_metrics,
                &mut trace,
            )?;
            num_partitions += p;
            num_bundles += b;
        }

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::GpusimBackend;
    use crate::plan::PlanSlice;
    use crate::verify::check_all;
    use rtnn_gpusim::Device;

    fn jittered(n_per_axis: usize, spacing: f32) -> Vec<Vec3> {
        let mut pts = Vec::new();
        for x in 0..n_per_axis {
            for y in 0..n_per_axis {
                for z in 0..n_per_axis {
                    let j = 0.05 * spacing * ((x * 7 + y * 13 + z * 29) % 10) as f32 / 10.0;
                    pts.push(Vec3::new(
                        x as f32 * spacing + j,
                        y as f32 * spacing - j,
                        z as f32 * spacing + j,
                    ));
                }
            }
        }
        pts
    }

    fn grid_points(n_per_axis: usize, spacing: f32) -> Vec<Vec3> {
        let mut pts = Vec::new();
        for x in 0..n_per_axis {
            for y in 0..n_per_axis {
                for z in 0..n_per_axis {
                    pts.push(Vec3::new(x as f32, y as f32, z as f32) * spacing);
                }
            }
        }
        pts
    }

    /// One plan on a freshly built index, at one ladder rung.
    fn run(
        params: SearchParams,
        config: EngineConfig,
        level: OptLevel,
        points: &[Vec3],
        queries: &[Vec3],
    ) -> SearchResults {
        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        Index::build(&backend, points, config)
            .query_with(
                queries,
                &QueryPlan::from_params(params),
                StageOverrides::for_level(level),
            )
            .unwrap()
    }

    #[test]
    fn single_plans_match_the_oracle_at_every_opt_level() {
        let range_points = grid_points(7, 1.0);
        let knn_points = grid_points(7, 0.5);
        let cases = [
            (SearchParams::range(1.6, 64), &range_points, 3),
            (SearchParams::knn(1.2, 10), &knn_points, 5),
        ];
        for (params, points, stride) in cases {
            let queries: Vec<Vec3> = points.iter().step_by(stride).copied().collect();
            for opt in OptLevel::all() {
                let results = run(params, EngineConfig::default(), opt, points, &queries);
                check_all(points, &queries, &params, &results.neighbors)
                    .unwrap_or_else(|(q, e)| panic!("{params:?} {opt:?}, query {q}: {e}"));
            }
        }
    }

    #[test]
    fn range_search_respects_the_k_cap() {
        let points = grid_points(6, 0.3);
        let queries = vec![Vec3::new(0.9, 0.9, 0.9)];
        let params = SearchParams::range(1.0, 5);
        let results = run(
            params,
            EngineConfig::default(),
            OptLevel::Full,
            &points,
            &queries,
        );
        assert_eq!(results.neighbors[0].len(), 5);
        check_all(&points, &queries, &params, &results.neighbors).unwrap();
    }

    #[test]
    fn breakdown_components_reflect_the_opt_level() {
        let points = grid_points(8, 1.0);
        let queries = points.clone();
        let params = SearchParams::knn(2.0, 8);
        let cfg = EngineConfig::default();
        let noopt = run(params, cfg, OptLevel::NoOpt, &points, &queries);
        assert_eq!(noopt.breakdown.fs_ms, 0.0);
        assert_eq!(noopt.breakdown.opt_ms, 0.0);
        assert_eq!(noopt.num_partitions, 1);
        let sched = run(params, cfg, OptLevel::Sched, &points, &queries);
        assert!(sched.breakdown.fs_ms > 0.0);
        assert!(sched.breakdown.opt_ms > 0.0);
        let full = run(params, cfg, OptLevel::Full, &points, &queries);
        assert!(full.num_partitions >= 1);
        assert!(full.num_bundles <= full.num_partitions);
        assert!(full.breakdown.total_ms() > 0.0);
        assert!(full.breakdown.data_ms > 0.0);
    }

    #[test]
    fn partitioning_reduces_is_calls_on_dense_clouds() {
        // Observation 2 turned into the Section 5 optimisation: per-partition
        // AABBs are smaller than 2r, so the search does fewer IS calls.
        let points = grid_points(10, 0.25);
        let queries = points.clone();
        let params = SearchParams::knn(2.0, 8);
        let cfg = EngineConfig::default();
        let sched = run(params, cfg, OptLevel::Sched, &points, &queries);
        let part = run(params, cfg, OptLevel::SchedPartition, &points, &queries);
        assert!(
            part.search_metrics.is_calls < sched.search_metrics.is_calls,
            "partitioned {} vs global {}",
            part.search_metrics.is_calls,
            sched.search_metrics.is_calls
        );
        check_all(&points, &queries, &params, &part.neighbors)
            .unwrap_or_else(|(q, e)| panic!("query {q}: {e}"));
    }

    #[test]
    fn approximate_modes_trade_recall_for_speed_within_bounds() {
        let points = grid_points(8, 0.5);
        let queries: Vec<Vec3> = points.iter().step_by(7).copied().collect();
        let params = SearchParams::range(1.0, 1000);
        let cfg = EngineConfig::default();
        let sched = OptLevel::Sched;
        let exact = run(params, cfg, sched, &points, &queries);
        // Shrunken AABBs: subset of the exact result, never outside r.
        let shrunk = run(
            params,
            cfg.with_approx(ApproxMode::ShrunkenAabb { factor: 0.6 }),
            sched,
            &points,
            &queries,
        );
        for (qi, q) in queries.iter().enumerate() {
            let exact_set: std::collections::HashSet<u32> =
                exact.neighbors[qi].iter().copied().collect();
            for &id in &shrunk.neighbors[qi] {
                assert!(exact_set.contains(&id));
                assert!(q.distance(points[id as usize]) < params.radius);
            }
            assert!(shrunk.neighbors[qi].len() <= exact.neighbors[qi].len());
        }
        // Skipped sphere test: superset within sqrt(3) * r.
        let skipped = run(
            params,
            cfg.with_approx(ApproxMode::SkipSphereTest),
            sched,
            &points,
            &queries,
        );
        let bound = ApproxMode::SkipSphereTest.distance_bound(params.radius) + 1e-5;
        for (qi, q) in queries.iter().enumerate() {
            assert!(skipped.neighbors[qi].len() >= exact.neighbors[qi].len());
            for &id in &skipped.neighbors[qi] {
                assert!(q.distance(points[id as usize]) <= bound);
            }
        }
        // And it does less shader work than the exact search.
        assert!(skipped.search_metrics.kernel.sm_cycles < exact.search_metrics.kernel.sm_cycles);
    }

    #[test]
    fn knn_heuristic_rules_still_produce_bounded_results() {
        // The paper's equi-volume heuristic is not guaranteed exact, but all
        // returned neighbors must respect the radius bound and count cap.
        let points = grid_points(8, 0.5);
        let queries: Vec<Vec3> = points.iter().step_by(3).copied().collect();
        let params = SearchParams::knn(1.5, 6);
        let config = EngineConfig::default().with_knn_rule(KnnAabbRule::EquiVolume);
        let results = run(params, config, OptLevel::Full, &points, &queries);
        for (qi, q) in queries.iter().enumerate() {
            assert!(results.neighbors[qi].len() <= params.k);
            for &id in &results.neighbors[qi] {
                assert!(q.distance(points[id as usize]) < params.radius);
            }
        }
    }

    #[test]
    fn oom_is_reported_for_clouds_that_do_not_fit() {
        let device = Device::tiny_test_device(); // 256 MB
        let backend = GpusimBackend::new(&device);
        // 100k queries * 1M results would need hundreds of GB; the footprint
        // check fires before any allocation happens host-side.
        let points = [Vec3::ZERO; 8];
        let queries = vec![Vec3::ZERO; 100_000];
        let mut index = Index::build(&backend, &points[..], EngineConfig::default());
        assert!(matches!(
            index.query(&queries, &QueryPlan::knn(1.0, 1_000_000)),
            Err(SearchError::OutOfDeviceMemory(_))
        ));
    }

    #[test]
    fn repeated_queries_amortise_structure_builds() {
        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        let points = jittered(7, 0.6);
        let queries: Vec<Vec3> = points.iter().step_by(3).copied().collect();
        let mut index = Index::build(&backend, &points[..], EngineConfig::default());
        let plan = QueryPlan::knn(1.2, 6);
        let first = index.query(&queries, &plan).unwrap();
        assert!(first.breakdown.bvh_ms > 0.0, "first call builds structures");
        let second = index.query(&queries, &plan).unwrap();
        assert_eq!(second.neighbors, first.neighbors, "results are stable");
        assert_eq!(
            second.breakdown.bvh_ms, 0.0,
            "second call hits the width cache for every structure"
        );
        assert!(index.cached_structures() >= 1);
        // A different radius builds (and caches) additional widths.
        let other = index.query(&queries, &QueryPlan::range(0.9, 32)).unwrap();
        assert!(other.breakdown.bvh_ms > 0.0);
        check_all(
            &points,
            &queries,
            &SearchParams::range(0.9, 32),
            &other.neighbors,
        )
        .unwrap_or_else(|(q, e)| panic!("query {q}: {e}"));
    }

    #[test]
    fn batch_matches_per_slice_single_plans() {
        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        let points = jittered(7, 0.5);
        let queries: Vec<Vec3> = points.iter().step_by(2).copied().collect();
        let n = queries.len() as u32;
        let knn_ids: Vec<u32> = (0..n).filter(|i| i % 2 == 0).collect();
        let rng_ids: Vec<u32> = (0..n).filter(|i| i % 2 == 1).collect();
        let knn_plan = QueryPlan::knn(1.1, 5);
        let rng_plan = QueryPlan::range(0.8, 1000);
        let batch = QueryPlan::Batch(vec![
            PlanSlice::new(knn_plan.clone(), knn_ids.clone()),
            PlanSlice::new(rng_plan.clone(), rng_ids.clone()),
        ]);

        let mut index = Index::build(&backend, &points[..], EngineConfig::default());
        let combined = index.query(&queries, &batch).unwrap();
        let knn_single = index.query(&queries, &knn_plan).unwrap();
        let rng_single = index.query(&queries, &rng_plan).unwrap();

        for &qid in &knn_ids {
            assert_eq!(
                combined.neighbors[qid as usize], knn_single.neighbors[qid as usize],
                "KNN slice query {qid}"
            );
        }
        for &qid in &rng_ids {
            // Range order is traversal-defined; with a non-truncating cap
            // the sets must agree.
            let mut a = combined.neighbors[qid as usize].clone();
            let mut b = rng_single.neighbors[qid as usize].clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "range slice query {qid}");
        }
        // One shared scheduling pass covers all launched queries.
        assert_eq!(combined.fs_metrics.active_rays, n as u64);
    }

    #[test]
    fn warm_prebuilds_every_width_and_charges_the_next_query() {
        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        let points = jittered(6, 0.6);
        let queries: Vec<Vec3> = points.iter().step_by(3).copied().collect();
        let n = queries.len() as u32;
        let batch = QueryPlan::Batch(vec![
            PlanSlice::new(QueryPlan::knn(1.2, 6), (0..n / 2).collect()),
            PlanSlice::new(QueryPlan::range(0.8, 64), (n / 2..n).collect()),
        ]);

        let mut index = Index::build(&backend, &points[..], EngineConfig::default());
        let built = index.warm(&batch).unwrap();
        assert!(built > 0.0, "cold warm-up builds structures");
        assert!(
            index.cached_structures() >= 2,
            "both slice widths (and the shared scheduling width) are cached"
        );
        // Warming the same plan again is free.
        assert_eq!(index.warm(&batch).unwrap(), 0.0);

        // The warm-up cost is carried into the next query's BVH slot; the
        // plan-level structures themselves are all cache hits there.
        let first = index.query(&queries, &batch).unwrap();
        assert!(first.breakdown.bvh_ms >= built);
        let second = index.query(&queries, &batch).unwrap();
        assert_eq!(
            second.breakdown.bvh_ms, 0.0,
            "a warmed index amortises every structure build"
        );
        assert_eq!(second.neighbors, first.neighbors);

        // Invalid plans are rejected with the same typed errors as query.
        assert_eq!(
            index.warm(&QueryPlan::knn(-1.0, 4)).unwrap_err(),
            SearchError::InvalidPlan(PlanError::InvalidRadius {
                field: "Knn.r",
                value: -1.0
            })
        );
    }

    #[test]
    fn batch_leaves_uncovered_queries_empty() {
        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        let points = jittered(5, 1.0);
        let queries: Vec<Vec3> = points.iter().step_by(4).copied().collect();
        let mut index = Index::build(&backend, &points[..], EngineConfig::default());
        let batch = QueryPlan::Batch(vec![PlanSlice::new(QueryPlan::knn(1.5, 4), vec![0, 2])]);
        let results = index.query(&queries, &batch).unwrap();
        assert!(!results.neighbors[0].is_empty());
        assert!(
            results.neighbors[1].is_empty(),
            "uncovered query stays empty"
        );
    }

    #[test]
    fn typed_errors_surface_at_query_time() {
        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        let points = [Vec3::ZERO];
        let mut index = Index::build(&backend, &points[..], EngineConfig::default());
        let err = index
            .query(&[Vec3::ZERO], &QueryPlan::knn(-1.0, 4))
            .unwrap_err();
        assert_eq!(
            err,
            SearchError::InvalidPlan(PlanError::InvalidRadius {
                field: "Knn.r",
                value: -1.0
            })
        );

        // Normalization must not swallow conflicting double claims: an id
        // listed under two different parameter sets still errors.
        let conflicted = QueryPlan::Batch(vec![
            PlanSlice::new(QueryPlan::knn(1.0, 4), vec![0]),
            PlanSlice::new(QueryPlan::range(2.0, 8), vec![0]),
        ]);
        assert_eq!(
            index.query(&[Vec3::ZERO], &conflicted).unwrap_err(),
            SearchError::InvalidPlan(PlanError::DuplicateQueryId {
                slice: 1,
                query_id: 0
            })
        );

        // So is an out-of-range approximation parameter.
        let bad_approx =
            EngineConfig::default().with_approx(ApproxMode::ShrunkenAabb { factor: 2.0 });
        let err = Index::build(&backend, &points[..], bad_approx)
            .query(&[Vec3::ZERO], &QueryPlan::range(1.0, 4))
            .unwrap_err();
        assert!(err.to_string().contains("invalid configuration"));
    }

    #[test]
    fn zero_grid_budget_is_a_typed_error_at_query_and_warm_time() {
        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        let points = [Vec3::ZERO];
        let plan = QueryPlan::knn(1.0, 4);
        let zero = SearchError::InvalidPlan(PlanError::ZeroGridBudget);
        let by_builder = EngineConfig::default().with_grid_max_cells(0);
        let by_hand = EngineConfig {
            grid_max_cells: 0,
            ..EngineConfig::default()
        };
        for config in [by_builder, by_hand] {
            let mut index = Index::build(&backend, &points[..], config);
            assert_eq!(index.query(&[Vec3::ZERO], &plan).unwrap_err(), zero);
            assert_eq!(index.warm(&plan).unwrap_err(), zero);
        }
    }

    #[test]
    fn explicit_overrides_bypass_a_held_tuner() {
        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        let points = jittered(6, 0.6);
        let queries: Vec<Vec3> = points.iter().step_by(3).copied().collect();
        let plan = QueryPlan::knn(1.2, 6);
        let mut tuned = Index::build(&backend, &points[..], EngineConfig::default());
        tuned.enable_auto(crate::autotune::DEFAULT_SEED);
        tuned.query(&queries, &plan).unwrap();
        let decided = tuned.last_decision();
        for level in OptLevel::all() {
            let rung = StageOverrides::for_level(level);
            let got = tuned.query_with(&queries, &plan, rung).unwrap();
            let expected = run(
                plan.params().unwrap(),
                EngineConfig::default(),
                level,
                &points,
                &queries,
            );
            assert_eq!(got.neighbors, expected.neighbors, "{level:?}");
            assert_eq!(got.breakdown.fs_ms, expected.breakdown.fs_ms, "{level:?}");
            assert_eq!(got.num_partitions, expected.num_partitions, "{level:?}");
            assert_eq!(got.breakdown.search_ms, expected.breakdown.search_ms);
        }
        assert_eq!(
            tuned.tuner().unwrap().decisions(),
            1,
            "the tuner was never consulted"
        );
        assert_eq!(tuned.last_decision(), decided);
    }

    #[test]
    fn empty_inputs_are_handled() {
        let device = Device::rtx_2080();
        let backend = GpusimBackend::new(&device);
        let points = [Vec3::ZERO];
        let mut index = Index::build(&backend, &points[..], EngineConfig::default());
        let no_queries = index.query(&[], &QueryPlan::range(1.0, 4)).unwrap();
        assert!(no_queries.neighbors.is_empty());
        let mut empty = Index::build(&backend, Vec::new(), EngineConfig::default());
        assert!(empty.is_empty());
        let no_points = empty
            .query(&[Vec3::ZERO, Vec3::ONE], &QueryPlan::knn(1.0, 4))
            .unwrap();
        assert_eq!(no_points.neighbors.len(), 2);
        assert!(no_points.neighbors.iter().all(Vec::is_empty));

        // A warm-up's structure cost is billed exactly once — by the next
        // call, even when that call launches nothing — for single and batch
        // plans alike. The real call runs unpartitioned, so every structure
        // it traverses was warmed and it builds nothing of its own.
        let points = grid_points(8, 1.0);
        let knn = QueryPlan::knn(1.5, 4);
        let n = points.len() as u32;
        for batched in [false, true] {
            let plan = |n: u32| match batched {
                false => knn.clone(),
                true => QueryPlan::Batch(vec![PlanSlice::new(knn.clone(), (0..n).collect())]),
            };
            let label = if batched { "batch" } else { "single" };
            let mut index = Index::build(&backend, &points[..], EngineConfig::default());
            let warm_ms = index.warm(&plan(n)).unwrap();
            assert!(warm_ms > 0.0, "{label}: a cold warm-up builds structures");
            let empty = index.query(&[], &plan(0)).unwrap();
            let real = index
                .query_with(&points, &plan(n), StageOverrides::without_partitioning())
                .unwrap();
            assert_eq!(
                empty.breakdown.bvh_ms, warm_ms,
                "{label}: the empty call bills it"
            );
            assert_eq!(
                real.breakdown.bvh_ms, 0.0,
                "{label}: the real call does not"
            );
        }
    }
}
