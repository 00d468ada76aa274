//! `serve-mixed`: a live `QueryService` (default `ServeConfig`) over a
//! 2-shard `ShardedIndex` of the `kitti-knn` cloud. One client thread
//! keeps 4 requests of 64 queries outstanding (closed loop); plans rotate
//! through `knn(r, 8)`, `range(0.8r, 64)` and `knn(1.4r, 4)`. One operation
//! is one request, timed from submit to reply.
//!
//! Small requests put dispatch, coalescing and shard fan-out and merge on
//! the critical path.

use crate::check::{range_mismatches, SplitMix};
use crate::host::{HostMark, HostWindow};
use crate::layers::{bvh_layers, pipeline_layers, ExecSample, Probe};
use crate::report::Outcome;
use crate::stats::{mean, median};
use crate::trace::Span;
use crate::RunConfig;
use rtnn::{
    CostCoefficients, EngineConfig, GpusimBackend, Index, QueryPlan, SearchError, SearchResults,
    StageOverrides,
};
use rtnn_data::{Dataset, DatasetName};
use rtnn_gpusim::Device;
use rtnn_math::Vec3;
use rtnn_serve::{PendingResponse, QueryService, Request, ServeConfig, ShardedIndex, TickExecutor};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

const SHARDS: usize = 2;
const OUTSTANDING: usize = 4;
const QUERIES_PER_REQUEST: usize = 64;
/// Distinct requests the client cycles through (a multiple of the three
/// plans times the requests in flight).
const POOL: usize = 1200;
const SETUPS: usize = 5;
/// Enough requests for p99 to keep ten samples beyond it.
const MIN_OPS: usize = 1100;
/// The traced run alternates untraced and traced blocks of this many
/// requests, so `trace.overhead_pct` compares interleaved samples.
const TRACE_BLOCK: u64 = 100;
/// One response in this many is compared with a direct `Index::query`.
const CHECK_ONE_IN: u64 = 8;

/// One tick as the executor wrapper saw it.
struct Tick {
    start: Instant,
    end: Instant,
    first_request: u64,
    requests: u64,
    exec: ExecSample,
    slowest_shard_host_ms: f64,
    skew: f64,
}

/// A `TickExecutor` that delegates every method to the `ShardedIndex` and,
/// while `traced` is set, times each tick and keeps its pipeline report.
/// The service runs requests first in, first out and the client submits
/// from one thread, so a running count of requests maps ticks to requests.
struct MeteredShards<'a, 'f> {
    inner: ShardedIndex<'a>,
    traced: &'f AtomicBool,
    requests_seen: u64,
    ticks_seen: u64,
    ticks: Vec<Tick>,
}

impl MeteredShards<'_, '_> {
    fn record(&mut self, queries: usize, start: Instant, res: &Result<SearchResults, SearchError>) {
        let end = Instant::now();
        let requests = (queries / QUERIES_PER_REQUEST) as u64;
        let first_request = self.requests_seen;
        self.requests_seen += requests;
        self.ticks_seen += 1;
        let Ok(res) = res else { return };
        if !self.traced.load(Ordering::Relaxed) {
            return;
        }
        let ms = end.duration_since(start).as_secs_f64() * 1e3;
        let timing = self.inner.last_timing();
        self.ticks.push(Tick {
            start,
            end,
            first_request,
            requests,
            exec: ExecSample::new(res, ms),
            slowest_shard_host_ms: timing
                .per_shard_traces
                .iter()
                .map(|t| t.host_total_ms())
                .fold(0.0, f64::max),
            skew: self.inner.last_shard_skew(),
        });
    }
}

impl TickExecutor for MeteredShards<'_, '_> {
    fn execute(
        &mut self,
        queries: &[Vec3],
        plan: &QueryPlan,
    ) -> Result<SearchResults, SearchError> {
        let start = Instant::now();
        let res = self.inner.execute(queries, plan);
        self.record(queries.len(), start, &res);
        res
    }

    fn execute_with(
        &mut self,
        queries: &[Vec3],
        plan: &QueryPlan,
        overrides: StageOverrides<'_>,
    ) -> Result<SearchResults, SearchError> {
        let start = Instant::now();
        let res = self.inner.execute_with(queries, plan, overrides);
        self.record(queries.len(), start, &res);
        res
    }

    fn tuner_signature(&self) -> Option<(usize, &'static str)> {
        self.inner.tuner_signature()
    }

    fn calibrated_cost(&self) -> Option<CostCoefficients> {
        self.inner.calibrated_cost()
    }

    fn last_shard_skew(&self) -> f64 {
        self.inner.last_shard_skew()
    }
}

/// One measured request, as the client saw it.
struct Reply {
    seq: u64,
    submitted: Instant,
    done: Instant,
    traced: bool,
    tick_requests: usize,
    tick_sim_ms: f64,
}

impl Reply {
    fn ms(&self) -> f64 {
        self.done.duration_since(self.submitted).as_secs_f64() * 1e3
    }
}

/// What the measured client loop collected.
#[derive(Default)]
struct ClientLog {
    replies: Vec<Reply>,
    failed: u64,
    /// Sampled `(pool index, neighbors)` responses to check afterwards.
    sampled: Vec<(usize, Vec<Vec<u32>>)>,
    host: HostWindow,
}

/// Drive the service closed loop until `cfg.seconds` have passed and at
/// least `MIN_OPS` requests completed, then drain.
fn client_loop(
    client: &rtnn_serve::ServiceClient,
    pool: &[Request],
    cfg: &RunConfig,
    traced: &AtomicBool,
) -> Result<ClientLog, String> {
    let mut log = ClientLog::default();
    let mut inflight: VecDeque<(u64, Instant, PendingResponse)> = VecDeque::new();
    // Request 0 answered the set-up.
    let mut next_seq = 1u64;
    let mark = HostMark::now()?;
    let start = Instant::now();
    loop {
        let stop =
            log.replies.len() + log.failed as usize >= MIN_OPS && start.elapsed() >= cfg.seconds;
        while !stop && inflight.len() < OUTSTANDING {
            let seq = next_seq;
            next_seq += 1;
            traced.store(cfg.trace && (seq / TRACE_BLOCK) % 2 == 1, Ordering::Relaxed);
            let request = pool[seq as usize % POOL].clone();
            let submitted = Instant::now();
            inflight.push_back((seq, submitted, client.submit(request)));
        }
        let Some((seq, submitted, pending)) = inflight.pop_front() else {
            break;
        };
        let response = pending.wait();
        let done = Instant::now();
        let neighbors = match response.outcome {
            Ok(neighbors) => neighbors,
            Err(e) => {
                eprintln!("serve-mixed: request {seq} failed: {e:?}");
                log.failed += 1;
                continue;
            }
        };
        if SplitMix::new(cfg.seed ^ seq).below(CHECK_ONE_IN as usize) == 0 {
            log.sampled.push((seq as usize % POOL, neighbors));
        }
        log.replies.push(Reply {
            seq,
            submitted,
            done,
            traced: cfg.trace && (seq / TRACE_BLOCK) % 2 == 1,
            tick_requests: response.stats.tick_requests,
            tick_sim_ms: response.stats.tick_sim_ms,
        });
    }
    log.host = HostWindow::between(&mark, &HostMark::now()?);
    Ok(log)
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let device = Device::rtx_2080();
    let backend = GpusimBackend::new(&device);
    let cloud = Dataset {
        seed: cfg.seed,
        ..Dataset::scaled(DatasetName::Kitti1M, 10)
    }
    .generate();
    let queries = cloud.queries_subsampled(4);
    let points = cloud.points;
    let r = 10f32.sqrt();
    let plans = [
        QueryPlan::knn(r, 8),
        QueryPlan::range(0.8 * r, 64),
        QueryPlan::knn(1.4 * r, 4),
    ];
    // Each request asks about 64 consecutive queries of the scan from a
    // seeded starting point.
    let mut rng = SplitMix::new(cfg.seed ^ 0x0073_6572_7665);
    let pool: Vec<Request> = (0..POOL)
        .map(|j| {
            let at = rng.below(queries.len() - QUERIES_PER_REQUEST);
            Request::new(
                queries[at..at + QUERIES_PER_REQUEST].to_vec(),
                plans[j % plans.len()].clone(),
            )
        })
        .collect();

    let mut out = Outcome::default();
    let traced = AtomicBool::new(false);
    let mut warm_ms = Vec::new();
    let mut session = None;
    for s in 0..SETUPS {
        let measure = s + 1 == SETUPS;
        let t0 = Instant::now();
        let mut sharded = ShardedIndex::build(&backend, &points, EngineConfig::default(), SHARDS);
        let t1 = Instant::now();
        for plan in &plans {
            sharded
                .warm(plan)
                .map_err(|e| format!("ShardedIndex::warm failed: {e:?}"))?;
        }
        let t2 = Instant::now();
        let (service, client) = QueryService::new(ServeConfig::default());
        let mut metered = MeteredShards {
            inner: sharded,
            traced: &traced,
            requests_seen: 0,
            ticks_seen: 0,
            ticks: Vec::new(),
        };
        let (first_ok, t3, log, metered) = std::thread::scope(|scope| {
            let dispatcher = scope.spawn(move || {
                service.run(&mut metered);
                metered
            });
            let first = client.call(pool[0].clone());
            let t3 = Instant::now();
            let log = if measure {
                Some(client_loop(&client, &pool, cfg, &traced))
            } else {
                None
            };
            drop(client);
            let metered = dispatcher.join().expect("the dispatcher thread panicked");
            (first.outcome.is_ok(), t3, log, metered)
        });
        if !first_ok {
            return Err("the set-up request failed".into());
        }
        out.setups.push((t0, t3));
        warm_ms.push(t2.duration_since(t1).as_secs_f64() * 1e3);
        if cfg.trace {
            let root = Span::new("setup", s as u64, t0, t3);
            out.spans.extend([
                Span::new("serve.sharded_index.build", s as u64, t0, t1).child_of(root.id),
                Span::new("serve.sharded_index.warm", s as u64, t1, t2).child_of(root.id),
                Span::new("serve.first_request", s as u64, t2, t3).child_of(root.id),
                root,
            ]);
        }
        if let Some(log) = log {
            session = Some((log?, metered));
        }
    }
    let (log, metered) = session.expect("the last set-up measured");

    out.attempted = log.replies.len() as u64 + log.failed;
    out.failed = log.failed;
    out.ops_done = log.replies.len() as u64;
    out.host = log.host;
    for reply in log.replies.iter().filter(|r| !r.traced) {
        out.ops.push((reply.submitted, reply.done));
    }
    // Simulated device ms per request: each tick's time shared among the
    // requests it carried.
    out.device_ms = mean(
        &log.replies
            .iter()
            .map(|r| r.tick_sim_ms / r.tick_requests.max(1) as f64)
            .collect::<Vec<_>>(),
    );
    let mut per_tick: BTreeMap<usize, usize> = BTreeMap::new();
    for r in &log.replies {
        *per_tick.entry(r.tick_requests).or_default() += 1;
    }
    let histogram: Vec<String> = per_tick
        .iter()
        .map(|(size, n)| format!("\"{size}\": {}", n / size.max(&1)))
        .collect();
    out.notes
        .push(("ticks_by_requests", format!("{{{}}}", histogram.join(", "))));

    // Sampled responses against direct queries on an unsharded index:
    // k-NN lists bit-equal; a capped range answer may hold any `cap`
    // in-range neighbors, so it is checked like the oracle checks range.
    let mut direct = Index::build(&backend, &points[..], EngineConfig::default());
    for (j, got) in &log.sampled {
        let req = &pool[*j];
        let wrong = match req.plan {
            QueryPlan::Range { r, cap } => {
                range_mismatches(&mut direct, &req.queries, got, r, cap)?
            }
            _ => {
                let want = direct
                    .query(&req.queries, &req.plan)
                    .map_err(|e| format!("direct Index::query failed: {e:?}"))?;
                usize::from(want.neighbors != *got)
            }
        };
        if wrong > 0 {
            out.failed += 1;
        }
    }
    out.notes
        .push(("responses_checked", log.sampled.len().to_string()));

    if cfg.trace {
        trace_layers(&mut out, &log, &metered, &pool, &points, r, &warm_ms);
        out.layers
            .insert("core.structures", direct.cached_structures() as f64);
    }
    Ok(out)
}

fn trace_layers(
    out: &mut Outcome,
    log: &ClientLog,
    metered: &MeteredShards<'_, '_>,
    pool: &[Request],
    points: &[Vec3],
    r: f32,
    warm_ms: &[f64],
) {
    let untraced_ms = median(&out.op_ms());
    let ticks = &metered.ticks;
    let tick_ms: Vec<f64> = ticks
        .iter()
        .map(|t| t.end.duration_since(t.start).as_secs_f64() * 1e3)
        .collect();
    let execs: Vec<ExecSample> = ticks.iter().map(|t| t.exec.clone()).collect();
    pipeline_layers(&execs, &mut out.layers);
    let layers = &mut out.layers;
    layers.insert("core.warm_ms", median(warm_ms));

    // Measured ticks and requests, leaving out the set-up request's tick.
    let measured_ticks = metered.ticks_seen.saturating_sub(1);
    let requests_per_tick = log.replies.len() as f64 / measured_ticks.max(1) as f64;
    layers.insert("serve.ticks", measured_ticks as f64);
    layers.insert("serve.requests_per_tick", requests_per_tick);
    layers.insert("serve.exec_ms_p50", median(&tick_ms));
    layers.insert(
        "serve.shard_skew",
        mean(&ticks.iter().map(|t| t.skew).collect::<Vec<_>>()),
    );
    layers.insert(
        "serve.fanout_ms",
        median(
            &ticks
                .iter()
                .zip(&tick_ms)
                .map(|(t, ms)| ms - t.slowest_shard_host_ms)
                .collect::<Vec<_>>(),
        ),
    );

    // Each traced request's tick, by its place in the first-in-first-out
    // order; busy time is traced tick time over the wall the traced
    // requests span (the gaps between consecutive replies).
    let tick_of = |seq: u64| {
        ticks
            .iter()
            .position(|t| t.first_request <= seq && seq < t.first_request + t.requests)
    };
    let mut waits = Vec::new();
    let mut traced_wall_ms = 0.0;
    let mut request_spans: HashMap<u64, u64> = HashMap::new();
    for (i, reply) in log.replies.iter().enumerate() {
        if !reply.traced {
            continue;
        }
        if i > 0 {
            traced_wall_ms += reply
                .done
                .duration_since(log.replies[i - 1].done)
                .as_secs_f64()
                * 1e3;
        }
        let span = Span::new("serve.request", reply.seq, reply.submitted, reply.done)
            .attr("tick_requests", reply.tick_requests as f64)
            .attr("tick_sim_ms", reply.tick_sim_ms);
        request_spans.insert(reply.seq, span.id);
        out.spans.push(span);
        if let Some(t) = tick_of(reply.seq) {
            waits.push(reply.ms() - tick_ms[t]);
        }
    }
    for (t, ms) in ticks.iter().zip(&tick_ms) {
        let mut span = Span::new("serve.tick_executor", t.first_request, t.start, t.end)
            .attr("requests", t.requests as f64)
            .attr("exec_ms", *ms)
            .attr("shard_skew", t.skew);
        if let Some(&parent) = request_spans.get(&t.first_request) {
            span = span.child_of(parent);
        }
        out.spans.push(span);
    }
    let layers = &mut out.layers;
    layers.insert("serve.wait_ms_p50", median(&waits));
    layers.insert(
        "serve.busy_frac",
        if traced_wall_ms > 0.0 {
            tick_ms.iter().sum::<f64>() / traced_wall_ms
        } else {
            0.0
        },
    );

    // Plain traversal of the whole request pool on a BVH wide enough for
    // every plan, scaled to one tick's worth of requests.
    let probes: Vec<Probe> = pool
        .iter()
        .flat_map(|req| {
            let (radius, cap) = match req.plan {
                QueryPlan::Knn { r, .. } => (r, usize::MAX),
                QueryPlan::Range { r, cap } => (r, cap),
                QueryPlan::Batch(_) => unreachable!("the pool holds single plans"),
            };
            req.queries.iter().map(move |&q| (q, radius, cap))
        })
        .collect();
    let (build_ms, pool_traverse_ms) = bvh_layers(
        points,
        1.4 * r,
        &probes,
        3,
        log.replies.len() as u64 + 1,
        &mut out.spans,
    );
    let traverse_ms = pool_traverse_ms * requests_per_tick / pool.len() as f64;
    let layers = &mut out.layers;
    layers.insert("bvh.build_ms", build_ms);
    layers.insert("bvh.traverse_ms", traverse_ms);
    layers.insert(
        "sim.accounting_ms",
        layers["core.launch.host_ms"] - traverse_ms,
    );
    let traced: Vec<f64> = log
        .replies
        .iter()
        .filter(|r| r.traced)
        .map(Reply::ms)
        .collect();
    layers.insert(
        "trace.overhead_pct",
        (median(&traced) / untraced_ms - 1.0) * 100.0,
    );
}
