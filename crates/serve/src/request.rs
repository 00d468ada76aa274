//! The request/response vocabulary of the query service.

use rtnn::QueryPlan;
use rtnn::SearchError;
use rtnn_math::Vec3;

/// One point-query request: a set of query positions plus the plan to
/// answer them with (any [`QueryPlan`] — KNN, range, or a heterogeneous
/// batch with absolute ids into `queries`).
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Query positions, in the order the response's neighbor lists use.
    pub queries: Vec<Vec3>,
    /// The plan to answer them with.
    pub plan: QueryPlan,
}

impl Request {
    /// A request answering `plan` for `queries`.
    pub fn new(queries: Vec<Vec3>, plan: QueryPlan) -> Self {
        Request { queries, plan }
    }

    /// Telemetry span name for this request, keyed by plan kind
    /// (`serve.request.knn` / `.range` / `.batch`).
    pub fn span_name(&self) -> &'static str {
        match self.plan.kind_label() {
            "knn" => "serve.request.knn",
            "range" => "serve.request.range",
            _ => "serve.request.batch",
        }
    }

    /// Telemetry latency-histogram name for this request, keyed by plan
    /// kind (`serve.latency.knn` / `.range` / `.batch`). Units follow
    /// [`ServiceStats::latencies`](crate::ServiceStats::latencies): wall
    /// microseconds on the live service, virtual milliseconds in the load
    /// harness.
    pub fn latency_histogram(&self) -> &'static str {
        match self.plan.kind_label() {
            "knn" => "serve.latency.knn",
            "range" => "serve.latency.range",
            _ => "serve.latency.batch",
        }
    }
}

/// Per-request serving statistics, reported with every [`Response`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RequestStats {
    /// Wall microseconds from submission to response (live service) or
    /// virtual milliseconds of sojourn time (load harness).
    pub latency_us: f64,
    /// How many requests shared this request's execution tick (1 when the
    /// request executed alone).
    pub tick_requests: usize,
    /// Simulated milliseconds of the tick that served this request.
    pub tick_sim_ms: f64,
}

/// The outcome of one request: per-query neighbor lists in the request's
/// query order — bit-equal to what a direct `Index::query` call would have
/// returned — or the typed error its plan failed validation with.
#[derive(Debug, Clone)]
pub struct Response {
    /// Per-query neighbor ids (global point ids), or the plan error.
    pub outcome: Result<Vec<Vec<u32>>, SearchError>,
    /// Serving statistics.
    pub stats: RequestStats,
}

impl Response {
    /// The neighbor lists, panicking on an error response (tests/examples).
    pub fn neighbors(&self) -> &Vec<Vec<u32>> {
        self.outcome.as_ref().expect("request failed")
    }
}
