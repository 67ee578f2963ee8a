//! Request handling: routing, parameter parsing, canonical request keys,
//! and the endpoint handlers.
//!
//! ## Endpoint contracts
//!
//! * `POST /summarize` — body (all fields optional): `dataset` (a preset
//!   name from [`presets`] or an inline `{users, movies, ratings_per_user,
//!   seed}` object), `selection` (`{"all": true}`, `{"search": s}`,
//!   `{"genre": g, "year": y}`, or `{"titles": [..]}`), `w_dist`,
//!   `target_dist`, `target_size`, `steps`, `agg` (`"MAX"|"MIN"|"SUM"|
//!   "COUNT"`), and `budget_steps` (a deterministic step cap). The
//!   wall-clock budget comes from the `X-Prox-Budget-Ms` header (server
//!   default otherwise); a mid-run budget trip returns `200` with the
//!   best-so-far summary and its `stop_reason`, only *upfront* exhaustion
//!   is `408`.
//! * `POST /provision` — the same fields plus a required `cancel`:
//!   `{"annotations": [names..]}` or `{"attributes": [[attr, value]..]}`;
//!   evaluates the assignment on both the original provenance and the
//!   summary (§7's provisioning view).
//! * `GET /datasets` — the preset catalog with titles.
//! * `GET /healthz`, `GET /metrics` — liveness and the prox-obs snapshot.
//!
//! ## Error → status mapping
//!
//! [`ErrorKind::Input`] → 400, [`ErrorKind::Budget`] → 408,
//! [`ErrorKind::Internal`] → 500; unknown path → 404, wrong method → 405;
//! a full admission queue is shed by the server with 503 + `Retry-After`.
//!
//! ## Cache keying
//!
//! [`canonical_key`] renders every result-determining parameter — dataset
//! generator config (including seed), selection, weights, bounds, `agg`,
//! `budget_steps` — as sorted JSON. Wall-clock budgets are deliberately
//! excluded: they do not change what a *completed* run returns, and runs
//! cut short by wall-clock (`deadline_exceeded`/`cancelled`) are never
//! cached. Identical seeded requests therefore produce byte-identical
//! bodies whether computed or served from cache.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use prox_datasets::{MovieLens, MovieLensConfig};
use prox_obs::{
    keep_sampled, trace_id_from, window, Counter, Json, RetainReason, RetainedTrace, SpanTimer,
    TraceContext, TraceRing, PROMETHEUS_CONTENT_TYPE,
};
use prox_provenance::AggKind;
use prox_robust::{CancelFlag, ErrorKind, ExecutionBudget, ProxError};
use prox_store::SegmentStore;
use prox_system::evaluator::{evaluate_both, Assignment, Evaluation};
use prox_system::selection::{select, Selection};
use prox_system::summarization::{
    summarize, summarize_selection, SummarizationRequest, Summarized,
};

use prox_core::{StopReason, SummarizeConfig};

use crate::cache::{fingerprint, SummaryCache};
use crate::health::{Health, HealthState};
use crate::http::{Request, Response};
use crate::lock;
use crate::ratelimit::{self, Admission, RateLimiter};
use crate::server::ServerConfig;

static REQUESTS: Counter = Counter::new("serve/requests");
static ERRORS: Counter = Counter::new("serve/errors");
/// One observed request end to end; the root of its trace ("request").
static SPAN_REQUEST: SpanTimer = SpanTimer::new("serve/request");
/// A `/summarize/store` read's fold of the store ("store_fold"), noted
/// with the log records, frames and page misses it read.
static SPAN_STORE_FOLD: SpanTimer = SpanTimer::new("serve/store_fold");

/// Shared per-server state handed to every worker.
pub struct ServiceCtx {
    /// The response cache (LRU over canonical request keys).
    pub cache: Mutex<SummaryCache>,
    /// Wall-clock budget applied when no `X-Prox-Budget-Ms` is sent.
    pub default_budget_ms: u64,
    /// Cancelled on shutdown; every request budget carries a clone so
    /// in-flight runs degrade to best-so-far promptly.
    pub shutdown: CancelFlag,
    /// Process health (`healthy`/`degraded`/`draining`), fed by worker
    /// supervision and surfaced on `/healthz`.
    pub health: Health,
    /// Per-tenant token buckets (`X-Prox-Tenant`).
    pub limiter: Mutex<RateLimiter>,
    /// Retained request traces, tail-sampled (`/debug/traces`).
    pub traces: TraceRing,
    /// Seed feeding both deterministic trace ids and the sampling hash.
    pub trace_seed: u64,
    /// Retention rate for *healthy* requests in `[0,1]`; errored,
    /// degraded, and slow requests are always retained.
    pub trace_sample_rate: f64,
    /// Slow-request threshold in milliseconds (`PROX_SLOW_MS`); `0`
    /// disables the slow classification and the slow-request log.
    pub slow_ms: u64,
    /// Optional segment store (`--store <dir>`): summaries on
    /// `/summarize/store` are served straight off its pages.
    pub store: Option<StoreState>,
    /// Process-local request sequence number (trace-id input).
    seq: AtomicU64,
}

/// An attached segment store and the directory it was opened from.
/// Reads mutate the page cache, so handlers lock the store per request.
pub struct StoreState {
    dir: String,
    store: Mutex<SegmentStore>,
}

impl StoreState {
    /// Open the store under `dir` with the default page-cache bounds.
    pub fn open(dir: &str) -> Result<StoreState, ProxError> {
        let store = SegmentStore::open(std::path::Path::new(dir))?;
        Ok(StoreState {
            dir: dir.to_owned(),
            store: Mutex::new(store),
        })
    }

    /// The directory the store was opened from.
    pub fn dir(&self) -> &str {
        &self.dir
    }
}

impl ServiceCtx {
    /// Fresh context with an empty cache and the trace and tenant
    /// settings of [`ServerConfig::default`].
    pub fn new(cache_capacity: usize, default_budget_ms: u64, shutdown: CancelFlag) -> Self {
        ServiceCtx::from_config(
            &ServerConfig {
                cache_capacity,
                default_budget_ms,
                ..ServerConfig::default()
            },
            shutdown,
        )
    }

    /// The context a server with `config` hands its workers, without the
    /// store (see [`ServiceCtx::with_store`]). The limiter's clock follows
    /// `PROX_DETERMINISTIC`; the slow threshold comes from `PROX_SLOW_MS`.
    pub(crate) fn from_config(config: &ServerConfig, shutdown: CancelFlag) -> Self {
        let deterministic = prox_obs::deterministic_mode();
        ServiceCtx {
            cache: Mutex::new(SummaryCache::new(config.cache_capacity)),
            default_budget_ms: config.default_budget_ms,
            shutdown,
            health: Health::new(),
            limiter: Mutex::new(RateLimiter::new(
                config.tenant_rate,
                config.tenant_burst,
                deterministic,
            )),
            traces: TraceRing::new(config.trace_capacity),
            trace_seed: config.trace_seed,
            trace_sample_rate: config.trace_sample_rate,
            slow_ms: slow_ms_from_env(),
            store: None,
            seq: AtomicU64::new(0),
        }
    }

    /// Attach an opened segment store (see [`StoreState::open`]); enables
    /// the `/summarize/store` and `/store/stats` endpoints.
    pub fn with_store(mut self, store: StoreState) -> Self {
        self.store = Some(store);
        self
    }
}

/// The slow-request threshold (`PROX_SLOW_MS`, milliseconds); unset,
/// empty, or unparseable means disabled.
fn slow_ms_from_env() -> u64 {
    std::env::var("PROX_SLOW_MS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// The `demo` preset: the dataset a request without `dataset` runs on,
/// the base an inline `dataset` object overrides, and the CLI's default.
pub const DEMO_DATASET: MovieLensConfig = MovieLensConfig {
    users: 40,
    movies: 8,
    ratings_per_user: 2,
    seed: 2016,
};

/// The built-in dataset catalog: `(name, generator config)`.
pub fn presets() -> Vec<(&'static str, MovieLensConfig)> {
    vec![
        ("demo", DEMO_DATASET),
        (
            "small",
            MovieLensConfig {
                users: 15,
                movies: 5,
                ratings_per_user: 2,
                seed: 3,
            },
        ),
        (
            "dense",
            MovieLensConfig {
                users: 40,
                movies: 8,
                ratings_per_user: 3,
                seed: 11,
            },
        ),
        (
            "wide",
            MovieLensConfig {
                users: 20,
                movies: 14,
                ratings_per_user: 3,
                seed: 11,
            },
        ),
    ]
}

/// A fully resolved `/summarize` or `/provision` request.
#[derive(Clone, Debug)]
pub struct Params {
    /// Generator config (from a preset or inline).
    pub dataset: MovieLensConfig,
    /// Catalog name, or `"custom"` for inline configs.
    pub dataset_name: String,
    /// What to select before summarizing.
    pub selection: Selection,
    /// Distance weight (`wDist`).
    pub w_dist: f64,
    /// Distance bound (`TARGET-DIST`).
    pub target_dist: f64,
    /// Size bound (`TARGET-SIZE`).
    pub target_size: usize,
    /// Maximum merge steps.
    pub steps: usize,
    /// Aggregation function.
    pub agg: AggKind,
    /// Optional deterministic budget step cap.
    pub budget_steps: Option<usize>,
    /// Provisioning assignment (`/provision` only).
    pub cancel: Option<Assignment>,
}

impl Default for Params {
    fn default() -> Self {
        let defaults = SummarizationRequest::default();
        Params {
            dataset: DEMO_DATASET,
            dataset_name: "demo".to_owned(),
            selection: Selection::All,
            w_dist: defaults.w_dist,
            target_dist: defaults.target_dist,
            target_size: defaults.target_size,
            steps: defaults.steps,
            agg: defaults.aggregation,
            budget_steps: None,
            cancel: None,
        }
    }
}

fn bad(message: impl Into<String>) -> ProxError {
    ProxError::config(message)
}

fn f64_of(value: &Json, what: &str) -> Result<f64, ProxError> {
    match value {
        Json::Float(f) => Ok(*f),
        Json::UInt(u) => Ok(*u as f64),
        Json::Int(i) => Ok(*i as f64),
        other => Err(bad(format!("{what} must be a number, got {other:?}"))),
    }
}

fn usize_of(value: &Json, what: &str) -> Result<usize, ProxError> {
    value
        .as_u64()
        .map(|u| u as usize)
        .ok_or_else(|| bad(format!("{what} must be a non-negative integer")))
}

fn str_of<'a>(value: &'a Json, what: &str) -> Result<&'a str, ProxError> {
    value
        .as_str()
        .ok_or_else(|| bad(format!("{what} must be a string")))
}

fn agg_of(name: &str) -> Result<AggKind, ProxError> {
    match name {
        "MAX" => Ok(AggKind::Max),
        "MIN" => Ok(AggKind::Min),
        "SUM" => Ok(AggKind::Sum),
        "COUNT" => Ok(AggKind::Count),
        other => Err(bad(format!(
            "unknown agg {other:?} (expected MAX|MIN|SUM|COUNT)"
        ))),
    }
}

fn dataset_of(value: &Json) -> Result<(MovieLensConfig, String), ProxError> {
    if let Json::Str(name) = value {
        return presets()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(n, cfg)| (cfg, n.to_owned()))
            .ok_or_else(|| {
                bad(format!(
                    "unknown dataset preset {name:?} (see GET /datasets)"
                ))
            });
    }
    let entries = match value {
        Json::Obj(entries) => entries,
        other => {
            return Err(bad(format!(
                "dataset must be a preset name or an object, got {other:?}"
            )))
        }
    };
    let mut cfg = DEMO_DATASET;
    for (key, v) in entries {
        match key.as_str() {
            "users" => cfg.users = usize_of(v, "dataset.users")?,
            "movies" => cfg.movies = usize_of(v, "dataset.movies")?,
            "ratings_per_user" => cfg.ratings_per_user = usize_of(v, "dataset.ratings_per_user")?,
            "seed" => {
                cfg.seed = v
                    .as_u64()
                    .ok_or_else(|| bad("dataset.seed must be a non-negative integer"))?
            }
            other => return Err(bad(format!("unknown dataset field {other:?}"))),
        }
    }
    // Sanity caps: the generator is synthetic and cheap, but a service
    // endpoint must bound the work a single request can demand.
    if cfg.users == 0 || cfg.users > 2_000 {
        return Err(bad("dataset.users must be in 1..=2000"));
    }
    if cfg.movies == 0 || cfg.movies > 500 {
        return Err(bad("dataset.movies must be in 1..=500"));
    }
    if cfg.ratings_per_user == 0 || cfg.ratings_per_user > 50 {
        return Err(bad("dataset.ratings_per_user must be in 1..=50"));
    }
    Ok((cfg, "custom".to_owned()))
}

fn selection_of(value: &Json) -> Result<Selection, ProxError> {
    let entries = match value {
        Json::Obj(entries) => entries,
        other => return Err(bad(format!("selection must be an object, got {other:?}"))),
    };
    let mut genre: Option<String> = None;
    let mut year: Option<i32> = None;
    let mut picked: Option<Selection> = None;
    let mut saw_genre_year = false;
    for (key, v) in entries {
        match key.as_str() {
            "all" => picked = Some(Selection::All),
            "search" => picked = Some(Selection::Search(str_of(v, "selection.search")?.to_owned())),
            "titles" => picked = Some(Selection::Titles(strings_of(v, "selection.titles")?)),
            "genre" => {
                genre = Some(str_of(v, "selection.genre")?.to_owned());
                saw_genre_year = true;
            }
            "year" => {
                let y = f64_of(v, "selection.year")?;
                year = Some(y as i32);
                saw_genre_year = true;
            }
            other => return Err(bad(format!("unknown selection field {other:?}"))),
        }
    }
    match (picked, saw_genre_year) {
        (Some(_), true) => Err(bad("selection mixes genre/year with another form")),
        (Some(selection), false) => Ok(selection),
        (None, true) => Ok(Selection::GenreYear { genre, year }),
        (None, false) => Err(bad("selection object is empty")),
    }
}

/// Parse a JSON array of strings, naming `ctx` in any error.
fn strings_of(value: &Json, ctx: &str) -> Result<Vec<String>, ProxError> {
    let items = match value {
        Json::Arr(items) => items,
        other => return Err(bad(format!("{ctx} must be an array, got {other:?}"))),
    };
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        out.push(str_of(item, ctx)?.to_owned());
    }
    Ok(out)
}

fn cancel_of(value: &Json) -> Result<Assignment, ProxError> {
    let entries = match value {
        Json::Obj(entries) => entries,
        other => return Err(bad(format!("cancel must be an object, got {other:?}"))),
    };
    if entries.len() != 1 {
        return Err(bad(
            "cancel must have exactly one of annotations|attributes",
        ));
    }
    let (key, v) = &entries[0];
    match key.as_str() {
        "annotations" => Ok(Assignment::FalseAnnotations(strings_of(
            v,
            "cancel.annotations",
        )?)),
        "attributes" => {
            let items = match v {
                Json::Arr(items) => items,
                other => {
                    return Err(bad(format!(
                        "cancel.attributes must be an array, got {other:?}"
                    )))
                }
            };
            let mut pairs = Vec::with_capacity(items.len());
            for pair in items {
                let parts = match pair {
                    Json::Arr(parts) if parts.len() == 2 => parts,
                    other => {
                        return Err(bad(format!(
                            "cancel.attributes[] must be [attr, value] pairs, got {other:?}"
                        )))
                    }
                };
                pairs.push((
                    str_of(&parts[0], "cancel.attributes[].attr")?.to_owned(),
                    str_of(&parts[1], "cancel.attributes[].value")?.to_owned(),
                ));
            }
            Ok(Assignment::FalseAttributes(pairs))
        }
        other => Err(bad(format!("unknown cancel form {other:?}"))),
    }
}

/// The fields of a request body, which must be a JSON object; an empty
/// body has none.
fn body_fields(body: &[u8]) -> Result<Vec<(String, Json)>, ProxError> {
    let text = std::str::from_utf8(body)
        .map_err(|e| bad(format!("body is not UTF-8 at byte {}", e.valid_up_to())))?;
    if text.trim().is_empty() {
        return Ok(Vec::new());
    }
    match Json::parse(text).map_err(|e| bad(format!("body is not valid JSON: {e}")))? {
        Json::Obj(entries) => Ok(entries),
        other => Err(bad(format!("body must be a JSON object, got {other:?}"))),
    }
}

/// Parse a request body into [`Params`]. An empty body means defaults;
/// unknown fields are rejected so typos surface as `400`s.
pub fn parse_params(body: &[u8]) -> Result<Params, ProxError> {
    let mut params = Params::default();
    for (key, v) in &body_fields(body)? {
        match key.as_str() {
            "dataset" => {
                let (cfg, name) = dataset_of(v)?;
                params.dataset = cfg;
                params.dataset_name = name;
            }
            "selection" => params.selection = selection_of(v)?,
            "w_dist" => params.w_dist = f64_of(v, "w_dist")?,
            "target_dist" => params.target_dist = f64_of(v, "target_dist")?,
            "target_size" => params.target_size = usize_of(v, "target_size")?,
            "steps" => params.steps = usize_of(v, "steps")?,
            "agg" => params.agg = agg_of(str_of(v, "agg")?)?,
            "budget_steps" => params.budget_steps = Some(usize_of(v, "budget_steps")?),
            "cancel" => params.cancel = Some(cancel_of(v)?),
            other => return Err(bad(format!("unknown field {other:?}"))),
        }
    }
    Ok(params)
}

fn selection_json(selection: &Selection) -> Json {
    match selection {
        Selection::All => Json::obj().with("all", true),
        Selection::Search(s) => Json::obj().with("search", s.as_str()),
        Selection::Titles(titles) => Json::obj().with(
            "titles",
            Json::Arr(titles.iter().map(|t| Json::from(t.as_str())).collect()),
        ),
        Selection::GenreYear { genre, year } => {
            let mut obj = Json::obj();
            if let Some(g) = genre {
                obj.set("genre", g.as_str());
            }
            if let Some(y) = year {
                obj.set("year", i64::from(*y));
            }
            obj
        }
    }
}

/// The canonical cache key: every result-determining parameter, sorted
/// and rendered. Wall-clock budgets are excluded by design (see module
/// docs).
pub fn canonical_key(params: &Params) -> String {
    Json::obj()
        .with(
            "dataset",
            Json::obj()
                .with("users", params.dataset.users)
                .with("movies", params.dataset.movies)
                .with("ratings_per_user", params.dataset.ratings_per_user)
                .with("seed", params.dataset.seed),
        )
        .with("selection", selection_json(&params.selection))
        .with("w_dist", params.w_dist)
        .with("target_dist", params.target_dist)
        .with("target_size", params.target_size)
        .with("steps", params.steps)
        .with("agg", params.agg.name())
        .with(
            "budget_steps",
            params.budget_steps.map_or(Json::Null, Json::from),
        )
        .sorted()
        .render()
}

/// Whether a result may be cached: runs cut short by wall-clock or
/// cancellation are not reproducible from the request alone.
fn cacheable(reason: StopReason) -> bool {
    !matches!(reason, StopReason::DeadlineExceeded | StopReason::Cancelled)
}

/// The typed 500 a supervised worker writes after catching a panicking
/// handler: the connection is still answered (never hung or reset), the
/// worker lives on, and the panic is visible in `serve/worker_panics`.
pub fn panic_response() -> Response {
    ERRORS.incr();
    Response::json(
        500,
        Json::obj()
            .with("error", "request handler panicked; worker recovered")
            .with("kind", "internal")
            .render(),
    )
}

/// Map a typed error onto the HTTP surface.
pub fn error_response(e: &ProxError) -> Response {
    ERRORS.incr();
    let status = match e.kind() {
        ErrorKind::Input => 400,
        ErrorKind::Budget => 408,
        ErrorKind::Internal => 500,
    };
    Response::json(
        status,
        Json::obj()
            .with("error", e.to_string())
            .with("kind", e.kind().to_string())
            .render(),
    )
}

fn budget_for(
    req: &Request,
    ctx: &ServiceCtx,
    budget_steps: Option<usize>,
    trace: Option<&TraceContext>,
) -> Result<ExecutionBudget, ProxError> {
    let ms = match req.header("x-prox-budget-ms") {
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| bad(format!("X-Prox-Budget-Ms must be an integer, got {v:?}")))?,
        None => ctx.default_budget_ms,
    };
    let mut budget = ExecutionBudget::unlimited()
        .with_deadline_ms(ms)
        .with_cancel(ctx.shutdown.clone());
    if let Some(steps) = budget_steps {
        budget = budget.with_max_steps(steps);
    }
    // The trace rides the budget into the summarizer, HAC, and candidate
    // enumeration — it is not a limit (see `ExecutionBudget::with_trace`).
    if let Some(t) = trace {
        budget = budget.with_trace(t.clone());
    }
    Ok(budget)
}

fn run_summarize(
    params: &Params,
    budget: ExecutionBudget,
) -> Result<(MovieLens, Summarized), ProxError> {
    let mut data = MovieLens::generate(params.dataset);
    let selected = select(&mut data, &params.selection, params.agg);
    if selected.movies.is_empty() {
        return Err(bad("selection matched no movies"));
    }
    let request = SummarizationRequest {
        w_dist: params.w_dist,
        target_dist: params.target_dist,
        target_size: params.target_size,
        steps: params.steps,
        aggregation: params.agg,
        budget,
        ..SummarizationRequest::default()
    };
    let out = summarize(&mut data, &selected, request)?;
    Ok((data, out))
}

fn summary_json(fp: &str, params: &Params, data: &MovieLens, out: &Summarized) -> Json {
    let names: Vec<Json> = out
        .result
        .summary
        .annotations()
        .into_iter()
        .map(|a| Json::from(data.store.name(a)))
        .collect();
    Json::obj()
        .with("request_fingerprint", fp)
        .with("dataset", params.dataset_name.as_str())
        .with("stop_reason", out.result.stop_reason.name())
        .with("initial_size", out.result.initial_size)
        .with("final_size", out.result.final_size())
        .with("final_distance", out.result.final_distance)
        .with("steps", out.result.history.len())
        .with("summary", Json::Arr(names))
}

fn summarize_route(
    req: &Request,
    ctx: &ServiceCtx,
    trace: Option<&TraceContext>,
) -> Result<Response, ProxError> {
    let params = parse_params(&req.body)?;
    // Fault site: an armed `panic` clause unwinds from here through the
    // worker supervision boundary, which answers a typed 500.
    prox_robust::fault::maybe_panic();
    let budget = budget_for(req, ctx, params.budget_steps, trace)?;
    let key = canonical_key(&params);
    if let Some(body) = lock(&ctx.cache).get(&key) {
        if let Some(t) = trace {
            t.note("cache", "hit");
        }
        return Ok(Response::json(200, body));
    }
    if let Some(t) = trace {
        t.note("cache", "miss");
    }
    let (data, out) = run_summarize(&params, budget)?;
    let body = summary_json(&fingerprint(&key), &params, &data, &out).render();
    if cacheable(out.result.stop_reason) {
        lock(&ctx.cache).put(key, body.clone());
    }
    Ok(Response::json(200, body))
}

fn rows_json(eval: &Evaluation) -> Json {
    // `eval_time_ns` is wall-clock and deliberately omitted: response
    // bodies must be byte-stable for identical seeded requests (rule L2).
    Json::Arr(
        eval.rows
            .iter()
            .map(|r| {
                Json::obj()
                    .with("title", r.title.as_str())
                    .with("aggregated", r.aggregated)
            })
            .collect(),
    )
}

fn provision_route(
    req: &Request,
    ctx: &ServiceCtx,
    trace: Option<&TraceContext>,
) -> Result<Response, ProxError> {
    let params = parse_params(&req.body)?;
    let assignment = params
        .cancel
        .clone()
        .ok_or_else(|| bad("/provision requires a cancel field"))?;
    let budget = budget_for(req, ctx, params.budget_steps, trace)?;
    let key = canonical_key(&params);
    let (data, out) = run_summarize(&params, budget)?;
    let (orig, summ) = evaluate_both(&out.original, &out.result.summary, &assignment, &data.store);
    let body = Json::obj()
        .with("request_fingerprint", fingerprint(&key).as_str())
        .with("stop_reason", out.result.stop_reason.name())
        .with("original", rows_json(&orig))
        .with("summary", rows_json(&summ))
        .render();
    Ok(Response::json(200, body))
}

/// Parameters for `/summarize/store`: a selection size over the store's
/// object order plus the usual summarization knobs.
struct StoreParams {
    objects: usize,
    w_dist: f64,
    target_dist: f64,
    target_size: usize,
    steps: usize,
    budget_steps: Option<usize>,
}

impl Default for StoreParams {
    fn default() -> Self {
        let defaults = SummarizationRequest::default();
        StoreParams {
            objects: 4,
            w_dist: defaults.w_dist,
            target_dist: defaults.target_dist,
            target_size: defaults.target_size,
            steps: defaults.steps,
            budget_steps: None,
        }
    }
}

fn parse_store_params(body: &[u8]) -> Result<StoreParams, ProxError> {
    let mut params = StoreParams::default();
    for (key, v) in &body_fields(body)? {
        match key.as_str() {
            "objects" => params.objects = usize_of(v, "objects")?,
            "w_dist" => params.w_dist = f64_of(v, "w_dist")?,
            "target_dist" => params.target_dist = f64_of(v, "target_dist")?,
            "target_size" => params.target_size = usize_of(v, "target_size")?,
            "steps" => params.steps = usize_of(v, "steps")?,
            "budget_steps" => params.budget_steps = Some(usize_of(v, "budget_steps")?),
            other => return Err(bad(format!("unknown field {other:?}"))),
        }
    }
    if params.objects == 0 {
        return Err(bad("objects must be at least 1"));
    }
    Ok(params)
}

/// Cache key for store summaries: the store directory is part of the key
/// so restarting against a different store never replays stale bodies.
fn store_key(params: &StoreParams, dir: &str) -> String {
    Json::obj()
        .with("store_dir", dir)
        .with("objects", params.objects)
        .with("w_dist", params.w_dist)
        .with("target_dist", params.target_dist)
        .with("target_size", params.target_size)
        .with("steps", params.steps)
        .with(
            "budget_steps",
            params.budget_steps.map_or(Json::Null, Json::from),
        )
        .sorted()
        .render()
}

/// `POST /summarize/store`: fold the attached segment store through its
/// page cache under the request budget, keeping only the first `objects`
/// objects in memory, and summarize that selection.
/// The anytime contract holds end to end — a budget trip mid-fold
/// surfaces as a `200` over the partial fold with `fold.stopped: true`.
fn store_summarize_route(
    req: &Request,
    ctx: &ServiceCtx,
    trace: Option<&TraceContext>,
) -> Result<Response, ProxError> {
    let Some(state) = &ctx.store else {
        return Err(bad("no segment store attached — start with --store <dir>"));
    };
    let params = parse_store_params(&req.body)?;
    let budget = budget_for(req, ctx, params.budget_steps, trace)?;
    let key = store_key(&params, state.dir());
    if let Some(body) = lock(&ctx.cache).get(&key) {
        if let Some(t) = trace {
            t.note("cache", "hit");
        }
        return Ok(Response::json(200, body));
    }
    if let Some(t) = trace {
        t.note("cache", "miss");
    }
    // The store guard is scoped to the fold and dropped before the
    // summarizer runs and before the response cache is touched again:
    // cache and store locks are never held together, in either order.
    // The run's summary annotations go in an overlay over the store's
    // annotation table, which no read copies.
    let mut session = budget.start();
    let (fold, mut anns) = {
        let mut store = lock(&state.store);
        let span = SPAN_STORE_FOLD.enter(trace);
        let misses = store.cache_stats().misses;
        let fold = store.fold(&mut session, params.objects)?;
        if let Some(t) = trace {
            t.note("records", fold.outcome.records_seen);
            t.note("frames", fold.frames);
            t.note("page_misses", store.cache_stats().misses - misses);
        }
        span.finish();
        (fold, store.overlay())
    };
    let config = SummarizeConfig {
        w_dist: params.w_dist,
        w_size: 1.0 - params.w_dist,
        target_dist: params.target_dist,
        target_size: params.target_size,
        max_steps: params.steps,
        budget,
        ..SummarizeConfig::default()
    };
    let result = summarize_selection(&fold.selection, &mut anns, config)?;

    let names: Vec<Json> = result
        .summary
        .annotations()
        .into_iter()
        .map(|a| Json::from(anns.name(a)))
        .collect();
    let body = Json::obj()
        .with("request_fingerprint", fingerprint(&key).as_str())
        .with(
            "fold",
            Json::obj()
                .with("logical_seen", fold.outcome.logical_seen)
                .with("records_seen", fold.outcome.records_seen)
                .with("stopped", fold.outcome.stopped.is_some())
                .with("objects", fold.objects)
                .with("tensors", fold.size),
        )
        .with("selected_objects", params.objects)
        .with("stop_reason", result.stop_reason.name())
        .with("initial_size", result.initial_size)
        .with("final_size", result.final_size())
        .with("final_distance", result.final_distance)
        .with("steps", result.history.len())
        .with("summary", Json::Arr(names))
        .render();
    // A fold cut short by wall-clock is not reproducible from the
    // request alone; only complete folds with cacheable summaries land
    // in the response cache.
    if fold.outcome.stopped.is_none() && cacheable(result.stop_reason) {
        lock(&ctx.cache).put(key, body.clone());
    }
    Ok(Response::json(200, body))
}

/// `GET /store/stats`: the attached store's reader statistics (segment
/// counts, dedup ratio, page-cache hit rate) — the data behind the
/// `prox stats` store section.
fn store_stats_response(ctx: &ServiceCtx) -> Response {
    match &ctx.store {
        Some(state) => Response::json(200, lock(&state.store).stats_json().sorted().render()),
        None => Response::json(
            404,
            Json::obj()
                .with(
                    "error",
                    "no segment store attached — start with --store <dir>",
                )
                .render(),
        ),
    }
}

fn datasets_response() -> Response {
    let mut items = Vec::new();
    for (name, cfg) in presets() {
        let data = MovieLens::generate(cfg);
        let titles: Vec<Json> = data
            .movies
            .iter()
            .map(|&m| Json::from(data.store.name(m)))
            .collect();
        items.push(
            Json::obj()
                .with("name", name)
                .with("users", cfg.users)
                .with("movies", cfg.movies)
                .with("ratings_per_user", cfg.ratings_per_user)
                .with("seed", cfg.seed)
                .with("titles", Json::Arr(titles)),
        );
    }
    Response::json(200, Json::obj().with("datasets", Json::Arr(items)).render())
}

/// Dispatch one parsed request (untraced; see [`respond`] for the worker
/// loop's traced entry point).
pub fn route(req: &Request, ctx: &ServiceCtx) -> Response {
    route_traced(req, ctx, None)
}

/// The resilience snapshot served on `/metrics.json`: health state,
/// panic/denial counters, and the per-tenant 429 tally.
pub fn resilience_json(ctx: &ServiceCtx) -> Json {
    let mut tenants = Json::obj();
    for (tenant, denied) in ratelimit::tenant_denials() {
        tenants.set(tenant.as_str(), denied);
    }
    Json::obj()
        .with("health", ctx.health.state().name())
        .with(
            "worker_panics",
            prox_obs::counter_value("serve/worker_panics").unwrap_or(0),
        )
        .with(
            "rate_limited",
            prox_obs::counter_value("serve/rate_limited").unwrap_or(0),
        )
        .with("tenant_429", tenants)
}

/// Gate a tenant-labelled mutation through the token-bucket limiter;
/// `Some` is the finished `429` + `Retry-After` response.
fn tenant_gate(req: &Request, ctx: &ServiceCtx, trace: Option<&TraceContext>) -> Option<Response> {
    let tenant = req.header("x-prox-tenant")?;
    match lock(&ctx.limiter).admit(tenant) {
        Admission::Admit => None,
        Admission::Deny { retry_after_secs } => {
            if let Some(t) = trace {
                t.note("rate_limited", tenant);
            }
            let mut resp = Response::json(
                429,
                Json::obj()
                    .with("error", format!("tenant {tenant:?} rate limited"))
                    .with("kind", "rate_limited")
                    .render(),
            );
            resp.retry_after = Some(retry_after_secs);
            Some(resp)
        }
    }
}

fn route_traced(req: &Request, ctx: &ServiceCtx, trace: Option<&TraceContext>) -> Response {
    REQUESTS.incr();
    // Per-tenant admission runs before any handler work: a hot tenant is
    // answered 429 on the spot, without touching budgets or the cache.
    if matches!(
        (req.method.as_str(), req.path.as_str()),
        ("POST", "/summarize") | ("POST", "/provision") | ("POST", "/summarize/store")
    ) {
        if let Some(denied) = tenant_gate(req, ctx, trace) {
            return denied;
        }
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let state = ctx.health.state();
            let body = Json::obj()
                .with(
                    "status",
                    if state == HealthState::Draining {
                        "draining"
                    } else {
                        "ok"
                    },
                )
                .with("state", state.name())
                .render();
            if state == HealthState::Draining {
                // Load balancers must stop routing to a dying process.
                let mut resp = Response::json(503, body);
                resp.retry_after = Some(1);
                resp
            } else {
                Response::json(200, body)
            }
        }
        // Prometheus text exposition; the JSON snapshot moved to
        // `/metrics.json`. Deterministic mode omits wall-clock series.
        ("GET", "/metrics") => Response::text(
            200,
            PROMETHEUS_CONTENT_TYPE,
            prox_obs::render_prometheus(prox_obs::deterministic_mode()),
        ),
        ("GET", "/metrics.json") => Response::json(
            200,
            prox_obs::snapshot()
                .with(
                    "window",
                    window::window_json(prox_obs::deterministic_mode()),
                )
                .with(
                    "memory",
                    prox_obs::alloc::memory_json(prox_obs::deterministic_mode()),
                )
                .with("resilience", resilience_json(ctx))
                .sorted()
                .render(),
        ),
        ("GET", "/datasets") => datasets_response(),
        ("GET", "/debug/traces") => Response::json(200, ctx.traces.list_json().render()),
        ("POST", "/summarize") => {
            summarize_route(req, ctx, trace).unwrap_or_else(|e| error_response(&e))
        }
        ("POST", "/provision") => {
            provision_route(req, ctx, trace).unwrap_or_else(|e| error_response(&e))
        }
        ("POST", "/summarize/store") => {
            store_summarize_route(req, ctx, trace).unwrap_or_else(|e| error_response(&e))
        }
        ("GET", "/store/stats") => store_stats_response(ctx),
        ("GET", path) if path.starts_with("/debug/traces/") => {
            let id = &path["/debug/traces/".len()..];
            match ctx.traces.get_json(id) {
                Some(tree) => Response::json(200, tree.render()),
                None => Response::json(
                    404,
                    Json::obj()
                        .with("error", format!("no retained trace {id:?}"))
                        .render(),
                ),
            }
        }
        (
            _,
            "/healthz" | "/metrics" | "/metrics.json" | "/datasets" | "/summarize" | "/provision"
            | "/summarize/store" | "/store/stats" | "/debug/traces",
        ) => Response::json(
            405,
            Json::obj()
                .with("error", format!("method {} not allowed here", req.method))
                .render(),
        ),
        (_, path) => Response::json(
            404,
            Json::obj()
                .with("error", format!("no such path {path:?}"))
                .render(),
        ),
    }
}

/// Handle one connection's parse result end to end. While observability
/// is enabled this creates the request's [`TraceContext`] (root span
/// `serve/request`, trace node `"request"`), routes, classifies the
/// finished request for tail-sampling (error > degraded > slow >
/// sampled), records it in the sliding window, logs slow requests to the
/// JSONL sink, and stamps `X-Prox-Trace-Id` on the response. Disabled
/// cost is one relaxed atomic load (the workspace cost model).
pub fn respond(parsed: Result<Request, ProxError>, ctx: &ServiceCtx) -> Response {
    if !prox_obs::enabled() {
        return match &parsed {
            Ok(req) => route_traced(req, ctx, None),
            Err(e) => error_response(e),
        };
    }
    let seq = ctx.seq.fetch_add(1, Ordering::Relaxed);
    let trace = TraceContext::new(trace_id_from(ctx.trace_seed, seq));
    let endpoint = match &parsed {
        // Query strings never reach routing decisions, so strip them from
        // the metrics endpoint label to bound cardinality.
        Ok(req) => req
            .path
            .split('?')
            .next()
            .unwrap_or(req.path.as_str())
            .to_owned(),
        Err(_) => "<unparsed>".to_owned(),
    };
    let root = SPAN_REQUEST.enter(Some(&trace));
    trace.note("endpoint", endpoint.as_str());
    if let Ok(req) = &parsed {
        trace.note("method", req.method.as_str());
    }
    let response = match &parsed {
        Ok(req) => route_traced(req, ctx, Some(&trace)),
        Err(e) => error_response(e),
    };
    trace.note("status", u64::from(response.status));
    let dur_us = u64::try_from(root.finish().as_micros()).unwrap_or(u64::MAX);

    let stop = trace.find_attr("stop_reason");
    let degraded = matches!(
        stop.as_ref().and_then(Json::as_str),
        Some("deadline_exceeded" | "budget_exhausted" | "cancelled")
    );
    let cache = trace.find_attr("cache");
    window::record_request(&window::RequestObservation {
        endpoint: &endpoint,
        status: response.status,
        dur_us,
        degraded,
        cache: cache.as_ref().and_then(Json::as_str).map(|v| v == "hit"),
    });

    let slow = ctx.slow_ms > 0 && dur_us >= ctx.slow_ms.saturating_mul(1_000);
    if slow {
        prox_obs::emit_event(
            Json::obj()
                .with("type", "slow_request")
                .with("endpoint", endpoint.as_str())
                .with("dur_us", dur_us)
                .with("trace", trace.to_json()),
        );
    }
    let reason = if response.status >= 400 {
        Some(RetainReason::Error)
    } else if degraded {
        Some(RetainReason::Degraded)
    } else if slow {
        Some(RetainReason::Slow)
    } else if keep_sampled(ctx.trace_seed, trace.trace_id(), ctx.trace_sample_rate) {
        Some(RetainReason::Sampled)
    } else {
        None
    };
    let id_hex = trace.id_hex();
    if let Some(reason) = reason {
        ctx.traces.push(RetainedTrace {
            trace_id: id_hex.clone(),
            endpoint,
            status: response.status,
            dur_us,
            reason,
            tree: trace.to_json(),
        });
    }
    response.with_header("X-Prox-Trace-Id", id_hex)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn ctx() -> ServiceCtx {
        ServiceCtx::new(8, 5_000, CancelFlag::new())
    }

    #[test]
    fn defaults_parse_from_empty_body() {
        let p = parse_params(b"").unwrap();
        assert_eq!(p.dataset_name, "demo");
        assert_eq!(p.steps, 10);
        assert!(matches!(p.selection, Selection::All));
    }

    #[test]
    fn unknown_fields_are_rejected() {
        assert!(parse_params(br#"{"wdist": 0.5}"#).is_err());
        assert!(parse_params(br#"{"dataset": {"zap": 1}}"#).is_err());
        assert!(parse_params(br#"{"selection": {"nope": 1}}"#).is_err());
    }

    #[test]
    fn dataset_caps_are_enforced() {
        assert!(parse_params(br#"{"dataset": {"users": 0}}"#).is_err());
        assert!(parse_params(br#"{"dataset": {"users": 100000}}"#).is_err());
        assert!(parse_params(br#"{"dataset": "nope"}"#).is_err());
        let p = parse_params(br#"{"dataset": "small"}"#).unwrap();
        assert_eq!(p.dataset.users, 15);
        assert_eq!(p.dataset_name, "small");
    }

    #[test]
    fn selection_forms_parse() {
        let p = parse_params(br#"{"selection": {"search": "the"}}"#).unwrap();
        assert!(matches!(p.selection, Selection::Search(_)));
        let p = parse_params(br#"{"selection": {"genre": "Drama", "year": 1995}}"#).unwrap();
        assert!(matches!(p.selection, Selection::GenreYear { .. }));
        let p = parse_params(br#"{"selection": {"titles": ["Sleepover"]}}"#).unwrap();
        assert!(matches!(p.selection, Selection::Titles(_)));
        assert!(parse_params(br#"{"selection": {"all": true, "year": 1}}"#).is_err());
        assert!(parse_params(br#"{"selection": {}}"#).is_err());
    }

    #[test]
    fn canonical_key_ignores_field_order_and_separates_requests() {
        let a = parse_params(br#"{"w_dist": 0.7, "steps": 8}"#).unwrap();
        let b = parse_params(br#"{"steps": 8, "w_dist": 0.7}"#).unwrap();
        assert_eq!(canonical_key(&a), canonical_key(&b));
        let c = parse_params(br#"{"w_dist": 0.7, "steps": 9}"#).unwrap();
        assert_ne!(canonical_key(&a), canonical_key(&c));
    }

    #[test]
    fn summarize_route_is_deterministic_and_cached() {
        let ctx = ctx();
        let req = post("/summarize", r#"{"steps": 4}"#);
        let first = route(&req, &ctx);
        assert_eq!(first.status, 200, "{}", first.body);
        let second = route(&req, &ctx);
        assert_eq!(first.body, second.body, "cache hit must be byte-identical");
        assert_eq!(lock(&ctx.cache).len(), 1);
    }

    #[test]
    fn malformed_body_is_a_400() {
        let resp = route(&post("/summarize", "{nope"), &ctx());
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("\"kind\""));
    }

    #[test]
    fn invalid_wdist_is_a_400() {
        let resp = route(&post("/summarize", r#"{"w_dist": 1.5}"#), &ctx());
        assert_eq!(resp.status, 400, "{}", resp.body);
    }

    #[test]
    fn deterministic_step_budget_degrades_to_200() {
        let resp = route(
            &post("/summarize", r#"{"budget_steps": 2, "steps": 8}"#),
            &ctx(),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        let body = Json::parse(&resp.body).unwrap();
        assert_eq!(
            body.get("stop_reason").and_then(Json::as_str),
            Some("budget_exhausted")
        );
    }

    #[test]
    fn upfront_exhausted_budget_is_a_408() {
        let mut req = post("/summarize", "");
        req.headers.push(("x-prox-budget-ms".into(), "0".into()));
        let resp = route(&req, &ctx());
        assert_eq!(resp.status, 408, "{}", resp.body);
    }

    #[test]
    fn provision_requires_cancel_and_reports_both_tables() {
        let ctx = ctx();
        let resp = route(&post("/provision", "{}"), &ctx);
        assert_eq!(resp.status, 400);
        let resp = route(
            &post(
                "/provision",
                r#"{"cancel": {"attributes": [["gender", "M"]]}}"#,
            ),
            &ctx,
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        let body = Json::parse(&resp.body).unwrap();
        assert!(matches!(body.get("original"), Some(Json::Arr(_))));
        assert!(matches!(body.get("summary"), Some(Json::Arr(_))));
        assert!(
            body.get("eval_time_ns").is_none(),
            "wall-clock must not leak"
        );
    }

    #[test]
    fn routing_covers_known_paths_and_methods() {
        let ctx = ctx();
        let get = |path: &str| Request {
            method: "GET".into(),
            path: path.into(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        assert_eq!(route(&get("/healthz"), &ctx).status, 200);
        assert_eq!(route(&get("/datasets"), &ctx).status, 200);
        assert_eq!(route(&get("/summarize"), &ctx).status, 405);
        assert_eq!(route(&get("/nope"), &ctx).status, 404);
        let datasets = Json::parse(&route(&get("/datasets"), &ctx).body).unwrap();
        let items = match datasets.get("datasets") {
            Some(Json::Arr(items)) => items,
            other => panic!("datasets not an array: {other:?}"),
        };
        assert_eq!(items.len(), presets().len());
        assert!(matches!(items[0].get("titles"), Some(Json::Arr(_))));
    }
}
