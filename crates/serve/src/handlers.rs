//! Request handlers: the run store + analytics pipeline behind each route.
//!
//! The application state owns the [`RunStore`], the shared
//! [`AggregateCache`] (so concurrent and repeated view builds reuse
//! grouped aggregates), a bounded dataset cache (parsed columnar tables
//! keyed by run id + store generation), and the ETag-keyed
//! [`ResponseCache`]. The caching ladder for `POST /views`:
//!
//! 1. `If-None-Match` matches the tag → `304`, nothing else happens.
//! 2. Body cache hit → the stored bytes, no store read, no aggregation.
//! 3. Dataset cache hit → parse and aggregate only (aggregation itself
//!    memoized per [`DataKey`]).
//! 4. Cold → load from disk, build, populate every layer on the way out.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use hrviz_core::{
    build_view_cached, compare_views_cached, schema_of, AggregateCache, Cursor, CursorError,
    DataKey, DataSet, EntityKind, Field, ProjectionGraph, ProjectionView, RequestError,
    ViewRequest,
};
use hrviz_faults::HrvizError;
use hrviz_obs::{fingerprint64, Json};
use hrviz_render::{render_radial, render_radial_row, RadialLayout};
use hrviz_stream::read_progress;
use hrviz_sweep::{RunHealth, RunState, RunStore, StoredManifest};

use crate::cache::{etag, CachedBody, ResponseCache};
use crate::http::{Request, Response};
use crate::router::{route, Route};
use crate::singleflight::{Role, SingleFlight};
use crate::stream::{end_frame, sse_frame, StreamHub, Watcher, SSE_PREAMBLE};

/// Parsed datasets kept hot, keyed by `(run id, generation)`.
const DATASET_CACHE_CAP: usize = 8;
/// Response bodies kept hot.
const RESPONSE_CACHE_CAP: usize = 128;
/// Built projection graphs kept hot (a graph serves every page of a
/// paged walk, so its lifetime spans many requests).
const GRAPH_CACHE_CAP: usize = 8;

type DataCacheKey = (String, u64);

struct DataCache {
    map: BTreeMap<DataCacheKey, Arc<DataSet>>,
    order: VecDeque<DataCacheKey>,
}

/// Graphs keyed by `(source/policy fingerprint, generation)`.
type GraphCacheKey = (u64, u64);

struct GraphCache {
    map: BTreeMap<GraphCacheKey, Arc<ProjectionGraph>>,
    order: VecDeque<GraphCacheKey>,
}

/// A validated snapshot of the store's `GENERATION` file: the counter
/// value plus the file identity it was read from. `GENERATION` is only
/// ever replaced whole (temp + rename), so a matching identity proves
/// the cached value is current without opening the file.
#[derive(Clone, Copy, PartialEq, Eq)]
enum GenFileId {
    Missing,
    #[cfg(unix)]
    File(u64, u64, Option<std::time::SystemTime>), // ino, len, mtime
    #[cfg(not(unix))]
    File(u64, Option<std::time::SystemTime>), // len, mtime
}

impl GenFileId {
    fn stat(path: &std::path::Path) -> GenFileId {
        match std::fs::metadata(path) {
            #[cfg(unix)]
            Ok(md) => {
                use std::os::unix::fs::MetadataExt;
                GenFileId::File(md.ino(), md.len(), md.modified().ok())
            }
            #[cfg(not(unix))]
            Ok(md) => GenFileId::File(md.len(), md.modified().ok()),
            Err(_) => GenFileId::Missing,
        }
    }

    /// Fold the identity into a u64 for stamp fingerprints.
    fn stamp(&self) -> u64 {
        let ns = |t: &Option<std::time::SystemTime>| {
            t.and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0)
        };
        match self {
            GenFileId::Missing => 0,
            #[cfg(unix)]
            GenFileId::File(ino, len, mtime) => {
                ino.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ len.rotate_left(32) ^ ns(mtime)
            }
            #[cfg(not(unix))]
            GenFileId::File(len, mtime) => len.rotate_left(32) ^ ns(mtime),
        }
    }
}

/// Shared application state: everything a worker needs to answer a
/// request.
pub struct App {
    store: RunStore,
    agg: AggregateCache,
    responses: ResponseCache,
    datasets: Mutex<DataCache>,
    graphs: Mutex<GraphCache>,
    flights: SingleFlight<CachedBody>,
    generation: Mutex<(GenFileId, u64)>,
    /// Each listed run's lifecycle state (`None`: no servable manifest),
    /// against the identity of the `manifest.json` it was read from.
    run_states: Mutex<BTreeMap<String, (GenFileId, Option<RunState>)>>,
    hub: StreamHub,
}

impl App {
    /// State over an opened store.
    pub fn new(store: RunStore) -> App {
        hrviz_obs::get().hist_config("serve/latency_us", 0.0, 250.0, 64);
        App {
            store,
            agg: AggregateCache::new(),
            responses: ResponseCache::new(RESPONSE_CACHE_CAP),
            datasets: Mutex::new(DataCache { map: BTreeMap::new(), order: VecDeque::new() }),
            graphs: Mutex::new(GraphCache { map: BTreeMap::new(), order: VecDeque::new() }),
            flights: SingleFlight::new(),
            generation: Mutex::new((GenFileId::Missing, 0)),
            run_states: Mutex::new(BTreeMap::new()),
            hub: StreamHub::new(),
        }
    }

    /// The store being served.
    pub fn store(&self) -> &RunStore {
        &self.store
    }

    /// The SSE hub holding handed-over watcher sockets.
    pub fn hub(&self) -> &StreamHub {
        &self.hub
    }

    /// The store generation, through a stat-validated cache: one
    /// `metadata` call instead of an open/read/parse of `GENERATION` on
    /// every request. A bump rewrites the file via temp + rename (new
    /// inode, new mtime), which invalidates the cached value immediately
    /// — the paging 409 contract holds.
    fn generation(&self) -> u64 {
        // Stat *before* taking the cache lock: the filesystem round-trip
        // must not serialize concurrent requests.
        let id = GenFileId::stat(&self.store.root().join("GENERATION"));
        let mut slot = self.generation.lock().unwrap_or_else(PoisonError::into_inner);
        if id != slot.0 {
            *slot = (id, self.store.generation());
        }
        slot.1
    }

    /// A fingerprint over the `progress.json` file identity of every run
    /// in `names` — stat-only, no reads. The generation counter only moves
    /// when a sweep finishes, so responses that enumerate runs must also
    /// fold this in: a streamed run sealing slices (or turning terminal)
    /// rewrites its watermark via temp + rename, changing the stamp and
    /// invalidating warm cache entries mid-sweep.
    fn progress_stamp(&self, names: &[String]) -> u64 {
        let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
        for name in names {
            let id = GenFileId::stat(&self.store.run_dir(name).join("progress.json"));
            acc = acc.wrapping_mul(0x100_0000_01b3) ^ fingerprint64(name);
            acc = acc.wrapping_mul(0x100_0000_01b3) ^ id.stamp();
        }
        acc
    }

    /// The runs of `names` (sorted, as [`RunStore::run_dir_names`] lists
    /// them) whose lifecycle state is `state`, through a stat-validated
    /// cache like [`App::generation`]'s: a manifest is only ever replaced
    /// whole (temp + rename), so one `metadata` call per run proves the
    /// remembered state current, and only a run whose `manifest.json`
    /// changed identity (or is missing) is classified again. Runs with a
    /// torn or missing manifest are skipped, as in
    /// [`RunStore::runs_by_state`].
    fn runs_in_state(&self, names: &[String], state: RunState) -> Vec<String> {
        // Stat before reading (a manifest replaced in between is seen as
        // changed next time) and outside the lock.
        let ids: Vec<GenFileId> = names
            .iter()
            .map(|name| GenFileId::stat(&self.store.run_dir(name).join("manifest.json")))
            .collect();
        let remembered: Vec<Option<(GenFileId, Option<RunState>)>> = {
            let cache = self.run_states.lock().unwrap_or_else(PoisonError::into_inner);
            names.iter().map(|name| cache.get(name).copied()).collect()
        };
        let (mut listed, mut fresh) = (Vec::new(), Vec::new());
        for ((name, id), remembered) in names.iter().zip(ids).zip(remembered) {
            let current = match remembered {
                Some((seen, state)) if seen == id && id != GenFileId::Missing => state,
                _ => {
                    let read = match self.store.health(name) {
                        RunHealth::Complete => Some(RunState::Completed),
                        RunHealth::Pending(state) => Some(state),
                        RunHealth::Missing | RunHealth::Corrupt(_) => None,
                    };
                    fresh.push((name.clone(), (id, read)));
                    read
                }
            };
            if current == Some(state) {
                listed.push(name.clone());
            }
        }
        let mut cache = self.run_states.lock().unwrap_or_else(PoisonError::into_inner);
        cache.extend(fresh);
        if cache.len() > names.len() {
            cache.retain(|name, _| names.binary_search(name).is_ok());
        }
        listed
    }

    /// Handle one parsed request, with request-level telemetry. The
    /// `serve/request` span id doubles as the request id: it is echoed
    /// in the `X-Request-Id` response header and in the one-line
    /// `access` event, and every span the handler opens (cache,
    /// dataset build, projection) records it as an ancestor.
    pub fn handle(&self, req: &Request) -> Response {
        let obs = hrviz_obs::get();
        obs.counter_add("serve/requests", 1);
        let started = Instant::now();
        let (resp, request_id) = {
            let span = obs.span("serve/request");
            let id = span.id();
            (self.dispatch(req), id)
        };
        let latency_us = started.elapsed().as_secs_f64() * 1e6;
        obs.hist_record("serve/latency_us", latency_us);
        if resp.status >= 400 {
            obs.counter_add("serve/http_errors", 1);
        }
        // The access event's arguments allocate; skip the whole block
        // when no collector is installed (the warm path cares).
        if obs.is_enabled() {
            let cache = resp
                .headers
                .iter()
                .find(|(n, _)| n == "X-Cache")
                .map(|(_, v)| v.as_str())
                .unwrap_or("none");
            obs.event(
                "access",
                &[
                    ("request_id", Json::U64(request_id.unwrap_or(0))),
                    ("method", Json::Str(req.method.clone())),
                    ("path", Json::Str(req.path.clone())),
                    ("status", Json::U64(u64::from(resp.status))),
                    ("bytes", Json::U64(resp.body.len() as u64)),
                    ("latency_us", Json::F64(latency_us)),
                    ("cache", Json::Str(cache.to_string())),
                ],
            );
        }
        match request_id {
            Some(id) => resp.header("X-Request-Id", &format!("{id:016x}")),
            None => resp,
        }
    }

    fn dispatch(&self, req: &Request) -> Response {
        match route(req) {
            Route::Health => self.health(),
            Route::Metrics => metrics(req),
            Route::Tracez => tracez(),
            Route::Runs => self.runs(req),
            Route::Columns { run, field } => self.columns(req, &run, &field),
            Route::Progress { run } => self.progress(req, &run),
            Route::Stream { run } => self.stream_snapshot(req, &run),
            Route::Views => self.views(req),
            Route::Compare => self.compare(req),
            Route::MethodNotAllowed(allow) => {
                Response::error(405, &format!("use {allow} on this path")).header("Allow", allow)
            }
            Route::NotFound => Response::error(404, "no such endpoint"),
        }
    }

    fn health(&self) -> Response {
        let body = Json::obj([
            ("status", Json::Str("ok".into())),
            ("generation", Json::U64(self.generation())),
        ]);
        Response::json(body.render())
    }

    /// Serve a cacheable body: answer `304` on a matching `If-None-Match`,
    /// then the body cache, then `build` (whose product is cached). Cold
    /// fills are single-flighted: concurrent identical requests elect one
    /// leader to run `build` while the rest park and share its result.
    /// The `X-Cache` header names which rung answered (`revalidated`,
    /// `hit`, `coalesced`, `miss`); the access log reads it back as the
    /// cache disposition.
    fn cached(
        &self,
        req: &Request,
        tag: &str,
        content_type: &str,
        build: impl FnOnce() -> Result<Vec<u8>, Response>,
    ) -> Response {
        if req.header("if-none-match").is_some_and(|inm| inm.split(',').any(|t| t.trim() == tag)) {
            hrviz_obs::get().counter_add("serve/not_modified", 1);
            return Response::new(304).header("ETag", tag).header("X-Cache", "revalidated");
        }
        if let Some(hit) = self.responses.get(tag) {
            return Response::new(200)
                .header("Content-Type", &hit.content_type)
                .header("ETag", tag)
                .header("X-Cache", "hit")
                .with_body(hit.body);
        }
        let ok = |disposition: &str, content_type: &str, body: Vec<u8>| {
            Response::new(200)
                .header("Content-Type", content_type)
                .header("ETag", tag)
                .header("X-Cache", disposition)
                .with_body(body)
        };
        match self.flights.join(tag) {
            Role::Shared(hit) => {
                hrviz_obs::get().counter_add("serve/coalesced", 1);
                ok("coalesced", &hit.content_type, hit.body)
            }
            Role::Leader(guard) => {
                let body = match build() {
                    Ok(body) => body,
                    Err(resp) => {
                        guard.complete(None);
                        return resp;
                    }
                };
                let cached =
                    CachedBody { content_type: content_type.to_string(), body: body.clone() };
                self.responses.put(tag, cached.clone());
                guard.complete(Some(cached));
                ok("miss", content_type, body)
            }
            // The leader's build failed; its error was request-specific,
            // so compute (and likely fail) independently.
            Role::LeaderFailed => match build() {
                Ok(body) => {
                    self.responses.put(
                        tag,
                        CachedBody { content_type: content_type.to_string(), body: body.clone() },
                    );
                    ok("miss", content_type, body)
                }
                Err(resp) => resp,
            },
        }
    }

    fn runs(&self, req: &Request) -> Response {
        let filter = match req.query.get("state").map(String::as_str) {
            None => None,
            Some(raw) => match RunState::parse(raw) {
                Some(state) => Some(state),
                None => {
                    return structured_error(
                        400,
                        "state",
                        "bad_state",
                        &format!(
                            "unknown state {raw:?} (one of queued, running, completed, \
                             failed, aborted)"
                        ),
                    );
                }
            },
        };
        let generation = self.generation().to_string();
        // One directory listing per request serves both the stamp and the
        // state filter. The progress stamp keys mid-sweep changes: sealed
        // slices and lifecycle flips rewrite progress.json without moving
        // the generation counter.
        let names = self.store.run_dir_names().unwrap_or_default();
        let stamp = format!("{:016x}", self.progress_stamp(&names));
        let filter_part = filter.map(|s| s.name()).unwrap_or("");
        let tag = etag(&["runs", &generation, &stamp, filter_part]);
        self.cached(req, &tag, "application/json", || {
            // Default listing: complete runs only, exactly the set
            // `/views` and `/compare` accept. A `?state=` filter surfaces
            // the rest of the lifecycle (including `aborted`, which stays
            // out of comparisons unless asked for).
            let ids: Vec<String> = match filter {
                None => self.store.runs().map_err(|e| Response::error(500, &e.to_string()))?,
                Some(state) => self.runs_in_state(&names, state),
            };
            let mut entries = Vec::with_capacity(ids.len());
            for id in &ids {
                let m = self
                    .store
                    .load_manifest(id)
                    .map_err(|e| Response::error(500, &e.to_string()))?;
                entries.push(manifest_json(&m));
            }
            let body = Json::obj([
                ("generation", Json::Str(generation.clone())),
                ("state", Json::Str(filter.map(|s| s.name()).unwrap_or("complete").to_string())),
                ("runs", Json::Arr(entries)),
            ]);
            Ok(body.render().into_bytes())
        })
    }

    /// `GET /runs/{id}/progress?since=N&wait_ms=M`: the run's live
    /// watermark, long-polled. Without `since` it answers immediately;
    /// with it, the request parks (bounded by `wait_ms`, default 2 s,
    /// cap 10 s) until the watermark passes `since` or the run turns
    /// terminal. Uncacheable by design — it *is* the freshness signal.
    fn progress(&self, req: &Request, run: &str) -> Response {
        let since: Option<u64> = match req.query.get("since") {
            None => None,
            Some(raw) => match raw.parse() {
                Ok(n) => Some(n),
                Err(_) => {
                    return structured_error(
                        400,
                        "since",
                        "bad_since",
                        "since must be a slice count",
                    );
                }
            },
        };
        let wait_ms: u64 =
            req.query.get("wait_ms").and_then(|w| w.parse().ok()).unwrap_or(2_000).min(10_000);
        let dir = self.store.run_dir(run);
        let deadline = Instant::now() + std::time::Duration::from_millis(wait_ms);
        loop {
            match read_progress(&dir) {
                Ok(Some(p)) => {
                    let fresh = since.is_none_or(|s| p.sealed > s) || p.is_terminal();
                    if fresh || Instant::now() >= deadline {
                        return Response::json(p.to_json()).header("Cache-Control", "no-store");
                    }
                }
                Ok(None) => {
                    return match self.store.health(run) {
                        RunHealth::Missing => {
                            Response::error(404, &format!("no run {run:?} in the store"))
                        }
                        _ => Response::error(
                            404,
                            &format!("run {run:?} has no live telemetry (batch-mode run)"),
                        ),
                    };
                }
                Err(e) => return Response::error(500, &e.to_string()),
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
    }

    /// The dispatch fallback for `GET /runs/{id}/stream`: the sealed
    /// slices from `since` as SSE frames in a bounded body (plus the
    /// terminal event when the run is done). The real endpoint hands the
    /// socket to the [`StreamHub`] before dispatch and tails live runs;
    /// this path serves direct callers and completed runs identically.
    fn stream_snapshot(&self, req: &Request, run: &str) -> Response {
        let since = req.query.get("since").and_then(|s| s.parse().ok()).unwrap_or(0u64);
        let dir = self.store.run_dir(run);
        let progress = match read_progress(&dir) {
            Ok(Some(p)) => p,
            Ok(None) => {
                return match self.store.health(run) {
                    RunHealth::Missing => {
                        Response::error(404, &format!("no run {run:?} in the store"))
                    }
                    _ => Response::error(
                        404,
                        &format!("run {run:?} has no live telemetry (batch-mode run)"),
                    ),
                };
            }
            Err(e) => return Response::error(500, &e.to_string()),
        };
        let slices = match hrviz_stream::read_slices(&dir, since) {
            Ok(s) => s,
            Err(e) => return Response::error(500, &e.to_string()),
        };
        let obs = hrviz_obs::get();
        let mut body = String::new();
        for slice in &slices {
            body.push_str(&sse_frame("slice", &slice.to_json()));
            obs.counter_add("stream/sse_events", 1);
        }
        if progress.is_terminal() {
            body.push_str(&end_frame(run, &progress.state, progress.sealed));
            obs.counter_add("stream/sse_events", 1);
        }
        Response::new(200)
            .header("Content-Type", "text/event-stream")
            .header("Cache-Control", "no-store")
            .with_body(body.into_bytes())
    }

    /// Hand an accepted connection over to the SSE hub: validate the
    /// run, write the SSE preamble on the worker (so errors still answer
    /// as plain HTTP), then register the watcher and return the worker
    /// to the pool. Replay-from-`since` and the live tail both happen on
    /// the hub thread.
    pub fn sse_attach(&self, req: &Request, run: &str, mut stream: std::net::TcpStream) {
        use std::io::Write as _;
        let dir = self.store.run_dir(run);
        match read_progress(&dir) {
            Ok(Some(_)) => {}
            Ok(None) => {
                let resp = match self.store.health(run) {
                    RunHealth::Missing => {
                        Response::error(404, &format!("no run {run:?} in the store"))
                    }
                    _ => Response::error(
                        404,
                        &format!("run {run:?} has no live telemetry (batch-mode run)"),
                    ),
                };
                let _ = resp.write_to(&mut stream, true);
                return;
            }
            Err(e) => {
                let _ = Response::error(500, &e.to_string()).write_to(&mut stream, true);
                return;
            }
        }
        if stream.write_all(SSE_PREAMBLE.as_bytes()).is_err() {
            return;
        }
        let since = req.query.get("since").and_then(|s| s.parse().ok()).unwrap_or(0u64);
        self.hub.attach(Watcher::new(stream, run.to_string(), dir, since));
    }

    fn columns(&self, req: &Request, run: &str, field_name: &str) -> Response {
        if !self.store.contains(run) {
            return Response::error(404, &format!("no run {run:?} in the store"));
        }
        let field = match Field::parse(field_name) {
            Some(f) => f,
            None => return Response::error(404, &format!("unknown field {field_name:?}")),
        };
        let table_filter = req.query.get("table").cloned();
        if let Some(t) = &table_filter {
            if EntityKind::parse(t).is_none() {
                return Response::error(400, &format!("unknown table {t:?}"));
            }
        }
        let generation = self.generation().to_string();
        let filter_part = table_filter.clone().unwrap_or_default();
        let tag = etag(&["columns", &generation, run, field_name, &filter_part]);
        self.cached(req, &tag, "application/json", || {
            let ds = self.dataset(run)?;
            let tables = columns_json(&ds, field, table_filter.as_deref());
            if tables.is_empty() {
                return Err(Response::error(
                    404,
                    &format!("no table carries field {field_name:?}"),
                ));
            }
            let body = Json::obj([
                ("run", Json::Str(run.to_string())),
                ("field", Json::Str(field_name.to_string())),
                ("tables", Json::Arr(tables)),
            ]);
            Ok(body.render().into_bytes())
        })
    }

    fn views(&self, req: &Request) -> Response {
        let script = match std::str::from_utf8(&req.body) {
            Ok(s) => s,
            Err(_) => {
                return structured_error(400, "script", "bad_script", "script body must be UTF-8")
            }
        };
        let vreq = match ViewRequest::parse(&req.query, script, false, true) {
            Ok(v) => v,
            Err(e) => return request_error(&e),
        };
        // `parse` guarantees a run id when `require_runs` is set.
        let Some(run) = vreq.runs.first().cloned() else {
            return structured_error(400, "run", "missing_run", "pass ?run=<id>");
        };
        let generation = self.generation();
        let script_fp = format!("{:016x}", fingerprint64(script));
        // Run existence is checked inside the build closure: warm
        // replies (304 / body-cache hits) skip the manifest read, and a
        // cold request for an absent run still answers 404.
        if req.wants_svg() {
            // The SVG rendering has no wire schema; it stays monolithic.
            let tag = etag(&["views", &generation.to_string(), &script_fp, &run, "svg"]);
            return self.cached(req, &tag, "image/svg+xml", || {
                let view = self.build_view(&run, &vreq)?;
                Ok(render_radial(&view, &RadialLayout::default(), &run).into_bytes())
            });
        }
        let source_hash = source_hash(std::slice::from_ref(&run), &script_fp);
        self.graph_page(req, &vreq, std::slice::from_ref(&run), source_hash, &script_fp, generation)
    }

    fn compare(&self, req: &Request) -> Response {
        let script = match std::str::from_utf8(&req.body) {
            Ok(s) => s,
            Err(_) => {
                return structured_error(400, "script", "bad_script", "script body must be UTF-8")
            }
        };
        let vreq = match ViewRequest::parse(&req.query, script, true, true) {
            Ok(v) => v,
            Err(e) => return request_error(&e),
        };
        let generation = self.generation();
        let script_fp = format!("{:016x}", fingerprint64(script));
        let joined = vreq.runs.join(",");
        if req.wants_svg() {
            let tag = etag(&["compare", &generation.to_string(), &script_fp, &joined, "svg"]);
            return self.cached(req, &tag, "image/svg+xml", || {
                let views = self.build_compare_views(&vreq.runs, &vreq)?;
                let labeled: Vec<(&_, &str)> =
                    views.iter().zip(&vreq.runs).map(|(v, r)| (v, r.as_str())).collect();
                Ok(render_radial_row(&labeled, &RadialLayout::default(), "comparison").into_bytes())
            });
        }
        let source_hash = source_hash(&vreq.runs, &script_fp);
        self.graph_page(req, &vreq, &vreq.runs, source_hash, &script_fp, generation)
    }

    /// Serve one page of a projection graph (schema 2): validate the
    /// cursor against the expected graph fingerprint and the current
    /// store generation, then answer through the cache ladder. The graph
    /// build itself runs inside the single-flighted `cached` closure, so
    /// a concurrent cold burst projects exactly once.
    fn graph_page(
        &self,
        req: &Request,
        vreq: &ViewRequest,
        runs: &[String],
        source_hash: u64,
        script_fp: &str,
        generation: u64,
    ) -> Response {
        let compare = runs.len() > 1;
        let expected = ProjectionGraph::expected_fingerprint(source_hash, &vreq.policy, compare);
        let offset = match &vreq.cursor {
            None => 0usize,
            Some(token) => match Cursor::decode(token) {
                Err(CursorError::Malformed) => {
                    return structured_error(
                        400,
                        "cursor",
                        "malformed_cursor",
                        "cursor token is malformed",
                    );
                }
                Err(CursorError::BadSignature) => {
                    return structured_error(
                        400,
                        "cursor",
                        "bad_cursor_signature",
                        "cursor signature does not match its payload",
                    );
                }
                Ok(c) => {
                    if c.graph != expected {
                        return structured_error(
                            400,
                            "cursor",
                            "wrong_graph",
                            "cursor belongs to a different view, policy, or run set",
                        );
                    }
                    if c.generation != generation {
                        return structured_error(
                            409,
                            "cursor",
                            "stale_generation",
                            &format!(
                                "cursor was minted at store generation {}, the store is now at {generation}; restart the walk",
                                c.generation
                            ),
                        );
                    }
                    c.offset as usize
                }
            },
        };
        let limit = vreq.page_size;
        let joined: Vec<&str> = runs.iter().map(String::as_str).collect();
        let tag = etag(&[
            "graph",
            &generation.to_string(),
            script_fp,
            &joined.join(","),
            &vreq.policy.canonical(),
            &offset.to_string(),
            &limit.to_string(),
        ]);
        self.cached(req, &tag, "application/json", || {
            let graph = self.graph(vreq, runs, source_hash, generation)?;
            let count = graph.page(offset, limit).len();
            let next = if limit > 0 && offset + count < graph.len() {
                Some(
                    Cursor {
                        graph: graph.fingerprint(),
                        generation,
                        offset: (offset + count) as u64,
                    }
                    .encode(),
                )
            } else {
                None
            };
            Ok(graph.page_to_json(offset, limit, next.as_deref()).render().into_bytes())
        })
    }

    /// The projection graph for a request, through the bounded
    /// `(source/policy, generation)` cache.
    fn graph(
        &self,
        vreq: &ViewRequest,
        runs: &[String],
        source_hash: u64,
        generation: u64,
    ) -> Result<Arc<ProjectionGraph>, Response> {
        let key =
            (fingerprint64(&format!("{source_hash:016x}|{}", vreq.policy.canonical())), generation);
        {
            let cache = self.graphs.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(g) = cache.map.get(&key) {
                return Ok(Arc::clone(g));
            }
        }
        let graph = if let [run] = runs {
            let view = self.build_view(run, vreq)?;
            ProjectionGraph::build(&view, &vreq.policy, source_hash)
        } else {
            let views = self.build_compare_views(runs, vreq)?;
            let labeled: Vec<(&str, &ProjectionView)> =
                runs.iter().zip(&views).map(|(r, v)| (r.as_str(), v)).collect();
            ProjectionGraph::build_compare(&labeled, &vreq.policy, source_hash)
        };
        let graph = Arc::new(graph);
        let mut cache = self.graphs.lock().unwrap_or_else(PoisonError::into_inner);
        if cache.map.insert(key, Arc::clone(&graph)).is_none() {
            cache.order.push_back(key);
            while cache.order.len() > GRAPH_CACHE_CAP {
                if let Some(oldest) = cache.order.pop_front() {
                    cache.map.remove(&oldest);
                }
            }
        }
        Ok(graph)
    }

    /// Build (or fetch from the aggregation caches) one run's view.
    fn build_view(&self, run: &str, vreq: &ViewRequest) -> Result<ProjectionView, Response> {
        let key = self.run_key_or_404(run)?;
        let ds = self.dataset(run)?;
        build_view_cached(&ds, &vreq.spec, &self.agg, key)
            .map_err(|e| Response::error(400, &e.to_string()))
    }

    /// Build every run's view under shared comparison scales.
    fn build_compare_views(
        &self,
        runs: &[String],
        vreq: &ViewRequest,
    ) -> Result<Vec<ProjectionView>, Response> {
        let keys: Vec<DataKey> =
            runs.iter().map(|r| self.run_key_or_404(r)).collect::<Result<_, _>>()?;
        let datasets: Vec<Arc<DataSet>> =
            runs.iter().map(|r| self.dataset(r)).collect::<Result<_, _>>()?;
        let pairs: Vec<(&DataSet, DataKey)> =
            datasets.iter().zip(keys).map(|(ds, k)| (ds.as_ref(), k)).collect();
        compare_views_cached(&pairs, &vreq.spec, &self.agg)
            .map_err(|e| Response::error(400, &e.to_string()))
    }

    /// The aggregation-cache key for a stored run, a `404` when the run
    /// is absent (or the id is not the 16-hex-digit form the store
    /// emits). Only called on cold builds — warm replies never touch the
    /// manifest.
    fn run_key_or_404(&self, run: &str) -> Result<DataKey, Response> {
        let hash = u64::from_str_radix(run, 16).ok().filter(|_| self.store.contains(run));
        match hash {
            Some(hash) => Ok(DataKey { run: hash, generation: self.generation() }),
            None => Err(Response::error(404, &format!("no run {run:?} in the store"))),
        }
    }

    /// A loaded dataset, through the bounded `(run, generation)` cache.
    /// On-disk damage degrades to a structured error instead of a 500: a
    /// run whose manifest is fine but whose column file is missing, torn,
    /// or checksum-failed answers `410 Gone` (it existed; the store's next
    /// fsck pass will quarantine it) and bumps the `serve/corrupt_run`
    /// counter.
    fn dataset(&self, run: &str) -> Result<Arc<DataSet>, Response> {
        let key = (run.to_string(), self.generation());
        {
            let cache = self.datasets.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(ds) = cache.map.get(&key) {
                return Ok(Arc::clone(ds));
            }
        }
        let stored = self.store.load(run).map_err(|e| match e {
            HrvizError::Parse { .. } | HrvizError::Io { .. } => {
                hrviz_obs::get().counter_add("serve/corrupt_run", 1);
                Response::error(410, &format!("run {run:?} is corrupt on disk ({e}); re-open the store or rerun fsck to quarantine it"))
            }
            other => Response::error(500, &other.to_string()),
        })?;
        let ds = Arc::new(stored.data);
        let mut cache = self.datasets.lock().unwrap_or_else(PoisonError::into_inner);
        if cache.map.insert(key.clone(), Arc::clone(&ds)).is_none() {
            cache.order.push_back(key);
            while cache.order.len() > DATASET_CACHE_CAP {
                if let Some(oldest) = cache.order.pop_front() {
                    cache.map.remove(&oldest);
                }
            }
        }
        Ok(ds)
    }
}

/// Content-addressed source fingerprint: run ids + script. Independent
/// of store generation, so graph node ids (and the node content of every
/// page) are identical across serial/parallel sweeps over the same
/// configurations.
fn source_hash(runs: &[String], script_fp: &str) -> u64 {
    fingerprint64(&format!("{}|{script_fp}", runs.join(",")))
}

/// A structured error body: `{"error", "field", "code"}` — machine-
/// readable (`code` is stable) and human-readable (`error`) at once.
fn structured_error(status: u16, field: &str, code: &str, message: &str) -> Response {
    let body = Json::obj([
        ("error", Json::Str(message.to_string())),
        ("field", Json::Str(field.to_string())),
        ("code", Json::Str(code.to_string())),
    ]);
    Response::new(status)
        .header("Content-Type", "application/json")
        .with_body(body.render().into_bytes())
}

/// Render a [`RequestError`] from the shared parsing path as a 400.
fn request_error(e: &RequestError) -> Response {
    structured_error(400, e.field, e.code, &e.message)
}

/// `GET /metricsz`: JSON snapshot by default, Prometheus text exposition
/// under `Accept: text/plain`.
fn metrics(req: &Request) -> Response {
    let snap = hrviz_obs::get().snapshot();
    if req.header("accept").is_some_and(|a| a.contains("text/plain")) {
        return Response::new(200)
            .header("Content-Type", hrviz_obs::PROMETHEUS_CONTENT_TYPE)
            .with_body(hrviz_obs::render_prometheus(&snap).into_bytes());
    }
    Response::json(snap.to_json().render())
}

/// `GET /tracez`: the most recent spans from the flight-recorder ring,
/// newest last. Uncacheable by design — it is a live debugging surface.
fn tracez() -> Response {
    let recs = hrviz_obs::get().recent_spans();
    let body = Json::obj([
        ("count", Json::U64(recs.len() as u64)),
        ("spans", Json::Arr(recs.iter().map(hrviz_obs::SpanRecord::to_json).collect())),
    ]);
    Response::json(body.render()).header("Cache-Control", "no-store")
}

fn manifest_json(m: &StoredManifest) -> Json {
    Json::obj([
        ("run", Json::Str(m.run.clone())),
        ("canonical", Json::Str(m.canonical.clone())),
        ("label", Json::Str(m.label.clone())),
        ("seed", Json::U64(m.seed)),
        ("state", Json::Str(m.state.name().to_string())),
        ("error", Json::Str(m.error.clone())),
        ("events_processed", Json::U64(m.events_processed)),
        ("events_scheduled", Json::U64(m.events_scheduled)),
        ("end_time_ns", Json::U64(m.end_time_ns)),
        ("peak_queue_depth", Json::U64(m.peak_queue_depth)),
        ("delivered", Json::U64(m.delivered)),
        ("injected", Json::U64(m.injected)),
        ("dropped", Json::U64(m.dropped)),
        ("rerouted", Json::U64(m.rerouted)),
    ])
}

/// The stored `field` column of every table that carries it (derived
/// fields are not stored, so they are never listed).
fn columns_json(ds: &DataSet, field: Field, only: Option<&str>) -> Vec<Json> {
    EntityKind::ALL
        .into_iter()
        .filter(|kind| only.is_none_or(|o| o == kind.name()))
        .filter(|&kind| schema_of(kind).contains(&field))
        .map(|kind| {
            let col = ds.column(kind, field);
            let values = (0..col.len()).map(|i| Json::F64(col.get(i))).collect();
            Json::obj([
                ("table", Json::Str(kind.name().to_string())),
                ("values", Json::Arr(values)),
            ])
        })
        .collect()
}
