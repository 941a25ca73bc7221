//! # hrviz-serve — the analytics stack as a long-running service
//!
//! Turns a [`RunStore`](hrviz_sweep::RunStore) + projection-view pipeline
//! into a concurrent HTTP/1.1 server, the serving layer the interactive
//! workflow of the paper implies: analysts iterate on Fig.-5 scripts
//! against stored sweep output without re-running the CLI per view.
//!
//! * `GET /runs` — manifest listing (`?state=` filters by lifecycle).
//! * `GET /runs/{id}/columns/{field}` — raw columnar slices.
//! * `GET /runs/{id}/progress` — live slice watermark, bounded
//!   long-poll via `?since=N&wait_ms=M`.
//! * `GET /runs/{id}/stream` — SSE: sealed slices replayed from
//!   `?since=`, then a live tail on a shared hub thread.
//! * `POST /views?run={id}` — script body → paged projection-graph
//!   envelope (schema 2; any other `?schema=` is a structured 400), or
//!   SVG when `Accept: image/svg+xml`.
//! * `POST /compare?runs={a},{b}` — shared-scale comparison, same
//!   schema/paging contract.
//! * `GET /healthz`, `GET /metricsz` — liveness + hrviz-obs snapshot.
//!
//! View and compare requests parse through one typed path
//! ([`hrviz_core::ViewRequest`] + [`hrviz_core::RenderPolicy`]), shared
//! with the CLI; malformed parameters answer structured 400s naming the
//! field and a stable machine code. Paging uses signed opaque cursors
//! bound to the graph fingerprint and store generation — a mid-walk
//! generation bump answers a structured `409` rather than silently mixing
//! generations.
//!
//! Responses are deterministic, so they are cacheable by content identity:
//! `ETag = fnv1a(store generation ‖ script fingerprint ‖ run ids ‖ policy
//! ‖ page)`, with `If-None-Match` answered `304` before any store or
//! simulator work. Warm requests never re-aggregate — the body cache is
//! keyed by the same fingerprint, aggregation under it is memoized per
//! store generation through [`AggregateCache`](hrviz_core::AggregateCache),
//! and cold fills are single-flighted ([`singleflight`]): concurrent
//! identical requests elect one leader to build while the rest share its
//! result.
//!
//! The server core is a bounded worker pool ([`pool`]) with explicit load
//! shedding: a full queue answers `503` + `Retry-After` instead of growing
//! memory, a connection cap bounds sockets, per-connection read/write
//! timeouts bound slow clients, and SIGINT drains in-flight requests
//! before exit. Connections are keep-alive by default (HTTP/1.1), with a
//! per-connection request cap and the read timeout doubling as the idle
//! timeout. The request path is panic-free (enforced by hrviz-lint's
//! `slice_index` plus the clippy deny below); a worker-level unwind guard
//! converts any residual panic into a `500` and a `serve/panics` counter
//! rather than a dead worker.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
// Test code is exempt: clippy.toml's allow-*-in-tests covers the other three.
#![cfg_attr(test, allow(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod cache;
pub mod handlers;
pub mod http;
pub mod pool;
pub mod router;
pub mod server;
pub mod singleflight;
pub mod stream;

pub use cache::ResponseCache;
pub use handlers::App;
pub use http::{Request, Response};
pub use pool::{SubmitError, WorkerPool};
pub use router::Route;
pub use server::{install_signal_shutdown, ServeConfig, ServeReport, Server, ServerHandle};
pub use stream::StreamHub;
