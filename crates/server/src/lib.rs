//! # parj-server — resilient SPARQL-over-HTTP serving for PARJ
//!
//! A dependency-free (std `TcpListener`, parked handler threads)
//! SPARQL Protocol endpoint over [`SharedParj`]. Queries arrive via `GET`
//! or `POST /sparql`, run through the engine's [`parj_core::QueryRequest`]
//! builder — so deadlines, row budgets, cache participation, and
//! cancellation are the engine's own, not reimplemented — and stream
//! back as SPARQL results JSON or TSV.
//!
//! The serving layer is built robustness-first:
//!
//! * **Bounded everything.** A fixed permit gate caps in-flight
//!   queries; past it, requests are *shed* with `429` + `Retry-After`
//!   (derived from recent query latency) — there is no queue to grow.
//!   The acceptor itself bounds concurrent connections, and the HTTP
//!   parser caps header and body sizes.
//! * **Per-client quotas.** An optional token bucket per peer address
//!   rejects chatty clients with `429` before they reach the gate.
//! * **Cancel-on-disconnect.** Each admitted query's [`CancelToken`]
//!   is registered with its socket: one sweeper thread per server
//!   notices a peer closing and cancels the run, freeing its workers
//!   for live clients (a peer already gone at registration cancels it
//!   before it starts).
//! * **Panic isolation.** A panicking handler answers `500` for that
//!   request; the server (and the engine) keep running.
//! * **Deterministic degradation.** Every [`ParjError`] class maps to a
//!   fixed HTTP status ([`sparql::status_for`]): timeout → 504, budget
//!   → 413, parse → 400, corrupt store → 503, shed → 429.
//! * **Graceful shutdown.** [`ServerHandle::shutdown`] stops accepting,
//!   drains in-flight queries under a deadline, cancels stragglers, and
//!   reports what leaked.
//!
//! Observability rides on [`parj_obs::ServerMetrics`]: `/metrics`
//! serves the engine's families merged with `parj_server_*`,
//! `/healthz` answers liveness, `/readyz` answers readiness (finalized
//! store, not draining).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod http;
pub mod sparql;

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use parj_sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use parj_sync::thread::JoinHandle;
use parj_sync::{Arc, LockLevel, OrderedCondvar, OrderedMutex};

use parj_core::{CancelToken, ParjError, SharedParj};
use parj_obs::{MetricsSnapshot, ServerMetrics};

use admission::{InflightGate, LatencyWindow, Quota, QuotaTable};
use http::{Limits, Method, Request, Response};

pub use admission::Permit;
pub use sparql::{status_for, Format};

/// Serving configuration. `Default` is suitable for tests and small
/// deployments: loopback, ephemeral port, 4 permits, quotas off.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:1234` (`:0` for ephemeral).
    pub addr: String,
    /// In-flight query permits (clamped to ≥ 1); past this, shed.
    pub permits: usize,
    /// Concurrent connection cap (clamped to ≥ permits + 1), which is
    /// also the most handler threads the server ever spawns; past it,
    /// the acceptor sheds before handing the connection off.
    pub max_connections: usize,
    /// Optional per-client token-bucket quota, keyed by peer IP.
    pub quota: Option<Quota>,
    /// Time a client gets to deliver its complete request.
    pub read_timeout: Duration,
    /// Cap on request line + headers, bytes.
    pub max_header_bytes: usize,
    /// Cap on request bodies, bytes.
    pub max_body_bytes: usize,
    /// Deadline for draining in-flight queries at shutdown.
    pub drain_deadline: Duration,
    /// Deadline applied to queries that do not send their own
    /// `timeout` parameter (`None` = no default deadline).
    pub default_query_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            permits: 4,
            max_connections: 64,
            quota: None,
            read_timeout: Duration::from_secs(2),
            max_header_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
            drain_deadline: Duration::from_secs(5),
            default_query_timeout: None,
        }
    }
}

/// What the drain phase of a shutdown observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Queries in flight when shutdown began.
    pub inflight_at_shutdown: u64,
    /// Queries still holding a permit after the drain deadline *and*
    /// the post-cancel grace period — zero on every healthy shutdown.
    pub leaked: u64,
}

impl std::fmt::Display for DrainReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shutdown: drained {} in-flight queries, leaked {} in-flight queries",
            self.inflight_at_shutdown, self.leaked
        )
    }
}

/// Shared state between the acceptor, connection handlers, and the
/// shutdown path.
struct ServerState {
    engine: Arc<SharedParj>,
    config: ServerConfig,
    metrics: Arc<ServerMetrics>,
    gate: Arc<InflightGate>,
    quotas: Option<QuotaTable>,
    latency: LatencyWindow,
    shutting_down: AtomicBool,
    /// Running queries by request id, with a non-blocking socket clone
    /// for the sweeper (`None`: no disconnect detection); shutdown
    /// cancels whatever is left here after the drain deadline.
    live_tokens: OrderedMutex<HashMap<u64, (CancelToken, Option<TcpStream>)>>,
    next_request_id: AtomicU64,
    /// Connections handed off and not yet closed (drain waits on it).
    active_connections: AtomicUsize,
    handoff: OrderedMutex<Handoff>,
    /// Wakes one parked handler per handed-off connection.
    handoff_ready: OrderedCondvar,
    /// Wakes the sweeper when the server closes.
    sweep_stop: OrderedCondvar,
}

/// Accepted connections on their way to the handler threads.
#[derive(Default)]
struct Handoff {
    queue: VecDeque<TcpStream>,
    /// Handlers not serving a connection.
    free: usize,
    /// The handlers and the sweeper, joined at shutdown.
    threads: Vec<JoinHandle<()>>,
    /// Set once the server has drained: the threads exit.
    closed: bool,
}

impl ServerState {
    fn shutting_down(&self) -> bool {
        // ordering: Relaxed — the flag is a hint consulted at request
        // boundaries; a request racing the flag is answered either way.
        self.shutting_down.load(Ordering::Relaxed)
    }

    fn retry_after(&self) -> u64 {
        self.latency.retry_after_secs()
    }
}

/// A running server: its bound address and the shutdown control.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    acceptor: Option<JoinHandle<()>>,
}

/// Entry point: bind, spawn the acceptor, serve until
/// [`ServerHandle::shutdown`].
pub struct ParjServer;

impl ParjServer {
    /// Binds `config.addr` and starts serving `engine`.
    pub fn spawn(engine: Arc<SharedParj>, config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState {
            metrics: Arc::new(ServerMetrics::new()),
            gate: Arc::new(InflightGate::new(config.permits)),
            quotas: config.quota.map(QuotaTable::new),
            latency: LatencyWindow::new(),
            shutting_down: AtomicBool::new(false),
            live_tokens: OrderedMutex::new(
                LockLevel::Server,
                "server.live_tokens",
                HashMap::new(),
            ),
            next_request_id: AtomicU64::new(0),
            active_connections: AtomicUsize::new(0),
            handoff: OrderedMutex::new(
                LockLevel::ServerHandoff,
                "server.handoff",
                Handoff::default(),
            ),
            handoff_ready: OrderedCondvar::new(LockLevel::ServerHandoff, "server.handoff_ready"),
            sweep_stop: OrderedCondvar::new(LockLevel::ServerHandoff, "server.sweep_stop"),
            engine,
            config,
        });
        let acceptor_state = Arc::clone(&state);
        let acceptor = parj_sync::thread::Builder::new()
            .name("parj-acceptor".to_string())
            .spawn(move || accept_loop(listener, acceptor_state))?;
        // Without a sweeper, queries run without disconnect detection,
        // still bounded by their own guards.
        let sweeper_state = Arc::clone(&state);
        let sweeper = parj_sync::thread::Builder::new()
            .name("parj-sweeper".to_string())
            .spawn(move || sweep_loop(&sweeper_state));
        state.handoff.lock().threads.extend(sweeper.ok());
        Ok(ServerHandle {
            addr,
            state,
            acceptor: Some(acceptor),
        })
    }
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metric registry (shared with `/metrics`).
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.state.metrics)
    }

    /// Queries currently holding a permit.
    pub fn inflight(&self) -> u64 {
        self.state.metrics.inflight()
    }

    /// Graceful shutdown: stop accepting, drain in-flight queries
    /// under the configured deadline, cancel stragglers, and report.
    ///
    /// Idempotent; the second call returns an already-drained report.
    pub fn shutdown(&mut self) -> DrainReport {
        // ordering: Relaxed — see ServerState::shutting_down.
        self.state.shutting_down.store(true, Ordering::Relaxed);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let inflight_at_shutdown = self.state.metrics.inflight();
        let deadline = Instant::now() + self.state.config.drain_deadline;
        while self.connections_active() && Instant::now() < deadline {
            parj_sync::thread::sleep(Duration::from_millis(5));
        }
        if self.connections_active() {
            // Deadline passed: cancel whatever still runs and give the
            // cancellations a short grace period to unwind.
            let tokens: Vec<CancelToken> = {
                let map = self.state.live_tokens.lock();
                map.values().map(|(token, _)| token.clone()).collect()
            };
            for t in &tokens {
                t.cancel();
            }
            let grace = Instant::now() + Duration::from_secs(2);
            while self.connections_active() && Instant::now() < grace {
                parj_sync::thread::sleep(Duration::from_millis(5));
            }
        }
        let threads = {
            let mut h = self.state.handoff.lock();
            h.closed = true;
            std::mem::take(&mut h.threads)
        };
        self.state.handoff_ready.notify_all();
        self.state.sweep_stop.notify_all();
        // A handler still serving past the grace period is left to
        // finish on its own rather than blocking shutdown.
        if !self.connections_active() {
            for t in threads {
                let _ = t.join();
            }
        }
        DrainReport {
            inflight_at_shutdown,
            leaked: self.state.metrics.inflight(),
        }
    }

    fn connections_active(&self) -> bool {
        // ordering: Relaxed — drain-loop observer; the handler's
        // decrement-on-drop makes 0 eventually visible.
        self.state.active_connections.load(Ordering::Relaxed) > 0
            || self.state.metrics.inflight() > 0
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            let _ = self.shutdown();
        }
    }
}

/// Accepts connections until shutdown; sheds past the connection cap
/// without handing off.
fn accept_loop(listener: TcpListener, state: Arc<ServerState>) {
    let conn_cap = state.config.max_connections.max(state.config.permits + 1);
    for stream in listener.incoming() {
        if state.shutting_down() {
            // The wake-up connection (and any racer) is dropped
            // unanswered; the acceptor exits.
            break;
        }
        let mut stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        state.metrics.record_connection();
        // ordering: Relaxed — connection count is a capacity hint and
        // drain signal, not a synchronization point.
        if state.active_connections.load(Ordering::Relaxed) >= conn_cap {
            state.metrics.record_shed();
            let resp = shed_response(&state);
            let _ = http::write_response(&mut stream, &resp, false);
            state.metrics.record_response(resp.status, 0);
            continue;
        }
        // ordering: Relaxed — see above.
        state.active_connections.fetch_add(1, Ordering::Relaxed);
        hand_off(&state, stream);
    }
}

/// Queues `stream` for a handler: wakes a free one, or spawns one when
/// all are busy (so at most `conn_cap` are ever spawned).
fn hand_off(state: &Arc<ServerState>, stream: TcpStream) {
    let mut h = state.handoff.lock();
    if h.free == h.queue.len() {
        let handler_state = Arc::clone(state);
        let spawned = parj_sync::thread::Builder::new()
            .name("parj-conn".to_string())
            .spawn(move || handler_loop(&handler_state));
        let Ok(handler) = spawned else {
            // Thread spawn failed (resource exhaustion): drop the
            // connection unanswered (the OS sends RST).
            // ordering: Relaxed — see accept_loop.
            state.active_connections.fetch_sub(1, Ordering::Relaxed);
            return;
        };
        h.free += 1;
        h.threads.push(handler);
    }
    h.queue.push_back(stream);
    drop(h);
    state.handoff_ready.notify_one();
}

/// A handler thread: serves handed-off connections one at a time,
/// parked in between, reusing its buffers, until the server closes.
fn handler_loop(state: &ServerState) {
    let mut scratch = sparql::Scratch::default();
    loop {
        let mut stream = {
            let mut h = state.handoff.lock();
            loop {
                if let Some(stream) = h.queue.pop_front() {
                    h.free -= 1;
                    break stream;
                }
                if h.closed {
                    return;
                }
                h = state.handoff_ready.wait(h);
            }
        };
        // A handler panic must never take the server down; the 500 path
        // inside already caught query panics, so this outer net only
        // catches handler bugs.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            handle_connection(state, &mut stream, &mut scratch);
        }));
        // Free again before the peer sees the socket close, so a client's
        // next connection finds this handler instead of spawning another.
        state.handoff.lock().free += 1;
        // ordering: Relaxed — see accept_loop.
        state.active_connections.fetch_sub(1, Ordering::Relaxed);
        drop(stream);
    }
}

/// The 429 shed/quota response with its `Retry-After` hint.
fn shed_response(state: &ServerState) -> Response {
    Response::text(429, "server at capacity, retry later")
        .with_header("Retry-After", state.retry_after().to_string())
}

/// The 503 draining response.
fn draining_response(state: &ServerState) -> Response {
    Response::text(503, "server shutting down")
        .with_header("Retry-After", state.retry_after().to_string())
}

/// Serves one request on `stream`; the caller closes it.
fn handle_connection(state: &ServerState, stream: &mut TcpStream, scratch: &mut sparql::Scratch) {
    let peer_ip = stream.peer_addr().map(|a| a.ip()).ok();
    let limits = Limits {
        max_header_bytes: state.config.max_header_bytes,
        max_body_bytes: state.config.max_body_bytes,
        read_timeout: state.config.read_timeout,
    };
    let t0 = Instant::now();
    let req = match http::read_request(stream, &limits) {
        Ok(req) => req,
        Err(e) => {
            if let Some(status) = e.status() {
                let resp = Response::text(status, e.message());
                let _ = http::write_response(stream, &resp, false);
                state
                    .metrics
                    .record_response(status, t0.elapsed().as_micros() as u64);
            }
            return;
        }
    };
    let head_only = req.method == Method::Head;
    let resp = route(state, &req, peer_ip, stream, scratch);
    let status = resp.status;
    let _ = http::write_response(stream, &resp, head_only);
    scratch.reclaim(resp.body);
    state
        .metrics
        .record_response(status, t0.elapsed().as_micros() as u64);
}

/// Routes a parsed request to its endpoint.
fn route(
    state: &ServerState,
    req: &Request,
    peer_ip: Option<IpAddr>,
    stream: &TcpStream,
    scratch: &mut sparql::Scratch,
) -> Response {
    match (req.path.as_str(), &req.method) {
        ("/healthz", Method::Get | Method::Head) => Response::text(200, "ok"),
        ("/readyz", Method::Get | Method::Head) => readyz(state),
        ("/metrics", Method::Get | Method::Head) => metrics_page(state),
        ("/sparql", _) => sparql_endpoint(state, req, peer_ip, stream, scratch),
        ("/healthz" | "/readyz" | "/metrics", _) => {
            Response::text(405, "method not allowed").with_header("Allow", "GET, HEAD".to_string())
        }
        (path, _) => Response::text(404, format!("no such endpoint: {path}")),
    }
}

/// Readiness: finalized store, not draining.
fn readyz(state: &ServerState) -> Response {
    if state.shutting_down() {
        return Response::text(503, "draining");
    }
    match state.engine.try_num_triples() {
        Ok(n) => Response::text(200, format!("ready: {n} triples")),
        Err(ParjError::NotFinalized) => Response::text(503, "store not finalized"),
        Err(e) => Response::text(503, format!("not ready: {e}")),
    }
}

/// Engine + server metric families on one page.
fn metrics_page(state: &ServerState) -> Response {
    let merged: MetricsSnapshot = state
        .engine
        .metrics_snapshot()
        .merge(state.metrics.snapshot());
    Response {
        status: 200,
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        extra_headers: Vec::new(),
        body: merged.to_prometheus().into_bytes(),
    }
}

/// The admission-controlled query path.
fn sparql_endpoint(
    state: &ServerState,
    req: &Request,
    peer_ip: Option<IpAddr>,
    stream: &TcpStream,
    scratch: &mut sparql::Scratch,
) -> Response {
    // Admission state machine, in order: drain check → protocol
    // validation (cheap, unmetered) → per-client quota → permit gate.
    if state.shutting_down() {
        return draining_response(state);
    }
    let parsed = match sparql::extract(req) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    if let (Some(quotas), Some(ip)) = (&state.quotas, peer_ip) {
        if !quotas.try_take(ip, Instant::now()) {
            state.metrics.record_quota_reject();
            return Response::text(429, "client over quota, retry later")
                .with_header("Retry-After", state.retry_after().to_string());
        }
    }
    let Some(permit) = state.gate.try_acquire(&state.metrics) else {
        state.metrics.record_shed();
        return shed_response(state);
    };
    run_admitted(state, &parsed, stream, permit, scratch)
}

/// Runs an admitted query: cancel-on-disconnect registration, panic
/// isolation, latency recording. The permit is held (and the in-flight
/// gauge raised) for exactly the scope of this function.
fn run_admitted(
    state: &ServerState,
    parsed: &sparql::SparqlRequest,
    stream: &TcpStream,
    _permit: Permit,
    scratch: &mut sparql::Scratch,
) -> Response {
    // ordering: Relaxed — the id only needs uniqueness, not ordering.
    let request_id = state.next_request_id.fetch_add(1, Ordering::Relaxed);
    let token = CancelToken::new();
    let socket = stream
        .try_clone()
        .ok()
        .filter(|s| s.set_nonblocking(true).is_ok());
    // A client gone before its query starts is not waited on for a
    // sweep: a query shorter than one poll interval would otherwise run
    // to completion for nobody.
    if socket.as_ref().is_some_and(peer_gone) {
        token.cancel();
    }
    state.live_tokens.lock().insert(request_id, (token.clone(), socket));

    let t0 = Instant::now();
    let timeout = parsed.timeout.or(state.config.default_query_timeout);
    // Panic isolation: a panicking query answers 500 for this request
    // only. The engine holds no state across requests that a panic
    // could corrupt (worker panics are already contained engine-side;
    // this net is for everything else).
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut builder = state.engine.request(&parsed.query).cancel(token);
        if let Some(t) = timeout {
            builder = builder.timeout(t);
        }
        if let Some(n) = parsed.max_rows {
            builder = builder.max_rows(n);
        }
        if parsed.no_cache {
            builder = builder.bypass_cache();
        }
        builder.run()
    }));
    if let Some((_, Some(socket))) = state.live_tokens.lock().remove(&request_id) {
        // `O_NONBLOCK` is shared with the handler's socket: restore
        // blocking mode, under the lock the sweeper peeks under, before
        // any response byte is written.
        let _ = socket.set_nonblocking(false);
    }
    let elapsed = t0.elapsed().as_micros() as u64;
    match result {
        Ok(Ok(outcome)) => {
            state.latency.record(elapsed);
            scratch.serialize(&outcome, parsed.format)
        }
        Ok(Err(err)) => {
            // Completed runs (even failed ones) inform the latency
            // window; shed decisions should reflect real service time.
            state.latency.record(elapsed);
            sparql::error_response(&err)
        }
        Err(panic) => {
            state.metrics.record_panic();
            let msg = panic_message(&panic);
            Response::text(500, format!("internal error: request handler panicked: {msg}"))
        }
    }
}

/// Poll interval of the disconnect sweeper; also the worst-case extra
/// latency before a disconnect is noticed.
const POLL: Duration = Duration::from_millis(50);

/// The disconnect sweeper: every [`POLL`] until the server closes,
/// cancels the registered queries whose peer has closed or reset.
fn sweep_loop(state: &ServerState) {
    loop {
        let h = state.handoff.lock();
        if h.closed {
            return;
        }
        drop(state.sweep_stop.wait_timeout(h, POLL));
        for (token, socket) in state.live_tokens.lock().values() {
            if socket.as_ref().is_some_and(peer_gone) {
                token.cancel();
            }
        }
    }
}

/// True when a non-blocking socket shows EOF or a hard error. Stray
/// pipelined bytes count as alive (one request per connection; the
/// response says `Connection: close`).
fn peer_gone(socket: &TcpStream) -> bool {
    match socket.peek(&mut [0u8; 1]) {
        Ok(n) => n == 0,
        Err(e) => !matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted),
    }
}

/// Best-effort panic payload extraction.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn peer_gone_sees_a_close_but_not_an_open_peer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut socket, _) = listener.accept().unwrap();
        socket.set_nonblocking(true).unwrap();
        assert!(!peer_gone(&socket), "idle peer");
        // Unread bytes count as alive.
        client.write_all(b"x").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while socket.peek(&mut [0u8; 1]).is_err() {
            assert!(Instant::now() < deadline, "byte never arrived");
        }
        assert!(!peer_gone(&socket), "peer with bytes in flight");
        assert_eq!(socket.read(&mut [0u8; 1]).unwrap(), 1);
        drop(client);
        while !peer_gone(&socket) {
            assert!(Instant::now() < deadline, "close never seen");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}
