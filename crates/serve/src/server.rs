//! The server: accept loop, worker pool, load shedding, graceful drain.
//!
//! One thread accepts; `workers` threads pull admitted connections off a
//! bounded [`Bounded`] queue. Admission control is strict: a connection
//! either enters the queue or is answered `503` + `Retry-After` on the
//! spot — the server never buffers beyond `queue_capacity`. The accept
//! thread blocks in `accept()`, so a connection is handed on the moment
//! it arrives. Shutdown ([`ServerHandle::shutdown`], which `prox serve`
//! calls on SIGINT/SIGTERM) cancels the shared [`CancelFlag`] and wakes
//! the accept thread with one loopback connection; the flag (a) stops the
//! accept loop, (b) degrades in-flight summarizations to their anytime
//! best-so-far answers, and (c) closes the queue so workers drain what
//! was already admitted and exit.
//!
//! Worker supervision: every connection is handled under `catch_unwind`.
//! A panicking handler (a bug, or the `panic` fault site) is converted to
//! a typed 500 on the wire, counted in `serve/worker_panics` and reported
//! to the [`Health`] state machine — and the worker keeps draining the
//! queue, so one poisoned request never drops the requests queued behind
//! it. A second `catch_unwind` around the whole loop restarts it if a
//! panic ever escapes the per-connection boundary.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use prox_obs::{Counter, Gauge};
use prox_robust::{CancelFlag, ExecutionBudget, ProxError};

use crate::health::Health;
use crate::http::{self, Response};
use crate::queue::Bounded;
use crate::service::{self, ServiceCtx, StoreState};

static SHED: Counter = Counter::new("serve/shed");
static CONNECTIONS: Counter = Counter::new("serve/connections");
/// Workers currently handling a connection (utilization gauge).
static WORKERS_BUSY: Gauge = Gauge::new("serve/workers_busy");

/// Server tunables; [`ServerConfig::default`] matches the CLI defaults.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (tests).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Admission queue capacity; beyond it, connections are shed.
    pub queue_capacity: usize,
    /// Summary cache capacity (responses).
    pub cache_capacity: usize,
    /// Wall-clock budget for requests without `X-Prox-Budget-Ms`.
    pub default_budget_ms: u64,
    /// Per-connection I/O deadline (reading the request).
    pub io_deadline_ms: u64,
    /// Seed for deterministic trace ids and the tail-sampling hash.
    pub trace_seed: u64,
    /// Retention rate for healthy-request traces in `[0,1]`; errored,
    /// degraded, and slow requests are always retained.
    pub trace_sample_rate: f64,
    /// Capacity of the retained-trace ring (`/debug/traces`).
    pub trace_capacity: usize,
    /// Per-tenant token-bucket refill rate (tokens/second) for requests
    /// carrying `X-Prox-Tenant`; `0` disables rate limiting.
    pub tenant_rate: f64,
    /// Per-tenant bucket capacity (burst).
    pub tenant_burst: f64,
    /// Segment-store directory (`--store <dir>`); when set, summaries
    /// are also served straight off segments on `/summarize/store`.
    pub store_dir: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7070".to_owned(),
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 64,
            default_budget_ms: 2_000,
            io_deadline_ms: 10_000,
            trace_seed: 0,
            trace_sample_rate: 1.0,
            trace_capacity: 128,
            tenant_rate: 50.0,
            tenant_burst: 20.0,
            store_dir: None,
        }
    }
}

/// Constructor namespace for the service (see [`Server::start`]).
pub struct Server;

/// A running server: address, shutdown control, and joinable threads.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: CancelFlag,
    queue: Arc<Bounded<TcpStream>>,
    health: Health,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the worker pool and the accept loop, and return a
    /// handle. The accept loop blocks in `accept()` and checks the
    /// shutdown flag after each connection; [`ServerHandle::shutdown`]
    /// wakes it with a loopback connection of its own.
    pub fn start(config: ServerConfig) -> Result<ServerHandle, ProxError> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| ProxError::io(format!("bind {}", config.addr), &e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ProxError::io("local_addr", &e))?;

        let shutdown = CancelFlag::new();
        let queue = Arc::new(Bounded::new(config.queue_capacity));
        let mut ctx = ServiceCtx::from_config(&config, shutdown.clone());
        if let Some(dir) = &config.store_dir {
            // Refusing to start beats serving 500s off a broken store.
            ctx = ctx.with_store(StoreState::open(dir)?);
        }
        let ctx = Arc::new(ctx);
        let health = ctx.health.clone();

        let mut workers = Vec::with_capacity(config.workers.max(1));
        for ix in 0..config.workers.max(1) {
            let queue = Arc::clone(&queue);
            let ctx = Arc::clone(&ctx);
            let io_deadline_ms = config.io_deadline_ms;
            let spawned = thread::Builder::new()
                .name(format!("prox-serve-worker-{ix}"))
                .spawn(move || supervised_worker(&queue, &ctx, io_deadline_ms))
                .map_err(|e| ProxError::io("spawning worker", &e))?;
            workers.push(spawned);
        }

        let accept = {
            let queue = Arc::clone(&queue);
            let shutdown = shutdown.clone();
            let health = ctx.health.clone();
            thread::Builder::new()
                .name("prox-serve-accept".to_owned())
                .spawn(move || accept_loop(&listener, &queue, &shutdown, &health))
                .map_err(|e| ProxError::io("spawning accept loop", &e))?
        };

        Ok(ServerHandle {
            addr,
            shutdown,
            queue,
            health,
            accept: Some(accept),
            workers,
        })
    }
}

/// Accept connections until shutdown, shedding with `503` when the
/// admission queue is full, then close the queue so workers drain.
///
/// `accept()` blocks, so an arriving connection is admitted at once. The
/// shutdown flag is read after every accept: the connection that finds it
/// raised is [`ServerHandle::stop`]'s wake-up (or a client racing the
/// drain) and is dropped unanswered, uncounted and unqueued.
fn accept_loop(
    listener: &TcpListener,
    queue: &Bounded<TcpStream>,
    shutdown: &CancelFlag,
    health: &Health,
) {
    loop {
        // admission loop: bounded by the shutdown flag, not a budget
        let accepted = listener.accept();
        if shutdown.is_cancelled() {
            // Flip health to draining *before* closing the queue: any
            // admitted-but-unserved `/healthz` probe already answers 503.
            health.begin_drain();
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                CONNECTIONS.incr();
                if let Err(stream) = queue.try_push(stream) {
                    shed(stream);
                }
            }
            // A real accept error (`EMFILE`, `ENFILE`, ...) would only
            // repeat if retried at once; back off briefly.
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
    queue.close();
}

/// Wake an accept thread blocked in `accept()` once the shutdown flag is
/// raised: connect to the listener until the thread has exited. One
/// connection normally does it; the retry covers a SYN dropped by a full
/// listen backlog and a read of the flag that is not yet current.
fn wake(bound: SocketAddr, accept: &JoinHandle<()>) {
    // An unspecified bind address (`0.0.0.0`, `::`) is reached through
    // its family's loopback address.
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    let target = SocketAddr::new(ip, bound.port());
    let budget = ExecutionBudget::unlimited();
    let mut session = budget.start();
    while !accept.is_finished() {
        let _ = session.note_step();
        // Dropped at once: the loop closes its end without answering.
        let _ = TcpStream::connect_timeout(&target, Duration::from_millis(100));
        // Let the accept thread see the flag and exit before knocking again.
        thread::sleep(Duration::from_millis(1));
    }
}

/// Answer a rejected connection immediately: `503` + `Retry-After: 1`.
fn shed(mut stream: TcpStream) {
    SHED.incr();
    prox_obs::window::record_shed();
    let mut resp = Response::json(
        503,
        "{\"error\": \"admission queue full\", \"kind\": \"overload\"}".to_owned(),
    );
    resp.retry_after = Some(1);
    let _ = http::write_response(&mut stream, &resp);
}

/// Supervisor wrapper: restart [`worker_loop`] if a panic ever escapes
/// the per-connection `catch_unwind` boundary (queue bookkeeping, gauge
/// updates). The loop exits normally only when the queue closes, so a
/// worker thread can die early only by leaking through *two* boundaries.
fn supervised_worker(queue: &Bounded<TcpStream>, ctx: &ServiceCtx, io_deadline_ms: u64) {
    loop {
        match catch_unwind(AssertUnwindSafe(|| worker_loop(queue, ctx, io_deadline_ms))) {
            Ok(()) => break,
            Err(_) => ctx.health.note_panic(),
        }
    }
}

/// Pull admitted connections until the queue closes and drains. The pop
/// itself polls the session (rule L3); `note_step` keeps per-worker
/// throughput visible in `steps_taken` if anyone attaches a budget.
fn worker_loop(queue: &Bounded<TcpStream>, ctx: &ServiceCtx, io_deadline_ms: u64) {
    let budget = ExecutionBudget::unlimited();
    let mut session = budget.start();
    while let Some(mut stream) = queue.pop(&mut session) {
        let _ = session.note_step();
        WORKERS_BUSY.add(1);
        // Supervision boundary: a panicking handler (a bug, or the
        // `panic` fault site) becomes a typed 500 and a degraded health
        // state — never a dead worker or a dropped queue.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handle_connection(&mut stream, ctx, io_deadline_ms)
        }));
        match outcome {
            Ok(()) => ctx.health.note_ok(),
            Err(_) => {
                ctx.health.note_panic();
                let _ = http::write_response(&mut stream, &service::panic_response());
            }
        }
        WORKERS_BUSY.add(-1);
    }
}

/// One connection end to end: budgeted read, routed response, write.
fn handle_connection(stream: &mut TcpStream, ctx: &ServiceCtx, io_deadline_ms: u64) {
    // The read session is cancel-linked so shutdown never blocks on a
    // client that connected but went quiet: the connection is answered
    // (408) and the worker moves on to drain the queue.
    let mut io_session = ExecutionBudget::unlimited()
        .with_deadline_ms(io_deadline_ms)
        .with_cancel(ctx.shutdown.clone())
        .start();
    let parsed = http::read_request(stream, &mut io_session);
    // Fault site: a `conndrop` clause severs the connection here, after
    // the read but before any response — the client sees a reset and its
    // retry-with-backoff path is exercised end to end.
    if parsed.is_ok() && prox_robust::fault::conndrop_fire() {
        let _ = stream.shutdown(std::net::Shutdown::Both);
        return;
    }
    // `respond` traces, classifies, and stamps `X-Prox-Trace-Id`.
    let response = service::respond(parsed, ctx);
    // A client that hung up mid-response is its own problem.
    let _ = http::write_response(stream, &response);
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A clone of the shutdown flag (cancel it to begin a graceful stop).
    pub fn shutdown_flag(&self) -> CancelFlag {
        self.shutdown.clone()
    }

    /// Current admission-queue occupancy.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// A clone of the process health handle (tests and the CLI).
    pub fn health(&self) -> Health {
        self.health.clone()
    }

    /// Graceful stop: cancel, wake the accept loop so it closes the
    /// queue, drain admitted connections, join every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.health.begin_drain();
        self.shutdown.cancel();
        if let Some(accept) = self.accept.take() {
            wake(self.addr, &accept);
            let _ = accept.join();
        }
        // The accept loop has closed the queue by now; workers drain what
        // was admitted, observe `None`, and exit.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_capacity: 8,
            cache_capacity: 8,
            default_budget_ms: 5_000,
            io_deadline_ms: 2_000,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn starts_on_ephemeral_port_and_answers_healthz() {
        let handle = Server::start(test_config()).expect("server starts");
        let addr = handle.addr().to_string();
        let (status, body) =
            http::client_request(&addr, "GET", "/healthz", &[], b"", 5_000).expect("request");
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\""));
        handle.shutdown();
    }

    #[test]
    fn shutdown_joins_cleanly_with_no_traffic() {
        let handle = Server::start(test_config()).expect("server starts");
        handle.shutdown();
    }

    #[test]
    fn bind_failure_is_a_typed_error() {
        let mut cfg = test_config();
        cfg.addr = "256.0.0.1:0".to_owned();
        match Server::start(cfg) {
            Err(e) => assert_eq!(e.kind(), prox_robust::ErrorKind::Input),
            Ok(_) => panic!("bind to invalid address must fail"),
        }
    }
}
