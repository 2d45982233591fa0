//! The TCP listener, connection handling, and background threads.
//!
//! This file is the only place in the workspace that spawns raw
//! `std::thread`s outside `crates/runtime` (each site carries an
//! `#[expect(clippy::disallowed_methods)]`): the accept loop, one handler
//! per connection, and the optional checkpoint watcher are all I/O-bound
//! coordination threads, not data parallelism. A handler runs its own
//! `/predict` batches ([`Engine::submit`]), and the batched forward itself
//! still runs through the deterministic runtime pool via the tensor
//! kernels.
//!
//! Connections are kept alive: a handler answers requests in order until
//! the peer closes, and [`Server::shutdown`] half-closes every open
//! connection and joins its handler, so no handler outlives the server
//! and a client's idle connection cannot stall the shutdown.
//!
//! Routes:
//!
//! | route           | method | answer                                   |
//! |-----------------|--------|------------------------------------------|
//! | `/predict`      | POST   | 200 [`PredictResponse`], 503 on backpressure |
//! | `/healthz`      | GET    | 200 [`HealthBody`]                       |
//! | `/stats`        | GET    | 200 [`crate::stats::StatsSnapshot`]      |
//! | `/metrics`      | GET    | 200 Prometheus text exposition           |
//! | `/rescan`       | POST   | 200 [`crate::batcher::SwapReport`]       |

use crate::batcher::{lock, BatchConfig, Engine, SwapReport};
use crate::error::ServeError;
use crate::protocol::{
    read_request, write_response, write_response_with_type, ErrorBody, HealthBody, HttpRequest,
    PredictRequest, RejectBody,
};
use crate::stats::StatsSnapshot;
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Watched checkpoint directory (a [`simpadv_resilience::CheckpointStore`]).
    pub model_dir: PathBuf,
    /// Batching and backpressure knobs.
    pub batch: BatchConfig,
    /// Poll interval for the checkpoint watcher thread, in
    /// microseconds; `0` disables the watcher (tests drive
    /// [`Server::rescan`] explicitly instead).
    pub watch_interval_us: u64,
}

impl ServeConfig {
    /// A config with defaults suitable for tests: ephemeral port, no
    /// watcher thread.
    pub fn for_dir(model_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            model_dir: model_dir.into(),
            batch: BatchConfig::default(),
            watch_interval_us: 0,
        }
    }
}

/// A running inference server. Dropping it without calling
/// [`Server::shutdown`] leaks the background threads until process
/// exit; call `shutdown` for an orderly drain.
pub struct Server {
    engine: Arc<Engine>,
    addr: std::net::SocketAddr,
    connections: Arc<Connections>,
    /// The accept loop; it returns the handler threads still running.
    acceptor: JoinHandle<Vec<JoinHandle<()>>>,
    /// The checkpoint watcher, when configured.
    watcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, loads the newest servable generation, and
    /// starts the accept loop (plus the watcher when configured).
    ///
    /// # Errors
    ///
    /// [`ServeError::NoModel`] when the store has no valid generation,
    /// [`ServeError::Io`] when the bind fails.
    #[expect(clippy::disallowed_methods, reason = "I/O-bound server coordination threads")]
    pub fn start(cfg: ServeConfig) -> Result<Server, ServeError> {
        let store = simpadv_resilience::CheckpointStore::open(&cfg.model_dir)?;
        let engine = Arc::new(Engine::new(store, cfg.batch.clone())?);
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| ServeError::Io(format!("bind {}: {e}", cfg.addr)))?;
        let addr = listener.local_addr().map_err(|e| ServeError::Io(format!("local_addr: {e}")))?;
        let connections = Arc::new(Connections::default());
        let (accept_engine, accept_connections) = (Arc::clone(&engine), Arc::clone(&connections));
        let acceptor =
            std::thread::spawn(move || accept_loop(&listener, &accept_engine, &accept_connections));

        let watcher = (cfg.watch_interval_us > 0).then(|| {
            let (watch_engine, interval) = (Arc::clone(&engine), cfg.watch_interval_us);
            std::thread::spawn(move || watch_loop(&watch_engine, interval))
        });

        Ok(Server { engine, addr, connections, acceptor, watcher })
    }

    /// The bound address, e.g. `127.0.0.1:41347`.
    pub fn local_addr(&self) -> String {
        self.addr.to_string()
    }

    /// The shared batching engine (for in-process tests).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Triggers a checkpoint rescan now.
    ///
    /// # Errors
    ///
    /// [`ServeError::Persist`] when the store cannot be listed.
    pub fn rescan(&self) -> Result<SwapReport, ServeError> {
        self.engine.rescan()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.engine.stats()
    }

    /// Blocks until `target` requests have been answered.
    pub fn wait_served(&self, target: u64) {
        self.engine.wait_served(target);
    }

    /// Stops taking requests, closes every connection once its handler
    /// has answered what it read, stops every background thread, and
    /// returns the final statistics snapshot.
    pub fn shutdown(self) -> StatsSnapshot {
        self.engine.shutdown();
        // The accept loop blocks in accept(); a throwaway connection
        // wakes it so it can observe the stop flag.
        let _ = TcpStream::connect(self.addr);
        let handlers = self.acceptor.join().unwrap_or_default();
        // No connection opens from here on. Half-closing the rest ends
        // every handler's wait for a next request, while an answer being
        // written still goes out.
        for stream in lock(&self.connections).values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for handle in handlers.into_iter().chain(self.watcher) {
            let _ = handle.join();
        }
        self.engine.stats()
    }
}

/// The open connections, by accept order, so [`Server::shutdown`] can
/// end their handlers' reads: each entry is a second handle on the
/// handler's socket, dropped when the handler finishes.
type Connections = Mutex<BTreeMap<u64, TcpStream>>;

/// Accepts connections until shutdown, one handler thread each, and
/// returns the handlers still running.
#[expect(clippy::disallowed_methods, reason = "one I/O-bound handler thread per connection")]
fn accept_loop(
    listener: &TcpListener,
    engine: &Arc<Engine>,
    connections: &Arc<Connections>,
) -> Vec<JoinHandle<()>> {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for id in 0u64.. {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) if engine.stopping() => break,
            Err(_) => continue,
        };
        if engine.stopping() {
            break;
        }
        let Ok(handle) = stream.try_clone() else { continue };
        let _ = stream.set_nodelay(true);
        lock(connections).insert(id, handle);
        handlers.retain(|h| !h.is_finished());
        let (engine, connections) = (Arc::clone(engine), Arc::clone(connections));
        handlers.push(std::thread::spawn(move || {
            handle_connection(stream, &engine);
            lock(&connections).remove(&id);
        }));
    }
    handlers
}

/// Polls the checkpoint store for new generations until shutdown.
#[expect(clippy::disallowed_methods, reason = "the watcher sleeps between polls")]
fn watch_loop(engine: &Arc<Engine>, interval_us: u64) {
    // Sleep in short slices so shutdown is never delayed by a long
    // watch interval.
    let slice_us = interval_us.clamp(1, 50_000);
    let slice = Duration::from_micros(slice_us);
    let slices = (interval_us / slice_us).max(1);
    loop {
        for _ in 0..slices {
            if engine.stopping() {
                return;
            }
            std::thread::sleep(slice);
        }
        if engine.stopping() {
            return;
        }
        let _ = engine.rescan();
    }
}

/// Serves one keep-alive connection until the peer closes it (or
/// shutdown half-closes it).
fn handle_connection(stream: TcpStream, engine: &Arc<Engine>) {
    let mut reader = BufReader::new(stream);
    loop {
        match read_request(&mut reader) {
            Ok(None) => return,
            Ok(Some(request)) => {
                let keep_going = respond(reader.get_mut(), engine, &request);
                if !keep_going {
                    return;
                }
            }
            Err(ServeError::BadRequest(detail)) => {
                let _ = send_error(reader.get_mut(), 400, "Bad Request", &detail);
                return;
            }
            Err(_) => return,
        }
    }
}

/// Routes one parsed request; returns false when the connection should
/// close.
fn respond(writer: &mut TcpStream, engine: &Arc<Engine>, request: &HttpRequest) -> bool {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/predict") => {
            // A malformed traceparent degrades to an uncorrelated
            // request rather than a 400: tracing is observability, not
            // part of the request contract.
            let remote =
                request.traceparent.as_deref().and_then(simpadv_trace::TraceContext::parse);
            let answer =
                PredictRequest::from_body(&request.body).and_then(|req| engine.submit(req, remote));
            match answer {
                Ok(resp) => send_json(writer, 200, "OK", &resp),
                Err(ServeError::Rejected { capacity }) => {
                    let body = RejectBody {
                        error: "queue_full".to_string(),
                        queue_capacity: capacity as u64,
                    };
                    send_json(writer, 503, "Service Unavailable", &body)
                }
                Err(ServeError::BadRequest(detail)) => {
                    send_error(writer, 400, "Bad Request", &detail)
                }
                Err(ServeError::ShuttingDown) => {
                    send_error(writer, 503, "Service Unavailable", "shutting down")
                }
                Err(other) => send_error(writer, 500, "Internal Server Error", &other.to_string()),
            }
        }
        ("GET", "/healthz") => {
            let body = HealthBody {
                status: "ok".to_string(),
                generation: engine.current_generation(),
                method: engine.method(),
            };
            send_json(writer, 200, "OK", &body)
        }
        ("GET", "/stats") => send_json(writer, 200, "OK", &engine.stats()),
        ("GET", "/metrics") => {
            let text = engine.stats().to_prometheus();
            write_response_with_type(
                writer,
                200,
                "OK",
                "text/plain; version=0.0.4",
                text.as_bytes(),
            )
            .is_ok()
        }
        ("POST", "/rescan") => match engine.rescan() {
            Ok(report) => send_json(writer, 200, "OK", &report),
            Err(e) => send_error(writer, 500, "Internal Server Error", &e.to_string()),
        },
        _ => send_error(writer, 404, "Not Found", "no such route"),
    }
}

/// Serializes `body` and writes a JSON response; returns false on a
/// dead socket.
fn send_json<T: serde::Serialize>(
    writer: &mut TcpStream,
    status: u16,
    reason: &str,
    body: &T,
) -> bool {
    let text = match serde_json::to_string(body) {
        Ok(text) => text,
        Err(_) => {
            return write_response(
                writer,
                500,
                "Internal Server Error",
                b"{\"error\":\"encode failure\"}",
            )
            .is_ok()
        }
    };
    write_response(writer, status, reason, text.as_bytes()).is_ok()
}

/// Writes an error body; returns false on a dead socket.
fn send_error(writer: &mut TcpStream, status: u16, reason: &str, detail: &str) -> bool {
    let body = ErrorBody { error: detail.to_string() };
    send_json(writer, status, reason, &body)
}
