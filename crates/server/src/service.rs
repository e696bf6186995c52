//! The frame service: one TCP listener speaking the [`wire`](crate::wire)
//! protocol, shared by `revelio-serve` and `revelio-gateway`.
//!
//! A front-end supplies only a dispatch function, `(Request, Instant) ->
//! (Response, close_after)`; the service owns everything around it. One
//! acceptor thread polls a non-blocking listener every [`POLL_INTERVAL`];
//! each accepted connection gets a handler thread that loops read →
//! decode → dispatch → encode → write. A frame that fails to read or
//! decode is answered with a best-effort `Malformed` error and the
//! connection is closed, because framing is lost and nothing later on the
//! stream can be trusted. The [`WireState`] it shares with the front-end
//! holds the single stop flag and the wire counters that `Stats` reports.
//!
//! Stop is graceful: raising the flag halts the acceptor and ends every
//! handler *between frames* (a frame that has started arriving is still
//! given its read timeout), and [`FrameService::shutdown`] joins every
//! thread the service spawned. Dropping the service does the same.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use revelio_runtime::{Histogram, MetricsSnapshot};

use crate::wire::{
    crc32, parse_header, write_frame, ErrorKind, Request, Response, ServerStats, WireError,
    HEADER_LEN,
};

/// Interval at which blocked accepts and reads wake up to poll the stop
/// flag.
pub const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Per-connection limits of a frame service.
#[derive(Debug, Clone, Copy)]
pub struct FrameLimits {
    /// Per-frame payload cap; larger frames are rejected before allocation.
    pub max_frame_len: usize,
    /// Once a frame has *begun* arriving, the rest of it must arrive
    /// within this budget or the connection is dropped. Idle connections
    /// are never timed out.
    pub read_timeout: Duration,
    /// Budget for writing one response frame.
    pub write_timeout: Duration,
}

/// Wire-level counters, updated by handler threads (and, for `shed` and
/// the trace counters, by the server's dispatch).
#[derive(Default)]
pub(crate) struct WireCounters {
    pub(crate) connections_accepted: AtomicU64,
    pub(crate) connections_active: AtomicU64,
    pub(crate) bytes_in: AtomicU64,
    pub(crate) bytes_out: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    pub(crate) request_latency: Histogram,
    pub(crate) trace_sampled: AtomicU64,
    pub(crate) trace_dropped: AtomicU64,
}

/// The state a frame service shares with its front-end: the stop flag and
/// the wire counters.
#[derive(Default)]
pub struct WireState {
    stop: AtomicBool,
    pub(crate) counters: WireCounters,
}

impl WireState {
    /// Requests shutdown: the acceptor stops and handlers exit at their
    /// next frame boundary.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Whether a shutdown has been requested.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// The wire counters folded together with a runtime snapshot.
    pub(crate) fn stats(&self, runtime: MetricsSnapshot) -> ServerStats {
        let c = &self.counters;
        ServerStats {
            connections_accepted: c.connections_accepted.load(Ordering::Relaxed),
            connections_active: c.connections_active.load(Ordering::Relaxed),
            bytes_in: c.bytes_in.load(Ordering::Relaxed),
            bytes_out: c.bytes_out.load(Ordering::Relaxed),
            requests: c.requests.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            protocol_errors: c.protocol_errors.load(Ordering::Relaxed),
            request_latency: c.request_latency.snapshot(),
            runtime,
            trace_sampled: c.trace_sampled.load(Ordering::Relaxed),
            trace_dropped: c.trace_dropped.load(Ordering::Relaxed),
        }
    }
}

/// Serves one decoded request; the `Instant` is when its frame finished
/// arriving, and a `true` in the answer closes the connection after the
/// response is written.
type Dispatch = dyn Fn(Request, Instant) -> (Response, bool) + Send + Sync;

/// Threads spawned by a service, joined on shutdown.
type Threads = Arc<Mutex<Vec<JoinHandle<()>>>>;

/// A running listener; dropping it stops it and joins every thread it
/// spawned.
pub struct FrameService {
    wire: Arc<WireState>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    threads: Threads,
}

impl FrameService {
    /// Binds `addr` and spawns the acceptor; the service is accepting once
    /// this returns. `name` prefixes the thread names.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener or spawning the acceptor.
    pub fn start(
        addr: &str,
        name: &str,
        limits: FrameLimits,
        wire: Arc<WireState>,
        dispatch: impl Fn(Request, Instant) -> (Response, bool) + Send + Sync + 'static,
    ) -> std::io::Result<FrameService> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let threads = Threads::default();
        let acceptor = {
            let conn = Arc::new(Connection {
                wire: Arc::clone(&wire),
                limits,
                dispatch: Box::new(dispatch),
            });
            let threads = Arc::clone(&threads);
            let conn_name = format!("{name}-conn");
            thread::Builder::new()
                .name(format!("{name}-acceptor"))
                .spawn(move || accept_loop(&listener, &conn, &threads, &conn_name))?
        };
        Ok(FrameService {
            wire,
            local_addr,
            acceptor: Some(acceptor),
            threads,
        })
    }

    /// Spawns a companion thread (a health poller, say) that is joined
    /// with the handlers on shutdown; it must exit once the stop flag is
    /// raised.
    ///
    /// # Errors
    ///
    /// I/O errors from spawning the thread.
    pub fn spawn(&self, name: &str, f: impl FnOnce() + Send + 'static) -> std::io::Result<()> {
        let handle = thread::Builder::new().name(name.to_owned()).spawn(f)?;
        lock(&self.threads).push(handle);
        Ok(())
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Whether a shutdown has been requested.
    pub fn stopping(&self) -> bool {
        self.wire.stopping()
    }

    /// Requests shutdown without blocking.
    pub fn stop(&self) {
        self.wire.stop();
    }

    /// Stops accepting, lets every handler finish its current frame, and
    /// joins all threads.
    pub fn shutdown(&mut self) {
        self.stop();
        self.join();
    }

    /// Blocks until the stop flag is raised (by [`FrameService::stop`] or
    /// a dispatch answering `Shutdown`), then joins all threads.
    pub fn wait(&mut self) {
        while !self.stopping() {
            thread::sleep(POLL_INTERVAL);
        }
        self.join();
    }

    fn join(&mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // The acceptor has exited, so no new handlers can appear.
        let drained: Vec<_> = lock(&self.threads).drain(..).collect();
        for h in drained {
            let _ = h.join();
        }
    }
}

impl Drop for FrameService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Locks a mutex, recovering the inner value from a poisoned guard.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// What every handler thread of one service shares.
struct Connection {
    wire: Arc<WireState>,
    limits: FrameLimits,
    dispatch: Box<Dispatch>,
}

fn accept_loop(listener: &TcpListener, conn: &Arc<Connection>, threads: &Threads, conn_name: &str) {
    let counters = &conn.wire.counters;
    while !conn.wire.stopping() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                counters
                    .connections_accepted
                    .fetch_add(1, Ordering::Relaxed);
                counters.connections_active.fetch_add(1, Ordering::Relaxed);
                let handler_conn = Arc::clone(conn);
                let spawn = thread::Builder::new()
                    .name(conn_name.to_owned())
                    .spawn(move || {
                        handle_connection(stream, &handler_conn);
                        handler_conn
                            .wire
                            .counters
                            .connections_active
                            .fetch_sub(1, Ordering::Relaxed);
                    });
                match spawn {
                    Ok(h) => {
                        let mut hs = lock(threads);
                        // Reap finished handlers so a long-lived service
                        // with many short connections does not hoard
                        // JoinHandles; dropping a finished handle just
                        // detaches an already-dead thread.
                        hs.retain(|h| !h.is_finished());
                        hs.push(h);
                    }
                    Err(_) => {
                        // Thread spawn failed (resource exhaustion); the
                        // stream drops and the peer sees a reset.
                        counters.connections_active.fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }
            Err(_) => thread::sleep(POLL_INTERVAL),
        }
    }
}

fn handle_connection(mut stream: TcpStream, conn: &Connection) {
    // Short socket timeouts turn blocking reads into a stop-flag poll loop;
    // `read_frame_cancellable` enforces the real per-frame budget itself.
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(conn.limits.write_timeout));
    let _ = stream.set_nodelay(true);
    let counters = &conn.wire.counters;

    loop {
        let frame = read_frame_cancellable(
            &mut stream,
            conn.limits.max_frame_len,
            conn.limits.read_timeout,
            &conn.wire.stop,
        );
        let payload = match frame {
            Ok(Some((payload, frame_len))) => {
                counters
                    .bytes_in
                    .fetch_add(frame_len as u64, Ordering::Relaxed);
                payload
            }
            Ok(None) => return,
            Err(e) => {
                reject_malformed(&mut stream, conn, e.to_string());
                return;
            }
        };
        let t0 = Instant::now();
        let request = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                reject_malformed(&mut stream, conn, e.to_string());
                return;
            }
        };
        let (response, close_after) = (conn.dispatch)(request, t0);
        counters.requests.fetch_add(1, Ordering::Relaxed);
        counters.request_latency.observe(t0.elapsed());
        if send_response(&mut stream, conn, &response).is_err() || close_after {
            return;
        }
    }
}

/// Counts a protocol error and sends a best-effort `Malformed` diagnostic;
/// the caller then drops the connection.
fn reject_malformed(stream: &mut TcpStream, conn: &Connection, message: String) {
    conn.wire
        .counters
        .protocol_errors
        .fetch_add(1, Ordering::Relaxed);
    let resp = Response::Error {
        kind: ErrorKind::Malformed,
        message,
    };
    let _ = send_response(stream, conn, &resp);
}

fn send_response(
    stream: &mut TcpStream,
    conn: &Connection,
    resp: &Response,
) -> Result<(), WireError> {
    let n = write_frame(stream, &resp.encode(), conn.limits.max_frame_len)?;
    conn.wire
        .counters
        .bytes_out
        .fetch_add(n as u64, Ordering::Relaxed);
    Ok(())
}

/// Reads one frame from a stream whose read timeout is set to a short poll
/// interval, waking between reads to check `stop`.
///
/// Returns `Ok(None)` on a clean end (peer EOF between frames, or `stop`
/// raised while no frame is in progress) and `Ok(Some((payload,
/// frame_len)))` on success, where `frame_len` counts header + payload
/// bytes for accounting. A frame that *started* is given `read_timeout` to
/// finish even after `stop` is raised (the peer paid for the bytes;
/// cutting mid-frame would just produce a protocol error on their side).
/// Callers must have set a short socket read timeout (else `stop` is only
/// polled at that cadence).
pub fn read_frame_cancellable(
    stream: &mut TcpStream,
    max_len: usize,
    read_timeout: Duration,
    stop: &AtomicBool,
) -> Result<Option<(Vec<u8>, usize)>, WireError> {
    let mut buf: Vec<u8> = Vec::with_capacity(HEADER_LEN);
    let mut chunk = [0u8; 64 * 1024];
    let mut started_at: Option<Instant> = None;
    let mut need = HEADER_LEN;
    let mut expected_crc = 0u32;
    let mut header_parsed = false;

    loop {
        if let Some(t0) = started_at {
            if t0.elapsed() > read_timeout {
                return Err(WireError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "frame did not complete within the read timeout",
                )));
            }
        } else if stop.load(Ordering::Acquire) {
            return Ok(None);
        }
        let want = (need - buf.len()).min(chunk.len());
        match stream.read(&mut chunk[..want]) {
            Ok(0) => {
                return if buf.is_empty() {
                    Ok(None)
                } else {
                    Err(WireError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    )))
                };
            }
            Ok(n) => {
                if started_at.is_none() {
                    started_at = Some(Instant::now());
                }
                buf.extend_from_slice(&chunk[..n]);
                if !header_parsed && buf.len() == HEADER_LEN {
                    let mut header = [0u8; HEADER_LEN];
                    header.copy_from_slice(&buf);
                    let (len, crc) = parse_header(&header, max_len)?;
                    header_parsed = true;
                    expected_crc = crc;
                    need = HEADER_LEN + len;
                }
                if header_parsed && buf.len() == need {
                    let payload = buf.split_off(HEADER_LEN);
                    let got = crc32(&payload);
                    if got != expected_crc {
                        return Err(WireError::ChecksumMismatch {
                            expected: expected_crc,
                            got,
                        });
                    }
                    return Ok(Some((payload, need)));
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
}
