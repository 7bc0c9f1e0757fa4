//! The readiness-driven event loop: one thread multiplexing every
//! connection over `poll(2)`, with request execution handed to a
//! [`WorkerPool`](crate::WorkerPool) so a slow request never stalls the
//! loop.
//!
//! # Shape
//!
//! * One reactor thread owns the listener, a self-pipe wakeup token,
//!   and a slab of nonblocking connections.
//! * Each connection carries a [`LineAssembler`](crate::LineAssembler)
//!   (bounded read side) and a write buffer (bounded by backpressure:
//!   while the backlog exceeds `max_write_backlog` the connection is
//!   neither read from nor dispatched).
//! * At most one request per connection is in flight at a time, so
//!   responses come back in request order. Workers finish a request by
//!   queueing a completion and poking the wakeup pipe; the reactor
//!   matches it against the slot's generation so a completion can never
//!   land on a reused slot.
//! * A connection whose write side makes no progress for
//!   `write_stall_timeout` while a backlog is pending is evicted as a
//!   slow consumer. Connections over `max_connections` are answered
//!   with a single overload line at accept and closed.
//! * Shutdown drains: the listener stops accepting, in-flight requests
//!   complete and flush, then surviving connections are evicted with
//!   reason [`EvictReason::Shutdown`]; `drain_timeout` bounds the whole
//!   phase.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use panacea_faultline::Fault;
use sys_poll::{poll_fds, Pipe, PollFd, POLLIN, POLLOUT};

use crate::counters::ConnectionCounters;
use crate::line::{LineAssembler, LineError};
use crate::workers::WorkerPool;

/// Produces responses for the reactor. Implementations must be cheap to
/// share — every worker thread calls [`serve`](Service::serve)
/// concurrently.
pub trait Service: Send + Sync + 'static {
    /// Handles one complete request line (valid UTF-8, newline already
    /// stripped) and returns the response line (newline appended by the
    /// reactor).
    fn serve(&self, line: &str) -> String;

    /// The response line for a malformed frame (too long, invalid
    /// UTF-8). The connection closes after it flushes.
    fn bad_request(&self, detail: &str) -> String;

    /// The response line for a connection rejected at the
    /// `max_connections` bound. The connection closes after it flushes.
    fn overloaded(&self, detail: &str) -> String;

    /// The response line when the handler itself panicked mid-request.
    /// The reactor catches the panic on the worker, answers with this
    /// line, and keeps the connection open — the in-flight request must
    /// always complete or the peer hangs forever. The default reuses
    /// [`bad_request`](Self::bad_request); protocol layers should
    /// override with their internal-error spelling.
    fn internal_error(&self, detail: &str) -> String {
        self.bad_request(detail)
    }
}

/// Why the reactor force-closed a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictReason {
    /// The peer stopped draining its responses and the write backlog
    /// stalled past the timeout.
    SlowConsumer,
    /// The connection arrived while `max_connections` were already
    /// open; it got one overload line and the door.
    MaxConnections,
    /// The server is shutting down and the connection outlived the
    /// drain.
    Shutdown,
}

impl EvictReason {
    /// Stable wire/telemetry spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            EvictReason::SlowConsumer => "slow_consumer",
            EvictReason::MaxConnections => "max_connections",
            EvictReason::Shutdown => "shutdown",
        }
    }
}

/// The per-connection lifecycle stages the reactor times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnStage {
    /// Accepting and registering the connection.
    Accept,
    /// Draining readable bytes into the line assembler.
    Read,
    /// Flushing buffered response bytes.
    Write,
    /// Executing one request on a worker.
    Dispatch,
}

impl ConnStage {
    /// Stable telemetry spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ConnStage::Accept => "accept",
            ConnStage::Read => "read",
            ConnStage::Write => "write",
            ConnStage::Dispatch => "dispatch",
        }
    }
}

/// Observes connection lifecycle and stage timings. Every method has a
/// no-op default; implement only what you report. `open_now` is the
/// open-connection gauge after the event.
pub trait ConnObserver: Send + Sync + 'static {
    /// A connection was accepted and registered.
    fn conn_open(&self, open_now: u64) {
        let _ = open_now;
    }

    /// A connection closed normally (peer EOF or orderly completion).
    fn conn_close(&self, open_now: u64) {
        let _ = open_now;
    }

    /// A connection was force-closed.
    fn conn_evict(&self, reason: EvictReason, open_now: u64) {
        let _ = (reason, open_now);
    }

    /// One stage of connection handling took `elapsed`.
    fn stage_time(&self, stage: ConnStage, elapsed: Duration) {
        let _ = (stage, elapsed);
    }
}

/// A [`ConnObserver`] that observes nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl ConnObserver for NullObserver {}

/// Reactor tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ReactorConfig {
    /// Connections beyond this are answered with one overload line and
    /// closed at accept.
    pub max_connections: usize,
    /// Worker threads executing requests (clamped to at least one).
    pub workers: usize,
    /// Per-request-line byte bound (newline excluded).
    pub max_line_bytes: usize,
    /// Write backlog above which a connection stops being read from and
    /// dispatched until the peer drains.
    pub max_write_backlog: usize,
    /// How long a pending write backlog may make zero progress before
    /// the connection is evicted as a slow consumer.
    pub write_stall_timeout: Duration,
    /// Upper bound on the shutdown drain phase.
    pub drain_timeout: Duration,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            max_connections: 1024,
            workers: 4,
            max_line_bytes: crate::line::DEFAULT_MAX_LINE_BYTES,
            max_write_backlog: 4 << 20,
            write_stall_timeout: Duration::from_secs(5),
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// Cap on complete-but-undispatched lines buffered per connection
/// before the reactor stops reading from it — bounds memory against a
/// pipelining client the same way `max_write_backlog` bounds it against
/// a non-reading one.
const MAX_READY_LINES: usize = 32;

/// Upper bound on bytes pulled per readiness event per connection, so
/// one firehose connection cannot monopolize a loop iteration.
const MAX_READ_PER_EVENT: usize = 256 * 1024;

/// A finished request on its way back to the reactor thread.
struct Completion {
    slot: usize,
    generation: u64,
    response: String,
}

/// State shared between the reactor thread, workers, and the handle.
struct Shared {
    stop: AtomicBool,
    waker: Pipe,
    completions: Mutex<Vec<Completion>>,
}

/// One registered connection.
struct Conn {
    stream: TcpStream,
    generation: u64,
    assembler: LineAssembler,
    /// A request is executing on a worker; no further dispatch until
    /// its completion lands.
    in_flight: bool,
    /// Response bytes not yet accepted by the kernel.
    wbuf: Vec<u8>,
    /// How much of `wbuf` has already been written.
    woff: usize,
    /// Flush what is buffered, then close (bad frame or shutdown drain).
    closing: bool,
    /// The peer half-closed; serve what was read, then close.
    eof: bool,
    /// Last instant the write side accepted bytes while a backlog was
    /// pending; the slow-consumer clock.
    last_write_progress: Instant,
}

impl Conn {
    fn backlog(&self) -> usize {
        self.wbuf.len() - self.woff
    }

    fn wants_read(&self) -> bool {
        !self.eof
            && !self.closing
            && !self.assembler.is_poisoned()
            && self.backlog() == 0
            && self.assembler.ready_lines() < MAX_READY_LINES
    }
}

/// Handle to a running reactor; dropping it shuts the reactor down.
pub struct Reactor {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("local_addr", &self.local_addr)
            .field("running", &self.thread.is_some())
            .finish()
    }
}

impl Reactor {
    /// Takes ownership of `listener` and spawns the event-loop thread.
    ///
    /// # Errors
    ///
    /// Listener/pipe setup failures (fd exhaustion, bad listener).
    pub fn spawn(
        listener: TcpListener,
        service: Arc<dyn Service>,
        observer: Arc<dyn ConnObserver>,
        counters: ConnectionCounters,
        config: ReactorConfig,
    ) -> io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            waker: Pipe::new()?,
            completions: Mutex::new(Vec::new()),
        });
        let loop_shared = Arc::clone(&shared);
        let thread = thread::Builder::new()
            .name("panacea-netcore-reactor".into())
            .spawn(move || {
                let pool = WorkerPool::with_counters(
                    config.workers,
                    "panacea-netcore-worker",
                    Some(counters.clone()),
                );
                EventLoop {
                    listener,
                    service,
                    observer,
                    counters,
                    config,
                    shared: loop_shared,
                    conns: Vec::new(),
                    free: Vec::new(),
                    pool,
                }
                .run();
            })?;
        Ok(Reactor {
            shared,
            local_addr,
            thread: Some(thread),
        })
    }

    /// The bound address of the listener.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, drains in-flight requests, evicts survivors,
    /// and joins the loop thread. Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.waker.notify();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Everything the loop thread owns.
struct EventLoop {
    listener: TcpListener,
    service: Arc<dyn Service>,
    observer: Arc<dyn ConnObserver>,
    counters: ConnectionCounters,
    config: ReactorConfig,
    shared: Arc<Shared>,
    /// Slot-addressed connections; `None` slots are reusable.
    conns: Vec<Option<Conn>>,
    /// Indices of `None` slots.
    free: Vec<usize>,
    pool: WorkerPool,
}

/// What the poll pass reported for one registered connection.
struct Readiness {
    slot: usize,
    readable: bool,
    writable: bool,
    invalid: bool,
}

impl EventLoop {
    fn run(&mut self) {
        let mut generation: u64 = 0;
        let mut drain_deadline: Option<Instant> = None;
        loop {
            let draining = self.shared.stop.load(Ordering::SeqCst);
            if draining && drain_deadline.is_none() {
                drain_deadline = Some(Instant::now() + self.config.drain_timeout);
            }

            // Build the descriptor set: waker, listener (while
            // accepting), then every live connection.
            let mut fds = Vec::with_capacity(self.conns.len() + 2);
            fds.push(PollFd::new(self.shared.waker.read_fd(), POLLIN));
            let listener_idx = if draining {
                None
            } else {
                fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
                Some(fds.len() - 1)
            };
            let conn_base = fds.len();
            let mut conn_slots = Vec::with_capacity(self.conns.len());
            for (slot, conn) in self.conns.iter().enumerate() {
                let Some(conn) = conn else { continue };
                let mut events = 0i16;
                if conn.wants_read() {
                    events |= POLLIN;
                }
                if conn.backlog() > 0 {
                    events |= POLLOUT;
                }
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                conn_slots.push(slot);
            }

            let busy = draining
                || self
                    .conns
                    .iter()
                    .flatten()
                    .any(|c| c.backlog() > 0 || c.assembler.ready_lines() > 0);
            let timeout_ms = if busy { 50 } else { 1000 };
            if let Err(err) = poll_fds(&mut fds, timeout_ms) {
                // ENOMEM-class failure: back off rather than spin.
                let _ = err;
                thread::sleep(Duration::from_millis(10));
            }

            if fds[0].readable() {
                self.shared.waker.drain();
            }
            let accept_ready = listener_idx.map(|i| fds[i].ready()).unwrap_or(false);
            let ready: Vec<Readiness> = conn_slots
                .iter()
                .enumerate()
                .map(|(i, &slot)| {
                    let fd = &fds[conn_base + i];
                    Readiness {
                        slot,
                        readable: fd.readable(),
                        writable: fd.writable(),
                        invalid: fd.invalid(),
                    }
                })
                .collect();
            drop(fds);

            self.apply_completions();
            if accept_ready && !draining {
                self.accept_new(&mut generation);
            }
            for r in ready {
                if r.invalid {
                    self.close_slot(r.slot, None);
                    continue;
                }
                if r.readable {
                    self.handle_readable(r.slot);
                }
                if r.writable {
                    self.handle_writable(r.slot);
                }
            }
            self.sweep(draining);

            if draining {
                let deadline = drain_deadline.expect("deadline set when draining");
                let idle = self
                    .conns
                    .iter()
                    .flatten()
                    .all(|c| !c.in_flight && c.backlog() == 0);
                if idle || Instant::now() >= deadline {
                    break;
                }
            }
        }

        // Drained (or out of patience): evict whatever is left.
        for slot in 0..self.conns.len() {
            if self.conns[slot].is_some() {
                self.close_slot(slot, Some(EvictReason::Shutdown));
            }
        }
        self.pool.shutdown();
    }

    /// Moves worker results into their connections' write buffers.
    fn apply_completions(&mut self) {
        let completions = {
            let mut guard = self
                .shared
                .completions
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *guard)
        };
        for done in completions {
            let Some(conn) = self.conns.get_mut(done.slot).and_then(Option::as_mut) else {
                continue; // connection already gone
            };
            if conn.generation != done.generation {
                continue; // slot was reused; response belongs to a dead peer
            }
            conn.in_flight = false;
            if conn.backlog() == 0 {
                conn.last_write_progress = Instant::now();
            }
            conn.wbuf.extend_from_slice(done.response.as_bytes());
            conn.wbuf.push(b'\n');
            let slot = done.slot;
            self.handle_writable(slot); // opportunistic flush
        }
    }

    fn accept_new(&mut self, generation: &mut u64) {
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(err) if err.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break, // transient accept failure; retry next wakeup
            };
            // Injected accept failure: the connection is dropped on the
            // floor as if the kernel reset it post-accept. The client
            // sees a closed socket and must reconnect.
            if matches!(
                panacea_faultline::point("netcore.accept"),
                Some(Fault::Reset)
            ) {
                drop(stream);
                continue;
            }
            let accept_started = Instant::now();
            let open = self.conns.iter().flatten().count();
            if open >= self.config.max_connections {
                self.reject_over_limit(stream);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            *generation += 1;
            let conn = Conn {
                stream,
                generation: *generation,
                assembler: LineAssembler::new(self.config.max_line_bytes),
                in_flight: false,
                wbuf: Vec::new(),
                woff: 0,
                closing: false,
                eof: false,
                last_write_progress: Instant::now(),
            };
            let slot = match self.free.pop() {
                Some(slot) => {
                    self.conns[slot] = Some(conn);
                    slot
                }
                None => {
                    self.conns.push(Some(conn));
                    self.conns.len() - 1
                }
            };
            let _ = slot;
            let open_now = self.counters.on_open();
            self.observer.conn_open(open_now);
            self.observer
                .stage_time(ConnStage::Accept, accept_started.elapsed());
        }
    }

    /// Answers an over-limit connection with one overload line and
    /// closes it. Best-effort: the peer may already be gone.
    fn reject_over_limit(&mut self, mut stream: TcpStream) {
        let detail = format!(
            "connection limit {} reached; retry later",
            self.config.max_connections
        );
        let mut line = self.service.overloaded(&detail);
        line.push('\n');
        // Blocking-with-timeout write: the socket is still in its
        // post-accept blocking state, and we refuse to let a dead-slow
        // rejected peer stall the loop longer than this.
        let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
        let _ = stream.write_all(line.as_bytes());
        let open_now = self.counters.on_evict(false);
        self.observer
            .conn_evict(EvictReason::MaxConnections, open_now);
    }

    fn handle_readable(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if !conn.wants_read() {
            return;
        }
        // Injected read fault: `Reset` closes the connection as an io
        // error would; `Delay` stalls the loop thread briefly (a slow
        // NIC / scheduling hiccup).
        if matches!(panacea_faultline::point("netcore.read"), Some(Fault::Reset)) {
            self.close_slot(slot, None);
            return;
        }
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let started = Instant::now();
        let mut buf = [0u8; 16 * 1024];
        let mut pulled = 0usize;
        let mut close_now = false;
        while pulled < MAX_READ_PER_EVENT {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    pulled += n;
                    if let Err(err @ LineError::TooLong { .. }) = conn.assembler.feed(&buf[..n]) {
                        let mut line = self.service.bad_request(&err.to_string());
                        line.push('\n');
                        if conn.backlog() == 0 {
                            conn.last_write_progress = Instant::now();
                        }
                        conn.wbuf.extend_from_slice(line.as_bytes());
                        conn.closing = true;
                        break;
                    }
                    if !conn.wants_read() {
                        break;
                    }
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    close_now = true;
                    break;
                }
            }
        }
        self.observer.stage_time(ConnStage::Read, started.elapsed());
        if close_now {
            self.close_slot(slot, None);
        }
    }

    fn handle_writable(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.backlog() == 0 {
            return;
        }
        let started = Instant::now();
        let mut close_now = false;
        // Injected write faults: `ShortWrite` pushes exactly one byte
        // this pass (the backlog stays pending and POLLOUT resumes it —
        // exercising partial-write reassembly on the peer), `Reset`
        // drops the connection as a broken pipe would.
        let mut short_write = false;
        match panacea_faultline::point("netcore.write") {
            Some(Fault::Reset) => close_now = true,
            Some(Fault::ShortWrite) => short_write = true,
            _ => {}
        }
        while !close_now {
            let pending = &conn.wbuf[conn.woff..];
            if pending.is_empty() {
                break;
            }
            let pending = if short_write { &pending[..1] } else { pending };
            match conn.stream.write(pending) {
                Ok(0) => {
                    close_now = true;
                    break;
                }
                Ok(n) => {
                    conn.woff += n;
                    conn.last_write_progress = Instant::now();
                    if short_write {
                        break;
                    }
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    close_now = true;
                    break;
                }
            }
        }
        if conn.woff == conn.wbuf.len() {
            conn.wbuf.clear();
            conn.woff = 0;
        } else if conn.woff > 64 * 1024 {
            // Compact so a long-lived backlog does not pin dead bytes.
            conn.wbuf.drain(..conn.woff);
            conn.woff = 0;
        }
        self.observer
            .stage_time(ConnStage::Write, started.elapsed());
        if close_now {
            self.close_slot(slot, None);
        }
    }

    /// Per-iteration connection upkeep: dispatch ready requests, evict
    /// stalled writers, and retire finished connections.
    fn sweep(&mut self, draining: bool) {
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            // Dispatch at most one request per connection.
            let dispatch = {
                let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                    continue;
                };
                if conn.backlog() > 0
                    && now >= conn.last_write_progress + self.config.write_stall_timeout
                {
                    self.close_slot(slot, Some(EvictReason::SlowConsumer));
                    continue;
                }
                let mut job = None;
                if !draining
                    && !conn.in_flight
                    && !conn.closing
                    && conn.backlog() <= self.config.max_write_backlog
                {
                    while let Some(raw) = conn.assembler.pop_line() {
                        match String::from_utf8(raw) {
                            Ok(line) => {
                                if line.trim().is_empty() {
                                    continue; // blank keep-alive lines are ignored
                                }
                                conn.in_flight = true;
                                job = Some((conn.generation, line));
                                break;
                            }
                            Err(_) => {
                                let mut resp =
                                    self.service.bad_request("request line is not valid UTF-8");
                                resp.push('\n');
                                if conn.backlog() == 0 {
                                    conn.last_write_progress = Instant::now();
                                }
                                conn.wbuf.extend_from_slice(resp.as_bytes());
                                conn.closing = true;
                                break;
                            }
                        }
                    }
                }
                job
            };
            if let Some((generation, line)) = dispatch {
                let service = Arc::clone(&self.service);
                let observer = Arc::clone(&self.observer);
                let shared = Arc::clone(&self.shared);
                let counters = self.counters.clone();
                self.pool.execute(move || {
                    let started = Instant::now();
                    // A panicking handler must still complete the
                    // request: the connection's `in_flight` flag only
                    // clears when a completion lands, so losing it
                    // would wedge the peer forever. Catch here (not
                    // just at the pool) and answer the internal-error
                    // line instead.
                    let response = catch_unwind(AssertUnwindSafe(|| {
                        panacea_faultline::point("netcore.dispatch");
                        service.serve(&line)
                    }))
                    .unwrap_or_else(|_| {
                        counters.on_worker_panic();
                        service.internal_error("request handler panicked")
                    });
                    observer.stage_time(ConnStage::Dispatch, started.elapsed());
                    shared
                        .completions
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(Completion {
                            slot,
                            generation,
                            response,
                        });
                    shared.waker.notify();
                });
            }

            // Retire: flushed and told to close, or peer gone with
            // nothing left to serve.
            let done = {
                let Some(conn) = self.conns.get(slot).and_then(Option::as_ref) else {
                    continue;
                };
                let flushed = conn.backlog() == 0 && !conn.in_flight;
                (conn.closing && flushed)
                    || (conn.eof && flushed && conn.assembler.ready_lines() == 0)
            };
            if done {
                self.close_slot(slot, None);
            }
        }
    }

    /// Removes a connection. `evict` names a forced close; `None` is a
    /// normal close (peer EOF / orderly completion / io error).
    fn close_slot(&mut self, slot: usize, evict: Option<EvictReason>) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) else {
            return;
        };
        drop(conn);
        self.free.push(slot);
        match evict {
            Some(reason) => {
                let open_now = self.counters.on_evict(true);
                self.observer.conn_evict(reason, open_now);
            }
            None => {
                let open_now = self.counters.on_close();
                self.observer.conn_close(open_now);
            }
        }
    }
}
