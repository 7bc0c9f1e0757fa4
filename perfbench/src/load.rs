//! The load generator: drives one workload over loopback TCP from at
//! most `Sizing::connections` client threads, stamping every call.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use panacea_gateway::{GatewayClient, GatewayError};
use panacea_serve::Payload;
use panacea_tensor::Matrix;

use crate::fixture::BLOCK_MODEL;
use crate::inputs::{first_lifetime_steps, unit, Inputs, Schedule, DECODE_SESSIONS, DECODE_STEPS};
use crate::stats::{cpu_seconds, digest_f32, digest_payload};

/// Load runs this long before the measured window opens, so caches,
/// lazily grown buffers and sessions reach their steady state.
pub const WARMUP: Duration = Duration::from_secs(2);

/// In a prefill round, connection `c` sends `c` times this much after
/// connection 0: long enough for the gateway to decode, route and
/// enqueue the earlier request, so the router sees it in flight and the
/// two land on different shards. Sent at once, both can be routed before
/// either is enqueued and queue on the same shard.
pub const PREFILL_STAGGER: Duration = Duration::from_millis(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A stateless `infer`.
    Infer,
    /// A decode step; `Op::idx` 0 is the session's prefix.
    Step,
    /// `session_open` / `session_close`.
    Admin,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    Shed,
    Error,
}

/// One wire call as the client saw it.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: Kind,
    pub unit: u64,
    pub idx: u32,
    /// When the call was due: the schedule time in the open loop, the
    /// send time in a closed loop.
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    /// The reply's server-measured `latency`.
    pub server_us: f64,
    /// The shard that served the call.
    pub shard: usize,
    pub cols: u32,
    /// Sent while the window's tracing slice was on.
    pub traced: bool,
    pub cache_hit: bool,
    /// Digest of the reply's payload.
    pub result: Result<u64, Failure>,
}

impl Op {
    /// Decode prefixes and admin calls are not per-step latency samples.
    pub fn is_latency_sample(&self) -> bool {
        match self.kind {
            Kind::Infer => true,
            Kind::Step => self.idx > 0,
            Kind::Admin => false,
        }
    }

    pub fn latency_us(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e6
    }

    pub fn client_us(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e6
    }
}

/// The measured window: slice boundaries with the process CPU time read
/// at each, and whether tracing was on during each slice.
pub struct Window {
    pub bounds: Vec<Instant>,
    pub cpu_s: Vec<f64>,
    pub traced: Vec<bool>,
}

impl Window {
    pub fn contains(&self, t: Instant) -> bool {
        t >= self.bounds[0] && t < *self.bounds.last().expect("window has bounds")
    }

    pub fn slice_of(&self, t: Instant) -> Option<usize> {
        (1..self.bounds.len())
            .find(|&i| t >= self.bounds[i - 1] && t < self.bounds[i])
            .map(|i| i - 1)
    }

    pub fn slices(&self) -> usize {
        self.bounds.len() - 1
    }

    pub fn slice_s(&self, i: usize) -> f64 {
        (self.bounds[i + 1] - self.bounds[i]).as_secs_f64()
    }
}

pub struct Run {
    pub ops: Vec<Op>,
    pub window: Window,
    /// Open loop only: how late the generator dispatched each request
    /// due inside the window, in microseconds.
    pub lateness_us: Vec<f64>,
}

struct Control {
    stop: AtomicBool,
    traced: AtomicBool,
}

/// Lockstep rounds for closed-loop clients: a round starts only when
/// every client has finished the previous one, and all of them agree on
/// whether it starts at all.
struct Rounds {
    barrier: Barrier,
    go: AtomicBool,
}

impl Rounds {
    fn new(clients: usize) -> Self {
        Rounds {
            barrier: Barrier::new(clients),
            go: AtomicBool::new(true),
        }
    }

    /// Waits for every client; false once the run has been stopped.
    fn next(&self, ctl: &Control) -> bool {
        if self.barrier.wait().is_leader() {
            self.go
                .store(!ctl.stop.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.barrier.wait();
        self.go.load(Ordering::Relaxed)
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        thread::sleep(t - now);
    }
}

/// Warm-up, then `slices` equal slices of `seconds`; with `alternate`
/// every second slice is traced. Stops the clients at the end.
fn metronome(
    ctl: &Control,
    start: Instant,
    seconds: f64,
    slices: usize,
    alternate: bool,
) -> Window {
    sleep_until(start + WARMUP);
    let open = Instant::now();
    let mut window = Window {
        bounds: vec![open],
        cpu_s: vec![cpu_seconds()],
        traced: Vec::new(),
    };
    for i in 0..slices {
        let traced = alternate && i % 2 == 1;
        ctl.traced.store(traced, Ordering::Relaxed);
        window.traced.push(traced);
        sleep_until(open + Duration::from_secs_f64(seconds * (i + 1) as f64 / slices as f64));
        window.bounds.push(Instant::now());
        window.cpu_s.push(cpu_seconds());
    }
    ctl.traced.store(false, Ordering::Relaxed);
    ctl.stop.store(true, Ordering::Relaxed);
    window
}

fn failure(e: &GatewayError) -> Failure {
    if e.is_overloaded() {
        Failure::Shed
    } else {
        eprintln!("perfbench: call failed: {e}");
        Failure::Error
    }
}

/// What the clients send: a workload with the inputs it draws from.
#[derive(Clone, Copy)]
pub enum Traffic<'a> {
    Decode(&'a Inputs),
    Prefill(&'a Inputs),
    Mixed(&'a Schedule),
}

/// Runs `traffic` against `addr` for `seconds` after the warm-up.
pub fn run(
    traffic: Traffic<'_>,
    addr: SocketAddr,
    connections: usize,
    seconds: f64,
    slices: usize,
    alternate: bool,
) -> Run {
    let ctl = Control {
        stop: AtomicBool::new(false),
        traced: AtomicBool::new(false),
    };
    let (tx, rx) = mpsc::channel::<(usize, Instant)>();
    let rx = Mutex::new(rx);
    let mut tx = Some(tx);
    let start = Instant::now();
    let rounds = Rounds::new(connections);
    let (window, per_client, lateness_us) = thread::scope(|s| {
        let (ctl, rx, rounds) = (&ctl, &rx, &rounds);
        let (clients, generator) = match traffic {
            Traffic::Decode(inputs) => (
                open_sessions(addr, connections)
                    .into_iter()
                    .enumerate()
                    .map(|(c, sessions)| {
                        s.spawn(move || decode_client(addr, c, sessions, inputs, ctl))
                    })
                    .collect::<Vec<_>>(),
                None,
            ),
            Traffic::Prefill(inputs) => (
                // Connected up front: a client that failed to connect
                // would leave the others waiting for its round.
                (0..connections)
                    .map(|_| GatewayClient::connect(addr).expect("connect to loopback gateway"))
                    .collect::<Vec<_>>()
                    .into_iter()
                    .enumerate()
                    .map(|(c, client)| {
                        s.spawn(move || prefill_client(client, c, inputs, ctl, rounds))
                    })
                    .collect(),
                None,
            ),
            Traffic::Mixed(schedule) => {
                let tx = tx.take().expect("one generator");
                let clients = (0..connections)
                    .map(|_| s.spawn(move || mixed_sender(addr, schedule, rx, ctl)))
                    .collect();
                let generator = s.spawn(move || mixed_generator(schedule, start, tx, ctl));
                (clients, Some(generator))
            }
        };
        let window = metronome(ctl, start, seconds, slices, alternate);
        let per_client: Vec<Vec<Op>> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        let dispatched = generator
            .map(|h| h.join().expect("generator thread"))
            .unwrap_or_default();
        let lateness_us = dispatched
            .into_iter()
            .filter(|(due, _)| window.contains(*due))
            .map(|(_, late)| late)
            .collect();
        (window, per_client, lateness_us)
    });
    let mut ops: Vec<Op> = per_client.into_iter().flatten().collect();
    ops.sort_by_key(|o| o.sent);
    Run {
        ops,
        window,
        lateness_us,
    }
}

/// One decode session lifetime on the client: its inputs, progress and
/// server-side session id.
struct Lifetime {
    unit: u64,
    inputs: Vec<Matrix<f32>>,
    next: usize,
    session: Option<u64>,
}

/// Opens every connection's first sessions before any client starts, in
/// one fixed order (session `j` of each connection in turn), so every run
/// starts from the same shard placement. Later sessions open as lifetimes
/// end, wherever the gateway places them.
fn open_sessions(addr: SocketAddr, connections: usize) -> Vec<Vec<u64>> {
    let mut client = GatewayClient::connect(addr).expect("connect to loopback gateway");
    let mut sessions = vec![Vec::new(); connections];
    for _ in 0..DECODE_SESSIONS {
        for conn in sessions.iter_mut() {
            let open = client
                .session_open(BLOCK_MODEL)
                .expect("open a decode session");
            conn.push(open.session);
        }
    }
    sessions
}

fn decode_client(
    addr: SocketAddr,
    conn: usize,
    sessions: Vec<u64>,
    inputs: &Inputs,
    ctl: &Control,
) -> Vec<Op> {
    let mut client = GatewayClient::connect(addr).expect("connect to loopback gateway");
    let mut ops = Vec::new();
    let mut lifetimes_started = 0u64;
    let mut begin = |steps: usize| {
        let u = unit(conn, lifetimes_started);
        lifetimes_started += 1;
        Lifetime {
            unit: u,
            inputs: inputs.decode_lifetime(u, 1 + steps),
            next: 0,
            session: None,
        }
    };
    let mut live: Vec<Lifetime> = sessions
        .into_iter()
        .enumerate()
        .map(|(j, session)| Lifetime {
            session: Some(session),
            ..begin(first_lifetime_steps(j))
        })
        .collect();
    let admin = |unit: u64, sent: Instant, result: Result<u64, Failure>| Op {
        kind: Kind::Admin,
        unit,
        idx: 0,
        due: sent,
        sent,
        done: Instant::now(),
        server_us: 0.0,
        shard: 0,
        cols: 0,
        traced: false,
        cache_hit: false,
        result,
    };
    'run: loop {
        for lt in live.iter_mut() {
            if ctl.stop.load(Ordering::Relaxed) {
                break 'run;
            }
            if lt.next == lt.inputs.len() {
                if let Some(session) = lt.session.take() {
                    let sent = Instant::now();
                    let r = client
                        .session_close(session)
                        .map(|_| 0)
                        .map_err(|e| failure(&e));
                    ops.push(admin(lt.unit, sent, r));
                }
                *lt = begin(DECODE_STEPS);
            }
            let session = match lt.session {
                Some(s) => s,
                None => {
                    let sent = Instant::now();
                    match client.session_open(BLOCK_MODEL) {
                        Ok(open) => {
                            ops.push(admin(lt.unit, sent, Ok(0)));
                            lt.session = Some(open.session);
                            open.session
                        }
                        Err(e) => {
                            ops.push(admin(lt.unit, sent, Err(failure(&e))));
                            continue;
                        }
                    }
                }
            };
            let x = lt.inputs[lt.next].clone();
            let cols = x.cols() as u32;
            let traced = ctl.traced.load(Ordering::Relaxed);
            let sent = Instant::now();
            let reply = client.decode(session, x);
            let done = Instant::now();
            let (server_us, shard, result) = match reply {
                Ok(r) => (
                    r.latency.as_secs_f64() * 1e6,
                    r.shard,
                    Ok(digest_f32(&r.hidden)),
                ),
                Err(e) => (0.0, 0, Err(failure(&e))),
            };
            let failed = result.is_err();
            ops.push(Op {
                kind: Kind::Step,
                unit: lt.unit,
                idx: lt.next as u32,
                due: sent,
                sent,
                done,
                server_us,
                shard,
                cols,
                traced,
                cache_hit: false,
                result,
            });
            // A failed step leaves the KV prefix unknown: end the lifetime.
            lt.next = if failed { lt.inputs.len() } else { lt.next + 1 };
        }
    }
    for lt in live {
        if let Some(session) = lt.session {
            let sent = Instant::now();
            let r = client
                .session_close(session)
                .map(|_| 0)
                .map_err(|e| failure(&e));
            ops.push(admin(lt.unit, sent, r));
        }
    }
    ops
}

fn infer_op(
    client: &mut GatewayClient,
    model: &str,
    payload: Payload,
    unit: u64,
    due: Option<Instant>,
    traced: bool,
) -> Op {
    let cols = payload.cols() as u32;
    let sent = Instant::now();
    let reply = client.infer(model, payload);
    let done = Instant::now();
    let (server_us, shard, cache_hit, result) = match reply {
        Ok(r) => (
            r.latency.as_secs_f64() * 1e6,
            r.shard,
            r.cache_hit,
            Ok(digest_payload(&r.payload)),
        ),
        Err(e) => (0.0, 0, false, Err(failure(&e))),
    };
    Op {
        kind: Kind::Infer,
        unit,
        idx: 0,
        due: due.unwrap_or(sent),
        sent,
        done,
        server_us,
        shard,
        cols,
        traced,
        cache_hit,
        result,
    }
}

/// One connection of the prefill loop. Connections send in lockstep
/// rounds, staggered by [`PREFILL_STAGGER`], so every round keeps every
/// shard computing at once. Free-running loops drift in and out of phase
/// with each other, and how much their forwards overlap, and with it the
/// latency, then depends on that drift rather than on the program.
fn prefill_client(
    mut client: GatewayClient,
    conn: usize,
    inputs: &Inputs,
    ctl: &Control,
    rounds: &Rounds,
) -> Vec<Op> {
    let mut ops = Vec::new();
    for i in 0.. {
        let u = unit(conn, i);
        let x = inputs.prefill(u);
        if !rounds.next(ctl) {
            break;
        }
        thread::sleep(PREFILL_STAGGER * conn as u32);
        let traced = ctl.traced.load(Ordering::Relaxed);
        ops.push(infer_op(
            &mut client,
            BLOCK_MODEL,
            Payload::Hidden(x),
            u,
            None,
            traced,
        ));
    }
    ops
}

/// Dispatches each scheduled request at its due time, whatever the
/// state of earlier ones. Returns `(due, lateness_us)` per dispatch.
fn mixed_generator(
    schedule: &Schedule,
    start: Instant,
    tx: mpsc::Sender<(usize, Instant)>,
    ctl: &Control,
) -> Vec<(Instant, f64)> {
    let mut dispatched = Vec::with_capacity(schedule.requests.len());
    for (i, req) in schedule.requests.iter().enumerate() {
        let due = start + req.at;
        sleep_until(due);
        if ctl.stop.load(Ordering::Relaxed) {
            break;
        }
        dispatched.push((due, (Instant::now() - due).as_secs_f64() * 1e6));
        if tx.send((i, due)).is_err() {
            break;
        }
    }
    dispatched
}

fn mixed_sender(
    addr: SocketAddr,
    schedule: &Schedule,
    rx: &Mutex<mpsc::Receiver<(usize, Instant)>>,
    ctl: &Control,
) -> Vec<Op> {
    let mut client = GatewayClient::connect(addr).expect("connect to loopback gateway");
    let mut ops = Vec::new();
    loop {
        let next = rx.lock().expect("dispatch queue lock").recv();
        let Ok((i, due)) = next else { break };
        if ctl.stop.load(Ordering::Relaxed) {
            break;
        }
        let (target, payload) = &schedule.payloads[schedule.requests[i].payload];
        let model = schedule.targets[*target].name();
        let traced = ctl.traced.load(Ordering::Relaxed);
        ops.push(infer_op(
            &mut client,
            model,
            payload.clone(),
            i as u64,
            Some(due),
            traced,
        ));
    }
    ops
}
