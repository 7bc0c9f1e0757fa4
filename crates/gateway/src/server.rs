//! The gateway itself: protocol handling glued to routing, caching, and
//! admission — plus the TCP server that exposes it.
//!
//! [`Gateway`] is the transport-free core (handy for in-process use and
//! tests); [`GatewayServer`] wraps it in a `TcpListener` served by a
//! `panacea-netcore` reactor: one `poll(2)` readiness loop multiplexing
//! every connection on one thread, with a fixed worker pool executing
//! requests, bounded by [`ServerConfig::max_connections`]. Threads stay
//! O(workers) at any connection count.
//!
//! Dropping the server stops accepting, drains or disconnects live
//! connections, and joins every server thread.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use panacea_faultline::Fault;

use panacea_netcore::{
    ConnObserver, ConnStage, ConnectionCounters, EvictReason, Reactor, ReactorConfig,
    Service as NetService,
};
use panacea_serve::{
    OverloadReason, Payload, PreparedModel, RuntimeConfig, ServeError, SessionConfig,
    SessionManager,
};
use panacea_telemetry::{
    jsonl_metrics_line, unix_ms_now, EventSeverity, FlightRecorder, HealthReport, Histogram,
    IncidentSnapshot, MetricRegistry, PrometheusText, SloConfig, SloStatus, TraceBuilder,
    TraceConfig, Tracer, ROOT_SPAN, STAGE_REQUEST,
};
use panacea_tensor::Matrix;

use crate::admission::{AdmissionConfig, AdmissionController};
use crate::cache::{CacheConfig, CachedOutput, RequestCache};
use crate::protocol::{
    decode_request, encode_response, DecodeReply, DimSummary, ErrorKind, EventSummary, EventsReply,
    GatewayMetrics, GatewayStats, IncidentSummary, InferReply, Request, Response,
    SessionCloseReply, SessionOpenReply, ShedStats, StageSummary, TraceKind, TraceReply,
    TraceSummary,
};
use crate::router::ShardRouter;

/// The sliding window the `metrics` verb's dimensional summaries cover.
const DIMS_WINDOW: Duration = Duration::from_secs(10);

/// Flight-recorder ring capacity: enough to hold the lifecycle of a
/// burst (opens, sheds, evictions, health flips) without the ring
/// churning past an incident before anyone asks.
const EVENT_CAPACITY: usize = 256;

/// How many slow traces an incident snapshot freezes at the flip.
const INCIDENT_TRACES: usize = 16;

/// Everything a gateway deployment tunes.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Number of serving shards (independent runtimes).
    pub shards: usize,
    /// Per-shard runtime sizing (workers, batching policy).
    pub runtime: RuntimeConfig,
    /// Response cache sizing.
    pub cache: CacheConfig,
    /// Admission bounds.
    pub admission: AdmissionConfig,
    /// Per-shard decode-session bounds (idle timeout, KV byte budget).
    pub session: SessionConfig,
    /// Request-tracing knobs (slow threshold, ring sizes).
    pub trace: TraceConfig,
    /// SLO targets the `health` verb evaluates over windowed
    /// dimensional metrics. The default targets are deliberately
    /// generous (2s p99, 50% shed budget) so an untuned gateway reports
    /// `ok`; deployments tighten from there.
    pub slo: SloConfig,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            shards: 2,
            runtime: RuntimeConfig::default(),
            cache: CacheConfig::default(),
            admission: AdmissionConfig::default(),
            session: SessionConfig::default(),
            trace: TraceConfig::default(),
            slo: SloConfig::default(),
        }
    }
}

/// The gateway's connection-handling stage histograms (nanoseconds).
#[derive(Debug, Default)]
struct GatewayStages {
    parse: Histogram,
    cache_probe: Histogram,
    admission_wait: Histogram,
    route: Histogram,
    execute: Histogram,
}

/// Per-reason overload shed counters, incremented where errors surface
/// at the gateway's public verbs.
#[derive(Debug, Default)]
struct ShedCounters {
    in_flight: AtomicU64,
    queue_wait: AtomicU64,
    kv_budget: AtomicU64,
}

impl ShedCounters {
    /// Counts a shed if `e` is one; returns whether it was.
    fn count(&self, e: &ServeError) -> bool {
        let counter = match e {
            ServeError::Overloaded {
                reason: OverloadReason::InFlight { .. },
            } => &self.in_flight,
            ServeError::Overloaded {
                reason: OverloadReason::QueueWait { .. },
            } => &self.queue_wait,
            ServeError::KvBudgetExceeded { .. } => &self.kv_budget,
            _ => return false,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        true
    }

    fn snapshot(&self) -> ShedStats {
        ShedStats {
            in_flight: self.in_flight.load(Ordering::Relaxed),
            queue_wait: self.queue_wait.load(Ordering::Relaxed),
            kv_budget: self.kv_budget.load(Ordering::Relaxed),
        }
    }
}

/// The transport-free gateway core: cache → admission → shard router,
/// plus one [`SessionManager`] per shard holding decode-session KV
/// state (a session is *pinned* to the shard that opened it — its
/// state lives there, so every step routes there).
#[derive(Debug)]
pub struct Gateway {
    router: ShardRouter,
    cache: RequestCache,
    admission: AdmissionController,
    sessions: Vec<SessionManager>,
    started: Instant,
    seq: AtomicU64,
    stages: GatewayStages,
    tracer: Tracer,
    dims: MetricRegistry,
    slo: SloConfig,
    sheds: ShedCounters,
    recorder: FlightRecorder,
    conns: ConnectionCounters,
    /// The health verdict as of the last `health()` evaluation —
    /// transition detection is evaluation-point-driven: a flip is
    /// noticed (and an incident pinned) when health is next *asked*,
    /// not at the instant metrics crossed the budget.
    last_status: Mutex<SloStatus>,
}

impl Gateway {
    /// Builds a gateway serving `models` under `config`.
    pub fn new(models: Vec<PreparedModel>, config: GatewayConfig) -> Self {
        Self::from_shared(models.into_iter().map(Arc::new).collect(), config)
    }

    /// [`new`](Self::new) for already-shared model handles.
    pub fn from_shared(models: Vec<Arc<PreparedModel>>, config: GatewayConfig) -> Self {
        let dims = MetricRegistry::default();
        let recorder = FlightRecorder::with_capacity(EVENT_CAPACITY);
        let router = ShardRouter::from_shared_with_observability(
            models,
            config.shards,
            config.runtime,
            dims.clone(),
            recorder.clone(),
        );
        let sessions = (0..router.num_shards())
            .map(|_| {
                SessionManager::with_observability(config.session, dims.clone(), recorder.clone())
            })
            .collect();
        Gateway {
            router,
            cache: RequestCache::new(config.cache),
            admission: AdmissionController::new(config.admission),
            sessions,
            started: Instant::now(),
            seq: AtomicU64::new(0),
            stages: GatewayStages::default(),
            tracer: Tracer::new(config.trace),
            dims,
            slo: config.slo,
            sheds: ShedCounters::default(),
            recorder,
            conns: ConnectionCounters::default(),
            last_status: Mutex::new(SloStatus::Ok),
        }
    }

    /// The dimensional metric registry shared by every layer of this
    /// gateway (wire verbs, runtimes, session managers, decode
    /// batchers).
    pub fn dims(&self) -> &MetricRegistry {
        &self.dims
    }

    /// Records one public verb's outcome under its (model, verb,
    /// `request`) dimension: the request latency plus an ok / error /
    /// shed outcome, with sheds also counted per reason for the `stats`
    /// verb's breakdown.
    fn record_verb<T>(
        &self,
        model: &str,
        verb: &'static str,
        started: Instant,
        out: &Result<T, ServeError>,
    ) {
        let cell = self.dims.cell(model, verb, STAGE_REQUEST);
        cell.record_latency(started.elapsed());
        match out {
            Ok(_) => cell.record_ok(),
            Err(e) if self.sheds.count(e) => {
                cell.record_shed();
                self.recorder.record(
                    EventSeverity::Warn,
                    "shed",
                    format!("reason={} model={model} verb={verb}", shed_reason(e)),
                );
            }
            Err(_) => cell.record_error(),
        }
    }

    /// The shard router (shard metrics, direct routing).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The response cache.
    pub fn cache(&self) -> &RequestCache {
        &self.cache
    }

    /// The admission controller.
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// One shard's session manager (session counts, KV footprint).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.router().num_shards()`.
    pub fn sessions(&self, shard: usize) -> &SessionManager {
        &self.sessions[shard]
    }

    /// Runs one stateless typed inference through cache, admission, and
    /// routing: codes for a linear chain, hidden states for a
    /// transformer-block model. There is no per-kind entry point — a
    /// payload of the wrong kind for the model fails validation with
    /// [`ServeError::PayloadKindMismatch`].
    ///
    /// # Errors
    ///
    /// Everything [`panacea_serve::Runtime::infer`] surfaces, plus
    /// [`ServeError::Overloaded`] from admission control.
    pub fn infer(&self, model: &str, payload: Payload) -> Result<InferReply, ServeError> {
        self.infer_deadline(model, payload, None)
    }

    /// [`infer`](Self::infer) bounded by a caller deadline: once
    /// `deadline` passes, the request is rejected at admission, dropped
    /// from the queue before any GEMM runs, or released from its wait —
    /// whichever comes first — with [`ServeError::DeadlineExceeded`].
    ///
    /// # Errors
    ///
    /// [`ServeError::DeadlineExceeded`] past the deadline, plus
    /// everything [`infer`](Self::infer) surfaces.
    pub fn infer_deadline(
        &self,
        model: &str,
        payload: Payload,
        deadline: Option<Instant>,
    ) -> Result<InferReply, ServeError> {
        let started = Instant::now();
        let mut tb = self.tracer.begin("infer");
        let out = self.infer_traced(model, payload, &mut tb, deadline);
        self.tracer.finish(tb);
        self.record_verb(model, "infer", started, &out);
        out
    }

    fn infer_traced(
        &self,
        model: &str,
        payload: Payload,
        tb: &mut TraceBuilder,
        deadline: Option<Instant>,
    ) -> Result<InferReply, ServeError> {
        let started = Instant::now();
        let resolved = self.resolve(model)?;
        let (out, scale, shard, cache_hit) = self.execute(resolved, payload, tb, deadline)?;
        Ok(InferReply {
            payload: out,
            scale,
            latency: started.elapsed(),
            shard,
            cache_hit,
        })
    }

    /// [`infer`](Self::infer) on float activations: the server converts
    /// them into the model's native payload (quantizes for chains,
    /// passes through for block models) before the shared request path.
    ///
    /// # Errors
    ///
    /// Same as [`infer`](Self::infer).
    pub fn infer_f32(&self, model: &str, input: Matrix<f32>) -> Result<InferReply, ServeError> {
        self.infer_f32_deadline(model, input, None)
    }

    /// [`infer_f32`](Self::infer_f32) bounded by a caller deadline —
    /// see [`infer_deadline`](Self::infer_deadline).
    ///
    /// # Errors
    ///
    /// [`ServeError::DeadlineExceeded`] past the deadline, plus
    /// everything [`infer_f32`](Self::infer_f32) surfaces.
    pub fn infer_f32_deadline(
        &self,
        model: &str,
        input: Matrix<f32>,
        deadline: Option<Instant>,
    ) -> Result<InferReply, ServeError> {
        let started = Instant::now();
        let mut tb = self.tracer.begin("infer");
        let out = self.infer_f32_traced(model, input, &mut tb, deadline);
        self.tracer.finish(tb);
        // Recorded under "infer": both wire forms share the verb.
        self.record_verb(model, "infer", started, &out);
        out
    }

    fn infer_f32_traced(
        &self,
        model: &str,
        input: Matrix<f32>,
        tb: &mut TraceBuilder,
        deadline: Option<Instant>,
    ) -> Result<InferReply, ServeError> {
        let started = Instant::now();
        let resolved = self.resolve(model)?;
        let payload = tb.span("quantize", ROOT_SPAN, || resolved.quantize(&input));
        let (out, scale, shard, cache_hit) = self.execute(resolved, payload, tb, deadline)?;
        Ok(InferReply {
            payload: out,
            scale,
            latency: started.elapsed(),
            shard,
            cache_hit,
        })
    }

    /// Opens a decode session on a transformer-block model, pinning it
    /// to the shard whose session manager currently holds the least KV
    /// state (ties broken by open-session count, then shard index).
    /// Stateless routing balances by runtime queue depth, but decode
    /// steps never enter the runtime queue — placing by session load is
    /// what actually spreads KV memory, so N shards really do give N ×
    /// `max_kv_bytes` of aggregate session capacity. The open counts
    /// against the admission controller's in-flight bound, so a
    /// session-open storm is shed like any other burst.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`], [`ServeError::PayloadKindMismatch`]
    /// for linear chains, and [`ServeError::Overloaded`] when admission
    /// sheds the open.
    pub fn session_open(&self, model: &str) -> Result<SessionOpenReply, ServeError> {
        let started = Instant::now();
        let mut tb = self.tracer.begin("session_open");
        let out = self.session_open_traced(model, &mut tb);
        self.tracer.finish(tb);
        self.record_verb(model, "session_open", started, &out);
        out
    }

    fn session_open_traced(
        &self,
        model: &str,
        tb: &mut TraceBuilder,
    ) -> Result<SessionOpenReply, ServeError> {
        let resolved = self.resolve(model)?;
        let span = tb.start_span("admission_wait", ROOT_SPAN);
        let permit = self.admission.try_admit();
        self.stages
            .admission_wait
            .record_duration(tb.end_span(span));
        let permit = permit?;
        let span = tb.start_span("route", ROOT_SPAN);
        let shard = self
            .sessions
            .iter()
            .enumerate()
            .min_by_key(|(i, mgr)| {
                let s = mgr.stats();
                (s.kv_bytes, s.open_sessions, *i)
            })
            .map(|(i, _)| i)
            .expect("gateway always has at least one shard");
        self.stages.route.record_duration(tb.end_span(span));
        let span = tb.start_span("execute", ROOT_SPAN);
        let session = self.sessions[shard].open(resolved);
        self.stages.execute.record_duration(tb.end_span(span));
        let session = session?;
        drop(permit);
        Ok(SessionOpenReply { session, shard })
    }

    /// Advances a decode session by one or more new token columns,
    /// executing on the shard that holds its KV state (session
    /// affinity). Decode steps take an admission permit like any other
    /// request but **never** touch the [`RequestCache`]: a step's
    /// output depends on the session's KV prefix, so replaying a cached
    /// step would corrupt session state — the session path is
    /// structurally cache-free (see the regression test).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for closed/evicted sessions,
    /// [`ServeError::Overloaded`] from admission,
    /// [`ServeError::KvBudgetExceeded`] when the step cannot fit the
    /// shard's KV budget, and the input-contract errors of
    /// [`panacea_serve::SessionManager::step`].
    pub fn decode(&self, session: u64, hidden: &Matrix<f32>) -> Result<DecodeReply, ServeError> {
        self.decode_deadline(session, hidden, None)
    }

    /// [`decode`](Self::decode) bounded by a caller deadline: an expired
    /// step is dropped before it executes (the session's KV state is
    /// untouched, so the caller can simply resubmit the same columns)
    /// and answered [`ServeError::DeadlineExceeded`].
    ///
    /// # Errors
    ///
    /// [`ServeError::DeadlineExceeded`] past the deadline, plus
    /// everything [`decode`](Self::decode) surfaces.
    pub fn decode_deadline(
        &self,
        session: u64,
        hidden: &Matrix<f32>,
        deadline: Option<Instant>,
    ) -> Result<DecodeReply, ServeError> {
        let started = Instant::now();
        // Attribution happens before the step: a session that errors
        // mid-step (or gets evicted by it) still records under its
        // model. Unknown sessions record under "-".
        let model = self.session_model(session);
        let mut tb = self.tracer.begin("decode");
        let out = self.decode_traced(session, hidden, &mut tb, deadline);
        self.tracer.finish(tb);
        self.record_verb(model.as_deref().unwrap_or("-"), "decode", started, &out);
        out
    }

    fn decode_traced(
        &self,
        session: u64,
        hidden: &Matrix<f32>,
        tb: &mut TraceBuilder,
        deadline: Option<Instant>,
    ) -> Result<DecodeReply, ServeError> {
        let started = Instant::now();
        let span = tb.start_span("admission_wait", ROOT_SPAN);
        let permit = self.admission.try_admit();
        self.stages
            .admission_wait
            .record_duration(tb.end_span(span));
        let permit = permit?;
        let span = tb.start_span("route", ROOT_SPAN);
        let shard = self.find_session(session);
        self.stages.route.record_duration(tb.end_span(span));
        let shard = shard.ok_or(ServeError::UnknownSession { session })?;
        let span = tb.start_span("execute", ROOT_SPAN);
        // The step executes on other threads (the shard's decode
        // batcher); hand them a context so their queue_wait/decode_pass
        // spans land inside this request's execute span.
        let ctx = self.tracer.context(tb, span);
        let stepped =
            self.sessions[shard].step_traced_deadline(session, hidden, Some(ctx), deadline);
        self.stages.execute.record_duration(tb.end_span(span));
        let (out, tokens, _wl) = stepped?;
        drop(permit);
        Ok(DecodeReply {
            hidden: out,
            tokens,
            shard,
            latency: started.elapsed(),
        })
    }

    /// Closes a decode session, freeing its KV state on its shard.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] if it does not exist (never
    /// opened, already closed, or evicted).
    pub fn session_close(&self, session: u64) -> Result<SessionCloseReply, ServeError> {
        let started = Instant::now();
        let model = self.session_model(session);
        let mut tb = self.tracer.begin("session_close");
        let span = tb.start_span("route", ROOT_SPAN);
        let shard = self.find_session(session);
        self.stages.route.record_duration(tb.end_span(span));
        let out = shard
            .ok_or(ServeError::UnknownSession { session })
            .and_then(|shard| {
                let span = tb.start_span("execute", ROOT_SPAN);
                let closed = self.sessions[shard].close(session);
                self.stages.execute.record_duration(tb.end_span(span));
                closed
            })
            .map(|tokens| SessionCloseReply { session, tokens });
        self.tracer.finish(tb);
        self.record_verb(
            model.as_deref().unwrap_or("-"),
            "session_close",
            started,
            &out,
        );
        out
    }

    /// The shard holding a session's KV state. Session ids are
    /// process-unique, so at most one manager answers.
    fn find_session(&self, session: u64) -> Option<usize> {
        (0..self.sessions.len()).find(|&s| self.sessions[s].contains(session))
    }

    /// The model a live session decodes, for metric attribution.
    fn session_model(&self, session: u64) -> Option<String> {
        self.find_session(session)
            .and_then(|s| self.sessions[s].model_name(session))
    }

    /// Resolves a model name against the shared registry.
    fn resolve(&self, model: &str) -> Result<Arc<PreparedModel>, ServeError> {
        self.router
            .model(model)
            .ok_or_else(|| ServeError::UnknownModel {
                model: model.to_string(),
            })
    }

    /// The shared request path behind both verbs: cache probe →
    /// admission → shard submit → bounded wait → cache insert. Returns
    /// `(payload, scale, shard, cache_hit)` in the model's wire domain
    /// (integer accumulators, or f32 bit patterns for block models).
    fn execute(
        &self,
        resolved: Arc<PreparedModel>,
        payload: Payload,
        tb: &mut TraceBuilder,
        deadline: Option<Instant>,
    ) -> Result<(Payload, f64, usize, bool), ServeError> {
        // Chaos hook: scripted plans panic, stall, or fail the gateway's
        // execute path here, before any routing or submission happens.
        if let Some(fault) = panacea_faultline::point("gateway.execute") {
            if matches!(fault, Fault::Error) {
                return Err(ServeError::Internal {
                    at: "gateway_execute",
                });
            }
        }
        // Validation happens exactly once, inside the runtime's submit
        // path (`validate` is a full scan of the payload — scanning
        // here too would double the cost on every uncached request).
        // The cache-hit fast path needs no scan of its own: entries are
        // only written after a validated run, and hits require bit-exact
        // key equality, so an invalid payload can never match one.
        let span = tb.start_span("route", ROOT_SPAN);
        let shard = self.router.route(resolved.name());
        self.stages.route.record_duration(tb.end_span(span));
        // A disabled cache — or an entry the size bound would reject
        // anyway (its result dims are known up front) — skips the whole
        // probe-and-insert dance, including the payload clones and the
        // content hash, which are full passes over the payload.
        let entry_cells = payload.cells() + resolved.out_features() * payload.cols();
        let cached = self.cache.enabled() && self.cache.admits(entry_cells);
        // Cache entries key on the resolved instance, not the name: if
        // the name is later re-bound to a new preparation, its old
        // entries can never answer for the replacement.
        let resolved_id = resolved.instance_id();
        if cached {
            let span = tb.start_span("cache_probe", ROOT_SPAN);
            let hit = self.cache.get(resolved_id, &payload);
            self.stages.cache_probe.record_duration(tb.end_span(span));
            if let Some(hit) = hit {
                return Ok((hit.payload, hit.scale, shard, true));
            }
        }
        let span = tb.start_span("admission_wait", ROOT_SPAN);
        let permit = self.admission.try_admit();
        self.stages
            .admission_wait
            .record_duration(tb.end_span(span));
        let permit = permit?;
        let span = tb.start_span("execute", ROOT_SPAN);
        // The runtime's batch worker records queue_wait / batch_form /
        // execute / split_back under this span via the context.
        let ctx = self.tracer.context(tb, span);
        let ran: Result<_, ServeError> = (|| {
            let (pending, kept_payload) = if cached {
                let pending = self.router.submit_to_shard_traced_deadline(
                    shard,
                    Arc::clone(&resolved),
                    payload.clone(),
                    Some(ctx),
                    deadline,
                )?;
                (pending, Some(payload))
            } else {
                (
                    self.router.submit_to_shard_traced_deadline(
                        shard,
                        resolved,
                        payload,
                        Some(ctx),
                        deadline,
                    )?,
                    None,
                )
            };
            Ok((
                self.admission.wait_bounded_deadline(&pending, deadline)?,
                kept_payload,
            ))
        })();
        self.stages.execute.record_duration(tb.end_span(span));
        let (out, kept_payload) = ran?;
        drop(permit);
        if let Some(payload) = kept_payload {
            self.cache.insert(
                resolved_id,
                payload,
                CachedOutput {
                    payload: out.payload.clone(),
                    scale: out.scale,
                },
            );
        }
        Ok((out.payload, out.scale, shard, false))
    }

    /// Current gateway-level metrics (per-shard serving and session
    /// counters, cache, admission).
    pub fn stats(&self) -> GatewayStats {
        let mut shards = self.router.shard_stats();
        for (shard, mgr) in shards.iter_mut().zip(&self.sessions) {
            let s = mgr.stats();
            shard.open_sessions = s.open_sessions as u64;
            shard.kv_bytes = s.kv_bytes as u64;
            shard.decode_steps = s.steps;
            shard.decode_tokens = s.tokens;
            shard.decode_batches = s.decode_batches;
            shard.decode_batch_occupancy = s.decode_batch_occupancy();
            shard.decode_padded_cols = s.decode_padded_cols;
            // The router filled the runtime layer's fault counters; the
            // session layer (decode batcher, inline steps) adds its own.
            shard.worker_panics += s.worker_panics;
            shard.expired += s.expired_steps;
            shard.evicted_poisoned = s.evicted_poisoned;
        }
        GatewayStats {
            shards,
            cache: self.cache.stats(),
            admission: self.admission.stats(),
            sheds: self.sheds.snapshot(),
            connections: self.conns.snapshot(),
            uptime_ms: self.uptime_ms(),
            seq: self.next_seq(),
        }
    }

    /// The transport-level connection gauges this gateway's server
    /// updates and the `stats` verb reports.
    pub fn connections(&self) -> &ConnectionCounters {
        &self.conns
    }

    fn uptime_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// The next snapshot sequence number — strictly increasing across
    /// every `stats`/`metrics` snapshot this gateway assembles.
    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The request tracer (slow-trace rings, trace knobs).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Records one wire-parse duration into the gateway's `parse` stage
    /// histogram (called by the TCP handler; in-process callers skip
    /// parsing entirely).
    pub fn record_parse(&self, elapsed: Duration) {
        self.stages.parse.record_duration(elapsed);
    }

    /// Per-stage latency quantile summaries: the gateway's own
    /// connection-handling stages, every shard's serving and session
    /// stages, and the process-global block sub-layer stages.
    pub fn metrics(&self) -> GatewayMetrics {
        let gateway = [
            ("parse", self.stages.parse.snapshot()),
            ("cache_probe", self.stages.cache_probe.snapshot()),
            ("admission_wait", self.stages.admission_wait.snapshot()),
            ("route", self.stages.route.snapshot()),
            ("execute", self.stages.execute.snapshot()),
        ]
        .iter()
        .map(|(name, snap)| StageSummary::from_snapshot(name, snap))
        .collect();
        let shards = (0..self.router.num_shards())
            .map(|i| {
                self.router
                    .shard(i)
                    .stage_snapshots()
                    .iter()
                    .chain(self.sessions[i].stage_snapshots().iter())
                    .map(|(name, snap)| StageSummary::from_snapshot(name, snap))
                    .collect()
            })
            .collect();
        let block = panacea_block::stage_snapshots()
            .iter()
            .map(|(name, snap)| StageSummary::from_snapshot(name, snap))
            .collect();
        let dims = self
            .dims
            .windows(DIMS_WINDOW)
            .iter()
            .map(|(key, w)| DimSummary::from_window(key, w))
            .collect();
        GatewayMetrics {
            uptime_ms: self.uptime_ms(),
            seq: self.next_seq(),
            gateway,
            shards,
            block,
            dims_window_ms: u64::try_from(DIMS_WINDOW.as_millis()).unwrap_or(u64::MAX),
            dims,
        }
    }

    /// Evaluates the configured SLO targets over the windowed
    /// dimensional metrics: one report per target plus the overall
    /// worst-case verdict.
    ///
    /// Transitions are detected here, at evaluation time: when the
    /// verdict differs from the previous evaluation's, a
    /// `health_transition` event is recorded (warn for degraded, error
    /// for critical, info for recovery), and a flip *into*
    /// degraded/critical additionally pins an [`IncidentSnapshot`] —
    /// the recent events, the slow traces, and the dims window frozen
    /// at the flip — retrievable via the `events` verb long after the
    /// ring has churned and health has recovered.
    pub fn health(&self) -> HealthReport {
        let report = self.slo.evaluate(&self.dims);
        let mut last = self
            .last_status
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if report.status != *last {
            let from = *last;
            *last = report.status;
            // Holding the lock across record+pin keeps concurrent
            // evaluations from interleaving their transitions.
            let severity = match report.status {
                SloStatus::Ok => EventSeverity::Info,
                SloStatus::Degraded => EventSeverity::Warn,
                SloStatus::Critical => EventSeverity::Error,
            };
            self.recorder.record(
                severity,
                "health_transition",
                format!("from={} to={}", from.as_str(), report.status.as_str()),
            );
            if report.status > SloStatus::Ok {
                self.recorder.pin(IncidentSnapshot {
                    unix_ms: unix_ms_now(),
                    status: report.status,
                    events: self.recorder.recent(EVENT_CAPACITY),
                    traces: self.tracer.slow(INCIDENT_TRACES),
                    dims: self.dims.windows(DIMS_WINDOW),
                });
            }
        }
        report
    }

    /// The flight recorder shared by every layer of this gateway.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Flight-recorder state for the `events` verb: the most recent
    /// events (newest first, up to `limit`) plus the pinned incident
    /// snapshot if health ever flipped.
    pub fn events(&self, limit: usize) -> EventsReply {
        EventsReply {
            events: self
                .recorder
                .recent(limit)
                .iter()
                .map(EventSummary::from)
                .collect(),
            pinned: self.recorder.pinned().as_ref().map(IncidentSummary::from),
        }
    }

    /// Renders the gateway's metrics as a Prometheus text exposition:
    /// every registry dim as a `panacea_dim_latency_ns` histogram plus
    /// `panacea_dim_outcomes_total` counters, and every stage histogram
    /// as `panacea_stage_duration_ns` scoped by layer (`gateway`,
    /// `shard<N>`, `block`).
    pub fn prometheus(&self) -> String {
        let mut text = PrometheusText::new();
        for (key, w) in self.dims.windows(DIMS_WINDOW) {
            let labels = [
                ("model", key.model.as_str()),
                ("verb", key.verb.as_str()),
                ("stage", key.stage.as_str()),
            ];
            text.histogram("panacea_dim_latency_ns", &labels, &w.latency);
            for (outcome, value) in [("ok", w.ok), ("error", w.error), ("shed", w.shed)] {
                let mut with_outcome = labels.to_vec();
                with_outcome.push(("outcome", outcome));
                text.counter("panacea_dim_outcomes_total", &with_outcome, value);
            }
        }
        let gateway_stages = [
            ("parse", self.stages.parse.snapshot()),
            ("cache_probe", self.stages.cache_probe.snapshot()),
            ("admission_wait", self.stages.admission_wait.snapshot()),
            ("route", self.stages.route.snapshot()),
            ("execute", self.stages.execute.snapshot()),
        ];
        for (stage, snap) in &gateway_stages {
            text.histogram(
                "panacea_stage_duration_ns",
                &[("scope", "gateway"), ("stage", stage)],
                snap,
            );
        }
        for i in 0..self.router.num_shards() {
            let scope = format!("shard{i}");
            let stages = self
                .router
                .shard(i)
                .stage_snapshots()
                .into_iter()
                .chain(self.sessions[i].stage_snapshots());
            for (stage, snap) in stages {
                text.histogram(
                    "panacea_stage_duration_ns",
                    &[("scope", scope.as_str()), ("stage", stage)],
                    &snap,
                );
            }
        }
        for (stage, snap) in panacea_block::stage_snapshots() {
            text.histogram(
                "panacea_stage_duration_ns",
                &[("scope", "block"), ("stage", stage)],
                &snap,
            );
        }
        text.counter("panacea_events_total", &[], self.recorder.recorded());
        text.finish()
    }

    /// Renders one sweep of the windowed dims as a single JSONL metric
    /// line anchored at the current wall clock (see
    /// [`jsonl_metrics_line`]).
    pub fn metrics_jsonl(&self) -> String {
        jsonl_metrics_line(unix_ms_now(), &self.dims.windows(DIMS_WINDOW))
    }

    /// Recorded request traces, newest first: the pinned slow ring
    /// ([`TraceKind::Slow`]) or the most recent traces regardless of
    /// duration ([`TraceKind::Recent`]).
    pub fn traces(&self, limit: usize, kind: TraceKind) -> TraceReply {
        let traces = match kind {
            TraceKind::Slow => self.tracer.slow(limit),
            TraceKind::Recent => self.tracer.recent(limit),
        };
        TraceReply {
            traces: traces.iter().map(TraceSummary::from).collect(),
        }
    }

    /// Dispatches one decoded request to a response — the single entry
    /// point both the TCP server and in-process callers use.
    pub fn handle(&self, request: Request) -> Response {
        fn reply<T>(r: Result<T, ServeError>, wrap: impl FnOnce(T) -> Response) -> Response {
            match r {
                Ok(v) => wrap(v),
                Err(e) => Response::Error {
                    kind: error_kind(&e),
                    message: e.to_string(),
                },
            }
        }
        match request {
            Request::Stats => Response::Stats(self.stats()),
            Request::Metrics => Response::Metrics(self.metrics()),
            Request::Trace { limit, kind } => Response::Trace(self.traces(limit, kind)),
            Request::Health => Response::Health(self.health()),
            Request::Events { limit } => Response::Events(self.events(limit)),
            Request::Infer {
                model,
                payload,
                deadline_ms,
            } => reply(
                self.infer_deadline(&model, payload, wire_deadline(deadline_ms)),
                Response::Infer,
            ),
            Request::InferF32 {
                model,
                input,
                deadline_ms,
            } => reply(
                self.infer_f32_deadline(&model, input, wire_deadline(deadline_ms)),
                Response::Infer,
            ),
            Request::SessionOpen { model } => {
                reply(self.session_open(&model), Response::SessionOpen)
            }
            Request::Decode {
                session,
                hidden,
                deadline_ms,
            } => reply(
                self.decode_deadline(session, &hidden, wire_deadline(deadline_ms)),
                Response::Decode,
            ),
            Request::SessionClose { session } => {
                reply(self.session_close(session), Response::SessionClose)
            }
        }
    }
}

/// The flight-recorder spelling of a shed's cause (mirrors
/// [`ShedCounters::count`]'s per-reason buckets).
fn shed_reason(e: &ServeError) -> &'static str {
    match e {
        ServeError::Overloaded {
            reason: OverloadReason::InFlight { .. },
        } => "in_flight",
        ServeError::Overloaded {
            reason: OverloadReason::QueueWait { .. },
        } => "queue_wait",
        ServeError::KvBudgetExceeded { .. } => "kv_budget",
        _ => "other",
    }
}

/// Converts a wire `deadline_ms` into the absolute deadline the serving
/// layers enforce, anchored at the moment the request is dispatched.
fn wire_deadline(deadline_ms: Option<u64>) -> Option<Instant> {
    deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms))
}

fn error_kind(e: &ServeError) -> ErrorKind {
    match e {
        ServeError::Overloaded { .. } | ServeError::KvBudgetExceeded { .. } => {
            ErrorKind::Overloaded
        }
        ServeError::DeadlineExceeded => ErrorKind::DeadlineExceeded,
        ServeError::UnknownModel { .. } => ErrorKind::UnknownModel,
        ServeError::UnknownSession { .. } => ErrorKind::UnknownSession,
        ServeError::Shape { .. }
        | ServeError::EmptyRequest
        | ServeError::CodesOutOfRange { .. }
        | ServeError::NonFiniteInput
        | ServeError::PayloadKindMismatch { .. }
        | ServeError::EmptyModel { .. }
        | ServeError::UnalignedRows { .. } => ErrorKind::BadRequest,
        ServeError::ShuttingDown => ErrorKind::ShuttingDown,
        ServeError::WorkerLost | ServeError::Pipeline(_) | ServeError::Internal { .. } => {
            ErrorKind::Internal
        }
    }
}

/// Largest accepted request line; a connection streaming more without a
/// newline is answered with an error and closed, bounding per-connection
/// memory.
const MAX_LINE_BYTES: usize = 16 << 20;

/// Bound on how long a response write may stall on a non-reading client
/// before the connection is dropped.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Upper bound on the reactor's shutdown drain (in-flight requests
/// completing and flushing) before survivors are force-evicted.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Which transport serves connections. There is one: the reactor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoModel {
    /// One `poll(2)` reactor thread multiplexing every connection, with
    /// a fixed worker pool executing requests: threads stay O(workers)
    /// however many connections are open.
    Reactor,
}

/// Transport-level knobs for [`GatewayServer`] (distinct from
/// [`GatewayConfig`], which sizes the transport-free [`Gateway`] core).
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Maximum simultaneously connected clients. Connections past the
    /// bound are answered with one [`ErrorKind::Overloaded`] error line
    /// and closed, so an untrusted peer opening sockets cannot force
    /// unbounded resource use.
    pub max_connections: usize,
    /// Selects nothing: [`IoModel`] has one variant. Kept only so
    /// existing configurations that name it still compile; deleting it
    /// waits for a change to the benchmark, which sets it.
    pub io_model: IoModel,
    /// Request-execution worker threads in the reactor's pool.
    pub reactor_workers: usize,
    /// Reactor write backlog (bytes) above which a connection stops
    /// being read from and dispatched until the peer drains.
    pub max_write_backlog: usize,
    /// How long a response write may make zero progress on a
    /// non-reading client before the connection is evicted.
    pub write_stall_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 1024,
            io_model: IoModel::Reactor,
            reactor_workers: 4,
            max_write_backlog: 4 << 20,
            write_stall_timeout: WRITE_TIMEOUT,
        }
    }
}

/// The [`panacea_netcore::Service`] gluing the reactor to the gateway:
/// parse (timed into the `parse` stage histogram) → handle → encode.
struct GatewayService {
    gateway: Arc<Gateway>,
}

impl NetService for GatewayService {
    fn serve(&self, line: &str) -> String {
        let parse_started = Instant::now();
        let decoded = decode_request(line);
        self.gateway.record_parse(parse_started.elapsed());
        let response = match decoded {
            Ok(request) => self.gateway.handle(request),
            Err(e) => Response::Error {
                kind: ErrorKind::BadRequest,
                message: e.to_string(),
            },
        };
        encode_response(&response)
    }

    fn bad_request(&self, detail: &str) -> String {
        encode_response(&Response::Error {
            kind: ErrorKind::BadRequest,
            message: detail.to_string(),
        })
    }

    fn overloaded(&self, detail: &str) -> String {
        encode_response(&Response::Error {
            kind: ErrorKind::Overloaded,
            message: detail.to_string(),
        })
    }

    fn internal_error(&self, detail: &str) -> String {
        // A caught dispatch panic lands here: record it so incident
        // snapshots pin the event, then answer instead of hanging.
        self.gateway
            .recorder()
            .record(EventSeverity::Error, "worker_panic", detail.to_string());
        encode_response(&Response::Error {
            kind: ErrorKind::Internal,
            message: detail.to_string(),
        })
    }
}

/// Connection-lifecycle telemetry: flight recorder events for
/// open/close/evict, and per-stage latencies under the
/// `(model="-", verb="conn", stage=accept|read|write|dispatch)` dims.
struct GatewayConnObserver {
    gateway: Arc<Gateway>,
}

impl ConnObserver for GatewayConnObserver {
    fn conn_open(&self, open_now: u64) {
        self.gateway.recorder().record(
            EventSeverity::Info,
            "conn_open",
            format!("open={open_now}"),
        );
    }

    fn conn_close(&self, open_now: u64) {
        self.gateway.recorder().record(
            EventSeverity::Info,
            "conn_close",
            format!("open={open_now}"),
        );
    }

    fn conn_evict(&self, reason: EvictReason, open_now: u64) {
        self.gateway.recorder().record(
            EventSeverity::Warn,
            "conn_evict",
            format!("reason={} open={open_now}", reason.as_str()),
        );
    }

    fn stage_time(&self, stage: ConnStage, elapsed: Duration) {
        self.gateway
            .dims()
            .cell("-", "conn", stage.as_str())
            .record_latency(elapsed);
    }
}

/// A TCP front-end over a shared [`Gateway`], served by a
/// `panacea-netcore` [`Reactor`]. Dropping it shuts the reactor down.
#[derive(Debug)]
pub struct GatewayServer {
    gateway: Arc<Gateway>,
    local_addr: SocketAddr,
    reactor: Reactor,
}

impl GatewayServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving with the default [`ServerConfig`].
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind(gateway: Arc<Gateway>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::bind_with(gateway, addr, ServerConfig::default())
    }

    /// [`bind`](Self::bind) with explicit transport knobs.
    ///
    /// # Errors
    ///
    /// Propagates socket bind and reactor setup failures.
    pub fn bind_with(
        gateway: Arc<Gateway>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let reactor = Reactor::spawn(
            listener,
            Arc::new(GatewayService {
                gateway: Arc::clone(&gateway),
            }),
            Arc::new(GatewayConnObserver {
                gateway: Arc::clone(&gateway),
            }),
            gateway.connections().clone(),
            ReactorConfig {
                max_connections: config.max_connections.max(1),
                workers: config.reactor_workers,
                max_line_bytes: MAX_LINE_BYTES,
                max_write_backlog: config.max_write_backlog,
                write_stall_timeout: config.write_stall_timeout,
                drain_timeout: DRAIN_TIMEOUT,
            },
        )?;
        Ok(GatewayServer {
            gateway,
            local_addr,
            reactor,
        })
    }

    /// The bound address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The gateway this server fronts.
    pub fn gateway(&self) -> &Arc<Gateway> {
        &self.gateway
    }

    /// Stops accepting, drains or disconnects live connections, and
    /// joins every server thread. Idempotent; also invoked on drop.
    pub fn shutdown(&mut self) {
        self.reactor.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{codes, models};
    use panacea_serve::BatchPolicy;
    use panacea_tensor::dist::DistributionKind;
    use panacea_tensor::Matrix;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    /// The pacing unit transport tests stall a client by, long enough
    /// for the server to see the bytes before and after as separate
    /// reads.
    const POLL_INTERVAL: Duration = Duration::from_millis(50);

    #[test]
    fn infer_hits_cache_on_identical_payload() {
        let gateway = Gateway::new(models(&["m"], 1), GatewayConfig::default());
        let model = gateway.router().model("m").expect("registered");
        let x = codes(&model, 2, 0);
        let (expect, _) = model.forward_codes(&x);
        let first = gateway
            .infer("m", Payload::Codes(x.clone()))
            .expect("served");
        assert!(!first.cache_hit);
        assert_eq!(first.payload, expect.clone().into());
        let second = gateway.infer("m", Payload::Codes(x)).expect("served");
        assert!(second.cache_hit, "identical payload missed the cache");
        assert_eq!(second.payload, expect.into(), "cache replay diverged");
        let stats = gateway.stats();
        assert_eq!(stats.cache.hits, 1);
        // The cached request never re-entered a runtime.
        let total_served: u64 = stats.shards.iter().map(|s| s.requests).sum();
        assert_eq!(total_served, 1);
    }

    #[test]
    fn re_registering_a_model_invalidates_cached_replays() {
        let gateway = Gateway::new(models(&["m"], 9), GatewayConfig::default());
        let old = gateway.router().model("m").expect("registered");
        let x = codes(&old, 2, 0);
        let first = gateway
            .infer("m", Payload::Codes(x.clone()))
            .expect("served");
        assert!(!first.cache_hit);
        // Replace "m" on every shard with a different preparation (the
        // documented re-registration path via the shard registries).
        let replacement = Arc::new(models(&["m"], 10).pop().expect("one model"));
        for shard in 0..gateway.router().num_shards() {
            gateway
                .router()
                .shard(shard)
                .registry()
                .insert_shared(Arc::clone(&replacement));
        }
        let (expect, _) = replacement.forward_codes(&x);
        let after = gateway.infer("m", Payload::Codes(x)).expect("served");
        assert!(
            !after.cache_hit,
            "stale cache entry replayed for the replaced model"
        );
        assert_eq!(
            after.payload,
            expect.into(),
            "answer did not come from the new model"
        );
        assert_ne!(
            after.payload, first.payload,
            "test models must differ for this check to mean anything"
        );
    }

    #[test]
    fn block_inference_is_bit_exact_and_cache_replayed() {
        use crate::testutil::{block_model, direct_forward, hidden};
        let (model, blocks) = block_model("blk", 60);
        let gateway = Gateway::new(vec![model], GatewayConfig::default());
        let x = hidden(16, 3, 0);
        let expect = direct_forward(&blocks, &x);
        let cold = gateway
            .infer("blk", Payload::Hidden(x.clone()))
            .expect("served");
        assert!(!cold.cache_hit);
        let cold_hidden = cold.payload.as_hidden().expect("block result");
        for (a, b) in expect.iter().zip(cold_hidden.iter()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "gateway diverged from direct block execution"
            );
        }
        let warm = gateway.infer("blk", Payload::Hidden(x)).expect("served");
        assert!(warm.cache_hit, "identical hidden states missed the cache");
        assert_eq!(warm.payload, cold.payload, "cache replay diverged");
        let stats = gateway.stats();
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.shards.iter().map(|s| s.requests).sum::<u64>(), 1);
    }

    #[test]
    fn payload_kinds_are_guarded_by_validation() {
        use crate::testutil::{block_model, hidden};
        let (block, _) = block_model("blk", 61);
        let mut set = models(&["chain"], 62);
        set.push(block);
        let gateway = Gateway::new(set, GatewayConfig::default());
        // Codes against a block model: one typed verb, one guard — the
        // model's own validate.
        let err = gateway
            .infer("blk", Payload::Codes(Matrix::zeros(16, 1)))
            .expect_err("block model served a code payload");
        assert!(matches!(
            err,
            ServeError::PayloadKindMismatch {
                model_is_block: true,
                ..
            }
        ));
        // Hidden states against a linear chain.
        let err = gateway
            .infer("chain", Payload::Hidden(hidden(16, 1, 0)))
            .expect_err("chain served a hidden payload");
        assert!(matches!(
            err,
            ServeError::PayloadKindMismatch {
                model_is_block: false,
                ..
            }
        ));
        // Both surface as BadRequest on the wire.
        let resp = gateway.handle(Request::Infer {
            model: "chain".to_string(),
            payload: Payload::Hidden(hidden(16, 1, 0)),
            deadline_ms: None,
        });
        assert!(matches!(
            resp,
            Response::Error {
                kind: ErrorKind::BadRequest,
                ..
            }
        ));
        // Sessions are block-only, through the same validation story.
        let err = gateway
            .session_open("chain")
            .expect_err("chain opened a decode session");
        assert!(matches!(
            err,
            ServeError::PayloadKindMismatch {
                model_is_block: false,
                ..
            }
        ));
    }

    #[test]
    fn f32_payload_is_quantized_server_side() {
        let gateway = Gateway::new(models(&["m"], 2), GatewayConfig::default());
        let model = gateway.router().model("m").expect("registered");
        let mut rng = panacea_tensor::seeded_rng(3);
        let input = DistributionKind::Gaussian {
            mean: 0.2,
            std: 0.5,
        }
        .sample_matrix(model.in_features(), 2, &mut rng);
        let quantized = model.quantize(&input);
        let (expect, _) = model.forward(&quantized);
        let reply = gateway.infer_f32("m", input).expect("served");
        assert_eq!(reply.payload, expect);
        // The wire form of the convenience verb lands on the same path.
        let via_wire = gateway.handle(Request::InferF32 {
            model: "m".to_string(),
            input: DistributionKind::Gaussian {
                mean: 0.2,
                std: 0.5,
            }
            .sample_matrix(model.in_features(), 2, &mut rng),
            deadline_ms: None,
        });
        assert!(matches!(via_wire, Response::Infer(_)));
    }

    #[test]
    fn decode_sessions_round_trip_and_match_causal_recompute() {
        use crate::testutil::{block_model, hidden};
        let (model, blocks) = block_model("blk", 63);
        let gateway = Gateway::new(vec![model], GatewayConfig::default());
        let open = gateway.session_open("blk").expect("opened");
        assert!(open.shard < gateway.router().num_shards());

        // Prefill with 3 tokens, then decode 2 more one at a time.
        let prefix = hidden(16, 5, 3);
        let mut outs: Vec<Matrix<f32>> = Vec::new();
        let first = gateway
            .decode(open.session, &prefix.submatrix(0, 0, 16, 3))
            .expect("prefill");
        assert_eq!(first.tokens, 3);
        assert_eq!(first.shard, open.shard, "step left the session's shard");
        outs.push(first.hidden);
        for c in 3..5 {
            let step = gateway
                .decode(open.session, &prefix.submatrix(0, c, 16, 1))
                .expect("step");
            assert_eq!(step.tokens, c + 1);
            outs.push(step.hidden);
        }

        // Oracle: one causal full pass over the whole prefix.
        let mut expect = prefix.clone();
        for b in &blocks {
            expect = b.forward_segments_causal(&expect, &[5]).0;
        }
        let mut col = 0;
        for out in &outs {
            for c in 0..out.cols() {
                for r in 0..16 {
                    assert_eq!(
                        out[(r, c)].to_bits(),
                        expect[(r, col + c)].to_bits(),
                        "gateway decode diverged from causal recompute"
                    );
                }
            }
            col += out.cols();
        }

        let closed = gateway.session_close(open.session).expect("closed");
        assert_eq!(closed.tokens, 5);
        assert!(matches!(
            gateway.decode(open.session, &hidden(16, 1, 0)),
            Err(ServeError::UnknownSession { .. })
        ));
        assert!(matches!(
            gateway.session_close(open.session),
            Err(ServeError::UnknownSession { .. })
        ));
    }

    #[test]
    fn decode_steps_never_touch_the_request_cache() {
        // Replaying a cached decode step would corrupt session state:
        // the output depends on the KV prefix, not just the payload.
        // The session path must not probe, hit, or populate the cache —
        // its counters must not move at all.
        use crate::testutil::{block_model, hidden};
        let (model, _) = block_model("blk", 64);
        let gateway = Gateway::new(vec![model], GatewayConfig::default());
        let baseline = gateway.stats().cache;

        let x = hidden(16, 1, 42);
        let y = hidden(16, 1, 43);
        let a = gateway.session_open("blk").expect("opened");
        let b = gateway.session_open("blk").expect("opened");
        // Identical payloads behind different prefixes — the classic
        // cache-replay bait.
        let behind_y = {
            gateway.decode(a.session, &y).expect("step");
            gateway.decode(a.session, &x).expect("step")
        };
        let fresh = gateway.decode(b.session, &x).expect("step");
        assert_eq!(
            gateway.stats().cache,
            baseline,
            "decode touched the request cache"
        );
        // And the outputs demonstrate why replay would be wrong: the
        // same payload yields different hidden states behind different
        // prefixes.
        assert_ne!(behind_y.hidden, fresh.hidden, "KV prefix ignored");

        // Stateless traffic through the same gateway still caches.
        let warm = hidden(16, 2, 7);
        let cold = gateway
            .infer("blk", Payload::Hidden(warm.clone()))
            .expect("served");
        let replay = gateway.infer("blk", Payload::Hidden(warm)).expect("served");
        assert!(!cold.cache_hit && replay.cache_hit);
    }

    #[test]
    fn stats_report_per_shard_sessions_and_kv_bytes() {
        use crate::testutil::block_model;
        use crate::testutil::hidden;
        let (model, _) = block_model("blk", 65);
        let gateway = Gateway::new(vec![model], GatewayConfig::default());
        let open = gateway.session_open("blk").expect("opened");
        gateway
            .decode(open.session, &hidden(16, 4, 0))
            .expect("step");
        let stats = gateway.stats();
        let shard = &stats.shards[open.shard];
        assert_eq!(shard.open_sessions, 1);
        // 2 blocks × 2 (K+V) × 16 features × 4 tokens × 4 bytes.
        assert_eq!(shard.kv_bytes, 2 * 2 * 16 * 4 * 4);
        assert_eq!(shard.decode_steps, 1);
        assert_eq!(shard.decode_tokens, 4);
        // The other shard holds nothing.
        let other: u64 = stats
            .shards
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != open.shard)
            .map(|(_, s)| s.open_sessions + s.kv_bytes)
            .sum();
        assert_eq!(other, 0);
        gateway.session_close(open.session).expect("closed");
        assert_eq!(gateway.stats().shards[open.shard].kv_bytes, 0);
    }

    #[test]
    fn session_opens_spread_over_shards_by_kv_load() {
        use crate::testutil::{block_model, hidden};
        let (model, _) = block_model("blk", 67);
        let gateway = Gateway::new(vec![model], GatewayConfig::default());
        // Empty sessions tie on kv_bytes, so placement round-robins on
        // open-session count…
        let a = gateway.session_open("blk").expect("opened");
        let b = gateway.session_open("blk").expect("opened");
        assert_ne!(a.shard, b.shard, "empty opens piled onto one shard");
        // …and once KV bytes differ, the lighter shard wins: grow the
        // session on shard A, close B, and the next open must avoid A.
        gateway.decode(a.session, &hidden(16, 4, 0)).expect("step");
        gateway.session_close(b.session).expect("closed");
        let c = gateway.session_open("blk").expect("opened");
        assert_eq!(
            c.shard, b.shard,
            "open ignored KV load and joined the heavy shard"
        );
    }

    #[test]
    fn session_opens_count_against_admission() {
        use crate::testutil::block_model;
        let (model, _) = block_model("blk", 66);
        let gateway = Gateway::new(
            vec![model],
            GatewayConfig {
                admission: AdmissionConfig {
                    max_in_flight: 1,
                    max_queue_wait: Duration::from_secs(5),
                },
                ..GatewayConfig::default()
            },
        );
        let before = gateway.stats().admission.admitted;
        let open = gateway.session_open("blk").expect("opened");
        let after = gateway.stats().admission;
        assert_eq!(after.admitted, before + 1, "open did not take a permit");
        assert_eq!(after.in_flight, 0, "open leaked its permit");
        // With the only permit held, a session open is shed like any
        // other request.
        let permit = gateway.admission().try_admit().expect("permit");
        assert!(matches!(
            gateway.session_open("blk"),
            Err(ServeError::Overloaded { .. })
        ));
        assert!(matches!(
            gateway.decode(open.session, &crate::testutil::hidden(16, 1, 0)),
            Err(ServeError::Overloaded { .. })
        ));
        drop(permit);
        assert!(gateway.session_open("blk").is_ok());
        assert_eq!(gateway.stats().admission.rejected_capacity, 2);
    }

    #[test]
    fn bad_requests_map_to_protocol_error_kinds() {
        let gateway = Gateway::new(models(&["m"], 3), GatewayConfig::default());
        let ghost = gateway.handle(Request::Infer {
            model: "ghost".to_string(),
            payload: Payload::Codes(Matrix::zeros(16, 1)),
            deadline_ms: None,
        });
        assert!(matches!(
            ghost,
            Response::Error {
                kind: ErrorKind::UnknownModel,
                ..
            }
        ));
        let misshapen = gateway.handle(Request::Infer {
            model: "m".to_string(),
            payload: Payload::Codes(Matrix::zeros(3, 1)),
            deadline_ms: None,
        });
        assert!(matches!(
            misshapen,
            Response::Error {
                kind: ErrorKind::BadRequest,
                ..
            }
        ));
    }

    #[test]
    fn overload_rejections_reach_the_response() {
        // One permit and a lingering runtime: the second concurrent
        // request must be rejected, not queued.
        let gateway = Arc::new(Gateway::new(
            models(&["m"], 4),
            GatewayConfig {
                shards: 1,
                runtime: RuntimeConfig {
                    workers: 1,
                    policy: BatchPolicy {
                        max_batch: 4096,
                        max_wait: Duration::from_millis(300),
                    },
                },
                admission: AdmissionConfig {
                    max_in_flight: 1,
                    max_queue_wait: Duration::from_secs(5),
                },
                ..GatewayConfig::default()
            },
        ));
        let model = gateway.router().model("m").expect("registered");
        let slow = {
            let gateway = Arc::clone(&gateway);
            let x = codes(&model, 1, 0);
            thread::spawn(move || gateway.infer("m", Payload::Codes(x)))
        };
        // Give the first request time to take the only permit.
        thread::sleep(Duration::from_millis(50));
        let shed = gateway.infer("m", Payload::Codes(codes(&model, 1, 1)));
        assert!(
            matches!(shed, Err(ServeError::Overloaded { .. })),
            "burst request was not shed: {shed:?}"
        );
        assert!(slow.join().expect("first request").is_ok());
        assert_eq!(gateway.stats().admission.rejected_capacity, 1);
    }

    #[test]
    fn multibyte_utf8_split_across_read_timeouts_survives() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpStream;
        let gateway = Arc::new(Gateway::new(models(&["m"], 12), GatewayConfig::default()));
        let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
        let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
        let line =
            "{\"verb\":\"infer\",\"model\":\"modèle\",\"payload\":{\"kind\":\"codes\",\"rows\":1,\"cols\":1,\"data\":[1]}}\n";
        // Split the line *inside* the two-byte 'è' and stall so the two
        // halves arrive as separate reads: the name must reassemble
        // intact (the server answers unknown_model naming it), not be
        // dropped or mangled into a JSON parse error.
        let split = line.find('è').expect("è present") + 1;
        raw.write_all(&line.as_bytes()[..split]).expect("send head");
        raw.flush().expect("flush head");
        thread::sleep(POLL_INTERVAL * 3);
        raw.write_all(&line.as_bytes()[split..]).expect("send tail");
        let mut reply = String::new();
        BufReader::new(&raw)
            .read_line(&mut reply)
            .expect("answered");
        assert!(
            reply.contains("unknown_model") && reply.contains("modèle"),
            "name mangled in transit: {reply}"
        );
    }

    #[test]
    fn shutdown_is_prompt_while_a_client_drips_bytes() {
        use std::io::Write;
        use std::net::TcpStream;
        let gateway = Arc::new(Gateway::new(models(&["m"], 13), GatewayConfig::default()));
        let mut server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        // A client dripping bytes without ever finishing a line: each
        // chunk keeps its connection readable, so shutdown must still be
        // noticed between chunks.
        let stop_drip = Arc::new(AtomicBool::new(false));
        let dripper = {
            let stop_drip = Arc::clone(&stop_drip);
            thread::spawn(move || {
                let mut s = TcpStream::connect(addr).expect("connect");
                while !stop_drip.load(Ordering::Acquire) {
                    if s.write_all(b"[").and_then(|()| s.flush()).is_err() {
                        break; // server closed on us — expected after shutdown
                    }
                    thread::sleep(Duration::from_millis(10));
                }
            })
        };
        thread::sleep(Duration::from_millis(100)); // let the drip start mid-line
        let started = Instant::now();
        server.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "shutdown hung on the dripping client"
        );
        stop_drip.store(true, Ordering::Release);
        dripper.join().expect("dripper");
    }

    #[test]
    fn connection_limit_rejects_excess_connections() {
        use crate::GatewayClient;
        let gateway = Arc::new(Gateway::new(models(&["m"], 7), GatewayConfig::default()));
        let server = GatewayServer::bind_with(
            Arc::clone(&gateway),
            "127.0.0.1:0",
            ServerConfig {
                max_connections: 1,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let mut first = GatewayClient::connect(server.local_addr()).expect("connect");
        assert!(first.stats().is_ok(), "first connection must serve");
        let mut second = GatewayClient::connect(server.local_addr()).expect("connect");
        let err = second.stats().expect_err("over-limit connection served");
        assert!(err.is_overloaded(), "wrong rejection: {err}");
        // Closing the first connection frees the slot (the reactor
        // closes it on EOF), so a later connection must get through.
        drop(first);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let mut retry = GatewayClient::connect(server.local_addr()).expect("connect");
            if retry.stats().is_ok() {
                break;
            }
            assert!(Instant::now() < deadline, "connection slot never freed");
            thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn shed_requests_do_not_linger_in_the_runtime_queue() {
        // A linger far beyond the queue-wait bound: every request is
        // shed before its batch dispatches. Shedding must cancel the
        // queued job, not leave it accumulating behind the freed permit.
        let gateway = Gateway::new(
            models(&["m"], 6),
            GatewayConfig {
                shards: 1,
                runtime: RuntimeConfig {
                    workers: 1,
                    policy: BatchPolicy {
                        max_batch: 4096,
                        max_wait: Duration::from_secs(60),
                    },
                },
                admission: AdmissionConfig {
                    max_in_flight: 16,
                    max_queue_wait: Duration::from_millis(10),
                },
                ..GatewayConfig::default()
            },
        );
        let model = gateway.router().model("m").expect("registered");
        for salt in 0..3 {
            let shed = gateway.infer("m", Payload::Codes(codes(&model, 1, salt)));
            assert!(
                matches!(shed, Err(ServeError::Overloaded { .. })),
                "request outran the 60s linger: {shed:?}"
            );
        }
        // Cancellation wakes the worker, which purges the abandoned
        // jobs; poll briefly to absorb scheduling noise.
        let deadline = Instant::now() + Duration::from_secs(5);
        let shard = gateway.router().shard(0);
        while shard.queue_depth().load() > 0 {
            assert!(Instant::now() < deadline, "shed jobs still queued");
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(shard.metrics().cancelled, 3);
        assert_eq!(shard.metrics().requests, 0, "a shed request executed");
        assert_eq!(gateway.stats().admission.rejected_timeout, 3);
    }

    #[test]
    fn stats_aggregate_all_layers() {
        let gateway = Gateway::new(models(&["a", "b"], 5), GatewayConfig::default());
        let a = gateway.router().model("a").expect("registered");
        for salt in 0..3 {
            gateway
                .infer("a", Payload::Codes(codes(&a, 1, salt)))
                .expect("served");
        }
        let s = gateway.stats();
        assert_eq!(s.shards.len(), 2);
        assert_eq!(s.shards.iter().map(|x| x.requests).sum::<u64>(), 3);
        assert_eq!(s.admission.admitted, 3);
        assert_eq!(s.cache.misses, 3);
        assert_eq!(s.cache.entries, 3);
    }
}
