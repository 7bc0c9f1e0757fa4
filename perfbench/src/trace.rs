//! The traced replay. Wire ops sent during a traced slice are replayed
//! in-process through each layer's public entry points, peeled outermost
//! to innermost. Every call becomes a span whose parent is the next-outer
//! layer's call on the same input, and all spans of one request share its
//! id:
//!
//! ```text
//! client (client-observed latency; the root to explain)
//! ├─ netcore.transport (client minus the reply's server latency)
//! │  └─ gateway.codec (encode/decode of this request and reply)
//! └─ gateway.handle
//!    └─ serve.runtime → serve.model → block.forward (per block)   infer
//!    └─ serve.session → block.decode_step                         decode
//!       ├─ quant.quantize, quant.requant
//!       └─ core.linear.<sub>
//!          ├─ bitslice.act_slice.<sub>
//!          └─ core.aqs_gemm.<sub> → core.weight_reconstruct.<sub>
//! ```
//!
//! `core.dense_gemm.<sub>` is a reference span beside the tree. Spans are
//! kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use panacea_bitslice::VECTOR_LEN;
use panacea_bitslice::{SlicedActivation, SlicedWeight};
use panacea_block::{decode_step_batch, BlockWorkload, KvCache};
use panacea_core::aqs_gemm;
use panacea_core::dense::dense_gemm;
use panacea_core::pipeline::QuantizedLinear;
use panacea_gateway::protocol::{decode_request, decode_response, encode_request, encode_response};
use panacea_gateway::{CacheConfig, Gateway, GatewayConfig, Request, Response};
use panacea_quant::requant::Requantizer;
use panacea_quant::{
    ActivationCalibrator, DbsConfig, LayerQuantConfig, Quantizer, SymmetricQuantizer,
};
use panacea_serve::{ModelRegistry, Payload, Runtime, RuntimeConfig, SessionManager};
use panacea_tensor::Matrix;
use serde_json::{json, Value};

use crate::fixture::{Models, Sizing, BLOCK_MODEL, N_BLOCKS, W_BITS};
use crate::inputs::{first_lifetime_steps, unit, Inputs, Schedule};
use crate::load::{Kind, Op};
use crate::stats::{digest_f32, digest_payload, median};
use crate::verify::decode_lifetimes;
use crate::Workload;

/// The block's four weight GEMMs, in execution order.
pub const SUBS: [&str; 4] = ["qkv", "proj", "fc1", "fc2"];

/// One recorded call.
pub struct Span {
    pub request: u64,
    pub name: String,
    pub parent: Option<usize>,
    pub us: f64,
    /// A reference measurement beside the call tree (the dense floor),
    /// not part of any layer's time.
    pub reference: bool,
}

/// Layer of a span: its name up to the first `.`.
fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[derive(Default)]
pub struct Spans {
    pub spans: Vec<Span>,
}

impl Spans {
    fn push(&mut self, request: u64, name: String, parent: Option<usize>, us: f64) -> usize {
        self.spans.push(Span {
            request,
            name,
            parent,
            us,
            reference: false,
        });
        self.spans.len() - 1
    }

    fn time<T>(
        &mut self,
        request: u64,
        name: impl Into<String>,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let t = Instant::now();
        let out = f();
        let us = t.elapsed().as_secs_f64() * 1e6;
        (out, self.push(request, name.into(), parent, us))
    }

    /// Median duration of the spans named `name` (zero if none).
    fn median_of(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.us)
            .collect();
        median(&d)
    }

    /// Spans grouped by request.
    fn by_request(&self) -> BTreeMap<u64, Vec<&Span>> {
        let mut by_req: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        for s in &self.spans {
            by_req.entry(s.request).or_default().push(s);
        }
        by_req
    }

    /// Median over requests of `Σ a-spans − Σ b-spans`, among requests
    /// that have both.
    fn median_gap(&self, a: &str, b: &str, per: f64) -> f64 {
        let gaps: Vec<f64> = self
            .by_request()
            .values()
            .filter_map(|spans| {
                let sum = |n: &str| -> Option<f64> {
                    let d: Vec<f64> = spans
                        .iter()
                        .filter(|s| s.name.starts_with(n))
                        .map(|s| s.us)
                        .collect();
                    (!d.is_empty()).then(|| d.iter().sum())
                };
                Some((sum(a)? - sum(b)?) / per)
            })
            .collect();
        median(&gaps)
    }

    /// `(request, layer, self time)` of every span below a `client`
    /// root: its duration minus its tree children's.
    fn self_times(&self) -> Vec<(u64, &str, f64)> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in self.spans.iter().filter(|s| !s.reference) {
            if let Some(p) = s.parent {
                child_us[p] += s.us;
            }
        }
        self.spans
            .iter()
            .zip(child_us)
            .filter(|(s, _)| !s.reference && s.parent.is_some())
            .map(|(s, c)| (s.request, layer(&s.name), s.us - c))
            .collect()
    }

    /// `1 − median(Σ self times) / median(client-observed)`, the sums
    /// taken per request over every layer. The `client` root is the
    /// latency to explain, not a layer; what stays unattributed is live
    /// server time the serial in-process replay does not reproduce
    /// (contention, queueing behind other connections).
    fn unattributed_frac(&self) -> f64 {
        let mut attributed: BTreeMap<u64, f64> = BTreeMap::new();
        for (request, _, us) in self.self_times() {
            *attributed.entry(request).or_default() += us;
        }
        let client = self.median_of("client");
        if attributed.is_empty() || client <= 0.0 {
            return 0.0;
        }
        1.0 - median(&attributed.into_values().collect::<Vec<_>>()) / client
    }

    /// Median self time per layer over the replayed requests (zero for a
    /// request that never entered the layer), in microseconds.
    pub fn layer_self_us(&self) -> BTreeMap<String, f64> {
        let requests = self.by_request().len();
        let mut by_layer: BTreeMap<&str, BTreeMap<u64, f64>> = BTreeMap::new();
        for (request, layer, us) in self.self_times() {
            *by_layer
                .entry(layer)
                .or_default()
                .entry(request)
                .or_default() += us;
        }
        by_layer
            .into_iter()
            .map(|(l, per_req)| {
                let mut v: Vec<f64> = per_req.into_values().collect();
                v.resize(requests, 0.0);
                (l.to_string(), median(&v))
            })
            .collect()
    }

    pub fn to_jsonl(&self) -> String {
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let v = json!({
                    "id": i,
                    "request": s.request,
                    "name": s.name.clone(),
                    "parent": s.parent.map_or(Value::Null, |p| json!(p)),
                    "us": s.us,
                    "reference": s.reference,
                });
                serde_json::to_string(&v).expect("span serializes") + "\n"
            })
            .collect()
    }
}

/// A standalone copy of one block sub-layer, prepared exactly as the
/// block builder prepares it, with the pieces `QuantizedLinear` keeps
/// private rebuilt beside it.
struct CoreLayer {
    linear: QuantizedLinear,
    weight: SlicedWeight,
    w_int: Matrix<i32>,
    requant: Option<Requantizer>,
}

fn pad_with_zeros(x: &Matrix<f32>) -> Matrix<f32> {
    let cols = x.cols().div_ceil(VECTOR_LEN) * VECTOR_LEN;
    Matrix::from_fn(
        x.rows(),
        cols,
        |r, c| if c < x.cols() { x[(r, c)] } else { 0.0 },
    )
}

fn calibrate(x: &Matrix<f32>) -> LayerQuantConfig {
    let mut cal = ActivationCalibrator::new(8)
        .with_zpm(true)
        .with_dbs(DbsConfig::default());
    cal.observe(x);
    cal.finalize()
}

fn core_layers(models: &Models) -> Vec<Vec<CoreLayer>> {
    let caps = models.oracle.captured_layers(&models.calibration);
    caps.chunks(SUBS.len())
        .map(|block| {
            block
                .iter()
                .enumerate()
                .map(|(s, cap)| {
                    let act = calibrate(&cap.input);
                    let zeros = vec![0.0; cap.weight.rows()];
                    let mut linear = QuantizedLinear::prepare(&cap.weight, &zeros, W_BITS, act)
                        .expect("sub-layer prepares");
                    let mut requant = None;
                    if SUBS[s] == "fc1" {
                        let mid = calibrate(&cap.weight.gemm_f32(&cap.input).expect("fc1 shapes"));
                        requant = Some(
                            Requantizer::new(linear.accumulator_scale(), mid.quantizer)
                                .expect("requantizer"),
                        );
                        linear = linear.with_output(mid).expect("fc1 output format");
                    }
                    let wq = SymmetricQuantizer::calibrate(cap.weight.as_slice(), W_BITS);
                    let w_int = wq.quantize_matrix(&cap.weight);
                    let weight = SlicedWeight::from_int(&w_int, usize::from((W_BITS - 4) / 3))
                        .expect("weight slices");
                    CoreLayer {
                        linear,
                        weight,
                        w_int,
                        requant,
                    }
                })
                .collect()
        })
        .collect()
}

/// Per-layer figures of one workload's traced run.
pub struct Replay {
    pub spans: Spans,
    pub requests: usize,
    pub mismatched: usize,
}

struct Replayer<'a> {
    models: &'a Models,
    core: Vec<Vec<CoreLayer>>,
    /// Replays requests the wire served past the cache: caching off, so
    /// an earlier replay of the same payload cannot turn it into a hit.
    gateway: Gateway,
    /// Replays wire cache hits, primed with the payload first.
    cached: Gateway,
    runtime: Runtime,
    sessions: SessionManager,
    spans: Spans,
    mismatched: usize,
}

impl Replayer<'_> {
    fn check(&mut self, ok: bool) {
        if !ok {
            self.mismatched += 1;
        }
    }

    /// The wire op's own spans: the client-observed latency as the root,
    /// and under it the transport share (client minus server time).
    fn wire(&mut self, id: u64, op: &Op) -> (usize, usize) {
        let root = self.spans.push(id, "client".into(), None, op.client_us());
        let transport = self.spans.push(
            id,
            "netcore.transport".into(),
            Some(root),
            op.client_us() - op.server_us,
        );
        (root, transport)
    }

    /// Gateway layer: the wire codec on this request's messages (part of
    /// the transport share), then `Gateway::handle`.
    fn gateway(
        &mut self,
        id: u64,
        (root, transport): (usize, usize),
        request: Request,
        hit: bool,
    ) -> (Response, usize) {
        let gateway = if hit { &self.cached } else { &self.gateway };
        if hit {
            gateway.handle(request.clone());
        }
        let (response, handle) = self.spans.time(id, "gateway.handle", Some(root), || {
            gateway.handle(request.clone())
        });
        let t = Instant::now();
        let line = encode_request(&request);
        let back = decode_request(&line).expect("request round-trips");
        let reply = encode_response(&response);
        let _ = decode_response(&reply).expect("response round-trips");
        self.spans.push(
            id,
            "gateway.codec".into(),
            Some(transport),
            t.elapsed().as_secs_f64() * 1e6,
        );
        self.check(back == request);
        (response, handle)
    }

    /// Core, bitslice and quant layers for one op's columns, on the
    /// standalone sub-layers. `parents[b]` is block `b`'s span.
    fn core(&mut self, id: u64, parents: &[usize], x: &Matrix<f32>) {
        let caps = self.models.oracle.captured_layers(x);
        for (b, &parent) in parents.iter().enumerate() {
            for (s, sub) in SUBS.iter().enumerate() {
                let cap = &caps[SUBS.len() * b + s];
                let layer = &self.core[b][s];
                let act = *layer.linear.input_config();
                // The block pads its hidden states with zero columns before
                // quantizing, so padding quantizes to the zero point.
                let input = pad_with_zeros(&cap.input);
                // fc2's codes come from the GELU table inside the block,
                // so only the other three quantize at block level.
                let (codes, _) = if *sub == "fc2" {
                    (act.quantizer.quantize_matrix(&input), 0)
                } else {
                    self.spans.time(id, "quant.quantize", Some(parent), || {
                        act.quantizer.quantize_matrix(&input)
                    })
                };
                let ((acc, _), lin) =
                    self.spans
                        .time(id, format!("core.linear.{sub}"), Some(parent), || {
                            layer.linear.forward(&codes)
                        });
                let k = usize::from(act.quantizer.params().bits / 4 - 1);
                let (sx, _) =
                    self.spans
                        .time(id, format!("bitslice.act_slice.{sub}"), Some(lin), || {
                            SlicedActivation::from_uint(&codes, k, act.dbs_type)
                                .expect("codes in format")
                        });
                let ((gemm, _), g) =
                    self.spans
                        .time(id, format!("core.aqs_gemm.{sub}"), Some(lin), || {
                            aqs_gemm(&layer.weight, &sx, act.frequent_ho_slice)
                        });
                self.spans.time(
                    id,
                    format!("core.weight_reconstruct.{sub}"),
                    Some(g),
                    || layer.weight.reconstruct(),
                );
                let x_eff = sx.reconstruct();
                let ((dense, _), d) =
                    self.spans
                        .time(id, format!("core.dense_gemm.{sub}"), Some(lin), || {
                            dense_gemm(&layer.w_int, &x_eff, W_BITS, 8).expect("dense shapes")
                        });
                self.spans.spans[d].reference = true;
                // The dense floor computes the same exact product, and the
                // layer adds only its folded bias (−zp·Σw for a zero bias).
                let zp = i64::from(act.quantizer.params().zero_point);
                let folded_ok = (0..acc.rows()).all(|m| {
                    let fold = -zp
                        * layer
                            .w_int
                            .row(m)
                            .iter()
                            .map(|&v| i64::from(v))
                            .sum::<i64>();
                    acc.row(m)
                        .iter()
                        .zip(gemm.row(m))
                        .all(|(&a, &g)| i64::from(a) == i64::from(g) + fold)
                });
                if let Some(rq) = &layer.requant {
                    self.spans.time(id, "quant.requant", Some(parent), || {
                        rq.requantize_matrix(&acc)
                    });
                }
                self.check(dense == gemm && folded_ok);
            }
        }
    }

    fn infer(&mut self, op: &Op, model: &str, payload: &Payload) {
        let id = op.unit;
        let wire = self.wire(id, op);
        let request = Request::Infer {
            model: model.to_string(),
            payload: payload.clone(),
            deadline_ms: None,
        };
        let (response, handle) = self.gateway(id, wire, request, op.cache_hit);
        let served = match response {
            Response::Infer(r) => Some(digest_payload(&r.payload)),
            _ => None,
        };
        self.check(served.is_some() && served == op.result.ok());
        if op.cache_hit {
            // The wire request never left the gateway.
            return;
        }
        let (out, rt) = self.spans.time(id, "serve.runtime", Some(handle), || {
            self.runtime.infer(model, payload.clone())
        });
        self.check(out.is_ok_and(|o| Some(digest_payload(&o.payload)) == served));
        let prepared = self
            .runtime
            .registry()
            .get(model)
            .expect("model registered");
        let ((out, _), fw) = self
            .spans
            .time(id, "serve.model", Some(rt), || prepared.forward(payload));
        self.check(Some(digest_payload(&out)) == served);
        let Payload::Hidden(x) = payload else { return };
        let mut h = x.clone();
        let mut parents = Vec::with_capacity(N_BLOCKS);
        for block in &self.models.blocks {
            let ((next, _), b) = self
                .spans
                .time(id, "block.forward", Some(fw), || block.forward(&h));
            parents.push(b);
            h = next;
        }
        self.check(Some(digest_f32(&h)) == served);
        self.core(id, &parents, x);
    }

    /// Replays one decode lifetime, op by op, with a session on the
    /// replay gateway, one on a standalone session manager, and a shadow
    /// KV cache for the block layer.
    fn lifetime(&mut self, ops: &[&Op], feeds: &[Matrix<f32>]) {
        let Response::SessionOpen(open) = self.gateway.handle(Request::SessionOpen {
            model: BLOCK_MODEL.into(),
        }) else {
            panic!("replay gateway opens a session");
        };
        let session = self
            .sessions
            .open(Arc::clone(&self.models.block))
            .expect("standalone session opens");
        let mut kv = KvCache::for_blocks(&self.models.blocks);
        for (op, x) in ops.iter().zip(feeds) {
            let id = (op.unit << 8) | u64::from(op.idx);
            let wire = self.wire(id, op);
            let request = Request::Decode {
                session: open.session,
                hidden: x.clone(),
                deadline_ms: None,
            };
            let (response, handle) = self.gateway(id, wire, request, false);
            let served = match response {
                Response::Decode(r) => Some(digest_f32(&r.hidden)),
                _ => None,
            };
            self.check(served.is_some() && served == op.result.ok());
            let (out, st) = self.spans.time(id, "serve.session", Some(handle), || {
                self.sessions.step(session, x)
            });
            self.check(out.is_ok_and(|o| Some(digest_f32(&o.0)) == served));
            let blocks = &self.models.blocks;
            let ((out, _), ds) = self.spans.time(id, "block.decode_step", Some(st), || {
                decode_step_batch(blocks, x, &[x.cols()], &mut [&mut kv])
            });
            self.check(Some(digest_f32(&out)) == served);
            self.core(id, &[ds; N_BLOCKS], x);
        }
        let _ = self.gateway.handle(Request::SessionClose {
            session: open.session,
        });
        let _ = self.sessions.close(session);
    }
}

/// Replays traced wire ops of `workload` until `budget` elapses.
pub fn replay(
    workload: Workload,
    models: &Models,
    sizing: &Sizing,
    inputs: &Inputs,
    schedule: Option<&Schedule>,
    ops: &[Op],
    budget: Duration,
) -> Replay {
    let registry = Arc::new(ModelRegistry::new());
    for m in models.all() {
        registry.insert_shared(m);
    }
    let mut r = Replayer {
        models,
        core: core_layers(models),
        gateway: Gateway::from_shared(
            models.all(),
            GatewayConfig {
                cache: CacheConfig {
                    capacity: 0,
                    ..CacheConfig::default()
                },
                ..sizing.gateway_config()
            },
        ),
        cached: Gateway::from_shared(models.all(), sizing.gateway_config()),
        runtime: Runtime::start(
            registry,
            RuntimeConfig {
                workers: sizing.runtime_workers,
                ..sizing.gateway_config().runtime
            },
        ),
        sessions: SessionManager::new(sizing.gateway_config().session),
        spans: Spans::default(),
        mismatched: 0,
    };
    let deadline = Instant::now() + budget;
    let mut requests = 0;
    match workload {
        Workload::Decode => {
            let traced: std::collections::BTreeSet<u64> = ops
                .iter()
                .filter(|o| o.traced && o.kind == Kind::Step)
                .map(|o| o.unit)
                .collect();
            for (unit, digests) in decode_lifetimes(ops) {
                if Instant::now() >= deadline {
                    break;
                }
                if !traced.contains(&unit) || digests.is_empty() {
                    continue;
                }
                let mut lifetime: Vec<&Op> = ops
                    .iter()
                    .filter(|o| o.kind == Kind::Step && o.unit == unit)
                    .collect();
                lifetime.sort_by_key(|o| o.idx);
                lifetime.truncate(digests.len());
                let feeds = inputs.decode_lifetime(unit, lifetime.len());
                r.lifetime(&lifetime, &feeds);
                requests += lifetime.len();
            }
        }
        Workload::Prefill | Workload::Mixed => {
            for op in ops
                .iter()
                .filter(|o| o.traced && o.kind == Kind::Infer && o.result.is_ok())
            {
                if Instant::now() >= deadline {
                    break;
                }
                match schedule {
                    Some(s) => {
                        let (target, payload) = &s.payloads[s.requests[op.unit as usize].payload];
                        r.infer(op, s.targets[*target].name(), payload);
                    }
                    None => r.infer(op, BLOCK_MODEL, &Payload::Hidden(inputs.prefill(op.unit))),
                }
                requests += 1;
            }
        }
    }
    Replay {
        spans: r.spans,
        requests,
        mismatched: r.mismatched,
    }
}

/// The named per-layer timings of a replay (microseconds unless named
/// otherwise). Layers a workload never enters read zero.
pub fn layer_metrics(spans: &Spans) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    m.insert(
        "gateway.handle_us".into(),
        spans.median_of("gateway.handle"),
    );
    m.insert("gateway.codec_us".into(), spans.median_of("gateway.codec"));
    m.insert(
        "serve.runtime_wait_us".into(),
        spans.median_gap("serve.runtime", "serve.model", 1.0),
    );
    m.insert(
        "serve.model_forward_us".into(),
        spans.median_of("serve.model"),
    );
    m.insert(
        "serve.session_wait_us".into(),
        spans.median_gap("serve.session", "block.decode_step", 1.0),
    );
    m.insert("block.forward_us".into(), spans.median_of("block.forward"));
    m.insert(
        "block.decode_step_us".into(),
        spans.median_of("block.decode_step"),
    );
    m.insert(
        "block.nongemm_us".into(),
        spans.median_gap("block.", "core.linear.", N_BLOCKS as f64),
    );
    for sub in SUBS {
        m.insert(
            format!("core.linear_forward_us.{sub}"),
            spans.median_of(&format!("core.linear.{sub}")),
        );
        m.insert(
            format!("core.aqs_gemm_us.{sub}"),
            spans.median_of(&format!("core.aqs_gemm.{sub}")),
        );
        m.insert(
            format!("core.weight_reconstruct_us.{sub}"),
            spans.median_of(&format!("core.weight_reconstruct.{sub}")),
        );
        m.insert(
            format!("core.dense_gemm_us.{sub}"),
            spans.median_of(&format!("core.dense_gemm.{sub}")),
        );
        m.insert(
            format!("bitslice.act_slice_us.{sub}"),
            spans.median_of(&format!("bitslice.act_slice.{sub}")),
        );
    }
    m.insert(
        "quant.quantize_us".into(),
        spans.median_of("quant.quantize"),
    );
    m.insert("quant.requant_us".into(), spans.median_of("quant.requant"));
    m.insert("trace.unattributed_frac".into(), spans.unattributed_frac());
    m
}

/// Exact AQS work totals per sub-layer over a fixed, seed-determined
/// slice of the workload's inputs, run through the same block functions
/// the server runs. `(totals per sub as [mul, ema_slices, comp_add], tokens)`.
pub fn kernel_counts(
    workload: Workload,
    models: &Models,
    inputs: &Inputs,
    schedule: Option<&Schedule>,
) -> (Vec<[u64; 3]>, u64) {
    let blocks = &models.blocks;
    let mut total = BlockWorkload::default();
    let mut tokens = 0u64;
    let mut add = |wl: BlockWorkload, cols: usize| {
        total = total.merged(&wl);
        tokens += cols as u64;
    };
    let stacked = |x: &Matrix<f32>| {
        let mut h = x.clone();
        let mut wl = BlockWorkload::default();
        for b in blocks {
            let (next, w) = b.forward(&h);
            wl = wl.merged(&w);
            h = next;
        }
        wl
    };
    match workload {
        Workload::Decode => {
            // Connection 0's first two lifetimes, as its clients open them.
            for (lifetime, ops) in [
                (0u64, 1 + first_lifetime_steps(0)),
                (1, 1 + first_lifetime_steps(1)),
            ] {
                let mut kv = KvCache::for_blocks(blocks);
                for x in inputs.decode_lifetime(unit(0, lifetime), ops) {
                    let (_, wl) = panacea_block::decode_step(blocks, &x, &mut kv);
                    add(wl, x.cols());
                }
            }
        }
        Workload::Prefill => {
            for i in 0..2 {
                let x = inputs.prefill(unit(0, i));
                add(stacked(&x), x.cols());
            }
        }
        Workload::Mixed => {
            let s = schedule.expect("mixed has a schedule");
            let block_payloads = s
                .requests
                .iter()
                .filter_map(|r| s.payloads[r.payload].1.as_hidden())
                .take(16);
            for x in block_payloads {
                add(stacked(x), x.cols());
            }
        }
    }
    let per_sub = [total.qkv, total.attn_proj, total.fc1, total.fc2]
        .iter()
        .map(|w| [w.mul, w.ema_slices, w.comp_add])
        .collect();
    (per_sub, tokens)
}
