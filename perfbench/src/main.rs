//! The repository benchmark: one command that starts a `GatewayServer`
//! on loopback in-process, drives one named workload into it, checks
//! every reply bit-exact, and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload decode|prefill|mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics from a traced replay of the same inputs. The last
//! stdout line is the result object; the line before it is the run's
//! metadata, also written with the spans under `perfbench/out/`.

mod fixture;
mod inputs;
mod load;
mod stats;
mod trace;
mod verify;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use panacea_serve::SessionStats;
use serde_json::{json, Map, Value};

use crate::fixture::{set_up, Models, Sizing, CHAIN_MODELS};
use crate::inputs::{
    Inputs, Schedule, DECODE_PREFIX, DECODE_SESSIONS, DECODE_STEPS, MIXED_RATE, PREFILL_TOKENS,
};
use crate::load::{Failure, Kind, Op, Run, Traffic, PREFILL_STAGGER, WARMUP};
use crate::stats::{median, peak_rss_mb, quantile, quartiles, sorted, supported_p99};
use crate::trace::SUBS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Decode,
    Prefill,
    Mixed,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "decode" => Some(Workload::Decode),
            "prefill" => Some(Workload::Prefill),
            "mixed" => Some(Workload::Mixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Decode => "decode",
            Workload::Prefill => "prefill",
            Workload::Mixed => "mixed",
        }
    }
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// Slices the measured window is cut into, to show the spread within a run.
const SLICES: usize = 10;
/// A traced run alternates untraced and traced slices.
const TRACED_SLICES: usize = 6;
/// Where metadata, spans and kernel counts are written.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("expected `--flag value` pairs, got {pair:?}")),
        }
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing --{k}"));
    let workload = Workload::parse(get("workload")?).ok_or("unknown --workload")?;
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed must be an unsigned integer")?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    let trace = match flags.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The commit this checkout was built from, when it is a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map_or("unknown".into(), |c| c.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn repeats(values: &[f64]) -> Value {
    let (q1, med, q3) = quartiles(values);
    json!({ "values": values.to_vec(), "q1": q1, "median": med, "q3": q3 })
}

/// Tokens completed, and the rate and CPU per token, in each slice and
/// (last) over the whole window. Tokens are the columns of the calls
/// latency is measured on: every `infer`, and each generated token of a
/// decode session (its prefix is prompt work, not decode output).
fn slice_rates(run: &Run) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let w = &run.window;
    let mut cols = vec![0.0; w.slices()];
    for op in run
        .ops
        .iter()
        .filter(|o| o.is_latency_sample() && o.result.is_ok())
    {
        if let Some(i) = w.slice_of(op.done) {
            cols[i] += f64::from(op.cols);
        }
    }
    let n = w.slices();
    let span = |a: usize, b: usize| (w.bounds[b] - w.bounds[a]).as_secs_f64();
    let cols_in = |a: usize, b: usize| cols[a..b].iter().sum::<f64>();
    let mut rate: Vec<f64> = (0..n).map(|i| cols[i] / span(i, i + 1)).collect();
    let mut cpu: Vec<f64> = (0..n)
        .map(|i| (w.cpu_s[i + 1] - w.cpu_s[i]) * 1e3 / cols[i].max(1.0))
        .collect();
    rate.push(cols_in(0, n) / span(0, n));
    cpu.push((w.cpu_s[n] - w.cpu_s[0]) * 1e3 / cols_in(0, n).max(1.0));
    (cols, rate, cpu)
}

fn metric(value: f64, unit: &str) -> Value {
    json!({ "value": value, "unit": unit })
}

/// What one run measured, shared by the metric reports.
struct Ctx<'a> {
    args: &'a Args,
    sizing: &'a Sizing,
    models: &'a Models,
    inputs: &'a Inputs,
    schedule: Option<&'a Schedule>,
    run: &'a Run,
}

impl Ctx<'_> {
    /// Ops completed inside the measured window.
    fn in_window(&self) -> Vec<&Op> {
        let w = &self.run.window;
        self.run.ops.iter().filter(|o| w.contains(o.done)).collect()
    }

    /// Latency samples (ms) completed inside the window, ascending.
    fn latencies_ms(&self, slice: Option<usize>) -> Vec<f64> {
        let w = &self.run.window;
        sorted(
            self.in_window()
                .iter()
                .filter(|o| o.is_latency_sample() && o.result.is_ok())
                .filter(|o| slice.is_none() || w.slice_of(o.done) == slice)
                .map(|o| o.latency_us() / 1e3)
                .collect(),
        )
    }
}

/// The run's metadata: sizing, workload shape, op counts, sample counts
/// and per-slice repeats.
fn metadata(
    ctx: &Ctx,
    setup_s: &[f64],
    prepare_s: &[f64],
    chain_shards: &[usize],
) -> Map<String, Value> {
    let (args, sizing, run) = (ctx.args, ctx.sizing, ctx.run);
    let samples = ctx.latencies_ms(None);
    let (cols, rate, cpu) = slice_rates(run);
    let slice_p50: Vec<f64> = (0..run.window.slices())
        .map(|i| quantile(&ctx.latencies_ms(Some(i)), 0.5))
        .collect();
    let mut ops_per_shard = vec![0usize; sizing.shards];
    for op in run
        .ops
        .iter()
        .filter(|o| o.kind != Kind::Admin && o.result.is_ok())
    {
        ops_per_shard[op.shard] += 1;
    }
    let p99 = quantile(&samples, 0.99);
    let mut meta = Map::new();
    let mut put = |k: &str, v: Value| {
        meta.insert(k.to_string(), v);
    };
    put("workload", json!(args.workload.name()));
    put("seed", json!(args.seed));
    put("seconds", json!(args.seconds));
    put("trace", json!(args.trace));
    put("commit", json!(commit()));
    put("nproc", json!(sizing.nproc));
    put("io_model", json!("reactor"));
    put("shards", json!(sizing.shards));
    put("runtime_workers_per_shard", json!(sizing.runtime_workers));
    put("reactor_workers", json!(sizing.reactor_workers));
    put("connections", json!(sizing.connections));
    put("chain_shards", json!(chain_shards.to_vec()));
    put("mixed_rate_per_s", json!(MIXED_RATE));
    put("decode_sessions_per_connection", json!(DECODE_SESSIONS));
    put("decode_prefix_tokens", json!(DECODE_PREFIX));
    put("decode_steps_per_session", json!(DECODE_STEPS));
    put("prefill_tokens", json!(PREFILL_TOKENS));
    put("prefill_rounds", json!("lockstep"));
    put(
        "prefill_stagger_ms",
        json!(PREFILL_STAGGER.as_secs_f64() * 1e3),
    );
    put("warmup_s", json!(WARMUP.as_secs_f64()));
    put("ops_attempted", json!(run.ops.len()));
    put(
        "ops_failed",
        json!(run.ops.iter().filter(|o| o.result.is_err()).count()),
    );
    put(
        "ops_shed",
        json!(run
            .ops
            .iter()
            .filter(|o| o.result == Err(Failure::Shed))
            .count()),
    );
    put("ops_per_shard", json!(ops_per_shard));
    put("latency_samples", json!(samples.len()));
    let beyond = |q: f64| samples.iter().filter(|&&v| v > q).count();
    put(
        "latency_samples_beyond_p95",
        json!(beyond(quantile(&samples, 0.95))),
    );
    put("latency_samples_beyond_p99", json!(beyond(p99)));
    put("latency_p90_ms", json!(quantile(&samples, 0.90)));
    if let Some(p99) = supported_p99(&samples) {
        put("latency_p99_ms", json!(p99));
    }
    put("repeats.setup_s", repeats(setup_s));
    put("repeats.setup.prepare_s", repeats(prepare_s));
    put("tokens_per_slice", json!(cols));
    put("slices.tokens_per_s", repeats(&rate[..rate.len() - 1]));
    put("slices.cpu_ms_per_token", repeats(&cpu[..cpu.len() - 1]));
    put("slices.latency_p50_ms", repeats(&slice_p50));
    if args.workload == Workload::Mixed {
        let late = sorted(run.lateness_us.clone());
        put("generator_lateness_samples", json!(late.len()));
        put("generator_lateness_p50_us", json!(quantile(&late, 0.5)));
        put("generator_lateness_p99_us", json!(quantile(&late, 0.99)));
        put(
            "generator_lateness_max_us",
            json!(late.last().copied().unwrap_or(0.0)),
        );
    }
    meta
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(ctx: &Ctx, setup_s: &[f64]) -> Map<String, Value> {
    let samples = ctx.latencies_ms(None);
    let (_, rate, cpu) = slice_rates(ctx.run);
    let mut m = Map::new();
    m.insert("setup_s".into(), metric(median(setup_s), "s"));
    m.insert(
        "tokens_per_s".into(),
        metric(*rate.last().expect("window rate"), "1/s"),
    );
    m.insert(
        "latency_p50_ms".into(),
        metric(quantile(&samples, 0.5), "ms"),
    );
    // The tail is p95: at this run length a prefill window holds a few
    // hundred samples, too few for ten beyond a p99. The metadata carries
    // the p99 wherever the sample supports it.
    m.insert(
        "latency_p95_ms".into(),
        metric(quantile(&samples, 0.95), "ms"),
    );
    m.insert(
        "cpu_ms_per_token".into(),
        metric(*cpu.last().expect("window cpu"), "ms"),
    );
    m.insert("peak_rss_mb".into(), metric(peak_rss_mb(), "MiB"));
    m
}

/// Exact AQS work per token and sub-layer, computed twice and compared
/// with an earlier run of the same workload and seed when one exists.
/// Returns the metrics and whether every comparison held.
fn kernel_counts(ctx: &Ctx, meta: &mut Map<String, Value>) -> (BTreeMap<String, f64>, bool) {
    let args = ctx.args;
    let first = trace::kernel_counts(args.workload, ctx.models, ctx.inputs, ctx.schedule);
    let again = trace::kernel_counts(args.workload, ctx.models, ctx.inputs, ctx.schedule);
    let mut ok = first == again;
    let (per_sub, tokens) = &first;
    let mut counts = Map::new();
    counts.insert("tokens".to_string(), json!(*tokens));
    for (sub, c) in SUBS.iter().zip(per_sub) {
        counts.insert(sub.to_string(), json!(c.to_vec()));
    }
    let counts = Value::Object(counts);
    let path = Path::new(OUT_DIR).join(format!(
        "counts-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    if let Ok(previous) = std::fs::read_to_string(&path) {
        let same = serde_json::from_str(&previous).is_ok_and(|p: Value| p == counts);
        ok &= same;
        meta.insert("kernel_counts_match_previous_run".into(), json!(same));
    }
    let _ = std::fs::create_dir_all(OUT_DIR);
    let _ = std::fs::write(
        &path,
        serde_json::to_string(&counts).expect("counts serialize"),
    );
    meta.insert("kernel_counts".into(), counts);
    meta.insert("kernel_counts_repeat".into(), json!(first == again));
    let mut m = BTreeMap::new();
    for (sub, c) in SUBS.iter().zip(per_sub) {
        for (name, v) in ["mul", "ema_slices", "comp_add"].iter().zip(c) {
            m.insert(
                format!("core.{name}_per_token.{sub}"),
                *v as f64 / *tokens as f64,
            );
        }
    }
    (m, ok)
}

/// The per-layer metrics of a traced run: wire-level figures from the
/// window, layer timings from the replay, exact kernel counts. Returns
/// the metrics, the replay's mismatches and whether the counts held.
fn per_layer(
    ctx: &Ctx,
    session_stats: &[SessionStats],
    prepare_s: &[f64],
    meta: &mut Map<String, Value>,
) -> (Map<String, Value>, usize, bool) {
    let (args, run) = (ctx.args, ctx.run);
    let in_window = ctx.in_window();
    let answered: Vec<&&Op> = in_window
        .iter()
        .filter(|o| o.is_latency_sample() && o.result.is_ok())
        .collect();
    let transport = sorted(
        answered
            .iter()
            .map(|o| (o.client_us() - o.server_us).max(0.0))
            .collect(),
    );
    let server = sorted(answered.iter().map(|o| o.server_us).collect());
    let infers = in_window.iter().filter(|o| o.kind == Kind::Infer).count();
    let hits = in_window
        .iter()
        .filter(|o| o.kind == Kind::Infer && o.cache_hit)
        .count();
    let sheds = in_window
        .iter()
        .filter(|o| o.result == Err(Failure::Shed))
        .count();
    let (steps, batches) = session_stats
        .iter()
        .fold((0, 0), |(s, b), st| (s + st.steps, b + st.decode_batches));
    let (cols, _, _) = slice_rates(run);
    let rate_of = |traced: bool| {
        let picked: Vec<usize> = (0..run.window.slices())
            .filter(|&i| run.window.traced[i] == traced)
            .collect();
        picked.iter().map(|&i| cols[i]).sum::<f64>()
            / picked.iter().map(|&i| run.window.slice_s(i)).sum::<f64>()
    };
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    let budget = Duration::from_secs_f64((args.seconds / 2.0).max(2.0));
    let replay = trace::replay(
        args.workload,
        ctx.models,
        ctx.sizing,
        ctx.inputs,
        ctx.schedule,
        &run.ops,
        budget,
    );
    let mut m = trace::layer_metrics(&replay.spans);
    m.insert("netcore.transport_p50_us".into(), quantile(&transport, 0.5));
    m.insert(
        "netcore.transport_p99_us".into(),
        quantile(&transport, 0.99),
    );
    m.insert("gateway.server_p50_us".into(), quantile(&server, 0.5));
    m.insert("gateway.cache_hit_frac".into(), ratio(hits, infers));
    m.insert("gateway.shed_frac".into(), ratio(sheds, in_window.len()));
    m.insert(
        "serve.decode_batch_width".into(),
        ratio(steps as usize, batches as usize),
    );
    m.insert("setup.prepare_s".into(), median(prepare_s));
    m.insert(
        "trace.overhead_frac".into(),
        1.0 - rate_of(true) / rate_of(false),
    );
    let (counts, counts_ok) = kernel_counts(ctx, meta);
    m.extend(counts);

    meta.insert("replayed_requests".into(), json!(replay.requests));
    meta.insert(
        "layer_self_us".into(),
        Value::Object(
            replay
                .spans
                .layer_self_us()
                .into_iter()
                .map(|(k, v)| (k, json!(v)))
                .collect(),
        ),
    );
    meta.insert("transport_samples".into(), json!(transport.len()));
    meta.insert(
        "transport_p99_supported".into(),
        json!(supported_p99(&transport).is_some()),
    );
    let _ = std::fs::create_dir_all(OUT_DIR);
    let _ = std::fs::write(
        Path::new(OUT_DIR).join(format!(
            "{}-seed{}.spans.jsonl",
            args.workload.name(),
            args.seed
        )),
        replay.spans.to_jsonl(),
    );

    let metrics = m
        .into_iter()
        .map(|(name, value)| {
            let unit = if name.ends_with("_us") || name.contains("_us.") {
                "us"
            } else if name.ends_with("_s") {
                "s"
            } else if name.ends_with("_frac") {
                "ratio"
            } else if name.contains("_per_token.") {
                "count"
            } else {
                "cols"
            };
            (name, metric(value, unit))
        })
        .collect();
    (metrics, replay.mismatched, counts_ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload decode|prefill|mixed --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let sizing = Sizing::for_machine();

    // Each set-up but the last is torn down before the next begins.
    let (mut setup_s, mut prepare_s) = (Vec::new(), Vec::new());
    let mut setup = set_up(&sizing);
    for _ in 1..SETUP_REPEATS {
        setup_s.push(setup.total_s);
        prepare_s.push(setup.prepare_s);
        drop(setup);
        setup = set_up(&sizing);
    }
    setup_s.push(setup.total_s);
    prepare_s.push(setup.prepare_s);

    let inputs = Inputs::new(args.seed);
    let horizon = WARMUP + Duration::from_secs_f64(args.seconds + 1.0);
    let schedule =
        (args.workload == Workload::Mixed).then(|| inputs.mixed_schedule(&setup.models, horizon));
    let traffic = match (args.workload, &schedule) {
        (Workload::Mixed, Some(s)) => Traffic::Mixed(s),
        (Workload::Prefill, _) => Traffic::Prefill(&inputs),
        _ => Traffic::Decode(&inputs),
    };
    let slices = if args.trace { TRACED_SLICES } else { SLICES };
    let run = load::run(
        traffic,
        setup.server.local_addr(),
        sizing.connections,
        args.seconds,
        slices,
        args.trace,
    );

    let gateway = std::sync::Arc::clone(setup.server.gateway());
    let session_stats: Vec<SessionStats> = (0..gateway.router().num_shards())
        .map(|s| gateway.sessions(s).stats())
        .collect();
    let chain_shards: Vec<usize> = CHAIN_MODELS
        .iter()
        .map(|m| gateway.router().route(m))
        .collect();
    drop(gateway);
    // The oracles below get the cores to themselves.
    setup.server.shutdown();

    let ctx = Ctx {
        args: &args,
        sizing: &sizing,
        models: &setup.models,
        inputs: &inputs,
        schedule: schedule.as_ref(),
        run: &run,
    };
    let mut meta = metadata(&ctx, &setup_s, &prepare_s, &chain_shards);
    let mut mismatched = verify::mismatches(
        args.workload,
        ctx.models,
        &inputs,
        ctx.schedule,
        &run.ops,
        sizing.nproc,
    );
    let (metrics, counts_ok) = if args.trace {
        let (m, replay_mismatched, counts_ok) =
            per_layer(&ctx, &session_stats, &prepare_s, &mut meta);
        mismatched += replay_mismatched;
        (m, counts_ok)
    } else {
        (end_to_end(&ctx, &setup_s), true)
    };
    meta.insert("ops_mismatched".into(), json!(mismatched));
    meta.insert("kernel_counts_ok".into(), json!(counts_ok));

    let failed = run.ops.iter().filter(|o| o.result.is_err()).count();
    let correct = mismatched == 0 && failed == 0 && counts_ok;
    let meta_line = serde_json::to_string(&Value::Object(meta)).expect("metadata serializes");
    let _ = std::fs::create_dir_all(OUT_DIR);
    let _ = std::fs::write(
        Path::new(OUT_DIR).join(format!(
            "{}-seed{}-trace{}.json",
            args.workload.name(),
            args.seed,
            u8::from(args.trace)
        )),
        &meta_line,
    );
    let result = json!({
        "correct": correct,
        "attempted": run.ops.len(),
        "failed": failed + mismatched,
        "metrics": Value::Object(metrics),
    });
    println!("{meta_line}");
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
