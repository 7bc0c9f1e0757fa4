//! Gateway load harness: mixed infer/decode traffic over real TCP,
//! machine-readable.
//!
//! Drives a live [`GatewayServer`] with concurrent clients at several
//! concurrency levels — half the clients hammer the stateless `infer`
//! verb on a linear-chain model, the other half run KV-cached decode
//! sessions on a transformer-block model — and records **client-side**
//! request latencies. Each level then cross-checks the server's own
//! windowed dimensional metrics (the `metrics` verb's
//! `(model, verb, stage)` summaries) against what the clients observed,
//! and asserts the `health` verb reports `ok` under this nominal load.
//!
//! A final overload phase points a synchronized burst at a gateway with
//! two admission permits and a zero-tolerance shed SLO, and asserts the
//! sheds are counted by reason on the wire and flip the health verdict
//! off `ok` — the failure path is exercised, not assumed.
//!
//! With `--export`, an extra phase runs the metric exporters under
//! load: a scraper thread polls the gateway's Prometheus text
//! exposition and JSONL metric line every 50ms while decode traffic
//! flows, writes the artifacts (`BENCH_gateway_metrics.prom`,
//! `BENCH_gateway_metrics.jsonl`), validates both formats, and A/B
//! gates the scraper's overhead on decode throughput.
//!
//! With `--c10k`, hundreds of mostly-idle decode sessions are held open
//! on one server: its thread count must stay O(workers), and the active
//! load's infer p99 with them open must stay within the gate of its p99
//! on the same server before they existed.
//!
//! With `--chaos`, a fault-injection phase arms a scripted `faultline`
//! plan — panics in the runtime workers, the decode batcher, and the
//! transport layer, plus stalls and connection faults — and drives
//! mixed deadline-stamped traffic through it. The gates prove the
//! degradation story end to end: no client call outlives its retry/
//! deadline budget, every non-faulted reply is bit-exact, the panics
//! land in the stats counters and the flight recorder, health flips
//! off `ok` and pins an incident snapshot, and once the plan disarms
//! the same gateway serves bit-exact traffic and health returns to
//! `ok`.
//!
//! Results go to `BENCH_gateway.json` so the serving-latency trajectory
//! is tracked across PRs. Set `GATEWAY_BENCH_SMOKE=1` to run a reduced
//! matrix (CI uses this; the gates are identical).
//!
//! Run with: `cargo run --release -p panacea-bench --bin gateway_bench`

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use panacea_faultline::{Fault, FaultPlan, Scenario};
use panacea_gateway::testutil::{block_model, hidden, models};
use panacea_gateway::{
    AdmissionConfig, CacheConfig, ClientConfig, ErrorKind, Gateway, GatewayClient, GatewayConfig,
    GatewayError, GatewayServer, ServerConfig, SloConfig, SloStatus, SloTarget,
};
use panacea_serve::{BatchPolicy, RuntimeConfig};
use serde_json::{json, Value};

const CHAIN_MODEL: &str = "chain";
const BLOCK_MODEL: &str = "block";
const BLOCK_D_MODEL: usize = 16;

/// Server-vs-client p99 agreement gates. The server measures verb time
/// inside the gateway (after request decode, before response encode),
/// so it must sit below the client's full round trip — but above a
/// floor, or the windowed histograms are not measuring the same
/// requests the clients sent. The upper gate gets a constant slack on
/// top of the ratio: histogram buckets round up (≤1/32 relative) and
/// both sides' p99 sits on different single samples.
const P99_UPPER_RATIO: f64 = 1.10;
const P99_UPPER_SLACK_US: f64 = 1_000.0;
const P99_LOWER_RATIO: f64 = 0.02;

/// Exporter overhead gate: with a scraper polling both exposition
/// formats every [`SCRAPE_EVERY`], best-of decode throughput must stay
/// within this fraction of the unscraped baseline. Arms interleave and
/// compare best-of so scheduler noise hits both sides equally. The
/// cadence is still ~20x faster than a production scrape interval, but
/// slow enough that rendering a ~200KB exposition on a single core
/// does not itself dominate the measurement window.
const MAX_EXPORT_OVERHEAD: f64 = 0.03;
const SCRAPE_EVERY: Duration = Duration::from_millis(100);

fn smoke() -> bool {
    std::env::var("GATEWAY_BENCH_SMOKE").is_ok()
}

/// Exact client-side quantile: sorted nearest-rank, no bucketing.
fn quantile_us(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn nominal_gateway() -> Arc<Gateway> {
    let mut all = models(&[CHAIN_MODEL], 21);
    all.push(block_model(BLOCK_MODEL, 22).0);
    Arc::new(Gateway::new(all, GatewayConfig::default()))
}

struct LevelOutcome {
    infer_us: Vec<f64>,
    decode_us: Vec<f64>,
    decode_tokens: usize,
    elapsed: Duration,
}

/// One load trial: `clients` concurrent connections, split between
/// stateless infer traffic and decode sessions, all latencies measured
/// client-side. Payloads are salted per request so the request cache
/// never short-circuits the serving path; `salt` (below 200) shifts the
/// infer payloads' first row, so trials repeated against one server
/// never replay each other's cached answers.
fn run_level(
    addr: std::net::SocketAddr,
    clients: usize,
    requests: usize,
    salt: usize,
) -> LevelOutcome {
    let barrier = Arc::new(Barrier::new(clients));
    let mut threads = Vec::new();
    let started = Instant::now();
    for t in 0..clients {
        let barrier = Arc::clone(&barrier);
        threads.push(thread::spawn(move || {
            let mut client = GatewayClient::connect(addr).expect("connect");
            let mut latencies = Vec::with_capacity(requests);
            barrier.wait();
            if t % 2 == 0 {
                // Infer client: unique codes per request (no cache hits).
                for i in 0..requests {
                    let x = panacea_tensor::Matrix::from_fn(16, 1, |r, _| {
                        let shift = if r == 0 { salt } else { 0 };
                        ((r * 31 + (t * 10_000 + i) * 13 + shift) % 200) as i32
                    });
                    let begun = Instant::now();
                    client.infer_codes(CHAIN_MODEL, x).expect("infer served");
                    latencies.push(begun.elapsed().as_secs_f64() * 1e6);
                }
                (latencies, Vec::new(), 0usize)
            } else {
                // Decode client: one session, `requests` single-token
                // steps against live KV state.
                let open = client.session_open(BLOCK_MODEL).expect("session open");
                for i in 0..requests {
                    let token = hidden(BLOCK_D_MODEL, 1, t * 10_000 + i);
                    let begun = Instant::now();
                    client.decode(open.session, token).expect("decode served");
                    latencies.push(begun.elapsed().as_secs_f64() * 1e6);
                }
                client.session_close(open.session).expect("session close");
                (Vec::new(), latencies, requests)
            }
        }));
    }
    let mut infer_us = Vec::new();
    let mut decode_us = Vec::new();
    let mut decode_tokens = 0usize;
    for th in threads {
        let (inf, dec, toks) = th.join().expect("client thread");
        infer_us.extend(inf);
        decode_us.extend(dec);
        decode_tokens += toks;
    }
    let elapsed = started.elapsed();
    infer_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    decode_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    LevelOutcome {
        infer_us,
        decode_us,
        decode_tokens,
        elapsed,
    }
}

/// The overload phase: two permits, a lingering batcher, no cache, and
/// an SLO that tolerates almost no shedding. A synchronized burst must
/// produce per-reason shed counts on the wire and a non-`ok` health
/// verdict.
fn run_overload(burst: usize) -> (u64, u64, f64, String) {
    let gateway = Arc::new(Gateway::new(
        models(&[CHAIN_MODEL], 23),
        GatewayConfig {
            shards: 1,
            runtime: RuntimeConfig {
                workers: 1,
                policy: BatchPolicy {
                    max_batch: 4096,
                    max_wait: Duration::from_millis(150),
                },
            },
            cache: CacheConfig {
                capacity: 0,
                shards: 1,
                ..CacheConfig::default()
            },
            admission: AdmissionConfig {
                max_in_flight: 2,
                max_queue_wait: Duration::from_secs(10),
            },
            slo: SloConfig {
                targets: vec![SloTarget {
                    max_shed_rate: Some(0.05),
                    ..SloTarget::over("availability", Duration::from_secs(10))
                }],
            },
            ..GatewayConfig::default()
        },
    ));
    let mut server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let barrier = Arc::new(Barrier::new(burst));
    let mut threads = Vec::new();
    for t in 0..burst {
        let barrier = Arc::clone(&barrier);
        threads.push(thread::spawn(move || {
            let mut client = GatewayClient::connect(addr).expect("connect");
            let x = panacea_tensor::Matrix::from_fn(16, 1, |r, _| ((r * 31 + t * 13) % 200) as i32);
            barrier.wait();
            match client.infer_codes(CHAIN_MODEL, x) {
                Ok(_) => false,
                Err(e) => {
                    assert!(e.is_overloaded(), "unexpected overload-phase failure: {e}");
                    true
                }
            }
        }));
    }
    let rejected = threads
        .into_iter()
        .map(|th| th.join().expect("burst thread"))
        .filter(|&r| r)
        .count() as u64;

    let mut client = GatewayClient::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    let health = client.health().expect("health");
    let shed_rate = health
        .targets
        .first()
        .map(|t| t.shed_rate)
        .unwrap_or_default();
    let status = health.status.as_str().to_string();

    assert_eq!(
        stats.sheds.in_flight, rejected,
        "per-reason shed counter disagrees with client-observed rejections"
    );
    assert!(
        rejected > 0,
        "{burst}-way burst over 2 permits shed nothing — overload path untested"
    );
    assert!(
        health.status != SloStatus::Ok,
        "health stayed ok through {rejected} sheds (shed rate {shed_rate:.3})"
    );
    server.shutdown();
    (rejected, stats.sheds.total(), shed_rate, status)
}

/// The `--export` phase: one continuous decode load with the scraper
/// toggled in alternating [`SCRAPE_EVERY`] periods. Scraped periods
/// poll both exposition formats once (so the scrape cadence matches
/// [`SCRAPE_EVERY`]); unscraped periods just let the load run. Tokens
/// are counted per period through a shared counter, and the overhead
/// gate compares scraped vs unscraped rates by the median ratio over
/// adjacent period pairs, remeasuring a failed pass a bounded number
/// of times before failing. Fine-grained interleaving inside a single
/// load cancels the slow scheduling drift that dominates arm-level
/// comparisons on a small box.
fn run_export(smoke: bool) -> Value {
    // Full measured periods (half scraped) after one unrecorded warmup
    // pair; must be a multiple of 4 for the ABBA schedule below.
    let periods = if smoke { 48 } else { 64 };
    // One in-process loader: the A/B isolates the exporter's cost, so
    // the load drives [`Gateway::decode`] directly and sequentially —
    // concurrent TCP clients (the wire phases above) carry scheduler
    // noise an order of magnitude larger than the effect being gated,
    // while a single driver's tokens/s is a stable baseline the
    // scraper's cost shows up against.
    let loaders = 1;

    let gateway = nominal_gateway();

    let stop = Arc::new(AtomicBool::new(false));
    let tokens = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(loaders + 1));
    let mut threads = Vec::new();
    for t in 0..loaders {
        let stop = Arc::clone(&stop);
        let tokens = Arc::clone(&tokens);
        let barrier = Arc::clone(&barrier);
        let gw = Arc::clone(&gateway);
        threads.push(thread::spawn(move || {
            // Full-width chunks execute inline on this thread (no
            // cross-thread handoff), so the baseline tokens/s is CPU
            // time, not condvar wake latency — every millisecond the
            // scraper burns shows up against it directly.
            const CHUNK: usize = 32;
            let mut open = gw.session_open(BLOCK_MODEL).expect("session open");
            barrier.wait();
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                // Bounded sessions: per-step cost grows with the KV
                // prefix, so unbounded sessions would put a steady
                // downward drift under the A/B measurement.
                if i > 0 && i.is_multiple_of(8) {
                    gw.session_close(open.session).expect("session close");
                    open = gw.session_open(BLOCK_MODEL).expect("session open");
                }
                let chunk = hidden(BLOCK_D_MODEL, CHUNK, t * 1_000_000 + i);
                gw.decode(open.session, &chunk).expect("decode served");
                tokens.fetch_add(CHUNK as u64, Ordering::Relaxed);
                i += 1;
            }
            gw.session_close(open.session).expect("session close");
        }));
    }
    barrier.wait();

    // A/B measurement against the running load. One pass cannot always
    // resolve a 3% effect on a shared box — the period-scale scheduler
    // noise floor is itself a few percent — so an over-limit median is
    // remeasured (fresh periods, same load) up to [`MAX_ATTEMPTS`]
    // times. Only a cost the box reproduces every time fails the gate.
    const MAX_ATTEMPTS: usize = 3;
    let mut jsonl_lines: Vec<String> = Vec::new();
    let mut scrape_busy = Duration::ZERO;
    let mut attempts = 0usize;
    let (mut median_ratio, mut pairs, mut rate_off, mut rate_on);
    loop {
        attempts += 1;
        let mut period_rates: Vec<(bool, f64)> = Vec::new();
        for p in 0..periods + 2 {
            // ABBA schedule (off,on,on,off repeating): any residual
            // linear rate drift contributes equally to both sides and
            // cancels.
            let scraped = matches!(p % 4, 1 | 2);
            let begun = Instant::now();
            let start_tokens = tokens.load(Ordering::Relaxed);
            if scraped {
                let t = Instant::now();
                let _exposition = gateway.prometheus();
                jsonl_lines.push(gateway.metrics_jsonl());
                scrape_busy += t.elapsed();
            }
            let spent = begun.elapsed();
            if spent < SCRAPE_EVERY {
                thread::sleep(SCRAPE_EVERY - spent);
            }
            let got = tokens.load(Ordering::Relaxed) - start_tokens;
            if p >= 2 {
                // The first pair warms caches and session state
                // unrecorded.
                period_rates.push((scraped, got as f64 / begun.elapsed().as_secs_f64()));
            }
        }

        // Each adjacent period pair holds one scraped and one unscraped
        // period (the ABBA schedule guarantees it) and shares whatever
        // transient machine state it ran under, so its scraped/
        // unscraped ratio isolates the exporter from that transient.
        // The median over pairs then rejects the occasional period
        // eaten by a scheduler stall, which would dominate any mean-
        // or best-based comparison.
        let mut ratios: Vec<f64> = period_rates
            .chunks_exact(2)
            .map(|pair| {
                let (on, off) = if pair[0].0 {
                    (pair[0].1, pair[1].1)
                } else {
                    (pair[1].1, pair[0].1)
                };
                on / off
            })
            .collect();
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        median_ratio = (ratios[ratios.len() / 2 - 1] + ratios[ratios.len() / 2]) / 2.0;
        pairs = ratios.len();
        let rate = |want: bool| {
            let picked: Vec<f64> = period_rates
                .iter()
                .filter(|(s, _)| *s == want)
                .map(|(_, r)| r)
                .copied()
                .collect();
            picked.iter().sum::<f64>() / picked.len() as f64
        };
        (rate_off, rate_on) = (rate(false), rate(true));
        if median_ratio >= 1.0 - MAX_EXPORT_OVERHEAD || attempts == MAX_ATTEMPTS {
            break;
        }
        println!(
            "export: attempt {attempts} median overhead {:.3} over limit — remeasuring",
            1.0 - median_ratio
        );
    }
    stop.store(true, Ordering::Relaxed);
    for th in threads {
        th.join().expect("decode client");
    }
    let exposition = gateway.prometheus();

    // The exposition carries the dims the load just exercised plus the
    // per-layer stage histograms, in the standard text format.
    let model_label = format!("model=\"{BLOCK_MODEL}\"");
    for needle in [
        "# TYPE panacea_dim_latency_ns histogram",
        "# TYPE panacea_dim_outcomes_total counter",
        "panacea_dim_latency_ns_bucket{",
        "le=\"+Inf\"",
        model_label.as_str(),
        "stage=\"step\"",
        "outcome=\"ok\"",
        "panacea_stage_duration_ns_bucket{scope=\"gateway\",stage=\"execute\"",
        "scope=\"block\"",
        "panacea_events_total",
    ] {
        assert!(
            exposition.contains(needle),
            "Prometheus exposition missing {needle:?}"
        );
    }

    // Every JSONL line must be one valid JSON object with a wall-clock
    // anchor and the per-dim quantiles.
    assert!(
        !jsonl_lines.is_empty(),
        "scraper collected no JSONL metric lines"
    );
    for line in &jsonl_lines {
        assert!(!line.contains('\n'), "JSONL metric line spans lines");
        let v: Value = serde_json::from_str(line).expect("JSONL metric line parses");
        assert!(
            v.get("unix_ms").and_then(Value::as_u64).unwrap_or(0) > 0,
            "JSONL metric line lacks a unix_ms anchor: {line}"
        );
        assert!(
            v.get("dims").and_then(Value::as_array).is_some(),
            "JSONL metric line lacks a dims array: {line}"
        );
    }

    std::fs::write("BENCH_gateway_metrics.prom", &exposition)
        .expect("write BENCH_gateway_metrics.prom");
    let mut jsonl = jsonl_lines.join("\n");
    jsonl.push('\n');
    std::fs::write("BENCH_gateway_metrics.jsonl", &jsonl)
        .expect("write BENCH_gateway_metrics.jsonl");

    let overhead = 1.0 - median_ratio;
    let per_scrape_ms = scrape_busy.as_secs_f64() * 1e3 / (jsonl_lines.len().max(1) as f64);
    println!(
        "export: {} JSONL scrapes ({per_scrape_ms:.2}ms each), exposition {} bytes, \
         decode {rate_off:.1} tok/s unscraped vs {rate_on:.1} tok/s scraped \
         (median pair overhead {overhead:.3}) ✓",
        jsonl_lines.len(),
        exposition.len()
    );
    assert!(
        median_ratio >= 1.0 - MAX_EXPORT_OVERHEAD,
        "exporter overhead gate: scraping cost {overhead:.3} of decode throughput \
         (median over {pairs} period pairs, worst of {attempts} attempts, \
         limit {MAX_EXPORT_OVERHEAD})"
    );
    json!({
        "periods": periods,
        "scrape_every_ms": SCRAPE_EVERY.as_millis() as u64,
        "jsonl_lines": jsonl_lines.len(),
        "exposition_bytes": exposition.len(),
        "decode_tokens_per_s_unscraped": rate_off,
        "decode_tokens_per_s_scraped": rate_on,
        "overhead": overhead,
        "attempts": attempts,
    })
}

/// C10K gates. The reactor's whole point is that thread count stays
/// O(workers) while connections scale, and that an idle mass of
/// connections does not tax the active ones — so the server-side thread
/// growth under hundreds of idle sessions is a hard bound, and the
/// active infer p99 with the idle mass held open is gated against the
/// same server's p99 before it existed. Best-of-3 per side plus a small
/// absolute slack absorbs single-core scheduler noise on samples this
/// small without hiding a real regression.
const C10K_MAX_IO_THREAD_FACTOR: usize = 2;
const C10K_P99_RATIO: f64 = 1.15;
const C10K_P99_SLACK_US: f64 = 2_000.0;
const C10K_TRIALS: usize = 3;

/// Thread count of this process from `/proc/self/status`. The bench
/// opens its idle sessions from the main thread, so any growth between
/// two readings is server-side spawning.
fn proc_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .expect("read Threads: from /proc/self/status")
}

/// Open file descriptors of this process (`/proc/self/fd` entry count).
fn proc_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .map(|d| d.count())
        .expect("read /proc/self/fd")
}

/// `C10K_TRIALS` active-load trials against one server, salted from
/// `salt` up. Returns the best trial's infer p99 (µs) and every trial's
/// infer and decode latencies pooled and sorted.
fn active_trials(
    addr: std::net::SocketAddr,
    clients: usize,
    requests: usize,
    salt: usize,
) -> (f64, Vec<f64>, Vec<f64>) {
    let mut best_p99 = f64::INFINITY;
    let (mut infer_us, mut decode_us) = (Vec::new(), Vec::new());
    for trial in 0..C10K_TRIALS {
        let out = run_level(addr, clients, requests, salt + trial);
        best_p99 = best_p99.min(quantile_us(&out.infer_us, 0.99));
        infer_us.extend(out.infer_us);
        decode_us.extend(out.decode_us);
    }
    infer_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    decode_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    (best_p99, infer_us, decode_us)
}

/// The `--c10k` phase: hold hundreds of mostly-idle decode sessions
/// open on one server while a mixed infer/decode load runs through it,
/// and prove the resource story — file descriptors scale with
/// connections, threads do not — and the latency story: the active
/// load's infer p99 with the idle mass open stays within the gate of
/// its p99 on the same server before any idle session existed.
fn run_c10k(smoke: bool) -> Value {
    let sessions = if smoke { 160 } else { 512 };
    let active_clients = 8;
    let active_requests = if smoke { 8 } else { 30 };
    let nofile = sys_poll::raise_nofile_limit().expect("raise RLIMIT_NOFILE");
    assert!(
        nofile as usize > 2 * sessions + 64,
        "nofile limit {nofile} too low for {sessions} sessions"
    );

    let gateway = nominal_gateway();
    let workers = ServerConfig::default().reactor_workers;
    let threads_before = proc_threads();
    let fds_before = proc_fds();
    let mut server = GatewayServer::bind_with(
        Arc::clone(&gateway),
        "127.0.0.1:0",
        ServerConfig {
            max_connections: sessions + 64,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    // The baseline: the active load on this server before any idle
    // session exists.
    let (pre_idle_p99, _, _) = active_trials(addr, active_clients, active_requests, 1);

    // Mostly-idle sessions: each one connects, opens a KV session,
    // decodes a single token, then sits idle for the rest of the phase
    // — the long-lived-client shape the reactor exists for. Opened
    // sequentially from this thread, so the thread-count delta below
    // is the server's alone.
    let mut idle = Vec::with_capacity(sessions);
    for i in 0..sessions {
        let mut client = GatewayClient::connect(addr).expect("connect idle session");
        let open = client.session_open(BLOCK_MODEL).expect("session open");
        client
            .decode(open.session, hidden(BLOCK_D_MODEL, 1, 7_000_000 + i))
            .expect("first decode step");
        idle.push((client, open.session));
    }
    let threads_idle = proc_threads();
    let fds_idle = proc_fds();
    let io_threads = threads_idle.saturating_sub(threads_before);
    assert!(
        io_threads <= C10K_MAX_IO_THREAD_FACTOR * workers,
        "{sessions} idle connections grew {io_threads} server threads \
         (gate {C10K_MAX_IO_THREAD_FACTOR}x {workers} workers) — \
         thread count is scaling with connections"
    );
    assert!(
        fds_idle - fds_before >= 2 * sessions,
        "fd count grew only {} for {sessions} loopback sessions",
        fds_idle - fds_before
    );

    let mut probe = GatewayClient::connect(addr).expect("connect probe");
    let stats = probe.stats().expect("stats");
    assert!(
        stats.connections.open as usize > sessions,
        "gateway reports {} open connections with {sessions} sessions held",
        stats.connections.open
    );
    assert_eq!(
        stats.connections.evicted, 0,
        "idle sessions were evicted under no pressure"
    );

    // The same active load riding on top of the idle mass: the reactor
    // is polling ~all those registered fds every iteration while these
    // clients need answers.
    let (idle_p99, active_infer, active_decode) =
        active_trials(addr, active_clients, active_requests, 1 + C10K_TRIALS);
    let ratio = idle_p99 / pre_idle_p99;
    println!(
        "c10k idle tax: active infer p99 {pre_idle_p99:.1}µs before the idle mass, \
         {idle_p99:.1}µs with it, ratio {ratio:.3}"
    );
    assert!(
        idle_p99 <= pre_idle_p99 * C10K_P99_RATIO + C10K_P99_SLACK_US,
        "active infer p99 {idle_p99:.1}µs with {sessions} idle sessions open regressed \
         past {pre_idle_p99:.1}µs without them \
         (gate {C10K_P99_RATIO}x + {C10K_P99_SLACK_US}µs)"
    );

    let stats_after = probe.stats().expect("stats after active load");
    assert_eq!(
        stats_after.sheds.total(),
        0,
        "active load shed requests under the idle-session mass"
    );
    // Every idle session still answers after the storm.
    for (client, session) in &mut idle {
        client
            .decode(*session, hidden(BLOCK_D_MODEL, 1, 8_000_000))
            .expect("idle session still serves after active load");
    }
    for (mut client, session) in idle {
        client.session_close(session).expect("session close");
    }
    drop(probe);
    server.shutdown();
    let active_infer_p99 = quantile_us(&active_infer, 0.99);
    let active_decode_p99 = quantile_us(&active_decode, 0.99);
    println!(
        "c10k: {sessions} idle sessions on {io_threads} server threads \
         ({} fds), active p99 infer {active_infer_p99:.1}µs / \
         decode {active_decode_p99:.1}µs ✓",
        fds_idle - fds_before
    );
    println!("c10k gates: threads O(workers), idle mass within {C10K_P99_RATIO}x active p99 ✓");

    json!({
        "sessions": sessions,
        "nofile_limit": nofile,
        "reactor_workers": workers,
        "server_io_threads": io_threads,
        "fds_added": fds_idle - fds_before,
        "open_connections": stats.connections.open,
        "peak_connections": stats_after.connections.peak,
        "evicted_connections": stats_after.connections.evicted,
        "active_infer_p50_us": quantile_us(&active_infer, 0.50),
        "active_infer_p99_us": active_infer_p99,
        "active_decode_p50_us": quantile_us(&active_decode, 0.50),
        "active_decode_p99_us": active_decode_p99,
        "idle_tax": json!({
            "pre_idle_infer_p99_us": pre_idle_p99,
            "idle_infer_p99_us": idle_p99,
            "ratio": ratio,
        }),
    })
}

/// Chaos-phase budget: every chaos client stamps this deadline on its
/// requests and retries idempotent verbs this many times. The no-hang
/// gate bounds each observed call by the worst case a deadline-bounded
/// retrying client can legitimately take — `(retries + 1)` attempts of
/// `deadline` plus the client's 1s local read-timeout slack — plus a
/// margin for backoff sleeps and scheduling.
const CHAOS_DEADLINE: Duration = Duration::from_millis(800);
const CHAOS_RETRIES: u32 = 3;
const CHAOS_BACKOFF: Duration = Duration::from_millis(10);
const CHAOS_DEADLINE_SLACK: Duration = Duration::from_secs(1);
/// Error-rate SLO window for the chaos gateway: long enough that the
/// whole storm's errors are still inside it when health is probed at
/// the end, short enough that recovery does not stall the bench.
const CHAOS_SLO_WINDOW: Duration = Duration::from_secs(5);

/// Per-thread tallies from one chaos client.
#[derive(Default)]
struct ChaosOutcome {
    ok: usize,
    faulted: usize,
    deadline_exceeded: usize,
    reopened: usize,
    max_call: Duration,
}

impl ChaosOutcome {
    fn absorb(&mut self, other: &ChaosOutcome) {
        self.ok += other.ok;
        self.faulted += other.faulted;
        self.deadline_exceeded += other.deadline_exceeded;
        self.reopened += other.reopened;
        self.max_call = self.max_call.max(other.max_call);
    }
}

/// Failures a chaos client is expected to absorb: injected faults
/// surface as internal errors, expired deadlines, sheds, evicted
/// sessions, or a killed connection. Anything else is a real bug.
fn chaos_tolerable(e: &GatewayError) -> bool {
    match e {
        GatewayError::Remote { kind, .. } => matches!(
            kind,
            ErrorKind::Internal
                | ErrorKind::DeadlineExceeded
                | ErrorKind::Overloaded
                | ErrorKind::UnknownSession
        ),
        GatewayError::Io(_) | GatewayError::Protocol(_) => true,
        _ => false,
    }
}

fn chaos_client(addr: std::net::SocketAddr, seed: u64) -> GatewayClient {
    GatewayClient::connect_with(
        addr,
        ClientConfig {
            deadline: Some(CHAOS_DEADLINE),
            retries: CHAOS_RETRIES,
            backoff: CHAOS_BACKOFF,
            seed,
        },
    )
    .expect("connect chaos client")
}

/// (Re)opens a decode session, redialing through transport faults. The
/// chaos decode client falls back to this whenever its session may have
/// been evicted — the client-side analogue of replaying the prefix.
fn open_with_retry(client: &mut GatewayClient) -> u64 {
    for _ in 0..40 {
        match client.session_open(BLOCK_MODEL) {
            Ok(open) => return open.session,
            Err(e) => {
                assert!(chaos_tolerable(&e), "chaos session_open failed hard: {e}");
                thread::sleep(Duration::from_millis(25));
                let _ = client.reconnect();
            }
        }
    }
    panic!("chaos decode client could not reopen a session");
}

/// The `--chaos` phase: a scripted fault plan fires at least one panic
/// in each serving layer (runtime worker, decode batcher, transport
/// worker), an error return, stalls straddling the client deadline, and
/// reactor connection faults, all while deadline-stamped infer/decode
/// clients drive load. Gates: no call outlives the retry/deadline
/// budget, every successful reply is bit-exact, the faults land in the
/// wire counters and the flight recorder, health flips off `ok` and
/// pins an incident snapshot, and after disarming the same gateway
/// serves bit-exact traffic with health back at `ok`.
fn run_chaos(smoke: bool) -> Value {
    let clients = 4;
    let requests = if smoke { 24 } else { 48 };
    let scenario = Scenario::new()
        // Layer 1 — runtime workers (stateless infer jobs): two panics
        // plus a sub-deadline stall.
        .fire_within("serve.worker.execute", Fault::Panic, 2, 24)
        .fire_at(
            "serve.worker.execute",
            30,
            Fault::Delay(Duration::from_millis(150)),
        )
        // Layer 2 — decode batcher: fused-pass panics with the solo
        // retry pinned to panic too, so a multi-session pass still
        // convicts (and evicts) a poisoned session.
        .fire_within("serve.decode.fused_pass", Fault::Panic, 2, 16)
        .fire_at("serve.decode.solo_retry", 0, Fault::Panic)
        // Layer 3 — transport: a panic that unwinds out of the request
        // handler entirely (the reactor's dispatch job catches it), an
        // injected error return, and a stall that overruns the client
        // deadline.
        .fire_at("gateway.execute", 2, Fault::Panic)
        .fire_at("gateway.execute", 7, Fault::Error)
        .fire_at(
            "gateway.execute",
            12,
            Fault::Delay(CHAOS_DEADLINE + Duration::from_millis(400)),
        )
        // Connection faults in the reactor's read, write and dispatch.
        .fire_at("netcore.read", 40, Fault::Reset)
        .fire_at("netcore.write", 60, Fault::ShortWrite)
        .fire_within("netcore.dispatch", Fault::Panic, 1, 40);
    let guard = FaultPlan::compile(0xC4A05, &scenario).arm();

    // A gateway whose availability SLO tolerates almost no errors, so
    // the storm provably flips health.
    let mut all = models(&[CHAIN_MODEL], 21);
    all.push(block_model(BLOCK_MODEL, 22).0);
    let gateway = Arc::new(Gateway::new(
        all,
        GatewayConfig {
            slo: SloConfig {
                targets: vec![SloTarget {
                    max_error_rate: Some(0.01),
                    ..SloTarget::over("chaos-availability", CHAOS_SLO_WINDOW)
                }],
            },
            ..GatewayConfig::default()
        },
    ));
    let mut server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let barrier = Arc::new(Barrier::new(clients));
    let mut threads = Vec::new();
    for t in 0..clients {
        let barrier = Arc::clone(&barrier);
        let gw = Arc::clone(&gateway);
        threads.push(thread::spawn(move || {
            let mut out = ChaosOutcome::default();
            let mut client = chaos_client(addr, t as u64);
            barrier.wait();
            if t % 2 == 0 {
                // Infer client: every successful reply — original or
                // retried — must be bit-exact against an in-process
                // forward of the same model.
                let model = gw.router().model(CHAIN_MODEL).expect("registered");
                for i in 0..requests {
                    // The salt stays collision-free across clients mod
                    // 200 (the code range), so no chaos request is ever
                    // answered by the request cache — a cached reply
                    // would dodge the very faults being injected.
                    let x = panacea_tensor::Matrix::from_fn(16, 1, |r, _| {
                        ((r * 31 + (t * 60 + i) * 13) % 200) as i32
                    });
                    let expect = model.forward_codes(&x).0;
                    let begun = Instant::now();
                    match client.infer_codes(CHAIN_MODEL, x) {
                        Ok(reply) => {
                            assert_eq!(
                                reply.payload,
                                expect.into(),
                                "non-faulted infer reply diverged under chaos"
                            );
                            out.ok += 1;
                        }
                        Err(e) => {
                            assert!(chaos_tolerable(&e), "chaos infer failed hard: {e}");
                            if matches!(
                                e,
                                GatewayError::Remote {
                                    kind: ErrorKind::DeadlineExceeded,
                                    ..
                                }
                            ) {
                                out.deadline_exceeded += 1;
                            }
                            if matches!(e, GatewayError::Io(_) | GatewayError::Protocol(_)) {
                                let _ = client.reconnect();
                            }
                            out.faulted += 1;
                        }
                    }
                    out.max_call = out.max_call.max(begun.elapsed());
                }
            } else {
                // Decode client: a poisoned eviction or killed
                // connection mid-stream is survived by reopening a
                // fresh session; deadline/overload rejections leave the
                // session's KV state intact, so it keeps stepping.
                let mut session = open_with_retry(&mut client);
                for i in 0..requests {
                    let token = hidden(BLOCK_D_MODEL, 1, t * 10_000 + i);
                    let begun = Instant::now();
                    match client.decode(session, token) {
                        Ok(_) => out.ok += 1,
                        Err(e) => {
                            assert!(chaos_tolerable(&e), "chaos decode failed hard: {e}");
                            let session_intact = matches!(
                                &e,
                                GatewayError::Remote {
                                    kind: ErrorKind::DeadlineExceeded | ErrorKind::Overloaded,
                                    ..
                                }
                            );
                            if matches!(
                                e,
                                GatewayError::Remote {
                                    kind: ErrorKind::DeadlineExceeded,
                                    ..
                                }
                            ) {
                                out.deadline_exceeded += 1;
                            }
                            if matches!(e, GatewayError::Io(_) | GatewayError::Protocol(_)) {
                                let _ = client.reconnect();
                            }
                            if !session_intact {
                                session = open_with_retry(&mut client);
                                out.reopened += 1;
                            }
                            out.faulted += 1;
                        }
                    }
                    out.max_call = out.max_call.max(begun.elapsed());
                }
                let _ = client.session_close(session);
            }
            out
        }));
    }
    let mut infer = ChaosOutcome::default();
    let mut decode = ChaosOutcome::default();
    for (t, th) in threads.into_iter().enumerate() {
        let out = th.join().expect("chaos client thread");
        if t % 2 == 0 {
            infer.absorb(&out);
        } else {
            decode.absorb(&out);
        }
    }
    drop(guard);

    // Gate: no call outlived the retry/deadline budget — graceful
    // degradation means bounded waits, not hangs.
    let hang_bound =
        (CHAOS_DEADLINE + CHAOS_DEADLINE_SLACK) * (CHAOS_RETRIES + 1) + Duration::from_secs(1);
    let max_call = infer.max_call.max(decode.max_call);
    assert!(
        max_call <= hang_bound,
        "a chaos client call took {max_call:?}, past the {hang_bound:?} retry/deadline budget"
    );
    assert!(
        infer.ok + decode.ok >= clients * requests * 8 / 10,
        "chaos storm drowned the load: only {}/{} calls succeeded",
        infer.ok + decode.ok,
        clients * requests
    );
    assert!(
        infer.faulted + decode.faulted >= 1,
        "scripted faults never reached a client — the storm was a no-op"
    );
    assert!(
        infer.deadline_exceeded >= 1,
        "the scripted over-deadline stall never produced a deadline_exceeded"
    );
    assert!(
        decode.reopened >= 1,
        "no decode session was evicted and reopened under the batcher panic"
    );

    // The storm's errors are still inside the SLO window: health must
    // be off `ok`, and the flip pins an incident snapshot carrying the
    // injected panics.
    let mut probe = GatewayClient::connect(addr).expect("connect probe");
    let flipped = probe.health().expect("health");
    assert_ne!(
        flipped.status,
        SloStatus::Ok,
        "health stayed ok through an injected-fault storm"
    );
    let events = probe.events(128).expect("events");
    assert!(
        events.events.iter().any(|e| e.kind == "worker_panic"),
        "no worker_panic event in the flight recorder after the storm"
    );
    let pinned = events
        .pinned
        .expect("health flip pinned no incident snapshot");
    assert!(
        pinned.events.iter().any(|e| e.kind == "worker_panic"),
        "the pinned incident snapshot did not capture the injected panics"
    );

    let stats = probe.stats().expect("stats");
    let worker_panics: u64 = stats.shards.iter().map(|s| s.worker_panics).sum();
    let evicted_poisoned: u64 = stats.shards.iter().map(|s| s.evicted_poisoned).sum();
    let expired_steps: u64 = stats.shards.iter().map(|s| s.expired).sum();
    assert!(
        worker_panics >= 2,
        "expected runtime-worker and decode-batcher panics on the wire, saw {worker_panics}"
    );
    assert!(
        evicted_poisoned >= 1,
        "the poisoned decode session was never evicted"
    );
    assert!(
        stats.connections.worker_panics >= 1,
        "the transport layer never caught (and counted) the handler panic"
    );
    // Every pool worker survived its caught panics.
    assert_eq!(
        stats.connections.workers_alive as usize,
        ServerConfig::default().reactor_workers,
        "reactor worker pool did not recover to full strength"
    );

    // Recovery: with the plan disarmed, the same gateway must serve
    // bit-exact traffic and health must drain back to `ok` once the
    // storm's errors age out of the SLO window.
    let model = gateway.router().model(CHAIN_MODEL).expect("registered");
    let recover_started = Instant::now();
    let mut polls = 0usize;
    let recovered_status = loop {
        let x = panacea_tensor::Matrix::from_fn(16, 1, |r, _| ((r * 17 + polls * 29) % 200) as i32);
        let reply = probe
            .infer_codes(CHAIN_MODEL, x.clone())
            .expect("post-chaos infer");
        assert_eq!(
            reply.payload,
            model.forward_codes(&x).0.into(),
            "post-chaos infer reply diverged"
        );
        polls += 1;
        let health = probe.health().expect("health");
        if health.status == SloStatus::Ok {
            break health.status;
        }
        assert!(
            recover_started.elapsed() < CHAOS_SLO_WINDOW + Duration::from_secs(15),
            "health never returned to ok after the plan disarmed: {health:?}"
        );
        thread::sleep(Duration::from_millis(150));
    };
    let recovery = recover_started.elapsed();

    // A fresh session on the stormed gateway must match an untouched
    // reference gateway seeded identically, step for step.
    let reference = nominal_gateway();
    let ref_open = reference.session_open(BLOCK_MODEL).expect("reference open");
    let open = probe.session_open(BLOCK_MODEL).expect("post-chaos open");
    for i in 0..8 {
        let token = hidden(BLOCK_D_MODEL, 1, 9_000_000 + i);
        let got = probe
            .decode(open.session, token.clone())
            .expect("post-chaos decode");
        let want = reference
            .decode(ref_open.session, &token)
            .expect("reference decode");
        assert_eq!(
            got.hidden, want.hidden,
            "post-chaos decode diverged from the reference gateway at step {i}"
        );
    }
    probe.session_close(open.session).expect("session close");
    reference
        .session_close(ref_open.session)
        .expect("reference close");
    server.shutdown();

    println!(
        "chaos: {}/{} calls ok, {} faulted ({} deadline_exceeded), \
         {} panics / {} transport panics / {} evictions on the wire, \
         max call {:.0}ms (budget {:.0}ms), health {} -> ok in {:.1}s ✓",
        infer.ok + decode.ok,
        clients * requests,
        infer.faulted + decode.faulted,
        infer.deadline_exceeded + decode.deadline_exceeded,
        worker_panics,
        stats.connections.worker_panics,
        evicted_poisoned,
        max_call.as_secs_f64() * 1e3,
        hang_bound.as_secs_f64() * 1e3,
        flipped.status.as_str(),
        recovery.as_secs_f64()
    );

    json!({
        "clients": clients,
        "requests_per_client": requests,
        "ok": infer.ok + decode.ok,
        "faulted": infer.faulted + decode.faulted,
        "deadline_exceeded": infer.deadline_exceeded + decode.deadline_exceeded,
        "sessions_reopened": decode.reopened,
        "max_call_ms": max_call.as_secs_f64() * 1e3,
        "hang_bound_ms": hang_bound.as_secs_f64() * 1e3,
        "worker_panics": worker_panics,
        "transport_panics": stats.connections.worker_panics,
        "evicted_poisoned": evicted_poisoned,
        "expired_steps": expired_steps,
        "health_at_storm": flipped.status.as_str(),
        "health_recovered": recovered_status.as_str(),
        "recovery_s": recovery.as_secs_f64(),
    })
}

fn main() {
    let smoke = smoke();
    let levels: &[usize] = if smoke { &[2, 4] } else { &[2, 4, 8] };
    let requests = if smoke { 12 } else { 60 };
    let burst = if smoke { 12 } else { 24 };
    println!(
        "gateway load bench ({} mode): mixed infer/decode over TCP, {requests} requests/client",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "{:>8}  {:>12}  {:>12}  {:>13}  {:>13}  {:>10}  {:>8}",
        "clients", "inf p50 µs", "inf p99 µs", "srv p99 µs", "dec p50 µs", "tok/s", "health"
    );

    let mut rows: Vec<Value> = Vec::new();
    for &clients in levels {
        let gateway = nominal_gateway();
        let mut server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
        let out = run_level(server.local_addr(), clients, requests, 0);

        // Server-side view, queried inside the metrics window the load
        // just filled.
        let mut probe = GatewayClient::connect(server.local_addr()).expect("connect");
        let metrics = probe.metrics().expect("metrics");
        let infer_dim = metrics
            .dims
            .iter()
            .find(|d| d.model == CHAIN_MODEL && d.verb == "infer" && d.stage == "request")
            .expect("no (chain, infer, request) dimension on the wire");
        let step_dim = metrics
            .dims
            .iter()
            .find(|d| d.model == BLOCK_MODEL && d.verb == "decode" && d.stage == "step")
            .expect("no (block, decode, step) dimension on the wire");
        let health = probe.health().expect("health");
        let stats = probe.stats().expect("stats");
        server.shutdown();

        let infer_p50 = quantile_us(&out.infer_us, 0.50);
        let infer_p99 = quantile_us(&out.infer_us, 0.99);
        let decode_p50 = quantile_us(&out.decode_us, 0.50);
        let decode_p99 = quantile_us(&out.decode_us, 0.99);
        let server_p99 = infer_dim.p99_us as f64;
        let tokens_per_s = out.decode_tokens as f64 / out.elapsed.as_secs_f64();
        let requests_per_s = out.infer_us.len() as f64 / out.elapsed.as_secs_f64();
        println!(
            "{clients:>8}  {infer_p50:>12.1}  {infer_p99:>12.1}  {server_p99:>13.1}  \
             {decode_p50:>13.1}  {tokens_per_s:>10.1}  {:>8}",
            health.status.as_str()
        );

        // Gates: every infer landed in the server's windowed dimension,
        // nothing shed, health ok, and the two p99 views agree.
        assert_eq!(
            infer_dim.ok,
            out.infer_us.len() as u64,
            "server windowed ok-count missed infer requests"
        );
        assert_eq!(stats.sheds.total(), 0, "nominal load shed requests");
        assert_eq!(
            health.status,
            SloStatus::Ok,
            "health not ok under nominal load: {health:?}"
        );
        assert!(
            server_p99 <= infer_p99 * P99_UPPER_RATIO + P99_UPPER_SLACK_US,
            "server windowed p99 {server_p99:.1}µs above client p99 {infer_p99:.1}µs \
             (gate {P99_UPPER_RATIO}x + {P99_UPPER_SLACK_US}µs)"
        );
        assert!(
            server_p99 >= infer_p99 * P99_LOWER_RATIO,
            "server windowed p99 {server_p99:.1}µs implausibly far below client p99 \
             {infer_p99:.1}µs (gate {P99_LOWER_RATIO}x)"
        );
        // Decode side of the same agreement: the session step (KV
        // append + batched pass, measured inside the shard) must sit
        // below the client's decode round trip but not implausibly far
        // below it — the step dimension really is timing these steps.
        let step_p99 = step_dim.p99_us as f64;
        assert!(
            step_p99 <= decode_p99 * P99_UPPER_RATIO + P99_UPPER_SLACK_US,
            "decode step p99 {step_p99:.1}µs above client decode p99 {decode_p99:.1}µs \
             (gate {P99_UPPER_RATIO}x + {P99_UPPER_SLACK_US}µs)"
        );
        assert!(
            step_p99 >= decode_p99 * P99_LOWER_RATIO,
            "decode step p99 {step_p99:.1}µs implausibly far below client decode p99 \
             {decode_p99:.1}µs (gate {P99_LOWER_RATIO}x)"
        );

        rows.push(json!({
            "clients": clients,
            "infer_requests": out.infer_us.len(),
            "decode_tokens": out.decode_tokens,
            "client_infer_p50_us": infer_p50,
            "client_infer_p99_us": infer_p99,
            "client_decode_p50_us": decode_p50,
            "client_decode_p99_us": decode_p99,
            "server_infer_p99_us": server_p99,
            "infer_requests_per_s": requests_per_s,
            "decode_tokens_per_s": tokens_per_s,
            "shed_total": stats.sheds.total(),
            "health": health.status.as_str(),
        }));
    }
    println!("nominal gates: health ok, zero sheds, server/client p99 agreement ✓");

    let (rejected, shed_total, shed_rate, status) = run_overload(burst);
    println!(
        "overload: {burst}-way burst over 2 permits shed {rejected} \
         (shed rate {shed_rate:.3}), health {status} ✓"
    );

    let export = if std::env::args().any(|a| a == "--export") {
        run_export(smoke)
    } else {
        Value::Null
    };

    let connections = if std::env::args().any(|a| a == "--c10k") {
        run_c10k(smoke)
    } else {
        Value::Null
    };

    let chaos = if std::env::args().any(|a| a == "--chaos") {
        run_chaos(smoke)
    } else {
        Value::Null
    };

    let report = json!({
        "bench": "gateway_load",
        "mode": if smoke { "smoke" } else { "full" },
        "requests_per_client": requests,
        "results": Value::Array(rows),
        "overload": json!({
            "burst_clients": burst,
            "admission_permits": 2,
            "rejected": rejected,
            "shed_total": shed_total,
            "shed_rate": shed_rate,
            "health": status,
        }),
        "export": export,
        "connections": connections,
        "chaos": chaos,
    });
    let encoded = serde_json::to_string(&report).expect("shim serializer never fails");
    std::fs::write("BENCH_gateway.json", &encoded).expect("write BENCH_gateway.json");
    println!("wrote BENCH_gateway.json");
}
