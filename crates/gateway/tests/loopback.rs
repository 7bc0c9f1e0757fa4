//! End-to-end gateway tests over real localhost TCP: bit-exactness
//! against direct runtime execution, cache replay, explicit overload
//! rejections, stats round-trip, cross-thread trace propagation,
//! flight-recorder events with incident snapshots, and clean server
//! shutdown.

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use panacea_gateway::testutil::{codes, models};
use panacea_gateway::{
    AdmissionConfig, CacheConfig, Gateway, GatewayClient, GatewayConfig, GatewayServer,
};
use panacea_serve::{BatchPolicy, RuntimeConfig};
use panacea_tensor::dist::DistributionKind;

#[test]
fn concurrent_clients_get_bit_exact_answers_over_tcp() {
    let names = ["a", "b", "c", "d"];
    let gateway = Arc::new(Gateway::new(models(&names, 1), GatewayConfig::default()));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let mut threads = Vec::new();
    for t in 0..6 {
        let gateway = Arc::clone(&gateway);
        threads.push(thread::spawn(move || {
            let mut client = GatewayClient::connect(addr).expect("connect");
            for i in 0..4 {
                let name = names[(t + i) % names.len()];
                let model = gateway.router().model(name).expect("registered");
                let x = codes(&model, 1 + (t + i) % 3, t * 10 + i);
                let (expect, _) = model.forward_codes(&x);
                let reply = client.infer_codes(name, x).expect("served");
                assert_eq!(
                    reply.payload,
                    expect.into(),
                    "thread {t} request {i} diverged"
                );
                assert!(reply.shard < 2);
            }
        }));
    }
    for th in threads {
        th.join().expect("client thread");
    }
    let served: u64 = gateway
        .stats()
        .shards
        .iter()
        .map(|s| s.requests)
        .sum::<u64>()
        + gateway.stats().cache.hits;
    assert_eq!(served, 24);
}

#[test]
fn repeated_request_is_a_bit_exact_cache_hit() {
    let gateway = Arc::new(Gateway::new(models(&["m"], 2), GatewayConfig::default()));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");

    let model = gateway.router().model("m").expect("registered");
    let x = codes(&model, 2, 0);
    let first = client.infer_codes("m", x.clone()).expect("served");
    assert!(!first.cache_hit);
    let second = client.infer_codes("m", x).expect("served");
    assert!(second.cache_hit, "identical payload missed the cache");
    assert_eq!(second.payload, first.payload);
    assert_eq!(second.scale, first.scale);
}

#[test]
fn f32_round_trip_matches_local_quantize_and_forward() {
    let gateway = Arc::new(Gateway::new(models(&["m"], 3), GatewayConfig::default()));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");

    let model = gateway.router().model("m").expect("registered");
    let mut rng = panacea_tensor::seeded_rng(4);
    let input = DistributionKind::Gaussian {
        mean: 0.2,
        std: 0.5,
    }
    .sample_matrix(model.in_features(), 3, &mut rng);
    let (expect, _) = model.forward(&model.quantize(&input));
    let reply = client.infer_f32("m", input).expect("served");
    assert_eq!(reply.payload, expect, "wire f32 payload diverged");
}

#[test]
fn overload_burst_yields_explicit_rejections_not_unbounded_queueing() {
    // Two permits, lingering batcher: a synchronized 8-client burst must
    // see some Overloaded rejections while every accepted request still
    // completes correctly.
    let gateway = Arc::new(Gateway::new(
        models(&["m"], 5),
        GatewayConfig {
            shards: 1,
            runtime: RuntimeConfig {
                workers: 1,
                policy: BatchPolicy {
                    max_batch: 4096,
                    max_wait: Duration::from_millis(100),
                },
            },
            cache: CacheConfig {
                capacity: 0, // force every request through admission
                shards: 1,
                ..CacheConfig::default()
            },
            admission: AdmissionConfig {
                max_in_flight: 2,
                max_queue_wait: Duration::from_secs(10),
            },
            ..GatewayConfig::default()
        },
    ));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let model = gateway.router().model("m").expect("registered");

    let barrier = Arc::new(Barrier::new(8));
    let mut threads = Vec::new();
    for t in 0..8 {
        let barrier = Arc::clone(&barrier);
        let x = codes(&model, 1, t);
        let expect = model.forward_codes(&x).0;
        threads.push(thread::spawn(move || {
            let mut client = GatewayClient::connect(addr).expect("connect");
            barrier.wait();
            match client.infer_codes("m", x) {
                Ok(reply) => {
                    assert_eq!(reply.payload, expect.into(), "admitted request diverged");
                    Ok(())
                }
                Err(e) => {
                    assert!(e.is_overloaded(), "unexpected failure: {e}");
                    Err(())
                }
            }
        }));
    }
    let outcomes: Vec<Result<(), ()>> = threads
        .into_iter()
        .map(|th| th.join().expect("client thread"))
        .collect();
    let rejected = outcomes.iter().filter(|o| o.is_err()).count();
    assert!(rejected > 0, "8-way burst over 2 permits saw no rejection");
    assert!(
        rejected < 8,
        "every request was rejected — nothing was served"
    );
    assert_eq!(gateway.stats().admission.rejected_capacity, rejected as u64);
}

#[test]
fn block_requests_round_trip_bit_exactly_over_tcp() {
    use panacea_gateway::testutil::{block_model, direct_forward, hidden};
    let (model, blocks) = block_model("decoder", 40);
    let gateway = Arc::new(Gateway::new(vec![model], GatewayConfig::default()));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");

    for (salt, tokens) in [(0usize, 1usize), (1, 4), (2, 3)] {
        let x = hidden(16, tokens, salt);
        let expect = direct_forward(&blocks, &x);
        let reply = client.infer_hidden("decoder", x).expect("served");
        let got = reply.payload.as_hidden().expect("hidden result");
        assert_eq!(got.shape(), (16, tokens));
        for (a, b) in expect.iter().zip(got.iter()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "TCP block serving diverged from direct execution"
            );
        }
    }

    // Replay: the same sequence must be a bit-exact cache hit.
    let x = hidden(16, 2, 9);
    let cold = client.infer_hidden("decoder", x.clone()).expect("served");
    let warm = client.infer_hidden("decoder", x).expect("served");
    assert!(!cold.cache_hit && warm.cache_hit, "expected a cache replay");
    assert_eq!(cold.payload, warm.payload);

    // Non-finite payloads are rejected client-side before the wire.
    let mut nan = hidden(16, 1, 0);
    nan[(0, 0)] = f32::NAN;
    assert!(client.infer_hidden("decoder", nan).is_err());
}

#[test]
fn decode_sessions_work_over_tcp_with_affinity_and_eviction_errors() {
    use panacea_gateway::testutil::{block_model, hidden};
    let (model, blocks) = block_model("decoder", 41);
    let gateway = Arc::new(Gateway::new(vec![model], GatewayConfig::default()));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");

    let open = client.session_open("decoder").expect("opened");
    let prefix = hidden(16, 4, 11);
    // Prefill in one call, then one single-token step.
    let prefill = client
        .decode(open.session, prefix.submatrix(0, 0, 16, 3))
        .expect("prefill");
    assert_eq!(prefill.tokens, 3);
    assert_eq!(prefill.shard, open.shard, "decode left the pinned shard");
    let step = client
        .decode(open.session, prefix.submatrix(0, 3, 16, 1))
        .expect("step");
    assert_eq!(step.tokens, 4);
    assert_eq!(step.shard, open.shard);

    // Oracle: full causal recompute of the whole prefix, last column.
    let mut expect = prefix.clone();
    for b in &blocks {
        expect = b.forward_segments_causal(&expect, &[4]).0;
    }
    for r in 0..16 {
        assert_eq!(
            step.hidden[(r, 0)].to_bits(),
            expect[(r, 3)].to_bits(),
            "TCP decode diverged from causal recompute"
        );
    }

    // Stats over the wire see the session, its KV bytes, and the
    // continuous-batching counters (two steps rode fused passes; a solo
    // client's occupancy is exactly 1 step per pass).
    let stats = client.stats().expect("stats");
    assert_eq!(stats.shards[open.shard].open_sessions, 1);
    assert_eq!(stats.shards[open.shard].kv_bytes, 2 * 2 * 16 * 4 * 4);
    assert_eq!(stats.shards[open.shard].decode_steps, 2);
    assert_eq!(stats.shards[open.shard].decode_batches, 2);
    assert_eq!(stats.shards[open.shard].decode_batch_occupancy, 1.0);
    // 3-column prefill pads to 4, the single-token step pads to 4.
    assert_eq!(stats.shards[open.shard].decode_padded_cols, 1 + 3);

    // Close, then decode/close again: unknown_session on the wire.
    let closed = client.session_close(open.session).expect("closed");
    assert_eq!(closed.tokens, 4);
    for attempt in [
        client.decode(open.session, hidden(16, 1, 0)).unwrap_err(),
        client.session_close(open.session).unwrap_err(),
    ] {
        match attempt {
            panacea_gateway::GatewayError::Remote { kind, .. } => {
                assert_eq!(kind, panacea_gateway::ErrorKind::UnknownSession)
            }
            other => panic!("expected a remote unknown_session error, got {other}"),
        }
    }
}

#[test]
fn stats_expose_padding_and_cancellation_counters_over_the_wire() {
    // A 3-column request forces one padded column; the counters must be
    // visible to a remote client, not just in-process.
    let gateway = Arc::new(Gateway::new(
        models(&["m"], 9),
        GatewayConfig {
            shards: 1,
            cache: CacheConfig {
                capacity: 0,
                shards: 1,
                ..CacheConfig::default()
            },
            ..GatewayConfig::default()
        },
    ));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");
    let model = gateway.router().model("m").expect("registered");
    client
        .infer_codes("m", codes(&model, 3, 0))
        .expect("served");
    let stats = client.stats().expect("stats");
    let shard = &stats.shards[0];
    assert_eq!(shard.padded_cols, 1, "padded column not reported");
    assert!(
        (shard.padding_overhead - 0.25).abs() < 1e-12,
        "padding_overhead wrong: {}",
        shard.padding_overhead
    );
    assert_eq!(shard.cancelled, 0);
}

#[test]
fn stats_verb_round_trips_over_the_wire() {
    let gateway = Arc::new(Gateway::new(models(&["m"], 6), GatewayConfig::default()));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");

    let model = gateway.router().model("m").expect("registered");
    let x = codes(&model, 2, 0);
    client.infer_codes("m", x.clone()).expect("served");
    client.infer_codes("m", x).expect("served");

    // The worker decrements its in-flight counter *after* answering, so
    // wait for the shards to go quiescent before comparing two
    // point-in-time snapshots for exact equality.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while gateway.router().queue_depths().iter().any(|q| q.load() > 0) {
        assert!(
            std::time::Instant::now() < deadline,
            "shards never went quiescent"
        );
        thread::yield_now();
    }
    let stats = client.stats().expect("stats");
    let mut local = gateway.stats();
    // Each snapshot stamps its own strictly-increasing sequence number
    // and uptime; normalize them before the exact-equality comparison.
    assert!(local.seq > stats.seq, "snapshot seq did not increase");
    assert!(local.uptime_ms >= stats.uptime_ms, "uptime went backwards");
    local.seq = stats.seq;
    local.uptime_ms = stats.uptime_ms;
    assert_eq!(stats, local, "wire stats diverged from source");
    assert_eq!(stats.shards.len(), 2);
    assert_eq!(stats.cache.hits, 1);
    assert_eq!(stats.cache.misses, 1);
    assert!((stats.cache.hit_rate() - 0.5).abs() < 1e-12);
    assert_eq!(stats.admission.admitted, 1);
    assert_eq!(stats.shards.iter().map(|s| s.requests).sum::<u64>(), 1);
}

#[test]
fn metrics_verb_reports_stage_quantiles_over_the_wire() {
    use panacea_gateway::testutil::{block_model, hidden};
    let (model, _) = block_model("decoder", 50);
    let mut set = models(&["chain"], 51);
    set.push(model);
    let gateway = Arc::new(Gateway::new(set, GatewayConfig::default()));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");

    // Traffic on both surfaces: stateless chain inference plus a decode
    // session, so serving-stage and decode-stage histograms both fill.
    let chain = gateway.router().model("chain").expect("registered");
    for salt in 0..3 {
        client
            .infer_codes("chain", codes(&chain, 1, salt))
            .expect("served");
    }
    let open = client.session_open("decoder").expect("opened");
    client.decode(open.session, hidden(16, 2, 1)).expect("step");
    client.session_close(open.session).expect("closed");

    let first = client.metrics().expect("metrics");
    let second = client.metrics().expect("metrics");
    assert!(second.seq > first.seq, "metrics seq did not increase");
    assert!(second.uptime_ms >= first.uptime_ms);

    let by_name = |stages: &[panacea_gateway::StageSummary], name: &str| {
        stages
            .iter()
            .find(|s| s.stage == name)
            .unwrap_or_else(|| panic!("stage {name:?} missing"))
            .clone()
    };
    // Gateway stages: every wire request was parsed, routed, executed.
    for name in ["parse", "route", "execute"] {
        let s = by_name(&first.gateway, name);
        assert!(s.count > 0, "gateway stage {name:?} recorded nothing");
        assert!(
            s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max,
            "quantiles out of order for {name:?}: {s:?}"
        );
        assert!(s.sum > 0 && s.max > 0);
    }
    // The cache admits the chain requests, so probes were timed too.
    assert!(by_name(&first.gateway, "cache_probe").count > 0);
    assert!(by_name(&first.gateway, "admission_wait").count > 0);

    // Per-shard serving stages: the three chain requests all landed on
    // one shard (same model routes to the same shard); that shard's
    // queue_wait/batch_form/execute/split_back all saw every batch.
    assert_eq!(first.shards.len(), 2);
    let serving: Vec<_> = first
        .shards
        .iter()
        .filter(|s| by_name(s, "queue_wait").count > 0)
        .collect();
    assert!(!serving.is_empty(), "no shard recorded serving stages");
    for shard in &serving {
        for name in ["queue_wait", "batch_form", "execute", "split_back"] {
            let s = by_name(shard, name);
            assert!(s.count > 0, "shard stage {name:?} recorded nothing");
            assert!(s.p50 <= s.max, "p50 exceeds max for {name:?}");
        }
    }
    // The decode session ran on some shard: step latency and the fused
    // decode pass stages recorded there, with occupancy exactly 1 per
    // pass for a solo client.
    let decode_shard = first
        .shards
        .iter()
        .find(|s| by_name(s, "step").count > 0)
        .expect("no shard recorded decode steps");
    assert!(by_name(decode_shard, "decode_linger").count > 0);
    assert!(by_name(decode_shard, "decode_pass").count > 0);
    let occupancy = by_name(decode_shard, "decode_occupancy");
    assert!(occupancy.count > 0);
    assert_eq!(occupancy.max, 1, "solo decode pass occupancy must be 1");

    // Block sub-layer stages: the decoder's forward passes rolled up.
    for name in [
        "block_qkv",
        "block_attn",
        "block_proj",
        "block_fc1",
        "block_fc2",
    ] {
        let s = by_name(&first.block, name);
        assert!(s.count > 0, "block stage {name:?} recorded nothing");
    }
}

#[test]
fn slow_requests_are_pinned_and_retrievable_via_trace_verb() {
    use panacea_gateway::TraceConfig;
    let gateway = Arc::new(Gateway::new(
        models(&["m"], 10),
        GatewayConfig {
            // Zero threshold: every request counts as slow, so the test
            // needs no artificial delay to pin a trace.
            trace: TraceConfig {
                slow_threshold: Duration::ZERO,
                ..TraceConfig::default()
            },
            ..GatewayConfig::default()
        },
    ));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");

    let model = gateway.router().model("m").expect("registered");
    client
        .infer_codes("m", codes(&model, 2, 4))
        .expect("served");

    let reply = client.trace(8).expect("trace");
    assert!(!reply.traces.is_empty(), "slow request was not pinned");
    let trace = reply
        .traces
        .iter()
        .find(|t| t.verb == "infer")
        .expect("no infer trace pinned");

    // The span list is a complete tree: a root covering the request,
    // every other span parented within the trace, offsets and durations
    // inside the root's window.
    assert!(!trace.spans.is_empty());
    let root = &trace.spans[0];
    assert_eq!(root.id, 0);
    assert_eq!(root.parent, None);
    assert_eq!(root.stage, "infer");
    assert_eq!(root.dur_us, trace.total_us);
    let stages: Vec<&str> = trace.spans.iter().map(|s| s.stage.as_str()).collect();
    for expect in ["route", "cache_probe", "admission_wait", "execute"] {
        assert!(
            stages.contains(&expect),
            "stage {expect:?} missing: {stages:?}"
        );
    }
    for span in &trace.spans[1..] {
        let parent = span.parent.expect("non-root span lost its parent");
        assert!(parent < span.id, "parent does not precede child");
        assert!(span.start_us <= trace.total_us);
        assert!(span.dur_us <= trace.total_us);
    }

    // The limit is honored: more traffic, then ask for just one trace.
    client
        .infer_codes("m", codes(&model, 1, 5))
        .expect("served");
    let limited = client.trace(1).expect("trace");
    assert_eq!(limited.traces.len(), 1);
    // Newest first: the second request's trace outranks the first's.
    assert!(limited.traces[0].id > trace.id);
}

#[test]
fn health_verb_reports_ok_and_dims_appear_in_metrics_after_traffic() {
    let gateway = Arc::new(Gateway::new(models(&["m"], 11), GatewayConfig::default()));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");

    let model = gateway.router().model("m").expect("registered");
    for salt in 0..3 {
        client
            .infer_codes("m", codes(&model, 1, salt))
            .expect("served");
    }

    // Default SLO budgets are generous: light successful traffic is ok.
    let health = client.health().expect("health");
    assert_eq!(health.status, panacea_gateway::SloStatus::Ok);
    assert!(!health.targets.is_empty(), "default SLO config has targets");
    let latency = health
        .targets
        .iter()
        .find(|t| t.name == "latency")
        .expect("latency target");
    assert!(latency.samples > 0, "latency target saw no traffic");
    assert!(latency.burn_rate < 1.0, "{:?}", latency);

    // The same traffic shows up as a (model, verb, stage) dimension in
    // the metrics verb's windowed summaries.
    let metrics = client.metrics().expect("metrics");
    assert!(metrics.dims_window_ms > 0);
    let dim = metrics
        .dims
        .iter()
        .find(|d| d.model == "m" && d.verb == "infer" && d.stage == "request")
        .expect("no (m, infer, request) dimension recorded");
    assert_eq!(dim.ok, 3);
    assert_eq!(dim.error, 0);
    assert_eq!(dim.shed, 0);
    assert!(dim.count >= 3, "latency samples missing: {dim:?}");
}

#[test]
fn sheds_flip_health_and_are_broken_down_by_reason_in_stats() {
    use panacea_gateway::{SloConfig, SloTarget};
    // One permit, lingering batcher, no cache: a synchronized burst must
    // shed most of itself. The SLO allows zero sheds, so any shed at all
    // burns critically.
    let gateway = Arc::new(Gateway::new(
        models(&["m"], 12),
        GatewayConfig {
            shards: 1,
            runtime: RuntimeConfig {
                workers: 1,
                policy: BatchPolicy {
                    max_batch: 4096,
                    max_wait: Duration::from_millis(100),
                },
            },
            cache: CacheConfig {
                capacity: 0,
                shards: 1,
                ..CacheConfig::default()
            },
            admission: AdmissionConfig {
                max_in_flight: 1,
                max_queue_wait: Duration::from_secs(10),
            },
            slo: SloConfig {
                targets: vec![SloTarget {
                    max_shed_rate: Some(0.0),
                    ..SloTarget::over("no-sheds", Duration::from_secs(10))
                }],
            },
            ..GatewayConfig::default()
        },
    ));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let model = gateway.router().model("m").expect("registered");

    let barrier = Arc::new(Barrier::new(6));
    let mut threads = Vec::new();
    for t in 0..6 {
        let barrier = Arc::clone(&barrier);
        let x = codes(&model, 1, t);
        threads.push(thread::spawn(move || {
            let mut client = GatewayClient::connect(addr).expect("connect");
            barrier.wait();
            match client.infer_codes("m", x) {
                Ok(_) => false,
                Err(e) => {
                    assert!(e.is_overloaded(), "unexpected failure: {e}");
                    true
                }
            }
        }));
    }
    let rejected = threads
        .into_iter()
        .map(|th| th.join().expect("client thread"))
        .filter(|&r| r)
        .count();
    assert!(rejected > 0, "6-way burst over 1 permit saw no shed");

    let mut client = GatewayClient::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.sheds.in_flight, rejected as u64,
        "per-reason shed counter disagrees with observed rejections"
    );
    assert_eq!(stats.sheds.queue_wait, 0);
    assert_eq!(stats.sheds.kv_budget, 0);
    assert_eq!(stats.sheds.total(), stats.admission.rejected_capacity);

    // Zero shed budget + real sheds: the health verdict burns critical.
    let health = client.health().expect("health");
    assert_eq!(health.status, panacea_gateway::SloStatus::Critical);
    let target = &health.targets[0];
    assert_eq!(target.name, "no-sheds");
    assert!(target.shed_rate > 0.0);
    assert!(target.burn_rate > 1.0, "{target:?}");
}

#[test]
fn recent_trace_ring_returns_fast_requests_the_slow_ring_skips() {
    use panacea_gateway::TraceConfig;
    let gateway = Arc::new(Gateway::new(
        models(&["m"], 13),
        GatewayConfig {
            // Nothing is "slow" under a 60s threshold, so the slow ring
            // stays empty while the recent ring records everything.
            trace: TraceConfig {
                slow_threshold: Duration::from_secs(60),
                ..TraceConfig::default()
            },
            ..GatewayConfig::default()
        },
    ));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");

    let model = gateway.router().model("m").expect("registered");
    client
        .infer_codes("m", codes(&model, 1, 9))
        .expect("served");

    let slow = client.trace(8).expect("trace");
    assert!(slow.traces.is_empty(), "fast request pinned as slow");
    let recent = client.trace_recent(8).expect("trace recent");
    assert!(!recent.traces.is_empty(), "recent ring recorded nothing");
    assert_eq!(recent.traces[0].verb, "infer");
}

#[test]
fn malformed_lines_get_error_responses_and_the_connection_survives() {
    use std::io::{BufRead, BufReader, Write};
    let gateway = Arc::new(Gateway::new(models(&["m"], 7), GatewayConfig::default()));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");

    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    raw.write_all(b"this is not json\n").expect("write");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert!(line.contains("bad_request"), "got {line:?}");

    // The same connection still serves valid requests afterwards.
    let model = gateway.router().model("m").expect("registered");
    let x = codes(&model, 1, 0);
    let expect = model.forward_codes(&x).0;
    let req = panacea_gateway::protocol::encode_request(&panacea_gateway::Request::Infer {
        model: "m".to_string(),
        payload: panacea_gateway::Payload::Codes(x),
        deadline_ms: None,
    });
    raw.write_all(req.as_bytes()).expect("write");
    raw.write_all(b"\n").expect("write");
    line.clear();
    reader.read_line(&mut line).expect("read");
    let resp = panacea_gateway::protocol::decode_response(&line).expect("decode");
    match resp {
        panacea_gateway::Response::Infer(reply) => assert_eq!(reply.payload, expect.into()),
        other => panic!("expected an inference, got {other:?}"),
    }
}

#[test]
fn decode_traces_stitch_cross_thread_spans_over_tcp() {
    use panacea_gateway::testutil::{block_model, hidden};
    use panacea_gateway::TraceConfig;
    let (model, _) = block_model("decoder", 70);
    let gateway = Arc::new(Gateway::new(
        vec![model],
        GatewayConfig {
            // Zero threshold pins every request, so the decode's trace
            // is retrievable without artificial delays.
            trace: TraceConfig {
                slow_threshold: Duration::ZERO,
                ..TraceConfig::default()
            },
            ..GatewayConfig::default()
        },
    ));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");

    let open = client.session_open("decoder").expect("opened");
    client.decode(open.session, hidden(16, 2, 1)).expect("step");
    client.session_close(open.session).expect("closed");

    // The decode executed on the shard's decode-batch worker thread,
    // yet its TCP-fetched trace must be one stitched span tree: the
    // request root, the gateway's execute span, and under it the
    // worker-side queue_wait and decode_pass spans.
    let reply = client.trace(8).expect("trace");
    let trace = reply
        .traces
        .iter()
        .find(|t| t.verb == "decode")
        .expect("decode trace not pinned");
    assert!(trace.unix_ms > 0, "wall-clock anchor missing");
    let root = &trace.spans[0];
    assert_eq!(root.id, 0);
    assert_eq!(root.parent, None);
    assert_eq!(root.stage, "decode");
    let execute = trace
        .spans
        .iter()
        .find(|s| s.stage == "execute")
        .expect("execute span missing");
    assert_eq!(execute.parent, Some(0), "execute not under the root");
    for stage in ["queue_wait", "decode_pass"] {
        let span = trace
            .spans
            .iter()
            .find(|s| s.stage == stage)
            .unwrap_or_else(|| panic!("cross-thread stage {stage:?} missing from the trace"));
        assert_eq!(
            span.parent,
            Some(execute.id),
            "{stage:?} not parented under the gateway's execute span"
        );
        assert!(span.start_us <= trace.total_us);
        assert!(span.dur_us <= trace.total_us);
    }
    // A solo session's fused pass served only this request: no links.
    let pass = trace
        .spans
        .iter()
        .find(|s| s.stage == "decode_pass")
        .expect("checked above");
    assert!(pass.links.is_empty(), "solo pass linked {:?}", pass.links);

    // The session's lifecycle and the pass itself landed in the flight
    // recorder, retrievable over the same wire.
    let events = client.events(64).expect("events");
    for kind in [
        "model_register",
        "session_open",
        "batch_formed",
        "session_close",
    ] {
        assert!(
            events.events.iter().any(|e| e.kind == kind),
            "event kind {kind:?} missing from the ring"
        );
    }
    assert!(events.events.iter().all(|e| e.unix_ms > 0));
    assert!(events.pinned.is_none(), "healthy run pinned an incident");
}

#[test]
fn fused_decode_passes_link_every_participating_trace() {
    use panacea_gateway::testutil::{block_model, hidden};
    use panacea_gateway::{SessionConfig, TraceConfig};
    // One shard and a generous linger window so two concurrent steps
    // fuse into one decode pass; zero slow threshold pins both traces.
    let (model, _) = block_model("decoder", 71);
    let gateway = Arc::new(Gateway::new(
        vec![model],
        GatewayConfig {
            shards: 1,
            session: SessionConfig {
                decode_max_wait: Duration::from_millis(500),
                ..SessionConfig::default()
            },
            trace: TraceConfig {
                slow_threshold: Duration::ZERO,
                ..TraceConfig::default()
            },
            ..GatewayConfig::default()
        },
    ));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // Scheduling can still slip a step past the linger window, so retry
    // the whole two-client round until a pass actually fused.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let barrier = Arc::new(Barrier::new(2));
        let threads: Vec<_> = (0..2)
            .map(|t| {
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    let mut client = GatewayClient::connect(addr).expect("connect");
                    let open = client.session_open("decoder").expect("opened");
                    barrier.wait();
                    client.decode(open.session, hidden(16, 1, t)).expect("step");
                    client.session_close(open.session).expect("closed");
                })
            })
            .collect();
        for th in threads {
            th.join().expect("client thread");
        }
        let mut client = GatewayClient::connect(addr).expect("connect");
        let reply = client.trace(16).expect("trace");
        let decodes: Vec<_> = reply.traces.iter().filter(|t| t.verb == "decode").collect();
        let linked: Vec<_> = decodes
            .iter()
            .filter_map(|t| {
                t.spans
                    .iter()
                    .find(|s| s.stage == "decode_pass" && !s.links.is_empty())
                    .map(|s| (t.id, s.links.clone()))
            })
            .collect();
        if linked.len() == 2 {
            // Each trace's pass span links exactly the *other*
            // participant, never itself.
            let (a, a_links) = &linked[0];
            let (b, b_links) = &linked[1];
            assert_eq!(a_links, &vec![*b], "trace {a} links wrong set");
            assert_eq!(b_links, &vec![*a], "trace {b} links wrong set");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "steps never fused into one pass; last round's traces: {decodes:?}"
        );
    }
}

#[test]
fn health_flip_pins_an_incident_retrievable_after_recovery() {
    use panacea_gateway::{SloConfig, SloStatus, SloTarget};
    // Zero shed budget over a short window: one shed burns critical,
    // and once the shed ages out of the window health recovers — but
    // the pinned snapshot must still tell the story.
    let gateway = Arc::new(Gateway::new(
        models(&["m"], 14),
        GatewayConfig {
            shards: 1,
            cache: CacheConfig {
                capacity: 0,
                shards: 1,
                ..CacheConfig::default()
            },
            admission: AdmissionConfig {
                max_in_flight: 1,
                max_queue_wait: Duration::from_secs(10),
            },
            slo: SloConfig {
                targets: vec![SloTarget {
                    max_shed_rate: Some(0.0),
                    ..SloTarget::over("no-sheds", Duration::from_millis(300))
                }],
            },
            ..GatewayConfig::default()
        },
    ));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");
    let model = gateway.router().model("m").expect("registered");

    // Deliberate overload: hold the only permit, then send a request.
    let permit = gateway.admission().try_admit().expect("permit");
    let shed = client.infer_codes("m", codes(&model, 1, 0));
    assert!(shed
        .expect_err("request served past the held permit")
        .is_overloaded());
    drop(permit);

    // The next health evaluation notices the flip and pins a snapshot.
    let health = client.health().expect("health");
    assert_eq!(health.status, SloStatus::Critical);

    // Wait out the SLO window: the shed ages out and health recovers
    // (an empty window is ok — no traffic is not an outage).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let health = client.health().expect("health");
        if health.status == SloStatus::Ok {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "health never recovered: {health:?}"
        );
        thread::sleep(Duration::from_millis(50));
    }

    // The incident survives recovery: pinned snapshot frozen at the
    // flip, with the shed, the transition, and the dims that burned.
    let reply = client.events(64).expect("events");
    let pinned = reply.pinned.expect("no incident snapshot pinned");
    assert_eq!(pinned.status, SloStatus::Critical);
    assert!(pinned.unix_ms > 0);
    assert!(
        pinned.events.iter().any(|e| e.kind == "shed"
            && e.severity == "warn"
            && e.detail.contains("reason=in_flight")),
        "shed event missing from the snapshot: {:?}",
        pinned.events
    );
    assert!(
        pinned
            .events
            .iter()
            .any(|e| e.kind == "health_transition" && e.detail.contains("to=critical")),
        "flip transition missing from the snapshot"
    );
    assert!(
        pinned.dims.iter().any(|d| d.shed > 0),
        "frozen dims lost the shed: {:?}",
        pinned.dims
    );
    // The live ring additionally recorded the recovery transition.
    assert!(
        reply.events.iter().any(|e| e.kind == "health_transition"
            && e.severity == "info"
            && e.detail.contains("to=ok")),
        "recovery transition missing from the ring: {:?}",
        reply.events
    );
}

#[test]
fn server_shutdown_joins_threads_and_refuses_new_connections() {
    let gateway = Arc::new(Gateway::new(models(&["m"], 8), GatewayConfig::default()));
    let mut server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // An idle connected client must not block shutdown.
    let _idle = GatewayClient::connect(addr).expect("connect");
    server.shutdown();
    server.shutdown(); // idempotent

    // After shutdown the port no longer answers the protocol: either the
    // connection is refused outright or it closes without a response.
    if let Ok(mut client) = GatewayClient::connect(addr) {
        let model = gateway.router().model("m").expect("registered");
        assert!(client.infer_codes("m", codes(&model, 1, 0)).is_err());
    }
}

#[test]
fn connection_gauges_and_lifecycle_events_flow_over_the_wire() {
    let gateway = Arc::new(Gateway::new(models(&["m"], 21), GatewayConfig::default()));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let mut observer_client = GatewayClient::connect(addr).expect("connect");
    let mut transient = GatewayClient::connect(addr).expect("connect");
    assert!(transient.stats().is_ok(), "transient client must serve");

    let stats = observer_client.stats().expect("stats");
    assert!(
        stats.connections.open >= 2,
        "both live connections should be counted open: {:?}",
        stats.connections
    );
    assert!(stats.connections.peak >= 2);
    assert_eq!(stats.connections.evicted, 0);

    // Dropping one client drains the gauge (the close is asynchronous,
    // so poll briefly) and leaves a close event in the recorder.
    drop(transient);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let s = observer_client.stats().expect("stats");
        if s.connections.open <= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "open gauge never drained: {:?}",
            s.connections
        );
        thread::sleep(Duration::from_millis(10));
    }
    let events = observer_client.events(64).expect("events");
    for kind in ["conn_open", "conn_close"] {
        assert!(
            events.events.iter().any(|e| e.kind == kind),
            "event kind {kind:?} missing from the ring: {:?}",
            events.events
        );
    }
}

#[test]
fn over_limit_connection_is_counted_evicted_with_reason() {
    use panacea_gateway::ServerConfig;
    let gateway = Arc::new(Gateway::new(models(&["m"], 22), GatewayConfig::default()));
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
    assert!(first.stats().is_ok(), "in-limit connection must serve");
    let mut second = GatewayClient::connect(server.local_addr()).expect("connect");
    let err = second.stats().expect_err("over-limit connection served");
    assert!(err.is_overloaded(), "wrong rejection: {err}");

    let stats = first.stats().expect("stats");
    assert_eq!(stats.connections.evicted, 1, "{:?}", stats.connections);
    let events = first.events(64).expect("events");
    assert!(
        events.events.iter().any(|e| e.kind == "conn_evict"
            && e.severity == "warn"
            && e.detail.contains("reason=max_connections")),
        "max_connections eviction missing from the ring: {:?}",
        events.events
    );
}

#[test]
fn reactor_evicts_slow_consumers_and_drain_evicts_survivors() {
    use panacea_gateway::ServerConfig;
    use std::io::Write;
    use std::net::TcpStream;
    // A tiny write backlog and a short stall timeout so a non-reading
    // client is evicted quickly.
    let gateway = Arc::new(Gateway::new(models(&["m"], 23), GatewayConfig::default()));
    let mut server = GatewayServer::bind_with(
        Arc::clone(&gateway),
        "127.0.0.1:0",
        ServerConfig {
            max_write_backlog: 16 * 1024,
            write_stall_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    // The slow consumer pipelines stats requests forever and never
    // reads a byte: once the kernel socket buffers on both sides fill,
    // its write backlog stalls past the timeout. The writer thread dies
    // when the eviction resets the connection.
    let slow = TcpStream::connect(addr).expect("connect slow");
    let slow_writer = thread::spawn(move || {
        let mut slow = slow;
        while slow.write_all(b"{\"verb\":\"stats\"}\n").is_ok() {}
    });

    // A healthy client keeps being served throughout and watches for
    // the eviction over the events verb.
    let mut healthy = GatewayClient::connect(addr).expect("connect healthy");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let events = healthy.events(64).expect("events");
        if events
            .events
            .iter()
            .any(|e| e.kind == "conn_evict" && e.detail.contains("reason=slow_consumer"))
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "slow consumer never evicted: {:?}",
            events.events
        );
        thread::sleep(Duration::from_millis(25));
    }
    assert!(healthy.stats().is_ok(), "healthy client must survive");
    slow_writer.join().expect("slow writer");

    // Shutdown drains, then evicts the surviving idle connection with
    // reason=shutdown — visible in-process after the server is gone.
    server.shutdown();
    assert!(
        gateway
            .events(64)
            .events
            .iter()
            .any(|e| e.kind == "conn_evict" && e.detail.contains("reason=shutdown")),
        "shutdown eviction missing from the ring"
    );
}
