//! Fault-injection tests across the gateway: injected execute-path
//! panics answered over the wire, deadline enforcement end-to-end, and
//! client-side retry with reconnect.
//!
//! Own test binary (process) on purpose: arming a `faultline` plan is
//! process-global, so these tests must not share a process with suites
//! that traverse the same sites. Every test arms a plan (an empty one
//! when it needs no faults) so the arm guard's serialization lock keeps
//! the scripts from overlapping.

use std::sync::Arc;
use std::time::{Duration, Instant};

use panacea_faultline::{Fault, FaultPlan, Scenario};
use panacea_gateway::testutil::{codes, models};
use panacea_gateway::{
    ClientConfig, ErrorKind, Gateway, GatewayClient, GatewayConfig, GatewayError, GatewayServer,
};

fn serve() -> (GatewayServer, Arc<Gateway>) {
    let gateway = Arc::new(Gateway::new(models(&["m"], 11), GatewayConfig::default()));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    (server, gateway)
}

#[test]
fn injected_execute_panic_is_answered_internal_and_the_server_survives() {
    let guard = FaultPlan::compile(
        0,
        &Scenario::new().fire_at("gateway.execute", 0, Fault::Panic),
    )
    .arm();
    let (server, gateway) = serve();
    let model = gateway.router().model("m").expect("registered");
    let x = codes(&model, 2, 0);
    let expect = model.forward_codes(&x).0;

    let mut client = GatewayClient::connect(server.local_addr()).expect("connect");
    let err = client
        .infer_codes("m", x.clone())
        .expect_err("panicked request was answered with a result");
    assert!(
        matches!(
            err,
            GatewayError::Remote {
                kind: ErrorKind::Internal,
                ..
            }
        ),
        "expected an internal error, got {err:?}"
    );
    // Same connection, same payload: the retry is served bit-exactly,
    // so the panic touched neither the worker pool nor the model state.
    let reply = client.infer_codes("m", x).expect("post-panic infer");
    assert_eq!(reply.payload, expect.into());
    // The panic is pinned in the flight recorder for incident forensics.
    let events = gateway.events(64);
    assert!(
        events.events.iter().any(|e| e.kind == "worker_panic"),
        "no worker_panic event recorded"
    );
    drop(server);
    drop(guard);
}

#[test]
fn deadlines_cross_the_wire_and_release_the_client_in_time() {
    // The execute path stalls 400ms on the first request; a 100ms
    // client deadline must release the caller with `deadline_exceeded`
    // rather than holding it for the full stall (or forever).
    let guard = FaultPlan::compile(
        0,
        &Scenario::new().fire_at(
            "gateway.execute",
            0,
            Fault::Delay(Duration::from_millis(400)),
        ),
    )
    .arm();
    let (server, gateway) = serve();
    let model = gateway.router().model("m").expect("registered");
    let x = codes(&model, 1, 1);
    let expect = model.forward_codes(&x).0;

    let mut client = GatewayClient::connect_with(
        server.local_addr(),
        ClientConfig {
            deadline: Some(Duration::from_millis(100)),
            ..ClientConfig::default()
        },
    )
    .expect("connect");
    let started = Instant::now();
    let err = client
        .infer_codes("m", x.clone())
        .expect_err("expired request was answered with a result");
    let waited = started.elapsed();
    assert!(
        matches!(
            err,
            GatewayError::Remote {
                kind: ErrorKind::DeadlineExceeded,
                ..
            }
        ),
        "expected deadline_exceeded, got {err:?}"
    );
    assert!(
        waited < Duration::from_secs(2),
        "client was held {waited:?} past its 100ms deadline"
    );
    // Only request 0 was scripted: the next one clears its deadline.
    let reply = client.infer_codes("m", x).expect("post-stall infer");
    assert_eq!(reply.payload, expect.into());
    drop(server);
    drop(guard);
}

#[test]
fn client_retries_recover_from_a_transient_internal_error() {
    let guard = FaultPlan::compile(
        0,
        &Scenario::new().fire_at("gateway.execute", 0, Fault::Panic),
    )
    .arm();
    let (server, gateway) = serve();
    let model = gateway.router().model("m").expect("registered");
    let x = codes(&model, 1, 2);
    let expect = model.forward_codes(&x).0;

    let mut client = GatewayClient::connect_with(
        server.local_addr(),
        ClientConfig {
            retries: 2,
            backoff: Duration::from_millis(5),
            seed: 42,
            ..ClientConfig::default()
        },
    )
    .expect("connect");
    // Attempt 0 hits the scripted panic (answered `internal`); the
    // retry runs unscripted and must return the bit-exact result.
    let reply = client.infer_codes("m", x).expect("retry did not recover");
    assert_eq!(reply.payload, expect.into());
    drop(server);
    drop(guard);
}

#[test]
fn client_reconnects_through_a_server_restart() {
    let guard = FaultPlan::compile(0, &Scenario::new()).arm();
    let gateway = Arc::new(Gateway::new(models(&["m"], 11), GatewayConfig::default()));
    let server = GatewayServer::bind(Arc::clone(&gateway), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let model = gateway.router().model("m").expect("registered");
    let x = codes(&model, 1, 3);
    let expect = model.forward_codes(&x).0;

    let mut client = GatewayClient::connect_with(
        addr,
        ClientConfig {
            retries: 4,
            backoff: Duration::from_millis(20),
            ..ClientConfig::default()
        },
    )
    .expect("connect");
    assert!(client.infer_codes("m", x.clone()).is_ok());
    // Restart the server on the same address: the old connection dies,
    // and the idempotent retry path must redial and recover.
    drop(server);
    let server = GatewayServer::bind(Arc::clone(&gateway), addr).expect("rebind");
    let reply = client
        .infer_codes("m", x)
        .expect("retry did not survive the restart");
    assert_eq!(reply.payload, expect.into());
    drop(server);
    drop(guard);
}
