//! `predict_with_retry` against a stub endpoint with scripted
//! backpressure: the listener sheds the first N attempts with a 503
//! carrying the queue-capacity hint, then answers. This pins the whole
//! loop — bounded attempts, hint-floored backoff, typed exhaustion —
//! without depending on racing a real queue full.

#![expect(clippy::disallowed_types, reason = "a stub listener stands in for the server")]

use simpadv_resilience::BackoffPolicy;
use simpadv_serve::client::{predict_with_retry, RetryPolicy};
use simpadv_serve::protocol::{
    read_request, write_response, PredictRequest, PredictResponse, RejectBody,
};
use simpadv_serve::ServeError;
use std::io::BufReader;
use std::net::TcpListener;

/// Serves exactly `connections` requests on an ephemeral port: 503 for
/// the first `shed` of them, 200 afterwards. Returns the bound address.
#[expect(
    clippy::disallowed_methods,
    reason = "scripted stub listener runs on a test thread while the client under test blocks"
)]
fn scripted_server(shed: u32, connections: u32) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub listener");
    let addr = listener.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || {
        for i in 0..connections {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let _request = read_request(&mut reader).expect("read request");
            let mut writer = stream;
            if i < shed {
                let body = serde_json::to_string(&RejectBody {
                    error: "queue_full".into(),
                    queue_capacity: 8,
                })
                .unwrap();
                write_response(&mut writer, 503, "Service Unavailable", body.as_bytes()).unwrap();
            } else {
                let body = serde_json::to_string(&PredictResponse {
                    prediction: 3,
                    logits: vec![0.0, 0.25, 0.5, 1.0],
                    generation: 1,
                })
                .unwrap();
                write_response(&mut writer, 200, "OK", body.as_bytes()).unwrap();
            }
        }
    });
    (addr, handle)
}

fn request() -> PredictRequest {
    PredictRequest { pixels: vec![0.5; 4], label: Some(3), adversarial: false }
}

/// Fast test policy: microsecond-scale backoff, tiny slot estimate.
fn quick_policy(max_attempts: u32) -> RetryPolicy {
    RetryPolicy { max_attempts, backoff: BackoffPolicy::new(200, 5_000), seed: 42, slot_us: 10 }
}

#[test]
fn rejected_attempts_are_retried_until_the_server_answers() {
    let (addr, server) = scripted_server(2, 3);
    let response = predict_with_retry(&addr, &request(), &quick_policy(5)).unwrap();
    assert_eq!(response.prediction, 3);
    assert_eq!(response.generation, 1);
    server.join().unwrap();
}

#[test]
fn exhausted_attempts_surface_the_typed_rejection() {
    let (addr, server) = scripted_server(3, 3);
    let err = predict_with_retry(&addr, &request(), &quick_policy(3)).unwrap_err();
    match err {
        ServeError::Rejected { capacity } => assert_eq!(capacity, 8, "hint is carried through"),
        other => panic!("expected Rejected, got {other}"),
    }
    server.join().unwrap();
}

#[test]
fn an_immediately_healthy_server_needs_exactly_one_attempt() {
    let (addr, server) = scripted_server(0, 1);
    let response = predict_with_retry(&addr, &request(), &quick_policy(1)).unwrap();
    assert_eq!(response.logits.len(), 4);
    server.join().unwrap();
}
