//! Kept-alive connections: one per client thread, reused until the
//! thread calls another address; requests pipelined on one connection
//! answered in order; a server shutdown that closes what it accepted, so
//! a cached connection never reaches a stopped engine; and a stopping
//! server's 503 surfacing as `ShuttingDown`, never as a bad request.
//!
//! Every test runs under [`within`], so a hang fails the run instead of
//! stalling it.

#![expect(clippy::disallowed_types, reason = "tests drive the server's raw sockets directly")]

use simpadv::ModelSpec;
use simpadv_resilience::CheckpointStore;
use simpadv_runtime::Runtime;
use simpadv_serve::client::{self, PredictOutcome};
use simpadv_serve::protocol::{read_request, read_response, write_request, write_response};
use simpadv_serve::{
    PredictRequest, PredictResponse, ServeConfig, ServeError, ServedModel, Server,
};
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

/// Runs `body` on the calling thread (whose kept-alive connection the
/// test is about). If it is still running after `limit_s` seconds, the
/// test binary aborts with a message.
fn within<R: Send>(limit_s: u64, body: impl FnOnce() -> R + Send) -> R {
    let (done, finished) = std::sync::mpsc::channel::<()>();
    let (result, ()) = Runtime::new(2).par_join(
        move || {
            let result = body();
            drop(done);
            result
        },
        move || {
            if let Err(RecvTimeoutError::Timeout) =
                finished.recv_timeout(Duration::from_secs(limit_s))
            {
                eprintln!("test still running after {limit_s} s: aborting it as hung");
                std::process::abort();
            }
        },
    );
    result
}

/// A checkpoint directory holding `generations` generations of the small
/// MLP, newest last.
fn model_dir(tag: &str, generations: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("simpadv-serve-connections-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).unwrap();
    let spec = ModelSpec::small_mlp();
    for seed in 0..generations {
        ServedModel::capture(&spec, &spec.build(seed + 1), "mnist", "test")
            .publish(&store)
            .unwrap();
    }
    dir
}

/// Starts a server on `dir`, at `addr` or an ephemeral port. The
/// listener is bound when this returns, so no readiness probe is needed
/// (one would also use up the calling thread's cached connection).
fn start(dir: &std::path::Path, addr: Option<&str>) -> Server {
    let mut cfg = ServeConfig::for_dir(dir);
    if let Some(addr) = addr {
        cfg.addr = addr.to_string();
    }
    Server::start(cfg).unwrap()
}

fn request(seed: u64) -> PredictRequest {
    let pixels = (0..simpadv_data::IMAGE_PIXELS)
        .map(|i| (((i as u64).wrapping_mul(29).wrapping_add(seed * 13) % 257) as f32) / 257.0)
        .collect();
    PredictRequest { pixels, label: Some((seed % 10) as usize), adversarial: false }
}

fn answered(outcome: Result<PredictOutcome, ServeError>) -> PredictResponse {
    match outcome {
        Ok(PredictOutcome::Predicted(response)) => response,
        other => panic!("expected an answer, got {other:?}"),
    }
}

fn bits(logits: &[f32]) -> Vec<u32> {
    logits.iter().map(|v| v.to_bits()).collect()
}

/// Answers `n` predict requests, on `conn` while it stays open and on a
/// newly accepted connection from `listener` whenever there is none.
/// Returns the number of connections accepted.
fn serve_stub(listener: &TcpListener, conn: &mut Option<BufReader<TcpStream>>, n: usize) -> usize {
    let body = serde_json::to_string(&PredictResponse {
        prediction: 1,
        logits: vec![0.5; 10],
        generation: 7,
    })
    .unwrap();
    let (mut accepts, mut answers) = (0, 0);
    while answers < n {
        if conn.is_none() {
            *conn = Some(BufReader::new(listener.accept().unwrap().0));
            accepts += 1;
        }
        let reader = conn.as_mut().unwrap();
        match read_request(reader) {
            Ok(Some(_)) => {
                write_response(reader.get_mut(), 200, "OK", body.as_bytes()).unwrap();
                answers += 1;
            }
            Ok(None) | Err(_) => *conn = None,
        }
    }
    accepts
}

#[test]
fn a_thread_keeps_one_connection_until_it_calls_another_address() {
    let a = TcpListener::bind("127.0.0.1:0").unwrap();
    let b = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr_a = a.local_addr().unwrap().to_string();
    let addr_b = b.local_addr().unwrap().to_string();
    let client_side = || {
        let mut answers: Vec<_> = (0..20).map(|_| client::predict(&addr_a, &request(0))).collect();
        answers.push(client::predict(&addr_b, &request(0)));
        answers.push(client::predict(&addr_a, &request(0)));
        answers
    };
    let stub_side = || {
        let mut on_a = None;
        let first_twenty = serve_stub(&a, &mut on_a, 20);
        let on_b = serve_stub(&b, &mut None, 1);
        // Calling `b` replaced the connection to `a`, so the client closed
        // it; a client that kept it would send its last request there.
        let mut reader = on_a.unwrap();
        let back_on_a = match read_request(&mut reader) {
            Ok(Some(_)) => {
                write_response(reader.get_mut(), 200, "OK", b"{}").unwrap();
                0
            }
            Ok(None) | Err(_) => serve_stub(&a, &mut None, 1),
        };
        [first_twenty, on_b, back_on_a]
    };
    let (answers, accepts) = within(60, || Runtime::new(2).par_join(client_side, stub_side));
    assert_eq!(accepts, [1, 1, 1], "accepts for 20 calls to a, then 1 to b, then 1 back to a");
    for outcome in answers {
        assert_eq!(answered(outcome).generation, 7);
    }
}

#[test]
fn pipelined_requests_are_answered_in_order_and_bitwise() {
    within(60, || {
        let server = start(&model_dir("pipelined", 1), None);
        let addr = server.local_addr();
        let requests = [request(1), request(2)];
        let singles: Vec<PredictResponse> =
            requests.iter().map(|r| answered(client::predict(&addr, r))).collect();

        let mut wire = Vec::new();
        for r in &requests {
            write_request(
                &mut wire,
                "POST",
                "/predict",
                serde_json::to_string(r).unwrap().as_bytes(),
            )
            .unwrap();
        }
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.write_all(&wire).unwrap();
        let mut reader = BufReader::new(stream);
        for single in &singles {
            let response = read_response(&mut reader).unwrap();
            assert_eq!(response.status, 200);
            let got: PredictResponse =
                serde_json::from_str(std::str::from_utf8(&response.body).unwrap()).unwrap();
            assert_eq!((got.prediction, got.generation), (single.prediction, single.generation));
            assert_eq!(bits(&got.logits), bits(&single.logits));
        }
        drop(reader);
        assert_eq!(server.shutdown().served, 4);
    });
}

#[test]
fn after_shutdown_a_new_server_on_the_same_address_answers_the_same_thread() {
    within(60, || {
        let old = start(&model_dir("replaced-old", 1), None);
        let addr = old.local_addr();
        assert_eq!(answered(client::predict(&addr, &request(3))).generation, 1);
        // This thread's connection stays cached across the shutdown.
        old.shutdown();

        let new = start(&model_dir("replaced-new", 2), Some(&addr));
        assert_eq!(new.local_addr(), addr);
        let response = answered(client::predict(&addr, &request(3)));
        assert_eq!(response.generation, 2, "answered by the new server's own generation");
        assert_eq!(new.stats().served, 1, "the request ran exactly once");
        new.shutdown();
    });
}

#[test]
fn a_stopping_servers_answer_is_shutting_down_not_a_bad_request() {
    within(60, || {
        let server = start(&model_dir("stopping", 1), None);
        let addr = server.local_addr();
        answered(client::predict(&addr, &request(4)));

        // The engine stops while this thread's connection is open: the
        // handler reads the next request and answers 503 with an error
        // body, not a reject body.
        server.engine().shutdown();
        let err = client::predict(&addr, &request(5)).unwrap_err();
        assert!(matches!(err, ServeError::ShuttingDown), "{err}");

        // That dropped the connection; a new one finds the listener
        // stopping, and later the server gone. Neither is a bad request.
        for _ in 0..2 {
            let err = client::predict(&addr, &request(6)).unwrap_err();
            assert!(matches!(err, ServeError::Io(_) | ServeError::ShuttingDown), "{err}");
        }
        server.shutdown();
        let err = client::predict(&addr, &request(7)).unwrap_err();
        assert!(matches!(err, ServeError::Io(_)), "{err}");
    });
}
