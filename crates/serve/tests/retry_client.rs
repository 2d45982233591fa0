//! `client::predict` against a stub endpoint that closes every connection
//! after one answer. A thread's next call finds its kept-alive
//! connection dead before any answer arrives, so the client's resend
//! rule (DESIGN.md §11) has to carry each call to a new connection. The
//! stub can also shed requests with a 503 carrying the queue-capacity
//! hint, which must come back as a typed rejection.

#![expect(clippy::disallowed_types, reason = "a stub listener stands in for the server")]

use simpadv_serve::client::{predict, PredictOutcome};
use simpadv_serve::protocol::{
    read_request, write_response, PredictRequest, PredictResponse, RejectBody,
};
use std::io::BufReader;
use std::net::TcpListener;

/// Serves exactly `connections` requests on an ephemeral port, one per
/// connection, closing each connection after its answer: 503 for the
/// first `shed` of them, 200 afterwards. Returns the bound address.
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

#[test]
fn calls_on_a_connection_the_server_closed_are_resent_on_a_new_one() {
    let (addr, server) = scripted_server(0, 3);
    for call in 0..3 {
        match predict(&addr, &request()).unwrap() {
            PredictOutcome::Predicted(response) => {
                assert_eq!((response.prediction, response.generation), (3, 1), "call {call}");
                assert_eq!(response.logits.len(), 4);
            }
            PredictOutcome::Rejected(reject) => panic!("call {call} was shed: {reject:?}"),
        }
    }
    server.join().unwrap();
}

#[test]
fn a_shed_request_comes_back_as_a_typed_rejection() {
    let (addr, server) = scripted_server(1, 2);
    match predict(&addr, &request()).unwrap() {
        PredictOutcome::Rejected(reject) => {
            assert_eq!(reject.error, "queue_full");
            assert_eq!(reject.queue_capacity, 8, "the hint is carried through");
        }
        PredictOutcome::Predicted(response) => panic!("expected a rejection, got {response:?}"),
    }
    // The rejection did not retry; the next call is answered.
    assert!(matches!(predict(&addr, &request()).unwrap(), PredictOutcome::Predicted(_)));
    server.join().unwrap();
}
