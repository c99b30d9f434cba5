//! The TCP front end end to end: a rejected submission is one typed
//! error line on the stream, and the connection stays usable; an
//! oversized request line is one typed error line, then the connection
//! closes.

use craft_serve::server::MAX_REQUEST_BYTES;
use craft_serve::SimServer;
use craftflow_core::validate_json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// A `parallel:*` spelling (the retired sharded engine) is refused
/// with an `error` line naming the unknown engine; the same
/// connection then runs a `soc` job to `done`.
#[test]
fn a_sharded_engine_spelling_is_rejected_and_the_connection_serves_on() {
    let server = SimServer::bind("127.0.0.1:0", 1).expect("binds");
    let addr = server.local_addr().expect("bound");
    let serving = std::thread::spawn(move || server.serve());

    let mut conn = TcpStream::connect(addr).expect("connects");
    let mut lines = BufReader::new(conn.try_clone().expect("clones")).lines();
    let mut next = || lines.next().expect("a line").expect("readable");

    writeln!(conn, "submit workload=vec_mul engine=parallel:2").unwrap();
    let refused = next();
    validate_json(&refused).unwrap_or_else(|e| panic!("{e} in {refused}"));
    assert_eq!(
        refused,
        r#"{"event": "error", "detail": "bad request: unknown engine \"parallel:2\""}"#
    );

    writeln!(conn, "submit workload=vec_mul engine=soc").unwrap();
    let done = loop {
        let line = next();
        validate_json(&line).unwrap_or_else(|e| panic!("{e} in {line}"));
        assert!(!line.contains(r#""event": "failed""#), "{line}");
        assert!(!line.contains(r#""event": "error""#), "{line}");
        if line.contains(r#""event": "done""#) {
            break line;
        }
    };
    assert!(done.contains(r#""completed": true"#), "{done}");

    writeln!(conn, "shutdown").unwrap();
    assert_eq!(next(), r#"{"event": "shutting_down"}"#);
    serving
        .join()
        .expect("server thread")
        .expect("clean shutdown");
}

/// A request line longer than the server reads gets one typed `error`
/// line and the connection is closed; the server serves a new
/// connection as before.
#[test]
fn an_oversized_request_line_is_refused_and_the_connection_closed() {
    let server = SimServer::bind("127.0.0.1:0", 1).expect("binds");
    let addr = server.local_addr().expect("bound");
    let serving = std::thread::spawn(move || server.serve());

    // Exactly one byte over, with no newline: the server consumes all of
    // it, so closing sends a clean end of stream rather than a reset.
    let mut conn = TcpStream::connect(addr).expect("connects");
    conn.write_all(&vec![b'x'; MAX_REQUEST_BYTES + 1])
        .expect("writes");
    let mut lines = BufReader::new(conn.try_clone().expect("clones")).lines();
    let refused = lines.next().expect("a line").expect("readable");
    validate_json(&refused).unwrap_or_else(|e| panic!("{e} in {refused}"));
    assert_eq!(
        refused,
        r#"{"event": "error", "detail": "bad request: request line longer than 65536 bytes"}"#
    );
    assert!(lines.next().is_none(), "the connection is closed");

    let mut conn = TcpStream::connect(addr).expect("connects");
    let mut lines = BufReader::new(conn.try_clone().expect("clones")).lines();
    writeln!(conn, "shutdown").unwrap();
    assert_eq!(
        lines.next().expect("a line").expect("readable"),
        r#"{"event": "shutting_down"}"#
    );
    serving
        .join()
        .expect("server thread")
        .expect("clean shutdown");
}
