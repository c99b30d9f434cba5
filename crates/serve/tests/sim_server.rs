//! The TCP front end end to end: a rejected submission is one typed
//! error line on the stream, and the connection stays usable.

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
