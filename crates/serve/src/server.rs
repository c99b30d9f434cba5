//! The TCP front end: one listener, one thread per connection,
//! requests and responses as single lines (see [`crate::wire`]).
//!
//! A `submit` request streams the job's full JSON event stream back
//! on the same connection — blocking tails of the job record's line
//! log — and leaves the connection open for the next request.
//! `shutdown` drains the pool and stops the accept loop. A request
//! line longer than [`MAX_REQUEST_BYTES`] gets one `error` line and
//! the connection is closed, so no client can make the server buffer
//! an unbounded line.

use crate::job::ServeError;
use crate::pool::ServePool;
use crate::wire::{parse_request, Request};
use craftflow_core::json_escape;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Longest request line the server reads, newline excluded.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// A running simulation job server.
pub struct SimServer {
    listener: TcpListener,
    pool: Arc<ServePool>,
    stop: Arc<AtomicBool>,
}

fn error_line(e: &ServeError) -> String {
    format!(
        "{{\"event\": \"error\", \"detail\": \"{}\"}}",
        json_escape(&e.to_string())
    )
}

impl SimServer {
    /// Binds `addr` (port 0 picks an ephemeral port) and spawns a
    /// pool of `workers` worker threads.
    pub fn bind(addr: &str, workers: usize) -> Result<SimServer, ServeError> {
        let listener = TcpListener::bind(addr).map_err(|e| ServeError::Io(e.to_string()))?;
        Ok(SimServer {
            listener,
            pool: Arc::new(ServePool::new(workers)),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (read the ephemeral port from here).
    pub fn local_addr(&self) -> Result<SocketAddr, ServeError> {
        self.listener
            .local_addr()
            .map_err(|e| ServeError::Io(e.to_string()))
    }

    /// Serves connections until a client sends `shutdown`; then
    /// drains the pool and returns.
    pub fn serve(self) -> Result<(), ServeError> {
        let addr = self.local_addr()?;
        let mut conns = Vec::new();
        for stream in self.listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            let pool = Arc::clone(&self.pool);
            let stop = Arc::clone(&self.stop);
            conns.push(std::thread::spawn(move || {
                let _ = handle_conn(stream, &pool, &stop, addr);
            }));
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
        }
        for c in conns {
            let _ = c.join();
        }
        Ok(())
    }

    /// Signals the accept loop to stop (used by the `shutdown`
    /// request handler; a no-op connection unblocks `accept`).
    fn request_stop(stop: &AtomicBool, addr: SocketAddr) {
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
    }
}

fn handle_conn(
    stream: TcpStream,
    pool: &ServePool,
    stop: &AtomicBool,
    addr: SocketAddr,
) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let limit = MAX_REQUEST_BYTES as u64 + 1;
        if (&mut reader).take(limit).read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        if buf.len() > MAX_REQUEST_BYTES && buf.last() != Some(&b'\n') {
            let e = ServeError::BadRequest(format!(
                "request line longer than {MAX_REQUEST_BYTES} bytes"
            ));
            writeln!(writer, "{}", error_line(&e))?;
            break;
        }
        let line = String::from_utf8_lossy(&buf);
        if line.trim().is_empty() {
            continue;
        }
        match parse_request(&line) {
            Err(e) => writeln!(writer, "{}", error_line(&e))?,
            Ok(Request::Stats) => writeln!(writer, "{}", pool.stats().to_json())?,
            Ok(Request::Cancel(id)) => match pool.cancel(id) {
                Ok(()) => writeln!(writer, "{{\"event\": \"cancel_requested\", \"job\": {id}}}")?,
                Err(e) => writeln!(writer, "{}", error_line(&e))?,
            },
            Ok(Request::Shutdown) => {
                writeln!(writer, "{{\"event\": \"shutting_down\"}}")?;
                SimServer::request_stop(stop, addr);
                break;
            }
            Ok(Request::Submit(spec)) => match pool.submit(spec) {
                Err(e) => writeln!(writer, "{}", error_line(&e))?,
                Ok(id) => {
                    // Tail the job's line log until the stream seals.
                    let mut cursor = 0usize;
                    loop {
                        let (lines, finished) = match pool.lines_from(id, cursor) {
                            Ok(r) => r,
                            Err(e) => {
                                writeln!(writer, "{}", error_line(&e))?;
                                break;
                            }
                        };
                        cursor += lines.len();
                        for l in lines {
                            writeln!(writer, "{l}")?;
                        }
                        if finished {
                            break;
                        }
                    }
                }
            },
        }
        writer.flush()?;
    }
    Ok(())
}
