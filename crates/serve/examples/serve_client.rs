//! `serve_client` — reference client for `sim_server`.
//!
//! ```text
//! serve_client --port N [--preempt-demo] [--shutdown]
//! ```
//!
//! Default mode submits one `vec_mul` job and prints its JSON stream.
//! `--preempt-demo` is the CI smoke: two checkpointed jobs contend
//! for a smaller pool until at least one checkpoint-boundary
//! preemption is observed; both must resume and finish clean — and
//! **every** line the server streams must pass `validate_json`. Run
//! against a 1-worker server, the final `stats` line must then show
//! preemptions and no replay (`restores` 0): every resume took the
//! engine parked on the one worker.
//! `--shutdown` sends the shutdown request at the end.

use craftflow_core::validate_json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;

struct Stream {
    lines: Vec<String>,
}

/// Sends one request line and collects the response stream until the
/// job's terminal event (or one line for non-submit requests).
fn roundtrip(port: u16, request: &str, until_terminal: bool) -> Result<Stream, String> {
    let stream = TcpStream::connect(("127.0.0.1", port)).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    writeln!(writer, "{request}").map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream);
    let mut lines = Vec::new();
    for line in reader.lines() {
        let line = line.map_err(|e| e.to_string())?;
        validate_json(&line).map_err(|e| format!("invalid JSON from server: {e}\n{line}"))?;
        let terminal = line.contains("\"event\": \"done\"")
            || line.contains("\"event\": \"failed\"")
            || line.contains("\"event\": \"error\"");
        lines.push(line);
        if !until_terminal || terminal {
            break;
        }
    }
    Ok(Stream { lines })
}

fn expect_events(stream: &Stream, wanted: &[&str]) -> Result<(), String> {
    for tag in wanted {
        let needle = format!("\"event\": \"{tag}\"");
        if !stream.lines.iter().any(|l| l.contains(&needle)) {
            return Err(format!(
                "missing {tag:?} event in stream:\n{}",
                stream.lines.join("\n")
            ));
        }
    }
    Ok(())
}

/// Extracts an integer field from a single-line stats JSON object.
fn stat_field(line: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\": ");
    let rest = &line[line.find(&tag)? + tag.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Reads the server's stats line and returns `(submitted, done+failed)`.
fn poll_stats(port: u16) -> Result<(u64, u64), String> {
    let stats = roundtrip(port, "stats", false)?;
    let line = stats.lines.join("");
    let submitted = stat_field(&line, "submitted").unwrap_or(0);
    let finished =
        stat_field(&line, "done").unwrap_or(0) + stat_field(&line, "failed").unwrap_or(0);
    Ok((submitted, finished))
}

/// One attempt at forcing contention: submit the heavy job, hold the
/// light job until the server's stats show the heavy job in flight,
/// then submit it. Returns `None` when the heavy job finished before
/// contention could be established (jobs are millisecond-scale, so
/// this can race) — the caller retries. Every streamed line is still
/// JSON-validated either way.
fn preempt_round(port: u16) -> Result<Option<(Stream, Stream)>, String> {
    let heavy = "submit workload=conv1d_heavy engine=soc checkpoint_every=150 telemetry=1";
    let light = "submit workload=vec_mul engine=soc checkpoint_every=300 telemetry=1";
    let (base_submitted, base_finished) = poll_stats(port)?;
    let a = std::thread::spawn(move || roundtrip(port, heavy, true));
    let mut in_flight = false;
    for _ in 0..500 {
        let (submitted, finished) = poll_stats(port)?;
        if finished > base_finished {
            break; // the heavy job already finished; contention lost
        }
        if submitted > base_submitted {
            in_flight = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    if !in_flight {
        a.join().map_err(|_| "client thread panicked")??;
        return Ok(None);
    }
    let b = std::thread::spawn(move || roundtrip(port, light, true));
    let a = a.join().map_err(|_| "client thread panicked")??;
    let b = b.join().map_err(|_| "client thread panicked")??;
    Ok(Some((a, b)))
}

fn preempt_demo(port: u16) -> Result<(), String> {
    // Two checkpointed jobs on a pool with fewer workers than jobs:
    // the contention policy must preempt at checkpoint boundaries and
    // resume from snapshots. A single round can lose the race against
    // a millisecond-scale job, so retry bounded rounds until one
    // catches the heavy job in flight AND observes a preemption; the
    // lifecycle invariants are asserted on every round that contends.
    const ROUNDS: usize = 25;
    for round in 1..=ROUNDS {
        let Some((a, b)) = preempt_round(port)? else {
            continue;
        };
        let mut preempts = 0usize;
        for (name, s) in [("job A", &a), ("job B", &b)] {
            expect_events(s, &["queued", "running", "report", "telemetry", "done"])
                .map_err(|e| format!("{name}: {e}"))?;
            if !s.lines.iter().any(|l| l.contains("\"completed\": true")) {
                return Err(format!("{name} did not complete:\n{}", s.lines.join("\n")));
            }
            let preempted = s
                .lines
                .iter()
                .filter(|l| l.contains("\"event\": \"preempted\""))
                .count();
            let resumed = s
                .lines
                .iter()
                .filter(|l| l.contains("\"event\": \"resumed\""))
                .count();
            if preempted != resumed {
                return Err(format!("{name}: unbalanced preempt/resume"));
            }
            preempts += preempted;
        }
        if preempts > 0 {
            println!(
                "preempt demo ok: {} + {} stream lines, {preempts} preemptions \
                 (round {round}), all JSON valid",
                a.lines.len(),
                b.lines.len()
            );
            return Ok(());
        }
    }
    Err(format!("no preemption observed in {ROUNDS} rounds"))
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let port = args
        .iter()
        .position(|a| a == "--port")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<u16>().ok())
        .ok_or("usage: serve_client --port N [--preempt-demo] [--shutdown]")?;
    let demo = args.iter().any(|a| a == "--preempt-demo");
    if demo {
        preempt_demo(port)?;
    } else {
        let s = roundtrip(
            port,
            "submit workload=vec_mul engine=soc checkpoint_every=500",
            true,
        )?;
        for l in &s.lines {
            println!("{l}");
        }
        expect_events(&s, &["queued", "running", "report", "done"])?;
    }
    let stats = roundtrip(port, "stats", false)?.lines.join("");
    println!("server stats: {stats}");
    if demo {
        let preemptions = stat_field(&stats, "preemptions").unwrap_or(0);
        if preemptions == 0 || stat_field(&stats, "restores") != Some(0) {
            return Err(format!(
                "want preemptions > 0 and restores == 0 from a 1-worker server: {stats}"
            ));
        }
    }
    if args.iter().any(|a| a == "--shutdown") {
        roundtrip(port, "shutdown", false)?;
        println!("shutdown requested");
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve_client: {e}");
            ExitCode::FAILURE
        }
    }
}
