//! `serve_tcp` and `serve_contended`: a closed loop of two clients driving an
//! in-process `SimServer` over the real loopback socket, the way a team
//! shares `sim_server` and waits `submit → done`. One op is one job, timed
//! from the request write to the arrival of its `done` line.
//!
//! `serve_tcp` clients wait for each reply before they send the next request.
//! `serve_contended` clients pipeline: each keeps `PIPELINE` requests
//! outstanding on its connection. The server takes a connection's requests
//! one at a time, so that puts exactly one job per connection in the pool at
//! every moment — two jobs on one worker. The running job then finds the
//! other one waiting at every checkpoint boundary and is preempted there;
//! set-up refuses to measure if the server's own count says otherwise.
//!
//! The client is built to measure the server, not itself: one `write_all`
//! per request, `TCP_NODELAY` on its socket, buffered line reads. A scratch
//! client that wrote each request in fragments (`writeln!` on the bare
//! socket) read 88 ms per job where this one reads 44 ms — so do not "fix"
//! latency here; the 44 ms is the server's.

use crate::fields;
use crate::harness::{alternate, golden_run, repeat_ms, MAX_CYCLES, NO_PROGRESS};
use crate::host::nproc;
use crate::metrics::{LayerValues, OpSample, Samples};
use crate::stats;
use crate::trace::{merge, Span, Tracer};
use craft_serve::{parse_request, parse_submit, ServePool, SimServer, WorkloadId};
use craft_soc::workloads::{orchestrator_program, table_words};
use craft_soc::{build_engine, restore_engine, EngineKind, SegmentStatus, SocConfig};
use craftflow_core::validate_json;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const CLIENTS: usize = 2;
/// The job mix: the six Fig. 6 tests, cycled by each client.
const MIX: [WorkloadId; 6] = [
    WorkloadId::VecMul,
    WorkloadId::DotProduct,
    WorkloadId::Reduction,
    WorkloadId::Conv1d,
    WorkloadId::KmeansAssign,
    WorkloadId::Matvec,
];
const WARMUP_S: f64 = 0.5;
/// The preemption grain of `serve_contended` and the checkpoint experiments.
const CHECKPOINT_EVERY: u64 = 300;
/// Requests a `serve_contended` client keeps outstanding. The server's reply
/// lines reach the client up to 40 ms late (its socket stalls); the pipeline
/// must hold more jobs than the worker finishes in that time, or the
/// connection thread runs dry and the worker idles.
const PIPELINE: usize = 8;
/// Preemptions per job below which `serve_contended` is not contended.
const PREEMPTION_FLOOR: f64 = 1.0;

/// Golden reference of one job of the mix.
struct Golden {
    request: String,
    cycles: u64,
    /// The `report` line's payload as the server renders it (one line).
    report: String,
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// What a client saw of one job, from line-arrival stamps (traced runs).
#[derive(Default, Clone)]
pub struct JobObs {
    queue_ms: f64,
    run_ms: f64,
    tail_ms: f64,
    /// Sum of `preempted` → `resumed` gaps.
    parked_ms: f64,
    bytes: usize,
    lines: usize,
}

/// A request on the wire whose `done` line has not arrived yet.
struct Sent {
    at: Instant,
    at_ns: u64,
    /// The job's `bench.op` span.
    span: u32,
    golden: usize,
}

pub struct Serve {
    workers: usize,
    /// Requests each client keeps outstanding.
    depth: usize,
    golden: Vec<Golden>,
    /// Where in the mix client 0 starts (from the seed).
    rotation: usize,
    addr: SocketAddr,
    clients: Vec<Client>,
    server: Option<JoinHandle<()>>,
}

fn ms_between(a_ns: u64, b_ns: u64) -> f64 {
    b_ns.saturating_sub(a_ns) as f64 / 1e6
}

/// The `n`-th job of client `c`. Clients start half a mix apart so they
/// rarely run the same test at once.
fn mix_index(rotation: usize, c: usize, n: usize) -> usize {
    (rotation + c * MIX.len() / CLIENTS + n) % MIX.len()
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        // A wedged server fails the run instead of hanging it.
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request and reads its single reply line.
    fn ask(&mut self, request: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?;
        Ok(line)
    }

    /// Writes one request, in a single `write_all`.
    fn send(
        &mut self,
        golden: usize,
        g: &Golden,
        op: u32,
        tr: &mut Tracer,
    ) -> Result<Sent, String> {
        let span = tr.open("bench.op", op);
        let (at, at_ns) = (Instant::now(), tr.now_ns());
        self.writer
            .write_all(g.request.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        tr.record(span, "tcp.write", at_ns, tr.now_ns());
        Ok(Sent {
            at,
            at_ns,
            span,
            golden,
        })
    }

    /// Follows the oldest outstanding job's stream to its terminal line and
    /// compares it with the golden reference. Returns the submit→done latency
    /// in ms and, when tracing, the phase stamps. `check_lines` also validates
    /// every line as JSON (the untimed pass).
    fn follow(
        &mut self,
        sent: &Sent,
        g: &Golden,
        tr: &mut Tracer,
        check_lines: bool,
    ) -> Result<(f64, Option<JobObs>), String> {
        let mut obs = JobObs::default();
        let (mut running_ns, mut report_ns, mut parked_ns) = (sent.at_ns, sent.at_ns, sent.at_ns);
        let mut report_ok = false;
        let mut line = String::new();
        loop {
            line.clear();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("server closed the connection mid-job".into());
            }
            let now = Instant::now();
            let now_ns = tr.now_ns();
            obs.bytes += n;
            obs.lines += 1;
            if check_lines {
                validate_json(line.trim_end()).map_err(|e| format!("invalid JSON line: {e}"))?;
            }
            match fields::text(&line, "event") {
                Some("running") => {
                    running_ns = now_ns;
                    tr.record(sent.span, "serve.queue", sent.at_ns, now_ns);
                }
                Some("preempted") => parked_ns = now_ns,
                Some("resumed") => {
                    obs.parked_ms += ms_between(parked_ns, now_ns);
                    tr.record(sent.span, "serve.parked", parked_ns, now_ns);
                }
                Some("report") => {
                    report_ns = now_ns;
                    tr.record(sent.span, "serve.run", running_ns, now_ns);
                    report_ok = line
                        .trim_end()
                        .strip_suffix('}')
                        .is_some_and(|l| l.ends_with(&g.report));
                }
                Some("done") => {
                    tr.record(sent.span, "serve.tail", report_ns, now_ns);
                    tr.close(sent.span);
                    if !report_ok {
                        return Err("report differs from golden".into());
                    }
                    if fields::num(&line, "cycles") != Some(g.cycles as f64)
                        || !line.contains("\"completed\": true")
                    {
                        return Err(format!(
                            "done line differs from golden: {}",
                            line.trim_end()
                        ));
                    }
                    obs.queue_ms = ms_between(sent.at_ns, running_ns);
                    obs.run_ms = ms_between(running_ns, report_ns);
                    obs.tail_ms = ms_between(report_ns, now_ns);
                    let ms = now.duration_since(sent.at).as_secs_f64() * 1e3;
                    return Ok((ms, tr.is_on().then_some(obs)));
                }
                Some("failed" | "error") => {
                    return Err(format!("job refused or failed: {}", line.trim_end()))
                }
                _ => {}
            }
        }
    }
}

impl Serve {
    /// Computes the golden reference of every job of the mix, binds the
    /// server on an ephemeral loopback port, connects the clients and warms
    /// the path up, validating every streamed line.
    pub fn setup(workers: usize, contended: bool, seed: u64) -> Result<Serve, String> {
        if workers.max(CLIENTS) > nproc() {
            return Err(format!(
                "{workers} workers / {CLIENTS} clients need as many cores; this host has {}",
                nproc()
            ));
        }
        let program = orchestrator_program();
        let golden = MIX
            .iter()
            .map(|id| {
                let (cycles, report) = golden_run(SocConfig::default(), &program, &id.workload())?;
                let grain = if contended {
                    format!(" checkpoint_every={CHECKPOINT_EVERY}")
                } else {
                    String::new()
                };
                let report: Vec<&str> = report.split_whitespace().collect();
                Ok(Golden {
                    request: format!("submit workload={id} engine=soc{grain}\n"),
                    cycles,
                    report: format!("\"payload\": {}", report.join(" ")),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;

        let server = SimServer::bind("127.0.0.1:0", workers).map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let handle = std::thread::Builder::new()
            .name("sim-server".into())
            .spawn(move || {
                if let Err(e) = server.serve() {
                    eprintln!("sim server stopped: {e}");
                }
            })
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut s = Serve {
            workers,
            depth: if contended { PIPELINE } else { 1 },
            golden,
            rotation: (seed % MIX.len() as u64) as usize,
            addr,
            clients: Vec::new(),
            server: Some(handle),
        };
        for _ in 0..CLIENTS {
            s.clients.push(Client::connect(addr)?);
        }
        let (warm, ..) = s.closed_loop(WARMUP_S, false, Instant::now(), true);
        if warm.failed > 0 {
            return Err(format!("{} warm-up jobs failed", warm.failed));
        }
        if contended {
            let preemptions = fields::num(&s.server_stats()?, "preemptions").unwrap_or(0.0);
            let per_job = preemptions / warm.ops.len() as f64;
            if per_job < PREEMPTION_FLOOR {
                return Err(format!(
                    "warm-up saw {per_job:.2} preemptions per job, under {PREEMPTION_FLOOR}: \
                     the worker is not contended and the workload would not measure preemption"
                ));
            }
        }
        Ok(s)
    }

    /// Hash of the mix's golden references.
    pub fn digest(&self) -> u64 {
        let text: String = self
            .golden
            .iter()
            .map(|g| format!("{}|{}|{}\n", g.request, g.cycles, g.report))
            .collect();
        craft_sim::checkpoint::fnv64(text.as_bytes())
    }

    /// The closed loop: each client keeps `depth` jobs outstanding and sends
    /// the next when the oldest is done, until `seconds` have passed; then it
    /// waits out the jobs it has in flight (at least one job each).
    pub fn closed_loop(
        &mut self,
        seconds: f64,
        trace: bool,
        epoch: Instant,
        check_lines: bool,
    ) -> (Samples, Vec<Span>, Vec<JobObs>) {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds.max(0.0));
        let (golden, rotation, depth) = (&self.golden, self.rotation, self.depth);
        let per_client: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || {
                        let mut tr = Tracer::new(trace, epoch);
                        let mut s = Samples::default();
                        let mut obs = Vec::new();
                        let mut flight: VecDeque<Sent> = VecDeque::new();
                        let mut n = 0usize;
                        let mut drive = || -> Result<(), String> {
                            loop {
                                while flight.len() < depth && (n == 0 || Instant::now() < deadline)
                                {
                                    let i = mix_index(rotation, c, n);
                                    let op = (n * CLIENTS + c) as u32;
                                    n += 1;
                                    flight.push_back(client.send(i, &golden[i], op, &mut tr)?);
                                }
                                let Some(sent) = flight.pop_front() else {
                                    return Ok(());
                                };
                                let g = &golden[sent.golden];
                                let (ms, o) = client.follow(&sent, g, &mut tr, check_lines)?;
                                s.ops.push(OpSample {
                                    end_s: start.elapsed().as_secs_f64(),
                                    ms,
                                    cycles: g.cycles,
                                });
                                obs.extend(o);
                            }
                        };
                        let outcome = drive();
                        if let Err(why) = outcome {
                            // The stream may be out of step: the job and
                            // those behind it count as failed, and the client stops.
                            s.failed += 1 + flight.len() as u64;
                            eprintln!("client {c}: {why}");
                        }
                        s.window_s = start.elapsed().as_secs_f64();
                        (s, tr.into_spans(), obs)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut all = Samples {
            // Close to one pass of both clients through the mix.
            round_len: MIX.len() * CLIENTS,
            ..Samples::default()
        };
        let (mut spans, mut obs) = (Vec::new(), Vec::new());
        for (s, sp, o) in per_client {
            all.ops.extend(s.ops);
            all.failed += s.failed;
            all.window_s = all.window_s.max(s.window_s);
            merge(&mut spans, sp);
            obs.extend(o);
        }
        (all, spans, obs)
    }

    /// The server's `stats` line over a connection of its own.
    fn server_stats(&self) -> Result<String, String> {
        Client::connect(self.addr)?.ask("stats")
    }

    /// Per-layer numbers of the serve stack: a traced closed loop of
    /// `seconds` between two reads of the `stats` verb, then the separate
    /// passes of about `budget_s`. Returns the traced loop's samples.
    pub fn layers(
        &mut self,
        epoch: Instant,
        seconds: f64,
        budget_s: f64,
        out: &mut LayerValues,
    ) -> Result<(Samples, Vec<Span>), String> {
        let before = self.server_stats()?;
        let (samples, spans, obs) = self.closed_loop(seconds, true, epoch, false);
        let after = self.server_stats()?;
        let jobs = obs.len().max(1) as f64;
        let delta = |key| {
            let (a, b) = (fields::num(&after, key), fields::num(&before, key));
            a.zip(b).map_or(0.0, |(a, b)| a - b)
        };
        out.insert("serve.preemptions_per_job", delta("preemptions") / jobs);
        out.insert("serve.segments_per_job", delta("segments") / jobs);
        let p50 =
            |f: &dyn Fn(&JobObs) -> f64| stats::median(&obs.iter().map(f).collect::<Vec<_>>());
        let avg = |f: &dyn Fn(&JobObs) -> f64| stats::mean(&obs.iter().map(f).collect::<Vec<_>>());
        out.insert("serve.queue_ms", p50(&|o| o.queue_ms));
        out.insert("serve.run_ms", p50(&|o| o.run_ms));
        out.insert("serve.tail_ms", p50(&|o| o.tail_ms));
        out.insert("serve.stream_bytes_per_job", avg(&|o| o.bytes as f64));
        out.insert("serve.lines_per_job", avg(&|o| o.lines as f64));
        out.insert("serve.restore_ms_per_job", avg(&|o| o.parked_ms));
        let on_worker_ms: f64 = obs.iter().map(|o| o.run_ms - o.parked_ms).sum();
        out.insert(
            "serve.worker_busy_frac",
            on_worker_ms / (self.workers as f64 * samples.window_s * 1e3),
        );

        // The same mix through an in-process pool: what is left of a job's
        // latency once the socket, and the wait behind the requests pipelined
        // ahead of it, are taken away.
        let pool_ms = self.pool_p50_ms(budget_s / 2.0)?;
        out.insert("serve.pool_job_ms", pool_ms);
        out.insert("serve.wire_ms", stats::median(&samples.op_ms()) - pool_ms);

        let lines: Vec<&str> = self.golden.iter().map(|g| g.request.trim_end()).collect();
        let reps = 2_000;
        let t0 = Instant::now();
        for _ in 0..reps {
            for l in &lines {
                std::hint::black_box(parse_request(std::hint::black_box(l)))
                    .map_err(|e| e.to_string())?;
            }
        }
        out.insert(
            "serve.wire.parse_us",
            t0.elapsed().as_secs_f64() * 1e6 / (reps * lines.len()) as f64,
        );
        Ok((samples, spans))
    }

    /// What the pool sees of the closed loop — one job per connection at a
    /// time, whatever the pipeline depth — fed in-process by `CLIENTS` threads
    /// to a `ServePool` of the server's size: median submit→wait latency in
    /// ms.
    fn pool_p50_ms(&self, budget_s: f64) -> Result<f64, String> {
        let pool = ServePool::new(self.workers);
        let deadline = Instant::now() + Duration::from_secs_f64(budget_s.max(0.0));
        let (golden, rotation, pool_ref) = (&self.golden, self.rotation, &pool);
        let per_thread: Vec<Result<Vec<f64>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    scope.spawn(move || {
                        let mut ms = Vec::new();
                        let mut n = 0usize;
                        while ms.is_empty() || Instant::now() < deadline {
                            let g = &golden[mix_index(rotation, c, n)];
                            n += 1;
                            let body = g.request.trim_start_matches("submit").trim();
                            let spec = parse_submit(body).map_err(|e| e.to_string())?;
                            let t0 = Instant::now();
                            let id = pool_ref.submit(spec).map_err(|e| e.to_string())?;
                            let outcome = pool_ref
                                .wait(id)
                                .map_err(|e| e.to_string())?
                                .map_err(|e| e.to_string())?;
                            ms.push(t0.elapsed().as_secs_f64() * 1e3);
                            if outcome.cycles != g.cycles {
                                return Err(format!("pool job: {} cycles", outcome.cycles));
                            }
                        }
                        Ok(ms)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pool client thread"))
                .collect()
        });
        pool.shutdown();
        let mut all = Vec::new();
        for ms in per_thread {
            all.extend(ms?);
        }
        Ok(stats::median(&all))
    }
}

impl Drop for Serve {
    /// Stops the server and waits for its threads; errors are only logged.
    fn drop(&mut self) {
        if let Some(c) = self.clients.first_mut() {
            if let Err(e) = c.ask("shutdown") {
                eprintln!("server shutdown request failed: {e}");
            }
        }
        for c in self.clients.drain(..) {
            let _ = c.writer.shutdown(Shutdown::Both);
        }
        if let Some(h) = self.server.take() {
            if h.join().is_err() {
                eprintln!("server thread panicked");
            }
        }
    }
}

/// craft-soc checkpoint at engine level on matvec (the longest test): what a
/// preemption costs `serve_contended`, with the server taken away.
pub fn checkpoint_layers(out: &mut LayerValues) -> Result<(), String> {
    let wl = WorkloadId::Matvec.workload();
    let (program, table) = (orchestrator_program(), table_words(&wl.entries));
    let build = |every: Option<u64>| {
        let cfg = SocConfig {
            checkpoint_every: every,
            ..SocConfig::default()
        };
        build_engine(
            EngineKind::Soc,
            cfg,
            &program,
            &table,
            &wl.gmem_init,
            &[],
            false,
        )
        .map_err(|e| e.to_string())
    };
    let median_us = |f: &mut dyn FnMut()| repeat_ms(5, f) * 1e3;

    let run_whole = || -> Result<_, String> {
        let mut eng = build(None)?;
        let res = eng
            .run_checked(MAX_CYCLES, NO_PROGRESS)
            .map_err(|e| e.to_string())?;
        Ok((res.cycles, eng.report()))
    };
    let (total, whole_report) = run_whole()?;

    // Snapshot and restore cost by capture cycle.
    let mut eng = build(Some(CHECKPOINT_EVERY))?;
    eng.begin(MAX_CYCLES, NO_PROGRESS);
    let mut at = 0;
    for (cycle, name) in [
        (300, "soc.checkpoint.restore_us_c300"),
        (1200, "soc.checkpoint.restore_us_c1200"),
        (3600, "soc.checkpoint.restore_us_c3600"),
    ] {
        while at < cycle {
            match eng.step_segment().map_err(|e| e.to_string())? {
                SegmentStatus::Boundary => at += CHECKPOINT_EVERY,
                SegmentStatus::Done(_) => return Err(format!("matvec ended before cycle {cycle}")),
            }
        }
        let bytes = eng.snapshot_bytes();
        if cycle == 300 {
            out.insert("soc.checkpoint.snapshot_bytes", bytes.len() as f64);
            out.insert(
                "soc.checkpoint.snapshot_us",
                median_us(&mut || {
                    std::hint::black_box(eng.snapshot_bytes());
                }),
            );
        }
        out.insert(
            name,
            median_us(&mut || {
                std::hint::black_box(restore_engine(EngineKind::Soc, &bytes, false).is_ok());
            }),
        );
    }

    // The chain a contended server runs: snapshot, drop, restore at every
    // boundary.
    let run_chain = || -> Result<_, String> {
        let mut eng = build(Some(CHECKPOINT_EVERY))?;
        eng.begin(MAX_CYCLES, NO_PROGRESS);
        let (mut at, mut replayed) = (0u64, 0u64);
        loop {
            match eng.step_segment().map_err(|e| e.to_string())? {
                SegmentStatus::Done(r) => return Ok((r.cycles, eng.report(), replayed)),
                SegmentStatus::Boundary => {
                    at += CHECKPOINT_EVERY;
                    replayed += at;
                    let bytes = eng.snapshot_bytes();
                    eng = restore_engine(EngineKind::Soc, &bytes, false)
                        .map_err(|e| format!("{e:?}"))?;
                }
            }
        }
    };
    let (cycles, report, replayed) = run_chain()?;
    if cycles != total || report != whole_report {
        return Err("restore chain is not identical to the uninterrupted run".into());
    }
    let (whole_ms, chain_ms) = alternate(
        0.0,
        3,
        &mut || {
            std::hint::black_box(run_whole().is_ok());
        },
        &mut || {
            std::hint::black_box(run_chain().is_ok());
        },
    );
    out.insert("soc.checkpoint.chain_slowdown_x", chain_ms / whole_ms);
    out.insert(
        "soc.checkpoint.replayed_cycles_per_useful_cycle",
        replayed as f64 / total as f64,
    );
    Ok(())
}
