//! The line-oriented wire protocol.
//!
//! Requests are single text lines (`submit key=value ...`,
//! `cancel <id>`, `stats`, `shutdown`); every response is one JSON
//! line in the PR 4 validated format — lifecycle events, then the
//! `report`/`telemetry` payloads, then the terminal `done`/`failed`
//! event. Submissions are deliberately *not* JSON (the repo has no
//! JSON parser by design — emission is hand-rolled and checked with
//! [`craftflow_core::validate_json`]); `key=value` keeps parsing
//! trivial and typed.
//!
//! Submission keys:
//!
//! | key | value | default |
//! |-----|-------|---------|
//! | `workload` | `vec_mul`, `dot_product`, ... | required |
//! | `engine` | `soc`, `batch` | `soc` |
//! | `max_cycles` | u64 | 8,000,000 |
//! | `no_progress_limit` | u64 | 50,000 |
//! | `checkpoint_every` | u64 (also the preemption grain) | unset |
//! | `deadline` | u64 scheduler segments | unset |
//! | `telemetry` | `0`/`1` | `0` |
//! | `fidelity` | `rtl`, `rtl_compiled`, `sim_accurate` | config default |
//! | `clocking` | `sync` or `gals:<spread_ppm>` | config default |
//! | `fault` | `pattern:kind:param:seed`, repeatable | none |
//!
//! Fault kinds: `bit_flip`, `drop`, `duplicate` (param = probability),
//! `stuck_valid`, `stuck_ready` (param = from-cycle).

use crate::job::{JobSpec, ServeError, WorkloadId};
use craft_connections::FaultConfig;
use craft_soc::pe::Fidelity;
use craft_soc::{ClockingMode, EngineKind, LaneSpec};

fn bad(msg: impl Into<String>) -> ServeError {
    ServeError::BadRequest(msg.into())
}

fn parse_fault(v: &str) -> Result<LaneSpec, ServeError> {
    // pattern:kind:param:seed — pattern may itself contain ':' only
    // if escaped; channel names in this repo never do.
    let parts: Vec<&str> = v.split(':').collect();
    let [pattern, kind, param, seed] = parts[..] else {
        return Err(bad(format!(
            "fault must be pattern:kind:param:seed, got {v:?}"
        )));
    };
    let seed: u64 = seed
        .parse()
        .map_err(|_| bad(format!("bad fault seed {seed:?}")))?;
    let prob = || -> Result<f64, ServeError> {
        param
            .parse::<f64>()
            .ok()
            .filter(|p| (0.0..=1.0).contains(p))
            .ok_or_else(|| bad(format!("bad fault probability {param:?}")))
    };
    let from = || -> Result<u64, ServeError> {
        param
            .parse()
            .map_err(|_| bad(format!("bad fault from-cycle {param:?}")))
    };
    let cfg = match kind {
        "bit_flip" => FaultConfig::bit_flip(prob()?),
        "drop" => FaultConfig::drop(prob()?),
        "duplicate" => FaultConfig::duplicate(prob()?),
        "stuck_valid" => FaultConfig::stuck_valid(from()?),
        "stuck_ready" => FaultConfig::stuck_ready(from()?),
        _ => return Err(bad(format!("unknown fault kind {kind:?}"))),
    };
    Ok(LaneSpec::new(pattern, cfg, seed))
}

/// Parses the body of a `submit` request (everything after the verb)
/// into a typed [`JobSpec`].
pub fn parse_submit(body: &str) -> Result<JobSpec, ServeError> {
    let mut workload = None;
    let mut spec = JobSpec::new(WorkloadId::VecMul, EngineKind::Soc);
    for tok in body.split_whitespace() {
        let (key, value) = tok
            .split_once('=')
            .ok_or_else(|| bad(format!("expected key=value, got {tok:?}")))?;
        match key {
            "workload" => {
                workload = Some(
                    WorkloadId::parse(value)
                        .ok_or_else(|| bad(format!("unknown workload {value:?}")))?,
                );
            }
            "engine" => {
                spec.engine = EngineKind::parse(value).map_err(|e| bad(e.to_string()))?;
            }
            "max_cycles" => {
                spec.max_cycles = value
                    .parse()
                    .map_err(|_| bad(format!("bad max_cycles {value:?}")))?;
            }
            "no_progress_limit" => {
                spec.no_progress_limit = value
                    .parse()
                    .map_err(|_| bad(format!("bad no_progress_limit {value:?}")))?;
            }
            "checkpoint_every" => {
                let every = value
                    .parse()
                    .map_err(|_| bad(format!("bad checkpoint_every {value:?}")))?;
                spec.cfg.checkpoint_every = Some(every);
            }
            "deadline" => {
                let d = value
                    .parse()
                    .map_err(|_| bad(format!("bad deadline {value:?}")))?;
                spec.deadline_segments = Some(d);
            }
            "telemetry" => {
                spec.telemetry = match value {
                    "1" | "true" => true,
                    "0" | "false" => false,
                    _ => return Err(bad(format!("bad telemetry flag {value:?}"))),
                };
            }
            "fidelity" => {
                spec.cfg.fidelity = match value {
                    "rtl" => Fidelity::Rtl,
                    "rtl_compiled" => Fidelity::RtlCompiled,
                    "sim_accurate" => Fidelity::SimAccurate,
                    _ => return Err(bad(format!("unknown fidelity {value:?}"))),
                };
            }
            "clocking" => {
                spec.cfg.clocking = match value {
                    "sync" => ClockingMode::Synchronous,
                    _ => match value.strip_prefix("gals:").and_then(|p| p.parse().ok()) {
                        Some(spread_ppm) => ClockingMode::Gals { spread_ppm },
                        None => return Err(bad(format!("unknown clocking {value:?}"))),
                    },
                };
            }
            "fault" => spec.faults.push(parse_fault(value)?),
            _ => return Err(bad(format!("unknown key {key:?}"))),
        }
    }
    spec.workload = workload.ok_or_else(|| bad("missing workload="))?;
    Ok(spec)
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `submit key=value ...`
    Submit(JobSpec),
    /// `cancel <id>`
    Cancel(u64),
    /// `stats`
    Stats,
    /// `shutdown`
    Shutdown,
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, ServeError> {
    let line = line.trim();
    let (verb, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
    match verb {
        "submit" => Ok(Request::Submit(parse_submit(rest)?)),
        "cancel" => rest
            .trim()
            .parse()
            .map(Request::Cancel)
            .map_err(|_| bad(format!("bad job id {rest:?}"))),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        _ => Err(bad(format!("unknown request {verb:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_lines_parse_to_typed_specs() {
        let spec = parse_submit(
            "workload=dot_product engine=batch max_cycles=1000000 \
             no_progress_limit=9000 checkpoint_every=300 deadline=40 telemetry=1 \
             fidelity=sim_accurate clocking=gals:500 \
             fault=l11p3->15:bit_flip:0.01:7 fault=hub:drop:0.5:9",
        )
        .expect("parses");
        assert_eq!(spec.workload, WorkloadId::DotProduct);
        assert_eq!(spec.engine, EngineKind::Batch);
        assert_eq!(spec.max_cycles, 1_000_000);
        assert_eq!(spec.no_progress_limit, 9_000);
        assert_eq!(spec.cfg.checkpoint_every, Some(300));
        assert_eq!(spec.deadline_segments, Some(40));
        assert!(spec.telemetry);
        assert_eq!(spec.cfg.fidelity, Fidelity::SimAccurate);
        assert_eq!(spec.cfg.clocking, ClockingMode::Gals { spread_ppm: 500 });
        assert_eq!(spec.faults.len(), 2);
        assert_eq!(spec.faults[0].pattern, "l11p3->15");
    }

    #[test]
    fn sharded_engine_spellings_are_typed_rejections() {
        for engine in [
            "parallel",
            "parallel:2",
            "parallel:4",
            "parallel:3:auto",
            "parallel:spec:0000111122223333",
        ] {
            let line = format!("workload=vec_mul engine={engine}");
            assert_eq!(
                parse_submit(&line),
                Err(ServeError::BadRequest(format!("unknown engine {engine:?}"))),
                "{line:?} should be rejected"
            );
        }
    }

    #[test]
    fn malformed_submissions_are_typed_rejections() {
        for bad_line in [
            "engine=soc",                              // missing workload
            "workload=nope",                           // unknown workload
            "workload=vec_mul engine=quantum",         // unknown engine
            "workload=vec_mul max_cycles=lots",        // bad number
            "workload=vec_mul fault=a:bit_flip:2.0:1", // probability > 1
            "workload=vec_mul colour=blue",            // unknown key
        ] {
            assert!(
                matches!(parse_submit(bad_line), Err(ServeError::BadRequest(_))),
                "{bad_line:?} should be rejected"
            );
        }
    }

    #[test]
    fn request_verbs_parse() {
        assert!(matches!(
            parse_request("submit workload=vec_mul"),
            Ok(Request::Submit(_))
        ));
        assert_eq!(parse_request("cancel 3").unwrap(), Request::Cancel(3));
        assert_eq!(parse_request("stats").unwrap(), Request::Stats);
        assert_eq!(parse_request("shutdown").unwrap(), Request::Shutdown);
        assert!(parse_request("frobnicate").is_err());
    }
}
