//! The repo's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! craftflow-benchmark --workload W --seed N --seconds S --trace 0|1   one run, result line last
//! craftflow-benchmark run     [--seed N] [--seconds S] [--repeat R] [--out F]   every workload, untraced
//! craftflow-benchmark trace   [--seed N] [--seconds S] [--out F]                every workload, traced
//! craftflow-benchmark compare A.json B.json                                     two result files
//! ```

mod campaign;
mod compare;
mod fields;
mod fig6;
mod harness;
mod host;
mod metrics;
mod runner;
mod serve;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

/// Seed `run` and `trace` use unless told otherwise, and the seed the
/// campaign digests in `workload::DIGESTS` were recorded at.
pub const DEFAULT_SEED: u64 = 1;
/// Matches `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 18.0;

/// Set by the campaign workloads: fail-stop lanes panic under
/// `catch_unwind` by design, thousands of times a run.
pub static EXPECT_PANICS: AtomicBool = AtomicBool::new(false);

/// `--key value` pairs after an optional subcommand.
pub struct Args {
    pub command: Option<String>,
    pub positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            command: None,
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut argv = argv.peekable();
        if argv.peek().is_some_and(|a| !a.starts_with("--")) {
            args.command = argv.next();
        }
        while let Some(a) = argv.next() {
            match a.strip_prefix("--") {
                Some(key) => {
                    let value = argv.next().ok_or(format!("--{key} needs a value"))?;
                    args.flags.push((key.to_string(), value));
                }
                None => args.positional.push(a),
            }
        }
        Ok(args)
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{key} {v:?}")),
        }
    }
}

fn real_main() -> Result<bool, String> {
    let args = Args::parse(std::env::args().skip(1))?;
    match args.command.as_deref() {
        None => {
            let name = args.get("workload").ok_or("missing --workload")?;
            let opts = workload::Opts {
                seed: args.num("seed", DEFAULT_SEED)?,
                seconds: args.num("seconds", DEFAULT_SECONDS)?,
                trace: match args.get("trace") {
                    None | Some("0") => false,
                    Some("1") => true,
                    Some(v) => return Err(format!("bad --trace {v:?}")),
                },
            };
            let out = workload::run(name, &opts)?;
            println!("{}", out.info);
            println!("{}", out.line);
            Ok(out.correct)
        }
        Some("run") => runner::run_all(&args, false),
        Some("trace") => runner::run_all(&args, true),
        Some("compare") => match &args.positional[..] {
            [a, b] => compare::compare_files(a, b),
            _ => Err("compare needs two result files".into()),
        },
        Some(other) => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    // No default hook: it would print (and with RUST_BACKTRACE set, capture
    // a backtrace for) every expected fail-stop panic inside the timed ops.
    std::panic::set_hook(Box::new(|info| {
        if !EXPECT_PANICS.load(Ordering::Relaxed) {
            eprintln!("{info}");
        }
    }));
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
