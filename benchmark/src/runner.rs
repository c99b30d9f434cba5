//! `run` and `trace`: every workload, each run in a child process of its
//! own so peak memory and server threads do not leak between workloads.

use crate::metrics::{EndToEnd, END_TO_END, PER_LAYER, WHOLE_WINDOW, WORKLOADS};
use crate::{fields, host, stats, Args, DEFAULT_SECONDS, DEFAULT_SEED};
use std::process::{Command, Stdio};

/// Runs this binary once in driver mode and returns the last two lines of its
/// standard output: the run's `sim_digest` and whole-window statistics, and
/// the result line.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<(String, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    if !out.status.success() {
        // The child's own account of what went wrong.
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    match (lines.next(), lines.next()) {
        (Some(line), Some(info)) if fields::text(info, "sim_digest").is_some() => {
            Ok((info.to_string(), line.to_string()))
        }
        _ => Err(format!("{workload}: no result line ({})", out.status)),
    }
}

/// Runs every workload `--repeat` times, prints every metric by name with
/// unit, sample count and bound, and writes the result file: a header line
/// with the host stamp, then one line per run. `Ok(false)` when any run was
/// incorrect.
pub fn run_all(args: &Args, trace: bool) -> Result<bool, String> {
    let seed: u64 = args.num("seed", DEFAULT_SEED)?;
    let seconds: f64 = args.num("seconds", DEFAULT_SECONDS)?;
    let repeat: usize = args.num("repeat", 1)?;
    let kind = if trace { "trace" } else { "run" };
    let default_out = format!("{}/out/{kind}.json", env!("CARGO_MANIFEST_DIR"));
    let out_path = args.get("out").unwrap_or(&default_out);

    let mut all_correct = true;
    let mut records = Vec::new();
    for w in &WORKLOADS {
        let (workload, why) = (w.name, w.why);
        let mut lines = Vec::new();
        for r in 0..repeat {
            eprintln!("{kind}: {workload} ({}/{repeat})", r + 1);
            let (info, line) = child(workload, seed, seconds, trace)?;
            let record =
                format!("{{\"workload\": \"{workload}\", \"run\": {info}, \"result\": {line}}}");
            lines.push(record.clone());
            records.push(record);
        }
        let correct = lines.iter().all(|l| l.contains("\"correct\": true"));
        all_correct &= correct;
        let sum = |key| -> f64 { lines.iter().filter_map(|l| fields::num(l, key)).sum() };
        let bound_of = |m: &EndToEnd| format!("  bound {:.0}%", m.bound * 100.0);
        println!(
            "\n{workload}: {} runs, {} ops attempted, {} failed, outputs {}",
            lines.len(),
            sum("attempted"),
            sum("failed"),
            if correct { "correct" } else { "INCORRECT" }
        );
        println!("  ({why})");
        let names: Vec<(&str, &str, String)> = if trace {
            PER_LAYER
                .iter()
                .map(|m| (m.0, m.1, String::new()))
                .collect()
        } else {
            let gated = END_TO_END.iter().map(|m| (m.name, m.unit, bound_of(m)));
            let whole = WHOLE_WINDOW
                .iter()
                .map(|m| (m.name, m.unit, "  whole window, not gated".into()));
            gated.chain(whole).collect()
        };
        for (name, unit, note) in names {
            let values: Vec<f64> = lines
                .iter()
                .filter_map(|l| fields::metric(l, name))
                .collect();
            if values.len() != lines.len() {
                return Err(format!(
                    "{workload}: metric {name} missing from a result line"
                ));
            }
            println!(
                "  {name:<48} {:>14.4} {unit:<6} n={}{note}",
                stats::median(&values),
                values.len()
            );
        }
    }

    let file = format!(
        "{{\"kind\": \"{kind}\", \"seed\": {seed}, \"seconds\": {seconds}, \"repeat\": {repeat}, \
         {}, \"runs\": [\n{}\n]}}\n",
        host::stamp_json(),
        records.join(",\n")
    );
    craftflow_core::validate_json(&file).map_err(|e| format!("result file: {e}"))?;
    if let Some(dir) = std::path::Path::new(out_path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(out_path, file).map_err(|e| format!("{out_path}: {e}"))?;
    println!("\nresults written to {out_path}");
    Ok(all_correct)
}
