//! The host stamp every result file carries: numbers from different hosts
//! or toolchains do not compare.

use std::process::Command;

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// First line of a command's standard output, or "unknown".
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// `"nproc": .., "cpu": .., "rustc": .., "git_commit": ..` as JSON members.
pub fn stamp_json() -> String {
    let esc = craftflow_core::json_escape;
    format!(
        "\"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"git_commit\": \"{}\"",
        nproc(),
        esc(&cpu_model()),
        esc(&first_line("rustc", &["--version"])),
        esc(&first_line("git", &["rev-parse", "HEAD"])),
    )
}
