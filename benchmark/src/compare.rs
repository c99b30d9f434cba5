//! `compare A.json B.json`: one row per (workload, end-to-end metric) with
//! each side's median and quartiles, the bound, and a verdict; then the same
//! for the whole-window statistics, their verdicts in brackets because they
//! inform and do not gate.
//!
//! `worse` — B's median is worse than A's by more than the bound.
//! `unresolved` — not worse, but a side's run-to-run spread (quartile
//! distance over median) exceeds the bound, so "unchanged" cannot be said.
//! `ok` — neither.
//!
//! Speed is only compared between runs that simulated the same thing: a run
//! that was not `correct`, or a `sim_digest` that differs between or within
//! the files, fails the comparison whatever the timings say.

use crate::fields;
use crate::metrics::{EndToEnd, END_TO_END, WHOLE_WINDOW, WORKLOADS};
use crate::stats;

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// Median and, from two samples up, quartiles and spread.
fn summary(values: &[f64]) -> (f64, Option<(f64, f64)>, f64) {
    let med = stats::median(values);
    if values.len() < 2 {
        return (med, None, 0.0);
    }
    let (q1, _, q3) = stats::quartiles(values);
    (med, Some((q1, q3)), stats::spread(values))
}

pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let ((ma, _, sa), (mb, _, sb)) = (summary(a), summary(b));
    let worse_by = if m.lower_is_better { mb - ma } else { ma - mb };
    if worse_by > m.bound * ma.abs() {
        Verdict::Worse
    } else if sa.max(sb) > m.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// A result file as `run` writes it: a header line, then a line per run.
struct ResultFile {
    stamp: String,
    runs: Vec<String>,
}

fn load(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut lines = text.lines();
    let header = lines.next().unwrap_or("");
    if fields::text(header, "kind") != Some("run") {
        return Err(format!("{path}: not a result file of `run`"));
    }
    let num = |key| fields::num(header, key).map_or("?".into(), |n| n.to_string());
    let text_of = |key| fields::text(header, key).unwrap_or("?");
    Ok(ResultFile {
        stamp: format!(
            "seed {} · {} s · {} cores · {} · {} · commit {}",
            num("seed"),
            num("seconds"),
            num("nproc"),
            text_of("cpu"),
            text_of("rustc"),
            text_of("git_commit")
        ),
        runs: lines
            .filter(|l| fields::text(l, "workload").is_some())
            .map(str::to_string)
            .collect(),
    })
}

impl ResultFile {
    fn of<'a>(&'a self, workload: &'a str) -> impl Iterator<Item = &'a String> {
        self.runs
            .iter()
            .filter(move |l| fields::text(l, "workload") == Some(workload))
    }
}

/// What must hold before timings mean anything: every run of `workload` on
/// both sides correct, and one `sim_digest` throughout.
pub fn same_simulation<'a>(runs: impl Iterator<Item = &'a String>) -> Result<(), String> {
    let mut digests: Vec<&str> = Vec::new();
    for run in runs {
        if !run.contains("\"correct\": true") {
            return Err("a run is not correct".into());
        }
        digests.push(fields::text(run, "sim_digest").ok_or("a run carries no sim_digest")?);
    }
    digests.dedup();
    match digests.len() {
        1 => Ok(()),
        _ => Err(format!("sim_digest differs: {}", digests.join(" / "))),
    }
}

/// Prints the comparison; `Ok(false)` when any row is `worse` or the two
/// files did not simulate the same thing.
pub fn compare_files(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!("A: {a_path}\n   {}\nB: {b_path}\n   {}", a.stamp, b.stamp);
    println!(
        "\n{:<16} {:<22} {:>12} {:>25} {:>12} {:>25} {:>6}  verdict",
        "workload", "metric", "A median", "A q1..q3 (n)", "B median", "B q1..q3 (n)", "bound"
    );
    let mut all_ok = true;
    for name in WORKLOADS.map(|w| w.name) {
        let values = |f: &ResultFile, get: &dyn Fn(&str) -> Option<f64>| -> Vec<f64> {
            f.of(name).filter_map(|l| get(l)).collect()
        };
        for (gated, m) in END_TO_END
            .iter()
            .map(|m| (true, m))
            .chain(WHOLE_WINDOW.iter().map(|m| (false, m)))
        {
            let get = |l: &str| fields::metric(l, m.name);
            let (va, vb) = (values(&a, &get), values(&b, &get));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{name}: {} missing from a result file", m.name));
            }
            let range = |v: &[f64]| match summary(v).1 {
                Some((q1, q3)) => format!("{q1:.4}..{q3:.4} ({})", v.len()),
                None => format!("- ({})", v.len()),
            };
            let verdict = judge(m, &va, &vb);
            all_ok &= !gated || verdict != Verdict::Worse;
            let word = match verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            };
            println!(
                "{name:<16} {:<22} {:>12.4} {:>25} {:>12.4} {:>25} {:>5.0}%  {}",
                m.name,
                summary(&va).0,
                range(&va),
                summary(&vb).0,
                range(&vb),
                m.bound * 100.0,
                // Whole-window rows inform; they do not gate.
                if gated {
                    word.to_string()
                } else {
                    format!("({word})")
                }
            );
        }
        let failed = |f: &ResultFile| -> f64 {
            values(f, &|l| fields::num(fields::after(l, "result")?, "failed"))
                .iter()
                .sum()
        };
        let (fa, fb) = (failed(&a), failed(&b));
        all_ok &= fb <= fa;
        println!(
            "{name:<16} {:<22} {fa:>12} {:>25} {fb:>12} {:>25} {:>6}  {}",
            "failed_ops",
            "",
            "",
            "0",
            if fb > fa { "worse" } else { "ok" }
        );
        let same = same_simulation(a.of(name).chain(b.of(name)));
        all_ok &= same.is_ok();
        println!(
            "{name:<16} {:<22} {}",
            "sim_digest",
            same.map_or_else(|why| format!("MISMATCH: {why}"), |()| "identical".into())
        );
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let metric = |lower_is_better| EndToEnd {
            name: "m",
            unit: "ms",
            lower_is_better,
            bound: 0.10,
        };
        let (lat, thr) = (metric(true), metric(false));
        let steady = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(judge(&lat, &steady, &[10.5, 10.6, 10.4, 10.5]), Verdict::Ok);
        assert_eq!(
            judge(&lat, &steady, &[11.5, 11.6, 11.4, 11.5]),
            Verdict::Worse
        );
        // Faster is never "worse", whichever direction is better.
        assert_eq!(judge(&lat, &steady, &[5.0, 5.1, 4.9, 5.0]), Verdict::Ok);
        assert_eq!(judge(&thr, &steady, &[8.0, 8.1, 7.9, 8.0]), Verdict::Worse);
        assert_eq!(judge(&thr, &steady, &[12.0, 12.1, 11.9, 12.0]), Verdict::Ok);
        // A spread wider than the bound cannot be called unchanged.
        assert_eq!(
            judge(&lat, &steady, &[8.0, 12.0, 9.0, 11.0]),
            Verdict::Unresolved
        );
        // Single runs have no spread to judge; only the medians speak.
        assert_eq!(judge(&lat, &[10.0], &[10.9]), Verdict::Ok);
        assert_eq!(judge(&lat, &[10.0], &[11.1]), Verdict::Worse);
    }

    #[test]
    fn runs_that_simulated_something_else_do_not_compare() {
        let run = |digest: &str, correct: bool| {
            format!(
                "{{\"workload\": \"w\", \"sim_digest\": \"{digest}\", \
                 \"result\": {{\"correct\": {correct}}}}}"
            )
        };
        let (a, b, c, d) = (
            run("0x1", true),
            run("0x1", true),
            run("0x2", true),
            run("0x1", false),
        );
        assert!(same_simulation([&a, &b].into_iter()).is_ok());
        assert!(same_simulation([&a, &c].into_iter()).is_err());
        assert!(same_simulation([&a, &d].into_iter()).is_err());
        assert!(same_simulation([].into_iter()).is_err());
    }
}
