//! Crash-safety integration test for the fault campaign: `SIGKILL`
//! the campaign mid-sweep, resume it with `--resume`, and the final
//! artifact must be **byte-identical** to an uninterrupted run's —
//! the per-row journal is atomic (a kill can only lose the row in
//! flight), idempotent (a second resume recomputes nothing) and pure
//! persistence (a run without one writes the same bytes).

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_fault_campaign");

/// Rows the `--smoke` campaign journals in total: 3 modes x
/// 4 link seeds + 3 modes x 3 soc seeds + degradation baseline + 1
/// victim + watchdog.
const TOTAL_ROWS: usize = 24;

fn journaled_rows(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .map(|d| {
            d.filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().ends_with(".json"))
                .count()
        })
        .unwrap_or(0)
}

fn run_campaign(journal: Option<&Path>, out: &Path, resume: bool) {
    let mut cmd = Command::new(BIN);
    cmd.arg("--smoke");
    if resume {
        cmd.arg("--resume");
    }
    if let Some(journal) = journal {
        cmd.arg("--checkpoint-dir").arg(journal);
    }
    let status = cmd
        .arg("--out")
        .arg(out)
        .stdout(Stdio::null())
        .status()
        .expect("spawn fault_campaign");
    assert!(status.success(), "campaign failed: {status:?}");
}

#[test]
fn sigkill_mid_campaign_then_resume_is_byte_identical() {
    let tmp = std::env::temp_dir().join(format!("campaign_resume_{}", std::process::id()));
    std::fs::remove_dir_all(&tmp).ok();
    let ref_journal = tmp.join("ref_journal");
    let kill_journal = tmp.join("kill_journal");
    std::fs::create_dir_all(&ref_journal).expect("mkdir");
    std::fs::create_dir_all(&kill_journal).expect("mkdir");
    let ref_out = tmp.join("ref.json");
    let kill_out = tmp.join("kill.json");

    // Uninterrupted reference.
    run_campaign(Some(&ref_journal), &ref_out, false);
    assert_eq!(journaled_rows(&ref_journal), TOTAL_ROWS);
    let reference = std::fs::read(&ref_out).expect("read reference artifact");

    // No journal at all: the same rows, the same bytes.
    let plain_out = tmp.join("plain.json");
    run_campaign(None, &plain_out, false);
    assert_eq!(
        std::fs::read(&plain_out).expect("read unjournaled artifact"),
        reference,
        "unjournaled artifact differs from the journaled run's"
    );

    // Killed run: SIGKILL (not a catchable signal) as soon as the
    // journal holds a couple of completed rows.
    let mut child = Command::new(BIN)
        .arg("--smoke")
        .arg("--checkpoint-dir")
        .arg(&kill_journal)
        .arg("--out")
        .arg(&kill_out)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn fault_campaign");
    let t0 = Instant::now();
    let rows_at_kill = loop {
        let n = journaled_rows(&kill_journal);
        if n >= 2 {
            break n;
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("campaign finished before the kill landed ({status:?})");
        }
        assert!(
            t0.elapsed() < Duration::from_secs(300),
            "no journal rows appeared within 300s"
        );
        std::thread::sleep(Duration::from_millis(2));
    };
    child.kill().expect("SIGKILL"); // kill() delivers SIGKILL on unix
    child.wait().expect("reap");
    assert!(
        rows_at_kill < TOTAL_ROWS,
        "kill landed only after the sweep finished ({rows_at_kill} rows)"
    );
    assert!(
        !kill_out.exists(),
        "artifact must not exist before the campaign completes"
    );

    // Resume: only the missing rows are recomputed; the artifact is
    // byte-identical to the uninterrupted run's.
    run_campaign(Some(&kill_journal), &kill_out, true);
    assert_eq!(journaled_rows(&kill_journal), TOTAL_ROWS);
    let resumed = std::fs::read(&kill_out).expect("read resumed artifact");
    assert_eq!(
        reference, resumed,
        "resumed artifact differs from the uninterrupted run's"
    );

    // Idempotent: a second resume recomputes nothing and emits the
    // same bytes again.
    run_campaign(Some(&kill_journal), &kill_out, true);
    assert_eq!(std::fs::read(&kill_out).expect("read"), reference);

    std::fs::remove_dir_all(&tmp).ok();
}
