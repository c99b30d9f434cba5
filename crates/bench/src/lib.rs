//! # craft-bench — experiment harnesses
//!
//! [`claims`] holds every paper claim as one row with a bound; the
//! `claims` bin prints the table and renders it into README.md and
//! EXPERIMENTS.md. The `fault_campaign` bin is the robustness
//! experiment. How fast the engines run is measured by the repo's
//! `benchmark/` package and nowhere here. Each paper artifact is one
//! section of the table:
//!
//! | artifact | section |
//! |---|---|
//! | Fig. 3 | E2 |
//! | Table 2 | E4 |
//! | §2.4 case study | E5 |
//! | §2.2 QoR claim | E6 |
//! | §3.1 / Fig. 4 | E7 |
//! | Fig. 6 | E9 |
//! | §4 productivity | E11 |
//! | §3 back end | E13 |

pub mod claims;

/// Silences the default panic-hook backtrace chatter for the guard's
/// lifetime and **restores the previous hook on drop** — including on
/// unwind out of the guarded scope.
///
/// Fault campaigns classify fail-stop outcomes by running jobs under
/// `catch_unwind`; every expected panic would otherwise spray a
/// backtrace over the progress output. The old ad-hoc
/// `take_hook`/`set_hook` pairs leaked the silent hook on early
/// return, leaving the *rest of the process* (including genuine bugs)
/// silent — the RAII form can't.
pub struct SilentPanicGuard {
    prev: Option<PanicHook>,
}

/// A boxed panic hook, as held by `std::panic::take_hook`.
type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send + 'static>;

impl SilentPanicGuard {
    /// Installs the silent hook, remembering the current one.
    #[allow(clippy::new_without_default)]
    pub fn new() -> SilentPanicGuard {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        SilentPanicGuard { prev: Some(prev) }
    }
}

impl Drop for SilentPanicGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            std::panic::set_hook(prev);
        }
    }
}

/// Schema version stamped into the `fault_campaign` row artifact
/// (see [`json_meta_block`]). Bump when a field is renamed, removed or
/// changes meaning; additive fields do not require a bump.
pub const SCHEMA_VERSION: u32 = 5;

/// Host facts recorded alongside the artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostMeta {
    /// Cores available to this process.
    pub cores: usize,
    /// Fewer than 4 cores.
    pub degraded_host: bool,
}

impl HostMeta {
    /// Probes the current host.
    pub fn detect() -> HostMeta {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        HostMeta {
            cores,
            degraded_host: cores < 4,
        }
    }
}

/// Renders the JSON artifact header — schema version, generator name
/// and host metadata — as object members (no surrounding braces), for
/// a hand-rolled emitter to splice in first:
///
/// ```
/// let json = format!("{{\n  {}\n  \"rows\": []\n}}\n", craft_bench::json_meta_block("doc"));
/// assert!(craft_bench::validate_json(&json).is_ok());
/// ```
pub fn json_meta_block(generator: &str) -> String {
    let host = HostMeta::detect();
    format!(
        "\"schema_version\": {SCHEMA_VERSION},\n  \"generator\": \"{generator}\",\n  \
         \"host\": {{\"cores\": {}, \"degraded_host\": {}}},",
        host.cores, host.degraded_host
    )
}

/// The JSON well-formedness checker and string escaper live in
/// `craftflow-core` (the job server validates its wire output with
/// the same code).
pub use craftflow_core::{json_escape, validate_json};

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `--bin X`, `--example X`, `--test X` and `--bench X` the
    /// docs name resolves to a target file of the root package or of a
    /// crate.
    #[test]
    fn doc_commands_name_existing_targets() {
        let root = claims::repo_root();
        let mut packages = vec![root.clone()];
        for crate_dir in std::fs::read_dir(root.join("crates")).expect("crates/ readable") {
            packages.push(crate_dir.expect("crates/ entry").path());
        }
        let mut stale = Vec::new();
        for doc in [
            "README.md",
            "EXPERIMENTS.md",
            "DESIGN.md",
            ".claude/skills/verify/SKILL.md",
        ] {
            let text = std::fs::read_to_string(root.join(doc)).expect("doc readable");
            for (flag, dir) in [
                ("--bin ", "src/bin"),
                ("--example ", "examples"),
                ("--test ", "tests"),
                ("--bench ", "benches"),
            ] {
                for rest in text.split(flag).skip(1) {
                    let name = rest
                        .split(|c: char| !(c.is_alphanumeric() || c == '_' || c == '-'))
                        .next()
                        .unwrap_or_default();
                    let file = format!("{name}.rs");
                    if !packages.iter().any(|p| p.join(dir).join(&file).is_file()) {
                        stale.push(format!("{doc}: {flag}{name}"));
                    }
                }
            }
        }
        assert!(stale.is_empty(), "docs name missing targets: {stale:?}");
    }

    #[test]
    fn fig3_shape_holds() {
        use craft_connections::TimingModel;
        let get = |ports, model| claims::crossbar_cycles_per_txn(ports, model);
        let (sim, sig) = (
            Some(TimingModel::SimAccurate),
            Some(TimingModel::SignalAccurate),
        );
        // Sim-accurate matches RTL at every port count.
        for ports in [2, 4, 8, 16] {
            let rtl = get(ports, None);
            let acc = get(ports, sim);
            assert!(
                (rtl - acc).abs() < 1e-9,
                "sim-accurate must match RTL at {ports} ports: {rtl} vs {acc}"
            );
        }
        // Signal-accurate error grows with port count.
        let sig2 = get(2, sig);
        let sig16 = get(16, sig);
        let rtl16 = get(16, None);
        assert!(sig16 > sig2, "error must grow with ports");
        assert!(
            sig16 > 2.0 * rtl16,
            "signal-accurate at 16 ports must far exceed RTL: {sig16} vs {rtl16}"
        );
    }

    #[test]
    fn silent_panic_guard_silences_then_restores_the_hook() {
        use std::panic::catch_unwind;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        // A marker hook stands in for "whatever hook was installed
        // before the campaign": invocations prove it is active.
        let fired = Arc::new(AtomicUsize::new(0));
        let marker = Arc::clone(&fired);
        let orig = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |_| {
            marker.fetch_add(1, Ordering::SeqCst);
        }));

        {
            let _quiet = SilentPanicGuard::new();
            let _ = catch_unwind(|| panic!("expected fail-stop"));
            assert_eq!(
                fired.load(Ordering::SeqCst),
                0,
                "marker hook must be silenced inside the guard"
            );
        }
        let _ = catch_unwind(|| panic!("after the guard"));
        assert_eq!(
            fired.load(Ordering::SeqCst),
            1,
            "drop must restore the previous hook"
        );
        std::panic::set_hook(orig);
    }

    #[test]
    fn json_meta_block_is_well_formed_and_versioned() {
        let block = json_meta_block("unit_test");
        let doc = format!("{{\n  {block}\n  \"rows\": [1, 2]\n}}\n");
        assert_eq!(validate_json(&doc), Ok(()));
        assert!(block.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
        assert!(block.contains("\"cores\":"));
        assert!(block.contains("\"degraded_host\":"));
    }

    #[test]
    fn validate_json_accepts_well_formed_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-1.5e+10",
            "\"a \\\"quoted\\\" string\"",
            "{\"a\": [1, 2, {\"b\": null}], \"c\": true}\n",
            "  {\"nested\": {\"deep\": [[[0]]]}}  ",
        ] {
            assert_eq!(validate_json(ok), Ok(()), "{ok}");
        }
    }

    #[test]
    fn validate_json_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\": 1,}",
            "[1, 2",
            "{\"a\": 1} trailing",
            "{'single': 1}",
            "{\"a\": 01e}",
            "\"unterminated",
            "{\"raw\ncontrol\": 1}",
        ] {
            assert!(validate_json(bad).is_err(), "accepted: {bad}");
        }
    }
}
