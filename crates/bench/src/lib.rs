//! # craft-bench — experiment harnesses
//!
//! [`claims`] holds every paper claim as one row with a bound; the
//! `claims` bin prints the table and renders it into README.md and
//! EXPERIMENTS.md. How fast the engines run is measured by the repo's
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
//! | §2.3 extended: robustness under injected faults | E14 |

pub mod claims;

/// Silences the default panic-hook backtrace chatter for the guard's
/// lifetime and **restores the previous hook on drop** — including on
/// unwind out of the guarded scope.
///
/// Fault campaigns classify fail-stop outcomes by running jobs under
/// `catch_unwind` (claims section E14 does); every expected panic would
/// otherwise spray a backtrace over the output. The old ad-hoc
/// `take_hook`/`set_hook` pairs leaked the silent hook on early
/// return, leaving the *rest of the process* (including genuine bugs)
/// silent — the RAII form can't.
///
/// The hook is process-wide: while a guard lives, every thread's
/// panics are silent, and two guards on two threads can restore each
/// other's hook. Its own test therefore runs in a test binary of its
/// own (`tests/silent_panic_guard.rs`).
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `--bin X`, `--example X`, `--test X` and `--bench X` the
    /// docs name resolves to a target file of the root package or of a
    /// crate, and every `*.rs` file they cite exists under the root, a
    /// package, or a package's `src/` or `tests/`.
    #[test]
    fn doc_commands_name_existing_targets() {
        let root = claims::repo_root();
        let mut packages = vec![root.clone(), root.join("benchmark")];
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
            let path_char = |c: char| c.is_alphanumeric() || "_./-".contains(c);
            for (at, _) in text.match_indices(".rs") {
                let after = text[at + 3..].chars().next();
                if after.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                    continue;
                }
                let start = text[..at].rfind(|c| !path_char(c)).map_or(0, |i| i + 1);
                let cited = &text[start..at + 3];
                let stem = &cited[..cited.len() - 3];
                if stem.is_empty() || stem.ends_with('/') || stem.ends_with('.') {
                    continue;
                }
                let found = packages.iter().any(|p| {
                    [p.clone(), p.join("src"), p.join("tests")]
                        .iter()
                        .any(|base| base.join(cited).is_file())
                });
                if !found {
                    stale.push(format!("{doc}: {cited}"));
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
}
