//! Prints every paper claim as one table: the paper's words, the
//! measured values and the bound (`craft_bench::claims`). Exits non-zero
//! when a bounded row fails.
//!
//!   cargo run --release -p craft-bench --bin claims
//!   cargo run --release -p craft-bench --bin claims -- --write
//!
//! `--write` rewrites the claims blocks of README.md and EXPERIMENTS.md
//! from the table; a Tier-1 test fails while a committed block differs.

use craft_bench::claims::{render_doc, render_section, repo_root, sections, DOCS};

fn main() -> Result<(), String> {
    let write = match std::env::args().nth(1).as_deref() {
        None => false,
        Some("--write") => true,
        Some(other) => {
            return Err(format!(
                "unknown argument `{other}`; usage: claims [--write]"
            ))
        }
    };
    let sections = sections();
    for s in &sections {
        println!("## {}\n\n{}", s.id, render_section(s));
    }
    for doc in DOCS.iter().filter(|_| write) {
        let path = repo_root().join(doc);
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{doc}: {e}"))?;
        let (rendered, keys) = render_doc(&text, &sections).map_err(|e| format!("{doc}: {e}"))?;
        std::fs::write(&path, rendered).map_err(|e| format!("{doc}: {e}"))?;
        println!("{doc}: rendered blocks {}", keys.join(", "));
    }
    let rows = sections.iter().flat_map(|s| &s.rows);
    let failing: Vec<_> = rows.filter(|r| !r.holds()).map(|r| r.id).collect();
    match failing.is_empty() {
        true => Ok(()),
        false => Err(format!("claims out of bound: {}", failing.join(", "))),
    }
}
