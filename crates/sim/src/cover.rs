//! Functional coverage collection — the reproduction's analogue of the
//! C++ coverage tooling in the paper's flow (Table 3: Testwell CTC++;
//! §4: "standard C++ code coverage tools were used to identify test
//! coverage holes").
//!
//! Components share a [`Coverage`] map and record named events; at the
//! end of a campaign [`Coverage::holes`] lists every declared bin that
//! never fired — the actionable "coverage holes" output.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// A shared functional-coverage map.
///
/// ```
/// use craft_sim::cover::Coverage;
/// let cov = Coverage::new();
/// cov.declare("pe.op.vecmul");
/// cov.declare("pe.op.dot");
/// cov.hit("pe.op.vecmul");
/// assert_eq!(cov.holes(), vec!["pe.op.dot".to_string()]);
/// assert!(cov.percent() > 49.0 && cov.percent() < 51.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Coverage {
    bins: Rc<RefCell<BTreeMap<String, u64>>>,
}

impl Coverage {
    /// An empty coverage map. Clones share the same underlying bins,
    /// so hand clones to every component in the testbench.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a bin that must be hit for full coverage. Idempotent.
    pub fn declare(&self, bin: impl Into<String>) {
        self.bins.borrow_mut().entry(bin.into()).or_insert(0);
    }

    /// Declares several bins at once.
    pub fn declare_all<I: IntoIterator<Item = S>, S: Into<String>>(&self, bins: I) {
        for b in bins {
            self.declare(b);
        }
    }

    /// Records one hit (auto-declares unknown bins — ad-hoc events are
    /// still interesting even if nobody planned them).
    pub fn hit(&self, bin: impl Into<String>) {
        *self.bins.borrow_mut().entry(bin.into()).or_insert(0) += 1;
    }

    /// Hit count of one bin (0 if undeclared).
    pub fn count(&self, bin: &str) -> u64 {
        self.bins.borrow().get(bin).copied().unwrap_or(0)
    }

    /// Every bin with its hit count, sorted by name — the raw map, for
    /// comparing two collectors bin for bin.
    pub fn bins(&self) -> Vec<(String, u64)> {
        self.bins
            .borrow()
            .iter()
            .map(|(k, &c)| (k.clone(), c))
            .collect()
    }

    /// Declared bins that were never hit, sorted.
    pub fn holes(&self) -> Vec<String> {
        self.bins
            .borrow()
            .iter()
            .filter(|(_, &c)| c == 0)
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Percentage of declared bins hit at least once (100.0 when no
    /// bins are declared).
    pub fn percent(&self) -> f64 {
        let bins = self.bins.borrow();
        if bins.is_empty() {
            return 100.0;
        }
        let hit = bins.values().filter(|&&c| c > 0).count();
        hit as f64 / bins.len() as f64 * 100.0
    }

    /// Full report, one bin per line.
    pub fn report(&self) -> String {
        let mut out = format!("coverage {:.1}%\n", self.percent());
        for (bin, count) in self.bins.borrow().iter() {
            let _ = fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    "  {} {:40} {}\n",
                    if *count > 0 { "✓" } else { "✗" },
                    bin,
                    count
                ),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_bins() {
        let a = Coverage::new();
        let b = a.clone();
        a.declare("x");
        b.hit("x");
        assert_eq!(a.count("x"), 1);
        assert!(a.holes().is_empty());
    }

    #[test]
    fn holes_are_sorted_and_exact() {
        let c = Coverage::new();
        c.declare_all(["b", "a", "c"]);
        c.hit("b");
        assert_eq!(c.holes(), vec!["a".to_string(), "c".to_string()]);
        assert!((c.percent() - 33.333).abs() < 0.01);
    }

    #[test]
    fn adhoc_hits_autodeclare() {
        let c = Coverage::new();
        c.hit("surprise");
        assert_eq!(c.count("surprise"), 1);
        assert_eq!(c.percent(), 100.0);
    }

    #[test]
    fn report_marks_misses() {
        let c = Coverage::new();
        c.declare("hit.me");
        c.declare("missed");
        c.hit("hit.me");
        let r = c.report();
        assert!(r.contains("✓"), "{r}");
        assert!(r.contains("✗"), "{r}");
        assert!(r.contains("50.0%"), "{r}");
    }
}
