//! In-memory spans recorded by the benchmark around each call into a layer's
//! public API. Nothing inside the crates is instrumented; that is a later
//! change. With the tracer off a span costs one branch.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of "no parent".
pub const ROOT: u32 = u32::MAX;

/// One closed interval on one thread. `parent` indexes the same span list;
/// spans of one benchmark op share `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one thread.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Tracer {
    /// `epoch` is shared by every tracer of a run so threads merge onto one
    /// time axis.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now())
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the shared epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags the spans that follow with benchmark op `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.now_ns();
        out
    }

    /// Opens a span of op `op` that `close` ends. Pipelined jobs overlap, so
    /// a scope cannot hold them. Returns `ROOT` when the tracer is off.
    pub fn open(&mut self, name: &'static str, op: u32) -> u32 {
        if !self.on {
            return ROOT;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: ROOT,
            op,
        });
        self.spans.len() as u32 - 1
    }

    pub fn close(&mut self, span: u32) {
        if span != ROOT {
            self.spans[span as usize].end_ns = self.now_ns();
        }
    }

    /// Records an interval measured elsewhere (line-arrival stamps) as a
    /// child of the span `parent` that `open` returned.
    pub fn record(&mut self, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) {
        if parent != ROOT {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: end_ns.max(start_ns),
                parent,
                op: self.spans[parent as usize].op,
            });
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Appends `more` (another thread's spans) to `all`, re-basing parents.
pub fn merge(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len() as u32;
    all.extend(more.into_iter().map(|mut s| {
        if s.parent != ROOT {
            s.parent += base;
        }
        s
    }));
}

/// Self time of every span: its duration minus what its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != ROOT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Per span name: `(calls, total ns, self ns)`.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += own;
    }
    out
}

/// Total duration of spans named `name` per `group` consecutive ops, one
/// value per group that has any — the cost of a layer call made several times
/// in an op, or (a Fig. 6 sweep is six ops) in a round of ops.
pub fn per_op_ms(spans: &[Span], name: &str, group: u32) -> Vec<f64> {
    let mut per: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *per.entry(s.op / group).or_default() += s.dur_ns();
    }
    per.values().map(|&ns| ns as f64 / 1e6).collect()
}

/// Renders the span list as one JSON document.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let mut s = format!("{{\"workload\": \"{workload}\", \"unit\": \"ns\", \"spans\": [\n");
    for (i, sp) in spans.iter().enumerate() {
        let parent = if sp.parent == ROOT {
            "null".to_string()
        } else {
            sp.parent.to_string()
        };
        let _ = writeln!(
            s,
            "{{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}, \"op\": {}}}{}",
            sp.name,
            sp.start_ns,
            sp.end_ns,
            sp.op,
            if i + 1 == spans.len() { "" } else { "," }
        );
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // op [0,100) { build [10,30), run [30,90) { seg [40,60), seg [60,70) } }
        let spans = vec![
            sp("op", 0, 100, ROOT),
            sp("build", 10, 30, 0),
            sp("run", 30, 90, 0),
            sp("seg", 40, 60, 2),
            sp("seg", 60, 70, 2),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 30, 20, 10]);
        let agg = by_name(&spans);
        assert_eq!(agg["op"], (1, 100, 20));
        assert_eq!(agg["seg"], (2, 30, 30));
        assert_eq!(per_op_ms(&spans, "seg", 1), vec![30.0 / 1e6]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_records_and_merges() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        t.set_op(7);
        let got = t.span("outer", |t| {
            t.span("inner", |_| 1);
            2
        });
        assert_eq!(got, 2);
        // Two overlapping jobs, each with a stamped child.
        let (a, b) = (t.open("job", 8), t.open("job", 9));
        t.record(a, "stamp", 5, 9);
        t.close(a);
        t.close(b);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].op),
            ("outer", ROOT, 7)
        );
        assert_eq!((spans[1].name, spans[1].parent), ("inner", 0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!((spans[2].parent, spans[2].op, spans[3].op), (ROOT, 8, 9));
        assert_eq!(
            (spans[4].name, spans[4].parent, spans[4].op),
            ("stamp", 2, 8)
        );
        assert!(spans[3].start_ns <= spans[2].end_ns && spans[2].end_ns <= spans[3].end_ns);

        let mut all = spans.clone();
        merge(&mut all, spans);
        assert_eq!(all[5].parent, ROOT);
        assert_eq!(all[6].parent, 5);
        assert_eq!(all[9].parent, 7);

        let mut off = Tracer::new(false, epoch);
        assert_eq!(off.span("x", |_| 3), 3);
        let job = off.open("y", 0);
        off.record(job, "z", 0, 1);
        off.close(job);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn span_file_is_valid_json() {
        let spans = vec![sp("a", 0, 10, ROOT), sp("b", 2, 4, 0)];
        craftflow_core::validate_json(&to_json("w", &spans)).expect("valid JSON");
        craftflow_core::validate_json(&to_json("w", &[])).expect("valid JSON");
    }
}
