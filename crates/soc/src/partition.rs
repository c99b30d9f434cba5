//! First-class mesh partitions for the sharded simulator.
//!
//! [`ParallelSoc`](crate::parallel::ParallelSoc) historically cut the
//! 4x4 mesh into fixed vertical strips. This module generalizes the
//! cut to **any** node→shard map at latency-insensitive channel
//! boundaries: a [`PartitionSpec`] names each node's owning shard, and
//! validation walks the same mesh-link topology `Soc::from_recipe`
//! wires, confirming every cut edge crosses only LI (buffered,
//! capacity ≥ 1) channels — the property that makes one-instant epochs
//! conservative-safe. Because every worker always builds the full
//! clock table and channel registry in identical order, clock indices
//! and fault-injection seeds agree with the sequential build for *any*
//! valid map, so every valid cut is bit- and cycle-identical to the
//! sequential `Soc` (pinned by `tests/partition_proptest.rs`).
//!
//! The second half is the profile-guided partitioner: [`NodeCosts`]
//! turns a calibration run's [`SocReport`] (or per-component tick
//! profile) into a deterministic per-node cost vector, and
//! [`partition_search`] looks for a min-makespan cut — greedy LPT over
//! the cost vector with a cut-edge mailbox penalty, refined by
//! single-node moves and pairwise boundary swaps. The modeled makespan
//! ([`NodeCosts::makespan`]) is what the kernel-baseline bench reports
//! as predicted-vs-measured per cut.

use crate::msg::{HUB_NODE, MESH_WIDTH, N_NODES};
use crate::soc::{SocConfig, SocReport};
use craft_sim::TickProfile;
use std::fmt;

/// Mesh node count as a usize (the length of every owner map).
const NODES: usize = N_NODES as usize;

/// The largest shard count a partition may name: one shard per node.
pub const MAX_SHARDS: usize = NODES;

/// Typed rejection from [`PartitionSpec`] construction/validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// The owner map does not cover exactly [`N_NODES`] nodes.
    WrongLength {
        /// Entries supplied.
        got: usize,
    },
    /// A textual spec contained a non-hex-digit character.
    BadDigit {
        /// Zero-based position in the spec string.
        pos: usize,
        /// The offending character.
        ch: char,
    },
    /// A node names a shard outside `0..MAX_SHARDS`.
    ShardOutOfRange {
        /// The node.
        node: usize,
        /// The out-of-range shard index.
        shard: usize,
    },
    /// Shard numbering is not dense: `shard` is below the maximum
    /// named shard but owns no node, so the worker set would contain
    /// an idle worker with no kernel content.
    EmptyShard {
        /// The unowned shard index.
        shard: usize,
    },
    /// A cut edge crosses a channel that is not latency-insensitive
    /// (buffer capacity zero), so the one-instant epoch lookahead
    /// would be unsound across that boundary.
    NotLiBoundary {
        /// Producer-side node of the offending mesh edge.
        a: usize,
        /// Consumer-side node of the offending mesh edge.
        b: usize,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::WrongLength { got } => {
                write!(f, "partition must map {NODES} nodes, got {got}")
            }
            PartitionError::BadDigit { pos, ch } => {
                write!(f, "partition digit {pos} is {ch:?}, want a hex shard index")
            }
            PartitionError::ShardOutOfRange { node, shard } => {
                write!(
                    f,
                    "node {node} names shard {shard}, outside 0..{MAX_SHARDS}"
                )
            }
            PartitionError::EmptyShard { shard } => {
                write!(f, "shard {shard} owns no node (numbering must be dense)")
            }
            PartitionError::NotLiBoundary { a, b } => {
                write!(
                    f,
                    "cut edge {a}<->{b} crosses a non-latency-insensitive channel"
                )
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// A validated node→shard map over the 4x4 mesh: `owner[n]` is the
/// worker shard simulating node `n`'s components. Stored as one byte
/// per node so the spec stays `Copy` and can ride inside
/// [`EngineKind`](crate::engine::EngineKind) and wire names.
///
/// Construction (via [`from_owner`](Self::from_owner),
/// [`parse`](Self::parse) or [`vertical_strips`](Self::vertical_strips))
/// guarantees structural validity: full coverage, in-range shard
/// indices and dense shard numbering. The LI-boundary property of a
/// cut against a concrete config is checked by
/// [`validate_for`](Self::validate_for).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartitionSpec {
    owner: [u8; NODES],
}

impl PartitionSpec {
    /// The historical fixed cut: vertical strips of the mesh (plus a
    /// row split at 8 shards), exactly the shapes the pre-partition
    /// `ParallelSoc` hardwired. The hub (node 15, column 3) lands on
    /// the last shard.
    ///
    /// # Panics
    /// Panics unless `threads` is 1, 2, 4 or 8 — the only strip
    /// shapes; arbitrary shard counts need an explicit owner map.
    pub fn vertical_strips(threads: usize) -> PartitionSpec {
        Self::vertical_strips_checked(threads)
            .unwrap_or_else(|| panic!("threads must be 1, 2, 4 or 8 (got {threads})"))
    }

    /// [`vertical_strips`](Self::vertical_strips) without the panic:
    /// `None` for shard counts with no strip shape.
    pub fn vertical_strips_checked(threads: usize) -> Option<PartitionSpec> {
        if !matches!(threads, 1 | 2 | 4 | 8) {
            return None;
        }
        let mut owner = [0u8; NODES];
        for (n, o) in owner.iter_mut().enumerate() {
            let (x, y) = (n % 4, n / 4);
            *o = match threads {
                1 => 0,
                2 => (x / 2) as u8,
                4 => x as u8,
                _ => (x * 2 + y / 2) as u8,
            };
        }
        Some(PartitionSpec { owner })
    }

    /// A load-agnostic seed cut for **any** shard count in
    /// `1..=MAX_SHARDS`: the historical vertical strips when the count
    /// has a strip shape, otherwise a uniform-cost
    /// [`partition_search`] (balanced node counts, minimal cut). This
    /// is what `parallel:N:auto` engines start on before their first
    /// profile-guided repartition.
    ///
    /// # Panics
    /// Panics when `shards` is outside `1..=MAX_SHARDS`.
    pub fn balanced(shards: usize) -> PartitionSpec {
        Self::vertical_strips_checked(shards)
            .unwrap_or_else(|| partition_search(&NodeCosts { cost: [1; NODES] }, shards, 0))
    }

    /// Builds a spec from an explicit owner map, checking coverage,
    /// range and dense shard numbering.
    pub fn from_owner(owner: &[usize]) -> Result<PartitionSpec, PartitionError> {
        if owner.len() != NODES {
            return Err(PartitionError::WrongLength { got: owner.len() });
        }
        let mut map = [0u8; NODES];
        for (node, &shard) in owner.iter().enumerate() {
            if shard >= MAX_SHARDS {
                return Err(PartitionError::ShardOutOfRange { node, shard });
            }
            map[node] = shard as u8;
        }
        let spec = PartitionSpec { owner: map };
        spec.check_dense()?;
        Ok(spec)
    }

    /// Parses the wire spelling: exactly 16 hex digits, one shard
    /// index per node in node order (`0000111122223333` is the
    /// 4-shard row partition).
    pub fn parse(s: &str) -> Result<PartitionSpec, PartitionError> {
        let chars: Vec<char> = s.chars().collect();
        if chars.len() != NODES {
            return Err(PartitionError::WrongLength { got: chars.len() });
        }
        let mut owner = [0u8; NODES];
        for (pos, &ch) in chars.iter().enumerate() {
            let digit = ch
                .to_digit(16)
                .ok_or(PartitionError::BadDigit { pos, ch })?;
            owner[pos] = digit as u8;
        }
        let spec = PartitionSpec { owner };
        spec.check_dense()?;
        Ok(spec)
    }

    /// Dense-numbering check backing every constructor.
    fn check_dense(&self) -> Result<(), PartitionError> {
        let shards = self.shards();
        for s in 0..shards {
            if !self.owner.iter().any(|&o| usize::from(o) == s) {
                return Err(PartitionError::EmptyShard { shard: s });
            }
        }
        Ok(())
    }

    /// The worker-shard count: one past the largest named shard.
    pub fn shards(&self) -> usize {
        usize::from(*self.owner.iter().max().expect("non-empty map")) + 1
    }

    /// The shard owning node `n`.
    pub fn owner_of(&self, n: usize) -> usize {
        usize::from(self.owner[n])
    }

    /// The owner map as the `Vec<usize>` shape the shard builder
    /// consumes.
    pub fn owner_vec(&self) -> Vec<usize> {
        self.owner.iter().map(|&o| usize::from(o)).collect()
    }

    /// The shard owning the hub node — the decider worker of the
    /// epoch protocol.
    pub fn hub_shard(&self) -> usize {
        self.owner_of(HUB_NODE as usize)
    }

    /// The undirected mesh edges this partition cuts (each listed once
    /// as `(low, high)` node pair, in scan order). Every cut edge is a
    /// pair of directed mailbox-split channels at run time.
    pub fn cut_edges(&self) -> Vec<(usize, usize)> {
        mesh_edges()
            .filter(|&(a, b)| self.owner[a] != self.owner[b])
            .collect()
    }

    /// Number of cut edges incident to `shard`.
    pub fn incident_cuts(&self, shard: usize) -> usize {
        mesh_edges()
            .filter(|&(a, b)| {
                self.owner[a] != self.owner[b]
                    && (usize::from(self.owner[a]) == shard || usize::from(self.owner[b]) == shard)
            })
            .count()
    }

    /// Validates the cut against a concrete config: every cut edge
    /// must cross only latency-insensitive channels. The build wires
    /// each mesh link (and each half of a GALS crossing) as
    /// `ChannelKind::Buffer(cfg.link_depth)`, so the LI property holds
    /// per edge exactly when the link buffer has capacity ≥ 1 — a
    /// zero-depth link would registerlessly expose same-instant writes
    /// across the epoch boundary.
    pub fn validate_for(&self, cfg: &SocConfig) -> Result<(), PartitionError> {
        for (a, b) in self.cut_edges() {
            if cfg.link_depth == 0 {
                return Err(PartitionError::NotLiBoundary { a, b });
            }
        }
        Ok(())
    }
}

impl fmt::Display for PartitionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &o in &self.owner {
            write!(f, "{:x}", o)?;
        }
        Ok(())
    }
}

/// All undirected mesh edges of the 4x4 grid, each once as
/// `(low, high)`, in the same scan order `Soc::from_recipe` wires
/// the directed link channels.
fn mesh_edges() -> impl Iterator<Item = (usize, usize)> {
    let w = MESH_WIDTH as usize;
    (0..NODES).flat_map(move |n| {
        let (x, y) = (n % w, n / w);
        let east = (x + 1 < w).then_some((n, n + 1));
        let south = (y + 1 < w).then_some((n, n + w));
        east.into_iter().chain(south)
    })
}

/// A deterministic per-node simulation-cost vector — the partitioner's
/// input. Costs are *model units*, not nanoseconds: what matters is
/// the relative load a node places on its worker's event wheel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCosts {
    /// Modeled cost of simulating each node's components.
    pub cost: [u64; NODES],
}

impl NodeCosts {
    /// Derives costs from a calibration run's merged [`SocReport`]:
    /// each PE node weighs its busy cycles plus datapath work units;
    /// the hub node weighs its command flow, memory traffic and local
    /// NoC flits (the hub bundle also simulates the controller, bus
    /// and memories, which scale with the same counters). Every node
    /// gets a +1 floor so idle nodes still spread deterministically.
    pub fn from_report(report: &SocReport) -> NodeCosts {
        let mut cost = [1u64; NODES];
        for pe in &report.pes {
            let n = usize::from(pe.node);
            if n < NODES {
                cost[n] += pe.busy_cycles + pe.work_units;
            }
        }
        let h = &report.hub;
        cost[HUB_NODE as usize] += h.dispatched + h.retired + h.gmem_ops + h.noc_flits + h.jobs;
        NodeCosts { cost }
    }

    /// Derives costs from the kernel's per-component tick profile
    /// (wall nanoseconds per component): component names are mapped
    /// back to their mesh node — `pe<n>`, `r<n>`, `r<n>.rtl`,
    /// `clkgen<n>` to node `n`, `x<a>-><b>` crossings to their
    /// consumer `b`, and everything else (hub, controller, bus,
    /// memories) to the hub node.
    pub fn from_tick_profile(profile: &[TickProfile]) -> NodeCosts {
        let mut cost = [1u64; NODES];
        for p in profile {
            let n = node_of_component(&p.name).unwrap_or(HUB_NODE as usize);
            cost[n] += p.nanos;
        }
        NodeCosts { cost }
    }

    /// Total modeled cost over all nodes.
    pub fn total(&self) -> u64 {
        self.cost.iter().sum()
    }

    /// The default per-cut-edge mailbox penalty: a small fraction of
    /// the total cost, so the search prefers fewer cut edges among
    /// cuts of equal load balance without letting boundary traffic
    /// dominate placement.
    pub fn default_cut_penalty(&self) -> u64 {
        self.total() / 256
    }

    /// The cut's modeled makespan: the maximum over shards of (sum of
    /// owned node costs + `cut_penalty` per incident cut edge). This
    /// is the quantity [`partition_search`] minimizes and the bench
    /// compares against the measured critical path.
    pub fn makespan(&self, spec: &PartitionSpec, cut_penalty: u64) -> u64 {
        let shards = spec.shards();
        let mut load = vec![0u64; shards];
        for (n, &c) in self.cost.iter().enumerate() {
            load[spec.owner_of(n)] += c;
        }
        for (s, l) in load.iter_mut().enumerate() {
            *l += cut_penalty * spec.incident_cuts(s) as u64;
        }
        load.into_iter().max().unwrap_or(0)
    }
}

/// Maps a tick-profile component name back to its mesh node; `None`
/// for hub-bundle components (controller, bus, memories, hub itself).
fn node_of_component(name: &str) -> Option<usize> {
    let digits = |s: &str| -> Option<usize> {
        let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
        (end > 0)
            .then(|| s[..end].parse().ok())?
            .filter(|&n| n < NODES)
    };
    if let Some(rest) = name.strip_prefix("pe") {
        return digits(rest);
    }
    if let Some(rest) = name.strip_prefix("clkgen") {
        return digits(rest);
    }
    if let Some(rest) = name.strip_prefix("x") {
        // Pausible crossing "x<a>-><b>" lives wholly in the consumer's
        // worker — charge node b.
        if let Some((_, b)) = rest.split_once("->") {
            return digits(b);
        }
    }
    if let Some(rest) = name.strip_prefix("r") {
        // "r<n>" router and "r<n>.rtl" activity — but not "riscv".
        if rest.starts_with(|c: char| c.is_ascii_digit()) {
            return digits(rest);
        }
    }
    None
}

/// Searches for a min-makespan cut over `shards` worker shards:
/// greedy LPT seeding (nodes in descending cost order onto the
/// least-loaded shard) refined by first-improvement single-node moves
/// and pairwise swaps under the full penalized makespan model. When a
/// vertical-strip shape exists for `shards` the strip is refined as a
/// second seed and the better of the two local optima wins — LPT is
/// topology-blind, so its optimum can pay more cut edges than the
/// contiguous strip; the second seed guarantees the searched cut
/// never models worse than the fixed strip. Fully deterministic —
/// ties break on node then shard index, and on an exact makespan tie
/// between seeds the strip-seeded cut wins — and bounded (each
/// refinement pass must strictly improve the makespan, which is a
/// non-negative integer).
///
/// # Panics
/// Panics unless `1 <= shards <= MAX_SHARDS`.
pub fn partition_search(costs: &NodeCosts, shards: usize, cut_penalty: u64) -> PartitionSpec {
    assert!(
        (1..=MAX_SHARDS).contains(&shards),
        "shards must be in 1..={MAX_SHARDS} (got {shards})"
    );
    // LPT seed: heaviest nodes first, each onto the least-loaded shard
    // (preferring emptier shards on load ties so every shard is
    // seeded even under all-equal costs).
    let mut order: Vec<usize> = (0..NODES).collect();
    order.sort_by_key(|&n| (std::cmp::Reverse(costs.cost[n]), n));
    let mut owner = [0usize; NODES];
    let mut load = vec![0u64; shards];
    let mut count = vec![0usize; shards];
    for &n in &order {
        let s = (0..shards)
            .min_by_key(|&s| (load[s], count[s], s))
            .expect("at least one shard");
        owner[n] = s;
        load[s] += costs.cost[n];
        count[s] += 1;
    }
    let lpt = refine_cut(costs, shards, cut_penalty, owner, count);

    if let Some(strip) = PartitionSpec::vertical_strips_checked(shards) {
        let mut owner = [0usize; NODES];
        let mut count = vec![0usize; shards];
        for (n, o) in strip.owner_vec().into_iter().enumerate() {
            owner[n] = o;
            count[o] += 1;
        }
        let refined_strip = refine_cut(costs, shards, cut_penalty, owner, count);
        if costs.makespan(&refined_strip, cut_penalty) <= costs.makespan(&lpt, cut_penalty) {
            return refined_strip;
        }
    }
    lpt
}

/// Refines one seeded owner map to a local optimum of the penalized
/// makespan model via first-improvement single-node moves and
/// pairwise swaps.
fn refine_cut(
    costs: &NodeCosts,
    shards: usize,
    cut_penalty: u64,
    mut owner: [usize; NODES],
    mut count: Vec<usize>,
) -> PartitionSpec {
    let spec_of = |owner: &[usize; NODES]| {
        PartitionSpec::from_owner(owner).expect("search keeps owner maps structurally valid")
    };
    // Renumbering note: moves keep every shard non-empty, so density
    // is preserved and from_owner never rejects.
    let mut best = spec_of(&owner);
    let mut best_span = costs.makespan(&best, cut_penalty);
    loop {
        let mut improved = false;
        // Single-node moves.
        'moves: for n in 0..NODES {
            let from = owner[n];
            if count[from] == 1 {
                continue; // would empty the shard
            }
            for to in 0..shards {
                if to == from {
                    continue;
                }
                owner[n] = to;
                let cand = spec_of(&owner);
                let span = costs.makespan(&cand, cut_penalty);
                if span < best_span {
                    count[from] -= 1;
                    count[to] += 1;
                    best = cand;
                    best_span = span;
                    improved = true;
                    break 'moves;
                }
                owner[n] = from;
            }
        }
        if improved {
            continue;
        }
        // Pairwise boundary swaps (counts unchanged).
        'swaps: for a in 0..NODES {
            for b in (a + 1)..NODES {
                if owner[a] == owner[b] {
                    continue;
                }
                (owner[a], owner[b]) = (owner[b], owner[a]);
                let cand = spec_of(&owner);
                let span = costs.makespan(&cand, cut_penalty);
                if span < best_span {
                    best = cand;
                    best_span = span;
                    improved = true;
                    break 'swaps;
                }
                (owner[a], owner[b]) = (owner[b], owner[a]);
            }
        }
        if !improved {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertical_strips_match_the_historical_shapes() {
        assert_eq!(
            PartitionSpec::vertical_strips(1).owner_vec(),
            vec![0usize; 16]
        );
        let two = PartitionSpec::vertical_strips(2);
        assert_eq!(two.owner_of(0), 0);
        assert_eq!(two.owner_of(3), 1);
        assert_eq!(two.shards(), 2);
        let four = PartitionSpec::vertical_strips(4);
        assert_eq!(four.hub_shard(), 3);
        let eight = PartitionSpec::vertical_strips(8);
        assert_eq!(eight.hub_shard(), 7);
        assert!(PartitionSpec::vertical_strips_checked(3).is_none());
        assert!(PartitionSpec::vertical_strips_checked(16).is_none());
    }

    #[test]
    fn parse_and_display_round_trip() {
        for spec in [
            PartitionSpec::vertical_strips(1),
            PartitionSpec::vertical_strips(2),
            PartitionSpec::vertical_strips(4),
            PartitionSpec::vertical_strips(8),
            PartitionSpec::parse("0000111122223333").unwrap(),
        ] {
            assert_eq!(PartitionSpec::parse(&spec.to_string()).unwrap(), spec);
        }
    }

    #[test]
    fn malformed_specs_are_typed_rejections() {
        assert_eq!(
            PartitionSpec::parse("0000"),
            Err(PartitionError::WrongLength { got: 4 })
        );
        assert_eq!(
            PartitionSpec::parse("000011112222333z"),
            Err(PartitionError::BadDigit { pos: 15, ch: 'z' })
        );
        // Shard 2 named while shard 1 owns nothing: not dense.
        assert_eq!(
            PartitionSpec::parse("0000000000000002"),
            Err(PartitionError::EmptyShard { shard: 1 })
        );
        assert_eq!(
            PartitionSpec::from_owner(&[0; 15]),
            Err(PartitionError::WrongLength { got: 15 })
        );
        let mut o = vec![0usize; 16];
        o[3] = 16;
        assert_eq!(
            PartitionSpec::from_owner(&o),
            Err(PartitionError::ShardOutOfRange { node: 3, shard: 16 })
        );
    }

    #[test]
    fn cut_edges_and_li_validation() {
        let one = PartitionSpec::vertical_strips(1);
        assert!(one.cut_edges().is_empty());
        let two = PartitionSpec::vertical_strips(2);
        // Columns 1|2 boundary: 4 horizontal edges cut.
        assert_eq!(two.cut_edges().len(), 4);
        assert_eq!(two.incident_cuts(0), 4);
        assert_eq!(two.incident_cuts(1), 4);
        let cfg = SocConfig::default();
        two.validate_for(&cfg).expect("default links are LI");
        let mut zero_depth = cfg;
        zero_depth.link_depth = 0;
        assert_eq!(
            two.validate_for(&zero_depth),
            Err(PartitionError::NotLiBoundary { a: 1, b: 2 })
        );
        // The degenerate single-shard spec has no cut to validate.
        one.validate_for(&zero_depth).expect("no cut edges");
    }

    #[test]
    fn search_balances_a_skewed_cost_vector() {
        // One hot node per column pair; strips would stack both hot
        // nodes of a column pair onto one shard.
        let mut costs = NodeCosts { cost: [1; 16] };
        costs.cost[0] = 1000;
        costs.cost[1] = 1000;
        costs.cost[15] = 500;
        let spec = partition_search(&costs, 2, costs.default_cut_penalty());
        assert_eq!(spec.shards(), 2);
        assert_ne!(
            spec.owner_of(0),
            spec.owner_of(1),
            "the two hot nodes must split"
        );
        let strips = PartitionSpec::vertical_strips(2);
        let pen = costs.default_cut_penalty();
        assert!(
            costs.makespan(&spec, pen) <= costs.makespan(&strips, pen),
            "search must not be worse than the fixed strip"
        );
        // Every shard non-empty for every requested count.
        for shards in 1..=MAX_SHARDS {
            let s = partition_search(&costs, shards, 0);
            assert_eq!(s.shards(), shards, "{shards}-shard search");
        }
    }

    #[test]
    fn search_is_deterministic() {
        let mut costs = NodeCosts::default();
        for (i, c) in costs.cost.iter_mut().enumerate() {
            *c = (i as u64 * 37) % 11 + 1;
        }
        let a = partition_search(&costs, 4, costs.default_cut_penalty());
        let b = partition_search(&costs, 4, costs.default_cut_penalty());
        assert_eq!(a, b);
    }

    #[test]
    fn tick_profile_names_map_to_nodes() {
        assert_eq!(node_of_component("pe7"), Some(7));
        assert_eq!(node_of_component("r12.rtl"), Some(12));
        assert_eq!(node_of_component("r3"), Some(3));
        assert_eq!(node_of_component("clkgen9"), Some(9));
        assert_eq!(node_of_component("x2->6"), Some(6));
        assert_eq!(node_of_component("riscv"), None);
        assert_eq!(node_of_component("hub15"), None);
        assert_eq!(node_of_component("ctl.axim"), None);
        assert_eq!(node_of_component("staging"), None);
    }

    #[test]
    fn report_costs_weigh_pes_and_hub() {
        let mut report = SocReport::default();
        report.pes.push(crate::soc::PeReport {
            node: 5,
            commands: 2,
            busy_cycles: 100,
            work_units: 50,
            gates_charged: 0,
        });
        report.hub.dispatched = 10;
        report.hub.gmem_ops = 30;
        let costs = NodeCosts::from_report(&report);
        assert_eq!(costs.cost[5], 151);
        assert_eq!(costs.cost[HUB_NODE as usize], 41);
        assert_eq!(costs.cost[0], 1, "idle nodes keep the floor");
    }
}
