//! Compiled RTL evaluation plans.
//!
//! [`crate::bitrtl`] is the *interpreted* RTL path: every add is a
//! ripple-carry loop, every multiply a shift-add array, and every
//! clocked region re-walks its packed signal state word by word each
//! cycle. That is faithful but slow — the gap the repo's benchmark
//! reports as `fig6_rtl / soc.fig6.speedup_x`, the compiled path's
//! share of it as `fig6_rtl / soc.rtlplan.speedup_x`. Compiled RTL
//! simulators (Verilator, LightningSimV2, OmniSim) close the gap by
//! lowering the design *once* into a levelized word-level schedule and
//! then executing that schedule as straight-line native code every
//! cycle.
//!
//! This module is that lowering pass:
//!
//! * [`EvalPlan`] — one datapath operator ([`DpOp`]) lowered to a
//!   levelized sequence of word ops over a flat arena. Evaluation is
//!   a tight loop over [`PlanStep`]s: no per-tick allocation, no
//!   dynamic dispatch, native machine arithmetic.
//! * [`SignalPlan`] — a component's per-cycle signal set lowered via
//!   [`craft_tech::lower`]: gate equivalents packed
//!   [`craft_tech::GATES_PER_WORD`] to a word op and walked as one
//!   sequential arena pass (a static schedule has no event dispatch
//!   and no modular indexing).
//! * [`PlanCache`] — memoizes lowered operator plans per
//!   `(op, width)` so all 15 PEs share 4 plans instead of lowering
//!   60, with hit/miss counters surfaced as [`PlanStats`].
//! * [`DpEval`] — the PE-facing evaluation strategy: native
//!   (sim-accurate), interpreted (golden reference), or compiled.
//!
//! **The accuracy contract:** the compiled path must produce
//! bit-identical results *and* charge bit-identical gate counts to the
//! [`RtlCost`] ledger as the interpreted path — property-tested below
//! across widths 1..=64. The cost model is preserved; only the
//! wall-clock work per charge changes.

use crate::bitrtl::{self, RtlCost};
use craft_sim::stats::Counter;
use craft_tech::{lower, ops, LoweredNetlist, Netlist};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

/// Datapath operators the PE evaluates in RTL mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DpOp {
    /// Ripple-carry addition.
    Add,
    /// Subtraction (adder + inverting row).
    Sub,
    /// Two's-complement negation.
    Neg,
    /// Array multiplication.
    Mul,
    /// Unsigned magnitude compare (`a < b` → 0/1).
    Lt,
    /// Absolute difference |a − b| (comparator + subtractor).
    AbsDiff,
}

impl DpOp {
    /// The `craft-tech` gate netlist this operator synthesizes to —
    /// the single source of truth for what both the interpreted and
    /// the compiled path charge per evaluation.
    pub fn netlist(self, width: u32) -> Netlist {
        match self {
            DpOp::Add => ops::adder(width),
            DpOp::Sub | DpOp::Neg => ops::subtractor(width),
            DpOp::Mul => ops::multiplier(width),
            DpOp::Lt => ops::comparator(width),
            DpOp::AbsDiff => ops::comparator(width) + ops::subtractor(width),
        }
    }
}

/// Gate equivalents one evaluation of `op` at `width` charges to the
/// [`RtlCost`] ledger (identical for interpreted and compiled paths).
pub fn dp_gates(op: DpOp, width: u32) -> u64 {
    lower(&op.netlist(width)).gate_equiv
}

/// One word-level operation in a compiled plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordOp {
    /// `dst = a + b` (wrapping).
    Add,
    /// `dst = a - b` (wrapping).
    Sub,
    /// `dst = a * b` (wrapping).
    Mul,
    /// `dst = !a`.
    Not,
    /// `dst = a & width_mask`.
    AndMask,
    /// `dst = a + imm` (wrapping).
    AddImm(u64),
    /// `dst = (a < b) as u64` (unsigned).
    LtU,
    /// `dst = if c != 0 { a } else { b }`.
    Select,
}

/// One step of a compiled plan: `dst = op(a, b[, c])` over flat arena
/// slots, tagged with its levelized rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanStep {
    /// The word operation.
    pub op: WordOp,
    /// First operand slot.
    pub a: u16,
    /// Second operand slot (ignored by unary ops).
    pub b: u16,
    /// Condition slot (used by [`WordOp::Select`] only).
    pub c: u16,
    /// Destination slot.
    pub dst: u16,
    /// Levelized schedule rank (inputs are level 0).
    pub level: u16,
}

/// A datapath operator lowered to a word-level evaluation plan:
/// a levelized, topologically ordered step schedule over a flat
/// arena. Build once ([`EvalPlan::lower_dp`]), evaluate every cycle
/// at native speed ([`EvalPlan::eval`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalPlan {
    op: DpOp,
    width: u32,
    mask: u64,
    steps: Vec<PlanStep>,
    n_slots: usize,
    result: u16,
    /// Gate equivalents charged per evaluation (= the interpreted
    /// path's charge for the same operator).
    gates: u64,
    /// Levelized depth of the step schedule.
    levels: u16,
}

/// Builder-internal: appends a step, assigning its level from its
/// operands' levels.
struct PlanBuilder {
    steps: Vec<PlanStep>,
    level_of: Vec<u16>,
}

impl PlanBuilder {
    fn new() -> Self {
        // Slots 0 and 1 are the inputs, at level 0.
        PlanBuilder {
            steps: Vec::new(),
            level_of: vec![0, 0],
        }
    }

    fn push(&mut self, op: WordOp, a: u16, b: u16, c: u16) -> u16 {
        let dst = self.level_of.len() as u16;
        let used: &[u16] = match op {
            WordOp::Not | WordOp::AndMask | WordOp::AddImm(_) => &[a],
            WordOp::Select => &[a, b, c],
            _ => &[a, b],
        };
        let level = used
            .iter()
            .map(|&s| self.level_of[s as usize])
            .max()
            .unwrap_or(0)
            + 1;
        self.level_of.push(level);
        self.steps.push(PlanStep {
            op,
            a,
            b,
            c,
            dst,
            level,
        });
        dst
    }
}

impl EvalPlan {
    /// Lowers `op` at `width` bits into a compiled plan.
    ///
    /// # Panics
    /// Panics unless `1 <= width <= 64`.
    pub fn lower_dp(op: DpOp, width: u32) -> EvalPlan {
        assert!((1..=64).contains(&width), "width must be 1..=64");
        let mut b = PlanBuilder::new();
        // Mask both inputs first: the interpreted reference only
        // examines the low `width` bits of its operands.
        let a0 = b.push(WordOp::AndMask, 0, 0, 0);
        let b0 = b.push(WordOp::AndMask, 1, 0, 0);
        let result = match op {
            DpOp::Add => {
                let s = b.push(WordOp::Add, a0, b0, 0);
                b.push(WordOp::AndMask, s, 0, 0)
            }
            DpOp::Sub => {
                let s = b.push(WordOp::Sub, a0, b0, 0);
                b.push(WordOp::AndMask, s, 0, 0)
            }
            DpOp::Neg => {
                let n = b.push(WordOp::Not, a0, 0, 0);
                let nm = b.push(WordOp::AndMask, n, 0, 0);
                let s = b.push(WordOp::AddImm(1), nm, 0, 0);
                b.push(WordOp::AndMask, s, 0, 0)
            }
            DpOp::Mul => {
                let p = b.push(WordOp::Mul, a0, b0, 0);
                b.push(WordOp::AndMask, p, 0, 0)
            }
            DpOp::Lt => b.push(WordOp::LtU, a0, b0, 0),
            DpOp::AbsDiff => {
                let d0 = b.push(WordOp::Sub, a0, b0, 0);
                let r0 = b.push(WordOp::AndMask, d0, 0, 0);
                let d1 = b.push(WordOp::Sub, b0, a0, 0);
                let r1 = b.push(WordOp::AndMask, d1, 0, 0);
                let c = b.push(WordOp::LtU, a0, b0, 0);
                b.push(WordOp::Select, r1, r0, c)
            }
        };
        let levels = b.steps.iter().map(|s| s.level).max().unwrap_or(0);
        EvalPlan {
            op,
            width,
            mask: width_mask(width),
            n_slots: b.level_of.len(),
            steps: b.steps,
            result,
            gates: dp_gates(op, width),
            levels,
        }
    }

    /// Evaluates the plan on `(a, b)` using `arena` as flat scratch
    /// storage (cleared and reused; no allocation once it has grown to
    /// `n_slots`) and charges the operator's gate equivalents via
    /// `charge`.
    pub fn eval(&self, a: u64, b: u64, arena: &mut Vec<u64>, charge: &Cell<u64>) -> u64 {
        arena.clear();
        arena.resize(self.n_slots, 0);
        arena[0] = a;
        arena[1] = b;
        for step in &self.steps {
            let x = arena[step.a as usize];
            let v = match step.op {
                WordOp::Add => x.wrapping_add(arena[step.b as usize]),
                WordOp::Sub => x.wrapping_sub(arena[step.b as usize]),
                WordOp::Mul => x.wrapping_mul(arena[step.b as usize]),
                WordOp::Not => !x,
                WordOp::AndMask => x & self.mask,
                WordOp::AddImm(imm) => x.wrapping_add(imm),
                WordOp::LtU => u64::from(x < arena[step.b as usize]),
                WordOp::Select => {
                    if arena[step.c as usize] != 0 {
                        x
                    } else {
                        arena[step.b as usize]
                    }
                }
            };
            arena[step.dst as usize] = v;
        }
        charge.set(charge.get() + self.gates);
        arena[self.result as usize]
    }

    /// Gate equivalents charged per evaluation.
    pub fn gates(&self) -> u64 {
        self.gates
    }

    /// Word-op steps one evaluation executes.
    pub fn word_steps(&self) -> usize {
        self.steps.len()
    }

    /// Levelized depth of the schedule.
    pub fn levels(&self) -> u16 {
        self.levels
    }

    /// The operator this plan evaluates.
    pub fn op(&self) -> DpOp {
        self.op
    }

    /// Operand width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }
}

fn width_mask(width: u32) -> u64 {
    if width == 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    }
}

/// A component's per-cycle signal set, compiled: the gate budget is
/// lowered once via [`craft_tech::lower`] into a flat word arena, and
/// every cycle is one sequential pass over it — a static schedule with
/// no event dispatch, no modular indexing, and
/// [`craft_tech::GATES_PER_WORD`] gate equivalents retired per word op
/// (versus 8 for the interpreted [`RtlCost::step`] walk).
///
/// The charged gate count is identical to what the interpreted path
/// charges for the same component; only the work per charge shrinks.
#[derive(Debug, Clone)]
pub struct SignalPlan {
    gates: u64,
    state: Vec<u64>,
    acc: u64,
}

impl SignalPlan {
    /// Compiles a lowered netlist into a signal plan.
    pub fn new(lowered: LoweredNetlist) -> SignalPlan {
        SignalPlan {
            gates: lowered.gate_equiv,
            state: vec![0x9E37_79B9_7F4A_7C15; lowered.word_ops as usize],
            acc: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Compiles a plain gate budget (components modeled without a
    /// structural netlist, e.g. PE control + datapath glue).
    pub fn from_gate_count(gates: u64) -> SignalPlan {
        SignalPlan::new(LoweredNetlist::from_gate_count(gates))
    }

    /// One compiled evaluation pass: walks the arena sequentially
    /// (persistent, data-dependent state so the work is not
    /// optimizable away) and charges the full gate budget to `cost`.
    pub fn burn(&mut self, cost: &mut RtlCost) {
        let mut acc = self.acc;
        for w in self.state.iter_mut() {
            let x = *w;
            acc = acc.wrapping_add(x ^ (acc >> 7));
            *w = acc;
        }
        self.acc = acc;
        cost.charge(self.gates);
    }

    /// Gate equivalents charged per pass.
    pub fn gates(&self) -> u64 {
        self.gates
    }

    /// Word ops executed per pass.
    pub fn word_ops(&self) -> u64 {
        self.state.len() as u64
    }

    /// Opaque digest (anti-DCE; determinism probe).
    pub fn digest(&self) -> u64 {
        self.state.iter().fold(self.acc, |d, &w| d ^ w)
    }
}

/// Compile-plan statistics, attributable through `craft-sim`'s stats
/// layer: how much lowering ran once versus how much evaluation it
/// amortizes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Operator plans actually lowered (cache misses).
    pub ops_lowered: u64,
    /// Operator-plan cache hits.
    pub cache_hits: u64,
    /// Total word-op steps across lowered operator plans.
    pub word_steps: u64,
    /// Deepest levelized operator schedule.
    pub max_levels: u64,
    /// Signal plans compiled (one per always-on component).
    pub signal_plans: u64,
    /// Total word ops across compiled signal plans (per-cycle cost).
    pub signal_word_ops: u64,
}

/// Memoizes lowered operator plans per `(op, width)` and tracks
/// lowering statistics. One cache is shared across all PEs of a SoC,
/// so 15 PEs × 4 operators produce 4 lowered plans and 56 hits.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: HashMap<(DpOp, u32), Rc<EvalPlan>>,
    hits: Counter,
    misses: Counter,
    word_steps: Counter,
    max_levels: Counter,
    signal_plans: Counter,
    signal_word_ops: Counter,
}

/// Shared handle to a [`PlanCache`]: one per SoC, borrowed only during
/// `Soc::build` (plan lookup/registration) and report/telemetry
/// snapshots — never on the per-cycle evaluation path, which works on
/// the `Rc<EvalPlan>`s directly.
pub type PlanCacheHandle = Rc<RefCell<PlanCache>>;

impl PlanCache {
    /// Fresh empty cache behind a shareable handle.
    pub fn handle() -> PlanCacheHandle {
        Rc::new(RefCell::new(PlanCache::default()))
    }

    /// Returns the plan for `(op, width)`, lowering it on first use.
    pub fn get(&mut self, op: DpOp, width: u32) -> Rc<EvalPlan> {
        if let Some(p) = self.plans.get(&(op, width)) {
            self.hits.incr();
            return Rc::clone(p);
        }
        self.misses.incr();
        let p = Rc::new(EvalPlan::lower_dp(op, width));
        self.word_steps.add(p.word_steps() as u64);
        self.max_levels.observe_max(u64::from(p.levels()));
        self.plans.insert((op, width), Rc::clone(&p));
        p
    }

    /// Records a compiled [`SignalPlan`] in the lowering statistics.
    pub fn register_signal_plan(&mut self, plan: &SignalPlan) {
        self.signal_plans.incr();
        self.signal_word_ops.add(plan.word_ops());
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> PlanStats {
        PlanStats {
            ops_lowered: self.misses.get(),
            cache_hits: self.hits.get(),
            word_steps: self.word_steps.get(),
            max_levels: self.max_levels.get(),
            signal_plans: self.signal_plans.get(),
            signal_word_ops: self.signal_word_ops.get(),
        }
    }
}

/// Precomputed per-operator gate charges for the interpreted path
/// (the netlists are fixed; pricing them per evaluation would just be
/// allocator noise). Constructed only through [`DpEval::interpreted`].
#[derive(Debug, Clone, Copy)]
pub struct DpGates {
    add: u64,
    mul: u64,
    lt: u64,
    absdiff: u64,
}

impl DpGates {
    fn at(width: u32) -> DpGates {
        DpGates {
            add: dp_gates(DpOp::Add, width),
            mul: dp_gates(DpOp::Mul, width),
            lt: dp_gates(DpOp::Lt, width),
            absdiff: dp_gates(DpOp::AbsDiff, width),
        }
    }
}

/// Compiled datapath bundle: the four operator plans a PE needs plus
/// the reusable arena.
#[derive(Debug)]
pub struct CompiledDp {
    add: Rc<EvalPlan>,
    mul: Rc<EvalPlan>,
    lt: Rc<EvalPlan>,
    absdiff: Rc<EvalPlan>,
    arena: RefCell<Vec<u64>>,
}

/// Datapath evaluation strategy selected by the PE's fidelity mode.
///
/// All three strategies compute bit-identical results; `Interpreted`
/// and `Compiled` additionally charge bit-identical gate counts (the
/// compiled path's contract, property-tested in this module).
#[derive(Debug)]
pub enum DpEval {
    /// Native machine ops, no gate charges (sim-accurate mode).
    Native,
    /// Bit-level golden reference ([`crate::bitrtl`]).
    Interpreted(DpGates),
    /// Compiled word-level plans.
    Compiled(CompiledDp),
}

/// Datapath operand width of the PE (u64 words).
pub const DP_WIDTH: u32 = 64;

impl DpEval {
    /// Interpreted strategy at the PE's datapath width.
    pub fn interpreted() -> DpEval {
        DpEval::Interpreted(DpGates::at(DP_WIDTH))
    }

    /// Compiled strategy, drawing plans from `cache` (shared across
    /// PEs so lowering runs once per operator).
    pub fn compiled(cache: &PlanCacheHandle) -> DpEval {
        let mut c = cache.borrow_mut();
        DpEval::Compiled(CompiledDp {
            add: c.get(DpOp::Add, DP_WIDTH),
            mul: c.get(DpOp::Mul, DP_WIDTH),
            lt: c.get(DpOp::Lt, DP_WIDTH),
            absdiff: c.get(DpOp::AbsDiff, DP_WIDTH),
            arena: RefCell::new(Vec::new()),
        })
    }

    /// Addition; charges the adder's gates in RTL strategies.
    pub fn add(&self, a: u64, b: u64, charge: &Cell<u64>) -> u64 {
        match self {
            DpEval::Native => a.wrapping_add(b),
            DpEval::Interpreted(g) => {
                charge.set(charge.get() + g.add);
                bitrtl::add_bitwise(a, b, DP_WIDTH)
            }
            DpEval::Compiled(c) => c.add.eval(a, b, &mut c.arena.borrow_mut(), charge),
        }
    }

    /// Multiplication; charges the multiplier's gates.
    pub fn mul(&self, a: u64, b: u64, charge: &Cell<u64>) -> u64 {
        match self {
            DpEval::Native => a.wrapping_mul(b),
            DpEval::Interpreted(g) => {
                charge.set(charge.get() + g.mul);
                bitrtl::mul_bitwise(a, b, DP_WIDTH)
            }
            DpEval::Compiled(c) => c.mul.eval(a, b, &mut c.arena.borrow_mut(), charge),
        }
    }

    /// Unsigned `a < b`; charges the comparator's gates.
    pub fn lt(&self, a: u64, b: u64, charge: &Cell<u64>) -> bool {
        match self {
            DpEval::Native => a < b,
            DpEval::Interpreted(g) => {
                charge.set(charge.get() + g.lt);
                bitrtl::lt_bitwise(a, b, DP_WIDTH)
            }
            DpEval::Compiled(c) => c.lt.eval(a, b, &mut c.arena.borrow_mut(), charge) != 0,
        }
    }

    /// |a − b|; charges comparator + subtractor gates.
    pub fn absdiff(&self, a: u64, b: u64, charge: &Cell<u64>) -> u64 {
        match self {
            DpEval::Native => a.abs_diff(b),
            DpEval::Interpreted(g) => {
                charge.set(charge.get() + g.absdiff);
                bitrtl::absdiff_bitwise(a, b, DP_WIDTH)
            }
            DpEval::Compiled(c) => c.absdiff.eval(a, b, &mut c.arena.borrow_mut(), charge),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn interp(op: DpOp, a: u64, b: u64, w: u32) -> u64 {
        match op {
            DpOp::Add => bitrtl::add_bitwise(a, b, w),
            DpOp::Sub => bitrtl::sub_bitwise(a, b, w),
            DpOp::Neg => bitrtl::neg_bitwise(a, w),
            DpOp::Mul => bitrtl::mul_bitwise(a, b, w),
            DpOp::Lt => u64::from(bitrtl::lt_bitwise(a, b, w)),
            DpOp::AbsDiff => bitrtl::absdiff_bitwise(a, b, w),
        }
    }

    const ALL_OPS: [DpOp; 6] = [
        DpOp::Add,
        DpOp::Sub,
        DpOp::Neg,
        DpOp::Mul,
        DpOp::Lt,
        DpOp::AbsDiff,
    ];

    #[test]
    fn plans_are_levelized_and_topological() {
        for op in ALL_OPS {
            let p = EvalPlan::lower_dp(op, 32);
            assert!(p.levels() >= 1);
            // Topological order: every operand slot is written (or an
            // input) before its consumer, and levels never decrease
            // below an operand's level.
            let mut written = vec![true, true];
            written.resize(p.n_slots, false);
            for s in &p.steps {
                assert!(written[s.a as usize], "{op:?}: slot {} read early", s.a);
                if matches!(
                    s.op,
                    WordOp::Add | WordOp::Sub | WordOp::Mul | WordOp::LtU | WordOp::Select
                ) {
                    assert!(written[s.b as usize]);
                }
                if matches!(s.op, WordOp::Select) {
                    assert!(written[s.c as usize]);
                }
                written[s.dst as usize] = true;
            }
            assert!(written[p.result as usize]);
        }
    }

    #[test]
    fn gate_charges_match_tech_netlists() {
        // One source of truth: the plan charges exactly what the
        // craft-tech operator netlist lowers to.
        for op in ALL_OPS {
            for w in [1, 8, 32, 64] {
                let p = EvalPlan::lower_dp(op, w);
                assert_eq!(p.gates(), dp_gates(op, w), "{op:?} width {w}");
                assert!(p.gates() > 0);
            }
        }
        // Sanity: a multiplier dwarfs an adder, as in the tech models.
        assert!(dp_gates(DpOp::Mul, 32) > 10 * dp_gates(DpOp::Add, 32));
    }

    #[test]
    fn known_values_through_compiled_plans() {
        let charge = Cell::new(0u64);
        let mut arena = Vec::new();
        let add8 = EvalPlan::lower_dp(DpOp::Add, 8);
        assert_eq!(add8.eval(200, 58, &mut arena, &charge), 2); // wraps at 8 bits
        let mul16 = EvalPlan::lower_dp(DpOp::Mul, 16);
        assert_eq!(mul16.eval(7, 6, &mut arena, &charge), 42);
        let lt8 = EvalPlan::lower_dp(DpOp::Lt, 8);
        assert_eq!(lt8.eval(3, 9, &mut arena, &charge), 1);
        assert_eq!(lt8.eval(9, 3, &mut arena, &charge), 0);
        let ad8 = EvalPlan::lower_dp(DpOp::AbsDiff, 8);
        assert_eq!(ad8.eval(3, 9, &mut arena, &charge), 6);
        let neg8 = EvalPlan::lower_dp(DpOp::Neg, 8);
        assert_eq!(neg8.eval(1, 0, &mut arena, &charge), 255);
        assert!(charge.get() > 0);
    }

    #[test]
    fn high_bits_beyond_width_are_ignored_like_the_interpreter() {
        // Wrap-around / width-mask edge case: operands with garbage
        // above `width` must evaluate as their masked values do.
        let charge = Cell::new(0u64);
        let mut arena = Vec::new();
        for op in ALL_OPS {
            for w in [1u32, 7, 8, 63, 64] {
                let p = EvalPlan::lower_dp(op, w);
                let (a, b) = (0xDEAD_BEEF_CAFE_F00D_u64, 0x1234_5678_9ABC_DEF0_u64);
                assert_eq!(
                    p.eval(a, b, &mut arena, &charge),
                    interp(op, a, b, w),
                    "{op:?} width {w}"
                );
            }
        }
    }

    #[test]
    fn plan_cache_memoizes_and_counts() {
        let cache = PlanCache::handle();
        {
            let mut c = cache.borrow_mut();
            let p1 = c.get(DpOp::Add, 64);
            let p2 = c.get(DpOp::Add, 64);
            assert!(Rc::ptr_eq(&p1, &p2));
            let _ = c.get(DpOp::Add, 32); // different width = new plan
            let _ = c.get(DpOp::Mul, 64);
        }
        let s = cache.borrow().stats();
        assert_eq!(s.ops_lowered, 3);
        assert_eq!(s.cache_hits, 1);
        assert!(s.word_steps > 0);
        assert!(s.max_levels >= 2);
    }

    #[test]
    fn shared_cache_across_pes_mostly_hits() {
        let cache = PlanCache::handle();
        for _ in 0..15 {
            let _ = DpEval::compiled(&cache);
        }
        let s = cache.borrow().stats();
        assert_eq!(s.ops_lowered, 4, "four operators lowered once");
        assert_eq!(s.cache_hits, 14 * 4, "remaining 14 PEs hit the cache");
    }

    #[test]
    fn signal_plan_charges_full_budget_per_pass() {
        let mut cost = RtlCost::new();
        let mut plan = SignalPlan::from_gate_count(16_000);
        assert_eq!(
            plan.word_ops(),
            16_000u64.div_ceil(craft_tech::GATES_PER_WORD)
        );
        let d0 = plan.digest();
        plan.burn(&mut cost);
        plan.burn(&mut cost);
        assert_eq!(cost.charged(), 32_000);
        assert_ne!(plan.digest(), d0, "burn must mutate state");
    }

    #[test]
    fn signal_plan_word_ops_are_far_fewer_than_interpreted() {
        // The speedup mechanism: same charge, a small fraction of the
        // word iterations (GATES_PER_WORD per compiled word op vs the
        // interpreter's 8 gates/word).
        let plan = SignalPlan::from_gate_count(40_000);
        assert_eq!(plan.gates(), 40_000);
        assert_eq!(
            plan.word_ops(),
            40_000u64.div_ceil(craft_tech::GATES_PER_WORD)
        );
        let interp_words = 40_000 / 8;
        assert!(plan.word_ops() * 8 <= interp_words);
    }

    #[test]
    fn dp_eval_strategies_agree_and_charge_identically() {
        let cache = PlanCache::handle();
        let compiled = DpEval::compiled(&cache);
        let interp = DpEval::interpreted();
        let cc = Cell::new(0u64);
        let ci = Cell::new(0u64);
        for (a, b) in [(0u64, 0u64), (u64::MAX, 1), (7, 6), (1 << 63, 1 << 63)] {
            assert_eq!(compiled.add(a, b, &cc), interp.add(a, b, &ci));
            assert_eq!(compiled.mul(a, b, &cc), interp.mul(a, b, &ci));
            assert_eq!(compiled.lt(a, b, &cc), interp.lt(a, b, &ci));
            assert_eq!(compiled.absdiff(a, b, &cc), interp.absdiff(a, b, &ci));
        }
        assert_eq!(cc.get(), ci.get(), "gate charges must be identical");
        assert!(cc.get() > 0);
    }

    proptest! {
        /// The compiled-vs-interpreted equivalence suite: bit-identical
        /// results across all operators and widths 1..=64, including
        /// wrap-around (values near 2^width) and mask edge cases.
        #[test]
        fn compiled_matches_interpreted(a: u64, b: u64, width in 1u32..=64) {
            let charge = Cell::new(0u64);
            let mut arena = Vec::new();
            for op in ALL_OPS {
                let p = EvalPlan::lower_dp(op, width);
                prop_assert_eq!(
                    p.eval(a, b, &mut arena, &charge),
                    interp(op, a, b, width),
                    "{:?} width {}", op, width
                );
            }
        }

        /// Wrap-around stress: operands pinned to the mask boundary.
        #[test]
        fn compiled_matches_interpreted_at_wrap_edges(width in 1u32..=64, sel in 0usize..4) {
            let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
            let edges = [mask, mask.wrapping_add(1), 1, 0];
            let (a, b) = (edges[sel], edges[(sel + 1) % 4]);
            let charge = Cell::new(0u64);
            let mut arena = Vec::new();
            for op in ALL_OPS {
                let p = EvalPlan::lower_dp(op, width);
                prop_assert_eq!(p.eval(a, b, &mut arena, &charge), interp(op, a, b, width));
            }
        }

        /// The charge ledger agrees between strategies for any op mix.
        #[test]
        fn charges_identical_for_random_op_sequences(seq in proptest::collection::vec((0usize..4, any::<u64>(), any::<u64>()), 1..32)) {
            let cache = PlanCache::handle();
            let compiled = DpEval::compiled(&cache);
            let interp = DpEval::interpreted();
            let cc = Cell::new(0u64);
            let ci = Cell::new(0u64);
            for (which, a, b) in seq {
                match which {
                    0 => prop_assert_eq!(compiled.add(a, b, &cc), interp.add(a, b, &ci)),
                    1 => prop_assert_eq!(compiled.mul(a, b, &cc), interp.mul(a, b, &ci)),
                    2 => prop_assert_eq!(compiled.lt(a, b, &cc), interp.lt(a, b, &ci)),
                    _ => prop_assert_eq!(compiled.absdiff(a, b, &cc), interp.absdiff(a, b, &ci)),
                }
            }
            prop_assert_eq!(cc.get(), ci.get());
        }
    }
}
