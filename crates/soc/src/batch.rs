//! Batched lockstep co-simulation: word-parallel fault campaigns.
//!
//! A fault campaign runs N seeded variants of the *same* workload —
//! same program, same memory image, same SoC build — differing only in
//! the fault decisions a seeded injector draws. Until a lane's fault
//! first perturbs the token stream, its trajectory is bit-identical to
//! the fault-free golden run. [`BatchSoc`] exploits that: it advances
//! **one** golden simulation (no real injector is attached to it) and
//! replays every lane's fault *decisions* against the golden token
//! stream through shadow [`craft_connections::FaultLaneBank`]s laid
//! out as lane-indexed arrays on each matched channel:
//!
//! ```text
//!                 ┌───────────── golden Soc ─────────────┐
//!                 │  channel "l11p3->15"                 │
//!                 │    ├─ FaultLaneBank                  │
//!  lane 0 ──────▶ │    │   injector[0]  (seed_0 ^ salt)  │ ─▶ Converged:
//!  lane 1 ──────▶ │    │   injector[1]  (seed_1 ^ salt)  │    golden result
//!   ...           │    │     ...                         │    + shadow stats
//!  lane N-1 ────▶ │    │   injector[N-1]                 │
//!                 │    └─ shared LaneSet (live list)     │ ─▶ Diverged:
//!                 └──────────────────────────────────────┘    de-opt → solo
//!                                                             replay on a
//!                                                             host worker
//! ```
//!
//! The moment a lane's drawn decision would perturb the stream (bit
//! flip, drop, or a duplicate the FIFO had room for) the lane **de-ops
//! to a solo replay**: a fresh [`Soc`] build with a real injector, run
//! from t=0 under the batch's limits — on the same gated kernel loop,
//! since an injector changes what a channel commits and not the
//! schedule. A solo run stays the golden reference; batching never
//! invents a third semantics. Once the golden run ends, the diverged
//! lanes are replayed across the host's cores ([`craft_sim::par_map`]:
//! a hung lane waiting out its watchdog holds one worker while the
//! others drain the rest); each worker builds, runs and drops its `Soc`
//! locally and hands back plain data, so after the run the batch holds
//! no simulation but the golden one. Lanes whose injectors never fire
//! finish bit-identical to the golden run for free, with exact
//! [`FaultStats`] accumulated by the shadows.
//!
//! Divergence is conservative (see [`craft_connections::LaneSet`]): a
//! false positive costs one replay, a false negative would corrupt
//! results, so the bank never risks one. Stuck-wire faults gate
//! handshakes from their onset — no convergent prefix — so those lanes
//! are pre-diverged at build (divergence token 0).
//!
//! When batching wins: low per-token fault probability and many lanes,
//! so most lanes ride the golden run. With D diverged lanes out of N
//! on W host workers the cost is ~(1 + D / W) runs instead of N, the
//! longest replay (a hung lane) being the floor. When every lane
//! fires the batch is a `par_map` over solo runs plus one golden pass.
//!
//! A hung lane's replay is no longer the long one. The routers and PE
//! parked on the wedged wormhole sleep *blocked*
//! ([`craft_sim::Sleep::Blocked`]), only the controller's AXI poll loop
//! keeps ticking, and that loop repeats: the supervised kernel loop
//! proves its period (2 048 cycles) over the first few thousand idle
//! cycles and advances to the watchdog's deadline arithmetically
//! ([`craft_sim::Simulator::run_until_checked`]), so a replay steps
//! about a twelfth of its idle limit and ends — trip cycle, diagnosis,
//! every counter — as if it had stepped all of it. What
//! `soc.batch.replayed_cycles_per_useful_cycle` counts is simulated
//! cycles, so a hung tail still weighs its whole idle limit there.
//!
//! The batch is not a second engine type. It is a lane table
//! (`Lanes`: the specs, the shadow banks' shared [`LaneSet`], the
//! de-opted lanes' memory images and the settled [`BatchReport`]) that
//! the golden [`Soc`] carries beside its own run state. Every lane
//! replay builds from that `Soc`'s one [`Recipe`]. The supervised-run
//! driver ([`crate::engine`]) reads the table in exactly three places:
//! it settles the lanes when the session ends, adds the table to each
//! capture as a [`LaneTable`] (the frame's kind byte says one follows
//! the golden payload), and hands out the settled report
//! ([`Soc::batch_report`]). A batch snapshot is the one
//! [`crate::SimSnapshot`] type with its lanes filled in, and
//! [`crate::restore_engine`] is its one way back. [`BatchSoc`] is a
//! facade over such a `Soc` for callers that want build, one run and
//! per-lane memory.

use crate::checkpoint::{LaneTable, Recipe, SessionState};
use crate::msg::panic_message;
use crate::soc::{
    lane_fault_seed, merge_fault_stats, FaultPatternError, FaultReport, RunResult, Soc, SocConfig,
    SocReport,
};
use craft_connections::{FaultConfig, FaultLaneBank, FaultStats, LaneSet, LaneStatus};
use craft_sim::checkpoint::{fnv64, CheckpointError};
use craft_sim::{par_map, par_map_with_workers, SimError, TelLaneCounters, Telemetry};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;

/// One lane of a batch: a fault scenario to co-simulate against the
/// shared golden run. Identical to the `(pat, cfg, seed)` triple a
/// solo campaign would pass to [`Soc::inject_fault`].
#[derive(Debug, Clone, PartialEq)]
pub struct LaneSpec {
    /// Channel-name pattern (substring over the NoC registry).
    pub pattern: String,
    /// Fault class and rates.
    pub cfg: FaultConfig,
    /// Campaign seed; per-channel injector seeds derive from it
    /// exactly as [`Soc::inject_fault`] derives them.
    pub seed: u64,
}

impl LaneSpec {
    /// Convenience constructor.
    pub fn new(pattern: &str, cfg: FaultConfig, seed: u64) -> LaneSpec {
        LaneSpec {
            pattern: pattern.to_string(),
            cfg,
            seed,
        }
    }
}

/// What a solo replay hands back — result, report, injector counters
/// and the lane's final global-memory image (`cfg.gmem_words` words).
/// Plain owned data, so it crosses from the worker thread that ran the
/// `!Send` [`Soc`] back to the batch.
type LaneReplay = (Result<RunResult, SimError>, SocReport, FaultStats, Vec<u64>);

/// Runs one diverged lane solo: a fresh [`Soc`] off the batch's shared
/// [`Recipe`] with a real injector, replayed from t=0 under the same
/// run limits the batch used. This *is* the golden reference path —
/// the settle phase calls it for every de-opted lane, on whichever
/// host worker claims it.
fn replay_lane(
    recipe: &Arc<Recipe>,
    spec: &LaneSpec,
    max_cycles: u64,
    no_progress_limit: u64,
) -> LaneReplay {
    let mut soc = Soc::from_recipe(Arc::clone(recipe), None);
    soc.inject_fault(&spec.pattern, spec.cfg, spec.seed)
        .expect("pattern matched the golden registry at batch build");
    let res = soc.run_checked(max_cycles, no_progress_limit);
    let report = soc.report();
    let stats = soc
        .fault_stats(&spec.pattern)
        .expect("pattern matched the golden registry at batch build");
    let gmem = soc.gmem_read(0, recipe.cfg.gmem_words);
    (res, report, stats, gmem)
}

/// Outcome of one lane after [`BatchSoc::run`].
#[derive(Debug, Clone)]
pub struct LaneRun {
    /// Lane index (position in the spec list).
    pub lane: usize,
    /// Whether the lane left lockstep and was finished solo.
    pub deopted: bool,
    /// Channel token ordinal at which the lane diverged (0 = pre-
    /// diverged at build, e.g. a stuck-wire config). `None` while
    /// converged.
    pub diverged_at_token: Option<u64>,
    /// The solo replay panicked (fail-stop propagated as a panic);
    /// `result`/`report`/`fault_stats` are `None`.
    pub panicked: bool,
    /// The replay's panic message when it panicked: a fail-stop names
    /// its protocol check ([`crate::protocol_check`]).
    pub panic: Option<String>,
    /// Run result — the golden result for converged lanes, the solo
    /// replay's for de-opted lanes.
    pub result: Option<Result<RunResult, SimError>>,
    /// Full run report, bit-identical to what a solo run of this
    /// lane's `(pattern, cfg, seed)` would report.
    pub report: Option<SocReport>,
    /// Injector counters over the matched channels (shadow-exact for
    /// converged lanes, the solo injector's for de-opted ones).
    pub fault_stats: Option<FaultStats>,
}

/// Batch-level outcome of [`BatchSoc::run`].
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// The golden (fault-free) run's result.
    pub golden: Result<RunResult, SimError>,
    /// Per-lane outcomes, in spec order.
    pub lanes: Vec<LaneRun>,
    /// Lanes that de-opted to a solo replay.
    pub deopt_lanes: usize,
    /// Lanes that finished bit-identical to the golden run.
    pub converged_lanes: usize,
}

/// The lane table a batch [`Soc`] carries — see the
/// [module docs](crate::batch).
pub(crate) struct Lanes {
    specs: Vec<LaneSpec>,
    /// Per-lane matched-channel count (the solo `armed_channels`).
    matched: Vec<usize>,
    /// Registry indices carrying a shadow bank.
    banked: Vec<usize>,
    set: Rc<RefCell<LaneSet>>,
    /// De-opted lanes' final global-memory images, kept for memory
    /// verification (`None`: converged, panicked, or not yet run).
    gmem: Vec<Option<Vec<u64>>>,
    /// Threads the settle phase may replay de-opted lanes on; `None`
    /// takes the host's parallelism (tests pin a count).
    workers: Option<usize>,
    tel_tokens: Option<TelLaneCounters>,
    tel_injected: Option<TelLaneCounters>,
    /// The settled report, once the golden session has ended.
    pub(crate) report: Option<BatchReport>,
}

impl Lanes {
    fn status(&self, lane: usize) -> LaneStatus {
        self.set.borrow().status(lane)
    }

    /// Shadow-exact fault counters for a converged lane, merged over
    /// every banked channel this lane is armed on.
    fn shadow_stats(&self, golden: &Soc, lane: usize) -> FaultStats {
        let mut total = FaultStats::default();
        for &i in &self.banked {
            if let Some(s) = golden.noc_channels[i].1.lane_bank_stats(lane) {
                merge_fault_stats(&mut total, &s);
            }
        }
        total
    }

    /// Settles every lane once `golden`'s session has ended — done or
    /// a watchdog error: converged lanes inherit the golden result with
    /// their shadow fault stats patched in; diverged lanes are replayed
    /// solo (real injector, from t=0) under the session's limits on up
    /// to `available_parallelism` host threads, with panics contained
    /// per lane.
    pub(crate) fn settle(
        &mut self,
        golden: &Soc,
        session: &SessionState,
        res: Result<&RunResult, &SimError>,
    ) {
        let golden_res = res.copied().map_err(SimError::clone);
        let max_cycles = session.remaining + session.consumed;
        let no_progress_limit = session.no_progress_limit;
        let golden_report = golden.report();
        let recipe = &golden.recipe;
        let statuses: Vec<LaneStatus> = (0..self.specs.len()).map(|l| self.status(l)).collect();
        let diverged: Vec<usize> = (0..statuses.len())
            .filter(|&l| matches!(statuses[l], LaneStatus::Diverged { .. }))
            .collect();
        // Each replay builds, runs and drops its own `Soc` on whichever
        // worker claims it; `Err` is a contained fail-stop panic's message.
        let specs = &self.specs;
        let replay = |_: usize, &lane: &usize| {
            catch_unwind(AssertUnwindSafe(|| {
                replay_lane(recipe, &specs[lane], max_cycles, no_progress_limit)
            }))
            .map_err(|payload| panic_message(payload.as_ref()).to_string())
        };
        let mut replays = match self.workers {
            Some(n) => par_map_with_workers(&diverged, n, replay),
            None => par_map(&diverged, replay),
        }
        .into_iter();
        let mut lanes = Vec::with_capacity(self.specs.len());
        for (lane, status) in statuses.into_iter().enumerate() {
            match status {
                LaneStatus::Converged => {
                    let stats = self.shadow_stats(golden, lane);
                    let mut report = golden_report.clone();
                    // A solo run of this lane arms a real injector on
                    // every matched channel and otherwise matches the
                    // golden trajectory bit for bit — only the fault
                    // section differs from the golden report.
                    report.faults = FaultReport {
                        armed_channels: self.matched[lane],
                        stats: stats.clone(),
                    };
                    lanes.push(LaneRun {
                        lane,
                        deopted: false,
                        diverged_at_token: None,
                        panicked: false,
                        panic: None,
                        result: Some(golden_res.clone()),
                        report: Some(report),
                        fault_stats: Some(stats),
                    });
                }
                LaneStatus::Diverged { token } => {
                    let replay = replays.next().expect("one replay per diverged lane");
                    let mut run = LaneRun {
                        lane,
                        deopted: true,
                        diverged_at_token: Some(token),
                        panicked: replay.is_err(),
                        panic: replay.as_ref().err().cloned(),
                        result: None,
                        report: None,
                        fault_stats: None,
                    };
                    if let Ok((res, report, stats, gmem)) = replay {
                        run.result = Some(res);
                        run.report = Some(report);
                        run.fault_stats = Some(stats);
                        self.gmem[lane] = Some(gmem);
                    }
                    lanes.push(run);
                }
            }
        }
        let deopt_lanes = diverged.len();
        if let Some(tc) = &self.tel_tokens {
            for r in &lanes {
                tc.set(r.lane, r.fault_stats.as_ref().map_or(0, |s| s.tokens));
            }
        }
        if let Some(tc) = &self.tel_injected {
            for r in &lanes {
                tc.set(r.lane, r.fault_stats.as_ref().map_or(0, |s| s.injected()));
            }
        }
        self.report = Some(BatchReport {
            golden: golden_res,
            lanes,
            deopt_lanes,
            converged_lanes: self.specs.len() - deopt_lanes,
        });
    }

    /// The lane table as of now, for a golden capture: every lane's
    /// spec, divergence status and shadow fault counters.
    pub(crate) fn frame(&self, golden: &Soc) -> LaneTable {
        let lanes = 0..self.specs.len();
        LaneTable {
            specs: self.specs.clone(),
            status: lanes.clone().map(|l| self.status(l)).collect(),
            stats: lanes.map(|l| self.shadow_stats(golden, l)).collect(),
        }
    }

    /// Checks each lane's divergence status and shadow counters after
    /// `golden` replayed to a capture boundary against the `table`
    /// recorded there; any mismatch is a typed
    /// [`CheckpointError::ReplayDivergence`].
    pub(crate) fn verify(&self, golden: &Soc, table: &LaneTable) -> Result<(), CheckpointError> {
        // The divergence token ordinal doubles as the status word:
        // `u64::MAX` is unreachable as a token count and encodes
        // `Converged`.
        let status_word = |s: &LaneStatus| match s {
            LaneStatus::Converged => u64::MAX,
            LaneStatus::Diverged { token } => *token,
        };
        for (lane, (want_status, want_stats)) in table.status.iter().zip(&table.stats).enumerate() {
            let got_status = self.status(lane);
            if got_status != *want_status {
                return Err(CheckpointError::ReplayDivergence {
                    field: format!("lane{lane}.status"),
                    expected: status_word(want_status),
                    found: status_word(&got_status),
                });
            }
            let got_stats = self.shadow_stats(golden, lane);
            if got_stats != *want_stats {
                return Err(CheckpointError::ReplayDivergence {
                    field: format!("lane{lane}.stats"),
                    expected: fnv64(format!("{want_stats:?}").as_bytes()),
                    found: fnv64(format!("{got_stats:?}").as_bytes()),
                });
            }
        }
        Ok(())
    }
}

impl Soc {
    /// Builds a batch: the golden SoC from `recipe` (no real injector
    /// is attached to it), carrying a lane table with one shadow
    /// injector per `(lane, matched channel)` pair, seeded exactly as
    /// [`Soc::inject_fault`] would seed a real injector there. Lanes
    /// with stuck-wire configs are pre-diverged (no convergent prefix).
    /// A sink gets lane-indexed counter rows `batch.tokens.lane<i>` /
    /// `batch.injected.lane<i>` ahead of the golden SoC's probes,
    /// filled in when the lanes settle. Errors if any lane's pattern
    /// matches no channel.
    ///
    /// # Panics
    /// Panics if the recipe's config fails [`SocConfig::validate`].
    pub(crate) fn with_lanes(
        recipe: Arc<Recipe>,
        specs: Vec<LaneSpec>,
        telemetry: Option<Telemetry>,
    ) -> Result<Soc, FaultPatternError> {
        let counters = |path: &str| {
            telemetry
                .as_ref()
                .map(|t| t.lane_counters(path, specs.len()))
        };
        let (tel_tokens, tel_injected) = (counters("batch.tokens"), counters("batch.injected"));
        let mut golden = Soc::from_recipe(recipe, telemetry);
        let set = LaneSet::new(specs.len());
        let mut banks: BTreeMap<usize, FaultLaneBank> = BTreeMap::new();
        let mut matched = Vec::with_capacity(specs.len());
        for (lane, spec) in specs.iter().enumerate() {
            let mut m = 0;
            for (i, (name, _)) in golden.noc_channels.iter().enumerate() {
                if !name.contains(&spec.pattern) {
                    continue;
                }
                m += 1;
                // Mirror inject_fault's arming rule: every matched
                // channel gets this lane's shadow.
                if FaultLaneBank::supports(&spec.cfg) {
                    banks
                        .entry(i)
                        .or_insert_with(|| FaultLaneBank::new(Rc::clone(&set)))
                        .arm_lane(lane, spec.cfg, lane_fault_seed(spec.seed, i));
                }
            }
            if m == 0 {
                return Err(FaultPatternError::NoMatch {
                    pattern: spec.pattern.clone(),
                });
            }
            if !FaultLaneBank::supports(&spec.cfg) {
                set.borrow_mut().mark_diverged(lane, 0);
            }
            matched.push(m);
        }
        let banked: Vec<usize> = banks.keys().copied().collect();
        for (i, bank) in banks {
            golden.noc_channels[i].1.attach_lane_bank(bank);
        }
        golden.lanes = Some(Box::new(Lanes {
            gmem: vec![None; specs.len()],
            specs,
            matched,
            banked,
            set,
            workers: None,
            tel_tokens,
            tel_injected,
            report: None,
        }));
        Ok(golden)
    }

    /// Reads `len` words of a batch lane's global memory after the run:
    /// the golden memory for converged lanes, the solo replay's for
    /// de-opted ones. `None` when this SoC carries no lanes, when
    /// `lane` or `base..base + len` is out of range, or when the lane
    /// has no simulation to read (its replay panicked, or the batch has
    /// not settled).
    pub fn gmem_read_lane(&self, lane: usize, base: usize, len: usize) -> Option<Vec<u64>> {
        let lanes = self.lanes.as_ref()?;
        let end = base.checked_add(len)?;
        if let Some(gmem) = lanes.gmem.get(lane)? {
            return gmem.get(base..end).map(<[u64]>::to_vec);
        }
        let readable = lanes.report.is_some()
            && lanes.status(lane) == LaneStatus::Converged
            && end <= self.config().gmem_words;
        readable.then(|| self.gmem_read(base, len))
    }
}

/// N sibling fault simulations advanced through one pass of the shared
/// golden run per instant — see the [module docs](crate::batch).
///
/// Build with [`BatchSoc::build`], run once with [`BatchSoc::run`],
/// then read per-lane outcomes from the returned [`BatchReport`] and
/// verify memory with [`BatchSoc::gmem_read_lane`]. It is a facade over
/// a batch [`Soc`]; [`crate::build_engine`] with
/// [`crate::EngineKind::Batch`] hands out that `Soc` itself, for
/// segmented runs, snapshots and telemetry.
pub struct BatchSoc(Soc);

impl BatchSoc {
    /// Builds the golden SoC and arms one shadow injector per
    /// `(lane, matched channel)` pair, seeded exactly as
    /// [`Soc::inject_fault`] would seed a real injector there. Lanes
    /// with stuck-wire configs are pre-diverged (no convergent
    /// prefix). Errors if any lane's pattern matches no channel.
    ///
    /// # Panics
    /// Panics if `cfg` fails [`SocConfig::validate`].
    pub fn build(
        cfg: SocConfig,
        program: &[u32],
        staging_init: &[u32],
        gmem_init: &[(usize, Vec<u64>)],
        specs: Vec<LaneSpec>,
    ) -> Result<BatchSoc, FaultPatternError> {
        let recipe = Recipe::new(cfg, program, staging_init, gmem_init);
        Soc::with_lanes(recipe, specs, None).map(BatchSoc)
    }

    /// Advances the golden run to completion under the watchdog
    /// ([`Soc::run_checked`]), which settles every lane: converged
    /// lanes inherit the golden result with their shadow fault stats
    /// patched in; diverged lanes are replayed solo (real injector,
    /// from t=0) under the same limits on up to
    /// `available_parallelism` host threads, with panics contained per
    /// lane. With [`SocConfig::checkpoint_every`] set the golden run is
    /// segmented at that interval, observation-only as for any
    /// supervised run.
    pub fn run(&mut self, max_cycles: u64, no_progress_limit: u64) -> BatchReport {
        let golden = self.0.run_checked(max_cycles, no_progress_limit);
        let mut rep = self
            .0
            .batch_report()
            .cloned()
            .expect("the session's end settles the batch");
        // The same result, its `wall` covering this whole call.
        rep.golden = golden;
        rep
    }

    /// [`Soc::gmem_read_lane`] of the batch.
    pub fn gmem_read_lane(&self, lane: usize, base: usize, len: usize) -> Option<Vec<u64>> {
        self.0.gmem_read_lane(lane, base, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::SimSnapshot;
    use crate::engine::{restore_engine, EngineKind};
    use crate::workloads::{orchestrator_program, table_words, vec_mul};

    const HOT_LINK: &str = "l11p3->15";
    const MAX_CYCLES: u64 = 4_000_000;
    const NO_PROGRESS: u64 = 100_000;

    fn solo_run(spec: &LaneSpec) -> (Result<RunResult, SimError>, SocReport, FaultStats) {
        let wl = vec_mul();
        let program = orchestrator_program();
        let table = table_words(&wl.entries);
        let mut soc = Soc::build(SocConfig::default(), &program, &table, &wl.gmem_init);
        soc.inject_fault(&spec.pattern, spec.cfg, spec.seed)
            .expect("pattern matches");
        let res = soc.run_checked(MAX_CYCLES, NO_PROGRESS);
        let report = soc.report();
        let stats = soc.fault_stats(&spec.pattern).expect("pattern matches");
        (res, report, stats)
    }

    fn build_batch(specs: Vec<LaneSpec>) -> BatchSoc {
        let wl = vec_mul();
        let program = orchestrator_program();
        let table = table_words(&wl.entries);
        BatchSoc::build(SocConfig::default(), &program, &table, &wl.gmem_init, specs)
            .expect("patterns match")
    }

    fn lanes(batch: &BatchSoc) -> &Lanes {
        batch.0.lanes.as_deref().expect("a batch carries lanes")
    }

    #[test]
    fn converged_lanes_match_solo_runs_bit_for_bit() {
        // Zero-rate faults never fire: every lane must ride the golden
        // run and still report exactly what a solo run would.
        let specs = vec![
            LaneSpec::new(HOT_LINK, FaultConfig::bit_flip(0.0), 11),
            LaneSpec::new(HOT_LINK, FaultConfig::drop(0.0), 22),
        ];
        let mut batch = build_batch(specs.clone());
        let rep = batch.run(MAX_CYCLES, NO_PROGRESS);
        assert_eq!((rep.converged_lanes, rep.deopt_lanes), (2, 0));
        for (spec, lane) in specs.iter().zip(&rep.lanes) {
            assert!(!lane.deopted);
            let (s_res, s_report, s_stats) = solo_run(spec);
            let b_res = lane.result.clone().unwrap();
            let (b, s) = (b_res.unwrap(), s_res.unwrap());
            assert_eq!((b.cycles, b.completed), (s.cycles, s.completed));
            assert_eq!(lane.report.as_ref().unwrap(), &s_report);
            assert_eq!(lane.fault_stats.clone().unwrap(), s_stats);
        }
    }

    #[test]
    fn firing_lane_deopts_and_matches_solo_run() {
        // A certain-drop lane diverges on its first token and must be
        // finished solo; a zero-rate sibling shares the golden run.
        let hot = LaneSpec::new(HOT_LINK, FaultConfig::drop(1.0), 5);
        let cold = LaneSpec::new(HOT_LINK, FaultConfig::bit_flip(0.0), 6);
        let mut batch = build_batch(vec![hot.clone(), cold]);
        let rep = batch.run(MAX_CYCLES, NO_PROGRESS);
        assert_eq!((rep.converged_lanes, rep.deopt_lanes), (1, 1));
        let lane = &rep.lanes[0];
        assert!(lane.deopted && !lane.panicked);
        assert!(lane.diverged_at_token.unwrap() >= 1);
        let (s_res, s_report, s_stats) = solo_run(&hot);
        match (lane.result.clone().unwrap(), s_res) {
            (Ok(b), Ok(s)) => assert_eq!((b.cycles, b.completed), (s.cycles, s.completed)),
            (Err(b), Err(s)) => assert_eq!(format!("{b:?}"), format!("{s:?}")),
            (b, s) => panic!("batch {b:?} vs solo {s:?}"),
        }
        assert_eq!(lane.report.as_ref().unwrap(), &s_report);
        assert_eq!(lane.fault_stats.clone().unwrap(), s_stats);
    }

    #[test]
    fn stuck_wire_lane_is_prediverged_at_build() {
        let spec = LaneSpec::new(HOT_LINK, FaultConfig::stuck_valid(100), 3);
        let batch = build_batch(vec![spec]);
        assert_eq!(lanes(&batch).set.borrow().live_count(), 0);
        assert!(matches!(
            lanes(&batch).status(0),
            LaneStatus::Diverged { token: 0 }
        ));
    }

    #[test]
    fn bad_pattern_is_a_typed_error() {
        let wl = vec_mul();
        let program = orchestrator_program();
        let table = table_words(&wl.entries);
        let err = BatchSoc::build(
            SocConfig::default(),
            &program,
            &table,
            &wl.gmem_init,
            vec![LaneSpec::new("no-such-channel", FaultConfig::drop(0.5), 1)],
        )
        .err()
        .expect("the pattern matches nothing");
        assert!(matches!(err, FaultPatternError::NoMatch { .. }));
    }

    #[test]
    fn segmented_batch_checkpoint_restore_matches_uninterrupted() {
        // One firing lane (de-opts), one cold lane (rides the golden
        // run): the uninterrupted batch and the checkpoint-restored
        // batch must settle every lane identically.
        let specs = vec![
            LaneSpec::new(HOT_LINK, FaultConfig::drop(1.0), 5),
            LaneSpec::new(HOT_LINK, FaultConfig::bit_flip(0.0), 6),
        ];
        let mut base = build_batch(specs.clone());
        let base_rep = base.run(MAX_CYCLES, NO_PROGRESS);

        let wl = vec_mul();
        let program = orchestrator_program();
        let table = table_words(&wl.entries);
        let cfg = SocConfig::builder()
            .checkpoint_every(Some(300))
            .build()
            .expect("valid config");
        let mut seg =
            BatchSoc::build(cfg, &program, &table, &wl.gmem_init, specs).expect("patterns match");
        let seg_rep = seg.run(MAX_CYCLES, NO_PROGRESS);
        let bytes = seg
            .0
            .last_checkpoint_bytes()
            .expect("auto checkpoint taken");
        let snap = SimSnapshot::from_bytes(bytes).expect("parses");
        assert!(snap.session.is_some(), "mid-run capture");

        // Restore from the bytes and run to completion.
        let mut back = restore_engine(EngineKind::Batch, bytes, false).expect("restores");
        back.run_to_end().expect("the golden run finishes");
        let back_rep = back.batch_report().expect("the batch settled").clone();

        for (a, b, tag) in [
            (&base_rep, &seg_rep, "segmented"),
            (&base_rep, &back_rep, "restored"),
        ] {
            let (ga, gb) = (a.golden.as_ref().unwrap(), b.golden.as_ref().unwrap());
            assert_eq!(
                (ga.cycles, ga.ctrl, ga.completed),
                (gb.cycles, gb.ctrl, gb.completed),
                "{tag} golden result diverged"
            );
            assert_eq!(a.deopt_lanes, b.deopt_lanes, "{tag} de-opt count");
            for (la, lb) in a.lanes.iter().zip(&b.lanes) {
                assert_eq!(la.deopted, lb.deopted, "{tag} lane {}", la.lane);
                assert_eq!(la.diverged_at_token, lb.diverged_at_token);
                assert_eq!(la.report, lb.report, "{tag} lane {} report", la.lane);
                assert_eq!(la.fault_stats, lb.fault_stats);
            }
        }
        for (base_addr, expect) in &wl.expected {
            assert_eq!(
                back.gmem_read_lane(1, *base_addr, expect.len()).as_ref(),
                Some(expect),
                "cold lane memory diverged after restore"
            );
        }
    }

    #[test]
    fn tampered_batch_lane_state_is_a_typed_divergence() {
        let wl = vec_mul();
        let program = orchestrator_program();
        let table = table_words(&wl.entries);
        let cfg = SocConfig::builder()
            .checkpoint_every(Some(300))
            .build()
            .expect("valid config");
        let specs = vec![LaneSpec::new(HOT_LINK, FaultConfig::bit_flip(0.0), 6)];
        let mut seg =
            BatchSoc::build(cfg, &program, &table, &wl.gmem_init, specs).expect("patterns match");
        let _ = seg.run(MAX_CYCLES, NO_PROGRESS);
        let bytes = seg
            .0
            .last_checkpoint_bytes()
            .expect("auto checkpoint taken");
        let mut snap = SimSnapshot::from_bytes(bytes).expect("parses");
        snap.lanes.as_mut().expect("a lane table").stats[0].tokens += 1;
        match restore_engine(EngineKind::Batch, &snap.to_bytes(), false).err() {
            Some(CheckpointError::ReplayDivergence { field, .. }) => {
                assert_eq!(field, "lane0.stats");
            }
            other => panic!("expected ReplayDivergence, got {other:?}"),
        }
    }

    /// Settling on one worker and on many gives the same report, lane
    /// for lane, whatever order the replays finish in: a converged
    /// lane, completing de-opts, fail-stops (contained as `panicked`
    /// on whichever thread ran them) and a hang the watchdog ends.
    #[test]
    fn settle_is_identical_on_one_worker_and_many() {
        let specs = vec![
            LaneSpec::new(HOT_LINK, FaultConfig::bit_flip(0.0), 6),
            LaneSpec::new(HOT_LINK, FaultConfig::bit_flip(0.01), 7),
            LaneSpec::new(HOT_LINK, FaultConfig::drop(0.01), 0),
            LaneSpec::new(HOT_LINK, FaultConfig::drop(0.01), 9),
            LaneSpec::new(HOT_LINK, FaultConfig::duplicate(0.01), 7),
            LaneSpec::new(HOT_LINK, FaultConfig::bit_flip(0.01), 3),
            LaneSpec::new(HOT_LINK, FaultConfig::drop(0.01), 2),
        ];
        let wl = vec_mul();
        let (out_base, out_len) = (wl.expected[0].0, wl.expected[0].1.len());
        let run = |workers: usize| {
            let mut batch = build_batch(specs.clone());
            batch
                .0
                .lanes
                .as_mut()
                .expect("a batch carries lanes")
                .workers = Some(workers);
            let rep = batch.run(MAX_CYCLES, 5_000);
            let lanes: Vec<String> = rep
                .lanes
                .iter()
                .map(|l| {
                    let result = l.result.as_ref().map(|r| match r {
                        Ok(r) => format!("{:?}", (r.cycles, r.completed, r.ctrl)),
                        Err(e) => format!("{e:?}"),
                    });
                    let gmem = batch.gmem_read_lane(l.lane, out_base, out_len);
                    assert_eq!(gmem.is_none(), l.panicked, "lane {} memory", l.lane);
                    format!(
                        "{} {} {:?} {} {:?} {result:?} {:?} {:?} {gmem:?}",
                        l.lane,
                        l.deopted,
                        l.diverged_at_token,
                        l.panicked,
                        l.panic,
                        l.report,
                        l.fault_stats
                    )
                })
                .collect();
            (lanes, rep)
        };
        let (serial, rep) = run(1);
        assert_eq!((rep.converged_lanes, rep.deopt_lanes), (1, 6));
        assert_eq!(
            rep.lanes.iter().map(|l| l.panicked).collect::<Vec<_>>(),
            [false, false, true, false, true, false, true],
            "the drop/duplicate fail-stops are contained per lane"
        );
        for l in &rep.lanes {
            assert_eq!(l.panic.is_some(), l.panicked, "lane {} message", l.lane);
            if let Some(msg) = &l.panic {
                let check = crate::protocol_check(msg);
                assert!(check.is_some(), "lane {}: {msg}", l.lane);
            }
        }
        assert!(
            matches!(rep.lanes[3].result, Some(Err(SimError::Hang { .. }))),
            "lane 3 waits out the watchdog"
        );
        for workers in [2, 6] {
            assert_eq!(run(workers).0, serial, "{workers} workers");
        }
    }

    #[test]
    fn gmem_reads_route_to_the_owning_simulation() {
        let wl = vec_mul();
        let program = orchestrator_program();
        let table = table_words(&wl.entries);
        let mut batch = BatchSoc::build(
            SocConfig::default(),
            &program,
            &table,
            &wl.gmem_init,
            vec![LaneSpec::new(HOT_LINK, FaultConfig::bit_flip(0.0), 9)],
        )
        .expect("pattern matches");
        assert!(batch.gmem_read_lane(0, 0, 1).is_none(), "not run yet");
        let rep = batch.run(MAX_CYCLES, NO_PROGRESS);
        assert!(rep.golden.as_ref().unwrap().completed);
        for (base, expect) in &wl.expected {
            assert_eq!(
                batch.gmem_read_lane(0, *base, expect.len()).as_ref(),
                Some(expect)
            );
        }
    }

    /// An out-of-range lane or memory range is `None`, never a panic —
    /// on a de-opted lane's own image, on a converged lane's golden
    /// memory, and on a SoC without lanes.
    #[test]
    fn out_of_range_lane_reads_are_none() {
        let hot = LaneSpec::new(HOT_LINK, FaultConfig::drop(1.0), 5);
        let cold = LaneSpec::new(HOT_LINK, FaultConfig::bit_flip(0.0), 6);
        let mut batch = build_batch(vec![hot, cold]);
        let rep = batch.run(MAX_CYCLES, NO_PROGRESS);
        assert!(rep.lanes[0].deopted && !rep.lanes[0].panicked);
        assert!(!rep.lanes[1].deopted);
        let words = SocConfig::default().gmem_words;
        for lane in [0, 1] {
            let image = batch.gmem_read_lane(lane, 0, words);
            assert_eq!(
                image.map(|w| w.len()),
                Some(words),
                "lane {lane}: whole image"
            );
            assert_eq!(
                batch.gmem_read_lane(lane, words, 1),
                None,
                "lane {lane}: past the end"
            );
            assert_eq!(
                batch.gmem_read_lane(lane, words - 1, 2),
                None,
                "lane {lane}: straddles the end"
            );
            assert_eq!(
                batch.gmem_read_lane(lane, 1, usize::MAX),
                None,
                "lane {lane}: base + len overflows"
            );
        }
        assert_eq!(batch.gmem_read_lane(2, 0, 1), None, "no such lane");
        let wl = vec_mul();
        let solo = Soc::build(
            SocConfig::default(),
            &orchestrator_program(),
            &table_words(&wl.entries),
            &wl.gmem_init,
        );
        assert_eq!(solo.gmem_read_lane(0, 0, 1), None, "no lane table");
    }
}
