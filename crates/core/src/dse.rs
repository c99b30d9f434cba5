//! Design-space exploration: sweeping HLS constraints without touching
//! kernel source — the decoupling the paper credits OOHLS with
//! ("enables design space exploration without changing source code",
//! §2.2).
//!
//! The sweep optimizes the kernel **once** (transforms are constraint
//! independent) and evaluates every constraint point from that shared
//! optimized form — no per-point kernel clone, no per-point transform
//! rerun. Points are farmed out to scoped worker threads; results are
//! reassembled by grid index, so [`sweep`] returns exactly the same
//! `Vec<DesignPoint>` (same order, same values) as [`sweep_serial`].

use craft_hls::{
    bind, optimize, schedule_lanes, schedule_with, Constraints, Kernel, SchedContext, Schedule,
};
use craft_tech::TechLibrary;

/// The workspace's one parallel map (claim-next scoped workers, results
/// in input order), re-exported where sweeps have always found it.
pub use craft_sim::par_map;

/// One explored design point.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// Constraints that produced the point.
    pub constraints: Constraints,
    /// Area in µm².
    pub area_um2: f64,
    /// Latency in cycles.
    pub latency: u32,
    /// Initiation interval.
    pub ii: u32,
    /// Critical combinational path in ps.
    pub crit_path_ps: f64,
    /// Power at 20% activity, mW.
    pub power_mw: f64,
}

impl DesignPoint {
    /// True if `self` dominates `other` (no worse in area, latency and
    /// II; strictly better in at least one).
    pub fn dominates(&self, other: &DesignPoint) -> bool {
        let no_worse =
            self.area_um2 <= other.area_um2 && self.latency <= other.latency && self.ii <= other.ii;
        let better =
            self.area_um2 < other.area_um2 || self.latency < other.latency || self.ii < other.ii;
        no_worse && better
    }
}

/// One grid point of the sweep axes.
fn grid_point(clock: f64, muls: Option<u32>) -> Constraints {
    let mut c = Constraints::at_clock(clock).with_mem_ports(16);
    if let Some(m) = muls {
        c = c.with_multipliers(m);
    }
    c
}

/// Expands the sweep axes into the full constraint grid, in row-major
/// (clock-outer, budget-inner) order.
fn constraint_grid(clocks_ps: &[f64], multiplier_budgets: &[Option<u32>]) -> Vec<Constraints> {
    let mut grid = Vec::with_capacity(clocks_ps.len() * multiplier_budgets.len());
    for &clock in clocks_ps {
        for &muls in multiplier_budgets {
            grid.push(grid_point(clock, muls));
        }
    }
    grid
}

/// Binds one scheduled point and extracts its design metrics.
fn point_from_schedule(
    optimized: &Kernel,
    lib: &TechLibrary,
    c: Constraints,
    sched: &Schedule,
) -> DesignPoint {
    let module = bind(optimized, sched, lib, c.clock_ps);
    DesignPoint {
        constraints: c,
        area_um2: module.area_um2(lib),
        latency: module.latency,
        ii: module.ii,
        crit_path_ps: module.crit_path_ps,
        power_mw: module.power(lib, 0.2).total_mw(),
    }
}

/// Evaluates one constraint point against the shared optimized kernel
/// and a precomputed scheduling context: schedule + bind only (the
/// transform pipeline and dependence/delay analysis already ran).
fn eval_point(
    optimized: &Kernel,
    ctx: &SchedContext,
    lib: &TechLibrary,
    c: Constraints,
) -> DesignPoint {
    let sched = schedule_with(ctx, &c);
    point_from_schedule(optimized, lib, c, &sched)
}

/// Sweeps `kernel` across every combination of the given clocks and
/// multiplier budgets, returning all evaluated points in grid order
/// (clock-outer, budget-inner). Grid points are evaluated on scoped
/// worker threads ([`par_map`]); the output is bit-identical to
/// [`sweep_serial`].
///
/// # Panics
/// Panics if either sweep list is empty.
pub fn sweep(
    kernel: &Kernel,
    lib: &TechLibrary,
    clocks_ps: &[f64],
    multiplier_budgets: &[Option<u32>],
) -> Vec<DesignPoint> {
    assert!(!clocks_ps.is_empty(), "need at least one clock point");
    assert!(
        !multiplier_budgets.is_empty(),
        "need at least one resource point"
    );
    let grid = constraint_grid(clocks_ps, multiplier_budgets);
    let (optimized, _) = optimize(kernel);
    let ctx = SchedContext::new(&optimized, lib);
    par_map(&grid, |_, &c| eval_point(&optimized, &ctx, lib, c))
}

/// Single-threaded reference sweep: the same grid, optimized kernel
/// and evaluation as [`sweep`], in plain iteration order.
pub fn sweep_serial(
    kernel: &Kernel,
    lib: &TechLibrary,
    clocks_ps: &[f64],
    multiplier_budgets: &[Option<u32>],
) -> Vec<DesignPoint> {
    assert!(!clocks_ps.is_empty(), "need at least one clock point");
    assert!(
        !multiplier_budgets.is_empty(),
        "need at least one resource point"
    );
    let (optimized, _) = optimize(kernel);
    let ctx = SchedContext::new(&optimized, lib);
    constraint_grid(clocks_ps, multiplier_budgets)
        .into_iter()
        .map(|c| eval_point(&optimized, &ctx, lib, c))
        .collect()
}

/// Batched sweep: the structure-of-arrays twin of [`sweep`].
///
/// All multiplier-budget points of one clock share a kernel structure
/// (same ops, same delays, same dependences — only resource limits
/// differ), so each clock group is scheduled as one
/// [`schedule_lanes`] batch over the shared [`SchedContext`]: the
/// per-op dependence/delay/class context is fetched once per op for
/// the whole budget row instead of once per (op, point). Clock groups
/// — which *do* change op timing (multi-cycling, chaining) — are
/// farmed out across [`par_map`] workers, one batch per group.
///
/// Output is bit-identical to [`sweep`] and [`sweep_serial`]: same
/// grid order (clock-outer, budget-inner), same values.
///
/// # Panics
/// Panics if either sweep list is empty.
pub fn sweep_batched(
    kernel: &Kernel,
    lib: &TechLibrary,
    clocks_ps: &[f64],
    multiplier_budgets: &[Option<u32>],
) -> Vec<DesignPoint> {
    assert!(!clocks_ps.is_empty(), "need at least one clock point");
    assert!(
        !multiplier_budgets.is_empty(),
        "need at least one resource point"
    );
    let (optimized, _) = optimize(kernel);
    let ctx = SchedContext::new(&optimized, lib);
    par_map(clocks_ps, |_, &clock| {
        let row: Vec<Constraints> = multiplier_budgets
            .iter()
            .map(|&muls| grid_point(clock, muls))
            .collect();
        let scheds = schedule_lanes(&ctx, &row);
        row.into_iter()
            .zip(&scheds)
            .map(|(c, sched)| point_from_schedule(&optimized, lib, c, sched))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Filters `points` down to the Pareto-optimal front (area, latency,
/// II), preserving input order.
///
/// Sort-then-scan: sorting indices ascending by (area, latency, ii)
/// puts every dominator strictly before the points it dominates, so a
/// single pass need only test each candidate against the front kept so
/// far (transitivity covers dominators that were themselves dominated)
/// — versus the naive all-pairs scan, which is quadratic even when the
/// front is small.
pub fn pareto_front(points: &[DesignPoint]) -> Vec<DesignPoint> {
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| {
        points[a]
            .area_um2
            .total_cmp(&points[b].area_um2)
            .then(points[a].latency.cmp(&points[b].latency))
            .then(points[a].ii.cmp(&points[b].ii))
    });
    let mut front: Vec<usize> = Vec::new();
    let mut keep = vec![false; points.len()];
    for &i in &order {
        if !front.iter().any(|&j| points[j].dominates(&points[i])) {
            front.push(i);
            keep[i] = true;
        }
    }
    points
        .iter()
        .zip(&keep)
        .filter(|(_, &k)| k)
        .map(|(p, _)| p.clone())
        .collect()
}

/// Picks the smallest-area point meeting a latency bound, if any.
pub fn best_under_latency(points: &[DesignPoint], max_latency: u32) -> Option<DesignPoint> {
    points
        .iter()
        .filter(|p| p.latency <= max_latency)
        .min_by(|a, b| a.area_um2.total_cmp(&b.area_um2))
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use craft_hls::KernelBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dot8() -> Kernel {
        let mut b = KernelBuilder::new("dot8", 32);
        let mut acc = b.constant(0);
        for i in 0..8 {
            let x = b.input(2 * i);
            let y = b.input(2 * i + 1);
            let p = b.mul(x, y);
            acc = b.add(acc, p);
        }
        b.output(0, acc);
        b.finish()
    }

    #[test]
    fn sweep_trades_area_for_latency() {
        let lib = TechLibrary::n16();
        let pts = sweep(&dot8(), &lib, &[1200.0], &[None, Some(2), Some(1)]);
        assert_eq!(pts.len(), 3);
        let unconstrained = &pts[0];
        let one_mul = &pts[2];
        assert!(one_mul.area_um2 < unconstrained.area_um2);
        assert!(one_mul.latency > unconstrained.latency);
    }

    #[test]
    fn parallel_sweep_matches_serial_exactly() {
        let lib = TechLibrary::n16();
        let k = dot8();
        let clocks = [900.0, 1000.0, 1200.0, 1400.0];
        let budgets = [None, Some(8), Some(4), Some(2), Some(1)];
        let par = sweep(&k, &lib, &clocks, &budgets);
        let ser = sweep_serial(&k, &lib, &clocks, &budgets);
        assert_eq!(par.len(), clocks.len() * budgets.len());
        // Same Vec: same order, same values (f64s compared exactly).
        assert_eq!(par, ser);
    }

    #[test]
    fn batched_sweep_matches_serial_exactly() {
        let lib = TechLibrary::n16();
        let k = dot8();
        let clocks = [900.0, 1000.0, 1200.0, 1400.0];
        let budgets = [None, Some(8), Some(4), Some(2), Some(1)];
        let batched = sweep_batched(&k, &lib, &clocks, &budgets);
        let ser = sweep_serial(&k, &lib, &clocks, &budgets);
        // Same Vec: same grid order, same values (f64s exact).
        assert_eq!(batched, ser);
    }

    #[test]
    fn pareto_front_removes_dominated() {
        let lib = TechLibrary::n16();
        let pts = sweep(&dot8(), &lib, &[1000.0, 1400.0], &[None, Some(4), Some(1)]);
        let front = pareto_front(&pts);
        assert!(!front.is_empty());
        assert!(front.len() <= pts.len());
        for p in &front {
            assert!(!pts.iter().any(|q| q.dominates(p)));
        }
    }

    /// The naive all-pairs front the sort-then-scan replaced.
    fn pareto_front_naive(points: &[DesignPoint]) -> Vec<DesignPoint> {
        points
            .iter()
            .filter(|p| !points.iter().any(|q| q.dominates(p)))
            .cloned()
            .collect()
    }

    fn random_point(rng: &mut StdRng) -> DesignPoint {
        // Small integer-valued ranges force plenty of ties, duplicates
        // and partial dominance among the three objectives.
        DesignPoint {
            constraints: Constraints::at_clock(1000.0),
            area_um2: f64::from(rng.gen_range(1u32..=12)),
            latency: rng.gen_range(1u32..=10),
            ii: rng.gen_range(1u32..=4),
            crit_path_ps: rng.gen_range(100.0..1000.0),
            power_mw: rng.gen_range(0.1..5.0),
        }
    }

    #[test]
    fn pareto_front_matches_naive_on_random_point_sets() {
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1usize..=200);
            let pts: Vec<DesignPoint> = (0..n).map(|_| random_point(&mut rng)).collect();
            assert_eq!(
                pareto_front(&pts),
                pareto_front_naive(&pts),
                "seed {seed}: sort-then-scan front diverged from naive"
            );
        }
        assert!(pareto_front(&[]).is_empty());
    }

    #[test]
    fn best_under_latency_respects_bound() {
        let lib = TechLibrary::n16();
        let pts = sweep(&dot8(), &lib, &[1200.0], &[None, Some(1)]);
        let fastest = pts.iter().map(|p| p.latency).min().expect("points");
        let best = best_under_latency(&pts, fastest).expect("feasible");
        assert!(best.latency <= fastest);
        assert!(best_under_latency(&pts, 0).is_none());
    }
}
