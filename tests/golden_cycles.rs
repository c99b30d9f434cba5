//! Golden cycle-count regression lock: the simulator is deterministic,
//! so these exact numbers ARE the reproduction (EXPERIMENTS.md quotes
//! them). A deliberate microarchitecture change must update both this
//! test and EXPERIMENTS.md together.

use craftflow::soc::pe::Fidelity;
use craftflow::soc::workloads::{run_workload, run_workload_soc, six_soc_tests};
use craftflow::soc::{ClockingMode, SocConfig};

#[test]
fn fig6_cycle_counts_are_locked() {
    let golden_sim = [
        ("vec_mul", 796u64),
        ("dot_product", 1383),
        ("reduction", 879),
        ("conv1d", 716),
        ("kmeans_assign", 436),
        ("matvec", 4324),
    ];
    let golden_rtl = [
        ("vec_mul", 804u64),
        ("dot_product", 1391),
        ("reduction", 895),
        ("conv1d", 716),
        ("kmeans_assign", 444),
        ("matvec", 4324),
    ];
    for (wl, (name, cycles)) in six_soc_tests().iter().zip(golden_sim) {
        assert_eq!(wl.name, name);
        let (r, ok) = run_workload(SocConfig::default(), wl, 8_000_000);
        assert!(ok, "{name} failed verification");
        assert_eq!(
            r.cycles, cycles,
            "{name} sim-accurate cycle count drifted — update EXPERIMENTS.md if intentional"
        );
    }
    let rtl_cfg = SocConfig {
        fidelity: Fidelity::Rtl,
        ..SocConfig::default()
    };
    for (wl, (name, cycles)) in six_soc_tests().iter().zip(golden_rtl) {
        let (r, ok) = run_workload(rtl_cfg, wl, 8_000_000);
        assert!(ok, "{name} failed verification");
        assert_eq!(
            r.cycles, cycles,
            "{name} RTL cycle count drifted — update EXPERIMENTS.md if intentional"
        );
    }
}

/// One row per Fig. 6 test: its name and six counters.
type Fig6Counters = [(&'static str, [u64; 6]); 6];

/// `[cycles, instants, ticks_delivered, ticks_skipped,
/// ticks_skipped_blocked, commits_skipped]` of the six Fig. 6 tests in
/// [`six_soc_tests`] order, sim-accurate with gating on, per clocking
/// mode — recorded from the gated kernel before its two dispatchers
/// became one loop. Only the synchronous schedule ever ran both, so
/// these are what states the per-domain walk's counters under GALS.
const GOLDEN_KERNEL_COUNTERS: [(ClockingMode, Fig6Counters); 3] = [
    (
        ClockingMode::Synchronous,
        [
            ("vec_mul", [796, 796, 7954, 21498, 2590, 94563]),
            ("dot_product", [1383, 1383, 12265, 38906, 6101, 166750]),
            ("reduction", [879, 879, 7079, 25444, 2604, 106620]),
            ("conv1d", [716, 716, 6674, 19818, 2256, 85944]),
            ("kmeans_assign", [436, 436, 3650, 12482, 1276, 52592]),
            ("matvec", [4324, 4324, 38240, 121748, 35948, 522342]),
        ],
    ),
    (
        ClockingMode::Gals { spread_ppm: 2_000 },
        [
            ("vec_mul", [852, 2475, 90030, 23286, 3072, 138592]),
            ("dot_product", [1463, 6887, 153101, 41600, 6525, 242273]),
            ("reduction", [919, 3717, 95457, 26852, 2893, 153223]),
            ("conv1d", [804, 2331, 84525, 22407, 3001, 132713]),
            ("kmeans_assign", [476, 1347, 49491, 13817, 1466, 78938]),
            ("matvec", [4316, 26614, 452950, 121566, 35703, 715382]),
        ],
    ),
    (
        ClockingMode::GalsAdaptive { noise_seed: 7 },
        [
            ("vec_mul", [868, 12872, 99669, 22374, 3122, 134298]),
            ("dot_product", [1471, 21975, 167387, 39464, 6301, 231599]),
            ("reduction", [959, 14249, 108200, 26628, 3141, 152306]),
            ("conv1d", [836, 12399, 95440, 22123, 3070, 131495]),
            ("kmeans_assign", [484, 7110, 54789, 13272, 1469, 76388]),
            ("matvec", [4436, 66727, 505726, 118207, 35784, 699717]),
        ],
    ),
];

#[test]
fn fig6_kernel_counters_are_locked() {
    for (clocking, golden) in GOLDEN_KERNEL_COUNTERS {
        let cfg = SocConfig {
            clocking,
            ..SocConfig::default()
        };
        for (wl, (name, want)) in six_soc_tests().iter().zip(golden) {
            assert_eq!(wl.name, name);
            let (r, ok, soc) = run_workload_soc(cfg, wl, 8_000_000);
            assert!(ok, "{name} failed verification under {clocking:?}");
            let sim = soc.sim();
            let got = [
                r.cycles,
                sim.instants(),
                sim.ticks_delivered(),
                sim.ticks_skipped(),
                sim.ticks_skipped_blocked(),
                sim.commits_skipped(),
            ];
            assert_eq!(
                got, want,
                "{name} under {clocking:?}: kernel counters moved"
            );
        }
    }
}
