//! Damaged snapshot bytes — truncated, corrupted, version-bumped,
//! wrong-kind, or checksum-valid with a recipe that cannot fit — are
//! rejected with typed errors. That restore-then-run is identical to
//! the uninterrupted run is the differential oracle's restored model
//! (`tests/oracle/restore.rs`).

use craft_connections::FaultConfig;
use craft_sim::checkpoint::CheckpointError;
use craft_soc::batch::LaneSpec;
use craft_soc::checkpoint::SimSnapshot;
use craft_soc::workloads::{orchestrator_program, table_words, vec_mul};
use craft_soc::{build_engine, restore_engine, EngineKind, Recipe, SegmentStatus, Soc, SocConfig};
use std::sync::Arc;

const MAX_CYCLES: u64 = 2_000_000;
const NO_PROGRESS: u64 = 50_000;

/// Damaged snapshot bytes are rejected with the matching typed error
/// — never a panic, never a silently divergent SoC.
#[test]
fn damaged_snapshots_are_rejected_with_typed_errors() {
    let wl = vec_mul();
    let program = orchestrator_program();
    let table = table_words(&wl.entries);
    let soc = Soc::build(SocConfig::default(), &program, &table, &wl.gmem_init);
    let bytes = soc.snapshot_bytes();

    // Version bump → UnsupportedVersion carrying both versions.
    let mut v = bytes.clone();
    v[8] = v[8].wrapping_add(1);
    match SimSnapshot::from_bytes(&v) {
        Err(CheckpointError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, supported + 1);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }

    // A version-1 snapshot (written before blocked components slept)
    // records tick counters a replay can no longer reproduce, and a
    // version-2 one carries bytes version 3 dropped. Taken mid-run so
    // the counters differ, each must still end in the typed
    // unsupported-version error on every restore path — never in a
    // `ReplayDivergence` that blames the snapshot's contents.
    let mut mid = Soc::build(SocConfig::default(), &program, &table, &wl.gmem_init);
    mid.run(2_000);
    assert!(mid.sim().ticks_skipped_blocked() > 0);
    for found in [1u32, 2] {
        let mut old = mid.snapshot_bytes();
        old[8..12].copy_from_slice(&found.to_le_bytes());
        let unsupported = CheckpointError::UnsupportedVersion {
            found,
            supported: 3,
        };
        assert_eq!(
            SimSnapshot::from_bytes(&old).err(),
            Some(unsupported.clone())
        );
        assert_eq!(
            restore_engine(EngineKind::Soc, &old, false).err(),
            Some(unsupported)
        );
    }

    // Truncation → Truncated with the byte deficit.
    let cut = bytes.len() / 2;
    match SimSnapshot::from_bytes(&bytes[..cut]) {
        Err(CheckpointError::Truncated { needed, have }) => {
            assert!(needed > have, "deficit must be visible: {needed} vs {have}");
        }
        other => panic!("expected Truncated, got {other:?}"),
    }

    // A 28-byte frame declaring a u64::MAX-byte payload → a typed
    // error, not an overflowing length computation.
    let mut huge = bytes[..21].to_vec();
    huge[13..21].copy_from_slice(&u64::MAX.to_le_bytes());
    huge.extend_from_slice(&[0; 7]);
    for kind in [EngineKind::Soc, EngineKind::Batch] {
        assert!(
            matches!(
                restore_engine(kind, &huge, false).err(),
                Some(CheckpointError::Truncated { .. } | CheckpointError::Malformed(_))
            ),
            "{kind}: oversized length"
        );
    }

    // Payload bit rot → Corrupted with both checksums.
    let mut c = bytes.clone();
    let mid = c.len() - 20;
    c[mid] ^= 0x40;
    match SimSnapshot::from_bytes(&c) {
        Err(CheckpointError::Corrupted { expected, found }) => {
            assert_ne!(expected, found);
        }
        other => panic!("expected Corrupted, got {other:?}"),
    }

    // Checksum-valid frames whose recipe images do not fit the memories
    // their config builds → Malformed at decode, before any build.
    let seg_cfg = SocConfig {
        checkpoint_every: Some(300),
        ..SocConfig::default()
    };
    let mut seg = Soc::build(seg_cfg, &program, &table, &wl.gmem_init);
    seg.begin(MAX_CYCLES, NO_PROGRESS);
    assert!(matches!(seg.step_segment(), Ok(SegmentStatus::Boundary)));
    let boundary = SimSnapshot::from_bytes(&seg.snapshot_bytes()).expect("parses");
    type Edit = (&'static str, fn(&mut Recipe));
    let edits: [Edit; 5] = [
        ("a gmem region past gmem_words", |r| {
            r.gmem_init.push((r.cfg.gmem_words - 2, vec![7; 4]));
        }),
        ("a gmem region whose end overflows", |r| {
            r.gmem_init.push((usize::MAX, vec![7]));
        }),
        ("staging longer than staging_words", |r| {
            r.staging.resize(r.cfg.staging_words + 1, 0);
        }),
        // One word past the controller's 2^18-word RAM.
        ("a program longer than the controller RAM", |r| {
            r.program.resize((1 << 18) + 1, 0);
        }),
        ("a zero-word staging memory", |r| {
            r.cfg.staging_words = 0;
            r.staging.clear();
        }),
    ];
    for (what, edit) in edits {
        let mut snap = boundary.clone();
        edit(Arc::make_mut(&mut snap.recipe));
        let damaged = snap.to_bytes();
        assert!(
            matches!(
                SimSnapshot::from_bytes(&damaged),
                Err(CheckpointError::Malformed(_))
            ),
            "{what}: decode"
        );
        assert!(
            matches!(
                restore_engine(EngineKind::Soc, &damaged, false).err(),
                Some(CheckpointError::Malformed(_))
            ),
            "{what}: restore"
        );
    }

    // A frame of the other kind → WrongKind, in both directions.
    let specs = [LaneSpec::new("l11p3->15", FaultConfig::bit_flip(0.01), 7)];
    let batch = build_engine(
        EngineKind::Batch,
        SocConfig::default(),
        &program,
        &table,
        &wl.gmem_init,
        &specs,
        false,
    )
    .expect("pattern matches");
    for (kind, frame, found, expected) in [
        (EngineKind::Soc, batch.snapshot_bytes(), 2, 1),
        (EngineKind::Batch, bytes, 1, 2),
    ] {
        assert_eq!(
            restore_engine(kind, &frame, false).err(),
            Some(CheckpointError::WrongKind { found, expected }),
            "{kind}"
        );
    }
}
