//! The crash-consistency property suite.
//!
//! The contract under test: **for any crash point, the recovered
//! registry equals the state after some prefix of the acked mutation
//! sequence** — no holes, no reordering, no half-applied record, and
//! recovery itself never panics or errors on tail damage.
//!
//! Crash points are modelled three ways: truncating the WAL at every
//! byte offset (torn write), flipping arbitrary bits (media
//! corruption), and injected mid-`write` crashes and snapshot rename
//! failures.

use std::path::{Path, PathBuf};

use csj_core::Community;
use csj_durability::fault;
use csj_durability::record::{decode_record, encode_record, WalOp, WalRecord};
use csj_durability::{
    recover_dir, DurabilityConfig, DurableEngine, FsyncPolicy, TailReason, WAL_FILE,
};
use csj_engine::EngineConfig;
use proptest::prelude::*;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "csj-crashprop-{}-{}-{name}",
        std::process::id(),
        std::thread::current()
            .name()
            .unwrap_or("t")
            .replace("::", "-"),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path, fsync: FsyncPolicy) -> DurableEngine {
    DurableEngine::open(
        dir,
        3,
        EngineConfig::new(1),
        DurabilityConfig {
            fsync,
            keep_snapshots: 2,
        },
    )
    .expect("open durable engine")
}

/// One scripted mutation. Codes are interpreted deterministically so an
/// arbitrary `Vec<ScriptOp>` always yields a valid-but-varied workload.
#[derive(Debug, Clone)]
struct ScriptOp {
    code: u8,
    user: u64,
    vector: Vec<u32>,
}

fn script() -> impl Strategy<Value = Vec<ScriptOp>> {
    proptest::collection::vec(
        (
            proptest::num::u8::ANY,
            0u64..12,
            proptest::collection::vec(proptest::num::u32::ANY, 3),
        ),
        1..24,
    )
    .prop_map(|ops| {
        ops.into_iter()
            .map(|(code, user, vector)| ScriptOp { code, user, vector })
            .collect()
    })
}

/// Run the script through a durable engine, returning the fingerprint
/// after every *acked* mutation (index 0 = empty registry). Rejected
/// mutations (remove of an absent user, duplicate name) log nothing and
/// contribute no fingerprint — exactly mirroring what is on disk.
fn run_script(engine: &mut DurableEngine, ops: &[ScriptOp]) -> Vec<u64> {
    let mut fps = vec![engine.fingerprint()];
    for op in ops {
        let applied = match op.code % 4 {
            0 => engine
                .register(Community::new(format!("c{}", op.user), 3))
                .is_ok(),
            1 | 2 => {
                // Upsert into whichever community the code points at,
                // if any exist yet.
                let handles: Vec<_> = engine.engine().handles().collect();
                match handles.get(op.user as usize % handles.len().max(1)) {
                    Some(&h) => engine.upsert_user(h, op.user, &op.vector).is_ok(),
                    None => false,
                }
            }
            _ => {
                let handles: Vec<_> = engine.engine().handles().collect();
                match handles.first() {
                    Some(&h) => engine.remove_user(h, op.user).is_ok(),
                    None => false,
                }
            }
        };
        if applied {
            fps.push(engine.fingerprint());
        }
    }
    fps
}

fn recovered_fingerprint(dir: &Path) -> (u64, csj_durability::RecoveryReport) {
    let (engine, report) =
        recover_dir(dir, 3, EngineConfig::new(1)).expect("recovery must not fail on tail damage");
    (csj_durability::fingerprint_engine(&engine), report)
}

proptest! {
    /// WAL records round-trip through the wire form for arbitrary ops.
    #[test]
    fn wal_record_roundtrip(seq in proptest::num::u64::ANY, user in proptest::num::u64::ANY,
                            handle in proptest::num::u32::ANY,
                            vector in proptest::collection::vec(proptest::num::u32::ANY, 0..8),
                            name in "[a-zA-Z0-9_-]{1,24}", tag in 0u8..4) {
        let op = match tag {
            0 => WalOp::Register { community: Community::new(name, vector.len().max(1)) },
            1 => WalOp::UpsertUser { handle, user, vector },
            2 => WalOp::RemoveUser { handle, user },
            _ => WalOp::SnapshotMark,
        };
        let record = WalRecord { seq, op };
        let mut payload = Vec::new();
        encode_record(&record, &mut payload);
        let back = decode_record(&payload).expect("roundtrip");
        prop_assert_eq!(back, record);
    }

    /// Truncating an encoded record anywhere fails cleanly, never panics.
    #[test]
    fn wal_record_truncation_is_an_error(user in proptest::num::u64::ANY,
                                         vector in proptest::collection::vec(proptest::num::u32::ANY, 0..8)) {
        let record = WalRecord { seq: 1, op: WalOp::UpsertUser { handle: 0, user, vector } };
        let mut payload = Vec::new();
        encode_record(&record, &mut payload);
        for cut in 0..payload.len() {
            prop_assert!(decode_record(&payload[..cut]).is_err(), "cut at {}", cut);
        }
    }

    /// Corrupting a record payload never panics the decoder; if it still
    /// decodes, the WAL layer's CRC is what rejects it (exercised below).
    #[test]
    fn wal_record_bit_flip_never_panics(user in proptest::num::u64::ANY,
                                        pos in 0usize..64, bit in 0u8..8) {
        let record = WalRecord { seq: 3, op: WalOp::UpsertUser { handle: 1, user, vector: vec![1, 2, 3] } };
        let mut payload = Vec::new();
        encode_record(&record, &mut payload);
        if pos < payload.len() {
            payload[pos] ^= 1 << bit;
            let _ = decode_record(&payload); // Ok or Err, never a panic.
        }
    }

    /// THE crash-point property, torn-write edition: for a WAL sheared
    /// at any byte offset, recovery rebuilds exactly a prefix of the
    /// acked mutations.
    #[test]
    fn any_wal_truncation_recovers_an_acked_prefix(ops in script(), cut_pct in 0u64..101) {
        let dir = scratch("shear");
        let mut engine = open(&dir, FsyncPolicy::Always);
        let fps = run_script(&mut engine, &ops);
        drop(engine);

        let wal = dir.join(WAL_FILE);
        let full = std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
        let cut = full * cut_pct / 100;
        if full > cut {
            fault::shear_tail(&wal, full - cut).unwrap();
        }

        let (fp, report) = recovered_fingerprint(&dir);
        let idx = fps.iter().position(|&p| p == fp);
        prop_assert!(idx.is_some(), "recovered state is not an acked prefix (cut {cut}/{full})");
        prop_assert_eq!(report.records_replayed as usize, idx.unwrap());
        // Everything below the cut is either replayed or discarded.
        prop_assert_eq!(report.wal_valid_bytes + report.bytes_discarded, cut);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// THE crash-point property, bit-rot edition: a flipped bit anywhere
    /// in the WAL still recovers a prefix (typically shorter), and the
    /// scan stops with a typed reason — never an error, never a panic.
    #[test]
    fn any_wal_bit_flip_recovers_an_acked_prefix(ops in script(), pos_pct in 0u64..100, bit in 0u8..8) {
        let dir = scratch("flip");
        let mut engine = open(&dir, FsyncPolicy::Always);
        let fps = run_script(&mut engine, &ops);
        drop(engine);

        let wal = dir.join(WAL_FILE);
        let full = std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
        if full > 0 {
            let pos = (full * pos_pct / 100).min(full - 1);
            fault::flip_bit(&wal, pos, bit).unwrap();
        }

        let (fp, report) = recovered_fingerprint(&dir);
        let idx = fps.iter().position(|&p| p == fp);
        prop_assert!(idx.is_some(), "recovered state is not an acked prefix");
        prop_assert_eq!(report.records_replayed as usize, idx.unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Snapshot → replay equivalence: snapshotting at an arbitrary point
    /// in the workload must not change what recovery rebuilds, and the
    /// post-snapshot WAL replay composes with the image bit-identically.
    #[test]
    fn snapshot_at_any_point_preserves_recovery(ops in script(), split_pct in 0usize..101) {
        let dir = scratch("snapeq");
        let mut engine = open(&dir, FsyncPolicy::Always);
        let split = ops.len() * split_pct / 100;
        run_script(&mut engine, &ops[..split]);
        engine.snapshot().expect("snapshot");
        run_script(&mut engine, &ops[split..]);
        let live = engine.fingerprint();
        drop(engine);

        let (fp, report) = recovered_fingerprint(&dir);
        prop_assert_eq!(fp, live, "snapshot + WAL tail != live state");
        prop_assert_eq!(report.wal_tail, TailReason::CleanEof);
        prop_assert!(report.snapshot_seq.is_some());

        // And the recovered registry keeps working: reopen read-write,
        // mutate, recover again.
        let mut reopened = open(&dir, FsyncPolicy::Always);
        reopened
            .register(Community::new("after-recovery", 3))
            .expect("recovered registry accepts new work");
        let live2 = reopened.fingerprint();
        drop(reopened);
        prop_assert_eq!(recovered_fingerprint(&dir).0, live2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Interval fsync weakens the guarantee from "every ack" to "every
/// synced ack" — but recovery must still yield a prefix, and everything
/// up to the last explicit sync must survive.
#[test]
fn interval_fsync_still_recovers_a_prefix() {
    let dir = scratch("interval");
    let mut engine = open(&dir, FsyncPolicy::Interval(4));
    let (h, _) = engine.register(Community::new("c", 3)).unwrap();
    let mut fps = vec![engine.fingerprint()];
    for user in 0..9u64 {
        engine.upsert_user(h, user, &[1, 2, 3]).unwrap();
        fps.push(engine.fingerprint());
    }
    engine.sync().unwrap();
    drop(engine);
    let (fp, report) = recovered_fingerprint(&dir);
    assert_eq!(fp, *fps.last().unwrap(), "synced tail fully recovered");
    assert_eq!(report.wal_tail, TailReason::CleanEof);
    std::fs::remove_dir_all(&dir).unwrap();
}

mod injected {
    use super::*;
    use csj_durability::fault::FsFaultPlan;
    use csj_durability::DurabilityError;

    /// Injected mid-write crash: the WAL gets a torn frame at an
    /// arbitrary byte budget; recovery yields exactly the acked prefix.
    #[test]
    fn injected_torn_write_recovers_exactly_the_acked_prefix() {
        for budget in [0u64, 1, 7, 8, 9, 20, 45, 77, 120, 300] {
            let dir = scratch(&format!("torn{budget}"));
            let mut engine = open(&dir, FsyncPolicy::Always);
            engine.inject_fs_faults(FsFaultPlan::new().crash_after_wal_bytes(budget));
            let mut fps = vec![engine.fingerprint()];
            let mut crashed = false;
            for user in 0..40u64 {
                match engine.register(Community::new(format!("c{user}"), 3)) {
                    Ok(_) => fps.push(engine.fingerprint()),
                    Err(DurabilityError::InjectedCrash) => {
                        crashed = true;
                        break;
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            assert!(crashed, "budget {budget} never tore");
            drop(engine);
            let (fp, report) = recovered_fingerprint(&dir);
            assert_eq!(
                fp,
                *fps.last().unwrap(),
                "budget {budget}: recovered state != acked prefix ({})",
                report.summary()
            );
            assert_eq!(report.records_replayed as usize, fps.len() - 1);
            // The torn tail is the partial frame the crash left; repair
            // happens on the next read-write open.
            let mut reopened = open(&dir, FsyncPolicy::Always);
            assert_eq!(reopened.fingerprint(), fp);
            reopened
                .register(Community::new("post-crash", 3))
                .expect("appends continue after tail repair");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// One mutation of [`durable_script`].
    #[derive(Debug, Clone, Copy)]
    enum ScriptedOp {
        Register(usize),
        Upsert(usize, u64),
        Remove(usize, u64),
    }

    const SCRIPT_D: usize = 8;
    const SCRIPT_USERS: u64 = 12;

    /// Four seeded communities and the mutation script over them: each
    /// community is registered, gains six extra users and loses two of
    /// them, so the WAL carries every op kind.
    fn durable_script(seed: u64) -> (Vec<Community>, Vec<ScriptedOp>) {
        let communities: Vec<Community> = (0..4u64)
            .map(|m| {
                let salt = seed.wrapping_add(m);
                let rows = (0..SCRIPT_USERS).map(|i| {
                    let counters: Vec<u32> = (0..SCRIPT_D as u64)
                        .map(|j| (i * (7 + j)).wrapping_add(salt.wrapping_mul(13)) % 97)
                        .map(|v| v as u32)
                        .collect();
                    (i + 1, counters)
                });
                Community::from_rows(format!("script-{m}"), SCRIPT_D, rows).expect("well-formed")
            })
            .collect();
        let extra = SCRIPT_USERS + 1;
        let mut ops = Vec::new();
        for m in 0..communities.len() {
            ops.push(ScriptedOp::Register(m));
            ops.extend((0..6).map(|u| ScriptedOp::Upsert(m, extra + u)));
            ops.push(ScriptedOp::Remove(m, extra));
            ops.push(ScriptedOp::Remove(m, extra + 1));
        }
        (communities, ops)
    }

    fn apply_scripted(
        engine: &mut DurableEngine,
        communities: &[Community],
        op: ScriptedOp,
    ) -> Result<(), DurabilityError> {
        let handle = |engine: &DurableEngine, m: usize| {
            engine
                .engine()
                .find(communities[m].name())
                .expect("registered before its upserts")
        };
        match op {
            ScriptedOp::Register(m) => engine.register(communities[m].clone()).map(|_| ()),
            ScriptedOp::Upsert(m, user) => {
                let vector: Vec<u32> = (0..SCRIPT_D as u64)
                    .map(|j| ((user * 31 + j * 7) % 97) as u32)
                    .collect();
                engine
                    .upsert_user(handle(engine, m), user, &vector)
                    .map(|_| ())
            }
            ScriptedOp::Remove(m, user) => engine.remove_user(handle(engine, m), user).map(|_| ()),
        }
    }

    /// Recover `dir` read-only and check it with `verify_recovery`;
    /// returns the recovered fingerprint.
    fn recover_verified(dir: &Path) -> u64 {
        let (engine, report) =
            recover_dir(dir, SCRIPT_D, EngineConfig::new(1)).expect("recovery succeeds");
        let breaches = csj_durability::verify_recovery(dir, &engine, &report);
        assert!(breaches.is_empty(), "verify breaches: {breaches:?}");
        csj_durability::fingerprint_engine(&engine)
    }

    /// The register/upsert/remove script torn at WAL byte 64, 777 and
    /// 2048 for three seeds: recovery yields exactly the acked prefix
    /// and verifies; finishing the script from the torn op, snapshotting
    /// and recovering again reproduces the live state bit for bit.
    #[test]
    fn torn_durable_script_recovers_the_acked_prefix_then_converges() {
        let config = DurabilityConfig {
            fsync: FsyncPolicy::Always,
            keep_snapshots: 2,
        };
        for seed in [7u64, 1234, 998_877] {
            let (communities, ops) = durable_script(seed);
            let mut torn_at = Vec::new();
            for budget in [64u64, 777, 2048] {
                let dir = scratch(&format!("script-{seed}-{budget}"));
                let open = || {
                    DurableEngine::open(&dir, SCRIPT_D, EngineConfig::new(1), config.clone())
                        .expect("open durable engine")
                };
                let mut engine = open();
                engine.inject_fs_faults(FsFaultPlan::new().crash_after_wal_bytes(budget));
                let mut acked = engine.fingerprint();
                let mut resume = None;
                for (i, &op) in ops.iter().enumerate() {
                    match apply_scripted(&mut engine, &communities, op) {
                        Ok(()) => acked = engine.fingerprint(),
                        Err(DurabilityError::InjectedCrash) => {
                            resume = Some(i);
                            break;
                        }
                        Err(e) => panic!("seed {seed} budget {budget}: {e}"),
                    }
                }
                let resume = resume.unwrap_or_else(|| panic!("budget {budget} never tore"));
                torn_at.push(resume);
                drop(engine);
                assert_eq!(
                    recover_verified(&dir),
                    acked,
                    "seed {seed} budget {budget}: recovered state != acked prefix"
                );

                let mut engine = open();
                for &op in &ops[resume..] {
                    apply_scripted(&mut engine, &communities, op).expect("script finishes");
                }
                engine.snapshot().expect("snapshot");
                let live = engine.fingerprint();
                drop(engine);
                assert_eq!(
                    recover_verified(&dir),
                    live,
                    "seed {seed} budget {budget}: snapshot + WAL != live state"
                );
                std::fs::remove_dir_all(&dir).unwrap();
            }
            torn_at.dedup();
            assert_eq!(torn_at.len(), 3, "each budget tears a different op");
        }
    }

    /// Injected snapshot rename failure: the temp file is crash residue,
    /// the WAL is untouched, recovery replays it fully, and the next
    /// snapshot attempt succeeds.
    #[test]
    fn failed_snapshot_rename_loses_nothing() {
        let dir = scratch("rename");
        let mut engine = open(&dir, FsyncPolicy::Always);
        let (h, _) = engine.register(Community::new("c", 3)).unwrap();
        engine.upsert_user(h, 1, &[1, 2, 3]).unwrap();
        let live = engine.fingerprint();
        engine.inject_fs_faults(FsFaultPlan::new().fail_next_snapshot_rename());
        let err = engine.snapshot().unwrap_err();
        assert!(matches!(err, DurabilityError::InjectedCrash));
        drop(engine);

        // No snapshot landed; the temp dropping is ignored.
        let (fp, report) = recovered_fingerprint(&dir);
        assert_eq!(fp, live);
        assert_eq!(report.snapshot_seq, None);
        assert!(report.records_replayed >= 2);

        // The registry is not stuck: reopen and snapshot for real.
        let mut engine = open(&dir, FsyncPolicy::Always);
        assert_eq!(engine.fingerprint(), live);
        let out = engine.snapshot().expect("second snapshot succeeds");
        assert!(out.path.exists());
        drop(engine);
        let (fp2, report2) = recovered_fingerprint(&dir);
        assert_eq!(fp2, live);
        assert!(report2.snapshot_seq.is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The provided corruption helpers compose with recovery: flip a bit
    /// in the WAL with the injector's own tool, recover a prefix.
    #[test]
    fn injector_helpers_drive_recovery() {
        let dir = scratch("helpers");
        let mut engine = open(&dir, FsyncPolicy::Always);
        for user in 0..6u64 {
            engine
                .register(Community::new(format!("c{user}"), 3))
                .unwrap();
        }
        drop(engine);
        let wal = dir.join(WAL_FILE);
        let len = std::fs::metadata(&wal).unwrap().len();
        fault::shear_tail(&wal, 3).unwrap();
        fault::flip_bit(&wal, len / 2, 4).unwrap();
        let (_, report) = recovered_fingerprint(&dir);
        assert!(report.bytes_discarded > 0);
        assert!(report.wal_tail != TailReason::CleanEof);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
