//! Recovery: latest valid snapshot + WAL tail replay, stopping cleanly
//! at the first torn/corrupt record.
//!
//! The contract the crash-point property suite enforces: for *any*
//! crash point — torn append, sheared tail, flipped bit, failed
//! snapshot rename — recovery rebuilds exactly a prefix of the applied
//! mutation sequence (no holes, no reordering, no panic) and says what
//! it did in a typed [`RecoveryReport`].

use std::path::Path;

use csj_engine::{CsjEngine, EngineConfig, EngineError};

use crate::engine::fingerprint_engine;
use crate::error::DurabilityError;
use crate::record::{WalOp, WalRecord};
use crate::snapshot::latest_valid_snapshot;
use crate::wal::{read_wal, TailReason};

/// The WAL file name inside a durable registry directory.
pub const WAL_FILE: &str = "wal.log";

/// What recovery found and did.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Sequence number of the snapshot the registry was rebuilt from,
    /// if any verified.
    pub snapshot_seq: Option<u64>,
    /// Registry entries restored from that snapshot.
    pub snapshot_entries: usize,
    /// Damaged snapshot files skipped during selection.
    pub snapshots_skipped: usize,
    /// WAL records replayed onto the restored image.
    pub records_replayed: u64,
    /// Valid WAL records *not* replayed because the snapshot already
    /// contains them (crash between snapshot write and WAL truncation).
    pub records_skipped: u64,
    /// Bytes of torn/corrupt WAL tail discarded.
    pub bytes_discarded: u64,
    /// Why the WAL scan stopped (CleanEof when nothing was lost).
    pub wal_tail: TailReason,
    /// Bytes of WAL covered by the valid prefix — the tail-repair
    /// truncation point.
    pub wal_valid_bytes: u64,
    /// Highest sequence number in the recovered state; appends continue
    /// at `last_seq + 1`.
    pub last_seq: u64,
}

impl RecoveryReport {
    /// One-line human/grep-friendly summary (printed by `csj recover`
    /// and `csj snapshot`).
    pub fn summary(&self) -> String {
        format!(
            "snapshot-seq={} snapshot-entries={} snapshots-skipped={} replayed={} \
             skipped={} discarded-bytes={} tail={} last-seq={}",
            self.snapshot_seq
                .map(|s| s.to_string())
                .unwrap_or_else(|| "none".into()),
            self.snapshot_entries,
            self.snapshots_skipped,
            self.records_replayed,
            self.records_skipped,
            self.bytes_discarded,
            self.wal_tail,
            self.last_seq,
        )
    }
}

/// Rebuild a registry from `dir` without modifying anything on disk.
///
/// `default_d` is used only when the directory holds no state at all
/// (the dimensionality of the empty engine); otherwise the recovered
/// entries fix it. Returns the engine plus the report.
pub fn recover_dir(
    dir: &Path,
    default_d: usize,
    config: EngineConfig,
) -> Result<(CsjEngine, RecoveryReport), DurabilityError> {
    let (snapshot, skipped) = latest_valid_snapshot(dir)?;
    let wal = read_wal(&dir.join(WAL_FILE))?;

    let (snapshot_seq, entries) = match snapshot {
        Some((_, image)) => (Some(image.last_seq), image.entries),
        None => (None, Vec::new()),
    };
    let floor = snapshot_seq.unwrap_or(0);

    // Dimensionality: first restored entry, else first replayable
    // Register record, else the caller's default.
    let d = entries
        .first()
        .map(|e| e.community.d())
        .or_else(|| {
            wal.records.iter().find_map(|r| match &r.op {
                WalOp::Register { community } if r.seq > floor => Some(community.d()),
                _ => None,
            })
        })
        .unwrap_or(default_d);

    let mut engine = CsjEngine::new(d, config);
    let snapshot_entries = entries.len();
    for entry in entries {
        engine
            .restore(entry.community, entry.version)
            .map_err(|e| DurabilityError::Corrupt {
                context: format!("snapshot in {}", dir.display()),
                reason: format!("restore rejected: {e}"),
            })?;
    }

    let mut replayed = 0u64;
    let mut skipped_records = 0u64;
    let mut last_seq = floor;
    for record in &wal.records {
        if record.seq <= floor {
            // Pre-snapshot leftovers: the crash hit between snapshot
            // write and WAL truncation. The snapshot already holds
            // their effects.
            skipped_records += 1;
            continue;
        }
        apply(&mut engine, record).map_err(|source| DurabilityError::ReplayMismatch {
            seq: record.seq,
            source,
        })?;
        replayed += 1;
        last_seq = record.seq;
    }

    let report = RecoveryReport {
        snapshot_seq,
        snapshot_entries,
        snapshots_skipped: skipped.len(),
        records_replayed: replayed,
        records_skipped: skipped_records,
        bytes_discarded: wal.bytes_discarded(),
        wal_tail: wal.reason,
        wal_valid_bytes: wal.valid_bytes,
        last_seq,
    };
    Ok((engine, report))
}

/// A registry invariant that a recovered directory breaks; see
/// [`verify_recovery`].
#[derive(Debug)]
pub enum RecoveryBreach {
    /// Recovering the directory a second time failed.
    SecondRecoveryFailed(DurabilityError),
    /// A second recovery rebuilt a different registry.
    FingerprintDiverged {
        /// Fingerprint of the registry under check.
        first: u64,
        /// Fingerprint of the second recovery.
        second: u64,
    },
    /// A second recovery returned a different report.
    ReportDiffers(Box<RecoveryReport>),
    /// A community's dimensionality differs from the engine's.
    DimensionMismatch {
        /// The community's name.
        name: String,
        /// Its dimensionality.
        d: usize,
        /// The engine's dimensionality.
        engine_d: usize,
    },
    /// A community's name does not resolve back to its handle.
    NameUnresolved {
        /// The community's name.
        name: String,
        /// The handle it was listed under.
        handle: u32,
    },
    /// A listed handle resolves to no community.
    DanglingHandle {
        /// The handle.
        handle: u32,
        /// Why the lookup failed.
        source: EngineError,
    },
    /// The WAL's valid and discarded bytes do not add up to its length.
    WalAccounting {
        /// Bytes of the valid prefix.
        valid: u64,
        /// Bytes of torn or corrupt tail.
        discarded: u64,
        /// The WAL file's length.
        on_disk: u64,
    },
}

impl std::fmt::Display for RecoveryBreach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryBreach::SecondRecoveryFailed(e) => write!(f, "second recovery failed: {e}"),
            RecoveryBreach::FingerprintDiverged { first, second } => write!(
                f,
                "second recovery diverged from the first ({first:#018x} vs {second:#018x})"
            ),
            RecoveryBreach::ReportDiffers(second) => {
                write!(f, "second recovery report differs: {}", second.summary())
            }
            RecoveryBreach::DimensionMismatch { name, d, engine_d } => {
                write!(f, "community {name:?} has d={d} in a d={engine_d} engine")
            }
            RecoveryBreach::NameUnresolved { name, handle } => {
                write!(f, "name {name:?} does not resolve back to handle {handle}")
            }
            RecoveryBreach::DanglingHandle { handle, source } => {
                write!(f, "dangling handle {handle}: {source}")
            }
            RecoveryBreach::WalAccounting {
                valid,
                discarded,
                on_disk,
            } => write!(
                f,
                "WAL accounting mismatch: {valid} valid + {discarded} discarded != {on_disk} on disk"
            ),
        }
    }
}

/// Check a registry that [`recover_dir`] rebuilt from `dir` against
/// the directory: a second recovery gives the same fingerprint and the
/// same report, every handle resolves back by name and carries the
/// engine's `d`, and the WAL's valid plus discarded bytes equal its
/// length on disk. Returns every breach; empty means verified.
pub fn verify_recovery(
    dir: &Path,
    engine: &CsjEngine,
    report: &RecoveryReport,
) -> Vec<RecoveryBreach> {
    let mut breaches = Vec::new();
    match recover_dir(dir, engine.d(), engine.config().clone()) {
        Ok((again, second)) => {
            let (first, second_fp) = (fingerprint_engine(engine), fingerprint_engine(&again));
            if first != second_fp {
                breaches.push(RecoveryBreach::FingerprintDiverged {
                    first,
                    second: second_fp,
                });
            }
            if second != *report {
                breaches.push(RecoveryBreach::ReportDiffers(Box::new(second)));
            }
        }
        Err(e) => breaches.push(RecoveryBreach::SecondRecoveryFailed(e)),
    }
    for handle in engine.handles() {
        match engine.community(handle) {
            Ok(c) => {
                if c.d() != engine.d() {
                    breaches.push(RecoveryBreach::DimensionMismatch {
                        name: c.name().to_string(),
                        d: c.d(),
                        engine_d: engine.d(),
                    });
                }
                if engine.find(c.name()) != Some(handle) {
                    breaches.push(RecoveryBreach::NameUnresolved {
                        name: c.name().to_string(),
                        handle: handle.0,
                    });
                }
            }
            Err(source) => breaches.push(RecoveryBreach::DanglingHandle {
                handle: handle.0,
                source,
            }),
        }
    }
    let on_disk = std::fs::metadata(dir.join(WAL_FILE)).map_or(0, |m| m.len());
    if report.wal_valid_bytes + report.bytes_discarded != on_disk {
        breaches.push(RecoveryBreach::WalAccounting {
            valid: report.wal_valid_bytes,
            discarded: report.bytes_discarded,
            on_disk,
        });
    }
    breaches
}

/// Apply one WAL record to the engine.
pub(crate) fn apply(engine: &mut CsjEngine, record: &WalRecord) -> Result<(), EngineError> {
    match &record.op {
        WalOp::Register { community } => engine.register(community.clone()).map(|_| ()),
        WalOp::UpsertUser {
            handle,
            user,
            vector,
        } => engine.upsert_user(csj_engine::CommunityHandle(*handle), *user, vector),
        WalOp::RemoveUser { handle, user } => {
            engine.remove_user(csj_engine::CommunityHandle(*handle), *user)
        }
        WalOp::SnapshotMark => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{write_snapshot, SnapshotEntry, SnapshotImage};
    use crate::wal::{FsyncPolicy, Wal};
    use csj_core::Community;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("csj-rec-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn register_op(name: &str) -> WalOp {
        WalOp::Register {
            community: Community::from_rows(name, 2, vec![(1u64, vec![1u32, 1])]).unwrap(),
        }
    }

    #[test]
    fn empty_dir_recovers_empty_registry() {
        let dir = scratch("empty");
        let (engine, report) = recover_dir(&dir, 3, EngineConfig::new(1)).unwrap();
        assert_eq!(engine.handles().count(), 0);
        assert_eq!(engine.d(), 3);
        assert_eq!(report.last_seq, 0);
        assert_eq!(report.wal_tail, TailReason::CleanEof);
        assert!(report.summary().contains("snapshot-seq=none"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_only_recovery_replays_in_order() {
        let dir = scratch("walonly");
        let mut wal = Wal::open(&dir.join(WAL_FILE), FsyncPolicy::Always, 1).unwrap();
        wal.append(register_op("a")).unwrap();
        wal.append(WalOp::UpsertUser {
            handle: 0,
            user: 9,
            vector: vec![4, 4],
        })
        .unwrap();
        wal.append(WalOp::RemoveUser { handle: 0, user: 1 })
            .unwrap();
        drop(wal);
        let (engine, report) = recover_dir(&dir, 7, EngineConfig::new(1)).unwrap();
        assert_eq!(engine.d(), 2, "d inferred from the Register record");
        assert_eq!(report.records_replayed, 3);
        assert_eq!(report.last_seq, 3);
        let h = engine.find("a").unwrap();
        assert_eq!(engine.community(h).unwrap().user_ids(), &[9]);
        assert_eq!(engine.community_version(h).unwrap(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_floor_skips_pre_snapshot_records() {
        let dir = scratch("floor");
        // WAL holds seqs 1..=3; snapshot covers through 2 (crash before
        // WAL truncation).
        let mut wal = Wal::open(&dir.join(WAL_FILE), FsyncPolicy::Always, 1).unwrap();
        wal.append(register_op("a")).unwrap();
        wal.append(WalOp::SnapshotMark).unwrap();
        wal.append(WalOp::UpsertUser {
            handle: 0,
            user: 2,
            vector: vec![5, 5],
        })
        .unwrap();
        drop(wal);
        write_snapshot(
            &dir,
            &SnapshotImage {
                last_seq: 2,
                entries: vec![SnapshotEntry {
                    community: Community::from_rows("a", 2, vec![(1u64, vec![1u32, 1])]).unwrap(),
                    version: 0,
                }],
            },
        )
        .unwrap();
        let (engine, report) = recover_dir(&dir, 2, EngineConfig::new(1)).unwrap();
        assert_eq!(report.snapshot_seq, Some(2));
        assert_eq!(report.records_skipped, 2);
        assert_eq!(report.records_replayed, 1);
        assert_eq!(report.last_seq, 3);
        let h = engine.find("a").unwrap();
        assert_eq!(engine.community(h).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_reported_not_fatal() {
        let dir = scratch("torn");
        let mut wal = Wal::open(&dir.join(WAL_FILE), FsyncPolicy::Always, 1).unwrap();
        wal.append(register_op("a")).unwrap();
        drop(wal);
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(WAL_FILE))
            .unwrap();
        f.write_all(&[1, 2, 3, 4, 5]).unwrap();
        drop(f);
        let (engine, report) = recover_dir(&dir, 2, EngineConfig::new(1)).unwrap();
        assert_eq!(engine.handles().count(), 1);
        assert_eq!(report.bytes_discarded, 5);
        assert!(matches!(report.wal_tail, TailReason::TornFrame { .. }));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_passes_a_recovery_and_names_each_breach() {
        let dir = scratch("verify");
        let mut wal = Wal::open(&dir.join(WAL_FILE), FsyncPolicy::Always, 1).unwrap();
        wal.append(register_op("a")).unwrap();
        drop(wal);
        let (engine, report) = recover_dir(&dir, 2, EngineConfig::new(1)).unwrap();
        assert!(verify_recovery(&dir, &engine, &report).is_empty());

        // A registry or report that did not come from `dir` breaches.
        let other = CsjEngine::new(2, EngineConfig::new(1));
        let stale = RecoveryReport {
            wal_valid_bytes: report.wal_valid_bytes + 1,
            ..report.clone()
        };
        let breaches = verify_recovery(&dir, &other, &stale);
        assert!(matches!(
            breaches[..],
            [
                RecoveryBreach::FingerprintDiverged { .. },
                RecoveryBreach::ReportDiffers(_),
                RecoveryBreach::WalAccounting { .. },
            ]
        ));
        assert!(breaches[2].to_string().contains("accounting mismatch"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_mismatch_is_a_typed_hard_error() {
        let dir = scratch("mismatch");
        let mut wal = Wal::open(&dir.join(WAL_FILE), FsyncPolicy::Always, 1).unwrap();
        // An upsert against a handle that was never registered: the log
        // and the (absent) snapshot disagree.
        wal.append(WalOp::UpsertUser {
            handle: 4,
            user: 1,
            vector: vec![1, 1],
        })
        .unwrap();
        drop(wal);
        let err = recover_dir(&dir, 2, EngineConfig::new(1)).unwrap_err();
        assert!(matches!(
            err,
            DurabilityError::ReplayMismatch { seq: 1, .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
