//! [`DurableEngine`]: the log-before-apply mutation wrapper around
//! [`CsjEngine`].
//!
//! Opening a directory *is* recovery: load the latest valid snapshot,
//! replay the WAL tail, repair any torn tail in place, and continue
//! appending where the log left off. Every mutation is pre-validated
//! (so a record that reaches the log always applies), appended, fsynced
//! per policy, and only then applied in memory — the returned
//! [`DurableAck`] says whether the record is already on stable storage.
//!
//! Queries go through [`DurableEngine::engine`] untouched: reads take
//! `&self` and never block on the log.

use std::path::{Path, PathBuf};

use csj_core::Community;
use csj_engine::{CommunityHandle, CsjEngine, EngineConfig, EngineError};
use csj_obs::MetricsSnapshot;

use crate::error::DurabilityError;
use crate::obs::DurabilityObs;
use crate::record::WalOp;
use crate::recover::{recover_dir, RecoveryReport, WAL_FILE};
use crate::snapshot::{prune_snapshots, SnapshotEntry, SnapshotImage};
use crate::wal::{FsyncPolicy, Wal};

/// Durability tuning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// When mutation acks become durable (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Snapshot files kept after a new one lands (≥ 1). Two means a
    /// single damaged file never strands the registry.
    pub keep_snapshots: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self {
            fsync: FsyncPolicy::Always,
            keep_snapshots: 2,
        }
    }
}

/// Acknowledgement of one durable mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableAck {
    /// The WAL sequence number the mutation got.
    pub seq: u64,
    /// Whether the record is on stable storage. Always `true` under
    /// `FsyncPolicy::Always`; under `Interval(n)` it is `true` only for
    /// the append that flushed the batch.
    pub synced: bool,
}

/// What a snapshot call produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotOutcome {
    /// Sequence number the snapshot covers (its `SnapshotMark`).
    pub seq: u64,
    /// The snapshot file.
    pub path: PathBuf,
    /// Older snapshot files pruned.
    pub pruned: usize,
}

/// A crash-consistent registry: engine + WAL + snapshot store.
pub struct DurableEngine {
    dir: PathBuf,
    engine: CsjEngine,
    wal: Wal,
    config: DurabilityConfig,
    obs: DurabilityObs,
    report: RecoveryReport,
    /// Test hook: `None` unless [`DurableEngine::inject_fs_faults`] set
    /// it.
    faults: Option<crate::fault::FsFaultPlan>,
}

impl DurableEngine {
    /// Open (creating if needed) the durable registry at `dir`:
    /// recovery, then torn-tail repair, then an append handle placed at
    /// `last_seq + 1`.
    ///
    /// `default_d` is the engine dimensionality when the directory
    /// holds no state yet; recovered state overrides it.
    pub fn open(
        dir: &Path,
        default_d: usize,
        engine_config: EngineConfig,
        config: DurabilityConfig,
    ) -> Result<Self, DurabilityError> {
        std::fs::create_dir_all(dir)?;
        let (engine, report) = recover_dir(dir, default_d, engine_config)?;
        let wal_path = dir.join(WAL_FILE);
        // Repair the torn tail so appends continue from a clean frame
        // boundary. The discarded bytes were never acked (or their
        // fsync never completed), so cutting them is the correct —
        // and only — consistent choice.
        Wal::repair_tail(&wal_path, report.wal_valid_bytes)?;
        let wal = Wal::open(&wal_path, config.fsync, report.last_seq + 1)?;
        let obs = DurabilityObs::new();
        obs.on_recovery(report.records_replayed, report.bytes_discarded);
        Ok(Self {
            dir: dir.to_path_buf(),
            engine,
            wal,
            config,
            obs,
            report,
            faults: None,
        })
    }

    /// The recovery report from opening.
    pub fn report(&self) -> &RecoveryReport {
        &self.report
    }

    /// The directory this registry persists to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The wrapped engine, for queries (`&self` methods only — all
    /// mutations must go through the durable methods).
    pub fn engine(&self) -> &CsjEngine {
        &self.engine
    }

    /// Sync any batched appends, then surrender the engine (e.g. to
    /// hand it to a query service once ingest is done).
    pub fn into_engine(mut self) -> Result<CsjEngine, DurabilityError> {
        self.sync()?;
        Ok(self.engine)
    }

    /// Test hook: install a filesystem fault plan (torn WAL writes,
    /// snapshot rename failures).
    #[doc(hidden)]
    pub fn inject_fs_faults(&mut self, plan: crate::fault::FsFaultPlan) {
        self.wal.inject_faults(plan.clone());
        self.faults = Some(plan);
    }

    /// Durably register a community. Log-before-apply: validation,
    /// append (+fsync per policy), then the in-memory registration.
    pub fn register(
        &mut self,
        community: Community,
    ) -> Result<(CommunityHandle, DurableAck), DurabilityError> {
        // Pre-validate so the logged record is guaranteed to apply:
        // replay must never meet a record the engine rejects.
        if community.d() != self.engine.d() {
            return Err(EngineError::DimensionMismatch {
                engine_d: self.engine.d(),
                got: community.d(),
            }
            .into());
        }
        if self.engine.find(community.name()).is_some() {
            return Err(EngineError::DuplicateName(community.name().to_string()).into());
        }
        if community.name().len() > u16::MAX as usize {
            return Err(DurabilityError::Corrupt {
                context: "register".into(),
                reason: "community name too long for the WAL wire form".into(),
            });
        }
        let ack = self.append(WalOp::Register {
            community: community.clone(),
        })?;
        let handle =
            self.engine
                .register(community)
                .map_err(|source| DurabilityError::ReplayMismatch {
                    seq: ack.seq,
                    source,
                })?;
        Ok((handle, ack))
    }

    /// Durably insert or overwrite a user's profile vector.
    pub fn upsert_user(
        &mut self,
        handle: CommunityHandle,
        user: u64,
        vector: &[u32],
    ) -> Result<DurableAck, DurabilityError> {
        let community = self.engine.community(handle)?;
        if vector.len() != community.d() {
            return Err(EngineError::Csj(csj_core::CsjError::VectorLength {
                expected: community.d(),
                got: vector.len(),
            })
            .into());
        }
        let ack = self.append(WalOp::UpsertUser {
            handle: handle.0,
            user,
            vector: vector.to_vec(),
        })?;
        self.engine
            .upsert_user(handle, user, vector)
            .map_err(|source| DurabilityError::ReplayMismatch {
                seq: ack.seq,
                source,
            })?;
        Ok(ack)
    }

    /// Durably remove a user.
    pub fn remove_user(
        &mut self,
        handle: CommunityHandle,
        user: u64,
    ) -> Result<DurableAck, DurabilityError> {
        if self.engine.community(handle)?.find_user(user).is_none() {
            return Err(EngineError::UnknownUser(user).into());
        }
        let ack = self.append(WalOp::RemoveUser {
            handle: handle.0,
            user,
        })?;
        self.engine.remove_user(handle, user).map_err(|source| {
            DurabilityError::ReplayMismatch {
                seq: ack.seq,
                source,
            }
        })?;
        Ok(ack)
    }

    fn append(&mut self, op: WalOp) -> Result<DurableAck, DurabilityError> {
        let out = self.wal.append(op)?;
        self.obs.on_append(out.bytes, out.fsync_latency);
        Ok(DurableAck {
            seq: out.seq,
            synced: out.synced,
        })
    }

    /// Force-fsync any batched appends (makes every prior ack durable).
    pub fn sync(&mut self) -> Result<(), DurabilityError> {
        let latency = self.wal.sync()?;
        self.obs.on_sync(latency);
        Ok(())
    }

    /// Write a full-registry snapshot, then truncate the WAL and prune
    /// old snapshots.
    ///
    /// Ordering is what makes every crash point safe:
    /// 1. append `SnapshotMark` (fsynced) — the snapshot's seq;
    /// 2. write `snapshot-<seq>.csjs` atomically;
    /// 3. truncate the WAL;
    /// 4. prune old snapshots.
    ///
    /// Crash after 1: recovery replays the full WAL (mark is a no-op).
    /// Crash after 2: recovery loads the new snapshot, skips the WAL's
    /// pre-snapshot records. Crash after 3 or 4: fully consistent.
    pub fn snapshot(&mut self) -> Result<SnapshotOutcome, DurabilityError> {
        let mark = self.append(WalOp::SnapshotMark)?;
        self.wal.sync().map(|l| self.obs.on_sync(l))?;
        let image = SnapshotImage {
            last_seq: mark.seq,
            entries: self
                .engine
                .handles()
                .map(|h| {
                    Ok(SnapshotEntry {
                        community: self.engine.community(h)?.clone(),
                        version: self.engine.community_version(h)?,
                    })
                })
                .collect::<Result<Vec<_>, EngineError>>()?,
        };
        let fail_rename = self
            .faults
            .as_ref()
            .is_some_and(crate::fault::FsFaultPlan::rename_should_fail);
        let path = crate::snapshot::write_snapshot_inner(&self.dir, &image, fail_rename)?;
        self.obs.on_snapshot();
        self.wal.reset_after_snapshot()?;
        let pruned = prune_snapshots(&self.dir, self.config.keep_snapshots.max(1))?;
        Ok(SnapshotOutcome {
            seq: mark.seq,
            path,
            pruned,
        })
    }

    /// Order-sensitive fingerprint of the full registry state —
    /// communities, rows, names and versions — for convergence
    /// assertions (recovered-equals-prefix). FNV-1a over the wire
    /// encoding plus versions.
    pub fn fingerprint(&self) -> u64 {
        fingerprint_engine(&self.engine)
    }

    /// Durability metrics only (`csj_wal_*`, `csj_recovery_*`,
    /// `csj_snapshots_*`).
    pub fn durability_metrics(&self) -> MetricsSnapshot {
        self.obs.snapshot()
    }

    /// Engine metrics merged with the durability series — one
    /// exposition for the whole durable registry.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.engine.metrics_snapshot();
        snap.metrics.extend(self.obs.snapshot().metrics);
        snap
    }
}

/// Fingerprint any engine's registry (used to compare a live engine
/// against a recovered one).
pub fn fingerprint_engine(engine: &CsjEngine) -> u64 {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hash = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(PRIME);
        }
    };
    eat(&(engine.d() as u64).to_le_bytes());
    for handle in engine.handles() {
        let c = engine.community(handle).expect("handle from iterator");
        let version = engine.community_version(handle).expect("handle valid");
        eat(&handle.0.to_le_bytes());
        eat(&version.to_le_bytes());
        eat(&(c.name().len() as u64).to_le_bytes());
        eat(c.name().as_bytes());
        eat(&(c.len() as u64).to_le_bytes());
        for &id in c.user_ids() {
            eat(&id.to_le_bytes());
        }
        for &v in c.raw_data() {
            eat(&v.to_le_bytes());
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("csj-dur-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path) -> DurableEngine {
        DurableEngine::open(dir, 2, EngineConfig::new(1), DurabilityConfig::default()).unwrap()
    }

    fn community(name: &str, rows: &[(u64, [u32; 2])]) -> Community {
        Community::from_rows(name, 2, rows.iter().map(|&(id, v)| (id, v.to_vec()))).unwrap()
    }

    #[test]
    fn mutations_survive_reopen() {
        let dir = scratch("reopen");
        let mut d = open(&dir);
        let (h, ack) = d
            .register(community("a", &[(1, [1, 1]), (2, [2, 2])]))
            .unwrap();
        assert_eq!(ack.seq, 1);
        assert!(ack.synced);
        d.upsert_user(h, 3, &[7, 7]).unwrap();
        d.remove_user(h, 1).unwrap();
        let live = d.fingerprint();
        drop(d);

        let d2 = open(&dir);
        assert_eq!(d2.report().records_replayed, 3);
        assert_eq!(d2.fingerprint(), live, "recovered state is bit-identical");
        let h2 = d2.engine().find("a").unwrap();
        assert_eq!(h2, h);
        assert_eq!(d2.engine().community_version(h2).unwrap(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejected_mutations_log_nothing() {
        let dir = scratch("reject");
        let mut d = open(&dir);
        let (h, _) = d.register(community("a", &[(1, [1, 1])])).unwrap();
        assert!(d.register(community("a", &[(1, [1, 1])])).is_err());
        assert!(d.upsert_user(h, 1, &[1, 2, 3]).is_err());
        assert!(d.remove_user(h, 99).is_err());
        assert!(d.upsert_user(CommunityHandle(9), 1, &[1, 1]).is_err());
        let wrong_d = Community::new("b", 5);
        assert!(d.register(wrong_d).is_err());
        // Only the one good record hit the log.
        assert_eq!(
            d.durability_metrics()
                .counter_value("csj_wal_appends_total", &[]),
            1
        );
        drop(d);
        let d2 = open(&dir);
        assert_eq!(d2.report().records_replayed, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_truncates_wal_and_reopen_uses_it() {
        let dir = scratch("snap");
        let mut d = open(&dir);
        let (h, _) = d.register(community("a", &[(1, [1, 1])])).unwrap();
        d.upsert_user(h, 2, &[2, 2]).unwrap();
        let out = d.snapshot().unwrap();
        assert_eq!(out.seq, 3, "register + upsert + mark");
        assert!(out.path.exists());
        // Post-snapshot mutation lands in the (now tiny) WAL.
        d.upsert_user(h, 4, &[4, 4]).unwrap();
        let live = d.fingerprint();
        drop(d);

        let d2 = open(&dir);
        assert_eq!(d2.report().snapshot_seq, Some(3));
        assert_eq!(d2.report().snapshot_entries, 1);
        assert_eq!(d2.report().records_replayed, 1, "only the post-snapshot op");
        assert_eq!(d2.fingerprint(), live);
        // Sequence numbering continued across the reopen.
        assert_eq!(d2.report().last_seq, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interval_fsync_acks_batch_on_the_flush() {
        let dir = scratch("interval");
        let mut d = DurableEngine::open(
            &dir,
            2,
            EngineConfig::new(1),
            DurabilityConfig {
                fsync: FsyncPolicy::Interval(2),
                keep_snapshots: 2,
            },
        )
        .unwrap();
        let (h, a1) = d.register(community("a", &[(1, [1, 1])])).unwrap();
        assert!(!a1.synced, "first of the batch rides");
        let a2 = d.upsert_user(h, 2, &[2, 2]).unwrap();
        assert!(a2.synced, "second append flushes the batch");
        let a3 = d.upsert_user(h, 3, &[3, 3]).unwrap();
        assert!(!a3.synced);
        d.sync().unwrap();
        let m = d.durability_metrics();
        assert_eq!(m.counter_value("csj_wal_appends_total", &[]), 3);
        assert_eq!(m.counter_value("csj_wal_fsyncs_total", &[]), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metrics_merge_engine_and_durability_series() {
        let dir = scratch("metrics");
        let mut d = open(&dir);
        d.register(community("a", &[(1, [1, 1])])).unwrap();
        let snap = d.metrics_snapshot();
        assert!(snap.find("csj_wal_appends_total", &[]).is_some());
        assert!(snap.find("csj_queries_total", &[]).is_some() || !snap.metrics.is_empty());
        let prom = snap.to_prometheus();
        assert!(prom.contains("csj_wal_appends_total"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovered_engine_ranks_like_the_live_one() {
        let dir = scratch("topk");
        let mut d = open(&dir);
        let mut handles = Vec::new();
        for i in 0..5u32 {
            let rows: Vec<(u64, [u32; 2])> = (0..4 + u64::from(i % 2))
                .map(|u| (u, [(u as u32 * 3 + i) % 9, (u as u32 + 2 * i) % 7]))
                .collect();
            let (h, _) = d.register(community(&format!("c{i}"), &rows)).unwrap();
            handles.push(h);
        }
        let x = handles[0];
        // Warm the live caches, then change two communities so the live
        // answer mixes cached and recomputed scores.
        d.engine().top_k_similar(x, 3).unwrap();
        d.upsert_user(handles[1], 0, &[0, 0]).unwrap();
        d.remove_user(handles[3], 2).unwrap();
        let live = d.engine().top_k_similar(x, 3).unwrap();
        assert!(!live.is_empty());
        assert_eq!(d.engine().top_k_similar(x, 3).unwrap(), live, "warm");
        drop(d);

        // Recovery starts with cold caches.
        let recovered = open(&dir);
        assert_eq!(recovered.engine().stats().cached_pairs, 0);
        assert_eq!(recovered.engine().top_k_similar(x, 3).unwrap(), live);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn into_engine_hands_over_recovered_state() {
        let dir = scratch("into");
        let mut d = open(&dir);
        let (h, _) = d
            .register(community("a", &[(1, [1, 1]), (2, [5, 5])]))
            .unwrap();
        let engine = d.into_engine().unwrap();
        assert_eq!(engine.community(h).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
