//! The append-only write-ahead log.
//!
//! Frame layout (little-endian), one frame per record:
//!
//! ```text
//! len   u32   payload length
//! crc   u32   CRC32 of the payload bytes
//! payload     seq u64 | tag u8 | body   (see `record`)
//! ```
//!
//! Writes are log-before-apply: a mutation is appended (and fsynced per
//! policy) before the in-memory registry changes. Each record is
//! written with a single `write_all`, so a crash tears at most the last
//! frame — and the reader treats *anything* wrong at the tail (short
//! header, short payload, checksum mismatch, undecodable payload,
//! sequence break) as "the log ends here", returning the valid prefix
//! plus a typed reason instead of an error or a panic.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use csj_core::checksum::crc32;

use crate::error::DurabilityError;
use crate::record::{decode_record, encode_record, WalOp, WalRecord};

/// Frame header: length prefix + checksum.
pub const FRAME_HEADER_BYTES: u64 = 8;

/// Upper bound on one payload; a length field above this is corruption,
/// not a 300 MB community.
pub const MAX_PAYLOAD_BYTES: u32 = 256 * 1024 * 1024;

/// When appends become durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every append: an acked mutation survives any crash.
    Always,
    /// fsync once per `n` appends (and on demand): bounded loss window
    /// of at most `n - 1` acked-but-unsynced mutations on power loss,
    /// much higher throughput. `Interval(0)` and `Interval(1)` behave
    /// like [`FsyncPolicy::Always`].
    Interval(u32),
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Interval(n) => write!(f, "interval:{n}"),
        }
    }
}

/// What one append did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Sequence number assigned to the record.
    pub seq: u64,
    /// Whether the record is on stable storage (fsync ran at or after
    /// this append). `false` only under `Interval` batching.
    pub synced: bool,
    /// Frame bytes written.
    pub bytes: u64,
    /// fsync wall time, when this append triggered one.
    pub fsync_latency: Option<Duration>,
}

/// Why WAL reading stopped where it did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailReason {
    /// The file ends exactly on a frame boundary: nothing lost.
    CleanEof,
    /// The last frame is incomplete — the classic torn write.
    TornFrame {
        /// Bytes present past the last valid frame.
        have: u64,
        /// Bytes the frame header promised.
        need: u64,
    },
    /// A length field no writer could have produced.
    BadLength {
        /// The impossible length.
        len: u32,
    },
    /// The payload does not hash to its recorded checksum.
    ChecksumMismatch {
        /// Checksum recorded in the frame.
        expected: u32,
        /// Checksum of the bytes present.
        got: u32,
    },
    /// The checksum held but the payload does not parse — only possible
    /// if corruption hit both payload and checksum consistently, or a
    /// foreign/newer record format landed in the log.
    BadPayload(String),
    /// The record parsed but its sequence number is not `prev + 1`:
    /// a hole or reordering. Replaying past it could interleave states,
    /// so the log is treated as ending at the break.
    SequenceBreak {
        /// Last good sequence number.
        prev: u64,
        /// What the next record claimed.
        got: u64,
    },
}

impl std::fmt::Display for TailReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TailReason::CleanEof => write!(f, "clean-eof"),
            TailReason::TornFrame { have, need } => write!(f, "torn-frame:{have}/{need}"),
            TailReason::BadLength { len } => write!(f, "bad-length:{len}"),
            TailReason::ChecksumMismatch { expected, got } => {
                write!(f, "checksum-mismatch:{expected:#010x}!={got:#010x}")
            }
            TailReason::BadPayload(msg) => write!(f, "bad-payload:{msg}"),
            TailReason::SequenceBreak { prev, got } => write!(f, "sequence-break:{prev}->{got}"),
        }
    }
}

/// Everything a WAL scan recovered.
#[derive(Debug, Clone, PartialEq)]
pub struct WalReadOutcome {
    /// The valid record prefix, in log order.
    pub records: Vec<WalRecord>,
    /// Bytes covered by that prefix — the truncation point for tail
    /// repair.
    pub valid_bytes: u64,
    /// Total file size.
    pub total_bytes: u64,
    /// Why the scan stopped.
    pub reason: TailReason,
}

impl WalReadOutcome {
    /// Bytes past the valid prefix (the torn/corrupt tail).
    pub fn bytes_discarded(&self) -> u64 {
        self.total_bytes - self.valid_bytes
    }
}

/// Scan a WAL file, returning the longest valid record prefix and a
/// typed reason for stopping. A missing file is an empty log, not an
/// error; real I/O failures (permissions, bad disk) still surface.
pub fn read_wal(path: &Path) -> std::io::Result<WalReadOutcome> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    Ok(scan(&bytes))
}

fn scan(bytes: &[u8]) -> WalReadOutcome {
    let total = bytes.len() as u64;
    let mut records: Vec<WalRecord> = Vec::new();
    let mut pos: usize = 0;
    let reason = loop {
        if pos == bytes.len() {
            break TailReason::CleanEof;
        }
        let rest = &bytes[pos..];
        if rest.len() < FRAME_HEADER_BYTES as usize {
            break TailReason::TornFrame {
                have: rest.len() as u64,
                need: FRAME_HEADER_BYTES,
            };
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap());
        if len > MAX_PAYLOAD_BYTES {
            break TailReason::BadLength { len };
        }
        let expected = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        let frame_len = FRAME_HEADER_BYTES as usize + len as usize;
        if rest.len() < frame_len {
            break TailReason::TornFrame {
                have: rest.len() as u64,
                need: frame_len as u64,
            };
        }
        let payload = &rest[FRAME_HEADER_BYTES as usize..frame_len];
        let got = crc32(payload);
        if got != expected {
            break TailReason::ChecksumMismatch { expected, got };
        }
        let record = match decode_record(payload) {
            Ok(r) => r,
            Err(e) => break TailReason::BadPayload(e.to_string()),
        };
        if let Some(prev) = records.last() {
            if record.seq != prev.seq + 1 {
                break TailReason::SequenceBreak {
                    prev: prev.seq,
                    got: record.seq,
                };
            }
        }
        records.push(record);
        pos += frame_len;
    };
    WalReadOutcome {
        records,
        valid_bytes: pos as u64,
        total_bytes: total,
        reason,
    }
}

/// The append-side handle: owns the open file, the sequence counter and
/// the fsync policy.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    next_seq: u64,
    /// Appends since the last fsync.
    unsynced: u32,
    /// Test hook: `None` unless [`Wal::inject_faults`] set it.
    faults: Option<crate::fault::FsFaultPlan>,
}

impl Wal {
    /// Open (creating if absent) the log for appending. `next_seq` is
    /// the sequence number the next record gets — recovery passes
    /// `last_seq + 1`.
    pub fn open(path: &Path, policy: FsyncPolicy, next_seq: u64) -> std::io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            policy,
            next_seq,
            unsynced: 0,
            faults: None,
        })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The sequence number the next append will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Test hook: install a filesystem fault plan (torn writes).
    #[doc(hidden)]
    pub fn inject_faults(&mut self, plan: crate::fault::FsFaultPlan) {
        self.faults = Some(plan);
    }

    /// Append one operation: frame it, write it, fsync per policy.
    /// The record is on disk (though maybe not yet synced) before the
    /// caller applies the mutation anywhere.
    pub fn append(&mut self, op: WalOp) -> Result<AppendOutcome, DurabilityError> {
        let record = WalRecord {
            seq: self.next_seq,
            op,
        };
        let mut payload = Vec::with_capacity(64);
        encode_record(&record, &mut payload);
        debug_assert!(payload.len() as u64 <= MAX_PAYLOAD_BYTES as u64);
        let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES as usize + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);

        if let Some(plan) = &self.faults {
            if let Some(grant) = plan.take_wal_budget(frame.len()) {
                if grant < frame.len() {
                    // Persist exactly the granted prefix — the bytes a
                    // real crash would have left — then report the
                    // crash. The record was never acked and is not
                    // applied.
                    self.file.write_all(&frame[..grant])?;
                    let _ = self.file.sync_all();
                    return Err(DurabilityError::InjectedCrash);
                }
            }
        }

        self.file.write_all(&frame)?;
        self.next_seq += 1;
        self.unsynced += 1;
        let must_sync = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Interval(n) => self.unsynced >= n.max(1),
        };
        let fsync_latency = if must_sync { self.sync()? } else { None };
        Ok(AppendOutcome {
            seq: record.seq,
            synced: self.unsynced == 0,
            bytes: frame.len() as u64,
            fsync_latency,
        })
    }

    /// Force an fsync of everything appended so far; returns the fsync
    /// wall time when one actually ran.
    pub fn sync(&mut self) -> std::io::Result<Option<Duration>> {
        if self.unsynced == 0 {
            return Ok(None);
        }
        let start = Instant::now();
        self.file.sync_all()?;
        self.unsynced = 0;
        Ok(Some(start.elapsed()))
    }

    /// Truncate the log to empty after a successful snapshot. The
    /// snapshot is already durable at this point, so records up to its
    /// sequence number are redundant; sequence numbering continues
    /// where it left off.
    pub fn reset_after_snapshot(&mut self) -> std::io::Result<()> {
        self.file.set_len(0)?;
        self.file.sync_all()?;
        self.unsynced = 0;
        Ok(())
    }

    /// Repair a torn tail in place: truncate the file to `valid_bytes`
    /// (from a [`read_wal`] scan) so appends continue from a clean
    /// boundary. Returns the bytes cut.
    pub fn repair_tail(path: &Path, valid_bytes: u64) -> std::io::Result<u64> {
        match OpenOptions::new().write(true).open(path) {
            Ok(f) => {
                let len = f.metadata()?.len();
                if len > valid_bytes {
                    f.set_len(valid_bytes)?;
                    f.sync_all()?;
                }
                Ok(len.saturating_sub(valid_bytes))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("csj-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn upsert(handle: u32, user: u64) -> WalOp {
        WalOp::UpsertUser {
            handle,
            user,
            vector: vec![1, 2, 3],
        }
    }

    #[test]
    fn append_then_read_roundtrips() {
        let dir = scratch("roundtrip");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, FsyncPolicy::Always, 1).unwrap();
        for i in 0..5u64 {
            let out = wal.append(upsert(0, i)).unwrap();
            assert_eq!(out.seq, i + 1);
            assert!(out.synced);
        }
        let read = read_wal(&path).unwrap();
        assert_eq!(read.reason, TailReason::CleanEof);
        assert_eq!(read.records.len(), 5);
        assert_eq!(read.valid_bytes, read.total_bytes);
        assert_eq!(read.records[3].seq, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_an_empty_log() {
        let read = read_wal(Path::new("/nonexistent/csj/wal.log")).unwrap();
        assert_eq!(read.records.len(), 0);
        assert_eq!(read.reason, TailReason::CleanEof);
    }

    #[test]
    fn interval_policy_batches_fsyncs() {
        let dir = scratch("interval");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, FsyncPolicy::Interval(3), 1).unwrap();
        let a = wal.append(upsert(0, 1)).unwrap();
        let b = wal.append(upsert(0, 2)).unwrap();
        let c = wal.append(upsert(0, 3)).unwrap();
        assert!(!a.synced && !b.synced, "first two ride the batch");
        assert!(c.synced, "third append hits the interval");
        assert!(c.fsync_latency.is_some());
        let d = wal.append(upsert(0, 4)).unwrap();
        assert!(!d.synced);
        assert!(wal.sync().unwrap().is_some(), "explicit sync flushes");
        assert!(wal.sync().unwrap().is_none(), "nothing left to sync");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_yields_prefix_at_every_byte() {
        let dir = scratch("truncate");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, FsyncPolicy::Always, 1).unwrap();
        let mut boundaries = vec![0u64];
        for i in 0..4u64 {
            let out = wal.append(upsert(0, i)).unwrap();
            boundaries.push(boundaries.last().unwrap() + out.bytes);
        }
        let full = std::fs::read(&path).unwrap();
        for cut in 0..=full.len() {
            let part = scan(&full[..cut]);
            // The prefix property: every cut recovers exactly the
            // records whose frames fit entirely below the cut.
            let want = boundaries
                .iter()
                .filter(|&&b| b > 0 && b <= cut as u64)
                .count();
            assert_eq!(part.records.len(), want, "cut at {cut}");
            assert_eq!(part.valid_bytes, boundaries[want], "cut at {cut}");
            if boundaries.contains(&(cut as u64)) {
                assert_eq!(part.reason, TailReason::CleanEof);
            } else {
                assert!(
                    matches!(part.reason, TailReason::TornFrame { .. }),
                    "cut at {cut}: {:?}",
                    part.reason
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_stops_scan_with_typed_reason() {
        let dir = scratch("flip");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, FsyncPolicy::Always, 1).unwrap();
        let first = wal.append(upsert(0, 1)).unwrap();
        wal.append(upsert(0, 2)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte of the second record.
        let idx = first.bytes as usize + FRAME_HEADER_BYTES as usize + 3;
        bytes[idx] ^= 0x10;
        let read = scan(&bytes);
        assert_eq!(read.records.len(), 1, "prefix before the flip survives");
        assert!(matches!(read.reason, TailReason::ChecksumMismatch { .. }));
        assert_eq!(read.bytes_discarded(), bytes.len() as u64 - first.bytes);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn absurd_length_field_is_bad_length() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_PAYLOAD_BYTES + 1).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[0; 16]);
        let read = scan(&bytes);
        assert!(read.records.is_empty());
        assert!(matches!(read.reason, TailReason::BadLength { .. }));
    }

    #[test]
    fn sequence_break_stops_the_scan() {
        let dir = scratch("seqbreak");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, FsyncPolicy::Always, 1).unwrap();
        wal.append(upsert(0, 1)).unwrap();
        drop(wal);
        // A second writer starting at the wrong sequence simulates a
        // spliced/holed log.
        let mut wal = Wal::open(&path, FsyncPolicy::Always, 7).unwrap();
        wal.append(upsert(0, 2)).unwrap();
        let read = read_wal(&path).unwrap();
        assert_eq!(read.records.len(), 1);
        assert_eq!(read.reason, TailReason::SequenceBreak { prev: 1, got: 7 });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_after_snapshot_empties_the_log() {
        let dir = scratch("reset");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, FsyncPolicy::Always, 1).unwrap();
        wal.append(upsert(0, 1)).unwrap();
        wal.append(WalOp::SnapshotMark).unwrap();
        wal.reset_after_snapshot().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        // Sequence numbering continues.
        let out = wal.append(upsert(0, 2)).unwrap();
        assert_eq!(out.seq, 3);
        let read = read_wal(&path).unwrap();
        assert_eq!(read.records.len(), 1);
        assert_eq!(read.records[0].seq, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repair_tail_truncates_to_valid_prefix() {
        let dir = scratch("repair");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, FsyncPolicy::Always, 1).unwrap();
        wal.append(upsert(0, 1)).unwrap();
        let good = std::fs::metadata(&path).unwrap().len();
        drop(wal);
        // Simulate a torn write: half a frame header dangling.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xAB, 0xCD, 0xEF]).unwrap();
        drop(f);
        let read = read_wal(&path).unwrap();
        assert_eq!(read.valid_bytes, good);
        let cut = Wal::repair_tail(&path, read.valid_bytes).unwrap();
        assert_eq!(cut, 3);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good);
        assert_eq!(read_wal(&path).unwrap().reason, TailReason::CleanEof);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
