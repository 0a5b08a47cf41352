//! Checksummed full-registry snapshots.
//!
//! File layout (little-endian):
//!
//! ```text
//! magic    "CSJS"     4 bytes
//! version  u16        currently 1
//! last_seq u64        WAL sequence number the image includes
//! count    u32        registry entries
//! entries  count ×    entry_version u64 | community wire form
//! crc32    u32        CRC32 of every byte above
//! ```
//!
//! Snapshots are written atomically (temp + fsync + rename + directory
//! fsync) to `snapshot-<seq>.csjs`; a crash mid-write leaves at worst a
//! temp file recovery ignores. Readers verify the footer before
//! trusting a byte, and [`latest_valid_snapshot`] skips damaged files
//! (reporting them) rather than aborting — an older good snapshot plus
//! a longer WAL replay beats no recovery at all.

use std::path::{Path, PathBuf};

use csj_core::checksum::crc32;
use csj_core::Community;

use crate::atomic::write_atomic;
use crate::error::DurabilityError;
use crate::record::{decode_community, encode_community, Cursor};

const MAGIC: &[u8; 4] = b"CSJS";
const VERSION: u16 = 1;

/// One registry entry in an image: the community plus its engine
/// version (mutations since registration), so cache-freshness semantics
/// survive recovery bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEntry {
    /// The community, in handle order.
    pub community: Community,
    /// The engine's per-entry mutation version.
    pub version: u64,
}

/// A decoded snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotImage {
    /// The WAL sequence number the image is current through: replay
    /// applies only records with `seq > last_seq`.
    pub last_seq: u64,
    /// Registry entries in handle order.
    pub entries: Vec<SnapshotEntry>,
}

/// The path a snapshot at `seq` lives at. Zero-padded so lexicographic
/// and numeric order agree.
pub fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snapshot-{seq:020}.csjs"))
}

/// Serialize and atomically persist `image`; returns the path written.
pub fn write_snapshot(dir: &Path, image: &SnapshotImage) -> Result<PathBuf, DurabilityError> {
    write_snapshot_inner(dir, image, false)
}

/// As [`write_snapshot`]; `fail_rename` (a test hook's flag) leaves the
/// temp file behind and reports an injected crash instead of renaming.
pub(crate) fn write_snapshot_inner(
    dir: &Path,
    image: &SnapshotImage,
    fail_rename: bool,
) -> Result<PathBuf, DurabilityError> {
    let mut bytes = Vec::with_capacity(256);
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    bytes.extend_from_slice(&image.last_seq.to_le_bytes());
    bytes.extend_from_slice(&(image.entries.len() as u32).to_le_bytes());
    for entry in &image.entries {
        bytes.extend_from_slice(&entry.version.to_le_bytes());
        encode_community(&entry.community, &mut bytes);
    }
    bytes.extend_from_slice(&crc32(&bytes).to_le_bytes());

    let path = snapshot_path(dir, image.last_seq);
    if fail_rename {
        // Model the crash window between temp write and rename: the
        // temp file exists (and is even synced), the final name never
        // appears. Leave exactly that state behind.
        let tmp = path.with_extension("csjs.tmp.injected");
        std::fs::write(&tmp, &bytes)?;
        return Err(DurabilityError::InjectedCrash);
    }
    write_atomic(&path, &bytes)?;
    Ok(path)
}

/// Decode and verify one snapshot file.
pub fn read_snapshot(path: &Path) -> Result<SnapshotImage, DurabilityError> {
    let corrupt = |reason: String| DurabilityError::Corrupt {
        context: format!("snapshot {}", path.display()),
        reason,
    };
    let bytes = std::fs::read(path)?;
    if bytes.len() < MAGIC.len() + 2 + 8 + 4 + 4 {
        return Err(corrupt("file shorter than header + footer".into()));
    }
    let (body, footer) = bytes.split_at(bytes.len() - 4);
    let expected = u32::from_le_bytes(footer.try_into().unwrap());
    let got = crc32(body);
    if expected != got {
        return Err(corrupt(format!(
            "checksum mismatch: footer {expected:#010x}, contents {got:#010x}"
        )));
    }
    let mut c = Cursor::new(body);
    if c.bytes(4).map_err(|e| corrupt(e.to_string()))? != MAGIC {
        return Err(corrupt("bad magic (not a CSJS file)".into()));
    }
    let version = c.u16().map_err(|e| corrupt(e.to_string()))?;
    if version != VERSION {
        return Err(corrupt(format!("unsupported version {version}")));
    }
    let last_seq = c.u64().map_err(|e| corrupt(e.to_string()))?;
    let count = c.u32().map_err(|e| corrupt(e.to_string()))? as usize;
    let mut entries = Vec::with_capacity(count.min(Cursor::MAX_PREALLOC));
    for _ in 0..count {
        let version = c.u64().map_err(|e| corrupt(e.to_string()))?;
        let community = decode_community(&mut c).map_err(|e| corrupt(e.to_string()))?;
        entries.push(SnapshotEntry { community, version });
    }
    if !c.is_empty() {
        return Err(corrupt(format!(
            "{} spare bytes after entries",
            c.remaining()
        )));
    }
    Ok(SnapshotImage { last_seq, entries })
}

/// A snapshot file recovery skipped, and why.
#[derive(Debug)]
pub struct SkippedSnapshot {
    /// The damaged file.
    pub path: PathBuf,
    /// What was wrong with it.
    pub reason: String,
}

/// Result of a snapshot directory scan: the newest verifying snapshot
/// (if any), plus every file skipped as damaged.
pub type SnapshotScan = (Option<(PathBuf, SnapshotImage)>, Vec<SkippedSnapshot>);

/// Scan `dir` for snapshot files and return the highest-sequence one
/// that verifies, plus every file skipped as damaged. Temp droppings
/// (`*.tmp.*`) are ignored entirely — they are expected crash residue.
pub fn latest_valid_snapshot(dir: &Path) -> std::io::Result<SnapshotScan> {
    let mut candidates: Vec<PathBuf> = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok((None, Vec::new()));
        }
        Err(e) => return Err(e),
    };
    for entry in entries {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("snapshot-") && name.ends_with(".csjs") {
            candidates.push(path);
        }
    }
    // Highest sequence first (zero-padded names sort numerically).
    candidates.sort();
    candidates.reverse();
    let mut skipped = Vec::new();
    for path in candidates {
        match read_snapshot(&path) {
            Ok(image) => return Ok((Some((path, image)), skipped)),
            Err(e) => skipped.push(SkippedSnapshot {
                path,
                reason: e.to_string(),
            }),
        }
    }
    Ok((None, skipped))
}

/// Delete snapshot files other than the `keep` highest-sequence ones.
/// Old snapshots are pure redundancy once a newer one verifies, but
/// keeping one spare means a single damaged file never strands the
/// registry.
pub fn prune_snapshots(dir: &Path, keep: usize) -> std::io::Result<usize> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("snapshot-") && name.ends_with(".csjs")
        })
        .collect();
    files.sort();
    files.reverse();
    let mut removed = 0;
    for path in files.into_iter().skip(keep) {
        std::fs::remove_file(path)?;
        removed += 1;
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("csj-snap-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn image(last_seq: u64) -> SnapshotImage {
        SnapshotImage {
            last_seq,
            entries: vec![
                SnapshotEntry {
                    community: Community::from_rows(
                        "a",
                        2,
                        vec![(1u64, vec![1u32, 2]), (2, vec![3, 4])],
                    )
                    .unwrap(),
                    version: 5,
                },
                SnapshotEntry {
                    community: Community::new("empty", 2),
                    version: 0,
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let dir = scratch("roundtrip");
        let path = write_snapshot(&dir, &image(42)).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), image(42));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_anywhere_is_detected() {
        let dir = scratch("flip");
        let path = write_snapshot(&dir, &image(1)).unwrap();
        let clean = std::fs::read(&path).unwrap();
        for byte in 0..clean.len() {
            let mut damaged = clean.clone();
            damaged[byte] ^= 0x01;
            std::fs::write(&path, &damaged).unwrap();
            assert!(
                read_snapshot(&path).is_err(),
                "flip at byte {byte} undetected"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_is_detected() {
        let dir = scratch("trunc");
        let path = write_snapshot(&dir, &image(1)).unwrap();
        let clean = std::fs::read(&path).unwrap();
        for cut in 0..clean.len() {
            std::fs::write(&path, &clean[..cut]).unwrap();
            assert!(read_snapshot(&path).is_err(), "cut at {cut} accepted");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_valid_skips_damaged_newer_snapshots() {
        let dir = scratch("latest");
        write_snapshot(&dir, &image(5)).unwrap();
        let newer = write_snapshot(&dir, &image(9)).unwrap();
        // Damage the newer one; scan must fall back to seq 5.
        let mut bytes = std::fs::read(&newer).unwrap();
        let len = bytes.len();
        bytes[len / 2] ^= 0xFF;
        std::fs::write(&newer, &bytes).unwrap();
        let (found, skipped) = latest_valid_snapshot(&dir).unwrap();
        let (_, found) = found.unwrap();
        assert_eq!(found.last_seq, 5);
        assert_eq!(skipped.len(), 1);
        assert!(skipped[0].reason.contains("checksum"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_or_missing_dir_is_no_snapshot() {
        let dir = scratch("empty");
        assert!(latest_valid_snapshot(&dir).unwrap().0.is_none());
        assert!(latest_valid_snapshot(&dir.join("missing"))
            .unwrap()
            .0
            .is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_keeps_newest() {
        let dir = scratch("prune");
        for seq in [1, 2, 3, 4] {
            write_snapshot(&dir, &image(seq)).unwrap();
        }
        assert_eq!(prune_snapshots(&dir, 2).unwrap(), 2);
        let (found, _) = latest_valid_snapshot(&dir).unwrap();
        assert_eq!(found.unwrap().1.last_seq, 4);
        assert!(!snapshot_path(&dir, 1).exists());
        assert!(snapshot_path(&dir, 3).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
