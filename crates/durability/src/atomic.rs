//! Crash-safe whole-file replacement: temp file + fsync + atomic rename
//! (+ parent-directory fsync), so a reader never observes a
//! half-written file — it sees the old contents or the new, nothing in
//! between.
//!
//! Used by the snapshot store and by every CLI/bench artifact writer
//! (`--metrics-out`, report tables): a crash mid-report must
//! not shred the previous good copy with a truncated one.

use std::fs::File;
use std::io::Write;
use std::path::Path;

/// Atomically replace `path` with `bytes`.
///
/// The temp file lives in `path`'s own directory (renames are only
/// atomic within a filesystem) and carries the pid so concurrent
/// writers of different files never collide. The parent-directory
/// fsync pins the rename itself; on filesystems that refuse directory
/// fsync the result is intentionally ignored — the data fsync already
/// happened, and the rename is still atomic.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other("write_atomic: path has no file name"))?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(file_name);
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };

    let result = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        if let Some(d) = dir {
            let _ = File::open(d).and_then(|h| h.sync_all());
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("csj-atomic-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_and_replaces() {
        let dir = scratch("replace");
        let path = dir.join("out.json");
        write_atomic(&path, b"v1").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"v1");
        write_atomic(&path, b"v2 is longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"v2 is longer");
        // No temp droppings left behind.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failure_cleans_up_temp() {
        let dir = scratch("fail");
        // Target "directory/" cannot be created as a file: rename fails.
        let path = dir.join("sub");
        std::fs::create_dir(&path).unwrap();
        assert!(write_atomic(&path, b"x").is_err());
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            1,
            "temp file removed on failure"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
