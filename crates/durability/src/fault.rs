//! Deterministic filesystem fault injection for crash-testing the
//! durability layer — the disk-side sibling of
//! `csj_engine::fault::FaultPlan`.
//!
//! A test hook, always compiled and inert until a test installs a plan
//! with `DurableEngine::inject_fs_faults`. A [`FsFaultPlan`] makes the
//! WAL writer tear a write at an exact byte offset (what a power cut
//! mid-`write(2)` leaves behind) and makes the snapshot store fail its
//! atomic rename (what a crash between temp write and rename leaves
//! behind). Corruption helpers ([`flip_bit`],
//! [`shear_tail`]) damage files after the fact, the way bit rot and
//! lost tail pages do.
//!
//! ```no_run
//! # use csj_durability::fault::FsFaultPlan;
//! let plan = FsFaultPlan::new().crash_after_wal_bytes(13);
//! // the next WAL append writes exactly 13 more bytes, then "crashes"
//! ```

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Which filesystem faults to inject. Budgets are `Arc`-shared across
/// clones, so installing a plan into a [`crate::DurableEngine`] does
/// not reset them — mirrors the engine's `FaultPlan` idiom.
#[derive(Debug, Clone, Default)]
pub struct FsFaultPlan {
    /// Remaining bytes the WAL may durably write before the injected
    /// crash; `None` = unlimited.
    wal_byte_budget: Option<Arc<AtomicU64>>,
    /// Fail the next snapshot rename (temp file is left behind, the way
    /// a crash between write and rename would leave it).
    rename_fails: Option<Arc<AtomicBool>>,
}

impl FsFaultPlan {
    /// An empty plan: no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Let the WAL write exactly `n` more bytes, then tear the write in
    /// progress: the append that exhausts the budget persists only its
    /// first remaining-budget bytes and reports
    /// [`crate::DurabilityError::InjectedCrash`]. Choosing `n` inside a
    /// frame produces a torn record; on a frame boundary, a clean
    /// prefix — both are legal crash outcomes recovery must absorb.
    pub fn crash_after_wal_bytes(mut self, n: u64) -> Self {
        self.wal_byte_budget = Some(Arc::new(AtomicU64::new(n)));
        self
    }

    /// Fail the next snapshot rename with an injected I/O error.
    pub fn fail_next_snapshot_rename(mut self) -> Self {
        self.rename_fails = Some(Arc::new(AtomicBool::new(true)));
        self
    }

    /// How many of `want` bytes the WAL may write; `None` = all of
    /// them, no budget installed. Draining the budget to (or past) zero
    /// is the injected crash.
    pub(crate) fn take_wal_budget(&self, want: usize) -> Option<usize> {
        let budget = self.wal_byte_budget.as_ref()?;
        let mut left = budget.load(Ordering::Relaxed);
        loop {
            let grant = (want as u64).min(left);
            match budget.compare_exchange_weak(
                left,
                left - grant,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(grant as usize),
                Err(now) => left = now,
            }
        }
    }

    /// Whether the pending snapshot rename should fail (one-shot).
    pub(crate) fn rename_should_fail(&self) -> bool {
        self.rename_fails
            .as_ref()
            .map(|f| f.swap(false, Ordering::Relaxed))
            .unwrap_or(false)
    }
}

/// Flip one bit of a file in place — post-hoc bit rot for recovery
/// tests.
pub fn flip_bit(path: &Path, byte: u64, bit: u8) -> std::io::Result<()> {
    use std::io::{Read, Seek, SeekFrom, Write};
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)?;
    f.seek(SeekFrom::Start(byte))?;
    let mut b = [0u8; 1];
    f.read_exact(&mut b)?;
    b[0] ^= 1 << (bit % 8);
    f.seek(SeekFrom::Start(byte))?;
    f.write_all(&b)?;
    Ok(())
}

/// Drop the last `n` bytes of a file — the lost tail page of a crash.
pub fn shear_tail(path: &Path, n: u64) -> std::io::Result<()> {
    let len = std::fs::metadata(path)?.len();
    let f = std::fs::OpenOptions::new().write(true).open(path)?;
    f.set_len(len.saturating_sub(n))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_grants_everything() {
        let plan = FsFaultPlan::new();
        assert_eq!(plan.take_wal_budget(100), None);
        assert!(!plan.rename_should_fail());
    }

    #[test]
    fn byte_budget_tears_and_is_shared_across_clones() {
        let plan = FsFaultPlan::new().crash_after_wal_bytes(10);
        let installed = plan.clone();
        assert_eq!(installed.take_wal_budget(6), Some(6));
        assert_eq!(plan.take_wal_budget(6), Some(4), "clones share the budget");
        assert_eq!(installed.take_wal_budget(6), Some(0), "budget exhausted");
    }

    #[test]
    fn rename_failure_is_one_shot() {
        let plan = FsFaultPlan::new().fail_next_snapshot_rename();
        assert!(plan.rename_should_fail());
        assert!(!plan.rename_should_fail(), "second rename proceeds");
    }

    #[test]
    fn corruption_helpers_edit_in_place() {
        let dir = std::env::temp_dir().join(format!("csj-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("victim.bin");
        std::fs::write(&path, [0u8; 8]).unwrap();
        flip_bit(&path, 3, 2).unwrap();
        assert_eq!(std::fs::read(&path).unwrap()[3], 4);
        shear_tail(&path, 5).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
