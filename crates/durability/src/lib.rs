//! Crash-consistent persistence for the CSJ registry.
//!
//! The engine ([`csj_engine::CsjEngine`]) is an in-memory structure:
//! kill the process and every registered community is gone. This crate
//! adds the durability layer underneath it:
//!
//! - **Write-ahead log** ([`wal`]): every mutation is encoded as a
//!   length-prefixed, CRC32-checksummed, monotonically sequenced frame
//!   and appended (fsynced per [`wal::FsyncPolicy`]) *before* it is
//!   applied in memory.
//! - **Checksummed snapshots** ([`snapshot`]): the full registry,
//!   written atomically (temp + fsync + rename) with a CRC32 footer;
//!   landing one truncates the WAL.
//! - **Torn-write recovery** ([`recover`]): load the newest snapshot
//!   that verifies (skipping damaged ones), replay the WAL tail, and
//!   stop cleanly at the first torn/corrupt frame with a typed
//!   [`RecoveryReport`] — never a panic, never a half-applied record.
//!
//! The invariant the whole crate is built around: **after any crash,
//! recovery yields exactly a prefix of the acked mutation sequence.**
//! An un-fsynced tail may be lost (that is what `synced: false` acks
//! mean); nothing is ever reordered, skipped, or half-applied.
//!
//! [`DurableEngine`] packages the three into a drop-in mutation
//! wrapper; [`atomic::write_atomic`] is the reusable
//! temp-fsync-rename primitive (also used by the CLI and bench
//! writers for their report files).

pub mod atomic;
mod engine;
mod error;
#[cfg(feature = "fault-injection")]
pub mod fault;
mod obs;
pub mod record;
pub mod recover;
pub mod snapshot;
pub mod wal;

pub use engine::{
    fingerprint_engine, DurabilityConfig, DurableAck, DurableEngine, SnapshotOutcome,
};
pub use error::DurabilityError;
pub use recover::{recover_dir, verify_recovery, RecoveryBreach, RecoveryReport, WAL_FILE};
pub use snapshot::{SnapshotEntry, SnapshotImage};
pub use wal::{AppendOutcome, FsyncPolicy, TailReason, WalReadOutcome};
