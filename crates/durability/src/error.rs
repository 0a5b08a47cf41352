//! Durability error type.

use csj_engine::EngineError;

/// Errors returned by the durability layer.
#[derive(Debug)]
pub enum DurabilityError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// A pre-validated mutation was rejected by the engine. Reaching
    /// this after WAL append means log and registry disagree — the
    /// record stays in the log, the error says why it did not apply.
    Engine(EngineError),
    /// A snapshot or WAL structure is damaged beyond the torn-tail
    /// handling recovery performs silently (e.g. every snapshot in the
    /// directory fails its checksum, or a record decoded but cannot
    /// re-apply).
    Corrupt {
        /// What was being read.
        context: String,
        /// Why it was rejected.
        reason: String,
    },
    /// Replaying a structurally valid WAL record failed against the
    /// recovered registry: the log and the snapshot disagree about
    /// state (wrong directory pairing, or a bug). Recovery stops hard
    /// rather than guessing.
    ReplayMismatch {
        /// Sequence number of the record that failed to apply.
        seq: u64,
        /// The engine's rejection.
        source: EngineError,
    },
    /// An injected filesystem fault fired (torn write, rename failure).
    /// Produced only by the test hook `DurableEngine::inject_fs_faults`,
    /// never in production. The write that triggered it is torn exactly
    /// the way a real crash would tear it.
    InjectedCrash,
}

impl From<std::io::Error> for DurabilityError {
    fn from(e: std::io::Error) -> Self {
        DurabilityError::Io(e)
    }
}

impl From<EngineError> for DurabilityError {
    fn from(e: EngineError) -> Self {
        DurabilityError::Engine(e)
    }
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::Io(e) => write!(f, "I/O error: {e}"),
            DurabilityError::Engine(e) => write!(f, "engine rejected mutation: {e}"),
            DurabilityError::Corrupt { context, reason } => {
                write!(f, "corrupt {context}: {reason}")
            }
            DurabilityError::ReplayMismatch { seq, source } => {
                write!(f, "WAL record seq {seq} failed to re-apply: {source}")
            }
            DurabilityError::InjectedCrash => write!(f, "injected filesystem fault (torn write)"),
        }
    }
}

impl std::error::Error for DurabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurabilityError::Io(e) => Some(e),
            DurabilityError::Engine(e) | DurabilityError::ReplayMismatch { source: e, .. } => {
                Some(e)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(DurabilityError::from(std::io::Error::other("disk gone"))
            .to_string()
            .contains("disk gone"));
        assert!(DurabilityError::from(EngineError::UnknownCommunity(7))
            .to_string()
            .contains("handle 7"),);
        let c = DurabilityError::Corrupt {
            context: "snapshot x".into(),
            reason: "bad magic".into(),
        };
        assert!(c.to_string().contains("snapshot x"));
        let r = DurabilityError::ReplayMismatch {
            seq: 12,
            source: EngineError::UnknownUser(5),
        };
        assert!(r.to_string().contains("seq 12"));
        assert!(DurabilityError::InjectedCrash.to_string().contains("torn"));
    }
}
