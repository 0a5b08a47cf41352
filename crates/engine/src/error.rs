//! Engine error type.

use csj_core::CsjError;

/// Errors returned by [`crate::CsjEngine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The handle does not refer to a registered community.
    UnknownCommunity(u32),
    /// A community with this name is already registered.
    DuplicateName(String),
    /// The community's dimensionality does not match the engine's.
    DimensionMismatch { engine_d: usize, got: usize },
    /// The user id is not present in the community.
    UnknownUser(u64),
    /// The underlying CSJ join rejected the pair (size constraint, ...).
    Csj(CsjError),
    /// The join for this candidate panicked; the panic was caught at the
    /// per-candidate isolation boundary and the rest of the query ran on.
    JoinPanicked { handle: u32, message: String },
    /// An injected fault fired for this handle. Produced only by the
    /// `fault-injection` chaos harness, never in production.
    Faulted { handle: u32 },
    /// The query's budget was exhausted or its token tripped before this
    /// join ran. Internal to budgeted execution — public query APIs
    /// convert it into a [`crate::Partial`] marker, not an error.
    Cancelled,
}

impl From<CsjError> for EngineError {
    fn from(e: CsjError) -> Self {
        EngineError::Csj(e)
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownCommunity(h) => write!(f, "unknown community handle {h}"),
            EngineError::DuplicateName(n) => write!(f, "community name {n:?} already registered"),
            EngineError::DimensionMismatch { engine_d, got } => {
                write!(f, "engine is {engine_d}-dimensional, community has d={got}")
            }
            EngineError::UnknownUser(id) => write!(f, "user id {id} not in community"),
            EngineError::Csj(e) => write!(f, "CSJ error: {e}"),
            EngineError::JoinPanicked { handle, message } => {
                write!(f, "join panicked for community handle {handle}: {message}")
            }
            EngineError::Faulted { handle } => {
                write!(f, "injected fault for community handle {handle}")
            }
            EngineError::Cancelled => write!(f, "query cancelled before this join ran"),
        }
    }
}

impl EngineError {
    /// Whether the error is contained at the per-pair isolation
    /// boundary (a panic or an injected fault): multi-pair queries
    /// report it against that pair and carry on, while any other error
    /// fails the whole query.
    pub(crate) fn is_per_pair(&self) -> bool {
        matches!(
            self,
            EngineError::JoinPanicked { .. } | EngineError::Faulted { .. }
        )
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Csj(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(EngineError::UnknownCommunity(3).to_string().contains('3'));
        assert!(EngineError::DuplicateName("x".into())
            .to_string()
            .contains("\"x\""));
        assert!(EngineError::DimensionMismatch {
            engine_d: 2,
            got: 3
        }
        .to_string()
        .contains("d=3"));
        assert!(EngineError::UnknownUser(9).to_string().contains('9'));
        let wrapped: EngineError = CsjError::SizeConstraint { nb: 1, na: 9 }.into();
        assert!(wrapped.to_string().contains("CSJ error"));
        let panicked = EngineError::JoinPanicked {
            handle: 4,
            message: "boom".into(),
        };
        assert!(panicked.to_string().contains("handle 4"));
        assert!(panicked.to_string().contains("boom"));
        assert!(EngineError::Faulted { handle: 6 }
            .to_string()
            .contains("injected fault"));
        assert!(EngineError::Cancelled.to_string().contains("cancelled"));
    }
}
