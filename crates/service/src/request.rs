//! Request/response vocabulary of the service.
//!
//! Every submitted request resolves to **exactly one** of four fates:
//!
//! * answered — `Ok(Response { degraded: false, .. })`
//! * degraded-answered — `Ok(Response { degraded: true, .. })`
//! * shed — `Err(ServiceError::Overloaded { .. })`
//! * failed-typed — any other `Err` variant
//!
//! The invariant tests in `tests/invariants.rs` pin this down.

use std::time::Duration;

use csj_engine::{Coverage, EngineError, ExhaustReason};

pub use csj_engine::{Answer as ResponseValue, Query as Request};

/// A completed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The answer.
    pub value: ResponseValue,
    /// `true` when an Ex-* request was served approximately: a
    /// similarity request by its Ap-* counterpart, top-k and
    /// pairs_above by the engine's screen scores. The score is then a
    /// **lower bound within a factor of two** of the exact answer
    /// (approximate CSJ never over-counts, and greedy maximal matchings
    /// reach at least half the maximum). Also `true`, with trigger
    /// `"coverage"`, when a sharded answer lost shards.
    pub degraded: bool,
    /// What forced the degradation: `"failure"` (the exact pass
    /// panicked or faulted), `"deadline"` or `"coverage"` (`None` when
    /// not degraded).
    pub degrade_trigger: Option<&'static str>,
    /// Why and how the answer was degraded (`None` when not degraded).
    pub degrade_note: Option<String>,
    /// Always 0: the service never retries. Kept because the `perfbench`
    /// package reads it.
    pub retries: u32,
    /// Budget exhaustion the answer absorbed (partial coverage), if any.
    pub exhausted: Option<ExhaustReason>,
    /// Shard completeness report of the pass that answered a
    /// multi-pair request, primary or approximate (`None` for
    /// similarity requests). A partial report (`coverage.is_partial()`)
    /// means the answer holds what the surviving shards scored but
    /// shards were lost or work was skipped. A primary answer with a
    /// partial report and no budget exhaustion is marked `degraded` with
    /// trigger `"coverage"`; a degraded answer keeps its approximate
    /// pass's report.
    pub coverage: Option<Coverage>,
}

/// Typed request failures.
#[derive(Debug)]
pub enum ServiceError {
    /// Shed at admission: the service is saturated. Try again after
    /// roughly `retry_after`.
    Overloaded {
        /// Estimated time until capacity frees up (EWMA service time ×
        /// queue depth / workers).
        retry_after: Duration,
    },
    /// The engine failed the request (unknown handle, join panic, ...).
    Engine(EngineError),
    /// The service shut down before the request could run.
    Shutdown,
    /// A panic escaped the engine's isolation and was contained at the
    /// worker boundary instead (should not happen; kept typed so the
    /// caller still gets exactly one resolution).
    Internal {
        /// The panic message.
        message: String,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded { retry_after } => {
                write!(f, "overloaded; retry after {retry_after:?}")
            }
            ServiceError::Engine(e) => write!(f, "engine error: {e}"),
            ServiceError::Shutdown => write!(f, "service shut down"),
            ServiceError::Internal { message } => write!(f, "internal error: {message}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> Self {
        ServiceError::Engine(e)
    }
}

/// The four fates; used for metrics labels and the resolution invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Completed on the primary (exact) path.
    Answered,
    /// Completed approximately, or with lost shards.
    Degraded,
    /// Rejected at admission.
    Shed,
    /// Failed with a typed error.
    Failed,
}

impl Fate {
    /// Classify a finished request.
    pub fn of(result: &Result<Response, ServiceError>) -> Fate {
        match result {
            Ok(r) if r.degraded => Fate::Degraded,
            Ok(_) => Fate::Answered,
            Err(ServiceError::Overloaded { .. }) => Fate::Shed,
            Err(_) => Fate::Failed,
        }
    }

    /// Stable metrics label.
    pub fn label(self) -> &'static str {
        match self {
            Fate::Answered => "answered",
            Fate::Degraded => "degraded",
            Fate::Shed => "shed",
            Fate::Failed => "failed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csj_core::CsjMethod;
    use csj_engine::CommunityHandle;

    /// Only a request whose primary method is exact degrades, and its
    /// approximate pass runs the primary's counterpart (the screen
    /// method for the multi-pair kinds).
    #[test]
    fn primary_method_resolution() {
        let config = csj_engine::EngineConfig::new(1);
        let (x, y) = (CommunityHandle(0), CommunityHandle(1));
        let explicit = Request::Similarity {
            x,
            y,
            method: Some(CsjMethod::ApBaseline),
        };
        assert!(!explicit.is_exact());
        assert_eq!(explicit.approximate_method(&config), CsjMethod::ApBaseline);
        let default = Request::Similarity { x, y, method: None };
        assert!(default.is_exact());
        assert_eq!(default.approximate_method(&config), CsjMethod::ApMinMax);
        let top_k = Request::TopK { x, k: 3 };
        assert!(top_k.is_exact());
        assert_eq!(top_k.approximate_method(&config), config.screen_method);
    }

    #[test]
    fn fate_classification_is_total() {
        let shed: Result<Response, ServiceError> = Err(ServiceError::Overloaded {
            retry_after: Duration::from_millis(1),
        });
        assert_eq!(Fate::of(&shed), Fate::Shed);
        let failed: Result<Response, ServiceError> = Err(ServiceError::Shutdown);
        assert_eq!(Fate::of(&failed), Fate::Failed);
    }
}
