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

use csj_core::{CsjMethod, Similarity};
use csj_engine::{CommunityHandle, Coverage, EngineError, ExhaustReason, PairScore};

/// One query against the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Similarity of one pair. `method: None` uses the engine's
    /// configured refine method (cached); an explicit method runs
    /// uncached.
    Similarity {
        /// The queried community.
        x: CommunityHandle,
        /// The other community.
        y: CommunityHandle,
        /// Override method; `None` = engine's refine method.
        method: Option<CsjMethod>,
    },
    /// The `k` communities most similar to `x` (exact scores).
    TopK {
        /// The queried community.
        x: CommunityHandle,
        /// How many neighbours to return.
        k: usize,
    },
    /// Every admissible pair whose exact similarity reaches `threshold`.
    PairsAbove {
        /// Similarity ratio cut in `[0, 1]`.
        threshold: f64,
    },
}

impl Request {
    /// Stable kind label used in traces and metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Similarity { .. } => "similarity",
            Request::TopK { .. } => "top_k",
            Request::PairsAbove { .. } => "pairs_above",
        }
    }

    /// The method this request's *primary* (non-degraded) path runs:
    /// the explicit method for similarity, the engine's refine method
    /// otherwise. This is the method whose breaker gates the request.
    pub fn primary_method(&self, refine_method: CsjMethod) -> CsjMethod {
        match self {
            Request::Similarity {
                method: Some(m), ..
            } => *m,
            _ => refine_method,
        }
    }
}

/// The answer payload, by request kind.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseValue {
    /// Answer to [`Request::Similarity`].
    Similarity(Similarity),
    /// Answer to [`Request::TopK`], best first.
    Ranking(Vec<PairScore>),
    /// Answer to [`Request::PairsAbove`], best first.
    Pairs(Vec<PairScore>),
}

impl ResponseValue {
    /// The ranked pairs, for the two list-shaped kinds.
    pub fn pairs(&self) -> Option<&[PairScore]> {
        match self {
            ResponseValue::Similarity(_) => None,
            ResponseValue::Ranking(p) | ResponseValue::Pairs(p) => Some(p),
        }
    }
}

/// A completed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The answer.
    pub value: ResponseValue,
    /// `true` when an Ex-* request was served by its Ap-* counterpart.
    /// The score is then a **lower bound within a factor of two** of
    /// the exact answer (approximate CSJ never over-counts, and greedy
    /// maximal matchings reach at least half the maximum).
    pub degraded: bool,
    /// What forced the degradation: `"breaker"` or `"deadline"`
    /// (`None` when not degraded).
    pub degrade_trigger: Option<&'static str>,
    /// Why and how the answer was degraded (`None` when not degraded).
    pub degrade_note: Option<String>,
    /// Transparent retry count this request consumed.
    pub retries: u32,
    /// Budget exhaustion the answer absorbed (partial coverage), if any.
    pub exhausted: Option<ExhaustReason>,
    /// Shard completeness report of a multi-pair request served on its
    /// primary path (`None` for similarity requests and degraded
    /// rungs). A partial report
    /// (`coverage.is_partial()`) means the answer is exact on what
    /// survived but one or more shards were lost — such responses are
    /// marked `degraded` with trigger `"coverage"`.
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
    /// The method's circuit breaker is open and degradation is
    /// disabled; retry after the cooldown.
    BreakerOpen {
        /// The gated method.
        method: CsjMethod,
        /// The breaker cooldown remaining estimate.
        retry_after: Duration,
    },
    /// The engine failed the request (unknown handle, join panic, ...).
    Engine(EngineError),
    /// The deadline elapsed before any rung could produce an answer.
    DeadlineExceeded,
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
            ServiceError::BreakerOpen {
                method,
                retry_after,
            } => write!(
                f,
                "circuit breaker open for {}; retry after {retry_after:?}",
                method.name()
            ),
            ServiceError::Engine(e) => write!(f, "engine error: {e}"),
            ServiceError::DeadlineExceeded => write!(f, "deadline exceeded"),
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
    /// Completed on the approximate rung.
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

    #[test]
    fn primary_method_resolution() {
        let refine = CsjMethod::ExMinMax;
        let explicit = Request::Similarity {
            x: CommunityHandle(0),
            y: CommunityHandle(1),
            method: Some(CsjMethod::ApBaseline),
        };
        assert_eq!(explicit.primary_method(refine), CsjMethod::ApBaseline);
        let default = Request::TopK {
            x: CommunityHandle(0),
            k: 3,
        };
        assert_eq!(default.primary_method(refine), refine);
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
