//! # csj-service — overload-safe serving of CSJ queries
//!
//! The engine answers one query correctly; this crate keeps a *stream*
//! of queries from taking the system down. The paper's online scenarios
//! (partner search, broadcast recommendation) imply a service under
//! open-loop load, and an overloaded exact-CSJ service has a uniquely
//! good escape hatch the paper itself supplies: every Ex-* method has
//! an Ap-* counterpart whose score is a **sound lower bound within a
//! factor of two** (approximate CSJ never over-counts; greedy maximal
//! matching reaches at least half the maximum). Degrading under
//! pressure is therefore not a lie to the caller — it is a documented,
//! bounded approximation.
//!
//! A [`Request`] is the engine's [`Query`](csj_engine::Query) and a
//! [`ResponseValue`] its [`Answer`](csj_engine::Answer): the service adds
//! admission, deadlines and degradation around one
//! [`CsjEngine::query`](csj_engine::CsjEngine::query) call per pass.
//!
//! The pieces, each its own module:
//!
//! * [`BoundedQueue`] — admission control: a full queue sheds instantly
//!   with [`ServiceError::Overloaded`] and a `retry_after` hint.
//! * [`CsjService`] — the worker pool tying it together; every request
//!   resolves to exactly one of {answered, degraded-answered, shed,
//!   failed-typed}, and no panic escapes. A request degrades (deadline
//!   pressure, an exact pass that ran out of its deadline share, or an
//!   exact pass that panicked or faulted) to exactly one pass of its
//!   query's approximate form; nothing is retried.
//! * [`ServiceObs`] — `csj_service_*` metrics plus a request-level
//!   flight recorder; merged with the engine's snapshot by
//!   [`CsjService::metrics_snapshot`].

mod config;
mod obs;
mod queue;
mod request;
mod service;

pub use config::ServiceConfig;
pub use obs::{service_slos, DegradeTrigger, ServiceObs};
pub use queue::{BoundedQueue, PushError};
pub use request::{Fate, Request, Response, ResponseValue, ServiceError};
pub use service::{CsjService, Ticket};
