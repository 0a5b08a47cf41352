//! Service tuning knobs: worker pool and admission queue sizing and the
//! request deadline. Degradation has no knobs: it is always on, and
//! always serves the approximate counterpart.

use std::time::Duration;

/// Top-level service configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Worker threads draining the admission queue. Each worker runs one
    /// query at a time, so this is also the concurrency cap.
    pub workers: usize,
    /// Admission queue capacity. A submit that finds the queue full is
    /// *shed* immediately with [`ServiceError::Overloaded`] instead of
    /// blocking the caller.
    ///
    /// [`ServiceError::Overloaded`]: crate::ServiceError::Overloaded
    pub queue_capacity: usize,
    /// Wall-clock deadline applied to every request (measured from
    /// submission, so time spent queued counts). `None` means requests
    /// run unbounded.
    pub default_deadline: Option<Duration>,
    /// Flight-recorder depth for service-level request traces.
    pub flight_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 64,
            default_deadline: None,
            flight_capacity: 128,
        }
    }
}

impl ServiceConfig {
    /// Normalise degenerate values (zero workers/capacity) to 1.
    pub(crate) fn sanitized(mut self) -> Self {
        self.workers = self.workers.max(1);
        self.queue_capacity = self.queue_capacity.max(1);
        self.flight_capacity = self.flight_capacity.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_clamps_zeroes() {
        let c = ServiceConfig {
            workers: 0,
            queue_capacity: 0,
            flight_capacity: 0,
            ..ServiceConfig::default()
        }
        .sanitized();
        assert_eq!(c.workers, 1);
        assert_eq!(c.queue_capacity, 1);
        assert_eq!(c.flight_capacity, 1);
    }
}
