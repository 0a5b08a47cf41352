//! Durability metrics, following the `ServiceObs` pattern: the
//! durability layer owns its own registry, and
//! [`crate::DurableEngine::metrics_snapshot`] merges it with the
//! engine's `csj_*` series for one exposition.

use std::sync::Arc;
use std::time::Duration;

use csj_obs::{Counter, LatencyHistogram, MetricsRegistry, MetricsSnapshot};

pub(crate) struct DurabilityObs {
    registry: MetricsRegistry,
    appends: Arc<Counter>,
    wal_bytes: Arc<Counter>,
    fsyncs: Arc<Counter>,
    fsync_latency: Arc<LatencyHistogram>,
    snapshots_written: Arc<Counter>,
    recovery_replayed: Arc<Counter>,
    recovery_discarded: Arc<Counter>,
}

impl DurabilityObs {
    pub(crate) fn new() -> Self {
        use csj_obs::catalog::*;
        let r = MetricsRegistry::new();
        Self {
            appends: r.register(&WAL_APPENDS, []),
            wal_bytes: r.register(&WAL_BYTES, []),
            fsyncs: r.register(&WAL_FSYNCS, []),
            fsync_latency: r.register(&WAL_FSYNC_LATENCY, []),
            snapshots_written: r.register(&SNAPSHOTS_WRITTEN, []),
            recovery_replayed: r.register(&RECOVERY_REPLAYED, []),
            recovery_discarded: r.register(&RECOVERY_DISCARDED, []),
            registry: r,
        }
    }

    pub(crate) fn on_append(&self, bytes: u64, fsync_latency: Option<Duration>) {
        self.appends.inc();
        self.wal_bytes.add(bytes);
        self.on_sync(fsync_latency);
    }

    pub(crate) fn on_sync(&self, fsync_latency: Option<Duration>) {
        if let Some(elapsed) = fsync_latency {
            self.fsyncs.inc();
            self.fsync_latency.observe(elapsed);
        }
    }

    pub(crate) fn on_snapshot(&self) {
        self.snapshots_written.inc();
    }

    pub(crate) fn on_recovery(&self, replayed: u64, discarded_bytes: u64) {
        self.recovery_replayed.add(replayed);
        self.recovery_discarded.add(discarded_bytes);
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_export() {
        let obs = DurabilityObs::new();
        obs.on_append(100, Some(Duration::from_micros(50)));
        obs.on_append(20, None);
        obs.on_snapshot();
        obs.on_recovery(7, 13);
        let snap = obs.snapshot();
        assert_eq!(snap.counter_value("csj_wal_appends_total", &[]), 2);
        assert_eq!(snap.counter_value("csj_wal_bytes_total", &[]), 120);
        assert_eq!(snap.counter_value("csj_wal_fsyncs_total", &[]), 1);
        assert_eq!(snap.counter_value("csj_recovery_replayed_total", &[]), 7);
        assert_eq!(snap.counter_value("csj_recovery_discarded_total", &[]), 13);
        let prom = snap.to_prometheus();
        assert!(prom.contains("csj_wal_fsync_latency_seconds_bucket"));
        assert!(prom.contains("csj_snapshots_written_total 1"));
    }
}
