//! First-class join telemetry.
//!
//! Every join driven through the substrate × sink kernel (see
//! `algorithms::kernel`) fills one [`JoinTelemetry`] block: the classic
//! Section 4 event counters plus the kernel-level observability the old
//! ad-hoc `TraceSink`/`EventCounters` threading could not express —
//! per-row candidate-stream depth, prune-event depth histograms, cancel
//! poll counts and matcher flush statistics. The block is `Copy` so the
//! engine can aggregate it across joins with plain merges and expose the
//! running totals through `EngineStats`.

use crate::events::EventCounters;

/// Number of log2 buckets in a [`LogHistogram`].
pub const HISTOGRAM_BUCKETS: usize = 16;

/// A tiny fixed-size log2 histogram: bucket `k` counts values `v` with
/// `2^(k-1) <= v < 2^k` (bucket 0 counts zeros; bucket 15, the last,
/// is open-ended and absorbs every value `>= 2^14`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl LogHistogram {
    /// Record one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            (64 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        };
        self.buckets[bucket] += 1;
    }

    /// Count in one bucket.
    pub fn bucket(&self, index: usize) -> u64 {
        self.buckets[index]
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&c| c == 0)
    }

    /// Accumulate another histogram.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
    }

    /// Upper bound (exclusive) of a bucket's value range; `None` for the
    /// open-ended last bucket.
    pub fn bucket_limit(index: usize) -> Option<u64> {
        if index + 1 < HISTOGRAM_BUCKETS {
            Some(1u64 << index)
        } else {
            None
        }
    }
}

impl std::fmt::Display for LogHistogram {
    /// Compact sparse rendering: `<1:3 <4:2 ...` (empty buckets elided).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return f.write_str("(empty)");
        }
        let mut first = true;
        for (k, &count) in self.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if !first {
                f.write_str(" ")?;
            }
            first = false;
            match Self::bucket_limit(k) {
                Some(limit) => write!(f, "<{limit}:{count}")?,
                None => write!(f, ">={}:{count}", 1u64 << (HISTOGRAM_BUCKETS - 2))?,
            }
        }
        Ok(())
    }
}

/// Telemetry of one join (or, merged, of many joins) through the shared
/// kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinTelemetry {
    /// The Section 4 pairing events (MIN/MAX PRUNE, NO OVERLAP,
    /// NO MATCH, MATCH).
    pub events: EventCounters,
    /// `B` rows that entered the pairing loop (across all substrates:
    /// nested-loop rows, encoded-buffer rows, EGO leaf rows).
    pub rows_driven: u64,
    /// Candidate `(b, a)` pairs that survived the substrate's cheap
    /// pruning and were streamed to a full judgement (part/range filter
    /// plus d-dimensional comparison).
    pub candidates_streamed: u64,
    /// Largest candidate stream produced by a single `B` row.
    pub peak_stream_depth: u64,
    /// Distribution of candidates streamed per `B` row.
    pub stream_depth_hist: LogHistogram,
    /// Distribution of prune events (MIN + MAX) per `B` row — how early
    /// the substrate's ordering cuts each scan short.
    pub prune_depth_hist: LogHistogram,
    /// Cooperative cancellation polls performed by the kernel.
    pub cancel_polls: u64,
    /// One-to-one matcher invocations (Ex-MinMax segment flushes count
    /// individually; the other exact methods contribute one).
    pub matcher_flushes: u64,
    /// Total edges handed to the matcher across all flushes.
    pub matcher_edges: u64,
    /// Edge count of the largest single flush.
    pub largest_flush_edges: u64,
    /// Compare-lane width in bits the kernel ran on (8/16/32 for the
    /// integer lanes, 0 for SuperEGO's normalised `f32` compare).
    /// Merges as a max: the widest lane any merged join used.
    pub lane_bits: u64,
    /// `A`-side cache tiles swept by the blocked all-pairs scan (0 when
    /// the drive was not tiled). Merges as a max: the most tiles any
    /// merged join swept.
    pub a_tiles: u64,
}

impl JoinTelemetry {
    /// Accumulate another join's telemetry block (engine aggregation).
    pub fn merge(&mut self, other: &JoinTelemetry) {
        self.events.merge(&other.events);
        self.rows_driven += other.rows_driven;
        self.candidates_streamed += other.candidates_streamed;
        self.peak_stream_depth = self.peak_stream_depth.max(other.peak_stream_depth);
        self.stream_depth_hist.merge(&other.stream_depth_hist);
        self.prune_depth_hist.merge(&other.prune_depth_hist);
        self.cancel_polls += other.cancel_polls;
        self.matcher_flushes += other.matcher_flushes;
        self.matcher_edges += other.matcher_edges;
        self.largest_flush_edges = self.largest_flush_edges.max(other.largest_flush_edges);
        self.lane_bits = self.lane_bits.max(other.lane_bits);
        self.a_tiles = self.a_tiles.max(other.a_tiles);
    }

    /// Mean candidates streamed per driven row.
    pub fn mean_stream_depth(&self) -> f64 {
        if self.rows_driven == 0 {
            0.0
        } else {
            self.candidates_streamed as f64 / self.rows_driven as f64
        }
    }

    /// Multi-line human-readable report (the `csj explain` body).
    /// Convenience wrapper over the [`std::fmt::Display`] impl.
    pub fn report(&self) -> String {
        self.to_string()
    }
}

impl std::fmt::Display for JoinTelemetry {
    /// The `csj explain` / `csj trace` body: one line per section,
    /// trailing newline included so callers can append further blocks.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "events: {}", self.events)?;
        writeln!(
            f,
            "rows driven: {} | candidates streamed: {} (mean {:.2}/row, peak {})",
            self.rows_driven,
            self.candidates_streamed,
            self.mean_stream_depth(),
            self.peak_stream_depth
        )?;
        writeln!(f, "stream depth per row: {}", self.stream_depth_hist)?;
        writeln!(f, "prune events per row: {}", self.prune_depth_hist)?;
        writeln!(
            f,
            "matcher: {} flushes, {} edges (largest flush {})",
            self.matcher_flushes, self.matcher_edges, self.largest_flush_edges
        )?;
        let lane = match self.lane_bits {
            0 => "f32".to_string(),
            bits => format!("u{bits} lanes"),
        };
        writeln!(f, "encoding: {lane}, {} a-tiles", self.a_tiles)?;
        writeln!(f, "cancel polls: {}", self.cancel_polls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Event;

    #[test]
    fn histogram_buckets_values_by_log2() {
        let mut h = LogHistogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(4);
        h.record(1 << 20); // beyond the last bounded bucket
        assert_eq!(h.bucket(0), 1); // zero
        assert_eq!(h.bucket(1), 1); // 1
        assert_eq!(h.bucket(2), 2); // 2, 3
        assert_eq!(h.bucket(3), 1); // 4
        assert_eq!(h.bucket(HISTOGRAM_BUCKETS - 1), 1);
        assert_eq!(h.count(), 6);
        assert!(!h.is_empty());
    }

    #[test]
    fn histogram_bucket_edges_are_pinned() {
        // Pin the exact bucket for each documented edge: zeros land in
        // bucket 0, 1 in bucket 1, 2^14 - 1 is the last value of the
        // bounded range (bucket 14), and everything >= 2^14 — up to and
        // including u64::MAX — lands in the open bucket 15.
        let edges = [
            (0u64, 0usize),
            (1, 1),
            ((1 << 14) - 1, 14),
            (1 << 14, HISTOGRAM_BUCKETS - 1),
            (u64::MAX, HISTOGRAM_BUCKETS - 1),
        ];
        for (value, expected) in edges {
            let mut h = LogHistogram::default();
            h.record(value);
            assert_eq!(
                h.bucket(expected),
                1,
                "value {value} should land in bucket {expected}"
            );
            assert_eq!(h.count(), 1);
        }
        // And the bucket_limit view agrees: bucket 14 is bounded by
        // 2^14 (exclusive), bucket 15 is open-ended.
        assert_eq!(LogHistogram::bucket_limit(14), Some(1 << 14));
        assert_eq!(LogHistogram::bucket_limit(HISTOGRAM_BUCKETS - 1), None);
    }

    #[test]
    fn telemetry_display_matches_report() {
        let mut t = JoinTelemetry {
            rows_driven: 3,
            candidates_streamed: 9,
            ..Default::default()
        };
        t.events.record(Event::Match);
        assert_eq!(t.report(), format!("{t}"));
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = LogHistogram::default();
        a.record(5);
        let mut b = LogHistogram::default();
        b.record(5);
        b.record(0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.bucket(3), 2);
    }

    #[test]
    fn histogram_display_elides_empty_buckets() {
        let empty = LogHistogram::default();
        assert_eq!(empty.to_string(), "(empty)");
        let mut h = LogHistogram::default();
        h.record(1);
        h.record(6);
        let s = h.to_string();
        assert!(s.contains("<2:1"), "{s}");
        assert!(s.contains("<8:1"), "{s}");
    }

    #[test]
    fn telemetry_merge_sums_and_maxes() {
        let mut a = JoinTelemetry {
            rows_driven: 2,
            candidates_streamed: 10,
            peak_stream_depth: 7,
            cancel_polls: 3,
            matcher_flushes: 1,
            matcher_edges: 4,
            largest_flush_edges: 4,
            ..Default::default()
        };
        a.events.record(Event::Match);
        let mut b = a;
        b.peak_stream_depth = 5;
        b.largest_flush_edges = 9;
        a.merge(&b);
        assert_eq!(a.rows_driven, 4);
        assert_eq!(a.candidates_streamed, 20);
        assert_eq!(a.peak_stream_depth, 7, "peak is a max, not a sum");
        assert_eq!(a.largest_flush_edges, 9);
        assert_eq!(a.cancel_polls, 6);
        assert_eq!(a.events.matches, 2);
    }

    #[test]
    fn mean_stream_depth_handles_zero_rows() {
        assert_eq!(JoinTelemetry::default().mean_stream_depth(), 0.0);
    }

    #[test]
    fn report_mentions_every_section() {
        let t = JoinTelemetry::default();
        let r = t.report();
        for key in [
            "events:",
            "rows driven:",
            "stream depth",
            "prune events",
            "matcher:",
            "encoding:",
            "cancel polls:",
        ] {
            assert!(r.contains(key), "missing {key} in {r}");
        }
    }
}
