//! The Baseline substrate (Section 5.1): plain nested-loop pairing.
//!
//! One [`baseline`] function drives both consumption modes:
//!
//! * **Ap-Baseline** = Baseline × [`GreedySink`]: the first match
//!   consumes both users; the shared [`PrefixPruner`] keeps the
//!   contiguous prefix of consumed `A` users out of later scans.
//! * **Ex-Baseline** = Baseline × [`CollectSink`]: every match becomes an
//!   edge and the one-to-one matcher (the paper's CSF) runs **once**.
//!
//! [`GreedySink`]: crate::algorithms::kernel::GreedySink
//! [`CollectSink`]: crate::algorithms::kernel::CollectSink

use crate::algorithms::kernel::{
    drive_baseline, drive_baseline_blocked, DriveCtx, PairSink, PrefixPruner,
};
use crate::algorithms::{CsjOptions, JoinInput, RawJoin};

/// The Baseline substrate under `sink`: the nested loop with prefix
/// pruning for a greedy sink, the exact all-pairs scan for a collector.
pub(crate) fn baseline<S: PairSink>(input: &JoinInput, mut sink: S, opts: &CsjOptions) -> RawJoin {
    let view = input.lanes(opts);
    let (nb, na) = (input.b.len(), input.a.len());
    let mut ctx = DriveCtx::new(opts.cancel.as_ref());
    match sink.collector() {
        // The exact scan is unconditional (every row and column is
        // wanted, nothing is consumed mid-scan), so it runs cache-blocked.
        Some(collect) => drive_baseline_blocked(&view, nb, na, &mut ctx, collect),
        None => {
            // Section 5.1: "skip and offset are used similarly to
            // Ap-MinMax for the faster processing of the nested loop
            // join".
            let mut pruner = PrefixPruner::new(opts.offset_pruning);
            drive_baseline(&view, nb, na, &mut pruner, &mut ctx, &mut sink);
        }
    }
    let pairs = sink.finish(&mut ctx);
    ctx.into_raw(pairs)
}

#[cfg(test)]
mod tests {
    use crate::algorithms::{join_unchecked, CsjMethod, CsjOptions};
    use crate::community::Community;

    fn community(name: &str, rows: &[&[u32]]) -> Community {
        let mut c = Community::new(name, rows[0].len());
        for (i, r) in rows.iter().enumerate() {
            c.push(i as u64 + 1, r).unwrap();
        }
        c
    }

    /// The Section 3 worked example: approximate may get 50%, exact 100%.
    #[test]
    fn section3_example() {
        let b = community("B", &[&[3, 4, 2], &[2, 2, 3]]);
        let a = community("A", &[&[2, 3, 5], &[2, 3, 1], &[3, 3, 3]]);
        let opts = CsjOptions::new(1);
        let ap = join_unchecked(CsjMethod::ApBaseline, &b, &a, &opts);
        // b1 greedily takes its first match in scan order (a2 at index 1);
        // b2 can still take a3 -> here greedy happens to find both.
        assert_eq!(ap.pairs.len(), 2);
        let ex = join_unchecked(CsjMethod::ExBaseline, &b, &a, &opts);
        assert_eq!(ex.pairs.len(), 2);
    }

    #[test]
    fn greedy_can_lose_to_exact() {
        // b0 matches a0 and a1; b1 matches only a0. Scan order makes
        // Ap-Baseline give a0 to b0, stranding b1. Ex-Baseline recovers.
        let b = community("B", &[&[5], &[5]]);
        let a = community("A", &[&[5], &[9]]);
        // b0={5} matches a0={5} (eps 0); b1={5} matches a0 only.
        let opts = CsjOptions::new(0);
        let ap = join_unchecked(CsjMethod::ApBaseline, &b, &a, &opts);
        assert_eq!(ap.pairs, vec![(0, 0)]);
        let ex = join_unchecked(CsjMethod::ExBaseline, &b, &a, &opts);
        assert_eq!(ex.pairs.len(), 1); // maximum is still 1 here
    }

    #[test]
    fn approximate_offset_skips_consumed_prefix() {
        // Every b matches a0..a2 in order; after 3 matches the offset
        // should have advanced past all consumed entries.
        let b = community("B", &[&[1], &[1], &[1]]);
        let a = community("A", &[&[1], &[1], &[1]]);
        let opts = CsjOptions::new(0);
        let out = join_unchecked(CsjMethod::ApBaseline, &b, &a, &opts);
        assert_eq!(out.pairs, vec![(0, 0), (1, 1), (2, 2)]);
        assert_eq!(out.telemetry.events.matches, 3);
        // b1 must not re-compare a0 (consumed): only match events + zero
        // no-match events proves the prefix skipping worked.
        assert_eq!(out.telemetry.events.no_match, 0);
        // The kernel saw exactly one candidate per row.
        assert_eq!(out.telemetry.rows_driven, 3);
        assert_eq!(out.telemetry.candidates_streamed, 3);
        assert_eq!(out.telemetry.peak_stream_depth, 1);
    }

    #[test]
    fn exact_counts_all_comparisons() {
        let b = community("B", &[&[0], &[10]]);
        let a = community("A", &[&[0], &[10], &[20]]);
        let opts = CsjOptions::new(1);
        let out = join_unchecked(CsjMethod::ExBaseline, &b, &a, &opts);
        assert_eq!(out.telemetry.events.full_comparisons(), 6);
        assert_eq!(out.telemetry.events.matches, 2);
        assert_eq!(out.pairs.len(), 2);
        // One whole-graph matcher flush over both match edges.
        assert_eq!(out.telemetry.matcher_flushes, 1);
        assert_eq!(out.telemetry.matcher_edges, 2);
    }

    #[test]
    fn empty_b_side() {
        let b = Community::new("B", 2);
        let a = community("A", &[&[1, 1]]);
        let opts = CsjOptions::new(1);
        assert!(join_unchecked(CsjMethod::ApBaseline, &b, &a, &opts)
            .pairs
            .is_empty());
        assert!(join_unchecked(CsjMethod::ExBaseline, &b, &a, &opts)
            .pairs
            .is_empty());
    }

    #[test]
    fn pre_cancelled_token_yields_empty_flagged_result() {
        let b = community("B", &[&[1], &[1], &[1]]);
        let a = community("A", &[&[1], &[1], &[1]]);
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let opts = CsjOptions::new(0).with_cancel(token);
        let ap = join_unchecked(CsjMethod::ApBaseline, &b, &a, &opts);
        assert!(ap.cancelled);
        assert!(ap.pairs.is_empty());
        let ex = join_unchecked(CsjMethod::ExBaseline, &b, &a, &opts);
        assert!(ex.cancelled);
        assert!(ex.pairs.is_empty());
        // Without a token the same inputs run to completion.
        let full = join_unchecked(CsjMethod::ApBaseline, &b, &a, &CsjOptions::new(0));
        assert!(!full.cancelled);
        assert_eq!(full.pairs.len(), 3);
    }

    #[test]
    fn eps_zero_requires_equality() {
        let b = community("B", &[&[1, 2]]);
        let a = community("A", &[&[1, 2], &[1, 3]]);
        let opts = CsjOptions::new(0);
        let out = join_unchecked(CsjMethod::ApBaseline, &b, &a, &opts);
        assert_eq!(out.pairs, vec![(0, 0)]);
    }
}
