//! The MinMax substrate (Section 4): the paper's main contribution.
//!
//! Both algorithms first build the encoded buffers `Encd_B` (ascending
//! `encoded_ID`) and `Encd_A` (ascending `encoded_Min`) and then run one
//! pruned double loop — [`drive_minmax`] — whose consumption mode is a
//! [`PairSink`]:
//!
//! * **MIN PRUNE** — `eB.encd_ID < eA.encd_Min`: since `Encd_A` is sorted
//!   by `encd_Min`, the current `b` cannot match this or any later `a`;
//!   move to the next `b`.
//! * **MAX PRUNE** — `eB.encd_ID > eA.encd_Max` while the scan is still
//!   inside the untouched prefix: since `Encd_B` is sorted by `encd_ID`,
//!   this `a` can never match a later `b` either, so the shared
//!   [`PrefixPruner`] folds it into the global offset. (The prefix is
//!   broken by the first comparison of the scan — even a part/range
//!   comparison — because the offset may only swallow a *contiguous*
//!   prefix.)
//! * **NO OVERLAP** — some part sum of `b` falls outside the matching
//!   range of `a`: skip the d-dimensional comparison.
//! * **NO MATCH / MATCH** — result of the full d-dimensional comparison.
//!
//! **Ap-MinMax** = MinMax × [`GreedySink`]: the first MATCH consumes both
//! users. **Ex-MinMax** = MinMax × segmented [`CollectSink`]: every match
//! of the current `b` becomes an edge, the sink maintains `maxV` (the
//! largest `encoded_Max` among matched `a`s of the running segment) and,
//! whenever the next `b`'s `encoded_ID` exceeds `maxV`, flushes the
//! segment through the one-to-one matcher (CSF by default) — safe because
//! no future `b` can reach any matched `a` of the segment (their
//! `encoded_Max` values are all `<= maxV`), and no past `b` can reach any
//! future `a` (they were MIN-pruned). Segment connected components
//! therefore never straddle a flush boundary, which is also
//! property-tested against whole-graph matching.
//!
//! The drive judges candidates through a [`MinMaxOracle`] so the unit
//! tests can replay the exact executions of Figures 2 and 3 of the paper
//! (see `figure2_trace` / `figure3_trace`), observing the ordered event
//! stream through the kernel's `Tape` hook.
//!
//! [`GreedySink`]: crate::algorithms::kernel::GreedySink
//! [`CollectSink`]: crate::algorithms::kernel::CollectSink

use crate::algorithms::kernel::{DriveCtx, Judgement, PairSink, PrefixPruner};
use crate::algorithms::{CsjOptions, JoinInput, RawJoin};
use crate::encoding::{EncodedA, EncodedB};
use crate::events::Event;
use crate::quant::LaneView;

/// Supplies [`Judgement`]s for candidate pairs whose encoded ID passed the
/// Min/Max window. Production code uses [`RealOracle`]; the figure tests
/// use a scripted table.
pub(crate) trait MinMaxOracle {
    fn judge(&mut self, b_pos: usize, a_pos: usize) -> Judgement;
}

/// The production oracle: part/range filter, then strict per-dimension
/// comparison through the encoded buffers' "real ID" indirection. The
/// full comparison runs on the pair's resolved [`LaneView`] — narrow
/// quantized lanes when the counters and `eps` permit.
pub(crate) struct RealOracle<'x> {
    pub view: LaneView<'x>,
    pub eb: &'x EncodedB,
    pub ea: &'x EncodedA,
}

impl MinMaxOracle for RealOracle<'_> {
    #[inline]
    fn judge(&mut self, b_pos: usize, a_pos: usize) -> Judgement {
        if !self.ea.parts_overlap(a_pos, self.eb.parts_of(b_pos)) {
            return Judgement::NoOverlap;
        }
        let bi = self.eb.user_idx[b_pos] as usize;
        let aj = self.ea.user_idx[a_pos] as usize;
        if self.view.matches(bi, aj) {
            Judgement::Match
        } else {
            Judgement::NoMatch
        }
    }
}

/// Drive the MinMax substrate over pre-encoded buffers: the one pruned
/// sort-merge scan behind both Ap- and Ex-MinMax. The sink receives
/// `(b_pos, a_pos)` **buffer positions** (translate with
/// [`map_positions`]) plus each matched `a`'s `encd_Max` as the segment
/// watermark bound.
pub(crate) fn drive_minmax<O: MinMaxOracle, S: PairSink>(
    eb_ids: &[u64],
    ea_mins: &[u64],
    ea_maxs: &[u64],
    oracle: &mut O,
    pruning: bool,
    ctx: &mut DriveCtx,
    sink: &mut S,
) {
    let na = ea_mins.len();
    let mut pruner = PrefixPruner::new(pruning);
    for (i, &id) in eb_ids.iter().enumerate() {
        if ctx.poll_cancel() {
            break;
        }
        if !sink.wants_b(i as u32) {
            continue;
        }
        ctx.begin_row();
        let mut j = pruner.begin_row();
        while j < na {
            if !sink.wants_a(j as u32) {
                // A consumed/flushed entry can never match again; while
                // the scan is still in the untouched prefix it may be
                // folded into the offset.
                pruner.on_dead(j);
                j += 1;
                continue;
            }
            if id < ea_mins[j] {
                ctx.event(Event::MinPrune, i, j);
                break; // go to next eB
            } else if id <= ea_maxs[j] {
                ctx.candidate();
                let judgement = oracle.judge(i, j);
                ctx.event(judgement.event(), i, j);
                if judgement == Judgement::Match
                    && sink.on_match(ctx, i as u32, j as u32, ea_maxs[j])
                {
                    break; // approximate: go to next eB
                }
                pruner.touch();
                j += 1;
            } else {
                // eB.encd_ID > eA.encd_Max.
                if pruner.on_max_prune() {
                    ctx.event(Event::MaxPrune, i, j);
                }
                j += 1;
            }
        }
        ctx.end_row();
        // The segmented sink flushes here once the next b's encoded ID
        // clears the running segment's maxV watermark.
        sink.row_end(ctx, eb_ids.get(i + 1).copied());
    }
}

/// The MinMax substrate under `sink`: Algorithm Ap-MinMax with a
/// greedy sink, Ex-MinMax with a segmented collector. On cancellation
/// Ex-MinMax returns the already-flushed segments (a valid partial
/// matching) — edges of the still-open segment are dropped rather than
/// matched so cancellation stays prompt.
pub(crate) fn minmax<S: PairSink>(input: &JoinInput, mut sink: S, opts: &CsjOptions) -> RawJoin {
    let (eb, ea) = input
        .encoded
        .expect("both entries supply the MinMax encodings");
    let view = input.lanes(opts);
    let mut oracle = RealOracle { view, eb, ea };
    let mut ctx = DriveCtx::new(opts.cancel.as_ref());
    ctx.telemetry.lane_bits = view.lane_bits();
    drive_minmax(
        &eb.encd_ids,
        &ea.encd_mins,
        &ea.encd_maxs,
        &mut oracle,
        opts.offset_pruning,
        &mut ctx,
        &mut sink,
    );
    let pos_pairs = sink.finish(&mut ctx);
    let mut raw = ctx.into_raw(pos_pairs);
    raw.pairs = map_positions(&raw.pairs, eb, ea);
    raw
}

/// Translate buffer positions back to community user indices.
fn map_positions(pos_pairs: &[(u32, u32)], eb: &EncodedB, ea: &EncodedA) -> Vec<(u32, u32)> {
    pos_pairs
        .iter()
        .map(|&(i, j)| (eb.user_idx[i as usize], ea.user_idx[j as usize]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::kernel::{CollectSink, GreedySink, Tape as TapeHook};
    use crate::algorithms::{join_unchecked, CsjMethod, CsjOptions};
    use crate::community::Community;
    use crate::vectors_match;
    use csj_matching::MatcherKind;

    /// Scripted oracle for the figure walkthroughs.
    struct TableOracle(Vec<((usize, usize), Judgement)>);
    impl MinMaxOracle for TableOracle {
        fn judge(&mut self, b_pos: usize, a_pos: usize) -> Judgement {
            self.0
                .iter()
                .find(|(k, _)| *k == (b_pos, a_pos))
                .map(|&(_, j)| j)
                .unwrap_or_else(|| panic!("unexpected comparison of b{b_pos} with a{a_pos}"))
        }
    }

    /// Records the full event tape.
    #[derive(Default)]
    struct Tape {
        events: Vec<(Event, usize, usize)>,
        flushes: Vec<Vec<(u32, u32)>>,
    }
    impl TapeHook for Tape {
        fn event(&mut self, ev: Event, b_pos: usize, a_pos: usize) {
            self.events.push((ev, b_pos, a_pos));
        }
        fn flush(&mut self, edges: &[(u32, u32)]) {
            self.flushes.push(edges.to_vec());
        }
    }

    /// Figure 2: the full Ap-MinMax running example (8 instances).
    /// Users are 0-indexed here: figure's b1..b5 -> 0..4, a1..a5 -> 0..4.
    #[test]
    fn figure2_trace() {
        let eb_ids = [40, 48, 67, 71, 74];
        let ea_mins = [30, 33, 42, 45, 50];
        let ea_maxs = [55, 60, 72, 73, 80];
        use Judgement as J;
        let mut oracle = TableOracle(vec![
            ((0, 0), J::NoOverlap),
            ((0, 1), J::NoOverlap),
            ((1, 0), J::NoMatch),
            ((1, 1), J::NoMatch),
            ((1, 2), J::Match),
            ((2, 3), J::NoMatch),
            ((2, 4), J::NoOverlap),
            ((3, 3), J::NoOverlap),
            ((3, 4), J::NoMatch),
            ((4, 4), J::Match),
        ]);
        let mut tape = Tape::default();
        let mut ctx = DriveCtx::with_tape(None, &mut tape);
        let mut sink = GreedySink::new(eb_ids.len(), ea_mins.len());
        drive_minmax(
            &eb_ids,
            &ea_mins,
            &ea_maxs,
            &mut oracle,
            true,
            &mut ctx,
            &mut sink,
        );
        let pairs = sink.finish(&mut ctx);
        let telemetry = ctx.telemetry;

        // MATCHES = {<b2, a3>, <b5, a5>} -> positions (1,2), (4,4);
        // similarity = 2/5 = 40%.
        assert_eq!(pairs, vec![(1, 2), (4, 4)]);

        use Event::*;
        let expected = vec![
            // << 1 >> b1 vs a1, a2 (NO OVERLAP), min-pruned by a3.
            (NoOverlap, 0, 0),
            (NoOverlap, 0, 1),
            (MinPrune, 0, 2),
            // << 2 >> b2: NO MATCH with a1, a2; MATCH with a3.
            (NoMatch, 1, 0),
            (NoMatch, 1, 1),
            (Match, 1, 2),
            // << 3 >>, << 4 >> b3 max-prunes a1 and a2.
            (MaxPrune, 2, 0),
            (MaxPrune, 2, 1),
            // << 5 >> b3 vs a4 (NO MATCH), a5 (NO OVERLAP).
            (NoMatch, 2, 3),
            (NoOverlap, 2, 4),
            // << 6 >> b4 starts at the offset moved by b3: a4, a5.
            (NoOverlap, 3, 3),
            (NoMatch, 3, 4),
            // << 7 >> b5 max-prunes a4; << 8 >> MATCH with a5.
            (MaxPrune, 4, 3),
            (Match, 4, 4),
        ];
        assert_eq!(tape.events, expected);
        let events = telemetry.events;
        assert_eq!(events.matches, 2);
        assert_eq!(events.min_prune, 1);
        assert_eq!(events.max_prune, 3);
        assert_eq!(events.no_overlap, 4);
        assert_eq!(events.no_match, 4);
        // The kernel's per-row stream telemetry on the figure: b1 streams
        // 2 candidates, b2 3, b3 2, b4 2, b5 1 -> 10 total, peak 3.
        assert_eq!(telemetry.rows_driven, 5);
        assert_eq!(telemetry.candidates_streamed, 10);
        assert_eq!(telemetry.peak_stream_depth, 3);
    }

    /// Figure 3: the full Ex-MinMax running example (6 instances),
    /// including the mid-stream CSF flushes and the `maxV` bookkeeping.
    #[test]
    fn figure3_trace() {
        let eb_ids = [40, 58, 67, 74, 81];
        let ea_mins = [30, 33, 38, 45, 50];
        let ea_maxs = [55, 60, 57, 73, 80];
        use Judgement as J;
        let mut oracle = TableOracle(vec![
            ((0, 0), J::Match),
            ((0, 1), J::NoOverlap),
            ((0, 2), J::Match),
            ((1, 1), J::Match),
            ((1, 3), J::Match),
            ((1, 4), J::NoMatch),
            ((2, 3), J::Match),
            ((2, 4), J::NoMatch),
            ((3, 4), J::NoOverlap),
        ]);
        let mut tape = Tape::default();
        let mut ctx = DriveCtx::with_tape(None, &mut tape);
        let mut sink = CollectSink::segmented(ea_mins.len(), MatcherKind::Csf);
        drive_minmax(
            &eb_ids,
            &ea_mins,
            &ea_maxs,
            &mut oracle,
            true,
            &mut ctx,
            &mut sink,
        );
        let pairs = sink.finish(&mut ctx);
        let telemetry = ctx.telemetry;

        use Event::*;
        let expected = vec![
            // << 1 >> b1: MATCH a1 (maxV=55), NO OVERLAP a2, MATCH a3
            // (maxV=57), MIN PRUNE by a4; b2=58 > maxV -> CSF flush.
            (Match, 0, 0),
            (NoOverlap, 0, 1),
            (Match, 0, 2),
            (MinPrune, 0, 3),
            // << 2 >> b2: MATCH a2 (maxV=60), MATCH a4 (maxV=73),
            // NO MATCH a5; b3=67 < maxV -> segment stays open.
            (Match, 1, 1),
            (Match, 1, 3),
            (NoMatch, 1, 4),
            // << 3 >> b3 max-prunes a2 (67 > 60)...
            (MaxPrune, 2, 1),
            // << 4 >> ...then MATCH a4, NO MATCH a5; b4=74 > maxV=73 ->
            // CSF flush of <b2,a2>, <b2,a4>, <b3,a4>.
            (Match, 2, 3),
            (NoMatch, 2, 4),
            // << 5 >> b4 vs a5: NO OVERLAP (maxV reset to 0).
            (NoOverlap, 3, 4),
            // << 6 >> b5 max-prunes a5; done.
            (MaxPrune, 4, 4),
        ];
        assert_eq!(tape.events, expected);

        // Two CSF calls with exactly the figure's inputs.
        assert_eq!(tape.flushes.len(), 2);
        assert_eq!(tape.flushes[0], vec![(0, 0), (0, 2)]);
        assert_eq!(tape.flushes[1], vec![(1, 1), (1, 3), (2, 3)]);
        // ... which the flush telemetry mirrors.
        assert_eq!(telemetry.matcher_flushes, 2);
        assert_eq!(telemetry.matcher_edges, 5);
        assert_eq!(telemetry.largest_flush_edges, 3);

        // CSF covers b1 with one of {a1, a3}, and both b2 and b3.
        assert_eq!(pairs.len(), 3);
        let b_matched: Vec<u32> = {
            let mut v: Vec<u32> = pairs.iter().map(|&(b, _)| b).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(b_matched, vec![0, 1, 2]);
        assert!(pairs.iter().any(|&(b, a)| b == 0 && (a == 0 || a == 2)));
        assert!(pairs.iter().any(|&(b, a)| b == 2 && a == 3)); // b3's only match
        assert!(pairs.iter().any(|&(b, a)| b == 1 && a == 1)); // leaves a4 for b3
    }

    fn community(name: &str, rows: &[&[u32]]) -> Community {
        let mut c = Community::new(name, rows[0].len());
        for (i, r) in rows.iter().enumerate() {
            c.push(i as u64 + 1, r).unwrap();
        }
        c
    }

    #[test]
    fn section3_example_end_to_end() {
        let b = community("B", &[&[3, 4, 2], &[2, 2, 3]]);
        let a = community("A", &[&[2, 3, 5], &[2, 3, 1], &[3, 3, 3]]);
        let opts = CsjOptions::new(1).with_parts(3);
        let ex = join_unchecked(CsjMethod::ExMinMax, &b, &a, &opts);
        assert_eq!(ex.pairs.len(), 2, "exact similarity must be 100%");
        let ap = join_unchecked(CsjMethod::ApMinMax, &b, &a, &opts);
        assert!(!ap.pairs.is_empty());
    }

    /// Deterministic pseudo-random cross-check against the baselines.
    #[test]
    fn agrees_with_baseline_on_random_data() {
        let mut state = 0xDEAD_BEEF_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for (d, eps, range) in [(4usize, 1u32, 8u32), (6, 2, 12), (3, 0, 4), (8, 3, 30)] {
            let rows_b: Vec<Vec<u32>> = (0..60)
                .map(|_| (0..d).map(|_| next() % range).collect())
                .collect();
            let rows_a: Vec<Vec<u32>> = (0..80)
                .map(|_| (0..d).map(|_| next() % range).collect())
                .collect();
            let b = Community::from_rows(
                "B",
                d,
                rows_b.into_iter().enumerate().map(|(i, v)| (i as u64, v)),
            )
            .unwrap();
            let a = Community::from_rows(
                "A",
                d,
                rows_a.into_iter().enumerate().map(|(i, v)| (i as u64, v)),
            )
            .unwrap();
            let opts = CsjOptions::new(eps).with_parts(2.min(d));

            // Exact MinMax == Exact Baseline (same matcher, same graph).
            let exm = join_unchecked(CsjMethod::ExMinMax, &b, &a, &opts);
            let exb = join_unchecked(CsjMethod::ExBaseline, &b, &a, &opts);
            assert_eq!(exm.pairs.len(), exb.pairs.len(), "d={d} eps={eps}");

            // Approximate methods are valid one-to-one subsets.
            let apm = join_unchecked(CsjMethod::ApMinMax, &b, &a, &opts);
            let apb = join_unchecked(CsjMethod::ApBaseline, &b, &a, &opts);
            assert!(apm.pairs.len() <= exm.pairs.len());
            assert!(apb.pairs.len() <= exm.pairs.len());
            for raw in [&apm, &exm] {
                let mut bs: Vec<u32> = raw.pairs.iter().map(|&(x, _)| x).collect();
                let mut as_: Vec<u32> = raw.pairs.iter().map(|&(_, y)| y).collect();
                bs.sort_unstable();
                as_.sort_unstable();
                let bl = bs.len();
                let al = as_.len();
                bs.dedup();
                as_.dedup();
                assert_eq!(bs.len(), bl, "duplicate b in matching");
                assert_eq!(as_.len(), al, "duplicate a in matching");
                for &(x, y) in &raw.pairs {
                    assert!(vectors_match(
                        b.vector(x as usize),
                        a.vector(y as usize),
                        eps
                    ));
                }
            }
        }
    }

    #[test]
    fn pruning_events_fire_on_separated_communities() {
        // B's encoded IDs far below A's minima: everything MIN-pruned at
        // the first A entry; zero comparisons.
        let b = community("B", &[&[0, 0], &[1, 0]]);
        let a = community("A", &[&[50, 50], &[60, 60]]);
        let opts = CsjOptions::new(1).with_parts(2);
        let out = join_unchecked(CsjMethod::ApMinMax, &b, &a, &opts);
        assert!(out.pairs.is_empty());
        assert_eq!(out.telemetry.events.min_prune, 2);
        assert_eq!(out.telemetry.events.full_comparisons(), 0);
        assert_eq!(out.telemetry.candidates_streamed, 0);
    }

    #[test]
    fn max_prune_advances_offset() {
        // B's encoded IDs far above A's maxima: every b max-prunes all of
        // A once; thanks to the offset, later bs never rescan.
        let b = community("B", &[&[50, 50], &[60, 60], &[70, 70]]);
        let a = community("A", &[&[0, 0], &[1, 1], &[2, 2]]);
        let opts = CsjOptions::new(1).with_parts(2);
        let out = join_unchecked(CsjMethod::ApMinMax, &b, &a, &opts);
        assert!(out.pairs.is_empty());
        assert_eq!(
            out.telemetry.events.max_prune, 3,
            "offset should eat A exactly once"
        );
    }

    #[test]
    fn empty_communities() {
        let b = Community::new("B", 2);
        let a = Community::new("A", 2);
        let opts = CsjOptions::new(1).with_parts(2);
        assert!(join_unchecked(CsjMethod::ApMinMax, &b, &a, &opts)
            .pairs
            .is_empty());
        assert!(join_unchecked(CsjMethod::ExMinMax, &b, &a, &opts)
            .pairs
            .is_empty());
    }

    #[test]
    fn offset_pruning_toggle_preserves_results() {
        let mut state = 0xFACE_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let d = 5;
        let rows_b: Vec<Vec<u32>> = (0..70)
            .map(|_| (0..d).map(|_| next() % 12).collect())
            .collect();
        let rows_a: Vec<Vec<u32>> = (0..90)
            .map(|_| (0..d).map(|_| next() % 12).collect())
            .collect();
        let b = Community::from_rows(
            "B",
            d,
            rows_b.into_iter().enumerate().map(|(i, v)| (i as u64, v)),
        )
        .unwrap();
        let a = Community::from_rows(
            "A",
            d,
            rows_a.into_iter().enumerate().map(|(i, v)| (i as u64, v)),
        )
        .unwrap();
        let on = CsjOptions::new(1).with_parts(2);
        let mut off = on.clone();
        off.offset_pruning = false;
        // Identical results either way; pruning only affects work done.
        assert_eq!(
            join_unchecked(CsjMethod::ApMinMax, &b, &a, &on).pairs,
            join_unchecked(CsjMethod::ApMinMax, &b, &a, &off).pairs
        );
        assert_eq!(
            join_unchecked(CsjMethod::ExMinMax, &b, &a, &on).pairs.len(),
            join_unchecked(CsjMethod::ExMinMax, &b, &a, &off)
                .pairs
                .len()
        );
        assert_eq!(
            join_unchecked(CsjMethod::ExMinMax, &b, &a, &off)
                .telemetry
                .events
                .max_prune,
            0
        );
    }

    #[test]
    fn identical_communities_reach_full_similarity() {
        let rows: Vec<Vec<u32>> = (0..20u32).map(|i| vec![i * 3, i * 5, i * 7, 2]).collect();
        let refs: Vec<&[u32]> = rows.iter().map(|v| &v[..]).collect();
        let b = community("B", &refs);
        let a = community("A", &refs);
        let opts = CsjOptions::new(0).with_parts(4);
        let out = join_unchecked(CsjMethod::ExMinMax, &b, &a, &opts);
        assert_eq!(out.pairs.len(), 20);
    }
}
