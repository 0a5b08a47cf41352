//! The substrate × sink join kernel.
//!
//! Every CSJ method is the product of a pairing **substrate** (how
//! candidate `(b, a)` pairs are generated: Baseline's nested loop,
//! MinMax's encoded sort-merge scan, the two EGO recursions) and a
//! **sink** (how candidates are consumed: [`GreedySink`] takes the first
//! match and consumes both users, [`CollectSink`] gathers every edge for
//! a one-to-one matcher). Each substrate is written once as a generic
//! `drive` function behind one substrate function per pairing strategy;
//! the dispatcher in `algorithms` instantiates the eight methods as
//! `substrate × sink`.
//!
//! Cross-cutting concerns live here instead of being copy-pasted into
//! each method: the cancel poll site, [`JoinTelemetry`] recording, the
//! `skip`/`offset` contiguous-prefix pruning ([`PrefixPruner`]) and the
//! matcher flush bookkeeping (including Ex-MinMax's `maxV` segment
//! flushing). The [`Tape`] hook replays ordered event traces for the
//! paper-figure tests without any production overhead beyond a
//! predictable `Option` check.

use std::time::{Duration, Instant};

use csj_ego::{super_ego_join, EgoStats, PointSet, Scalar, SuperEgoParams};
use csj_matching::{run_matcher, GraphBuilder, MatchGraph, MatcherKind};

use crate::algorithms::RawJoin;
use crate::cancel::CancelToken;
use crate::events::Event;
use crate::quant::LaneView;
use crate::telemetry::JoinTelemetry;

/// Verdict of the substrate's filters plus (when they pass) the full
/// d-dimensional comparison for one candidate pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Judgement {
    /// An encoding-level filter rejected the pair (NO OVERLAP).
    NoOverlap,
    /// Full comparison executed and failed (NO MATCH).
    NoMatch,
    /// Full comparison executed and succeeded (MATCH).
    Match,
}

impl Judgement {
    /// The event a judgement records.
    pub(crate) fn event(self) -> Event {
        match self {
            Judgement::NoOverlap => Event::NoOverlap,
            Judgement::NoMatch => Event::NoMatch,
            Judgement::Match => Event::Match,
        }
    }
}

/// Observes the ordered pairing process — the unit tests replaying the
/// paper's Figures 2 and 3 install one; production paths leave it unset.
pub(crate) trait Tape {
    fn event(&mut self, ev: Event, b_pos: usize, a_pos: usize);
    fn flush(&mut self, edges: &[(u32, u32)]);
}

/// Shared per-drive state: telemetry, the single cancel poll site and
/// matcher timing. Constructed once per join and threaded through the
/// substrate driver and the sink.
pub(crate) struct DriveCtx<'t> {
    /// Telemetry of the drive so far.
    pub telemetry: JoinTelemetry,
    /// The drive stopped early because the token tripped.
    pub cancelled: bool,
    /// Accumulated one-to-one matcher wall-clock (segment flushes plus
    /// the final call).
    pub matcher_time: Duration,
    /// When the context was created — the drive's phase clock.
    started: Instant,
    cancel: Option<&'t CancelToken>,
    tape: Option<&'t mut dyn Tape>,
    row_candidates: u64,
    row_prunes: u64,
}

impl<'t> DriveCtx<'t> {
    pub(crate) fn new(cancel: Option<&'t CancelToken>) -> Self {
        Self {
            telemetry: JoinTelemetry::default(),
            cancelled: false,
            matcher_time: Duration::ZERO,
            started: Instant::now(),
            cancel,
            tape: None,
            row_candidates: 0,
            row_prunes: 0,
        }
    }

    /// Phase timings of the drive: `pairing` is the wall-clock since
    /// the context was created minus time spent inside the one-to-one
    /// matcher, `matching` is the matcher time, and `setup` is zero
    /// (lane/encoding/index builds happen before the context exists;
    /// the substrate functions and the dispatch add them). Call after
    /// the sink's `finish` so the matcher time is final — this is the
    /// one place the `pairing`/`matching` split is computed for all
    /// eight methods.
    pub(crate) fn phase_timings(&self) -> crate::algorithms::PhaseTimings {
        crate::algorithms::PhaseTimings {
            setup: Duration::ZERO,
            pairing: self.started.elapsed().saturating_sub(self.matcher_time),
            matching: self.matcher_time,
        }
    }

    /// Package the drive's result: the sink's `pairs` plus this
    /// context's telemetry, cancel flag and phase timings.
    pub(crate) fn into_raw(self, pairs: Vec<(u32, u32)>) -> RawJoin {
        RawJoin {
            pairs,
            timings: self.phase_timings(),
            cancelled: self.cancelled,
            telemetry: self.telemetry,
            ego: None,
        }
    }

    /// Attach an ordered-trace observer (figure tests only).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn with_tape(cancel: Option<&'t CancelToken>, tape: &'t mut dyn Tape) -> Self {
        let mut ctx = Self::new(cancel);
        ctx.tape = Some(tape);
        ctx
    }

    /// The kernel's one cancellation poll site. Returns `true` once the
    /// token has tripped (and latches [`DriveCtx::cancelled`]).
    #[inline]
    pub(crate) fn poll_cancel(&mut self) -> bool {
        if self.cancelled {
            return true;
        }
        self.telemetry.cancel_polls += 1;
        if self.cancel.is_some_and(CancelToken::is_cancelled) {
            self.cancelled = true;
        }
        self.cancelled
    }

    /// Record one pairing event (counter, per-row depth, trace tape).
    #[inline]
    pub(crate) fn event(&mut self, ev: Event, b_pos: usize, a_pos: usize) {
        self.telemetry.events.record(ev);
        if matches!(ev, Event::MinPrune | Event::MaxPrune) {
            self.row_prunes += 1;
        }
        if let Some(tape) = self.tape.as_deref_mut() {
            tape.event(ev, b_pos, a_pos);
        }
    }

    /// A `B` row entered the pairing loop.
    #[inline]
    pub(crate) fn begin_row(&mut self) {
        self.telemetry.rows_driven += 1;
        self.row_candidates = 0;
        self.row_prunes = 0;
    }

    /// A candidate pair survived the cheap filters and is being judged.
    #[inline]
    pub(crate) fn candidate(&mut self) {
        self.telemetry.candidates_streamed += 1;
        self.row_candidates += 1;
    }

    /// The current `B` row's scan finished.
    #[inline]
    pub(crate) fn end_row(&mut self) {
        self.telemetry.stream_depth_hist.record(self.row_candidates);
        self.telemetry.prune_depth_hist.record(self.row_prunes);
        if self.row_candidates > self.telemetry.peak_stream_depth {
            self.telemetry.peak_stream_depth = self.row_candidates;
        }
    }

    /// Account one matcher invocation over `edges` edges.
    fn record_flush(&mut self, edges: u64, elapsed: Duration) {
        self.telemetry.matcher_flushes += 1;
        self.telemetry.matcher_edges += edges;
        if edges > self.telemetry.largest_flush_edges {
            self.telemetry.largest_flush_edges = edges;
        }
        self.matcher_time += elapsed;
    }

    fn tape_flush(&mut self, edges: &[(u32, u32)]) {
        if let Some(tape) = self.tape.as_deref_mut() {
            tape.flush(edges);
        }
    }

    /// Bulk bookkeeping for one fully-scanned row of the unconditional
    /// all-pairs scan: `candidates` pairs judged, `matched` of them
    /// matches. Produces exactly the counters the per-pair
    /// `begin_row`/`candidate`/`event`/`end_row` sequence would, in
    /// O(1) instead of O(candidates).
    #[inline]
    pub(crate) fn bulk_row(&mut self, candidates: u64, matched: u64) {
        self.begin_row();
        self.telemetry.candidates_streamed += candidates;
        self.row_candidates = candidates;
        self.telemetry.events.matches += matched;
        self.telemetry.events.no_match += candidates - matched;
        self.end_row();
    }
}

/// The `skip`/`offset` contiguous-prefix pruning shared by the Baseline
/// and MinMax scans (Section 4.1 / 5.1): a contiguous prefix of `A`
/// entries that are consumed (or MAX-pruned) is folded into a global
/// `offset` so later rows never rescan it. The fold is only sound while
/// the scan has seen nothing but that prefix, which the per-row `skip`
/// flag tracks.
#[derive(Debug)]
pub(crate) struct PrefixPruner {
    enabled: bool,
    offset: usize,
    skip: bool,
}

impl PrefixPruner {
    pub(crate) fn new(enabled: bool) -> Self {
        Self {
            enabled,
            offset: 0,
            skip: true,
        }
    }

    /// Start scanning a new `B` row; returns the first `A` index to
    /// visit.
    #[inline]
    pub(crate) fn begin_row(&mut self) -> usize {
        self.skip = true;
        self.offset
    }

    /// The scan hit a consumed/flushed entry at `j`; fold it into the
    /// offset while still inside the untouched prefix.
    #[inline]
    pub(crate) fn on_dead(&mut self, j: usize) {
        if self.enabled && self.skip && j == self.offset {
            self.offset += 1;
        }
    }

    /// A live candidate was inspected: the contiguous prefix is broken
    /// for the rest of this row.
    #[inline]
    pub(crate) fn touch(&mut self) {
        self.skip = false;
    }

    /// MAX PRUNE at the scan head: the current `a` can never match any
    /// later `b`, so the offset may swallow it permanently. Returns
    /// whether the offset advanced (i.e. whether the event counts).
    #[inline]
    pub(crate) fn on_max_prune(&mut self) -> bool {
        if self.enabled && self.skip {
            self.offset += 1;
            true
        } else {
            false
        }
    }

    #[cfg(test)]
    pub(crate) fn offset(&self) -> usize {
        self.offset
    }
}

/// Consumes the candidate stream a substrate drives. Implementations own
/// all consumption bookkeeping (greedy `consumed` flags, edge buffers,
/// segment flushing); substrates stay consumption-agnostic.
pub(crate) trait PairSink {
    /// Whether `B` row `bi` still needs pairing (greedy sinks drop rows
    /// already consumed by an earlier leaf visit).
    fn wants_b(&self, bi: u32) -> bool;

    /// Whether `A` column `aj` is still available.
    fn wants_a(&self, aj: u32) -> bool;

    /// Record a matched pair. `a_bound` is the substrate's encoded upper
    /// bound for the `A` column (Ex-MinMax `maxV` bookkeeping; 0 where
    /// the substrate has none). Returns `true` when the current `B` row
    /// is consumed and its scan must stop.
    fn on_match(&mut self, ctx: &mut DriveCtx, bi: u32, aj: u32, a_bound: u64) -> bool;

    /// End of a `B` row. `next_watermark` carries the next row's encoded
    /// ID (the Ex-MinMax segment flush trigger); `None` means the input
    /// is exhausted.
    fn row_end(&mut self, ctx: &mut DriveCtx, next_watermark: Option<u64>);

    /// Finalise into matched pairs (exact sinks run their matcher here).
    fn finish(self, ctx: &mut DriveCtx) -> Vec<(u32, u32)>;

    /// The whole-graph collector behind an exact sink, for drives that
    /// only run in exact mode (Ex-Baseline's cache-blocked scan);
    /// greedy sinks have none.
    fn collector(&mut self) -> Option<&mut CollectSink> {
        None
    }
}

/// The approximate consumption mode: the first MATCH consumes both
/// users; the pair list is the matching.
pub(crate) struct GreedySink {
    consumed_b: Vec<bool>,
    consumed_a: Vec<bool>,
    pairs: Vec<(u32, u32)>,
}

impl GreedySink {
    pub(crate) fn new(nb: usize, na: usize) -> Self {
        Self {
            consumed_b: vec![false; nb],
            consumed_a: vec![false; na],
            pairs: Vec::new(),
        }
    }
}

impl PairSink for GreedySink {
    #[inline]
    fn wants_b(&self, bi: u32) -> bool {
        !self.consumed_b[bi as usize]
    }

    #[inline]
    fn wants_a(&self, aj: u32) -> bool {
        !self.consumed_a[aj as usize]
    }

    #[inline]
    fn on_match(&mut self, _ctx: &mut DriveCtx, bi: u32, aj: u32, _a_bound: u64) -> bool {
        self.consumed_b[bi as usize] = true;
        self.consumed_a[aj as usize] = true;
        self.pairs.push((bi, aj));
        true
    }

    fn row_end(&mut self, _ctx: &mut DriveCtx, _next_watermark: Option<u64>) {}

    fn finish(self, _ctx: &mut DriveCtx) -> Vec<(u32, u32)> {
        self.pairs
    }
}

enum CollectMode {
    /// Gather every edge, run the matcher once in `finish`.
    Whole {
        builder: GraphBuilder,
        edge_count: u64,
        /// Whether the final matcher call still runs after cancellation
        /// (Ex-Baseline matches what was gathered; the EGO methods skip
        /// the matcher so cancellation stays prompt).
        matcher_on_cancel: bool,
    },
    /// Ex-MinMax: buffer the running segment's edges and flush through
    /// the matcher whenever the next row's encoded ID exceeds `maxv`.
    Segmented {
        seg_edges: Vec<(u32, u32)>,
        flushed: Vec<bool>,
        maxv: u64,
        scratch: FlushScratch,
    },
}

/// Buffers one segment flush renumbers its edges through, kept across
/// the flushes of a join so each flush allocates only the matcher's
/// graph.
struct FlushScratch {
    /// Compact rank of each `A` column in the segment being flushed,
    /// [`UNRANKED`] otherwise (reset at the end of every flush).
    a_rank: Vec<u32>,
    /// The segment's distinct `B` rows, by compact number.
    b_nodes: Vec<u32>,
    /// The segment's distinct `A` columns, by compact number.
    a_nodes: Vec<u32>,
}

/// [`FlushScratch::a_rank`] of a column outside the segment.
const UNRANKED: u32 = u32::MAX;

/// The exact consumption mode: accumulate the admissible-pair graph and
/// resolve it with a one-to-one matcher.
pub(crate) struct CollectSink {
    matcher: MatcherKind,
    mode: CollectMode,
    pairs: Vec<(u32, u32)>,
}

impl CollectSink {
    /// Whole-graph mode (Ex-Baseline, Ex-SuperEGO, Ex-Hybrid).
    pub(crate) fn whole(
        nb: usize,
        na: usize,
        matcher: MatcherKind,
        matcher_on_cancel: bool,
    ) -> Self {
        Self {
            matcher,
            mode: CollectMode::Whole {
                builder: GraphBuilder::new(nb as u32, na as u32),
                edge_count: 0,
                matcher_on_cancel,
            },
            pairs: Vec::new(),
        }
    }

    /// Segment-flushing mode (Ex-MinMax over `na` encoded `A` entries).
    pub(crate) fn segmented(na: usize, matcher: MatcherKind) -> Self {
        Self {
            matcher,
            mode: CollectMode::Segmented {
                seg_edges: Vec::new(),
                flushed: vec![false; na],
                maxv: 0,
                scratch: FlushScratch {
                    a_rank: vec![UNRANKED; na],
                    b_nodes: Vec::new(),
                    a_nodes: Vec::new(),
                },
            },
            pairs: Vec::new(),
        }
    }

    /// Run the matcher on the closed segment, translate its compact
    /// numbering back and mark the segment's `A` entries flushed.
    ///
    /// The matcher sees the graph the sorted-and-deduplicated numbering
    /// gives (`B` rows and `A` columns each numbered in ascending order,
    /// edges in discovery order), built without copying the edges:
    /// rows ascend within a segment, so `B` is numbered by run; `A` is
    /// numbered through the `a_rank` table; the edges are renumbered in
    /// place and moved into the graph, which skips dedup because MinMax
    /// judges each `(b, a)` pair once. The buffer comes back for the
    /// next segment.
    fn flush_segment(
        ctx: &mut DriveCtx,
        matcher: MatcherKind,
        seg_edges: &mut Vec<(u32, u32)>,
        flushed: &mut [bool],
        scratch: &mut FlushScratch,
        pairs: &mut Vec<(u32, u32)>,
    ) {
        ctx.tape_flush(seg_edges);
        let t = Instant::now();
        let FlushScratch {
            a_rank,
            b_nodes,
            a_nodes,
        } = scratch;
        for (b, a) in seg_edges.iter_mut() {
            debug_assert!(b_nodes.last().is_none_or(|&last| last <= *b), "rows ascend");
            if b_nodes.last() != Some(b) {
                b_nodes.push(*b);
            }
            *b = b_nodes.len() as u32 - 1;
            if a_rank[*a as usize] == UNRANKED {
                // Seen; its rank is set once the columns are sorted.
                a_rank[*a as usize] = 0;
                a_nodes.push(*a);
            }
        }
        a_nodes.sort_unstable();
        for (rank, &a) in a_nodes.iter().enumerate() {
            a_rank[a as usize] = rank as u32;
        }
        for (_, a) in seg_edges.iter_mut() {
            *a = a_rank[*a as usize];
        }
        let edges = seg_edges.len() as u64;
        let graph = MatchGraph::from_distinct_edges(
            b_nodes.len() as u32,
            a_nodes.len() as u32,
            std::mem::take(seg_edges),
        );
        let matching = run_matcher(&graph, matcher);
        for &(bi, ai) in matching.pairs() {
            pairs.push((b_nodes[bi as usize], a_nodes[ai as usize]));
        }
        for &a in a_nodes.iter() {
            flushed[a as usize] = true;
            a_rank[a as usize] = UNRANKED;
        }
        b_nodes.clear();
        a_nodes.clear();
        *seg_edges = graph.into_edges();
        seg_edges.clear();
        ctx.record_flush(edges, t.elapsed());
    }
}

impl PairSink for CollectSink {
    #[inline]
    fn wants_b(&self, _bi: u32) -> bool {
        true
    }

    #[inline]
    fn wants_a(&self, aj: u32) -> bool {
        match &self.mode {
            CollectMode::Whole { .. } => true,
            CollectMode::Segmented { flushed, .. } => !flushed[aj as usize],
        }
    }

    #[inline]
    fn on_match(&mut self, _ctx: &mut DriveCtx, bi: u32, aj: u32, a_bound: u64) -> bool {
        match &mut self.mode {
            CollectMode::Whole {
                builder,
                edge_count,
                ..
            } => {
                builder.add_edge(bi, aj);
                *edge_count += 1;
            }
            CollectMode::Segmented {
                seg_edges, maxv, ..
            } => {
                seg_edges.push((bi, aj));
                if a_bound > *maxv {
                    *maxv = a_bound;
                }
            }
        }
        false
    }

    fn row_end(&mut self, ctx: &mut DriveCtx, next_watermark: Option<u64>) {
        if let CollectMode::Segmented {
            seg_edges,
            flushed,
            maxv,
            scratch,
        } = &mut self.mode
        {
            // Segment boundary: if every future b's encoded ID exceeds
            // maxV, no future b can reach any matched a of the running
            // segment (their encoded Max values are all <= maxV), so it
            // is safe to flush now.
            let closes_segment = match next_watermark {
                Some(next_id) => next_id > *maxv,
                None => true,
            };
            if closes_segment {
                if !seg_edges.is_empty() {
                    Self::flush_segment(
                        ctx,
                        self.matcher,
                        seg_edges,
                        flushed,
                        scratch,
                        &mut self.pairs,
                    );
                }
                *maxv = 0;
            }
        }
    }

    fn finish(mut self, ctx: &mut DriveCtx) -> Vec<(u32, u32)> {
        match self.mode {
            CollectMode::Whole {
                builder,
                edge_count,
                matcher_on_cancel,
            } => {
                if ctx.cancelled && !matcher_on_cancel {
                    // Prompt cancellation: the empty matching is valid.
                    return self.pairs;
                }
                let t = Instant::now();
                let graph = builder.build();
                self.pairs = run_matcher(&graph, self.matcher).into_pairs();
                ctx.record_flush(edge_count, t.elapsed());
                self.pairs
            }
            // A cancelled drive leaves the open segment unmatched (its
            // edges are dropped so cancellation stays prompt); the loop
            // itself flushes the final segment on normal exit.
            CollectMode::Segmented { .. } => self.pairs,
        }
    }

    fn collector(&mut self) -> Option<&mut CollectSink> {
        Some(self)
    }
}

/// Drive the Baseline substrate: scan `A` for each of the `nb` `B` rows.
/// The nested loop behind Ap-Baseline (Ex-Baseline's unconditional scan
/// runs [`drive_baseline_blocked`]). The full
/// d-dimensional comparison goes through the pair's resolved
/// [`LaneView`], so the scan order — and with it every
/// consumption/pruning decision — is untouched by the compact
/// encodings.
pub(crate) fn drive_baseline<S: PairSink>(
    view: &LaneView,
    nb: usize,
    na: usize,
    pruner: &mut PrefixPruner,
    ctx: &mut DriveCtx,
    sink: &mut S,
) {
    ctx.telemetry.lane_bits = ctx.telemetry.lane_bits.max(view.lane_bits());
    for i in 0..nb {
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
                pruner.on_dead(j);
                j += 1;
                continue;
            }
            pruner.touch();
            ctx.candidate();
            if view.matches(i, j) {
                ctx.event(Event::Match, i, j);
                if sink.on_match(ctx, i as u32, j as u32, 0) {
                    break;
                }
            } else {
                ctx.event(Event::NoMatch, i, j);
            }
            j += 1;
        }
        ctx.end_row();
        sink.row_end(ctx, None);
    }
}

/// Cache-blocked drive of the **unconditional** all-pairs scan: the
/// Ex-Baseline drive, where the sink wants every row and column,
/// nothing is consumed mid-scan and no tape is attached.
///
/// The scan processes a block of `B` rows against one `A` tile at a
/// time (tile sized by [`crate::quant::tile_geometry`] so its columns
/// stay resident in L1), buffering matches per row and handing them to
/// `sink` row-major — so the edge list, every telemetry counter and the
/// uncancelled cancel-poll count (one per row) are identical to
/// [`drive_baseline`] over the same sink. Cancellation is polled
/// once per row at block granularity: a tripped token aborts before the
/// block is scanned, exactly like the serial scan aborts before a row.
pub(crate) fn drive_baseline_blocked(
    view: &LaneView,
    nb: usize,
    na: usize,
    ctx: &mut DriveCtx,
    sink: &mut CollectSink,
) {
    /// `B` rows per block: enough to amortise each `A` tile sweep,
    /// small enough that the block's rows stay cache-resident too.
    const B_BLOCK: usize = 8;
    let (tile_rows, tile_count) = crate::quant::tile_geometry(na, view.d(), view.lane_bytes());
    ctx.telemetry.lane_bits = ctx.telemetry.lane_bits.max(view.lane_bits());
    ctx.telemetry.a_tiles = ctx.telemetry.a_tiles.max(tile_count as u64);
    let mut row_hits: Vec<Vec<u32>> = vec![Vec::new(); B_BLOCK];
    let mut block = 0;
    while block < nb {
        let block_rows = (nb - block).min(B_BLOCK);
        // One poll per row keeps the uncancelled poll count identical
        // to the serial scan's row-granular polling.
        let mut tripped = false;
        for _ in 0..block_rows {
            if ctx.poll_cancel() {
                tripped = true;
                break;
            }
        }
        if tripped {
            break;
        }
        for buf in row_hits.iter_mut().take(block_rows) {
            buf.clear();
        }
        let mut tile = 0usize;
        while tile < na {
            let tile_end = (tile + tile_rows).min(na);
            for (bi, buf) in row_hits.iter_mut().enumerate().take(block_rows) {
                let i = block + bi;
                for j in tile..tile_end {
                    if view.matches(i, j) {
                        buf.push(j as u32);
                    }
                }
            }
            tile = tile_end;
        }
        for (bi, buf) in row_hits.iter().enumerate().take(block_rows) {
            let i = block + bi;
            ctx.bulk_row(na as u64, buf.len() as u64);
            for &j in buf {
                sink.on_match(ctx, i as u32, j, 0);
            }
        }
        block += block_rows;
    }
}

/// Drive an EGO-recursion substrate (SuperEGO on normalised floats, the
/// hybrid on raw integers): `judge` settles each candidate pair by leaf
/// position, the sink consumes by point id (= community index).
pub(crate) fn drive_ego<Sc, J, S>(
    ps_b: &PointSet<Sc>,
    ps_a: &PointSet<Sc>,
    params: SuperEgoParams,
    stats: &mut EgoStats,
    judge: &mut J,
    ctx: &mut DriveCtx,
    sink: &mut S,
) where
    Sc: Scalar,
    J: FnMut(usize, usize) -> Judgement,
    S: PairSink,
{
    super_ego_join(ps_b, ps_a, params, stats, &mut |bs, br, as_, ar, stats| {
        // Leaf-granular cancellation: the recursion lives in csj_ego and
        // stays oblivious to tokens, so tripped drives fall through the
        // remaining leaves without doing work.
        if ctx.poll_cancel() {
            return;
        }
        for i in br {
            let bi = bs.id(i);
            if !sink.wants_b(bi) {
                continue;
            }
            ctx.begin_row();
            for j in ar.clone() {
                let aj = as_.id(j);
                if !sink.wants_a(aj) {
                    continue;
                }
                stats.pairs_checked += 1;
                ctx.candidate();
                let judgement = judge(i, j);
                ctx.event(judgement.event(), bi as usize, aj as usize);
                if judgement == Judgement::Match && sink.on_match(ctx, bi, aj, 0) {
                    break;
                }
            }
            ctx.end_row();
            sink.row_end(ctx, None);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shared helper folds consumed entries into the offset only
    /// while the scan is still inside the untouched prefix.
    #[test]
    fn pruner_folds_contiguous_prefix_only() {
        let mut p = PrefixPruner::new(true);
        assert_eq!(p.begin_row(), 0);
        p.on_dead(0); // consumed at the head: folded
        assert_eq!(p.offset(), 1);
        p.touch(); // live comparison at 1
        p.on_dead(2); // consumed past the break: NOT folded
        assert_eq!(p.offset(), 1);
        // Next row starts at the folded offset with a fresh skip flag.
        assert_eq!(p.begin_row(), 1);
        p.on_dead(1);
        assert_eq!(p.offset(), 2);
    }

    #[test]
    fn pruner_max_prune_advances_only_at_scan_head() {
        let mut p = PrefixPruner::new(true);
        p.begin_row();
        assert!(p.on_max_prune(), "head prune must advance and count");
        assert_eq!(p.offset(), 1);
        p.touch();
        assert!(!p.on_max_prune(), "prune after a live entry is silent");
        assert_eq!(p.offset(), 1);
    }

    #[test]
    fn disabled_pruner_never_moves() {
        let mut p = PrefixPruner::new(false);
        assert_eq!(p.begin_row(), 0);
        p.on_dead(0);
        assert!(!p.on_max_prune());
        assert_eq!(p.offset(), 0);
        assert_eq!(p.begin_row(), 0);
    }

    #[test]
    fn pruner_ignores_dead_entries_beyond_the_head() {
        let mut p = PrefixPruner::new(true);
        p.begin_row();
        // The invariant j == offset while skip holds means a dead entry
        // at a later index must not advance the offset.
        p.on_dead(5);
        assert_eq!(p.offset(), 0);
    }

    #[test]
    fn greedy_sink_consumes_both_sides() {
        let mut ctx = DriveCtx::new(None);
        let mut sink = GreedySink::new(2, 3);
        assert!(sink.wants_b(0) && sink.wants_a(1));
        assert!(sink.on_match(&mut ctx, 0, 1, 0), "greedy stops the row");
        assert!(!sink.wants_b(0), "b consumed");
        assert!(!sink.wants_a(1), "a consumed");
        assert!(sink.wants_a(2));
        assert_eq!(sink.finish(&mut ctx), vec![(0, 1)]);
    }

    #[test]
    fn collect_whole_runs_matcher_once() {
        let mut ctx = DriveCtx::new(None);
        let mut sink = CollectSink::whole(2, 2, MatcherKind::HopcroftKarp, true);
        assert!(!sink.on_match(&mut ctx, 0, 0, 0), "collect keeps scanning");
        sink.on_match(&mut ctx, 0, 1, 0);
        sink.on_match(&mut ctx, 1, 0, 0);
        let mut pairs = sink.finish(&mut ctx);
        pairs.sort_unstable();
        assert_eq!(pairs.len(), 2, "maximum matching covers both rows");
        assert_eq!(ctx.telemetry.matcher_flushes, 1);
        assert_eq!(ctx.telemetry.matcher_edges, 3);
        assert_eq!(ctx.telemetry.largest_flush_edges, 3);
    }

    #[test]
    fn collect_segmented_flushes_on_watermark() {
        let mut ctx = DriveCtx::new(None);
        let mut sink = CollectSink::segmented(4, MatcherKind::Csf);
        sink.on_match(&mut ctx, 0, 0, 55);
        sink.row_end(&mut ctx, Some(40)); // 40 <= 55: segment stays open
        assert_eq!(ctx.telemetry.matcher_flushes, 0);
        assert!(sink.wants_a(0), "open segment keeps its columns live");
        sink.on_match(&mut ctx, 1, 1, 60);
        sink.row_end(&mut ctx, Some(61)); // 61 > 60: flush
        assert_eq!(ctx.telemetry.matcher_flushes, 1);
        assert_eq!(ctx.telemetry.matcher_edges, 2);
        assert!(!sink.wants_a(0) && !sink.wants_a(1), "flushed columns die");
        assert!(sink.wants_a(2));
        let mut pairs = sink.finish(&mut ctx);
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn cancelled_whole_sink_skips_matcher_when_prompt() {
        let token = CancelToken::new();
        token.cancel();
        let mut ctx = DriveCtx::new(Some(&token));
        assert!(ctx.poll_cancel());
        let mut sink = CollectSink::whole(1, 1, MatcherKind::Csf, false);
        sink.on_match(&mut ctx, 0, 0, 0);
        assert!(sink.finish(&mut ctx).is_empty(), "prompt mode drops edges");
        assert_eq!(ctx.telemetry.matcher_flushes, 0);
    }

    #[test]
    fn ctx_tracks_stream_depth_per_row() {
        let mut ctx = DriveCtx::new(None);
        ctx.begin_row();
        ctx.candidate();
        ctx.candidate();
        ctx.end_row();
        ctx.begin_row();
        ctx.candidate();
        ctx.end_row();
        assert_eq!(ctx.telemetry.rows_driven, 2);
        assert_eq!(ctx.telemetry.candidates_streamed, 3);
        assert_eq!(ctx.telemetry.peak_stream_depth, 2);
        assert_eq!(ctx.telemetry.stream_depth_hist.count(), 2);
    }

    #[test]
    fn poll_latches_after_trip() {
        let token = CancelToken::new();
        let mut ctx = DriveCtx::new(Some(&token));
        assert!(!ctx.poll_cancel());
        token.cancel();
        assert!(ctx.poll_cancel());
        let polls = ctx.telemetry.cancel_polls;
        assert!(ctx.poll_cancel(), "stays tripped");
        assert_eq!(ctx.telemetry.cancel_polls, polls, "latched polls are free");
    }
}
