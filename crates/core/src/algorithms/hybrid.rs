//! The MinMax–SuperEGO hybrid (the paper's Section 6.2 discussion).
//!
//! The paper observes that both SuperEGO methods "essentially replace the
//! NestedLoopJoin part of the original SuperEGO framework with that used
//! in Baseline", and that the MinMax encoded nested loop is emphatically
//! faster than the Baseline one — so "a combined algorithm MinMax-SuperEGO
//! would be faster than SuperEGO itself ... even in that theoretic case of
//! non-normalized data". This module builds that combination:
//!
//! * the SuperEGO recursion runs **directly on the raw integer counters**
//!   (no normalisation, hence no accuracy loss — the paper's "theoretic
//!   case" made real, since our grid is generic over the scalar type);
//! * the grid cell width is the integer `eps`, so EGO-strategy pruning is
//!   exact for the strict per-dimension condition;
//! * the leaf nested loop first consults the **MinMax encoding filters**
//!   (encoded-ID window, then part/range overlap) before paying for a
//!   d-dimensional comparison.
//!
//! The leaves stream through the kernel's `drive_ego` like SuperEGO's:
//! **Ap-Hybrid** = Hybrid × [`GreedySink`], **Ex-Hybrid** = Hybrid ×
//! [`CollectSink`]. Filter rejections inside the leaf are reported as
//! NO OVERLAP events (both the ID-window and the part/range filter are
//! encoding-level rejections); full comparisons report NO MATCH / MATCH
//! as usual.
//!
//! [`GreedySink`]: crate::algorithms::kernel::GreedySink
//! [`CollectSink`]: crate::algorithms::kernel::CollectSink

use csj_ego::{EgoStats, PointSet, SuperEgoParams};

use crate::algorithms::kernel::{drive_ego, DriveCtx, Judgement, PairSink};
use crate::algorithms::{CsjOptions, JoinInput, RawJoin};
use crate::community::Community;
use crate::encoding::{encode_vector_a, encode_vector_b, part_bounds};
use crate::quant::LaneView;

/// Per-user encodings addressable by community index (unsorted — the EGO
/// order provides the traversal; the encodings only filter).
struct HybridIndex {
    parts: usize,
    b_ids: Vec<u64>,
    b_parts: Vec<u64>,
    a_mins: Vec<u64>,
    a_maxs: Vec<u64>,
    a_lo: Vec<u64>,
    a_hi: Vec<u64>,
}

impl HybridIndex {
    fn build(b: &Community, a: &Community, eps: u32, parts: usize) -> Self {
        let bounds = part_bounds(b.d(), parts);
        let mut b_ids = Vec::with_capacity(b.len());
        let mut b_parts = Vec::with_capacity(b.len() * parts);
        for i in 0..b.len() {
            b_ids.push(encode_vector_b(b.vector(i), &bounds, &mut b_parts));
        }
        let mut a_mins = Vec::with_capacity(a.len());
        let mut a_maxs = Vec::with_capacity(a.len());
        let mut a_lo = Vec::with_capacity(a.len() * parts);
        let mut a_hi = Vec::with_capacity(a.len() * parts);
        for j in 0..a.len() {
            let (min, max) = encode_vector_a(a.vector(j), eps, &bounds, &mut a_lo, &mut a_hi);
            a_mins.push(min);
            a_maxs.push(max);
        }
        Self {
            parts,
            b_ids,
            b_parts,
            a_mins,
            a_maxs,
            a_lo,
            a_hi,
        }
    }

    /// Both encoding filters for `(b_user, a_user)` community indices.
    #[inline]
    fn passes_filters(&self, bi: usize, aj: usize) -> bool {
        let id = self.b_ids[bi];
        if id < self.a_mins[aj] || id > self.a_maxs[aj] {
            return false;
        }
        let p = self.parts;
        let bp = &self.b_parts[bi * p..(bi + 1) * p];
        let lo = &self.a_lo[aj * p..(aj + 1) * p];
        let hi = &self.a_hi[aj * p..(aj + 1) * p];
        bp.iter()
            .zip(lo.iter().zip(hi.iter()))
            .all(|(&s, (&l, &h))| s >= l && s <= h)
    }
}

/// Build the integer-domain EGO point sets (cell width = eps).
fn prepare(b: &Community, a: &Community, eps: u32) -> (PointSet<u32>, PointSet<u32>) {
    let width = eps.max(1);
    let ps_b = PointSet::build(b.d(), width, b.raw_data().to_vec(), None);
    let ps_a = PointSet::build(a.d(), width, a.raw_data().to_vec(), None);
    (ps_b, ps_a)
}

/// The leaf judgement shared by both hybrid modes: encoding filters in
/// front of each full comparison (run on the pair's resolved
/// [`LaneView`]). Positions here are EGO point-set positions, translated
/// to community indices via the point ids.
fn hybrid_judgement(
    index: &HybridIndex,
    view: &LaneView,
    ps_b: &PointSet<u32>,
    ps_a: &PointSet<u32>,
    i: usize,
    j: usize,
) -> Judgement {
    let bi = ps_b.id(i) as usize;
    let aj = ps_a.id(j) as usize;
    if !index.passes_filters(bi, aj) {
        return Judgement::NoOverlap;
    }
    if view.matches(bi, aj) {
        Judgement::Match
    } else {
        Judgement::NoMatch
    }
}

/// The hybrid substrate under `sink`: EGO recursion on raw integers with
/// the encoding filters in front of each leaf comparison — greedy
/// (Ap-Hybrid) or collecting for one matcher call (Ex-Hybrid).
pub(crate) fn hybrid<S: PairSink>(input: &JoinInput, mut sink: S, opts: &CsjOptions) -> RawJoin {
    let (b, a) = (input.b, input.a);
    let setup = std::time::Instant::now();
    let (ps_b, ps_a) = prepare(b, a, opts.eps);
    let index = HybridIndex::build(b, a, opts.eps, opts.encoding.effective_parts(b.d()));
    let view = input.lanes(opts);
    let setup = setup.elapsed();
    let params = SuperEgoParams { t: opts.superego.t };
    let mut stats = EgoStats::default();
    let mut ctx = DriveCtx::new(opts.cancel.as_ref());
    ctx.telemetry.lane_bits = view.lane_bits();
    drive_ego(
        &ps_b,
        &ps_a,
        params,
        &mut stats,
        &mut |i, j| hybrid_judgement(&index, &view, &ps_b, &ps_a, i, j),
        &mut ctx,
        &mut sink,
    );
    ctx.cancelled |= opts.is_cancelled();
    let pairs = sink.finish(&mut ctx);
    let mut raw = ctx.into_raw(pairs);
    raw.timings.setup = setup;
    raw.ego = Some(stats);
    raw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{join_unchecked, CsjMethod, CsjOptions};
    use crate::vectors_match;

    fn community(name: &str, rows: &[Vec<u32>]) -> Community {
        let mut c = Community::new(name, rows[0].len());
        for (i, r) in rows.iter().enumerate() {
            c.push(i as u64 + 1, r).unwrap();
        }
        c
    }

    fn lcg(seed: u64) -> impl FnMut() -> u32 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        }
    }

    #[test]
    fn section3_example() {
        let b = community("B", &[vec![3, 4, 2], vec![2, 2, 3]]);
        let a = community("A", &[vec![2, 3, 5], vec![2, 3, 1], vec![3, 3, 3]]);
        let opts = CsjOptions::new(1).with_parts(3);
        assert_eq!(
            join_unchecked(CsjMethod::ExHybrid, &b, &a, &opts)
                .pairs
                .len(),
            2
        );
        assert!(!join_unchecked(CsjMethod::ApHybrid, &b, &a, &opts)
            .pairs
            .is_empty());
    }

    #[test]
    fn exact_hybrid_is_lossless_even_on_huge_counters() {
        // Counters beyond f32's 24-bit mantissa — the regime where the
        // normalised SuperEGO loses accuracy. The integer-domain hybrid
        // must agree with Ex-Baseline exactly.
        let big = 1u32 << 25;
        let rows_b: Vec<Vec<u32>> = (0..10).map(|i| vec![big + i, big - i]).collect();
        let rows_a: Vec<Vec<u32>> = (0..12).map(|i| vec![big + i + 1, big - i]).collect();
        let b = community("B", &rows_b);
        let a = community("A", &rows_a);
        let opts = CsjOptions::new(1).with_parts(2);
        assert_eq!(
            join_unchecked(CsjMethod::ExHybrid, &b, &a, &opts)
                .pairs
                .len(),
            join_unchecked(CsjMethod::ExBaseline, &b, &a, &opts)
                .pairs
                .len()
        );
    }

    #[test]
    fn agrees_with_exact_minmax_on_random_data() {
        let mut rng = lcg(2024);
        for (d, eps) in [(4usize, 1u32), (6, 2), (5, 0)] {
            let rows_b: Vec<Vec<u32>> = (0..80)
                .map(|_| (0..d).map(|_| rng() % 15).collect())
                .collect();
            let rows_a: Vec<Vec<u32>> = (0..100)
                .map(|_| (0..d).map(|_| rng() % 15).collect())
                .collect();
            let b = community("B", &rows_b);
            let a = community("A", &rows_a);
            let mut opts = CsjOptions::new(eps).with_parts(2);
            opts.superego.t = 8;
            assert_eq!(
                join_unchecked(CsjMethod::ExHybrid, &b, &a, &opts)
                    .pairs
                    .len(),
                join_unchecked(CsjMethod::ExMinMax, &b, &a, &opts)
                    .pairs
                    .len(),
                "d={d} eps={eps}"
            );
        }
    }

    #[test]
    fn filters_reject_before_comparing() {
        // Two clusters whose encoded IDs are far apart: all leaf checks
        // must be settled by the filters or pruned outright.
        let rows_b: Vec<Vec<u32>> = (0..8).map(|i| vec![i, i]).collect();
        let rows_a: Vec<Vec<u32>> = (0..8).map(|i| vec![1000 + i, 1000 + i]).collect();
        let b = community("B", &rows_b);
        let a = community("A", &rows_a);
        let opts = CsjOptions::new(1).with_parts(2);
        let out = join_unchecked(CsjMethod::ExHybrid, &b, &a, &opts);
        assert!(out.pairs.is_empty());
        assert_eq!(out.telemetry.events.full_comparisons(), 0);
        let stats = out.ego_stats.unwrap();
        assert!(stats.prunes >= 1, "EGO should prune the separated clusters");
    }

    #[test]
    fn approximate_is_subset_of_exact() {
        let mut rng = lcg(321);
        let d = 4;
        let rows_b: Vec<Vec<u32>> = (0..70)
            .map(|_| (0..d).map(|_| rng() % 10).collect())
            .collect();
        let rows_a: Vec<Vec<u32>> = (0..90)
            .map(|_| (0..d).map(|_| rng() % 10).collect())
            .collect();
        let b = community("B", &rows_b);
        let a = community("A", &rows_a);
        let opts = CsjOptions::new(1).with_parts(2);
        let ap = join_unchecked(CsjMethod::ApHybrid, &b, &a, &opts);
        let ex = join_unchecked(CsjMethod::ExHybrid, &b, &a, &opts);
        assert!(ap.pairs.len() <= ex.pairs.len());
        for &(x, y) in &ap.pairs {
            assert!(vectors_match(b.vector(x as usize), a.vector(y as usize), 1));
        }
    }
}
