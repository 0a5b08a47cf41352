//! The SuperEGO substrate (Section 5.2): the state-of-the-art
//! epsilon-join comparator, adapted to answer CSJ.
//!
//! Adaptation, following the paper:
//!
//! 1. All counters are **normalised to `[0,1]^d`** ("since else the
//!    algorithm does not work") — a lossy `u32 -> f32` conversion for
//!    skewed datasets, which is the documented source of SuperEGO's
//!    accuracy deficit on VK-like data.
//! 2. The epsilon parameter becomes `eps / max_value` per dimension (the
//!    paper quotes the total budget as `27 * (1/152532)` for VK — i.e.
//!    `d` per-dimension slices of `eps/max_value`). The join condition is
//!    evaluated **per dimension** on the normalised floats so that it
//!    "correctly applies for CSJ"; the literal aggregate-L1 reading is
//!    available behind [`SuperEgoConfig::l1_predicate`] as an ablation
//!    (it strictly overestimates CSJ similarity).
//! 3. The recursion's leaves stream through the kernel's `drive_ego`:
//!    **Ap-SuperEGO** = SuperEGO × [`GreedySink`] (the greedy consuming
//!    loop of Ap-Baseline), **Ex-SuperEGO** = SuperEGO × [`CollectSink`]
//!    (all leaf pairs, one matcher call at the end).
//!
//! The recursion, EGO ordering, EGO-strategy pruning and Super-EGO
//! dimension reordering live in the [`csj_ego`] substrate crate.
//!
//! [`SuperEgoConfig::l1_predicate`]: crate::algorithms::SuperEgoConfig
//! [`GreedySink`]: crate::algorithms::kernel::GreedySink
//! [`CollectSink`]: crate::algorithms::kernel::CollectSink

use csj_ego::{
    dimension_order, normalize_counters, permute_dimensions, EgoStats, JoinPredicate, PointSet,
    SuperEgoParams,
};

use crate::algorithms::kernel::{drive_ego, DriveCtx, Judgement, PairSink};
use crate::algorithms::{CsjOptions, JoinInput, RawJoin};
use crate::community::Community;

/// Normalise, optionally reorder dimensions, and EGO-sort both
/// communities; derive the per-dimension predicate.
fn prepare(
    b: &Community,
    a: &Community,
    opts: &CsjOptions,
) -> (PointSet<f32>, PointSet<f32>, JoinPredicate<f32>) {
    let d = b.d();
    let max_value = opts
        .superego
        .max_value
        .unwrap_or_else(|| b.max_counter().max(a.max_counter()))
        .max(1);
    let eps_norm = (opts.eps as f64 / max_value as f64) as f32;
    // The grid needs a positive cell width even for eps = 0 (equality
    // joins); any tiny width keeps the pruning sound.
    let width = if eps_norm > 0.0 { eps_norm } else { 1.0e-6 };

    let mut data_b = normalize_counters(b.raw_data(), max_value);
    let mut data_a = normalize_counters(a.raw_data(), max_value);
    if opts.superego.reorder {
        let order = dimension_order(d, &data_b, &data_a, width, 10_000);
        data_b = permute_dimensions(&data_b, d, &order);
        data_a = permute_dimensions(&data_a, d, &order);
    }
    let ps_b = PointSet::build(d, width, data_b, None);
    let ps_a = PointSet::build(d, width, data_a, None);
    let pred = if opts.superego.l1_predicate {
        JoinPredicate::L1 {
            eps_sum: d as f64 * eps_norm as f64,
        }
    } else {
        JoinPredicate::PerDim { eps: eps_norm }
    };
    (ps_b, ps_a, pred)
}

/// The SuperEGO substrate under `sink`: the recursion with the greedy
/// sink at the leaves (Ap-SuperEGO), or collecting all leaf pairs for
/// one matcher call (Ex-SuperEGO, the paper's CSF by default).
pub(crate) fn superego<S: PairSink>(input: &JoinInput, mut sink: S, opts: &CsjOptions) -> RawJoin {
    let setup = std::time::Instant::now();
    let (ps_b, ps_a, pred) = prepare(input.b, input.a, opts);
    let params = SuperEgoParams { t: opts.superego.t };
    let setup = setup.elapsed();
    let mut stats = EgoStats::default();
    let mut ctx = DriveCtx::new(opts.cancel.as_ref());
    drive_ego(
        &ps_b,
        &ps_a,
        params,
        &mut stats,
        &mut |i, j| {
            if pred.matches(ps_b.point(i), ps_a.point(j)) {
                Judgement::Match
            } else {
                Judgement::NoMatch
            }
        },
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
    fn section3_example_shows_normalisation_loss() {
        // Every candidate pair of the Section 3 example sits exactly on
        // the epsilon boundary (some |b_i - a_i| == eps), which is where
        // the float conversion may lose pairs — the accuracy deficit the
        // paper reports for SuperEGO on VK. The result must therefore be
        // a valid one-to-one matching bounded by the exact answer (2),
        // but needn't reach it.
        let b = community("B", &[vec![3, 4, 2], vec![2, 2, 3]]);
        let a = community("A", &[vec![2, 3, 5], vec![2, 3, 1], vec![3, 3, 3]]);
        let opts = CsjOptions::new(1).with_parts(3);
        let ex = join_unchecked(CsjMethod::ExSuperEgo, &b, &a, &opts);
        assert!(ex.pairs.len() <= 2);
        let ap = join_unchecked(CsjMethod::ApSuperEgo, &b, &a, &opts);
        assert!(ap.pairs.len() <= ex.pairs.len().max(ap.pairs.len()));
        for &(x, y) in ex.pairs.iter().chain(ap.pairs.iter()) {
            // Any pair it does report must be a true per-dim match.
            assert!(crate::vectors_match(
                b.vector(x as usize),
                a.vector(y as usize),
                1
            ));
        }
    }

    #[test]
    fn exact_agrees_with_baseline_under_exact_normalisation() {
        // With a power-of-two normalisation divisor and counters below
        // 2^24, the u32 -> f32 conversion is exact, so Ex-SuperEGO must
        // equal Ex-Baseline — the regime of the paper's Synthetic dataset
        // (Tables 8 and 10, where all exact methods agree).
        let mut rng = lcg(31);
        let d = 5;
        let rows_b: Vec<Vec<u32>> = (0..70)
            .map(|_| (0..d).map(|_| rng() % 16).collect())
            .collect();
        let rows_a: Vec<Vec<u32>> = (0..90)
            .map(|_| (0..d).map(|_| rng() % 16).collect())
            .collect();
        let b = community("B", &rows_b);
        let a = community("A", &rows_a);
        for eps in [0u32, 1, 2, 4] {
            let mut opts = CsjOptions::new(eps).with_parts(2);
            opts.superego.t = 8;
            opts.superego.max_value = Some(16); // power of two -> exact
            let ego = join_unchecked(CsjMethod::ExSuperEgo, &b, &a, &opts);
            let base = join_unchecked(CsjMethod::ExBaseline, &b, &a, &opts);
            assert_eq!(ego.pairs.len(), base.pairs.len(), "eps={eps}");
        }
    }

    #[test]
    fn loss_hits_only_boundary_pairs() {
        // Normalisation loss can only strike pairs with a dimension at
        // exactly |b_i - a_i| == eps; interior pairs (all diffs < eps,
        // e.g. exact duplicates) always survive. The paper's small VK
        // deficits correspond to datasets where most matched profiles are
        // near-duplicates — the property the VK-like generator provides.
        let _d = 3;
        let mut rows_b: Vec<Vec<u32>> = Vec::new();
        let mut rows_a: Vec<Vec<u32>> = Vec::new();
        // 60 exact-duplicate pairs (loss-proof).
        for i in 0..60u32 {
            rows_b.push(vec![i * 13 % 997, i * 29 % 997, i * 7 % 997]);
            rows_a.push(rows_b[i as usize].clone());
        }
        // 10 boundary pairs (loss-prone: one dim differs by exactly eps).
        for i in 0..10u32 {
            let base = vec![10_000 + i * 31, 20_000 + i * 17, 30_000 + i * 11];
            let mut shifted = base.clone();
            shifted[(i % 3) as usize] += 1;
            rows_b.push(base);
            rows_a.push(shifted);
        }
        let b = community("B", &rows_b);
        let a = community("A", &rows_a);
        let mut opts = CsjOptions::new(1).with_parts(2);
        opts.superego.t = 8;
        opts.superego.max_value = Some(152_532); // the paper's VK maximum
        let ego = join_unchecked(CsjMethod::ExSuperEgo, &b, &a, &opts);
        let base = join_unchecked(CsjMethod::ExBaseline, &b, &a, &opts);
        assert_eq!(base.pairs.len(), 70);
        assert!(ego.pairs.len() >= 60, "interior pairs must all survive");
        assert!(ego.pairs.len() <= 70);
    }

    #[test]
    fn l1_ablation_overestimates() {
        // The aggregate-L1 predicate admits a superset of pairs, so its
        // "similarity" is >= the per-dimension similarity.
        let mut rng = lcg(13);
        let d = 4;
        let rows_b: Vec<Vec<u32>> = (0..60)
            .map(|_| (0..d).map(|_| rng() % 12).collect())
            .collect();
        let rows_a: Vec<Vec<u32>> = (0..80)
            .map(|_| (0..d).map(|_| rng() % 12).collect())
            .collect();
        let b = community("B", &rows_b);
        let a = community("A", &rows_a);
        let mut per = CsjOptions::new(1).with_parts(2);
        per.superego.t = 8;
        let mut l1 = per.clone();
        l1.superego.l1_predicate = true;
        let per_out = join_unchecked(CsjMethod::ExSuperEgo, &b, &a, &per);
        let l1_out = join_unchecked(CsjMethod::ExSuperEgo, &b, &a, &l1);
        assert!(l1_out.pairs.len() >= per_out.pairs.len());
    }

    #[test]
    fn reorder_toggle_preserves_result() {
        let mut rng = lcg(55);
        let d = 6;
        let rows_b: Vec<Vec<u32>> = (0..90)
            .map(|_| (0..d).map(|_| rng() % 25).collect())
            .collect();
        let rows_a: Vec<Vec<u32>> = (0..120)
            .map(|_| (0..d).map(|_| rng() % 25).collect())
            .collect();
        let b = community("B", &rows_b);
        let a = community("A", &rows_a);
        let mut with = CsjOptions::new(2).with_parts(3);
        with.superego.t = 8;
        let mut without = with.clone();
        without.superego.reorder = false;
        assert_eq!(
            join_unchecked(CsjMethod::ExSuperEgo, &b, &a, &with)
                .pairs
                .len(),
            join_unchecked(CsjMethod::ExSuperEgo, &b, &a, &without)
                .pairs
                .len()
        );
    }

    #[test]
    fn records_ego_stats() {
        let b = community("B", &[vec![1, 1]]);
        let a = community("A", &[vec![1, 1]]);
        let out = join_unchecked(
            CsjMethod::ExSuperEgo,
            &b,
            &a,
            &CsjOptions::new(1).with_parts(2),
        );
        let stats = out.ego_stats.expect("superego must report stats");
        assert!(stats.calls >= 1);
    }

    #[test]
    fn eps_zero_equality_join() {
        let b = community("B", &[vec![5, 7]]);
        let a = community("A", &[vec![5, 7], vec![5, 8]]);
        let out = join_unchecked(
            CsjMethod::ExSuperEgo,
            &b,
            &a,
            &CsjOptions::new(0).with_parts(2),
        );
        assert_eq!(out.pairs, vec![(0, 0)]);
    }
}
