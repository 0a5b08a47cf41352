//! Property-based tests for budgeted execution: a truncated
//! `pairs_above` sweep returns a subset of the unbounded result, and
//! resuming from its cursor yields exactly the missing pairs.

use std::time::Duration;

mod common;

use common::sweep;
use csj_core::Community;
use csj_engine::{Budget, CsjEngine, EngineConfig, Exactness, ExhaustReason, PairScore};
use proptest::prelude::*;

/// Random catalogs: a shared dimensionality plus 2..6 communities of
/// 1..8 users each, with small-range profiles so matches actually occur.
fn catalogs() -> impl Strategy<Value = (usize, Vec<Vec<Vec<u32>>>)> {
    (1usize..=3).prop_flat_map(|d| {
        let row = proptest::collection::vec(0u32..8, d);
        let communities = proptest::collection::vec(proptest::collection::vec(row, 1..8), 2..6);
        (Just(d), communities)
    })
}

fn build_engine(d: usize, communities: &[Vec<Vec<u32>>]) -> CsjEngine {
    let mut engine = CsjEngine::new(d, EngineConfig::new(1));
    for (i, rows) in communities.iter().enumerate() {
        let name = format!("c{i}");
        let community = Community::from_rows(
            &name,
            d,
            rows.iter().enumerate().map(|(u, v)| (u as u64, v.clone())),
        )
        .expect("well-formed");
        engine.register(community).expect("unique names");
    }
    engine
}

fn by_handles(mut pairs: Vec<PairScore>) -> Vec<PairScore> {
    pairs.sort_by_key(|p| (p.x.0, p.y.0));
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever a join-capped sweep returns is a subset of the unbounded
    /// sweep, and its cursor resumes to exactly the missing pairs —
    /// nothing lost, nothing duplicated, same scores.
    #[test]
    fn capped_sweep_is_a_resumable_subset(
        (d, communities) in catalogs(),
        threshold_tenths in 0u32..=10,
        cap in 0u64..12,
    ) {
        let threshold = f64::from(threshold_tenths) / 10.0;
        let full = build_engine(d, &communities)
            .pairs_above(threshold)
            .expect("unbounded sweep succeeds");

        let engine = build_engine(d, &communities);
        let budget = Budget::unlimited().with_max_joins(cap);
        let first = sweep(&engine, threshold, Exactness::Exact, &budget, None)
            .expect("budgeted sweep degrades, never errors");

        // Subset with identical scores.
        for p in &first.value.pairs {
            prop_assert!(
                full.iter().any(|q| q.x == p.x && q.y == p.y && q.similarity == p.similarity),
                "truncated sweep invented pair {:?}", p
            );
        }

        match first.value.cursor {
            None => {
                prop_assert!(first.is_complete(), "no cursor means nothing was skipped");
                prop_assert_eq!(by_handles(first.value.pairs), by_handles(full));
            }
            Some(cursor) => {
                prop_assert!(!first.is_complete());
                prop_assert!(first.exhausted.unwrap().pairs_skipped > 0);
                let rest = sweep(&engine, threshold, Exactness::Exact, &Budget::unlimited(), Some(cursor))
                    .expect("resume succeeds");
                prop_assert!(rest.is_complete());
                prop_assert!(rest.value.cursor.is_none());
                let mut union = first.value.pairs.clone();
                union.extend(rest.value.pairs.iter().copied());
                prop_assert_eq!(
                    union.len(),
                    full.len(),
                    "slices must be disjoint and jointly exhaustive"
                );
                prop_assert_eq!(by_handles(union), by_handles(full));
            }
        }
    }

    /// An already-expired deadline processes nothing, reports Deadline,
    /// and the resume cursor recovers the entire unbounded result.
    #[test]
    fn expired_deadline_resumes_to_the_full_result(
        (d, communities) in catalogs(),
        threshold_tenths in 0u32..=10,
    ) {
        let threshold = f64::from(threshold_tenths) / 10.0;
        let full = build_engine(d, &communities)
            .pairs_above(threshold)
            .expect("unbounded sweep succeeds");

        let engine = build_engine(d, &communities);
        let spent = Budget::unlimited().with_deadline(Duration::ZERO);
        let first = sweep(&engine, threshold, Exactness::Exact, &spent, None)
            .expect("well-formed Partial, not an error");
        prop_assert!(first.value.pairs.is_empty());
        let marker = first.exhausted.expect("at least one pair was skipped");
        prop_assert_eq!(marker.reason, ExhaustReason::Deadline);
        prop_assert_eq!(marker.pairs_done, 0);

        let cursor = first.value.cursor.expect("resume point");
        let resumed = sweep(&engine, threshold, Exactness::Exact, &Budget::unlimited(), Some(cursor))
            .expect("resume succeeds");
        prop_assert!(resumed.is_complete());
        prop_assert_eq!(by_handles(resumed.value.pairs), by_handles(full));
    }
}
