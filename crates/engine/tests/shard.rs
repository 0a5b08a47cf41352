//! Sharded-execution contract tests.
//!
//! Every multi-pair query runs on the shard executor, and its merges are
//! *bit-identical* across layouts: a fault-free query returns exactly
//! the single-threaded, single-shard reference — same pairs, same
//! scores, same order — for every shard count, thread count and
//! (implicitly) steal order. Faults may only shrink *coverage*, never
//! corrupt what survives. These tests pin both claims.

mod common;

use common::{screened, sweep, top_k};
use csj_core::Community;
use csj_engine::{Budget, CsjEngine, EngineConfig, Exactness};
use proptest::prelude::*;

/// Deterministic LCG so every run sees the same catalog.
fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    }
}

/// A skewed catalog: community sizes spread over a 4× range so some
/// pairs are admissible and some are not, and part-sum masses differ
/// enough that the LPT layout actually separates the giants.
fn skewed_engine(seed: u64, threads: usize, shards: usize) -> CsjEngine {
    catalog_engine(seed, threads, shards, &[4, 5, 6, 8, 10, 16])
}

/// An engine over one community per entry of `sizes`, rows drawn from
/// the seeded LCG.
fn catalog_engine(seed: u64, threads: usize, shards: usize, sizes: &[usize]) -> CsjEngine {
    const D: usize = 3;
    let mut rng = lcg(seed);
    let mut config = EngineConfig::new(1);
    config.threads = threads;
    config.shard.shards = shards;
    let mut engine = CsjEngine::new(D, config);
    for (i, &len) in sizes.iter().enumerate() {
        let rows: Vec<(u64, Vec<u32>)> = (0..len as u64)
            .map(|u| (u + 1, (0..D).map(|_| (rng() % 10) as u32).collect()))
            .collect();
        let c = Community::from_rows(format!("c{i}"), D, rows).expect("well-formed");
        engine.register(c).expect("unique names");
    }
    engine
}

fn anchor(engine: &CsjEngine) -> csj_engine::CommunityHandle {
    engine.find("c3").expect("registered")
}

#[test]
fn sharded_ranked_queries_match_flat_bit_for_bit() {
    // The flat reference comes from a single-threaded engine so any
    // hidden dependence on the sharded engine's pool would show up.
    let reference = skewed_engine(7, 1, 1);
    let x = anchor(&reference);
    let flat_topk = reference.top_k_similar(x, 4).expect("flat top-k");
    let every = usize::MAX;
    let flat_ranked = top_k(&reference, x, every, Exactness::Exact, &Budget::unlimited())
        .expect("flat screen+refine")
        .value;
    let flat_screen = screened(&reference, x).expect("flat screen").value;

    for shards in [1usize, 2, 3, 5, 8] {
        for threads in [1usize, 2, 4] {
            let engine = skewed_engine(7, threads, shards);
            let x = anchor(&engine);

            let topk = top_k(&engine, x, 4, Exactness::Exact, &Budget::unlimited())
                .expect("sharded top-k");
            assert_eq!(
                topk.value, flat_topk,
                "top-k diverged at shards={shards} threads={threads}"
            );
            let cov = topk.coverage.expect("sharded queries report coverage");
            assert!(cov.identity_holds(), "{cov}");
            assert!(!cov.is_partial(), "fault-free must be complete: {cov}");
            assert_eq!(cov.unit_fraction(), 1.0);

            let ranked = top_k(&engine, x, every, Exactness::Exact, &Budget::unlimited())
                .expect("sharded screen+refine");
            assert_eq!(
                ranked.value, flat_ranked,
                "screen+refine diverged at shards={shards} threads={threads}"
            );
            assert!(ranked.exhausted.is_none());

            let screened = screened(&engine, x).expect("sharded screen").value;
            assert_eq!(
                screened, flat_screen,
                "screen diverged at shards={shards} threads={threads}"
            );
        }
    }
}

#[test]
fn sharded_pairs_above_matches_flat() {
    // The small catalog, and one large enough that a pool of more than
    // one worker splits the sweep into several tasks per worker.
    let large: Vec<usize> = (0..14).map(|i| 4 + (i * 7) % 13).collect();
    for (sizes, split) in [(&[4usize, 5, 6, 8, 10, 16][..], false), (&large, true)] {
        let reference = catalog_engine(11, 1, 1, sizes);
        let flat = reference.pairs_above(0.0).expect("flat sweep");
        assert!(!flat.is_empty(), "catalog must produce matching pairs");
        let refined = reference.stats().cached_pairs;

        for shards in [0usize, 1, 2, 3, 5, 8] {
            for threads in [1usize, 2, 4] {
                let engine = catalog_engine(11, threads, shards, sizes);
                let swept = sweep(&engine, 0.0, Exactness::Exact, &Budget::unlimited(), None)
                    .expect("sharded sweep");
                assert_eq!(
                    swept.value.pairs, flat,
                    "sweep diverged at shards={shards} threads={threads}"
                );
                assert!(
                    swept.value.cursor.is_none(),
                    "a complete sweep has nothing to resume"
                );
                // Parallelism must not change which pairs get refined.
                assert_eq!(
                    engine.stats().cached_pairs,
                    refined,
                    "refined pairs diverged at shards={shards} threads={threads}"
                );
                let cov = swept.coverage.expect("coverage attached");
                assert!(cov.identity_holds() && !cov.is_partial(), "{cov}");
                if split && threads > 1 && shards != 1 {
                    assert!(
                        cov.dispatched >= 6,
                        "{} tasks at shards={shards} threads={threads}",
                        cov.dispatched
                    );
                }
            }
        }
    }
}

/// A sweep under a small join cap advances on every resumed call, even
/// when its pairs span more shard tasks than there are workers, and its
/// slices add up to the unbounded sweep. The sweep's first pair is
/// admitted whatever sibling tasks spent; without that, a call that
/// spent its cap on later tasks would return the same cursor again.
#[test]
fn capped_sweep_resumes_to_completion() {
    let threshold = 0.3;
    let mut flat = skewed_engine(31, 1, 1)
        .pairs_above(threshold)
        .expect("unbounded sweep");
    let key = |p: &csj_engine::PairScore| (p.x.0, p.y.0);
    flat.sort_by_key(key);
    for (threads, shards) in [(1usize, 3usize), (1, 6), (2, 3), (2, 6)] {
        for cap in [1u64, 3] {
            let engine = skewed_engine(31, threads, shards);
            let mut union = Vec::new();
            let mut cursor = None;
            let mut calls = 0;
            loop {
                calls += 1;
                assert!(
                    calls <= 16,
                    "no progress: threads={threads} shards={shards} cap={cap}"
                );
                let budget = Budget::unlimited().with_max_joins(cap);
                let slice = sweep(&engine, threshold, Exactness::Exact, &budget, cursor)
                    .expect("capped sweep");
                assert!(slice.value.failed.is_empty());
                union.extend(slice.value.pairs.iter().copied());
                let next = slice.value.cursor;
                assert!(
                    next.is_none() || next != cursor,
                    "a resumed call must advance: threads={threads} shards={shards} cap={cap}"
                );
                cursor = next;
                if cursor.is_none() {
                    break;
                }
            }
            union.sort_by_key(key);
            assert_eq!(
                union, flat,
                "slices must add up to the unbounded sweep: threads={threads} shards={shards} cap={cap}"
            );
        }
    }
}

/// Run `query` on `engine` twice: the warm run, served from the screen
/// and exact caches the cold one filled, must return the cold answer
/// and run no join. Returns the answer.
fn cold_then_warm<T: PartialEq + std::fmt::Debug>(
    engine: &CsjEngine,
    what: &str,
    query: impl Fn(&CsjEngine) -> T,
) -> T {
    let cold = query(engine);
    let joins = engine.stats().joins_executed;
    let warm = query(engine);
    assert_eq!(warm, cold, "warm {what} diverged");
    assert_eq!(
        engine.stats().joins_executed,
        joins,
        "warm {what} ran joins"
    );
    cold
}

#[test]
fn warm_answers_match_cold_across_layouts() {
    let threshold = 0.3;
    let reference = skewed_engine(7, 1, 1);
    let x = anchor(&reference);
    let flat_topk = reference.top_k_similar(x, 4).expect("flat top-k");
    let flat_sweep = skewed_engine(7, 1, 1)
        .pairs_above(threshold)
        .expect("flat sweep");

    for shards in [1usize, 2, 3, 5, 8] {
        for threads in [1usize, 2, 4] {
            // A fresh engine per query kind, so each cold run is cold.
            let fresh = || skewed_engine(7, threads, shards);
            let topk = cold_then_warm(&fresh(), "top-k", |e| e.top_k_similar(x, 4).unwrap());
            assert_eq!(topk, flat_topk, "shards={shards} threads={threads}");
            cold_then_warm(&fresh(), "screen+refine", |e| {
                top_k(e, x, usize::MAX, Exactness::Exact, &Budget::unlimited())
                    .unwrap()
                    .value
            });
            cold_then_warm(&fresh(), "screen", |e| screened(e, x).unwrap().value);
            let swept = cold_then_warm(&fresh(), "sweep", |e| e.pairs_above(threshold).unwrap());
            assert_eq!(swept, flat_sweep, "shards={shards} threads={threads}");
            cold_then_warm(&fresh(), "approx sweep", |e| {
                sweep(
                    e,
                    threshold,
                    Exactness::Approximate,
                    &Budget::unlimited(),
                    None,
                )
                .unwrap()
                .value
            });
        }
    }
}

#[test]
fn exhausted_budget_is_coverage_accounted() {
    let engine = skewed_engine(13, 2, 3);
    let x = anchor(&engine);
    let starved = Budget::unlimited().with_max_joins(0);
    let partial = top_k(&engine, x, 4, Exactness::Exact, &starved)
        .expect("sharded top-k under a zero budget");
    assert!(partial.value.is_empty(), "no joins were allowed");
    assert!(partial.exhausted.is_some(), "the budget marker survives");
    let cov = partial.coverage.expect("coverage attached");
    assert!(cov.identity_holds(), "{cov}");
    assert!(cov.is_partial(), "skipped units must show: {cov}");
    assert!(cov.units_skipped > 0, "{cov}");
}

/// Random catalogs: shard count, thread count and dispatch order must
/// never change a sharded result. Mirrors the budget property suite's
/// catalog strategy.
fn catalogs() -> impl Strategy<Value = (usize, Vec<Vec<Vec<u32>>>)> {
    (1usize..=3).prop_flat_map(|d| {
        let row = proptest::collection::vec(0u32..8, d);
        let communities = proptest::collection::vec(proptest::collection::vec(row, 1..8), 2..6);
        (Just(d), communities)
    })
}

fn build_engine(
    d: usize,
    communities: &[Vec<Vec<u32>>],
    shards: usize,
    threads: usize,
) -> CsjEngine {
    let mut config = EngineConfig::new(1);
    config.threads = threads;
    config.shard.shards = shards;
    let mut engine = CsjEngine::new(d, config);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For arbitrary catalogs, every (shard count, thread count) pairing
    /// merges back to the flat ranking and the flat sweep bit for bit,
    /// with complete coverage.
    #[test]
    fn sharded_results_are_shard_count_independent(
        (d, communities) in catalogs(),
        shards in 1usize..9,
        threads in 1usize..5,
        threshold_tenths in 0u32..=10,
    ) {
        let threshold = f64::from(threshold_tenths) / 10.0;
        let flat_engine = build_engine(d, &communities, 1, 1);
        let x = flat_engine.find("c0").expect("registered");
        let flat_topk = flat_engine.top_k_similar(x, 3).expect("flat top-k");
        let flat_pairs = flat_engine.pairs_above(threshold).expect("flat sweep");

        let engine = build_engine(d, &communities, shards, threads);
        let x = engine.find("c0").expect("registered");
        let topk = top_k(&engine, x, 3, Exactness::Exact, &Budget::unlimited())
            .expect("sharded top-k");
        prop_assert_eq!(&topk.value, &flat_topk);
        let cov = topk.coverage.expect("coverage attached");
        prop_assert!(cov.identity_holds() && !cov.is_partial());

        let swept = sweep(&engine, threshold, Exactness::Exact, &Budget::unlimited(), None)
            .expect("sharded sweep");
        prop_assert_eq!(&swept.value.pairs, &flat_pairs);
        let cov = swept.coverage.expect("coverage attached");
        prop_assert!(cov.identity_holds() && !cov.is_partial());
    }
}

/// Fault injection: losses shrink coverage, never corrupt survivors.
mod faults {
    use super::*;
    use csj_engine::{PairScore, ShardFaultPlan};
    use csj_obs::AttrValue;

    /// Survivors of a partial query must agree exactly with the flat
    /// result restricted to the same communities.
    fn assert_survivors_exact(survivors: &[PairScore], flat: &[PairScore]) {
        for s in survivors {
            let reference = flat
                .iter()
                .find(|p| p.x == s.x && p.y == s.y)
                .unwrap_or_else(|| panic!("survivor {s:?} not in the flat result"));
            assert_eq!(s.similarity, reference.similarity, "corrupted survivor");
        }
    }

    #[test]
    fn persistent_kill_shrinks_coverage_and_keeps_survivors_exact() {
        let reference = skewed_engine(17, 1, 1);
        let x = anchor(&reference);
        let flat = reference.top_k_similar(x, 5).expect("flat top-k");

        let mut engine = skewed_engine(17, 2, 3);
        engine.inject_shard_faults(ShardFaultPlan::new().kill(0, u32::MAX));
        let x = anchor(&engine);
        let partial =
            top_k(&engine, x, 5, Exactness::Exact, &Budget::unlimited()).expect("typed, not Err");
        let cov = partial.coverage.expect("coverage attached");
        assert!(cov.identity_holds(), "{cov}");
        assert!(cov.is_partial(), "a lost shard must show: {cov}");
        assert_eq!(cov.failed, 1, "exactly the attacked shard fails: {cov}");
        assert!(cov.units_skipped > 0, "its members went unscreened: {cov}");
        assert_survivors_exact(&partial.value, &flat);
    }

    #[test]
    fn lost_shard_members_are_not_budget_skips() {
        let mut engine = skewed_engine(17, 2, 3);
        engine.inject_shard_faults(ShardFaultPlan::new().kill(0, u32::MAX));
        let x = anchor(&engine);
        let candidates: Vec<_> = engine.handles().filter(|&h| h != x).collect();
        let lost = engine.shard_layout(&candidates).expect("layout").shards[0].len() as u64;
        let starved = Budget::unlimited().with_max_joins(0);
        let partial = top_k(&engine, x, 5, Exactness::Exact, &starved).expect("typed, not Err");
        let cov = partial.coverage.expect("coverage attached");
        assert_eq!(cov.units_skipped, candidates.len() as u64, "{cov}");
        let marker = partial.exhausted.expect("the cap stopped the query");
        assert_eq!(
            marker.pairs_skipped,
            cov.units_skipped - lost,
            "the killed shard's members are coverage loss, not budget skips"
        );
    }

    #[test]
    fn single_kill_loses_one_query_then_heals() {
        let reference = skewed_engine(19, 1, 1);
        let x = anchor(&reference);
        let flat = reference.top_k_similar(x, 5).expect("flat top-k");

        let mut engine = skewed_engine(19, 2, 3);
        engine.inject_shard_faults(ShardFaultPlan::new().kill(1, 1));
        let x = anchor(&engine);
        let first =
            top_k(&engine, x, 5, Exactness::Exact, &Budget::unlimited()).expect("typed, not Err");
        let cov = first.coverage.expect("coverage attached");
        assert!(cov.identity_holds(), "{cov}");
        assert_eq!(cov.failed, 1, "the killed shard is not run again: {cov}");
        assert_survivors_exact(&first.value, &flat);

        // The one charge is spent: the next query runs every shard.
        let second =
            top_k(&engine, x, 5, Exactness::Exact, &Budget::unlimited()).expect("healthy again");
        let cov = second.coverage.expect("coverage attached");
        assert!(cov.identity_holds() && !cov.is_partial(), "{cov}");
        assert_eq!(second.value, flat, "bit-identical to the flat result");
    }

    #[test]
    fn injected_panics_resolve_typed_and_never_escape() {
        let mut engine = skewed_engine(23, 2, 3);
        engine.inject_shard_faults(ShardFaultPlan::new().panic_on(0, u32::MAX));
        let swept = sweep(&engine, 0.0, Exactness::Exact, &Budget::unlimited(), None)
            .expect("panic contained at the shard boundary");
        let cov = swept.coverage.expect("coverage attached");
        assert!(cov.identity_holds(), "{cov}");
        assert_eq!(cov.failed, 1, "{cov}");
        // And the engine stays usable afterwards.
        engine.clear_shard_faults();
        let healthy = sweep(&engine, 0.0, Exactness::Exact, &Budget::unlimited(), None)
            .expect("healthy again");
        assert!(!healthy.coverage.expect("coverage").is_partial());
    }

    /// A lost shard's panic payload lands on its span in the query
    /// trace; the surviving shards' spans carry none.
    #[test]
    fn panicked_shard_span_carries_its_panic_message() {
        let mut engine = skewed_engine(23, 2, 3);
        engine.inject_shard_faults(ShardFaultPlan::new().panic_on(0, 1).kill(1, 1));
        sweep(&engine, 0.0, Exactness::Exact, &Budget::unlimited(), None)
            .expect("panics contained at the shard boundary");
        let trace = engine.traces(1).pop().expect("query traced");
        let shards = trace.root.find("shards").expect("shards phase");
        let panic_of = |shard: usize| {
            let span = shards
                .children
                .iter()
                .find(|s| matches!(s.get_attr("shard"), Some(AttrValue::U64(i)) if *i == shard as u64))
                .unwrap_or_else(|| panic!("no span for shard {shard}"));
            match span.get_attr("panic") {
                Some(AttrValue::Str(message)) => Some(message.clone()),
                None => None,
                other => panic!("panic attribute is a string, got {other:?}"),
            }
        };
        assert_eq!(
            panic_of(0).as_deref(),
            Some("injected shard panic (shard 0)")
        );
        assert_eq!(
            panic_of(1).as_deref(),
            Some("shard 1 worker killed by fault injector")
        );
        assert_eq!(panic_of(2), None, "a completed shard has no panic");
    }

    #[test]
    fn sweep_that_loses_a_shard_resumes_to_the_missing_pairs() {
        let reference = skewed_engine(29, 1, 1)
            .pairs_above(0.0)
            .expect("unfaulted sweep");

        let mut engine = skewed_engine(29, 2, 3);
        engine.inject_shard_faults(ShardFaultPlan::new().kill(0, u32::MAX));
        let first = sweep(&engine, 0.0, Exactness::Exact, &Budget::unlimited(), None)
            .expect("typed, not Err");
        let cov = first.coverage.expect("coverage attached");
        assert_eq!(cov.failed, 1, "the killed shard is lost: {cov}");
        assert!(
            first.exhausted.is_none(),
            "shard loss is coverage, not budget"
        );
        let cursor = first.value.cursor.expect("a lost shard leaves a cursor");
        assert_survivors_exact(&first.value.pairs, &reference);

        engine.clear_shard_faults();
        let rest = sweep(
            &engine,
            0.0,
            Exactness::Exact,
            &Budget::unlimited(),
            Some(cursor),
        )
        .expect("resume succeeds");
        assert!(rest.is_complete(), "{:?}", rest.coverage);
        assert!(rest.value.cursor.is_none());
        let mut union: Vec<PairScore> = first.value.pairs.clone();
        union.extend(rest.value.pairs.iter().copied());
        let key = |p: &PairScore| (p.x.0, p.y.0);
        union.sort_by_key(key);
        let mut expected = reference.clone();
        expected.sort_by_key(key);
        assert_eq!(
            union, expected,
            "first slice plus resumed slice are disjoint and jointly exhaustive"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Property: correctness under a single persistent shard loss —
        /// the sharded sweep's survivors are always a subset of the flat
        /// sweep with identical scores, and the fate identity holds.
        #[test]
        fn lossy_sweep_is_an_exact_subset(
            (d, communities) in catalogs(),
            shards in 2usize..6,
        ) {
            let flat = build_engine(d, &communities, 1, 1)
                .pairs_above(0.0)
                .expect("flat sweep");
            let mut engine = build_engine(d, &communities, shards, 2);
            engine.inject_shard_faults(ShardFaultPlan::new().kill(0, u32::MAX));
            let swept = sweep(&engine, 0.0, Exactness::Exact, &Budget::unlimited(), None)
                .expect("typed");
            let cov = swept.coverage.expect("coverage attached");
            prop_assert!(cov.identity_holds());
            for s in &swept.value.pairs {
                let reference = flat
                    .iter()
                    .find(|p| p.x == s.x && p.y == s.y);
                prop_assert!(reference.is_some(), "phantom pair {:?}", s);
                prop_assert_eq!(reference.unwrap().similarity, s.similarity);
            }
        }
    }
}
