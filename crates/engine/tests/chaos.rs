//! Chaos tests: injected panics, errors, and slowdowns must degrade
//! per-candidate, never abort a query or poison the engine.

use std::time::Duration;

mod common;

use common::{screened, sweep, top_k};
use csj_core::Community;
use csj_engine::fault::FaultPlan;
use csj_engine::{
    Budget, CommunityHandle, CsjEngine, EngineConfig, EngineError, Exactness, ExhaustReason,
    PairScore,
};

fn community(name: &str, rows: &[[u32; 2]]) -> Community {
    Community::from_rows(
        name,
        2,
        rows.iter().enumerate().map(|(i, v)| (i as u64, v.to_vec())),
    )
    .expect("well-formed")
}

/// An anchor plus five same-size candidates of decreasing similarity.
fn engine_with_candidates() -> (CsjEngine, CommunityHandle, Vec<CommunityHandle>) {
    let mut engine = CsjEngine::new(2, EngineConfig::new(1));
    let anchor = community("anchor", &[[1, 1], [5, 5], [9, 9], [13, 13]]);
    let x = engine.register(anchor).unwrap();
    let mut candidates = Vec::new();
    for k in 0..5u32 {
        let s = k * 2;
        let rows = [[1 + s, 1], [5 + s, 5], [9 + s, 9], [13 + s, 13]];
        let name = format!("cand{k}");
        candidates.push(engine.register(community(&name, &rows)).unwrap());
    }
    (engine, x, candidates)
}

/// The candidates a ranking scored, in handle order.
fn ranked(ranking: &[PairScore]) -> Vec<CommunityHandle> {
    let mut ys: Vec<CommunityHandle> = ranking.iter().map(|p| p.y).collect();
    ys.sort();
    ys
}

/// `candidates` without `victim`.
fn all_but(candidates: &[CommunityHandle], victim: CommunityHandle) -> Vec<CommunityHandle> {
    candidates
        .iter()
        .copied()
        .filter(|&c| c != victim)
        .collect()
}

#[test]
fn screen_survives_a_panicking_candidate() {
    let (mut engine, x, candidates) = engine_with_candidates();
    let victim = candidates[2];
    engine.inject_faults(FaultPlan::new().panic_on(victim.0));

    let outcome = screened(&engine, x).expect("one poisoned candidate must not fail the query");
    assert_eq!(
        ranked(&outcome.value),
        all_but(&candidates, victim),
        "every healthy candidate got a result"
    );
    assert!(outcome.is_complete(), "nothing skipped");
    assert_eq!(
        engine
            .metrics_snapshot()
            .counter_value("csj_join_panics_total", &[]),
        1
    );
    // The victim's own join reports the panic, named and with its message.
    match engine.similarity(x, victim) {
        Err(EngineError::JoinPanicked { handle, message }) => {
            assert_eq!(handle, victim.0);
            assert!(message.contains("injected fault"), "got: {message}");
        }
        other => panic!("expected JoinPanicked, got {other:?}"),
    }

    // The engine stays fully usable afterwards.
    engine.clear_faults();
    let healthy = screened(&engine, x).unwrap();
    assert_eq!(ranked(&healthy.value), candidates);
}

#[test]
fn error_faults_are_contained_per_candidate() {
    let (mut engine, x, candidates) = engine_with_candidates();
    let victim = candidates[0];
    engine.inject_faults(FaultPlan::new().error_on(victim.0));

    let outcome = screened(&engine, x).unwrap();
    assert_eq!(ranked(&outcome.value), all_but(&candidates, victim));
    assert_eq!(
        engine.similarity(x, victim),
        Err(EngineError::Faulted { handle: victim.0 })
    );
}

#[test]
fn sweep_isolates_a_panicking_pair() {
    let (mut engine, _x, candidates) = engine_with_candidates();
    let victim = candidates[1];
    engine.inject_faults(FaultPlan::new().panic_on(victim.0));

    let partial = sweep(&engine, 0.0, Exactness::Exact, &Budget::unlimited(), None).unwrap();
    assert!(partial.is_complete(), "no budget involved");
    let sweep = partial.value;
    assert!(sweep.cursor.is_none());

    // 6 communities -> 15 pairs; the 5 touching the victim fail, the
    // other 10 all clear the 0.0 threshold.
    assert_eq!(sweep.failed.len(), 5);
    assert!(sweep.failed.iter().all(|(x, y, e)| {
        (*x == victim || *y == victim) && matches!(e, EngineError::JoinPanicked { .. })
    }));
    assert_eq!(sweep.pairs.len(), 10);
    assert!(sweep.pairs.iter().all(|p| p.x != victim && p.y != victim));
}

#[test]
fn slow_join_blows_the_deadline_and_the_sweep_resumes() {
    let (mut engine, _x, _candidates) = engine_with_candidates();
    // Handle 0 orients as B in every pair (smallest handle, equal sizes),
    // so the very first pair stalls well past the deadline.
    engine.inject_faults(FaultPlan::new().slow_on(0, Duration::from_millis(60)));
    let budget = Budget::unlimited().with_deadline(Duration::from_millis(10));

    let partial = sweep(&engine, 0.0, Exactness::Exact, &budget, None).unwrap();
    let marker = partial
        .exhausted
        .expect("the deadline fires during the stalled join");
    assert_eq!(marker.reason, ExhaustReason::Deadline);
    assert!(marker.pairs_skipped > 0);
    let cursor = partial.value.cursor.expect("sweep must be resumable");

    engine.clear_faults();
    let resumed = sweep(
        &engine,
        0.0,
        Exactness::Exact,
        &Budget::unlimited(),
        Some(cursor),
    )
    .unwrap();
    assert!(resumed.is_complete());
    assert!(resumed.value.failed.is_empty());
    assert_eq!(
        partial.value.pairs.len() + resumed.value.pairs.len(),
        15,
        "first slice plus resumed slice cover all C(6,2) pairs"
    );
}

#[test]
fn faults_and_panics_surface_in_the_metrics_snapshot() {
    let (mut engine, x, candidates) = engine_with_candidates();
    engine.inject_faults(
        FaultPlan::new()
            .panic_on(candidates[1].0)
            .error_on(candidates[3].0),
    );
    screened(&engine, x).unwrap();

    let snap = engine.metrics_snapshot();
    assert_eq!(snap.counter_value("csj_join_panics_total", &[]), 1);
    assert_eq!(snap.counter_value("csj_faults_total", &[]), 1);
    // Healthy candidates still executed their screen joins.
    assert_eq!(
        snap.counter_value("csj_joins_total", &[("method", "ap-minmax")]),
        3
    );
    // The Prometheus exposition carries the failure counters too.
    let prom = snap.to_prometheus();
    assert!(prom.contains("csj_join_panics_total 1"));
    assert!(prom.contains("csj_faults_total 1"));
}

#[test]
fn exhaustion_reasons_are_labeled_in_the_snapshot() {
    let (mut engine, x, candidates) = engine_with_candidates();
    engine.inject_faults(FaultPlan::new().slow_on(0, Duration::from_millis(60)));
    let deadline = Budget::unlimited().with_deadline(Duration::from_millis(10));
    sweep(&engine, 0.0, Exactness::Exact, &deadline, None).unwrap();
    engine.clear_faults();
    let strict = Budget::unlimited().with_max_joins(0);
    let every = candidates.len();
    top_k(&engine, x, every, Exactness::Approximate, &strict).unwrap();

    let snap = engine.metrics_snapshot();
    assert_eq!(
        snap.counter_value("csj_budget_exhausted_total", &[("reason", "deadline")]),
        1
    );
    assert_eq!(
        snap.counter_value("csj_budget_exhausted_total", &[("reason", "max-joins")]),
        1
    );
    assert_eq!(
        snap.counter_value("csj_budget_exhausted_total", &[("reason", "cancelled")]),
        0
    );
}

#[test]
fn trace_survives_a_panicked_query() {
    let (mut engine, x, candidates) = engine_with_candidates();
    let victim = candidates[2];
    engine.inject_faults(FaultPlan::new().panic_on(victim.0));

    // similarity() against the victim errors with JoinPanicked, but its
    // trace still lands in the flight recorder.
    let err = engine.similarity(x, victim).unwrap_err();
    assert!(matches!(err, EngineError::JoinPanicked { .. }));
    let traces = engine.traces(1);
    assert_eq!(traces.len(), 1);
    assert_eq!(traces[0].kind, "similarity");
    assert!(
        traces[0].outcome.starts_with("failed:"),
        "got outcome {:?}",
        traces[0].outcome
    );
    assert!(traces[0].outcome.contains("panicked"));

    // A ranking that degrades around the panic completes normally and
    // records a completed trace.
    screened(&engine, x).unwrap();
    let traces = engine.traces(1);
    assert_eq!(traces[0].kind, "top_k");
    assert_eq!(traces[0].outcome, "completed");
}

#[test]
fn panicked_pairs_are_not_cached_as_results() {
    let (mut engine, x, candidates) = engine_with_candidates();
    let victim = candidates[3];
    engine.inject_faults(FaultPlan::new().panic_on(victim.0));
    let with_fault = screened(&engine, x).unwrap();
    assert_eq!(ranked(&with_fault.value), all_but(&candidates, victim));

    // Once the fault is gone, the victim scores like everyone else —
    // nothing stale was recorded while it was poisoned.
    engine.clear_faults();
    let sim = engine.similarity(x, victim).expect("victim is healthy now");
    assert!(sim.ratio() >= 0.0);
    let healthy = screened(&engine, x).unwrap();
    assert_eq!(ranked(&healthy.value), candidates);
}
