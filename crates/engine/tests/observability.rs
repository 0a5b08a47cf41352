//! End-to-end observability: metrics snapshots and flight-recorder
//! traces produced by real engine queries.

use csj_core::Community;
use csj_engine::{Budget, CsjEngine, EngineConfig, ExhaustReason};

fn community(name: &str, rows: &[[u32; 2]]) -> Community {
    Community::from_rows(
        name,
        2,
        rows.iter().enumerate().map(|(i, v)| (i as u64, v.to_vec())),
    )
    .expect("well-formed")
}

fn engine_with_three() -> (
    CsjEngine,
    csj_engine::CommunityHandle,
    csj_engine::CommunityHandle,
    csj_engine::CommunityHandle,
) {
    let mut engine = CsjEngine::new(2, EngineConfig::new(1));
    let anchor = community("anchor", &[[1, 1], [5, 5], [9, 9], [13, 13]]);
    let near = community("near", &[[1, 2], [5, 5], [9, 8], [100, 100]]);
    let far = community("far", &[[50, 0], [60, 0], [70, 0], [80, 0]]);
    let a = engine.register(anchor).unwrap();
    let n = engine.register(near).unwrap();
    let f = engine.register(far).unwrap();
    (engine, a, n, f)
}

#[test]
fn queries_populate_the_metrics_registry() {
    let (engine, a, n, f) = engine_with_three();
    engine.top_k_similar(a, 5).unwrap();
    engine.similarity(a, n).unwrap();
    engine.similarity(n, a).unwrap(); // cache hit

    let snap = engine.metrics_snapshot();
    assert_eq!(
        snap.counter_value("csj_queries_total", &[("kind", "top_k")]),
        1
    );
    assert_eq!(
        snap.counter_value("csj_queries_total", &[("kind", "similarity")]),
        2
    );
    // The top-k screened both candidates with ap-minmax and refined the
    // shortlisted one with ex-minmax; both similarity() calls were then
    // served from the cache it populated.
    assert_eq!(
        snap.counter_value("csj_joins_total", &[("method", "ap-minmax")]),
        2
    );
    assert_eq!(
        snap.counter_value("csj_joins_total", &[("method", "ex-minmax")]),
        1
    );
    assert_eq!(snap.counter_value("csj_cache_hits_total", &[]), 2);
    assert!(snap.counter_value("csj_rows_driven_total", &[]) > 0);
    assert!(snap.counter_value("csj_match_events_total", &[("kind", "match")]) >= 3);
    // Gauges reflect registry state at snapshot time.
    assert_eq!(snap.counter_value("csj_communities", &[]), 3);
    assert_eq!(snap.counter_value("csj_cached_pairs", &[]), 1);
    let _ = f;

    // Per-method latency histograms carry every join.
    let prom = snap.to_prometheus();
    assert!(prom.contains("# TYPE csj_join_latency_seconds histogram"));
    assert!(prom.contains("csj_join_latency_seconds_count{method=\"ap-minmax\"} 2"));
    assert!(prom.contains("csj_join_latency_seconds_count{method=\"ex-minmax\"} 1"));
    assert!(prom.contains("csj_candidate_stream_depth_bucket"));
}

#[test]
fn budget_exhaustion_is_counted_and_traced() {
    let (engine, a, n, f) = engine_with_three();
    let budget = Budget::unlimited().with_max_joins(0);
    let partial = engine.screen_with_budget(a, &[n, f], &budget).unwrap();
    assert_eq!(
        partial.exhausted.expect("exhausted").reason,
        ExhaustReason::MaxJoins
    );

    let snap = engine.metrics_snapshot();
    assert_eq!(
        snap.counter_value("csj_budget_exhausted_total", &[("reason", "max-joins")]),
        1
    );
    assert_eq!(
        snap.counter_value("csj_budget_exhausted_total", &[("reason", "deadline")]),
        0
    );

    // The flight recorder holds the exhausted query's span tree.
    let traces = engine.traces(1);
    assert_eq!(traces.len(), 1);
    let trace = &traces[0];
    assert_eq!(trace.kind, "screen");
    assert_eq!(trace.outcome, "exhausted:max-joins");
    assert!(trace.root.find("screen").is_some(), "screen phase span");
    let json = trace.to_json();
    assert!(json.contains("\"outcome\":\"exhausted:max-joins\""));
    assert!(json.contains("\"name\":\"screen\""));
}

#[test]
fn flight_recorder_keeps_the_most_recent_queries() {
    let (engine, a, n, _) = engine_with_three();
    for _ in 0..3 {
        engine.similarity(a, n).unwrap();
    }
    engine.pairs_above(0.5).unwrap();
    let traces = engine.traces(2);
    assert_eq!(traces.len(), 2, "last two queries, oldest first");
    assert_eq!(traces[0].kind, "similarity");
    assert_eq!(traces[1].kind, "pairs_above");
    assert!(traces[1].root.find("sweep").is_some());
    // Trace ids are assigned in completion order.
    assert!(traces[0].id < traces[1].id);
}

#[test]
fn top_k_trace_has_screen_and_refine_phases_with_join_spans() {
    let (engine, a, _, _) = engine_with_three();
    engine.top_k_similar(a, 5).unwrap();
    let traces = engine.traces(1);
    let trace = &traces[0];
    assert_eq!(trace.kind, "top_k");
    assert_eq!(trace.outcome, "completed");
    let screen = trace.root.find("screen").expect("screen phase");
    assert_eq!(screen.children.len(), 2, "both candidates screened");
    for join in &screen.children {
        assert_eq!(join.name, "join");
        assert_eq!(
            join.get_attr("method").map(ToString::to_string),
            Some("ap-minmax".to_string())
        );
    }
    let refine = trace.root.find("refine").expect("refine phase");
    assert_eq!(refine.children.len(), 1, "one shortlisted refine join");
}

#[test]
fn disabled_observability_records_nothing() {
    let mut config = EngineConfig::new(1);
    config.obs.enabled = false;
    let mut engine = CsjEngine::new(2, config);
    let a = engine
        .register(community("anchor", &[[1, 1], [5, 5]]))
        .unwrap();
    let n = engine
        .register(community("near", &[[1, 2], [5, 5]]))
        .unwrap();
    engine.similarity(a, n).unwrap();
    assert!(engine.traces(10).is_empty());
    let snap = engine.metrics_snapshot();
    assert_eq!(
        snap.counter_value("csj_queries_total", &[("kind", "similarity")]),
        0
    );
    // The engine's own stats still work.
    assert_eq!(engine.stats().joins_executed, 1);
}

#[test]
fn engine_stats_display_is_human_readable() {
    let (engine, a, n, _) = engine_with_three();
    engine.similarity(a, n).unwrap();
    let text = engine.stats().to_string();
    assert!(text.contains("communities:     3"));
    assert!(text.contains("joins executed:  1"));
    assert!(text.contains("rows driven"), "telemetry block included");
}

/// An attribute's value as text ("-" when the span lacks it).
fn shown(value: Option<impl ToString>) -> String {
    value.map_or_else(|| "-".to_string(), |v| v.to_string())
}

#[test]
fn sweep_trace_says_which_pairs_were_screened_pruned_or_refined_directly() {
    // One task (one worker, one shard) over four identical communities:
    // it screens and refines the first pair, which prices the screen,
    // and since nothing is pruned it refines the other five directly.
    let mut config = EngineConfig::new(1);
    config.threads = 1;
    config.shard.shards = 1;
    let mut engine = CsjEngine::new(2, config);
    for name in ["p", "q", "r", "s"] {
        engine
            .register(community(name, &[[1, 1], [5, 5], [9, 9], [13, 13]]))
            .unwrap();
    }
    assert_eq!(engine.pairs_above(0.5).unwrap().len(), 6);
    let trace = &engine.traces(1)[0];
    let sweep = trace.root.find("sweep").expect("sweep phase");
    assert_eq!(shown(sweep.get_attr("screened")), "1");
    assert_eq!(shown(sweep.get_attr("pruned")), "0");
    assert_eq!(shown(sweep.get_attr("direct_refines")), "5");
    assert_eq!(
        shown(sweep.get_attr("joins")),
        "7",
        "one screen, six refines"
    );
    assert_eq!(engine.stats().joins_executed, 7);

    // A warm sweep is served from the cache: no pair is screened,
    // pruned or refined, and no join runs.
    engine.pairs_above(0.5).unwrap();
    let trace = &engine.traces(1)[0];
    let sweep = trace.root.find("sweep").expect("sweep phase");
    assert_eq!(shown(sweep.get_attr("screened")), "0");
    assert_eq!(shown(sweep.get_attr("direct_refines")), "0");
    assert_eq!(shown(sweep.get_attr("joins")), "0");
}
