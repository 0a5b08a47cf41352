//! End-to-end planner behaviour: `Auto` resolution by the density rule
//! across every query kind, agreement with `csj_core`'s resolution, the
//! Section 6 regimes, plan metrics and traces.

use csj_core::plan::{choose, DENSITY_THRESHOLD};
use csj_core::{run, run_prepared, Community, CsjMethod, CsjOptions, PreparedCommunity};
use csj_data::pairs::{build_couple, BuildOptions, Dataset};
use csj_data::COUPLES;
use csj_engine::{CsjEngine, EngineConfig, Exactness, PlanInput};

fn community(name: &str, rows: &[[u32; 2]]) -> Community {
    Community::from_rows(
        name,
        2,
        rows.iter().enumerate().map(|(i, v)| (i as u64, v.to_vec())),
    )
    .expect("well-formed")
}

/// An engine whose screening *and* refinement both delegate to the
/// planner.
fn auto_engine() -> (
    CsjEngine,
    csj_engine::CommunityHandle,
    csj_engine::CommunityHandle,
    csj_engine::CommunityHandle,
) {
    let mut config = EngineConfig::new(1);
    config.screen_method = CsjMethod::Auto;
    config.refine_method = CsjMethod::Auto;
    let mut engine = CsjEngine::new(2, config);
    let anchor = community("anchor", &[[1, 1], [5, 5], [9, 9], [13, 13]]);
    let near = community("near", &[[1, 2], [5, 5], [9, 8], [100, 100]]);
    let far = community("far", &[[50, 0], [60, 0], [70, 0], [80, 0]]);
    let a = engine.register(anchor).unwrap();
    let n = engine.register(near).unwrap();
    let f = engine.register(far).unwrap();
    (engine, a, n, f)
}

#[test]
fn auto_resolves_on_every_query_kind() {
    let (engine, a, n, f) = auto_engine();

    // All five query kinds run with both methods delegated.
    let sim = engine.similarity(a, n).unwrap();
    assert!(sim.ratio() > 0.0);
    let screen = engine.screen(a, &[n, f]).unwrap();
    assert_eq!(screen.shortlisted.len() + screen.rejected.len(), 2);
    let ranked = engine.screen_and_refine(a, &[n, f]).unwrap();
    assert!(!ranked.is_empty());
    let top = engine.top_k_similar(a, 2).unwrap();
    assert!(!top.is_empty());
    let pairs = engine.pairs_above(0.5).unwrap();
    assert!(!pairs.is_empty());

    let snap = engine.metrics_snapshot();
    // Every join the planner resolved is counted under a concrete
    // method — `auto` never reaches the kernel or the metrics.
    let planned: u64 = CsjMethod::ALL
        .iter()
        .map(|m| snap.counter_value("csj_plan_selected_total", &[("method", m.name())]))
        .sum();
    assert!(planned > 0, "Auto plans must be counted");
    let joins: u64 = CsjMethod::ALL
        .iter()
        .map(|m| snap.counter_value("csj_joins_total", &[("method", m.name())]))
        .sum();
    assert_eq!(joins, planned, "every join here went through the planner");
    assert!(snap.counter_value("csj_plan_actual_us_total", &[]) > 0);

    // The metrics flow through the Prometheus exposition too.
    let prom = snap.to_prometheus();
    assert!(prom.contains("csj_plan_selected_total"));
    assert!(prom.contains("csj_plan_actual_us_total"));
}

#[test]
fn plan_traces_carry_density_and_threshold() {
    let (engine, a, n, _) = auto_engine();
    engine.similarity(a, n).unwrap();
    let traces = engine.traces(4);
    let trace = traces.last().expect("similarity trace recorded");
    let plan = trace.root.find("plan").expect("plan span");
    let expected = engine.plan_pair(a, n, Exactness::Exact).unwrap();
    assert!(matches!(
        plan.get_attr("method"),
        Some(csj_obs::AttrValue::Str(m)) if m.as_str() == expected.chosen.name()
    ));
    assert_eq!(
        plan.get_attr("density"),
        Some(&csj_obs::AttrValue::F64(expected.input.density))
    );
    assert_eq!(
        plan.get_attr("threshold"),
        Some(&csj_obs::AttrValue::F64(DENSITY_THRESHOLD))
    );
    assert!(plan.get_attr("exactness").is_some());
    assert!(plan.get_attr("actual_us").is_some());
}

#[test]
fn engine_plans_match_the_core_rule() {
    // The engine, `run` and `run_prepared` resolve `Auto` through one
    // function on one density, so they cannot disagree.
    let (engine, a, n, _) = auto_engine();
    let plan = engine.plan_pair(a, n, Exactness::Any).unwrap();
    assert_eq!(plan.chosen, choose(plan.input.density, Exactness::Any));
    assert_eq!(plan, engine.plan_pair(a, n, Exactness::Any).unwrap());
    let exact = engine.plan_pair(a, n, Exactness::Exact).unwrap();
    assert!(Exactness::Exact.admits(exact.chosen));
    assert_eq!(exact.input.density, plan.input.density);

    let b = community("anchor", &[[1, 1], [5, 5], [9, 9], [13, 13]]);
    let other = community("near", &[[1, 2], [5, 5], [9, 8], [100, 100]]);
    let opts = CsjOptions::new(1);
    assert_eq!(
        run(CsjMethod::Auto, &b, &other, &opts).unwrap().method,
        plan.chosen
    );
    let (pb, pa) = (
        PreparedCommunity::new(b, &opts),
        PreparedCommunity::new(other, &opts),
    );
    assert_eq!(
        PlanInput::from_prepared(&pb, &pa, Exactness::Any).density,
        plan.input.density
    );
    assert_eq!(
        run_prepared(CsjMethod::Auto, &pb, &pa, &opts)
            .unwrap()
            .method,
        plan.chosen
    );
}

#[test]
fn engines_plan_identically_across_instances() {
    let engine = || {
        let mut config = EngineConfig::new(1);
        config.refine_method = CsjMethod::Auto;
        let mut engine = CsjEngine::new(2, config);
        let x = engine
            .register(community("x", &[[1, 1], [5, 5], [9, 9], [13, 13]]))
            .unwrap();
        let y = engine
            .register(community("y", &[[1, 2], [5, 5], [9, 8], [100, 100]]))
            .unwrap();
        (engine, x, y)
    };
    let (e1, x1, y1) = engine();
    let (e2, x2, y2) = engine();
    // Warm one engine with queries: the rule keeps no state, so
    // latencies cannot move its plans.
    for _ in 0..5 {
        e1.similarity_with(x1, y1, CsjMethod::ExBaseline).unwrap();
    }
    let p1 = e1.plan_pair(x1, y1, Exactness::Any).unwrap();
    let p2 = e2.plan_pair(x2, y2, Exactness::Any).unwrap();
    assert_eq!(p1, p2, "plans are identical across engines");
    assert_eq!(format!("{p1:?}"), format!("{p2:?}"));
}

#[test]
fn explicit_methods_bypass_the_planner() {
    // Default config: concrete screen/refine methods.
    let mut engine = CsjEngine::new(2, EngineConfig::new(1));
    let x = engine.register(community("x", &[[1, 1], [5, 5]])).unwrap();
    let y = engine.register(community("y", &[[1, 2], [5, 5]])).unwrap();
    engine.similarity(x, y).unwrap();
    engine.similarity_with(x, y, CsjMethod::ExBaseline).unwrap();
    let snap = engine.metrics_snapshot();
    let planned: u64 = CsjMethod::ALL
        .iter()
        .map(|m| snap.counter_value("csj_plan_selected_total", &[("method", m.name())]))
        .sum();
    assert_eq!(planned, 0, "no Auto in play -> no plans recorded");
}

#[test]
fn auto_refinement_feeds_the_exact_cache() {
    let (engine, a, n, _) = auto_engine();
    let first = engine.similarity(a, n).unwrap();
    let stats_before = engine.stats();
    let second = engine.similarity(a, n).unwrap();
    let stats_after = engine.stats();
    assert_eq!(first, second);
    assert_eq!(
        stats_after.cache_hits,
        stats_before.cache_hits + 1,
        "planned exact refinement is cacheable"
    );
}

#[test]
fn plan_input_from_engine_is_well_formed() {
    let (engine, a, n, _) = auto_engine();
    let plan = engine.plan_pair(a, n, Exactness::Any).unwrap();
    let input: PlanInput = plan.input;
    assert_eq!(input.exactness, Exactness::Any);
    assert!(input.density > 0.0 && input.density <= 1.0);
}

/// Paper §6.2: MinMax wins on skewed VK data (eps 1), the SuperEGO
/// family on uniform data (eps 15,000). At scale 128 the rule must pick
/// Ex-MinMax / Ap-MinMax on every VK-like couple and Ex-Hybrid /
/// Ap-SuperEGO on every uniform one, through the engine and through
/// `csj_core::run_prepared`.
#[test]
fn auto_picks_by_regime_on_the_section6_couples() {
    for (dataset, exact, approximate) in [
        (Dataset::VkLike, CsjMethod::ExMinMax, CsjMethod::ApMinMax),
        (Dataset::Uniform, CsjMethod::ExHybrid, CsjMethod::ApSuperEgo),
    ] {
        for spec in &COUPLES {
            let pair = build_couple(
                spec,
                dataset,
                BuildOptions {
                    scale: 128,
                    seed: 71,
                },
            );
            let opts = CsjOptions::new(pair.eps);
            let mut engine = CsjEngine::new(pair.b.d(), EngineConfig::new(pair.eps));
            let b = engine.register(pair.b.clone()).unwrap();
            let a = engine.register(pair.a.clone()).unwrap();
            let label = format!("{} cid {}", dataset.name(), spec.cid);
            let plan = engine.plan_pair(b, a, Exactness::Exact).unwrap();
            assert_eq!(plan.chosen, exact, "{label}: {plan:?}");
            let plan = engine.plan_pair(b, a, Exactness::Approximate).unwrap();
            assert_eq!(plan.chosen, approximate, "{label}: {plan:?}");
            let (pb, pa) = (
                PreparedCommunity::new(pair.b, &opts),
                PreparedCommunity::new(pair.a, &opts),
            );
            assert_eq!(
                PlanInput::from_prepared(&pb, &pa, Exactness::Any).density,
                plan.input.density,
                "{label}"
            );
        }
    }
}
