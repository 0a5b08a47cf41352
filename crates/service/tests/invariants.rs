//! Service invariants, end to end:
//!
//! (a) every submitted request resolves to exactly one of {answered,
//!     degraded-answered, shed, failed-typed}, and the counters agree:
//!     `admitted + shed == submitted`;
//! (b) shedding happens only under genuine backlog — light sequential
//!     load never sheds;
//! (c) an exact pass that panics or faults degrades that request once
//!     to its approximate counterpart (trigger `failure`), and a second
//!     failure is typed (chaos tests);
//! (d) a degraded answer is the approximate counterpart's (screen
//!     scores for multi-pair kinds): a sound lower bound within a
//!     factor of two of the exact score, with a note naming the method
//!     that ran.

use std::sync::Arc;
use std::time::Duration;

use csj_core::{Community, CsjMethod};
use csj_engine::{CommunityHandle, CsjEngine, EngineConfig};
use csj_service::{
    CsjService, Fate, Request, Response, ResponseValue, ServiceConfig, ServiceError,
};

fn community(name: &str, rows: &[[u32; 2]]) -> Community {
    Community::from_rows(
        name,
        2,
        rows.iter().enumerate().map(|(i, v)| (i as u64, v.to_vec())),
    )
    .expect("well-formed")
}

/// Three small communities: `near` overlaps `anchor` on 3 of 4 users,
/// `far` on none.
fn engine_with_three() -> (CsjEngine, CommunityHandle, CommunityHandle, CommunityHandle) {
    let mut engine = CsjEngine::new(2, EngineConfig::new(1));
    let a = engine
        .register(community("anchor", &[[1, 1], [5, 5], [9, 9], [13, 13]]))
        .unwrap();
    let n = engine
        .register(community("near", &[[1, 2], [5, 5], [9, 8], [100, 100]]))
        .unwrap();
    let f = engine
        .register(community("far", &[[50, 0], [60, 0], [70, 0], [80, 0]]))
        .unwrap();
    (engine, a, n, f)
}

/// Two larger communities so a single uncached join takes measurable
/// time (overload tests need the worker to be busy for a while).
fn slow_engine() -> (CsjEngine, CommunityHandle, CommunityHandle) {
    let mut engine = CsjEngine::new(2, EngineConfig::new(1));
    let rows = |salt: u32| -> Vec<[u32; 2]> {
        (0..500u32)
            .map(|i| [(i * 7 + salt) % 97, (i * 13 + salt) % 89])
            .collect()
    };
    let x = engine.register(community("big-x", &rows(0))).unwrap();
    let y = engine.register(community("big-y", &rows(3))).unwrap();
    (engine, x, y)
}

/// The paper's Section 3 worked example (d = 3, eps 1): B = {b1, b2},
/// A = {a1, a2, a3}; the maximum matching pairs both B users.
fn section3_engine() -> (CsjEngine, CommunityHandle, CommunityHandle) {
    let community = |name: &str, rows: Vec<(u64, Vec<u32>)>| {
        Community::from_rows(name, 3, rows).expect("well-formed")
    };
    let mut engine = CsjEngine::new(3, EngineConfig::new(1));
    let b = engine
        .register(community("B", vec![(1, vec![3, 4, 2]), (2, vec![2, 2, 3])]))
        .unwrap();
    let a = engine
        .register(community(
            "A",
            vec![
                (10, vec![2, 3, 5]),
                (11, vec![2, 3, 1]),
                (12, vec![3, 3, 3]),
            ],
        ))
        .unwrap();
    (engine, b, a)
}

fn similarity(r: &Response) -> csj_core::Similarity {
    match &r.value {
        ResponseValue::Similarity(s) => *s,
        _ => panic!("expected a similarity response"),
    }
}

#[test]
fn light_sequential_load_never_sheds() {
    let (engine, a, _, _) = engine_with_three();
    let service = CsjService::start(engine, ServiceConfig::default());
    for i in 0..30 {
        let request = match i % 3 {
            0 => Request::Similarity {
                x: a,
                y: CommunityHandle(1),
                method: None,
            },
            1 => Request::TopK { x: a, k: 2 },
            _ => Request::PairsAbove { threshold: 0.2 },
        };
        let response = service.call(request).expect("light load never fails");
        assert!(!response.degraded);
        assert_eq!(response.retries, 0);
    }
    let snap = service.metrics_snapshot();
    assert_eq!(snap.counter_value("csj_service_submitted_total", &[]), 30);
    assert_eq!(snap.counter_value("csj_service_admitted_total", &[]), 30);
    assert_eq!(snap.counter_value("csj_service_shed_total", &[]), 0);
    assert_eq!(
        snap.counter_value("csj_service_completed_total", &[("outcome", "answered")]),
        30
    );
}

#[test]
fn overload_sheds_and_every_request_resolves_exactly_once() {
    let (engine, x, y) = slow_engine();
    let service = Arc::new(CsjService::start(
        engine,
        ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        },
    ));
    // Occupy the worker and the queue slot with uncached Ap joins
    // (explicit non-refine method bypasses the exact cache), then flood.
    let blocker = || Request::Similarity {
        x,
        y,
        method: Some(CsjMethod::ApMinMax),
    };
    let b1 = service.submit(blocker()).expect("first blocker fits");
    // Wait until the worker has picked the first blocker up, so the
    // second one deterministically occupies the single queue slot.
    while service.queue_depth() > 0 {
        std::thread::yield_now();
    }
    let b2 = service.submit(blocker()).expect("second blocker fits");
    let blockers = vec![b1, b2];
    let mut handles = Vec::new();
    for _ in 0..4 {
        let service = Arc::clone(&service);
        handles.push(std::thread::spawn(move || {
            let mut fates = (0u64, 0u64, 0u64); // answered, shed, failed
            for _ in 0..15 {
                let result = service
                    .submit(Request::Similarity {
                        x,
                        y,
                        method: Some(CsjMethod::ApMinMax),
                    })
                    .map(|ticket| ticket.wait())
                    .and_then(|r| r);
                match Fate::of(&result) {
                    Fate::Answered => fates.0 += 1,
                    Fate::Shed => {
                        fates.1 += 1;
                        let ServiceError::Overloaded { retry_after } = result.unwrap_err() else {
                            panic!("shed must be Overloaded");
                        };
                        assert!(retry_after > Duration::ZERO);
                    }
                    Fate::Failed => fates.2 += 1,
                    Fate::Degraded => panic!("Ap requests never degrade"),
                }
            }
            fates
        }));
    }
    let mut answered = 0u64;
    let mut shed = 0u64;
    let mut failed = 0u64;
    for h in handles {
        let (a, s, f) = h.join().expect("no panic escapes the service");
        answered += a;
        shed += s;
        failed += f;
    }
    for b in blockers {
        assert!(b.wait().is_ok());
        answered += 1;
    }
    assert_eq!(answered + shed + failed, 62, "every request resolved once");
    assert_eq!(failed, 0);
    assert!(shed > 0, "flooding a 1-worker/1-slot service must shed");

    let snap = service.metrics_snapshot();
    let submitted = snap.counter_value("csj_service_submitted_total", &[]);
    let admitted = snap.counter_value("csj_service_admitted_total", &[]);
    let shed_m = snap.counter_value("csj_service_shed_total", &[]);
    assert_eq!(submitted, 62);
    assert_eq!(
        admitted + shed_m,
        submitted,
        "identity: admitted + shed == submitted"
    );
    assert_eq!(shed_m, shed);
    assert_eq!(
        snap.counter_value("csj_service_completed_total", &[("outcome", "answered")]),
        admitted,
        "every admitted request completed"
    );
}

#[test]
fn deadline_pressure_degrades_to_a_sound_lower_bound() {
    let (three, a, n, _) = engine_with_three();
    let (section3, b, a3) = section3_engine();
    for (engine, x, y) in [(three, a, n), (section3, b, a3)] {
        let service = CsjService::start(
            engine,
            ServiceConfig {
                // Zero deadline: by execution time the slack is below
                // the exact pass's minimum, so the request degrades.
                default_deadline: Some(Duration::ZERO),
                ..ServiceConfig::default()
            },
        );
        let response = service
            .call(Request::Similarity { x, y, method: None })
            .expect("degraded, not failed");
        assert!(response.degraded);
        assert_eq!(response.degrade_trigger, Some("deadline"));
        let note = response.degrade_note.as_deref().unwrap();
        // The refine method's approximate counterpart serves it.
        assert!(note.contains("served by ap-minmax"), "{note}");
        assert!(note.contains("2*score"), "{note}");

        // Soundness: ap <= exact <= 2 * ap, and the greedy matching
        // holds at least half the maximum's pairs.
        let ap = similarity(&response);
        let exact = service.engine().similarity(x, y).unwrap();
        assert!(
            ap.matched >= exact.matched.div_ceil(2),
            "{ap:?} vs {exact:?}"
        );
        assert!(ap.ratio() > 0.0);
        assert!(ap.ratio() <= exact.ratio() + 1e-9, "Ap never over-counts");
        assert!(
            exact.ratio() <= 2.0 * ap.ratio() + 1e-9,
            "exact within 2x of the Ap bound"
        );

        let snap = service.metrics_snapshot();
        assert!(snap.counter_value("csj_service_degraded_total", &[("trigger", "deadline")]) >= 1);
        // The degradation is visible on the request trace.
        let trace = service
            .service_traces(8)
            .into_iter()
            .find(|t| t.outcome == "degraded")
            .expect("degraded trace recorded");
        assert!(matches!(
            trace.root.get_attr("degraded"),
            Some(csj_obs::AttrValue::U64(1))
        ));
        assert!(matches!(
            trace.root.get_attr("degrade_trigger"),
            Some(csj_obs::AttrValue::Str(s)) if s.as_str() == "deadline"
        ));
    }
}

/// A degraded Ex-SuperEGO request runs Ap-Hybrid, whose integer compare
/// keeps the `[max/2, max]` bound. Ap-SuperEGO's `f32` compare would lose
/// both Section 3 pairs (their counters differ by exactly eps).
#[test]
fn degraded_ex_superego_runs_ap_hybrid() {
    let (engine, b, a) = section3_engine();
    let service = CsjService::start(
        engine,
        ServiceConfig {
            default_deadline: Some(Duration::ZERO),
            ..ServiceConfig::default()
        },
    );
    let response = service
        .call(Request::Similarity {
            x: b,
            y: a,
            method: Some(CsjMethod::ExSuperEgo),
        })
        .expect("degraded, not failed");
    assert!(response.degraded);
    let note = response.degrade_note.as_deref().unwrap();
    assert!(note.contains("served by ap-hybrid"), "{note}");
    assert!(similarity(&response).matched >= 1, "{note}");
}

/// Degraded top-k and pairs_above answers rank by the engine's screen
/// scores, and their notes name the screen method, not the refine
/// method's counterpart.
#[test]
fn degraded_multi_pair_notes_name_the_screen_method() {
    let mut config = EngineConfig::new(1);
    config.screen_method = CsjMethod::ApBaseline;
    let mut engine = CsjEngine::new(2, config);
    let a = engine
        .register(community("anchor", &[[1, 1], [5, 5], [9, 9], [13, 13]]))
        .unwrap();
    engine
        .register(community("near", &[[1, 2], [5, 5], [9, 8], [100, 100]]))
        .unwrap();
    let service = CsjService::start(
        engine,
        ServiceConfig {
            default_deadline: Some(Duration::ZERO),
            ..ServiceConfig::default()
        },
    );
    for request in [
        Request::TopK { x: a, k: 2 },
        Request::PairsAbove { threshold: 0.2 },
    ] {
        let response = service.call(request).expect("degraded, not failed");
        assert!(response.degraded);
        assert_eq!(response.degrade_trigger, Some("deadline"));
        let note = response.degrade_note.as_deref().unwrap();
        assert!(note.contains("served by ap-baseline"), "{note}");
        assert_eq!(response.retries, 0);
    }
}

/// SLO burn rates must *reconcile* with the four-fates accounting: the
/// `(bad, total)` pair behind every `csj_slo_*` burn rate is read from
/// the same counters that obey `admitted + shed == submitted` and
/// "completed outcomes partition admitted", so a breached objective
/// without matching fate counters would mean the SLO evaluation invented
/// traffic. Chaos here is an overloaded 1-worker/1-slot service under
/// zero-deadline pressure: sheds, degradeds and answereds all occur.
#[test]
fn slo_burn_rates_reconcile_with_the_four_fates() {
    use csj_obs::{catalog, slo};
    use csj_service::service_slos;

    let (engine, x, y) = slow_engine();
    let service = Arc::new(CsjService::start(
        engine,
        ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            default_deadline: Some(Duration::ZERO),
            ..ServiceConfig::default()
        },
    ));
    // A 1µs latency threshold makes every completed request a bad
    // latency event — the latency objective must breach, and its burn
    // rate must still be explainable from the completion counters.

    // Occupy the worker and the queue slot, then flood (sheds), then
    // let the backlog drain and apply deadline pressure (degradeds).
    let blocker = || Request::Similarity {
        x,
        y,
        method: Some(CsjMethod::ApMinMax),
    };
    let b1 = service.submit(blocker()).expect("first blocker fits");
    while service.queue_depth() > 0 {
        std::thread::yield_now();
    }
    let b2 = service.submit(blocker()).expect("second blocker fits");
    let mut handles = Vec::new();
    for _ in 0..4 {
        let service = Arc::clone(&service);
        handles.push(std::thread::spawn(move || {
            for _ in 0..10 {
                let _ = service
                    .submit(Request::Similarity {
                        x,
                        y,
                        method: Some(CsjMethod::ApMinMax),
                    })
                    .map(|t| t.wait());
            }
        }));
    }
    for h in handles {
        h.join().expect("no panic escapes");
    }
    b1.wait().expect("blocker answered");
    b2.wait().expect("blocker answered");
    // Deadline pressure serves the approximate counterpart.
    for _ in 0..3 {
        let r = service
            .call(Request::Similarity { x, y, method: None })
            .expect("deadline pressure degrades, not fails");
        assert!(r.degraded);
        let note = r.degrade_note.as_deref().unwrap_or_default();
        assert!(note.contains("served by ap-minmax"), "{note}");
    }

    let snap = service.metrics_snapshot();
    let statuses = slo::evaluate(&service_slos(1), &snap);

    let submitted = snap.counter_value("csj_service_submitted_total", &[]);
    let admitted = snap.counter_value("csj_service_admitted_total", &[]);
    let shed = snap.counter_value("csj_service_shed_total", &[]);
    let answered = snap.counter_value("csj_service_completed_total", &[("outcome", "answered")]);
    let degraded = snap.counter_value("csj_service_completed_total", &[("outcome", "degraded")]);
    let failed = snap.counter_value("csj_service_completed_total", &[("outcome", "failed")]);
    assert_eq!(admitted + shed, submitted, "four-fates identity");
    assert_eq!(answered + degraded + failed, admitted, "outcomes partition");
    assert!(shed > 0, "flooding a 1-worker/1-slot service must shed");
    assert!(degraded >= 3);

    assert_eq!(statuses.len(), 3, "one status per objective");
    let mut breaches = 0;
    for s in &statuses {
        match s.objective.as_str() {
            "shed_fraction" => {
                assert_eq!(s.bad, shed, "SLO bad == shed counter");
                assert_eq!(s.total, submitted);
            }
            "degraded_fraction" => {
                assert_eq!(s.bad, degraded);
                assert_eq!(s.total, answered + degraded + failed);
            }
            "request_latency" => {
                assert_eq!(
                    s.total,
                    answered + degraded + failed,
                    "latency histogram observes exactly the completed requests"
                );
            }
            other => panic!("unexpected objective {other}"),
        }
        if s.breached {
            breaches += 1;
            assert!(
                s.bad > 0,
                "a breached objective must have matching bad-fate counters, got {s}"
            );
        }
    }
    assert!(breaches >= 1, "1µs latency budget must breach under load");

    // The exported gauges agree with the evaluated statuses.
    let gauges = slo::gauges(&statuses);
    for s in &statuses {
        let objective = [s.objective.as_str()];
        assert_eq!(
            gauges.value(&catalog::SLO_BREACHED, objective),
            u64::from(s.breached)
        );
    }
}

#[test]
fn shutdown_drains_admitted_requests_then_rejects() {
    let (engine, x, y) = slow_engine();
    let service = CsjService::start(
        engine,
        ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServiceConfig::default()
        },
    );
    let tickets: Vec<_> = (0..4)
        .map(|_| {
            service
                .submit(Request::Similarity {
                    x,
                    y,
                    method: Some(CsjMethod::ApBaseline),
                })
                .expect("queue has room")
        })
        .collect();
    let engine = service.shutdown();
    // Shutdown drained the queue: every admitted ticket has an answer.
    for t in tickets {
        assert!(t.wait().is_ok(), "admitted requests drain on shutdown");
    }
    assert!(Arc::strong_count(&engine) >= 1);
}

#[test]
fn submit_after_shutdown_is_a_typed_shutdown_error() {
    let (engine, a, n, _) = engine_with_three();
    let service = CsjService::start(engine, ServiceConfig::default());
    // Ticket waits after teardown resolve to Shutdown, not a hang: the
    // drop path closes the queue, so exercise via a drained clone.
    drop(service);
    let (engine2, a2, n2, _) = engine_with_three();
    let service2 = CsjService::start(engine2, ServiceConfig::default());
    let _ = (a, n);
    let ok = service2.call(Request::Similarity {
        x: a2,
        y: n2,
        method: None,
    });
    assert!(ok.is_ok());
}

#[test]
fn merged_snapshot_exposes_engine_and_service_series() {
    let (engine, a, n, _) = engine_with_three();
    let service = CsjService::start(engine, ServiceConfig::default());
    service
        .call(Request::Similarity {
            x: a,
            y: n,
            method: None,
        })
        .unwrap();
    let snap = service.metrics_snapshot();
    // Engine series and service series in one exposition.
    assert!(
        snap.counter_value("csj_queries_total", &[("kind", "similarity")]) >= 1,
        "engine series present in the merged snapshot"
    );
    assert!(snap
        .metrics
        .iter()
        .any(|m| m.name.starts_with("csj_service_")));
    let prom = snap.to_prometheus();
    assert!(prom.contains("csj_service_submitted_total"));
    assert!(!prom.is_empty());
}

mod chaos {
    use super::*;
    use csj_engine::fault::FaultPlan;
    use csj_engine::EngineError;

    /// (c) One injected panic in the exact pass: the request degrades
    /// once to Ap-MinMax with trigger `failure`, and its answer is a
    /// sound lower bound within a factor of two. The fault has healed,
    /// so the next request runs the exact path.
    #[test]
    fn exact_failure_degrades_once_to_the_counterpart() {
        let (mut engine, a, n, _) = engine_with_three();
        engine.inject_faults(FaultPlan::new().panic_n_times(n.0, 1));
        let service = CsjService::start(engine, ServiceConfig::default());
        let request = Request::Similarity {
            x: a,
            y: n,
            method: None,
        };

        let degraded = service.call(request.clone()).expect("degraded, not failed");
        assert!(degraded.degraded);
        assert_eq!(degraded.degrade_trigger, Some("failure"));
        let note = degraded.degrade_note.as_deref().unwrap();
        assert!(note.contains("served by ap-minmax"), "{note}");

        let exact = service.call(request).expect("healed");
        assert!(!exact.degraded);
        let (r, e) = (similarity(&degraded).ratio(), similarity(&exact).ratio());
        assert!(
            r > 0.0 && r <= e + 1e-9 && e <= 2.0 * r + 1e-9,
            "{r} vs {e}"
        );

        let snap = service.metrics_snapshot();
        assert_eq!(
            snap.counter_value("csj_service_degraded_total", &[("trigger", "failure")]),
            1
        );
        for (outcome, count) in [("degraded", 1), ("answered", 1), ("failed", 0)] {
            assert_eq!(
                snap.counter_value("csj_service_completed_total", &[("outcome", outcome)]),
                count,
                "{outcome}"
            );
        }
    }

    /// A fault that also hits the counterpart fails the request typed
    /// after exactly two engine passes: the exact one and one
    /// approximate one. Nothing is retried.
    #[test]
    fn injected_fault_fails_typed_without_retry() {
        let (mut engine, a, n, _) = engine_with_three();
        engine.inject_faults(FaultPlan::new().error_on(n.0));
        let service = CsjService::start(engine, ServiceConfig::default());
        let err = service
            .call(Request::Similarity {
                x: a,
                y: n,
                method: None,
            })
            .unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Engine(EngineError::Faulted { .. })
        ));
        let snap = service.metrics_snapshot();
        assert_eq!(
            snap.counter_value("csj_queries_total", &[("kind", "similarity")]),
            2,
            "one exact pass, one approximate pass, no retry"
        );
        assert_eq!(
            snap.counter_value("csj_service_degraded_total", &[("trigger", "failure")]),
            1
        );
        assert_eq!(
            snap.counter_value("csj_service_completed_total", &[("outcome", "failed")]),
            1
        );
    }

    /// Six communities on three shards: the service's broadcast sweep
    /// runs as three pair tasks.
    fn sharded_engine() -> CsjEngine {
        let mut config = EngineConfig::new(1);
        config.threads = 2;
        config.shard.shards = 3;
        let mut engine = CsjEngine::new(2, config);
        for i in 0..6u32 {
            let rows: Vec<[u32; 2]> = (0..4 + i).map(|u| [u * 3 % 7, (u + i) % 5]).collect();
            engine.register(community(&format!("c{i}"), &rows)).unwrap();
        }
        engine
    }

    /// A lost shard degrades a PairsAbove answer, and the answer still
    /// holds every pair the surviving shards found, including those past
    /// the sweep's resume cursor (the service does not resume).
    #[test]
    fn pairs_above_keeps_every_surviving_pair_when_a_shard_is_lost() {
        use csj_engine::{Budget, ShardFaultPlan};

        let kill_first = || ShardFaultPlan::new().kill(0, u32::MAX);
        let mut direct = sharded_engine();
        direct.inject_shard_faults(kill_first());
        let swept = direct
            .pairs_above_with_budget(0.0, &Budget::unlimited(), None)
            .expect("typed, not Err")
            .into_value();
        // The killed task holds the first pair, so nothing precedes the
        // cursor and every survivor lies past it.
        assert!(swept.pairs.is_empty() && swept.cursor.is_some());
        let mut survivors = swept.ahead;
        assert!(!survivors.is_empty(), "surviving shards found pairs");
        let all = sharded_engine().pairs_above(0.0).expect("unfaulted sweep");
        assert!(
            survivors.len() < all.len(),
            "the lost shard's pairs are missing"
        );

        let mut engine = sharded_engine();
        engine.inject_shard_faults(kill_first());
        let service = CsjService::start(engine, ServiceConfig::default());
        let response = service
            .call(Request::PairsAbove { threshold: 0.0 })
            .expect("answered");
        assert!(response.degraded);
        assert_eq!(response.degrade_trigger, Some("coverage"));
        let mut answer = response.value.pairs().expect("pairs").to_vec();
        let key = |p: &csj_engine::PairScore| (p.x.0, p.y.0);
        answer.sort_by_key(key);
        survivors.sort_by_key(key);
        assert_eq!(answer, survivors);
    }
    /// Shard faults through the service: shard 0 of every multi-pair
    /// request is killed, stalled past the deadline, or panics. Read
    /// from the service's metrics, every dispatched shard is counted
    /// completed, failed or cancelled, and no panic escapes. A lost
    /// shard degrades the request on the `coverage` trigger with failed
    /// shards. A stalled shard admits none of its units once it runs, so
    /// the request degrades on the `deadline` trigger with skipped
    /// units. The stall's latency is not asserted: a passed deadline
    /// does not stop a join already in flight.
    #[test]
    fn shard_fates_reconcile_under_kill_stall_and_panic() {
        use csj_engine::{ShardFate, ShardFaultPlan, UnitFate};
        use csj_obs::catalog::{SHARD_DISPATCHED, SHARD_OUTCOMES, SHARD_UNITS};

        let deadline = Duration::from_millis(100);
        let faults = [
            ("kill", ShardFaultPlan::new().kill(0, u32::MAX), "coverage"),
            (
                "stall",
                ShardFaultPlan::new().stall(0, 2 * deadline, u32::MAX),
                "deadline",
            ),
            (
                "panic",
                ShardFaultPlan::new().panic_on(0, u32::MAX),
                "coverage",
            ),
        ];
        for (fault, plan, trigger) in faults {
            let mut engine = sharded_engine();
            engine.inject_shard_faults(plan);
            let anchor = engine.find("c5").expect("registered");
            let service = CsjService::start(
                engine,
                ServiceConfig {
                    default_deadline: Some(deadline),
                    ..ServiceConfig::default()
                },
            );
            for request in [
                Request::TopK { x: anchor, k: 3 },
                Request::PairsAbove { threshold: 0.0 },
            ] {
                let response = service.call(request);
                assert!(
                    !matches!(response, Err(ServiceError::Internal { .. })),
                    "{fault}: a panic escaped the service"
                );
                let response = response.expect("degraded, not failed");
                assert!(response.degraded, "{fault}");
                assert_eq!(response.degrade_trigger, Some(trigger), "{fault}");
            }

            let snap = service.metrics_snapshot();
            let dispatched = snap.value(&SHARD_DISPATCHED, []);
            let [completed, failed, cancelled] = [
                ShardFate::Completed,
                ShardFate::Failed,
                ShardFate::Cancelled,
            ]
            .map(|fate| snap.value(&SHARD_OUTCOMES, [fate.label()]));
            assert!(dispatched > 0, "{fault}");
            assert_eq!(
                dispatched,
                completed + failed + cancelled,
                "{fault}: shard fates do not reconcile"
            );
            if fault == "stall" {
                assert!(snap.value(&SHARD_UNITS, [UnitFate::Skipped.label()]) > 0);
            } else {
                assert!(failed > 0, "{fault}: the attacked shard must fail");
            }
        }
    }
}
