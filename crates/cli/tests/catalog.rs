//! The metric catalog and the live registries agree: every series the
//! engine, service, durability layer, SLO engine and bench harness
//! export belongs to a family declared in `csj_obs::catalog` with the
//! same kind and label keys, and every declared family is exported.

use csj_core::Community;
use csj_durability::{DurabilityConfig, DurableEngine};
use csj_engine::{engine_slos, CsjEngine, EngineConfig};
use csj_obs::{catalog, default_windows, Kind, SloEngine};
use csj_service::{service_slos, CsjService, Request, ServiceConfig};

fn community(name: &str, rows: &[[u32; 2]]) -> Community {
    Community::from_rows(
        name,
        2,
        rows.iter().enumerate().map(|(i, v)| (i as u64, v.to_vec())),
    )
    .expect("well-formed")
}

#[test]
fn catalog_and_registries_agree() {
    let mut engine = CsjEngine::new(2, EngineConfig::new(1));
    let a = engine
        .register(community("a", &[[1, 1], [5, 5], [9, 9]]))
        .unwrap();
    let b = engine
        .register(community("b", &[[1, 2], [5, 5], [40, 40]]))
        .unwrap();
    let service = CsjService::start(engine, ServiceConfig::default());
    for request in [
        Request::Similarity {
            x: a,
            y: b,
            method: None,
        },
        Request::TopK { x: a, k: 1 },
        Request::PairsAbove { threshold: 0.0 },
    ] {
        service.call(request).unwrap();
    }

    let dir = std::env::temp_dir().join(format!("csj_catalog_agree_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut durable =
        DurableEngine::open(&dir, 2, EngineConfig::new(1), DurabilityConfig::default()).unwrap();
    durable.register(community("c", &[[3, 3]])).unwrap();

    let slo = SloEngine::new(
        engine_slos()
            .into_iter()
            .chain(service_slos(250_000))
            .collect(),
        default_windows(),
    );
    let mut snap = service.metrics_snapshot();
    slo.observe(0, &snap);
    slo.evaluate(0);
    snap.metrics.extend(durable.metrics_snapshot().metrics);
    snap.metrics.extend(slo.snapshot().metrics);
    snap.metrics
        .extend(csj_bench::runner::bench_obs().snapshot().metrics);

    for m in &snap.metrics {
        let family = catalog::ALL
            .iter()
            .find(|f| f.name == m.name)
            .unwrap_or_else(|| panic!("{} is not declared in the catalog", m.name));
        assert_eq!(Kind::of(&m.value), family.kind, "{}", m.name);
        let keys: Vec<&str> = m.labels.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, family.labels, "{}", m.name);
    }
    for family in catalog::ALL {
        assert!(
            snap.find(family.name, &[]).is_some(),
            "{} is declared but no registry exports it",
            family.name
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
