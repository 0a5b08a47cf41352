//! The benchmark's own tests: every workload runs at a tiny size and
//! prints every metric `BENCHMARK.json` names, with its unit; and every
//! output check catches a deliberately corrupted reference answer.

use std::path::{Path, PathBuf};

use csj_core::{CsjMethod, Similarity};
use csj_data::corpus::{Corpus, CorpusConfig};
use csj_engine::CsjEngine;
use csj_perfbench::couples::{answer_ok, Truth};
use csj_perfbench::partner::{self, answer_matches, Answer, Kind};
use csj_perfbench::rng::Rng;
use csj_perfbench::trace::Tracer;
use csj_perfbench::{broadcast, run, Sizes, WORKLOADS};
use csj_service::{CsjService, ResponseValue};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| -> Option<String> {
        let at = obj.find(&format!("\"{key}\""))?;
        let rest = &obj[at + key.len() + 2..];
        let open = rest.find('"')?;
        let rest = &rest[open + 1..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|obj| {
            (
                field(obj, "name").expect("metric has a name"),
                field(obj, "unit").expect("metric has a unit"),
            )
        })
        .collect()
}

fn work_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("csj-perfbench-test-{tag}-{}", std::process::id()))
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let e2e = declared("end_to_end");
    let layer = declared("per_layer");
    assert!(!e2e.is_empty() && e2e.len() <= 16);
    assert!(
        layer.len() > 100 && layer.len() <= 128,
        "{} per-layer metrics",
        layer.len()
    );
    for workload in WORKLOADS {
        for (trace, expected) in [(false, &e2e), (true, &layer)] {
            let tag = format!("{workload}-{trace}");
            let spans = work_dir(&format!("{tag}-spans")).join("spans.jsonl");
            let r = run(
                workload,
                3,
                0.2,
                trace,
                Sizes::tiny(),
                work_dir(&tag),
                Some(spans.clone()),
            )
            .expect("known workload");
            assert!(r.correct, "{workload} trace={trace}: {:?}", r.notes);
            assert!(r.attempted > 0);
            assert_eq!(r.failed, 0);
            let printed: Vec<(String, String)> = r
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(&printed.len(), &expected.len(), "{workload} trace={trace}");
            for want in expected {
                assert!(
                    printed.contains(want),
                    "{workload} trace={trace}: missing {want:?}"
                );
            }
            assert!(r.metrics.iter().all(|m| m.value.is_finite()));
            if trace {
                let text = std::fs::read_to_string(&spans).expect("span file written");
                assert!(text.lines().count() > 10);
                assert!(text.contains("\"name\":\"service.submit\""));
                let _ = std::fs::remove_dir_all(spans.parent().expect("has a parent"));
            }
        }
    }
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(run("nope", 1, 1.0, false, Sizes::tiny(), work_dir("nope"), None).is_err());
}

#[test]
fn couples_check_catches_a_corrupted_count() {
    let truth = Truth {
        maximum: 10,
        candidates: 40,
    };
    assert!(answer_ok(CsjMethod::ExMinMax, 10, 40, truth, true));
    assert!(answer_ok(CsjMethod::ApMinMax, 5, 0, truth, true));
    // Over the maximum, under half of it, or candidates missed.
    assert!(!answer_ok(CsjMethod::ExMinMax, 11, 40, truth, true));
    assert!(!answer_ok(CsjMethod::ExMinMax, 4, 40, truth, true));
    assert!(!answer_ok(CsjMethod::ExMinMax, 10, 39, truth, true));
    assert!(!answer_ok(CsjMethod::ApMinMax, 4, 0, truth, true));
    assert!(!answer_ok(CsjMethod::ApMinMax, 11, 0, truth, true));
    // Ex-SuperEGO must see every candidate only on lossless floats.
    assert!(!answer_ok(CsjMethod::ExSuperEgo, 9, 38, truth, true));
    assert!(answer_ok(CsjMethod::ExSuperEgo, 9, 38, truth, false));
    assert!(!answer_ok(CsjMethod::ExSuperEgo, 11, 38, truth, false));
}

fn tiny_engine(config: csj_engine::EngineConfig) -> CsjEngine {
    let corpus = Corpus::generate(CorpusConfig {
        users: 400,
        pages_per_category: 2,
        seed: 11,
        ..CorpusConfig::default()
    });
    let mut engine = CsjEngine::new(27, config);
    for i in 0..corpus.pages().len() {
        let c = corpus.community(i);
        if c.len() >= 2 {
            engine.register(c).expect("unique names");
        }
    }
    engine
}

#[test]
fn broadcast_check_catches_a_corrupted_sweep() {
    let engine = tiny_engine(csj_engine::EngineConfig::new(1));
    let tracer = Tracer::new(false);
    let mut pairs = engine.pairs_above(broadcast::THRESHOLD).expect("sweep");
    assert!(!pairs.is_empty());
    let n = pairs.len();
    let (checked, wrong) = broadcast::check_pairs(&tracer, &engine, &pairs, &mut Rng::new(1, 1), n);
    assert_eq!((checked, wrong), (n as u64, 0));
    for p in &mut pairs {
        p.similarity.matched += 1;
    }
    let (checked, wrong) = broadcast::check_pairs(&tracer, &engine, &pairs, &mut Rng::new(1, 1), n);
    assert_eq!(wrong, checked);
}

#[test]
fn partner_check_catches_a_corrupted_reference() {
    let engine = tiny_engine(partner::engine_config());
    let tracer = Tracer::new(false);
    let plan = partner::schedule(&engine, 40, &mut Rng::new(5, 5));
    assert!(plan.iter().any(|p| p.kind == Kind::TopK));
    let refs = partner::references(&tracer, &engine, &plan);
    let service = CsjService::start(engine, partner::service_config());
    for p in &plan {
        let response = service.call(p.request()).expect("answered");
        let reference = &refs[p];
        assert!(answer_matches(&response.value, reference), "{p:?}");
        let corrupted = match reference {
            Answer::Score(s) => Answer::Score(Similarity {
                matched: s.matched + 1,
                ..*s
            }),
            Answer::Ranking(r) => {
                Answer::Ranking(r.iter().rev().cloned().chain(r.first().cloned()).collect())
            }
        };
        assert!(!answer_matches(&response.value, &corrupted), "{p:?}");
    }
    // A response of the wrong shape never matches.
    let score = ResponseValue::Similarity(Similarity {
        matched: 0,
        b_size: 1,
    });
    assert!(!answer_matches(&score, &Answer::Ranking(Vec::new())));
}
