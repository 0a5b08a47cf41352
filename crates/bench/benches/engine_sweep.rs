//! Bench: one cold engine broadcast sweep (`pairs_above`) over a
//! VK-like corpus, at a low and a high threshold. Each batch gets a
//! fresh engine, so every pair is joined: at t = 0.15 the screen prunes
//! little and most pairs are refined directly, at t = 0.9 it prunes
//! nearly every pair and the sweep screens throughout.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use csj_core::Community;
use csj_data::corpus::{Corpus, CorpusConfig};
use csj_engine::{CsjEngine, EngineConfig};

/// The corpus's communities with at least two subscribers.
fn communities() -> Vec<Community> {
    let corpus = Corpus::generate(CorpusConfig {
        users: 2_500,
        pages_per_category: 4,
        seed: 41,
        ..CorpusConfig::default()
    });
    (0..corpus.pages().len())
        .map(|i| corpus.community(i))
        .filter(|c| c.len() >= 2)
        .collect()
}

/// A fresh engine over `communities`.
fn engine(communities: &[Community]) -> CsjEngine {
    let mut engine = CsjEngine::new(
        communities[0].d(),
        EngineConfig::new(csj_data::spec::VK_EPS),
    );
    for c in communities {
        engine.register(c.clone()).expect("page names are unique");
    }
    engine
}

fn bench_sweep(c: &mut Criterion) {
    let communities = communities();
    let mut group = c.benchmark_group("engine_sweep");
    group.sample_size(10);
    for threshold in [0.15, 0.9] {
        group.bench_function(format!("cold_t{threshold}"), |bench| {
            bench.iter_batched(
                || engine(&communities),
                // The engine is returned, so dropping it is not timed.
                |engine| {
                    let pairs = engine.pairs_above(threshold).expect("fault-free sweep");
                    (engine, pairs)
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
