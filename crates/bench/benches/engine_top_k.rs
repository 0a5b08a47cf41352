//! Bench: one engine top-k over a VK-like partner-search corpus, cold
//! and warm. A cold top-k (a fresh engine per batch) runs every screen
//! join and refines the shortlist; a warm one, repeated on one engine,
//! is served from the engine's per-pair score cache and runs no join.
//! The warm group is what repeated requests see; the cold group keeps
//! the joins behind a top-k measured.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use csj_core::Community;
use csj_data::corpus::{Corpus, CorpusConfig};
use csj_engine::{CommunityHandle, CsjEngine, EngineConfig};

const K: usize = 5;

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

/// A fresh engine over `communities`, and its largest community as the
/// top-k anchor.
fn engine(communities: &[Community]) -> (CsjEngine, CommunityHandle) {
    let mut engine = CsjEngine::new(
        communities[0].d(),
        EngineConfig::new(csj_data::spec::VK_EPS),
    );
    for c in communities {
        engine.register(c.clone()).expect("page names are unique");
    }
    let anchor = engine
        .handles()
        .max_by_key(|&h| engine.community(h).map_or(0, Community::len))
        .expect("a community");
    (engine, anchor)
}

fn bench_top_k(c: &mut Criterion) {
    let communities = communities();
    let mut group = c.benchmark_group("engine_top_k");
    group.sample_size(20);
    group.bench_function("cold", |bench| {
        bench.iter_batched(
            || engine(&communities),
            // The engine is returned, so dropping it is not timed.
            |(engine, x)| {
                let top = engine.top_k_similar(x, K).expect("live anchor");
                (engine, top)
            },
            BatchSize::LargeInput,
        );
    });
    let (warm, x) = engine(&communities);
    warm.top_k_similar(x, K).expect("live anchor");
    group.bench_function("warm", |bench| {
        bench.iter(|| warm.top_k_similar(x, K).expect("live anchor").len());
    });
    group.finish();
}

criterion_group!(benches, bench_top_k);
criterion_main!(benches);
