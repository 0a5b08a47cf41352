//! Helpers shared by the engine's integration tests: one
//! [`CsjEngine::query`] call each, with the answer unwrapped to its kind.

// Each test binary uses its own subset of the helpers.
#![allow(dead_code)]

use csj_engine::{
    Answer, Budget, CommunityHandle, CsjEngine, EngineError, Exactness, PairScore, PairsCursor,
    PairsSweep, Partial, Query,
};

/// The ranking of a [`Query::TopK`] in the form `exactness` picks.
pub fn top_k(
    engine: &CsjEngine,
    x: CommunityHandle,
    k: usize,
    exactness: Exactness,
    budget: &Budget,
) -> Result<Partial<Vec<PairScore>>, EngineError> {
    let partial = engine.query(&Query::TopK { x, k }, exactness, budget)?;
    let Answer::Ranking(ranking) = partial.value else {
        panic!("a top-k query answers with a ranking");
    };
    Ok(Partial {
        value: ranking,
        exhausted: partial.exhausted,
        coverage: partial.coverage,
    })
}

/// The sweep of a [`Query::PairsAbove`] in the form `exactness` picks.
pub fn sweep(
    engine: &CsjEngine,
    threshold: f64,
    exactness: Exactness,
    budget: &Budget,
    resume: Option<PairsCursor>,
) -> Result<Partial<PairsSweep>, EngineError> {
    let partial = engine.query(&Query::PairsAbove { threshold, resume }, exactness, budget)?;
    let Answer::Pairs(sweep) = partial.value else {
        panic!("a sweep answers with pairs");
    };
    Ok(Partial {
        value: sweep,
        exhausted: partial.exhausted,
        coverage: partial.coverage,
    })
}

/// Every other community ranked by its screen score: the approximate
/// top-k over all of them, unbudgeted.
pub fn screened(
    engine: &CsjEngine,
    x: CommunityHandle,
) -> Result<Partial<Vec<PairScore>>, EngineError> {
    top_k(
        engine,
        x,
        usize::MAX,
        Exactness::Approximate,
        &Budget::unlimited(),
    )
}
