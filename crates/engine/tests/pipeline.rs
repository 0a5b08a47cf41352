//! Engine pipeline tests on realistic generated communities.

mod common;

use common::{screened, sweep, top_k};
use csj_core::{run, CsjMethod, CsjOptions, Similarity};
use csj_data::vklike::{VkLikeConfig, VkLikeGenerator};
use csj_data::Category;
use csj_engine::{Answer, Budget, CommunityHandle, CsjEngine, EngineConfig, Exactness, Query};

/// Build an engine holding one anchor plus candidates whose audiences
/// contain a planted fraction of the anchor's users (exact profile
/// copies), so each candidate's CSJ similarity to the *same* anchor is
/// the planted fraction.
fn populated_engine() -> (CsjEngine, CommunityHandle, Vec<(CommunityHandle, f64)>) {
    use csj_core::Community;

    let mut engine = CsjEngine::new(27, EngineConfig::new(1));
    let generator = VkLikeGenerator::new(VkLikeConfig {
        target_similarity: 0.0,
        ..VkLikeConfig::default()
    });
    let (anchor, _) = generator.generate_pair(
        "anchor",
        "unused",
        Category::Sport,
        Category::Sport,
        700,
        800,
        500,
    );

    let sims = [0.30, 0.22, 0.17, 0.05];
    let mut candidates = Vec::new();
    for (i, &sim) in sims.iter().enumerate() {
        let mut cand = Community::new(format!("candidate-{i}"), 27);
        let planted = (sim * anchor.len() as f64).round() as usize;
        for j in 0..planted {
            // Copy an anchor user's profile verbatim (guaranteed match).
            cand.push(1_000 + j as u64, anchor.vector(j))
                .expect("same d");
        }
        // Non-matching fillers: a signature dimension with a huge value.
        let mut filler = vec![0u32; 27];
        for j in planted..800 {
            filler[(i + j) % 27] = 50_000 + (i * 977 + j * 31) as u32;
            cand.push(2_000_000 + j as u64, &filler).expect("same d");
            filler[(i + j) % 27] = 0;
        }
        let h = engine.register(cand).expect("fresh name");
        candidates.push((h, sim));
    }
    let anchor_handle = engine.register(anchor).expect("fresh name");
    (engine, anchor_handle, candidates)
}

#[test]
fn top_k_recovers_the_planted_ordering() {
    let (engine, anchor, candidates) = populated_engine();
    let top = engine.top_k_similar(anchor, 10).expect("valid query");
    // The 0.05 candidate is screened out (threshold 0.15); the rest come
    // back in descending planted order.
    assert_eq!(top.len(), 3);
    let expected: Vec<CommunityHandle> = {
        let mut c: Vec<_> = candidates.iter().filter(|&&(_, s)| s >= 0.15).collect();
        c.sort_by(|x, y| y.1.partial_cmp(&x.1).expect("finite"));
        c.into_iter().map(|&(h, _)| h).collect()
    };
    let got: Vec<CommunityHandle> = top.iter().map(|p| p.y).collect();
    assert_eq!(got, expected);
    // Scores sit at (or slightly above, via accidental matches) the
    // planted fractions.
    assert!((top[0].similarity.ratio() - 0.30).abs() < 0.05);
    assert!((top[1].similarity.ratio() - 0.22).abs() < 0.05);
    assert!((top[2].similarity.ratio() - 0.17).abs() < 0.05);
}

#[test]
fn refined_scores_match_direct_exact_joins() {
    let (engine, anchor, candidates) = populated_engine();
    let ranked = top_k(
        &engine,
        anchor,
        candidates.len(),
        Exactness::Exact,
        &Budget::unlimited(),
    )
    .expect("valid query")
    .value;
    let opts = CsjOptions::new(1);
    for score in &ranked {
        let b = engine.community(score.x).expect("registered").clone();
        let a = engine.community(score.y).expect("registered").clone();
        let (b, a) = if b.len() <= a.len() { (b, a) } else { (a, b) };
        let direct = run(CsjMethod::ExMinMax, &b, &a, &opts).expect("valid");
        assert_eq!(score.similarity, direct.similarity);
    }
}

#[test]
fn screening_is_cheaper_than_refining() {
    let (engine, anchor, candidates) = populated_engine();
    let outcome = screened(&engine, anchor).expect("valid").value;
    // Screening must have scored every candidate exactly once.
    assert_eq!(outcome.len(), candidates.len());
    // And the one below the screen threshold is the 0.05-similarity
    // community.
    let threshold = engine.config().screen_threshold;
    let rejected: Vec<_> = outcome
        .iter()
        .filter(|p| p.similarity.ratio() < threshold)
        .map(|p| p.y)
        .collect();
    assert_eq!(rejected, vec![candidates[3].0]);
}

#[test]
fn cache_survives_unrelated_updates() {
    let (mut engine, anchor, candidates) = populated_engine();
    let (first, _) = candidates[0];
    let (second, _) = candidates[1];
    let s1 = engine.similarity(anchor, first).expect("valid");
    let joins_before = engine.stats().joins_executed;
    // Touching an *unrelated* community must not invalidate the pair.
    engine.upsert_user(second, 424242, &[0; 27]).expect("valid");
    let s2 = engine.similarity(anchor, first).expect("valid");
    assert_eq!(s1, s2);
    assert_eq!(engine.stats().joins_executed, joins_before);
    // Touching a member of the pair must invalidate it.
    engine.upsert_user(first, 424242, &[0; 27]).expect("valid");
    let _ = engine.similarity(anchor, first).expect("valid");
    assert!(engine.stats().joins_executed > joins_before);
}

/// `approx <= exact <= 2 * approx`: approximate CSJ never over-counts
/// and greedy maximal matchings reach at least half the maximum.
fn assert_sound(approx: Similarity, exact: Similarity) {
    assert!(approx.matched <= exact.matched, "{approx:?} vs {exact:?}");
    assert!(
        exact.matched <= 2 * approx.matched,
        "{approx:?} vs {exact:?}"
    );
}

/// The approximate form of each query kind, the one a degraded service
/// request runs, answers with sound lower bounds of the exact answer.
#[test]
fn approximate_forms_are_sound_lower_bounds() {
    let (engine, anchor, candidates) = populated_engine();
    let unlimited = Budget::unlimited();

    let y = candidates[0].0;
    let query = Query::Similarity {
        x: anchor,
        y,
        method: None,
    };
    let approx = engine.query(&query, Exactness::Approximate, &unlimited);
    let Answer::Similarity(approx) = approx.expect("valid query").value else {
        panic!("a similarity query answers with a similarity");
    };
    assert_sound(approx, engine.similarity(anchor, y).expect("valid"));

    let ranking = top_k(&engine, anchor, 10, Exactness::Approximate, &unlimited)
        .expect("valid query")
        .value;
    assert_eq!(ranking.len(), candidates.len(), "every candidate screened");
    for p in &ranking {
        assert_sound(p.similarity, engine.similarity(p.x, p.y).expect("valid"));
    }

    let threshold = 0.1;
    let swept = sweep(&engine, threshold, Exactness::Approximate, &unlimited, None)
        .expect("valid query")
        .value;
    assert!(
        !swept.pairs.is_empty(),
        "candidates share the anchor's users"
    );
    let exact = engine.pairs_above(threshold).expect("valid sweep");
    for p in &swept.pairs {
        assert!(p.similarity.ratio() >= threshold);
        let e = exact
            .iter()
            .find(|q| (q.x, q.y) == (p.x, p.y))
            .unwrap_or_else(|| panic!("{p:?} is not in the exact answer"));
        assert_sound(p.similarity, e.similarity);
    }
}
