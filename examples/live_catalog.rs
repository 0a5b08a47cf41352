//! A live brand catalog on top of [`CsjEngine`].
//!
//! Registers a catalog of brand communities, sweeps all pairs for the
//! broadcast planner (scenario ii.b), answers a top-k query (scenario
//! ii.a) — and then simulates the *online* part of an online system:
//! subscribers keep liking things, counters grow, and cached
//! similarities refresh only for the communities that changed.
//!
//! ```text
//! cargo run --release --example live_catalog
//! ```

use csj::prelude::*;

fn main() {
    let mut engine = CsjEngine::new(27, EngineConfig::new(1));

    // A catalog of six brand pages. Pairs of the same vertical share a
    // chunk of audience (copied profiles), like real sibling brands.
    let verticals: [(&str, &str, f64, Category); 3] = [
        ("Nike", "Adidas", 0.30, Category::Sport),
        ("Sephora", "Lush", 0.24, Category::BeautyHealth),
        ("HelloFresh", "Mealkit&Co", 0.19, Category::FoodRecipes),
    ];

    let mut handles = Vec::new();
    for (i, (left, right, sim, cat)) in verticals.iter().enumerate() {
        let generator = VkLikeGenerator::new(VkLikeConfig {
            target_similarity: *sim,
            ..VkLikeConfig::default()
        });
        let (b, a) = generator.generate_pair(left, right, *cat, *cat, 1_200, 1_400, 60 + i as u64);
        handles.push(engine.register(b).expect("fresh name"));
        handles.push(engine.register(a).expect("fresh name"));
    }

    // A deadline-conscious planner asks for whatever fits in a budget
    // first: the sweep degrades gracefully and hands back a resume
    // cursor instead of erroring.
    let budget = Budget::unlimited().with_max_joins(4);
    let sweep = Query::PairsAbove {
        threshold: 0.10,
        resume: None,
    };
    let partial = engine
        .query(&sweep, Exactness::Exact, &budget)
        .expect("budgeted sweeps degrade, they do not error");
    let Answer::Pairs(swept) = &partial.value else {
        unreachable!("a sweep answers with pairs")
    };
    println!("== Budgeted sweep (at most 4 joins) ==");
    match partial.exhausted {
        Some(marker) => println!(
            "  scored {} pairs, stopped by {} with {} pairs left (resumable)",
            swept.pairs.len(),
            marker.reason,
            marker.pairs_skipped
        ),
        None => println!(
            "  scored {} pairs, budget never exhausted",
            swept.pairs.len()
        ),
    }

    // Broadcast planner: every admissible pair above 10%.
    println!("\n== All community pairs above 10% similarity ==");
    let pairs = engine.pairs_above(0.10).expect("valid sweep");
    for p in &pairs {
        println!(
            "  {:<12} ~ {:<12} {}",
            engine.community(p.x).expect("registered").name(),
            engine.community(p.y).expect("registered").name(),
            p.similarity
        );
    }

    // Partner search for Nike.
    let nike = engine.find("Nike").expect("registered");
    println!("\n== Top-3 partners for Nike (screen with Ap-MinMax, refine with Ex-MinMax) ==");
    for p in engine.top_k_similar(nike, 3).expect("valid query") {
        println!(
            "  {:<12} {}",
            engine.community(p.y).expect("registered").name(),
            p.similarity
        );
    }

    // The live part: an Adidas subscriber goes on a liking spree and an
    // account migrates over from Nike.
    let adidas = engine.find("Adidas").expect("registered");
    let before = engine.similarity(nike, adidas).expect("valid pair");
    let migrated_profile: Vec<u32> = engine
        .community(nike)
        .expect("registered")
        .vector(0)
        .to_vec();
    engine
        .upsert_user(adidas, 555_000_001, &migrated_profile)
        .expect("valid update");
    let after = engine.similarity(nike, adidas).expect("valid pair");
    println!("\n== Live update ==");
    println!("  Nike~Adidas before migration: {before}");
    println!("  Nike~Adidas after  migration: {after} (one more matchable subscriber)");

    let stats = engine.stats();
    println!(
        "\nengine: {} communities, {} cached pairs, {} joins executed, {} cache hits",
        stats.communities, stats.cached_pairs, stats.joins_executed, stats.cache_hits
    );
}
