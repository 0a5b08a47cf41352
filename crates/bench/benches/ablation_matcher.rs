//! Ablation: the one-to-one matcher inside the exact methods.
//!
//! The paper's CSF is a lowest-degree-first heuristic; Hopcroft–Karp
//! guarantees the true maximum. This bench times all three matchers on
//! candidate graphs produced by real CSJ joins and reports (once, to
//! stderr) how many pairs each heuristic leaves on the table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use csj_core::verify::ground_truth;
use csj_data::pairs::{build_couple, BuildOptions, Dataset};
use csj_matching::{run_matcher, MatchGraph, MatcherKind};

fn candidate_graph(dataset: Dataset) -> MatchGraph {
    let pair = build_couple(
        csj_data::spec::couple(13),
        dataset,
        BuildOptions { scale: 64, seed: 3 },
    );
    let gt = ground_truth(&pair.b, &pair.a, pair.eps);
    MatchGraph::from_edges(
        pair.b.len() as u32,
        pair.a.len() as u32,
        gt.candidate_pairs.clone(),
    )
}

fn bench_matchers(c: &mut Criterion) {
    for dataset in [Dataset::VkLike, Dataset::Uniform] {
        let graph = candidate_graph(dataset);
        let optimum = run_matcher(&graph, MatcherKind::HopcroftKarp).len();
        eprintln!(
            "[ablation_matcher] {dataset}: |edges| = {}, maximum matching = {optimum}",
            graph.num_edges()
        );
        for kind in MatcherKind::ALL {
            let got = run_matcher(&graph, kind).len();
            eprintln!(
                "[ablation_matcher] {dataset}: {kind} finds {got} ({:.3}% of maximum)",
                100.0 * got as f64 / optimum.max(1) as f64
            );
        }

        let mut group = c.benchmark_group(format!("matcher_{dataset}"));
        group.sample_size(20);
        for kind in MatcherKind::ALL {
            group.bench_with_input(
                BenchmarkId::from_parameter(kind.name()),
                &kind,
                |bench, &k| {
                    bench.iter(|| run_matcher(&graph, k).len());
                },
            );
        }
        group.finish();
    }
}

criterion_group!(benches, bench_matchers);
criterion_main!(benches);
