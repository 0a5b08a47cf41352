//! Ablation: the `skip`/`offset` prefix pruning of the Baseline and
//! MinMax loops (Section 4.1's MAX PRUNE machinery).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use csj_core::{run, CsjMethod, CsjOptions};
use csj_data::pairs::{build_couple, BuildOptions, CouplePair, Dataset};

/// Matched pairs of one join of `pair` (paper couples satisfy the CSJ
/// size constraint).
fn join(method: CsjMethod, pair: &CouplePair, opts: &CsjOptions) -> usize {
    run(method, &pair.b, &pair.a, opts)
        .expect("valid paper couple")
        .pairs
        .len()
}

fn bench_skip(c: &mut Criterion) {
    let pair = build_couple(
        csj_data::spec::couple(8),
        Dataset::VkLike,
        BuildOptions {
            scale: 64,
            seed: 17,
        },
    );
    let on = CsjOptions::new(pair.eps);
    let mut off = on.clone();
    off.offset_pruning = false;

    let mut group = c.benchmark_group("offset_pruning");
    group.sample_size(15);
    for (label, opts) in [("on", on), ("off", off)] {
        group.bench_with_input(
            BenchmarkId::new("ap_minmax", label),
            &opts,
            |bench, opts| bench.iter(|| join(CsjMethod::ApMinMax, &pair, opts)),
        );
        group.bench_with_input(
            BenchmarkId::new("ex_minmax", label),
            &opts,
            |bench, opts| bench.iter(|| join(CsjMethod::ExMinMax, &pair, opts)),
        );
        group.bench_with_input(
            BenchmarkId::new("ap_baseline", label),
            &opts,
            |bench, opts| bench.iter(|| join(CsjMethod::ApBaseline, &pair, opts)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_skip);
criterion_main!(benches);
